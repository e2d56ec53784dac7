"""A fixed pure-Python task that measures how fast the host runs right now.

On a shared host the same code runs up to 2x slower in some phases than
in others, and the phases last from seconds to minutes.  Every kind of
interpreted work in one process slows down together: on a 2-vCPU virtual
machine, over 15-s windows, the times of four different ``ugwldp`` calls
drifted by 11-17 % (sd/mean) while their ratios to one another drifted by
3-4 %.  So the benchmark runs chunks of this task between its timed
rounds, in the same process, for a fixed share of the time, and divides
the drift out:

    time at reference speed = measured time / slowdown
    slowdown = mean chunk time / REF_CHUNK_S

A figure then reads as seconds on a host that runs one chunk in
``REF_CHUNK_S``.  The task uses no ``ugwldp`` code, so a library change
cannot move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REF_CHUNK_S = 0.015  # the scale of the figures; a fixed constant, not a measurement
N = 1200  # vertices of the reference pairing
ROOTS = 16  # BFS roots per chunk


class Reference:
    def __init__(self):
        rng = random.Random("reference")
        points = [v for v in range(N) for _ in range(3)]
        rng.shuffle(points)
        self.adj = {v: [] for v in range(N)}
        for a, b in zip(points[::2], points[1::2]):
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.roots = 0
        self.seconds = 0.0
        self.chunks = 0

    def _chunk(self):
        """BFS layers, a sorted signature and a rational sum: the library's staples."""
        total = Fraction(0)
        for _ in range(ROOTS):
            root = self.roots % N
            self.roots += 1
            dist = {root: 0}
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in self.adj[u]:
                        if w not in dist:
                            dist[w] = dist[u] + 1
                            nxt.append(w)
                frontier = nxt
            signature = tuple(sorted((d, len(set(self.adj[v]))) for v, d in dist.items()))
            total += Fraction(signature[-1][0], 1 + len(signature) % 7)
        return total

    def run(self, nominal_s: float):
        """Run chunks worth ``nominal_s`` seconds at reference speed (at least one)."""
        k = max(1, round(nominal_s / REF_CHUNK_S))
        t0 = time.perf_counter()
        for _ in range(k):
            self._chunk()
        self.seconds += time.perf_counter() - t0
        self.chunks += k

    def slowdown(self) -> float:
        """Mean chunk time over REF_CHUNK_S: above 1 on a host slower than the scale."""
        if not self.chunks:
            raise ValueError("no reference chunk has run")
        return self.seconds / (self.chunks * REF_CHUNK_S)
