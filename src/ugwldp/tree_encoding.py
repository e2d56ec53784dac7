"""Encoding tree-like graphs as colored degree sequences, and exact counting.

A graph whose depth-h neighborhoods are all trees can be rebuilt, up to the
choice of vertex labels, from per-vertex counts of directed edge patterns:
each edge {u, v} is colored by the ordered pair of depth-(h-1) split
classes (component of v without the edge, component of u without the
edge).  Any colored multigraph with the same degree sequence and no cycle
of length <= 2h+1 has exactly the same multiset of depth-h neighborhoods,
which turns neighborhood-preserving graph counting into configuration
counting.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .config_model import (
    ColoredMultigraph,
    DegreeSequence,
    _simple_sample,
    bijection_colors,
    colorblind_of,
    config_space_size,
    degree_factorials,
    has_cycle_leq,
    matching_colors,
)
from .oracle import enumerate_configurations
from .rooted import (
    SimpleGraph,
    _check_int,
    _has_short_cycle,
    _join_at_vertices,
    _messages,
    ball_classes,
    tree_classes,
)


class NotTreeLikeError(ValueError):
    pass


@dataclass(frozen=True)
class EncodingContext:
    """Split classes of a graph at depth h-1 and their color indexing."""

    h: int
    classes: tuple  # canonical split classes, sorted by wire form
    index: dict  # class -> 1-based color component

    @property
    def L(self):
        return len(self.classes)

    def to_json(self):
        return {
            "h": self.h,
            "classes": [c.wire() for c in self.classes],
            "colors": [
                {"color": [i + 1, j + 1], "pair": [a.wire(), b.wire()]}
                for i, a in enumerate(self.classes)
                for j, b in enumerate(self.classes)
            ],
        }


def neighborhood_vector(G: SimpleGraph, h: int):
    """Depth-h class of every vertex, in vertex order.

    Read from :func:`rooted.ball_classes`: O(n + m) for the depth-1
    messages and O((h - 2) * m * d log d) for the deeper ones, d the
    largest degree, one short-cycle search over the 2-core, and a
    canonical labeling of each cyclic ball's core.
    """
    classes = ball_classes(G.adjacency(), h)
    return [classes[v] for v in range(G.n)]


def is_h_treelike(G: SimpleGraph, h: int) -> bool:
    """Every depth-h neighborhood is a tree (no cycle of length <= 2h+1).

    One short-cycle search on G's vertex-indexed adjacency: a BFS from each
    2-core vertex over the vertices above it, which stops at the first
    cycle found.
    Raises ValueError for a depth h that is not an int >= 0.
    """
    _check_int("depth", h, 0)
    return not _has_short_cycle(G.adjacency(), 2 * h + 1)


def _encoding(G: SimpleGraph, h: int):
    """The per-graph work of the encoding, done once: arcs, messages, classes and D.

    Rejects a depth that is not an int >= 1 and a graph that is not
    h-tree-like (:func:`is_h_treelike`), then makes one depth-(h-1)
    message pass of :func:`rooted._messages`.  Returns ((start, to, back,
    ids, table), col, classes, D): the arc table and the messages on it,
    as _messages gives them, col[a] the 0-based index of table[ids[a]] in
    classes, the distinct messages sorted by wire form, and the colored
    degree sequence.  Arc a out of u adds 1 to D's entry (col[a],
    col[back[a]]) at u, in one O(n + m) pass; vertices with the same
    multiset of entries share one matrix.
    """
    _check_int("depth", h, 1)
    if not is_h_treelike(G, h):
        raise NotTreeLikeError(f"graph has a cycle of length <= {2 * h + 1}")
    start, to, back, ids, table = _messages(G.adjacency(), h - 1)
    used = sorted(set(ids), key=lambda i: table[i].wire())
    classes = tuple(table[i] for i in used)
    L = len(classes)
    rank = {i: r for r, i in enumerate(used)}
    col = [rank[i] for i in ids]
    mats = {}
    rows = []
    for u in range(G.n):
        key = tuple(sorted([col[a] * L + col[back[a]] for a in range(start[u], start[u + 1])]))
        mat = mats.get(key)
        if mat is None:
            grid = [[0] * L for _ in range(L)]
            for x in key:
                grid[x // L][x % L] += 1
            mat = mats[key] = tuple(map(tuple, grid))
        rows.append(mat)
    return (start, to, back, ids, table), col, classes, DegreeSequence(L, tuple(rows))


def encode(G: SimpleGraph, h: int):
    """Colored encoding of an h-tree-like graph.

    Returns (colored multigraph, context, degree sequence).  The colorblind
    projection of the output recovers G exactly, and the output has no
    cycle of length <= 2h+1.  The edge sides are the depth-(h-1) messages
    of :func:`rooted._messages`.  Cost: one girth test (a BFS per 2-core
    vertex over the vertices above it), one O(n + m + (h - 2) * m * d log
    d) message pass, d the largest degree, and D and the multigraph built
    from the arc table in O(n + m).
    """
    (start, to, back, _, _), col, classes, D = _encoding(G, h)
    ctx = EncodingContext(h, classes, {c: i + 1 for i, c in enumerate(classes)})
    out = ColoredMultigraph(ctx.L, G.n)
    for u in range(G.n):
        for a in range(start[u], start[u + 1]):
            if u < to[a]:
                out.add_edge((col[a] + 1, col[back[a]] + 1), u, to[a])
    return out, ctx, D


def verify_neighborhood_preservation(
    G: SimpleGraph, h: int, samples: int, rng: random.Random
) -> bool:
    """Sampled check that re-wired encodings keep the neighborhood multiset.

    Draws `samples` colored multigraphs with the encoded degree sequence
    and no cycle of length <= 2h+1, by the sample_G_Dh attempt loop, and
    compares the depth-h class multisets of their simple graphs with G's.
    G, once shown h-tree-like, and every sample have only tree balls, so
    their classes are joined from tree messages with no cycle search: G's
    from the messages its encoding already made, each sample's by
    :func:`rooted.tree_classes`.  Cost: one girth test and one O(n + h * m
    * d log d) message pass on G, D in O(n + m), then one draw and one
    message pass per sample.
    """
    _check_int("samples", samples, 1)
    (start, _, _, ids, table), _, _, D = _encoding(G, h)
    want = Counter(_join_at_vertices(start, ids, table, h))
    for _ in range(samples):
        sample, _, _ = _simple_sample(D, 2 * h + 1, rng)
        if Counter(tree_classes(sample.adjacency(), h)) != want:
            return False
    return True


def distinct_orderings(D: DegreeSequence) -> int:
    """Number of distinct reorderings of the degree sequence."""
    counts = Counter(D.mats)
    out = math.factorial(D.n)
    for c in counts.values():
        out //= math.factorial(c)
    return out


def count_short_cycle_free(D: DegreeSequence, h: int) -> int:
    """|{colored multigraphs with degrees D, no cycle <= h}| by enumeration.

    Counts accepted configurations and divides by the constant fiber size
    of simple colored graphs (h >= 2 makes every accepted graph simple).
    """
    _check_int("h", h, 2)  # so that accepted graphs are simple
    accepted = 0
    for sigma in enumerate_configurations(D):
        if not has_cycle_leq(colorblind_of(sigma), h):
            accepted += 1
    fiber = degree_factorials(D)
    if accepted % fiber:
        raise RuntimeError(
            f"{accepted} accepted configurations are not a multiple of the fiber size {fiber}"
        )
    return accepted // fiber


def log_matchings(s: int) -> float:
    """log((s-1)!!), the log-count of perfect matchings of s half-edges.

    Uses the closed form (s-1)!! = s! / (2^(s/2) (s/2)!) for even s >= 0.
    """
    _check_int("s", s, 0)
    if s % 2:
        raise ValueError(f"needs an even half-edge count, got {s}")
    return math.lgamma(s + 1) - (s // 2) * math.log(2) - math.lgamma(s // 2 + 1)


def count_equivalent_graphs(G: SimpleGraph, h: int, mode: str = "exact"):
    """Number of graphs on the same labeled vertex set with G's depth-h law.

    exact mode multiplies the count of degree-sequence reorderings by the
    number of short-cycle-free colored multigraphs, enumerated outright
    (tiny instances only).  log_asymptotic mode takes the log of the same
    product with every colored multigraph counted, as configurations over
    slot orderings: it drops only the log of the short-cycle-free
    fraction, which stays O(1) as n grows with bounded degrees (flagged in
    the result).  It returns that log over n, minus the (m/n) log n label
    term, as per_vertex_rate, and raises ValueError for the empty graph.
    Both read D from one girth test and one O(n + h * m * d log d) message
    pass, d the largest degree, with D built in O(n + m); log_asymptotic
    then takes the lgamma terms of each distinct degree matrix once.
    """
    if mode not in ("exact", "log_asymptotic"):
        raise ValueError(f"unknown mode {mode!r}")
    *_, D = _encoding(G, h)
    if mode == "exact":
        space = config_space_size(D)
        if space > 2_000_000:
            raise ValueError(f"configuration space too large for exact mode ({space})")
        return distinct_orderings(D) * count_short_cycle_free(D, 2 * h + 1)
    n = G.n
    if n == 0:
        raise ValueError("log_asymptotic mode needs at least one vertex, got the empty graph")
    m = G.m
    # log distinct_orderings(D), without the factorials
    log_count = math.lgamma(n + 1)
    for c in Counter(D.mats).values():
        log_count -= math.lgamma(c + 1)
    for c in bijection_colors(D.L):
        log_count += math.lgamma(D.S(c) + 1)
    for c in matching_colors(D.L):
        log_count += log_matchings(D.S(c))
    # lgamma(1) and lgamma(2) are exactly 0.0, so leaving out the entries
    # below 2 subtracts nothing; the rest go vertex by vertex, row by row.
    terms = {}
    for mat in D.mats:
        got = terms.get(mat)
        if got is None:
            got = terms[mat] = [math.lgamma(x + 1) for row in mat for x in row if x > 1]
        for t in got:
            log_count -= t
    value = log_count / n - (m / n) * math.log(n)
    return {
        "per_vertex_rate": value,
        "acceptance_factor_dropped": True,
        "n": n,
        "m": m,
    }
