"""Seeded statistical experiments over the configuration model.

Three experiments back the quantitative claims: short-cycle counts
against their limiting intensities, local convergence of neighborhood
laws toward the prescribed-law tree, and switch-Lipschitz concentration
of neighborhood frequencies.  All runs are deterministic in (parameters,
seed): sample i runs on its own derived seed, in index order.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

from .config_model import (
    DegreeSequence,
    _simple_sample,
    colorblind_of,
    sample_configuration,
)
from .neighborhood import NeighborhoodLaw, empirical_distribution, tv_distance
from .rooted import _check_int
from .ugw import marginal_ugw


def cycle_counts(bar) -> dict:
    """Cycles of length 1..4 of a multigraph, as {length: count}.

    A cycle counts once per choice of edges, so it weighs the product of
    its edges' multiplicities: an edge of multiplicity m holds C(m, 2)
    2-cycles, and each loop is a 1-cycle.  The loops are summed off
    bar.loops; everything else is read off the stored adjacency bar.adj,
    from each vertex x to its upper neighbours u > x.  An edge x-u counts
    its parallel pairs there, once.  Triangles are counted from their least
    vertex x over x < u < w.  A 4-cycle is counted from its least vertex
    x: the 2-paths x-u-w with u, w > x are grouped by their far end w, and
    each new path of weight p pairs with the running weight s of the
    earlier ones, adding s * p.  Cost O(n + sum of deg^2), with nothing
    rebuilt.
    """
    adj = bar.adj
    parallel = triangles = squares = 0
    for x, ax in enumerate(adj):
        far: dict = {}  # w -> summed weight of the 2-paths x-u-w so far
        for u, mxu in ax.items():
            if u < x:
                continue
            parallel += mxu * (mxu - 1) // 2
            for w, muw in adj[u].items():
                if w <= x:
                    continue
                p = mxu * muw
                if w > u and w in ax:
                    triangles += p * ax[w]
                if w in far:
                    s = far[w]
                    squares += s * p
                    far[w] = s + p
                else:
                    far[w] = p
    return {1: sum(bar.loops), 2: parallel, 3: triangles, 4: squares}


def regular_intensity(d: int, ell: int) -> float:
    """Limiting mean number of length-ell cycles in the d-regular model."""
    return (d - 1) ** ell / (2 * ell)


def _fan_out(worker, samples, seed):
    """One derived seed per sample; results in sample order."""
    return [worker(seed * 1_000_003 + i) for i in range(samples)]


def cycles_experiment(d: int, n: int, samples: int, seed: int):
    """Short-cycle counts and simpleness rate of the d-regular pairing model.

    Each sample is one pairing on n vertices, projected by colorblind_of
    and counted by cycle_counts.  All samples share one degree sequence,
    whose half-edge pools are built once; a sample then costs O(n d) to
    pair and project and O(n d^2) to count.  Rows 1..4 give each length's
    mean, its standard error and the limiting mean (d-1)^l / (2l); the
    last row gives the share of simple samples against exp(-l1 - l2).
    Raises ValueError naming d, n or samples unless it is an int >= 1.
    """
    _check_int("d", d, 1)
    _check_int("n", n, 1)
    _check_int("samples", samples, 1)
    D = DegreeSequence.single_color([d] * n)

    def one(s):
        rng = random.Random(s)
        counts = cycle_counts(colorblind_of(sample_configuration(D, rng)))
        # simple: no loop and no parallel pair, so no cycle of length <= 2
        counts["simple"] = int(counts[1] + counts[2] == 0)
        return counts

    rows = _fan_out(one, samples, seed)
    out = []
    for ell in (1, 2, 3, 4):
        values = [r[ell] for r in rows]
        mean = statistics.fmean(values)
        sd = statistics.pstdev(values)
        stderr = sd / math.sqrt(samples)
        out.append(
            {
                "length": ell,
                "mean": mean,
                "stderr": stderr,
                "target": regular_intensity(d, ell),
            }
        )
    acc = statistics.fmean(r["simple"] for r in rows)
    lam2 = regular_intensity(d, 1) + regular_intensity(d, 2)
    out.append(
        {
            "length": "simple_rate",
            "mean": acc,
            "stderr": math.sqrt(max(acc * (1 - acc), 1e-12) / samples),
            "target": math.exp(-lam2),
        }
    )
    return out


def degree_sequence_for_law(P_deg: dict, n: int) -> DegreeSequence:
    """Deterministic single-color degree sequence matching a degree law.

    Largest-remainder rounding of n * P(k); if the total is odd, one vertex
    is moved between two support values of different parity.  Raises
    ValueError, before any rounding, unless P_deg is a law that
    NeighborhoodLaw.from_degree_law accepts: int degrees >= 0, weights
    >= 0 and total mass exactly 1.
    """
    _check_int("n", n, 1)
    for k in P_deg:
        _check_int("degree", k, 0)
    P = {k: Fraction(p) for k, p in P_deg.items()}
    NeighborhoodLaw.from_degree_law(P)
    items = sorted((k, p) for k, p in P.items() if p)
    counts = {k: int(n * p) for k, p in items}
    rem = sorted(
        ((n * p - counts[k], k) for k, p in items), reverse=True
    )
    short = n - sum(counts.values())
    for i in range(short):
        counts[rem[i % len(rem)][1]] += 1
    if sum(k * c for k, c in counts.items()) % 2 == 1:
        odd_gaps = [
            (a, b)
            for a in counts
            for b in counts
            if a != b and (a - b) % 2 == 1 and counts[a] > 0
        ]
        if not odd_gaps:
            raise ValueError("cannot fix parity within the law's support")
        a, b = odd_gaps[0]
        counts[a] -= 1
        counts[b] += 1
    degrees = []
    for k in sorted(counts):
        degrees.extend([k] * counts[k])
    return DegreeSequence.single_color(degrees)


def converge_experiment(P_deg: dict, n_list, samples: int, depth: int, seed: int):
    """Distance from the mean empirical law to the tree-marginal target.

    Each sample is a graph with no loop or double edge: the simple graph
    of the sample_G_Dh attempt loop at h = 2, handed to
    empirical_distribution as drawn.  Raises ValueError naming samples,
    depth or an n_list entry unless it is an int >= 1.
    """
    _check_int("samples", samples, 1)
    _check_int("depth", depth, 1)
    for i, n in enumerate(n_list):
        _check_int(f"n_list[{i}]", n, 1)
    law = NeighborhoodLaw.from_degree_law(
        {k: Fraction(p) for k, p in P_deg.items()}
    )
    target = marginal_ugw(law, depth)
    rows = []
    for n in n_list:
        D = degree_sequence_for_law(P_deg, n)

        def one(s, D=D):
            rng = random.Random(s)
            G, _, _ = _simple_sample(D, 2, rng)
            return empirical_distribution(G, depth)

        laws = _fan_out(one, samples, seed + n)
        mean_support: dict = {}
        for lw in laws:
            for cls, p in lw.items():
                mean_support[cls] = mean_support.get(cls, 0) + Fraction(p, samples)
        mean_law = NeighborhoodLaw(depth, mean_support)
        rows.append(
            {
                "n": n,
                "samples": samples,
                "tv": float(tv_distance(mean_law, target)),
            }
        )
    return rows


def concentration_envelope_delta(theta: int, L: int, k: int, mean_half_edges: float):
    """Exponent constant of the switch-Lipschitz tail bound.

    One switch moves a depth-k class frequency count by at most 4*kappa
    with kappa = 2 * sum_{s<k} (theta L^2)^s; the bound on the frequency
    deviation is 2 exp(-delta n t^2) with delta = n / ((4 kappa)^2 N).
    """
    kappa = 2 * sum((theta * L * L) ** s for s in range(k))
    return 1.0 / ((4 * kappa) ** 2 * mean_half_edges)


def concentrate_experiment(d: int, n_list, samples: int, seed: int):
    """Frequency concentration of the plain depth-1 star class."""
    _check_int("d", d, 1)
    _check_int("samples", samples, 1)
    for i, n in enumerate(n_list):
        _check_int(f"n_list[{i}]", n, 1)
    rows = []
    for n in n_list:
        D = DegreeSequence.single_color([d] * n)

        def one(s, D=D, n=n):
            # frequency of the plain d-star ball: d distinct simple edges,
            # no loops anywhere in the ball, no edges among the neighbors
            rng = random.Random(s)
            bar = colorblind_of(sample_configuration(D, rng))
            adj, loops = bar.adj, bar.loops
            hits = 0
            for v, nbrs in enumerate(adj):
                if loops[v] or len(nbrs) != d or any(m != 1 for m in nbrs.values()):
                    continue
                if any(loops[u] for u in nbrs):
                    continue
                ns = sorted(nbrs)
                if any(w in adj[u] for i, u in enumerate(ns) for w in ns[i + 1 :]):
                    continue
                hits += 1
            return hits / n

        freqs = _fan_out(one, samples, seed + n)
        mean = statistics.fmean(freqs)
        sd = statistics.pstdev(freqs)
        delta = concentration_envelope_delta(d, 1, 1, d)
        grid = [0.002, 0.005, 0.01, 0.02, 0.05]
        tail = []
        for t in grid:
            emp = sum(1 for f in freqs if abs(f - mean) >= t) / samples
            bound = 2 * math.exp(-delta * n * t * t)
            tail.append({"t": t, "empirical": emp, "bound": bound})
        rows.append(
            {
                "n": n,
                "samples": samples,
                "mean": mean,
                "sd": sd,
                "fitted_C": sd * math.sqrt(n),
                "delta": delta,
                "tail": tail,
            }
        )
    return rows
