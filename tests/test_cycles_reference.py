"""Colorblind projection and short-cycle counts against straightforward references.

The references below are the two-step projection colorblind(graph_of(.))
and the four separate counters that `cycle_counts` replaced: loops and
parallel pairs read off the weight dict, triangles over sorted neighbor
lists, and 4-cycles from a dict of 2-path weights keyed by the pair of
far ends.  A brute force over vertex triples and quadruples checks both
on small graphs.  The experiments must give the same rows as the same
seeds run through the references.
"""

import itertools
import math
import random
import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.config_model import (
    DegreeSequence,
    Multigraph,
    colorblind,
    colorblind_of,
    graph_of,
    sample_configuration,
    validate_degree_sequence,
)
from ugwldp.experiments import (
    concentrate_experiment,
    cycle_counts,
    cycles_experiment,
    regular_intensity,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def reference_projection(sigma):
    return colorblind(graph_of(sigma))


def reference_adjacency(bar):
    adj = {v: {} for v in range(bar.n)}
    for (u, v), m in bar.w.items():
        if u != v:
            adj[u][v] = m
            adj[v][u] = m
    return adj


def count_loops(bar) -> int:
    return sum(m // 2 for (u, v), m in bar.w.items() if u == v)


def count_parallel_pairs(bar) -> int:
    return sum(m * (m - 1) // 2 for (u, v), m in bar.w.items() if u != v)


def count_triangles(adj) -> int:
    total = 0
    for x in adj:
        nbrs = sorted(w for w in adj[x] if w > x)
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                muw = adj[u].get(w, 0)
                if muw:
                    total += adj[x][u] * adj[x][w] * muw
    return total


def count_four_cycles(adj) -> int:
    acc: dict = {}
    for x in adj:
        nbrs = sorted(adj[x])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                m = adj[x][u] * adj[x][w]
                s, sq = acc.get((u, w), (0, 0))
                acc[(u, w)] = (s + m, sq + m * m)
    total = 0
    for s, sq in acc.values():
        total += s * s - sq
    assert total % 4 == 0
    return total // 4


def reference_counts(bar) -> dict:
    adj = reference_adjacency(bar)
    return {
        1: count_loops(bar),
        2: count_parallel_pairs(bar),
        3: count_triangles(adj),
        4: count_four_cycles(adj),
    }


def brute_counts(bar) -> dict:
    """Every cycle as a vertex tuple, weighted by the product of its edge multiplicities."""
    n, wt = bar.n, bar.weight
    triangles = sum(
        wt(a, b) * wt(b, c) * wt(a, c) for a, b, c in itertools.combinations(range(n), 3)
    )
    squares = 0
    for a, b, c, d in itertools.combinations(range(n), 4):
        # the three 4-cycles on {a, b, c, d}: a-b-c-d, a-b-d-c, a-c-b-d
        for p, q, r in ((b, c, d), (b, d, c), (c, b, d)):
            squares += wt(a, p) * wt(p, q) * wt(q, r) * wt(r, a)
    return {
        1: sum(wt(v, v) // 2 for v in range(n)),
        2: sum(math.comb(wt(u, v), 2) for u, v in itertools.combinations(range(n), 2)),
        3: triangles,
        4: squares,
    }


def reference_cycles_rows(d, n, samples, seed):
    """cycles_experiment's rows, with every sample run through the references."""
    D = DegreeSequence.single_color([d] * n)
    rows = []
    for i in range(samples):
        bar = reference_projection(sample_configuration(D, random.Random(seed * 1_000_003 + i)))
        counts = reference_counts(bar)
        counts["simple"] = int(counts[1] + counts[2] == 0)
        rows.append(counts)
    out = []
    for ell in (1, 2, 3, 4):
        values = [r[ell] for r in rows]
        out.append(
            {
                "length": ell,
                "mean": statistics.fmean(values),
                "stderr": statistics.pstdev(values) / math.sqrt(samples),
                "target": regular_intensity(d, ell),
            }
        )
    acc = statistics.fmean(r["simple"] for r in rows)
    out.append(
        {
            "length": "simple_rate",
            "mean": acc,
            "stderr": math.sqrt(max(acc * (1 - acc), 1e-12) / samples),
            "target": math.exp(-(regular_intensity(d, 1) + regular_intensity(d, 2))),
        }
    )
    return out


def reference_star_frequency(D, d, s):
    """Share of vertices whose depth-1 ball is the plain d-star."""
    n = D.n
    bar = reference_projection(sample_configuration(D, random.Random(s)))
    adj = reference_adjacency(bar)
    loops = {u for (u, v), m in bar.w.items() if u == v and m > 0}
    hits = 0
    for v in range(n):
        if v in loops:
            continue
        nbrs = adj[v]
        if len(nbrs) != d or any(m != 1 for m in nbrs.values()):
            continue
        if any(u in loops for u in nbrs):
            continue
        ns = sorted(nbrs)
        if any(w in adj[u] for i, u in enumerate(ns) for w in ns[i + 1 :]):
            continue
        hits += 1
    return hits / n


@st.composite
def degree_sequences(draw, max_L=3, max_n=5):
    """Valid sequences on few vertices, so that loops of every kind are common."""
    L = draw(st.integers(1, max_L))
    n = draw(st.integers(1, max_n))
    flat = draw(st.lists(st.integers(0, 3), min_size=n * L * L, max_size=n * L * L))
    mats = [[flat[(u * L + i) * L : (u * L + i + 1) * L] for i in range(L)] for u in range(n)]
    vertex = st.integers(0, n - 1)
    for i in range(L):
        for j in range(i + 1, L):
            gap = sum(m[i][j] for m in mats) - sum(m[j][i] for m in mats)
            if gap > 0:
                mats[draw(vertex)][j][i] += gap
            elif gap < 0:
                mats[draw(vertex)][i][j] -= gap
        if sum(m[i][i] for m in mats) % 2:
            mats[draw(vertex)][i][i] += 1
    D = DegreeSequence(L, tuple(tuple(tuple(row) for row in m) for m in mats))
    assert validate_degree_sequence(D)
    return D


@st.composite
def multigraphs(draw, max_n=12, max_m=4):
    """Random edges of multiplicity 1..max_m, loops included."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    w = {}
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        key = (min(u, v), max(u, v))
        m = draw(st.integers(1, max_m))
        w[key] = w.get(key, 0) + (2 * m if u == v else m)
    return Multigraph(n, w)


class TestProjection:
    @SETTINGS
    @given(D=degree_sequences(), seed=st.integers(0, 2**32))
    def test_one_pass_projection_matches_two_steps(self, D, seed):
        sigma = sample_configuration(D, random.Random(seed))
        assert colorblind_of(sigma).w == reference_projection(sigma).w
        assert colorblind_of(sigma).n == D.n

    def test_loops_of_matching_and_bijection_colors(self):
        # vertex 0: two (1,1) half-edges pair into a loop; its (1,2) and
        # (2,1) half-edges can only pair with each other, another loop
        D = DegreeSequence.from_rows(2, [[2, 1, 1, 0]])
        sigma = sample_configuration(D, random.Random(0))
        assert colorblind_of(sigma).w == reference_projection(sigma).w == {(0, 0): 4}


class TestCycleCounts:
    @SETTINGS
    @given(bar=multigraphs(max_n=30))
    def test_matches_reference(self, bar):
        assert cycle_counts(bar) == reference_counts(bar)

    @SETTINGS
    @given(bar=multigraphs(max_n=7))
    def test_matches_brute_force(self, bar):
        assert cycle_counts(bar) == brute_counts(bar) == reference_counts(bar)

    def test_complete_graph_with_doubled_edge(self):
        # K4 has 4 triangles and 3 four-cycles; doubling edge 0-1 doubles
        # the 2 triangles and the 2 four-cycles through it, and adds one 2-cycle
        w = {(u, v): 1 for u, v in itertools.combinations(range(4), 2)}
        w[(0, 1)] = 2
        w[(3, 3)] = 2
        assert cycle_counts(Multigraph(4, w)) == {1: 1, 2: 1, 3: 6, 4: 5}


class TestExperimentsAgainstReference:
    def test_cycles_rows(self):
        for d, n, samples, seed in ((3, 40, 12, 1), (4, 25, 10, 7), (2, 30, 8, 3), (5, 12, 6, 0)):
            assert cycles_experiment(d, n, samples, seed) == reference_cycles_rows(
                d, n, samples, seed
            )

    def test_concentrate_frequencies(self):
        for d, n_list, samples, seed in ((3, [20, 40], 8, 5), (4, [15], 10, 11)):
            rows = concentrate_experiment(d, n_list, samples, seed)
            for row, n in zip(rows, n_list):
                D = DegreeSequence.single_color([d] * n)
                freqs = [
                    reference_star_frequency(D, d, (seed + n) * 1_000_003 + i)
                    for i in range(samples)
                ]
                assert row["mean"] == statistics.fmean(freqs)
                assert row["sd"] == statistics.pstdev(freqs)
