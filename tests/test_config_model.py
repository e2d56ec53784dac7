"""Configuration model tests: exact counts against enumeration, samplers."""

import math
import random
import re
from fractions import Fraction

import pytest

from ugwldp.config_model import (
    ColoredMultigraph,
    DegreeSequence,
    InvalidDegreeSequenceError,
    Multigraph,
    RejectionExhaustedError,
    acceptance_estimate,
    apply_switch,
    automorphism_count,
    ball_of,
    cm_probability,
    colorblind,
    config_space_size,
    cycle_family,
    degree_sequence_of,
    excess,
    explore_neighborhood,
    fiber_size,
    from_simple,
    graph_of,
    graphical_check,
    has_cycle_leq,
    sample_configuration,
    sample_G_Dh,
    short_cycle_intensity,
    subgraph_count_expectation,
    validate_degree_sequence,
    write_colored_graph,
    write_degree_file,
    read_colored_graph,
    read_degree_file,
)
from ugwldp.oracle import (
    enumerate_configurations,
    enumerate_graphs,
    exact_acceptance_fraction,
    exact_cm_law,
)
from ugwldp.rooted import SimpleGraph


def single_loop_motif():
    H = ColoredMultigraph(1, 1)
    H.add_edge((1, 1), 0, 0)
    return H


def double_edge_motif():
    H = ColoredMultigraph(1, 2)
    H.add_edge((1, 1), 0, 1)
    H.add_edge((1, 1), 0, 1)
    return H


def cycle_motif(ell):
    H = ColoredMultigraph(1, ell)
    for i in range(ell):
        H.add_edge((1, 1), i, (i + 1) % ell)
    return H


class TestDegreeSequences:
    def test_valid_pair(self):
        assert validate_degree_sequence(DegreeSequence.single_color([1, 1]))

    def test_odd_sum_invalid(self):
        assert not validate_degree_sequence(DegreeSequence.single_color([1]))

    def test_unbalanced_colors_invalid(self):
        D = DegreeSequence.from_rows(2, [[0, 1, 0, 0]])
        assert not validate_degree_sequence(D)

    def test_graphical_examples(self):
        assert graphical_check([1, 1])
        assert not graphical_check([1])
        assert graphical_check([2, 2, 1, 1])
        assert graphical_check([3, 1, 1, 1])

    def test_graphical_vs_enumeration(self):
        # ground truth: scan all graphs on four vertices
        from collections import Counter

        realizable = set()
        for m in range(7):
            for G in enumerate_graphs(4, m):
                adj = G.adjacency()
                realizable.add(tuple(sorted((len(adj[v]) for v in range(4)), reverse=True)))
        import itertools

        for degs in itertools.product(range(4), repeat=4):
            want = tuple(sorted(degs, reverse=True)) in realizable
            assert graphical_check(list(degs)) == want

    def test_degree_file_round_trip(self, tmp_path):
        D = DegreeSequence.from_rows(2, [[1, 0, 0, 2], [1, 2, 2, 0]])
        path = tmp_path / "D.txt"
        write_degree_file(path, D)
        assert read_degree_file(path) == D

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2\n3 9\n3\n", "row 0 has 2 entries, expected 1"),
            ("2 1\n1 0 0\n", "row 0 has 3 entries, expected 4"),
            ("1 2\n3\n", "header gives 2 rows, the file has 1"),
            ("1 1\n2\n2\n", "header gives 1 rows, the file has 2"),
            ("0 0\n", "L must be >= 1"),
        ],
    )
    def test_degree_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "D.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_degree_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n0 1 1 2 1\n", "twin"),
            ("1 2\n0 1 1 1 2\n1 0 1 1 1\n", "twin"),
            ("1 2\n0 2 1 1 1\n2 0 1 1 1\n", "vertices are 0..1, colors 1..1"),
            ("1 2\n0 1 1 2 1\n1 0 2 1 1\n", "vertices are 0..1, colors 1..1"),
            ("2 2\n0 1 0 1 1\n1 0 1 0 1\n", "vertices are 0..1, colors 1..2"),
            ("1 2\n0 1 1 1 0\n1 0 1 1 0\n", "weight below 1"),
            ("1 2\n0 1 1 1 -1\n1 0 1 1 -1\n", "weight below 1"),
            ("1 2\n0 1 1 1 1\n1 0 1 1 1\n0 1 1 1 1\n", "a repeated key"),
        ],
    )
    def test_colored_graph_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "G.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_colored_graph(path)

    def test_colored_graph_file_round_trip_with_loops(self, tmp_path):
        G = ColoredMultigraph(2, 2)
        for c, u, v in (((1, 1), 0, 0), ((1, 2), 1, 1), ((2, 1), 0, 1), ((2, 2), 0, 1)):
            G.add_edge(c, u, v)
        path = tmp_path / "G.txt"
        write_colored_graph(path, G)
        assert read_colored_graph(path).w == G.w


class TestSampling:
    def test_unique_matching(self):
        D = DegreeSequence.single_color([1, 1])
        sigma = sample_configuration(D, random.Random(0))
        G = graph_of(sigma)
        assert G.omega((1, 1), 0, 1) == 1

    def test_space_size_six_half_edges(self):
        assert config_space_size(DegreeSequence.single_color([2, 2, 2])) == 15

    def test_sampler_uniform_over_configs(self):
        # three matchings of four half-edges: graph frequencies 2/3 and 1/3
        D = DegreeSequence.single_color([2, 2])
        rng = random.Random(1)
        from collections import Counter

        freq = Counter()
        N = 6000
        for _ in range(N):
            freq[graph_of(sample_configuration(D, rng))] += 1
        law = exact_cm_law(D)
        for G, p in law.items():
            assert abs(freq[G] / N - float(p)) < 0.025

    def test_invalid_rejected(self):
        with pytest.raises(InvalidDegreeSequenceError):
            sample_configuration(DegreeSequence.single_color([1]), random.Random(0))

    def test_degree_preservation(self):
        rng = random.Random(2)
        D = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2], [0, 1, 1, 2]])
        for _ in range(100):
            sigma = sample_configuration(D, rng)
            assert degree_sequence_of(graph_of(sigma)) == D

    def test_two_color_hand_example(self):
        # one vertex with two outgoing (1,2) edges, another with the two
        # conjugate stubs: the only graph is a doubled directed edge
        D = DegreeSequence.from_rows(2, [[0, 2, 0, 0], [0, 0, 2, 0]])
        sigma = sample_configuration(D, random.Random(0))
        G = graph_of(sigma)
        assert G.omega((1, 2), 0, 1) == 2
        assert G.omega((2, 1), 1, 0) == 2
        assert colorblind(G).weight(0, 1) == 2


class TestCycles:
    def test_loop_h1(self):
        bar = Multigraph(1, {(0, 0): 2})
        assert has_cycle_leq(bar, 1)

    def test_tree_no_cycle(self):
        tree = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        for h in (1, 2, 5, 10):
            assert not has_cycle_leq(from_simple(tree), h)

    def test_triangle_threshold(self):
        tri = from_simple(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        assert not has_cycle_leq(tri, 2)
        assert has_cycle_leq(tri, 3)

    def test_even_cycle_threshold(self):
        c6 = from_simple(SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]))
        assert not has_cycle_leq(c6, 5)
        assert has_cycle_leq(c6, 6)
        assert has_cycle_leq(c6, 7)

    def test_double_edge(self):
        bar = Multigraph(2, {(0, 1): 2})
        assert not has_cycle_leq(bar, 1)
        assert has_cycle_leq(bar, 2)


class TestRejectionSampler:
    def test_immediate_accept(self):
        D = DegreeSequence.single_color([1, 1])
        G, attempts = sample_G_Dh(D, 2, random.Random(0))
        assert attempts == 1

    def test_empty_target_exhausts(self):
        # both outcomes of the (2,2) sequence contain a cycle of length <= 2
        D = DegreeSequence.single_color([2, 2])
        assert exact_acceptance_fraction(D, 2) == 0
        with pytest.raises(RejectionExhaustedError):
            sample_G_Dh(D, 2, random.Random(0), max_attempts=200)

    def test_acceptance_matches_exact_fraction(self):
        D = DegreeSequence.from_rows(1, [[2], [2], [1], [1]])
        alpha = exact_acceptance_fraction(D, 2)
        assert 0 < alpha < 1
        rng = random.Random(5)
        N = 4000
        hits = 0
        for _ in range(N):
            G = graph_of(sample_configuration(D, rng))
            if not has_cycle_leq(colorblind(G), 2):
                hits += 1
        se = math.sqrt(float(alpha) * (1 - float(alpha)) / N)
        assert abs(hits / N - float(alpha)) < 4 * se + 1e-9

    @pytest.mark.parametrize(
        "D, seed",
        [
            (DegreeSequence.single_color([2, 2, 2, 2, 2]), 21),
            (DegreeSequence.single_color([1, 1, 2, 2, 2, 2]), 22),
            (
                DegreeSequence.from_rows(
                    2,
                    [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1],
                     [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
                ),
                23,
            ),
        ],
    )
    def test_accepted_law_is_uniform_on_short_cycle_free_set(self, D, seed):
        # aborting an attempt at its first loop or double edge must leave
        # the law of the accepted graph alone
        assert config_space_size(D) <= 5000
        weights = {
            H: cm_probability(D, H)
            for H in exact_cm_law(D)
            if not has_cycle_leq(colorblind(H), 2)
        }
        assert len(set(weights.values())) == 1
        total = sum(weights.values())
        exact = {H: w / total for H, w in weights.items()}
        rng = random.Random(seed)
        N = 3000
        from collections import Counter

        freq = Counter(sample_G_Dh(D, 2, rng)[0] for _ in range(N))
        assert set(freq) <= set(exact)
        tv = sum(abs(Fraction(freq[H], N) - p) for H, p in exact.items()) / 2
        assert tv < 3 * math.sqrt(len(exact) / N)

    def test_output_has_no_short_cycle(self):
        D = DegreeSequence.single_color([3] * 12)
        rng = random.Random(9)
        for _ in range(10):
            G, _ = sample_G_Dh(D, 3, rng)
            assert not has_cycle_leq(colorblind(G), 3)


class TestExactFormulas:
    def test_single_edge_probability_one(self):
        D = DegreeSequence.single_color([1, 1])
        sigma = sample_configuration(D, random.Random(0))
        H = graph_of(sigma)
        assert cm_probability(D, H) == 1
        assert fiber_size(D, H) == 1

    def test_pair_of_deg2(self):
        D = DegreeSequence.single_color([2, 2])
        law = exact_cm_law(D)
        double = [H for H in law if H.omega((1, 1), 0, 1) == 2]
        loops = [H for H in law if H.omega((1, 1), 0, 0) == 2]
        assert law[double[0]] == Fraction(2, 3)
        assert law[loops[0]] == Fraction(1, 3)
        assert cm_probability(D, double[0]) == Fraction(2, 3)
        assert cm_probability(D, loops[0]) == Fraction(1, 3)
        assert fiber_size(D, double[0]) == 2
        assert fiber_size(D, loops[0]) == 1

    def test_simple_graph_unit_b(self):
        from ugwldp.config_model import _b_factor

        D = DegreeSequence.single_color([2, 1, 1])
        for H in exact_cm_law(D):
            if not has_cycle_leq(colorblind(H), 2):
                assert _b_factor(H) == 1

    def test_bipartite_color_double_edge_fiber(self):
        D = DegreeSequence.from_rows(2, [[0, 2, 0, 0], [0, 0, 2, 0]])
        H = ColoredMultigraph(2, 2)
        H.add_edge((1, 2), 0, 1)
        H.add_edge((1, 2), 0, 1)
        assert fiber_size(D, H) == 2
        counts, total = _enumerated_fibers(D)
        assert counts[H] == 2 and total == 2

    def test_mixed_color_space(self):
        D = DegreeSequence.from_rows(2, [[2, 1, 1, 0], [0, 1, 1, 2]])
        want = (
            math.factorial(D.S((1, 2)))
            * _dfact(D.S((1, 1)) - 1)
            * _dfact(D.S((2, 2)) - 1)
        )
        assert config_space_size(D) == want
        assert sum(1 for _ in enumerate_configurations(D)) == want


def _dfact(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _enumerated_fibers(D):
    counts = {}
    total = 0
    for sigma in enumerate_configurations(D):
        total += 1
        G = graph_of(sigma)
        counts[G] = counts.get(G, 0) + 1
    return counts, total


class TestMotifs:
    def test_excess(self):
        tree = ColoredMultigraph(1, 3)
        tree.add_edge((1, 1), 0, 1)
        tree.add_edge((1, 1), 1, 2)
        assert excess(tree) == -1
        assert excess(single_loop_motif()) == 0
        assert excess(double_edge_motif()) == 0
        assert excess(cycle_motif(4)) == 0

    def test_automorphisms(self):
        assert automorphism_count(single_loop_motif()) == 1
        assert automorphism_count(double_edge_motif()) == 2
        assert automorphism_count(cycle_motif(3)) == 6
        assert automorphism_count(cycle_motif(4)) == 8

    def test_regular_limit_intensities(self):
        d = 3
        limit = {((d,),): 1.0}
        for ell in (3, 4):
            lam = subgraph_count_expectation(cycle_motif(ell), limit=limit)
            assert abs(lam - (d - 1) ** ell / (2 * ell)) < 1e-12
        lam1 = subgraph_count_expectation(single_loop_motif(), limit=limit)
        assert abs(lam1 - (d - 1) / 2) < 1e-12
        lam2 = subgraph_count_expectation(double_edge_motif(), limit=limit)
        assert abs(lam2 - (d - 1) ** 2 / 4) < 1e-12

    def test_exact_mode_matches_enumeration(self):
        D = DegreeSequence.single_color([2, 2, 1, 1])
        counts, total = _enumerated_fibers(D)
        for motif, counter in (
            (single_loop_motif(), _count_loops),
            (double_edge_motif(), _count_doubles),
            (cycle_motif(3), _count_triangles),
        ):
            want = Fraction(0)
            for H, c in counts.items():
                want += Fraction(counter(colorblind(H)) * c, total)
            got = subgraph_count_expectation(motif, degrees=D)
            assert got == want

    def test_odd_matching_color_total_raises(self, tmp_path):
        # weights holding (c, u, v) without its twin (c, v, u): the motif
        # then has one (1,1) half-edge, which no matching can pair.  The
        # file reader rejects such weights; a graph built directly keeps them
        path = tmp_path / "H.txt"
        path.write_text("1 2\n0 1 1 1 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="twin"):
            read_colored_graph(path)
        H = ColoredMultigraph(1, 2, {((1, 1), 0, 1): 1})
        with pytest.raises(ValueError, match="odd count 1"):
            subgraph_count_expectation(H, degrees=DegreeSequence.single_color([2, 2, 2]))

    def test_cycle_family_single_color(self):
        fam1 = cycle_family(1, 1)
        fam2 = cycle_family(1, 2)
        fam3 = cycle_family(1, 3)
        assert len(fam1) == 1 and len(fam2) == 2 and len(fam3) == 3
        d = 3
        lam = short_cycle_intensity({((d,),): 1.0}, 1, 2)
        assert abs(lam - ((d - 1) / 2 + (d - 1) ** 2 / 4)) < 1e-12
        assert abs(acceptance_estimate({((d,),): 1.0}, 1, 2) - math.exp(-2)) < 1e-12

    def test_cycle_family_two_colors(self):
        # loops: 2 diagonal + 1 conjugate pair; doubled edges: multisets of
        # ordered color pairs up to the flip symmetry
        fam1 = cycle_family(2, 1)
        assert len(fam1) == 3
        fam2 = cycle_family(2, 2)
        assert all(excess(H) == 0 for H in fam2)


def _count_loops(bar):
    return sum(m // 2 for (u, v), m in bar.w.items() if u == v)


def _count_doubles(bar):
    return sum(m * (m - 1) // 2 for (u, v), m in bar.w.items() if u != v)


def _count_triangles(bar):
    total = 0
    for u in range(bar.n):
        for v in range(u + 1, bar.n):
            for w in range(v + 1, bar.n):
                total += bar.weight(u, v) * bar.weight(v, w) * bar.weight(u, w)
    return total


class TestExploration:
    def test_isolated_vertex(self):
        D = DegreeSequence.from_rows(1, [[0], [1], [1]])
        nb = explore_neighborhood(D, 0, 3, random.Random(0))
        assert nb.vertices == {0: 0} and nb.edges == [] and nb.is_tree

    def test_depth1_matches_degree_row(self):
        from ugwldp.config_model import conj

        D = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2], [0, 1, 1, 2]])
        rng = random.Random(1)
        for _ in range(50):
            nb = explore_neighborhood(D, 0, 1, rng)
            out = {}
            for u, v, c in nb.edges:
                if u != 0 and v != 0:
                    continue  # edge between two boundary vertices
                if u == 0 and v == 0:
                    # a root loop consumes one half-edge of each conjugate
                    # color (or two of a diagonal color)
                    out[c] = out.get(c, 0) + 1
                    out[conj(c)] = out.get(conj(c), 0) + 1
                elif u == 0:
                    out[c] = out.get(c, 0) + 1
                else:
                    out[conj(c)] = out.get(conj(c), 0) + 1
            assert out == {(1, 1): 1, (1, 2): 1, (2, 1): 1}

    def test_marginal_matches_full_sampler(self):
        from collections import Counter

        D = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2], [0, 1, 1, 2]])
        rng = random.Random(5)
        N = 8000
        lazy = Counter(
            explore_neighborhood(D, 0, 2, rng).signature() for _ in range(N)
        )
        full = Counter(
            ball_of(graph_of(sample_configuration(D, rng)), 0, 2).signature()
            for _ in range(N)
        )
        tv = sum(abs(lazy[k] - full[k]) for k in set(lazy) | set(full)) / (2 * N)
        assert tv < 0.02


class TestSwitches:
    def test_switch_preserves_degrees(self):
        D = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2], [0, 1, 1, 2]])
        rng = random.Random(3)
        for _ in range(50):
            sigma = sample_configuration(D, rng)
            swapped = apply_switch(sigma, rng)
            assert degree_sequence_of(graph_of(swapped)) == D

    def test_switch_lipschitz_depth1_count(self):
        # one switch moves the plain-star vertex count by at most 4*kappa,
        # kappa = 2 at depth 1
        d, n = 3, 40
        D = DegreeSequence.single_color([d] * n)
        rng = random.Random(7)

        def star_count(sigma):
            bar = colorblind(graph_of(sigma))
            adj = bar.adjacency()
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
            return hits

        for _ in range(60):
            sigma = sample_configuration(D, rng)
            before = star_count(sigma)
            after = star_count(apply_switch(sigma, rng))
            assert abs(after - before) <= 8
