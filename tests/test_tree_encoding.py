"""Tree-like encoding tests: colors, round trips, exact counting."""

import math
import random

import pytest

from ugwldp.config_model import colorblind_simple, double_factorial, has_cycle_leq
from ugwldp.oracle import exact_equivalent_count
from ugwldp.rooted import SimpleGraph, star
from ugwldp.tree_encoding import (
    NotTreeLikeError,
    count_equivalent_graphs,
    distinct_orderings,
    encode,
    is_h_treelike,
    log_matchings,
    neighborhood_vector,
    verify_neighborhood_preservation,
)


def nine_vertex_unicyclic():
    """Nine vertices around one length-8 cycle with a pendant."""
    edges_1based = [
        (1, 2), (1, 4), (2, 5), (2, 9), (3, 6), (3, 8), (4, 8), (5, 7), (6, 7),
    ]
    return SimpleGraph.from_edges(9, [(u - 1, v - 1) for u, v in edges_1based])


PATH3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
C6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
TRIANGLE = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


class TestNeighborhoodVector:
    def test_path3(self):
        vec = neighborhood_vector(PATH3, 1)
        assert vec == [star(1, 1), star(2, 1), star(1, 1)]

    def test_edgeless(self):
        G = SimpleGraph.from_edges(4, [])
        assert neighborhood_vector(G, 2) == [star(0, 2)] * 4

    def test_regular_high_girth_constant(self):
        vec = neighborhood_vector(C6, 2)
        assert len(set(vec)) == 1


class TestTreeLike:
    def test_tree_always(self):
        tree = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        for h in range(1, 6):
            assert is_h_treelike(tree, h)

    def test_c6_threshold(self):
        assert is_h_treelike(C6, 2)
        assert not is_h_treelike(C6, 3)

    def test_triangle(self):
        assert not is_h_treelike(TRIANGLE, 1)

    def test_depth_zero_is_always_treelike(self):
        assert is_h_treelike(TRIANGLE, 0)

    @pytest.mark.parametrize("h", [0.5, 2.0, True, False, "2", None])
    def test_rejects_a_depth_that_is_not_an_int(self, h):
        with pytest.raises(ValueError, match=f"depth must be an int, got {h!r}"):
            is_h_treelike(TRIANGLE, h)

    @pytest.mark.parametrize("h", [-1, -3])
    def test_rejects_a_negative_depth(self, h):
        with pytest.raises(ValueError, match=f"depth must be >= 0, got {h}"):
            is_h_treelike(TRIANGLE, h)

    def test_matches_all_neighborhoods_are_trees(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            G = SimpleGraph.from_edges(n, pairs[: rng.randint(0, n + 2)])
            for h in (1, 2):
                by_cycles = is_h_treelike(G, h)
                by_classes = all(c.kind == "tree" for c in neighborhood_vector(G, h))
                assert by_cycles == by_classes


class TestEncode:
    def test_single_edge(self):
        enc, ctx, D = encode(SimpleGraph.from_edges(2, [(0, 1)]), 1)
        assert ctx.L == 1
        assert ctx.classes == (star(0, 0),)
        assert enc.omega((1, 1), 0, 1) == 1

    def test_path3_color_table(self):
        enc, ctx, D = encode(PATH3, 1)
        # two split classes at depth 0? no: depth-0 splits are all the
        # isolated root, so one color; the midpoint has two such edges
        assert ctx.L == 1
        assert D.D(1, (1, 1)) == 2
        assert D.D(0, (1, 1)) == 1

    def test_path3_depth2_colors(self):
        enc, ctx, D = encode(PATH3, 2)
        # depth-1 splits: leaf-end sees a single-child star, center sees dots
        assert ctx.L == 2
        assert set(ctx.classes) == {star(0, 1), star(1, 1)}

    def test_nine_vertex_figure_has_five_classes(self):
        G = nine_vertex_unicyclic()
        assert is_h_treelike(G, 3)
        enc, ctx, D = encode(G, 3)
        assert ctx.L == 5

    def test_round_trip_and_girth(self):
        rng = random.Random(11)
        pool = [PATH3, C6, nine_vertex_unicyclic()]
        for _ in range(20):
            n = rng.randint(2, 7)
            g = _random_forest(n, rng)
            pool.append(g)
        for G in pool:
            for h in (1, 2):
                if not is_h_treelike(G, h):
                    continue
                enc, ctx, D = encode(G, h)
                assert colorblind_simple(enc) == G
                assert not has_cycle_leq(
                    __import__("ugwldp").config_model.colorblind(enc), 2 * h + 1
                )

    def test_not_treelike_rejected(self):
        with pytest.raises(NotTreeLikeError):
            encode(TRIANGLE, 1)

    def test_context_json(self):
        _, ctx, _ = encode(PATH3, 2)
        blob = ctx.to_json()
        assert blob["h"] == 2 and len(blob["classes"]) == 2


def _random_forest(n, rng):
    edges = []
    for v in range(1, n):
        if rng.random() < 0.8:
            edges.append((rng.randrange(v), v))
    return SimpleGraph.from_edges(n, edges)


class TestPreservation:
    def test_tree(self):
        tree = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert verify_neighborhood_preservation(tree, 1, 50, random.Random(0))

    def test_nine_vertex_depth3(self):
        G = nine_vertex_unicyclic()
        assert verify_neighborhood_preservation(G, 3, 100, random.Random(1))

    def test_c6_depth2(self):
        assert verify_neighborhood_preservation(C6, 2, 100, random.Random(2))


class TestCounting:
    def test_verify_checks_the_counter_itself(self, monkeypatch):
        # verify's short-cycle-acceptance check reads count_short_cycle_free,
        # not a loop of its own, against the brute-force acceptance fraction
        from ugwldp import tree_encoding, verify

        assert verify.check_acceptance_fraction(quick=True)[0]
        count = tree_encoding.count_short_cycle_free
        monkeypatch.setattr(verify, "count_short_cycle_free", lambda D, h: count(D, h) + 1)
        assert verify.check_acceptance_fraction(quick=True) == (False, "cycle detectors disagree")

    def test_orderings(self):
        from ugwldp.config_model import DegreeSequence

        distinct = DegreeSequence.single_color([1, 2, 3])
        assert distinct_orderings(distinct) == 6
        equal = DegreeSequence.single_color([2, 2, 2])
        assert distinct_orderings(equal) == 1
        mixed = DegreeSequence.single_color([1, 1, 2])
        assert distinct_orderings(mixed) == 3

    def test_path3_count(self):
        assert count_equivalent_graphs(PATH3, 1) == 3

    def test_two_disjoint_edges(self):
        G = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert count_equivalent_graphs(G, 1) == 3

    def test_regular_ordering_factor_is_one(self):
        _, _, D = encode(C6, 2)
        assert distinct_orderings(D) == 1

    def test_matches_oracle(self):
        cases = [
            (PATH3, 1),
            (SimpleGraph.from_edges(4, [(0, 1), (2, 3)]), 1),
            (SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2),
            (C6, 2),
            (SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1),
        ]
        for G, h in cases:
            assert count_equivalent_graphs(G, h) == exact_equivalent_count(G, h)

    def test_log_asymptotic_metadata(self):
        out = count_equivalent_graphs(C6, 2, mode="log_asymptotic")
        assert out["acceptance_factor_dropped"] is True
        assert isinstance(out["per_vertex_rate"], float)

    def test_empty_graph(self):
        empty = SimpleGraph.from_edges(0, [])
        assert count_equivalent_graphs(empty, 1) == 1
        with pytest.raises(ValueError, match="empty graph"):
            count_equivalent_graphs(empty, 1, mode="log_asymptotic")

    def test_log_mode_is_log_of_exact_factors(self):
        # the log mode is (1/n) log(orderings * configurations / slot
        # orderings) minus the label term: only the acceptance is dropped
        from ugwldp.config_model import config_space_size, degree_factorials

        cases = [
            (PATH3, 1),
            (SimpleGraph.from_edges(4, [(0, 1), (2, 3)]), 1),
            (SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2),
            (C6, 2),
            (SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1),
            (nine_vertex_unicyclic(), 3),
        ]
        for G, h in cases:
            _, _, D = encode(G, h)
            out = count_equivalent_graphs(G, h, mode="log_asymptotic")
            got = out["per_vertex_rate"] * G.n + G.m * math.log(G.n)
            want = math.log(distinct_orderings(D) * config_space_size(D)) - math.log(
                degree_factorials(D)
            )
            assert abs(got - want) < 1e-9, (G, h)

    def test_log_matchings_closed_form(self):
        assert log_matchings(0) == 0.0
        for s in range(2, 401, 2):
            assert abs(log_matchings(s) - math.log(double_factorial(s - 1))) < 1e-9
        with pytest.raises(ValueError):
            log_matchings(3)

    def test_psi_multiset_invariance(self):
        from collections import Counter

        G = nine_vertex_unicyclic()
        _, _, D = encode(G, 2)
        want = Counter(neighborhood_vector(G, 2))
        rng = random.Random(9)
        from ugwldp.config_model import sample_G_Dh

        for _ in range(25):
            sample, _ = sample_G_Dh(D, 5, rng)
            got = Counter(neighborhood_vector(colorblind_simple(sample), 2))
            assert got == want
