"""Self-checks of the enumeration oracles (counts with known closed forms)."""

import random
from fractions import Fraction

import pytest

from ugwldp.config_model import (
    DegreeSequence,
    config_space_size,
    degree_sequence_of,
    graph_of,
    validate_degree_sequence,
)
from ugwldp.neighborhood import NeighborhoodLaw
from ugwldp.oracle import (
    brute_ugw_marginal,
    enumerate_configurations,
    enumerate_graphs,
    exact_acceptance_fraction,
    exact_cm_law,
    exact_equivalent_count,
)
from ugwldp.rooted import SimpleGraph
from ugwldp.verify import tiny_degree_grid

HALF = Fraction(1, 2)


class TestEnumerateGraphs:
    def test_counts(self):
        assert sum(1 for _ in enumerate_graphs(3, 2)) == 3
        assert sum(1 for _ in enumerate_graphs(3, 3)) == 1
        assert sum(1 for _ in enumerate_graphs(4, 3)) == 20

    def test_no_repeats(self):
        seen = set(enumerate_graphs(4, 2))
        assert len(seen) == 15

    def test_size_guard(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(9, 1))


class TestEnumerateConfigurations:
    def test_counts_match_space_size(self):
        rng = random.Random(1)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 3)
            L = rng.randint(1, 2)
            rows = [[rng.randint(0, 2) for _ in range(L * L)] for _ in range(n)]
            D = DegreeSequence.from_rows(L, rows)
            if not validate_degree_sequence(D):
                continue
            if config_space_size(D) > 3000:
                continue
            assert sum(1 for _ in enumerate_configurations(D)) == config_space_size(D)
            checked += 1

    def test_matching_color_small(self):
        D = DegreeSequence.single_color([2, 2])
        assert sum(1 for _ in enumerate_configurations(D)) == 3

    def test_owner_pairs_keep_the_degrees(self):
        # each half-edge pairing, named by owners, projects to a graph of degrees D
        for D in tiny_degree_grid(40):
            count = 0
            for sigma in enumerate_configurations(D):
                assert degree_sequence_of(graph_of(sigma)) == D
                count += 1
            assert count == config_space_size(D)


class TestExactLaw:
    def test_single_edge(self):
        D = DegreeSequence.single_color([1, 1])
        law = exact_cm_law(D)
        assert list(law.values()) == [Fraction(1)]

    def test_sums_to_one(self):
        D = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2], [0, 1, 1, 2]])
        assert sum(exact_cm_law(D).values()) == 1


class TestExactCounts:
    def test_path3(self):
        G = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert exact_equivalent_count(G, 1) == 3

    def test_triangle(self):
        G = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert exact_equivalent_count(G, 1) == 1

    def test_two_disjoint_edges(self):
        G = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert exact_equivalent_count(G, 1) == 3


class TestExactAlpha:
    def test_forced_simple(self):
        assert exact_acceptance_fraction(DegreeSequence.single_color([1, 1]), 2) == 1

    def test_forced_cycle(self):
        assert exact_acceptance_fraction(DegreeSequence.single_color([2, 2]), 2) == 0

    def test_between(self):
        D = DegreeSequence.single_color([2, 2, 1, 1])
        alpha = exact_acceptance_fraction(D, 2)
        assert 0 < alpha < 1


class TestBruteMarginal:
    def test_point_mass_regular(self):
        P = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        out = brute_ugw_marginal(P, 2)
        assert len(out) == 1

    def test_identity_at_h(self):
        P = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})
        assert brute_ugw_marginal(P, 1) == P

    def test_uniform12_depth2_frozen(self):
        P = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})
        out = brute_ugw_marginal(P, 2)
        got = {cls.wire(): p for cls, p in out.items()}
        assert got == {
            "(())": Fraction(1, 6),
            "((()))": Fraction(1, 3),
            "(()())": Fraction(1, 18),
            "((())())": Fraction(2, 9),
            "((())(()))": Fraction(2, 9),
        }


class TestIntegerParameters:
    """A bool, float or negative h, k or limit raises before any enumeration."""

    D = DegreeSequence.single_color([2, 2, 2])

    def test_valid_values_still_answer(self):
        assert exact_acceptance_fraction(self.D, 3) == 0
        assert exact_acceptance_fraction(self.D, 2, limit=15) == Fraction(8, 15)

    @pytest.mark.parametrize("h", [True, False, 2.0, 2.5, -1])
    def test_acceptance_fraction_depth(self, h):
        # h = True ran as h = 1 and returned 8/15
        with pytest.raises(ValueError, match="h must be an int >= 0"):
            exact_acceptance_fraction(self.D, h)

    @pytest.mark.parametrize("limit", [True, 10.0**6, -1])
    def test_limit(self, limit):
        with pytest.raises(ValueError, match="limit must be an int >= 0"):
            exact_acceptance_fraction(self.D, 2, limit)
        with pytest.raises(ValueError, match="limit must be an int >= 0"):
            exact_cm_law(self.D, limit)
        with pytest.raises(ValueError, match="limit must be an int >= 0"):
            next(enumerate_configurations(self.D, limit))

    @pytest.mark.parametrize("h", [True, 1.0, -1])
    def test_equivalent_count_depth(self, h):
        G = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="h must be an int >= 0"):
            exact_equivalent_count(G, h)

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, -1])
    def test_brute_marginal_depth(self, k):
        # k = 2.5 ran into a RecursionError
        P = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})
        with pytest.raises(ValueError, match="k must be an int >= 0"):
            brute_ugw_marginal(P, k)
