"""Prescribed-neighborhood tree tests: branch laws, marginals, samplers."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ugwldp.neighborhood import (
    NeighborhoodLaw,
    edge_intensity,
    empirical_distribution,
    is_admissible,
    tv_distance,
)
from ugwldp.oracle import brute_ugw_marginal
from ugwldp.rooted import (
    LabeledRootedGraph,
    SimpleGraph,
    canonicalize,
    isolated_root,
    parse_class,
    root_degree,
    star,
    truncate,
)
from ugwldp.ugw import (
    ColoredOffspringLaw,
    MissingBranchError,
    branch_law,
    bipartite_root_probability,
    colored_branch_law,
    consistency_check,
    edge_law_identity,
    empirical_law,
    marginal_ugw,
    sample_ugw,
    sample_ugw_bipartite,
    sample_ugw_colored,
    size_biased,
    typed_branching_law,
)

HALF = Fraction(1, 2)
UNIFORM12 = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})


class TestSizeBiased:
    def test_poisson_fixed_point(self):
        import math

        lam = 1.7
        P = {k: math.exp(-lam) * lam**k / math.factorial(k) for k in range(40)}
        hat = size_biased(P)
        assert max(abs(hat[k] - P[k]) for k in range(30)) < 1e-12

    def test_regular(self):
        assert size_biased({4: 1}) == {3: 1}

    def test_two_atom(self):
        hat = size_biased({1: HALF, 3: HALF})
        assert hat == {0: Fraction(1, 4), 2: Fraction(3, 4)}

    def test_zero_mean(self):
        with pytest.raises(ValueError):
            size_biased({0: 1})


class TestBranchLaw:
    def test_h1_reduces_to_size_biased(self):
        P = NeighborhoodLaw.from_degree_law(
            {0: Fraction(1, 6), 1: Fraction(1, 3), 2: HALF}
        )
        dot = isolated_root(0)
        law = branch_law(P, dot, dot)
        hat = size_biased(P.degree_law())
        assert {root_degree(c): p for c, p in law.items()} == hat

    def test_regular_tree_point_mass(self):
        d = 3
        P = marginal_ugw(NeighborhoodLaw.from_degree_law({d: Fraction(1)}), 2)
        tbl = typed_branching_law(P)
        ((key, cell),) = tbl.table.items()
        assert key == (star(d - 1, 1), star(d - 1, 1))
        ((tau, p),) = cell.items()
        assert p == 1 and root_degree(tau) == d - 1

    def test_two_atom_depth2_table_exact(self):
        # admissible two-atom depth-2 law; every cell must sum to one exactly
        # (the law constructor enforces it), with rational weights
        P = marginal_ugw(UNIFORM12, 2)
        tbl = typed_branching_law(P)
        assert len(tbl.table) >= 2
        for (t, tp), cell in tbl.table.items():
            assert cell.mode == "rational"
            assert sum(cell.support.values()) == 1
            for tau in cell:
                assert truncate(tau, 1) is t
            assert edge_intensity(P, t, tp) > 0

    def test_zero_intensity_rejected(self):
        P = marginal_ugw(NeighborhoodLaw.from_degree_law({3: Fraction(1)}), 2)
        with pytest.raises((ValueError, MissingBranchError)):
            branch_law(P, isolated_root(1), isolated_root(1))

    def test_non_admissible_rejected(self):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        P = NeighborhoodLaw.point_mass(chain)
        with pytest.raises(ValueError):
            typed_branching_law(P)


class TestMarginal:
    def test_identity_at_h(self):
        assert marginal_ugw(UNIFORM12, 1) == UNIFORM12

    def test_regular_point_mass(self):
        P = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        Q = marginal_ugw(P, 2)
        ((cls, p),) = Q.support.items()
        assert p == 1
        # the class is the 3-regular tree of depth 2
        assert cls is parse_class("((()())(()())(()()))", 2)
        assert root_degree(cls) == 3
        assert all(t is star(2, 1) for t in _child_classes(cls))

    def test_uniform12_depth2_frozen(self):
        # hand-derived exact law: branch law is 1/3 on no child, 2/3 on one
        Q = marginal_ugw(UNIFORM12, 2)
        expect = {
            "(())": Fraction(1, 6),
            "((()))": Fraction(1, 3),
            "(()())": Fraction(1, 18),
            "((())())": Fraction(2, 9),
            "((())(()))": Fraction(2, 9),
        }
        got = {cls.wire(): p for cls, p in Q.items()}
        assert got == expect

    def test_matches_brute_oracle(self):
        laws = [
            (UNIFORM12, 2),
            (UNIFORM12, 3),
            (NeighborhoodLaw.from_degree_law({1: Fraction(1, 3), 3: Fraction(2, 3)}), 2),
            (marginal_ugw(UNIFORM12, 2), 3),
        ]
        for P, k in laws:
            assert marginal_ugw(P, k) == brute_ugw_marginal(P, k)

    def test_outputs_admissible(self):
        pool = [
            UNIFORM12,
            NeighborhoodLaw.from_degree_law({0: Fraction(1, 4), 2: Fraction(3, 4)}),
            NeighborhoodLaw.from_degree_law({1: Fraction(1, 3), 3: Fraction(2, 3)}),
        ]
        for P in pool:
            for k in range(P.depth, P.depth + 4):
                assert is_admissible(marginal_ugw(P, k))

    def test_support_cap(self):
        from ugwldp.ugw import SupportExplosionError

        P = NeighborhoodLaw.from_degree_law({1: Fraction(1, 3), 3: Fraction(2, 3)})
        with pytest.raises(SupportExplosionError):
            marginal_ugw(P, 4, support_cap=50)

    def test_consistency(self):
        for P in (
            UNIFORM12,
            NeighborhoodLaw.from_degree_law({3: Fraction(1)}),
            NeighborhoodLaw.from_degree_law({0: Fraction(1, 4), 2: Fraction(3, 4)}),
        ):
            h = P.depth
            for k in (h, h + 1, h + 2):
                assert consistency_check(P, k)

    def test_edge_law_identity(self):
        assert edge_law_identity(NeighborhoodLaw.from_degree_law({3: Fraction(1)}))
        assert edge_law_identity(UNIFORM12)
        P2 = empirical_distribution(
            SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2
        )
        assert edge_law_identity(P2)

    def test_edge_identity_rejects_non_admissible(self):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        with pytest.raises(ValueError):
            edge_law_identity(NeighborhoodLaw.point_mass(chain))


def _child_classes(cls):
    from ugwldp.rooted import children_subtrees

    return children_subtrees(cls)


class TestSampler:
    def test_regular_deterministic(self):
        P = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        rng = random.Random(0)
        t = sample_ugw(P, 4, rng)
        assert len(t.adj) == 1 + 3 + 6 + 12 + 24
        degs = Counter(len(t.adj[v]) for v in t.adj)
        # all internal vertices have degree 3; the depth-4 shell has degree 1
        assert degs[1] == 24 and degs[3] == 22

    def test_isolated_root(self):
        P = NeighborhoodLaw.from_degree_law({0: Fraction(1)})
        t = sample_ugw(P, 3, random.Random(1))
        assert len(t.adj) == 1

    def test_seed_determinism(self):
        t1 = sample_ugw(UNIFORM12, 4, random.Random(99))
        t2 = sample_ugw(UNIFORM12, 4, random.Random(99))
        assert sorted(t1.edges()) == sorted(t2.edges())

    def test_depth2_law_matches_marginal(self):
        rng = random.Random(42)
        N = 30000
        emp = empirical_law([sample_ugw(UNIFORM12, 2, rng) for _ in range(N)], 2)
        target = marginal_ugw(UNIFORM12, 2)
        tv = float(tv_distance(emp, target))
        assert tv < 0.01
        assert tv <= 3 * (len(target) / N) ** 0.5

    def test_depth3_law_matches_marginal_two_laws(self):
        rng = random.Random(7)
        N = 4000
        for P in (
            UNIFORM12,
            NeighborhoodLaw.from_degree_law({0: Fraction(1, 4), 2: Fraction(3, 4)}),
        ):
            target = marginal_ugw(P, 3)
            emp = empirical_law([sample_ugw(P, 3, rng) for _ in range(N)], 3)
            assert float(tv_distance(emp, target)) <= 3 * (len(target) / N) ** 0.5

    def test_depth2_start_law(self):
        # start from a depth-2 law and extend one level
        P = marginal_ugw(UNIFORM12, 2)
        rng = random.Random(5)
        N = 4000
        target = marginal_ugw(P, 3)
        emp = empirical_law([sample_ugw(P, 3, rng) for _ in range(N)], 3)
        assert float(tv_distance(emp, target)) <= 3 * (len(target) / N) ** 0.5

    def test_rejects_non_admissible(self):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        with pytest.raises(ValueError):
            sample_ugw(NeighborhoodLaw.point_mass(chain), 3, random.Random(0))


ZERO2 = ((0, 0), (0, 0))


class TestColored:
    def test_single_color_reduces_to_size_biased(self):
        P = ColoredOffspringLaw(
            1, {((0,),): Fraction(1, 4), ((1,),): Fraction(1, 4), ((3,),): HALF}
        )
        hat = colored_branch_law(P, (1, 1))
        deg = {M[0][0]: p for M, p in hat.items()}
        assert deg == size_biased({0: Fraction(1, 4), 1: Fraction(1, 4), 3: HALF})

    def test_zero_mean_color_degenerates(self):
        P = ColoredOffspringLaw(2, {((2, 0), (0, 0)): Fraction(1)})
        assert colored_branch_law(P, (1, 2)) == {ZERO2: Fraction(1)}

    def test_two_color_hand_table(self):
        base = {
            ((2, 0), (0, 0)): Fraction(1, 4),
            ((1, 0), (0, 0)): Fraction(1, 4),
            ZERO2: HALF,
        }
        P = ColoredOffspringLaw(2, base)
        hat = colored_branch_law(P, (1, 1))
        assert hat == {
            ((1, 0), (0, 0)): Fraction(2, 3),
            ZERO2: Fraction(1, 3),
        }
        # independent normalization identity: sum over M of (M_c+1) P(M+E^c)
        # equals the color mean
        assert sum(hat.values()) == 1

    def test_unbalanced_means_rejected(self):
        with pytest.raises(ValueError):
            ColoredOffspringLaw(2, {((0, 1), (0, 0)): Fraction(1)})

    def test_deterministic_regular(self):
        P = ColoredOffspringLaw(1, {((3,),): Fraction(1)})
        t = sample_ugw_colored(P, 3, random.Random(0))
        assert t.n == 1 + 3 + 6 + 12

    def test_all_zero_law(self):
        P = ColoredOffspringLaw(1, {((0,),): Fraction(1)})
        t = sample_ugw_colored(P, 5, random.Random(0))
        assert t.n == 1

    def test_negative_depth_rejected(self):
        P = ColoredOffspringLaw(1, {((3,),): Fraction(1)})
        assert sample_ugw_colored(P, 0, random.Random(0)).n == 1
        with pytest.raises(ValueError, match="negative"):
            sample_ugw_colored(P, -1, random.Random(0))

    def test_single_color_matches_tree_sampler(self):
        deg = {0: Fraction(1, 4), 1: Fraction(1, 4), 3: HALF}
        P1 = ColoredOffspringLaw(1, {((k,),): p for k, p in deg.items()})
        law = NeighborhoodLaw.from_degree_law(deg)
        rng = random.Random(11)
        N = 20000
        colored = [sample_ugw_colored(P1, 2, rng).colorblind() for _ in range(N)]
        emp_c = empirical_law(colored, 2)
        target = marginal_ugw(law, 2)
        assert float(tv_distance(emp_c, target)) < 0.01


class TestBipartite:
    def test_root_probability(self):
        p1, p2 = bipartite_root_probability({2: 1}, {3: 1})
        assert (p1, p2) == (Fraction(3, 5), Fraction(2, 5))

    def test_deterministic_biregular(self):
        t = sample_ugw_bipartite({2: Fraction(1)}, {3: Fraction(1)}, 4, random.Random(3))
        degs = sorted(Counter(len(t.adj[v]) for v in t.adj).items())
        # alternating (2,3)-biregular: interior degrees are only 2 and 3
        interior = [d for d, _ in degs if d > 1]
        assert set(interior) <= {2, 3}
        root_deg = len(t.adj[t.root])
        assert root_deg in (2, 3)

    def test_equal_laws_match_plain_tree(self):
        deg = {2: Fraction(1, 2), 3: Fraction(1, 2)}
        law = NeighborhoodLaw.from_degree_law(deg)
        rng = random.Random(23)
        N = 20000
        emp = empirical_law(
            [sample_ugw_bipartite(deg, deg, 2, rng) for _ in range(N)], 2
        )
        target = marginal_ugw(law, 2)
        assert float(tv_distance(emp, target)) < 0.015

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            sample_ugw_bipartite({0: 1}, {2: 1}, 2, random.Random(0))

    def test_negative_depth_rejected(self):
        assert len(sample_ugw_bipartite({2: 1}, {3: 1}, 0, random.Random(0)).adj) == 1
        with pytest.raises(ValueError, match="negative"):
            sample_ugw_bipartite({2: 1}, {3: 1}, -2, random.Random(0))
