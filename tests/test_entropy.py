"""Entropy functional and rate function tests."""

import math
import random
from fractions import Fraction

import pytest

from ugwldp.entropy import (
    INF,
    discontinuity_bound,
    entropy_constant,
    entropy_increment,
    entropy_increments,
    rate_binomial,
    rate_degree_er,
    rate_degree_fixed,
    rate_fixed_degrees,
    rate_fixed_edges,
    relative_entropy,
    relative_entropy_poisson,
    shannon,
    sigma_ugw1,
    ugw_entropy,
    ugw_entropy_terms,
)
from ugwldp.neighborhood import (
    NeighborhoodLaw,
    mean_degree,
    poisson_law,
    truncate_law,
)
from ugwldp.ugw import marginal_ugw

HALF = Fraction(1, 2)
UNIFORM12 = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})
FLOAT124 = NeighborhoodLaw.from_degree_law({1: 0.25, 2: 0.5, 4: 0.25}, mode="float")


def random_degree_law(rng, allow_zero_mean=False):
    ks = rng.sample(range(7), rng.randint(2, 4))
    ws = [rng.randint(1, 9) for _ in ks]
    tot = sum(ws)
    P = {k: Fraction(w, tot) for k, w in zip(ks, ws)}
    if not allow_zero_mean and sum(k * p for k, p in P.items()) == 0:
        P[1] = P.pop(0)
    return P


class TestScalars:
    def test_entropy_constant(self):
        assert entropy_constant(1) == 0.5
        assert entropy_constant(0) == 0.0
        assert abs(entropy_constant(2) - (1 - math.log(2))) < 1e-15
        with pytest.raises(ValueError):
            entropy_constant(-1)

    def test_shannon_trivials(self):
        assert shannon({("x",): 1}) == 0
        assert abs(shannon({0: 0.5, 1: 0.5}) - math.log(2)) < 1e-15

    def test_relative_entropy_trivials(self):
        P = {0: HALF, 2: HALF}
        assert relative_entropy(P, P) == 0
        assert relative_entropy({1: 1}, {2: 1}) == INF

    def test_poisson_gap_closed_form(self):
        # closed form agrees with a literal truncated-sum evaluation
        lam = 1.3
        P = {0: 0.3, 1: 0.45, 3: 0.25}
        direct = sum(
            p
            * (
                math.log(p)
                - (-lam + k * math.log(lam) - math.lgamma(k + 1))
            )
            for k, p in P.items()
        )
        assert abs(relative_entropy_poisson(P, lam) - direct) < 1e-14


class TestUgwEntropy:
    def test_depth1_identity_many_laws(self):
        rng = random.Random(5)
        for _ in range(20):
            P = random_degree_law(rng)
            law = NeighborhoodLaw.from_degree_law(P)
            d = float(mean_degree(law))
            lhs = ugw_entropy(law)
            rhs = entropy_constant(d) - relative_entropy_poisson(P, d)
            assert abs(lhs - rhs) <= 1e-12

    def test_regular3_closed_form(self):
        law = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        want = 1.5 * math.log(3) - 1.5 - math.log(6)
        assert abs(ugw_entropy(law) - want) <= 1e-12

    def test_poisson_maximizes(self):
        lam = 2.0
        poi = poisson_law(lam, tail=1e-14)
        assert abs(ugw_entropy(poi) - entropy_constant(lam)) < 1e-9
        rng = random.Random(7)
        for _ in range(10):
            P = random_degree_law(rng)
            law = NeighborhoodLaw.from_degree_law(P)
            assert ugw_entropy(law) <= entropy_constant(float(mean_degree(law))) + 1e-12

    def test_terms_breakdown(self):
        terms = ugw_entropy_terms(marginal_ugw(UNIFORM12, 2))
        recomposed = (
            -terms["s_d"]
            + terms["H_P"]
            - terms["mean_degree"] / 2 * terms["H_pi"]
            - terms["log_factorials"]
        )
        assert abs(recomposed - terms["value"]) < 1e-15

    def test_rejects_non_admissible(self):
        from ugwldp.rooted import LabeledRootedGraph, canonicalize

        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        with pytest.raises(ValueError):
            ugw_entropy(NeighborhoodLaw.point_mass(chain))


def mixed_depth2_law():
    """An admissible depth-2 law that is not the extension of its own
    depth-1 marginal."""
    a = marginal_ugw(NeighborhoodLaw.from_degree_law({2: Fraction(1)}), 2)
    b = marginal_ugw(
        NeighborhoodLaw.from_degree_law({1: HALF, 3: HALF}), 2
    )
    support = {}
    for cls, p in a.items():
        support[cls] = support.get(cls, 0) + p / 2
    for cls, p in b.items():
        support[cls] = support.get(cls, 0) + p / 2
    return NeighborhoodLaw(2, support)


class TestIncrements:
    def test_consistent_tower_increment_zero(self):
        rho2 = marginal_ugw(UNIFORM12, 2)
        assert abs(entropy_increment(truncate_law(rho2, 1), rho2)) < 1e-12

    def test_first_increment_is_poisson_gap(self):
        P = {1: HALF, 2: HALF}
        law = NeighborhoodLaw.from_degree_law(P)
        d = float(mean_degree(law))
        assert abs(
            entropy_increment(None, law) - relative_entropy_poisson(P, d)
        ) < 1e-14

    def test_inconsistent_marginals_rejected(self):
        rho2 = marginal_ugw(UNIFORM12, 2)
        other = NeighborhoodLaw.from_degree_law({2: Fraction(1)})
        with pytest.raises(ValueError):
            entropy_increment(other, rho2)

    def test_float_truncations_along_two_paths(self):
        # truncate_law(truncate_law(P, 2), 1) and truncate_law(P, 1) differ
        # in their last bits; both are the depth-1 truncation of the law
        P = marginal_ugw(FLOAT124, 3)
        rho1, rho2 = truncate_law(P, 1), truncate_law(P, 2)
        assert truncate_law(rho2, 1) != rho1
        assert abs(entropy_increment(rho1, rho2)) < 1e-12
        incs = entropy_increments(P)
        assert len(incs) == 3 and all(abs(x) < 1e-12 for x in incs[1:])

    def test_float_truncation_still_checked(self):
        P = marginal_ugw(FLOAT124, 2)
        shifted = {cls: p for cls, p in truncate_law(P, 1).items()}
        a, b = sorted(shifted, key=lambda c: c.wire())[:2]
        shifted[a] += 1e-9
        shifted[b] -= 1e-9
        with pytest.raises(ValueError, match="truncation"):
            entropy_increment(NeighborhoodLaw(1, shifted, mode="float"), P)

    def test_depth0_law_raises(self):
        P0 = NeighborhoodLaw.from_degree_law({0: Fraction(1)})
        P0 = truncate_law(P0, 0)
        with pytest.raises(ValueError, match="depth >= 1"):
            entropy_increments(P0)

    def test_strict_increment_for_mixture(self):
        rho2 = mixed_depth2_law()
        rho1 = truncate_law(rho2, 1)
        gap = entropy_increment(rho1, rho2)
        assert gap > 1e-6

    def test_telescoping(self):
        for base in (
            UNIFORM12,
            NeighborhoodLaw.from_degree_law({1: Fraction(1, 3), 3: Fraction(2, 3)}),
        ):
            rho = marginal_ugw(base, 3)
            d = float(mean_degree(rho))
            incs = entropy_increments(rho)
            assert all(x >= -1e-12 for x in incs)
            assert abs(entropy_constant(d) - sum(incs) - ugw_entropy(rho)) <= 1e-10

    def test_monotone_with_strictness(self):
        # equality along a consistent tower, strict drop for the mixture
        rho2 = mixed_depth2_law()
        rho1 = truncate_law(rho2, 1)
        j1 = ugw_entropy(rho1)
        j2 = ugw_entropy(rho2)
        assert j2 < j1 - 1e-6
        tower2 = marginal_ugw(rho1, 2)
        assert abs(ugw_entropy(tower2) - j1) < 1e-12

    def test_below_entropy_constant(self):
        rng = random.Random(11)
        for _ in range(10):
            law = NeighborhoodLaw.from_degree_law(random_degree_law(rng))
            for k in (1, 2):
                rho = marginal_ugw(law, k)
                d = float(mean_degree(rho))
                assert ugw_entropy(rho) <= entropy_constant(d) + 1e-12


class TestRates:
    def test_fixed_degrees_zero_at_marginal(self):
        P = {1: HALF, 2: HALF}
        Q = marginal_ugw(NeighborhoodLaw.from_degree_law(P), 3)
        assert abs(rate_fixed_degrees(Q, P)) < 1e-10

    def test_fixed_degrees_infinite_off_constraint(self):
        Q = marginal_ugw(NeighborhoodLaw.from_degree_law({2: Fraction(1)}), 2)
        assert rate_fixed_degrees(Q, {1: HALF, 2: HALF}) == INF

    def test_fixed_degrees_positive_for_mixture(self):
        rho2 = mixed_depth2_law()
        P = rho2.degree_law()
        val = rate_fixed_degrees(rho2, P)
        assert 0 < val < INF

    def test_fixed_edges(self):
        poi = poisson_law(1.5, tail=1e-14)
        assert abs(rate_fixed_edges(poi, float(mean_degree(poi)))) < 1e-9
        assert rate_fixed_edges(poi, 2.0) == INF
        Q = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        want = entropy_constant(3) - ugw_entropy(Q)
        assert abs(rate_fixed_edges(Q, 3) - want) < 1e-15

    def test_binomial(self):
        lam = 2.0
        poi = poisson_law(lam, tail=1e-14)
        assert rate_binomial(poi, lam) <= 1e-8
        zero = NeighborhoodLaw.from_degree_law({0: Fraction(1)})
        assert rate_binomial(zero, lam) == lam / 2
        # wrong-rate Poisson pays a positive price
        poi3 = poisson_law(3.0, tail=1e-14)
        assert rate_binomial(poi3, lam) > 0.05

    def test_degree_rates(self):
        lam = 2.0
        poi = poisson_law(lam, tail=1e-14).degree_law()
        assert rate_degree_er(poi, lam) < 1e-9
        d = 1.0
        poi_d = poisson_law(d, tail=1e-14).degree_law()
        want = (lam - d) / 2 - (d / 2) * math.log(lam / d)
        assert abs(rate_degree_er(poi_d, lam) - want) < 1e-9
        assert rate_degree_fixed({2: 1}, 3) == INF
        assert abs(rate_degree_fixed(poi, lam)) < 1e-9

    def test_rates_nonnegative_grid(self):
        rng = random.Random(13)
        for _ in range(10):
            P = random_degree_law(rng)
            law = NeighborhoodLaw.from_degree_law(P)
            d = float(mean_degree(law))
            if d == 0:
                continue
            assert rate_fixed_edges(law, mean_degree(law)) >= -1e-12
            assert rate_binomial(law, 1.7) >= -1e-12
            assert rate_degree_er(P, 1.7) >= -1e-12
            assert rate_degree_fixed(P, sum(k * p for k, p in P.items())) >= -1e-12


class TestDiscontinuityBound:
    def test_equal_laws_match_gap_structure(self):
        P = {2: HALF, 3: HALF}
        d = 2.5
        want = sigma_ugw1(P) - (d / 2 - 1) * math.log(2)
        assert abs(discontinuity_bound(P, P) - want) < 1e-12

    def test_regular_pair_value(self):
        # p1 = 3/5, p2 = 2/5, d = 12/5; frozen evaluation of the formula
        val = discontinuity_bound({2: 1}, {3: 1})
        assert abs(val - (-1.4407945608651872)) < 1e-9

    def test_regular_self_identity(self):
        d = 3
        val = discontinuity_bound({d: 1}, {d: 1})
        j1 = ugw_entropy(NeighborhoodLaw.from_degree_law({d: Fraction(1)}))
        assert abs(val - (j1 + math.log(2) - (d / 2) * math.log(2))) < 1e-12

    def test_support_guard(self):
        with pytest.raises(ValueError):
            discontinuity_bound({1: HALF, 2: HALF}, {2: 1})
