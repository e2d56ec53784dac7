"""Entropy functional and rate function tests."""

import heapq
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp import oracle
from ugwldp.cli import main
from ugwldp.entropy import (
    INF,
    CyclicLawError,
    discontinuity_bound,
    entropy_constant,
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
    empirical_distribution,
    is_admissible,
    mean_degree,
    poisson_law,
    truncate_law,
)
from ugwldp.rooted import GENERAL, SimpleGraph
from ugwldp.ugw import SupportExplosionError, marginal_ugw

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
            ugw_entropy(NeighborhoodLaw(chain.depth, {chain: 1}))


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
        assert abs(entropy_increments(rho2)[-1]) < 1e-12

    def test_first_increment_is_poisson_gap(self):
        P = {1: HALF, 2: HALF}
        law = NeighborhoodLaw.from_degree_law(P)
        d = float(mean_degree(law))
        assert abs(
            entropy_increments(law)[-1] - relative_entropy_poisson(P, d)
        ) < 1e-14

    def test_float_truncations_along_two_paths(self):
        # truncate_law(truncate_law(P, 2), 1) and truncate_law(P, 1) differ
        # in their last bits; both are the depth-1 truncation of the law
        P = marginal_ugw(FLOAT124, 3)
        rho1, rho2 = truncate_law(P, 1), truncate_law(P, 2)
        assert truncate_law(rho2, 1) != rho1
        assert abs(entropy_increments(rho2)[-1]) < 1e-12
        incs = entropy_increments(P)
        assert len(incs) == 3 and all(abs(x) < 1e-12 for x in incs[1:])

    def test_depth0_law_raises(self):
        P0 = NeighborhoodLaw.from_degree_law({0: Fraction(1)})
        P0 = truncate_law(P0, 0)
        with pytest.raises(ValueError, match="depth >= 1"):
            entropy_increments(P0)

    def test_strict_increment_for_mixture(self):
        rho2 = mixed_depth2_law()
        gap = entropy_increments(rho2)[-1]
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


def prufer_tree(n, rng):
    """A uniform labeled tree on n >= 2 vertices, decoded with a leaf heap."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return SimpleGraph.from_edges(n, edges)


@pytest.fixture(scope="module")
def wide_tree_law():
    # 2309 classes, whose one-step extension has 1176302: beyond the
    # default support_cap of marginal_ugw
    return empirical_distribution(prufer_tree(10000, random.Random(1)), 3)


class TestIncrementsBeyondTheCap:
    def test_extension_exceeds_the_cap(self, wide_tree_law):
        with pytest.raises(SupportExplosionError):
            marginal_ugw(truncate_law(wide_tree_law, 2), 3)

    def test_increments_answer(self, wide_tree_law):
        incs = entropy_increments(wide_tree_law)
        assert len(incs) == 3
        assert all(math.isfinite(x) and x >= -1e-12 for x in incs)
        deg = wide_tree_law.degree_law()
        assert incs[0] == relative_entropy_poisson(deg, float(mean_degree(wide_tree_law)))

    def test_cli_delta_answers(self, wide_tree_law, tmp_path, capsys):
        path = tmp_path / "wide.json"
        wide_tree_law.dump(path)
        assert main(["delta", "--law", str(path)]) == 0
        incs = json.loads(capsys.readouterr().out)["increments"]
        assert len(incs) == 3 and all(math.isfinite(x) for x in incs)


@st.composite
def degree_laws_1to4(draw):
    ks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    ws = draw(st.lists(st.integers(1, 5), min_size=len(ks), max_size=len(ks)))
    return NeighborhoodLaw.from_degree_law({k: Fraction(w, sum(ws)) for k, w in zip(ks, ws)})


@st.composite
def ugw_mixtures(draw):
    """w rho_a + (1 - w) rho_b for depth-2 marginals rho_a, rho_b."""
    a = marginal_ugw(draw(degree_laws_1to4()), 2)
    b = marginal_ugw(draw(degree_laws_1to4()), 2)
    w = Fraction(draw(st.integers(1, 9)), 10)
    weights = {}
    for law, share in ((a, w), (b, 1 - w)):
        for cls, p in law.items():
            weights[cls] = weights.get(cls, 0) + share * p
    return NeighborhoodLaw(2, weights)


@st.composite
def small_tree_laws(draw):
    """Depth-2 empirical law of a tree on 2..12 vertices, degrees <= 4."""
    n = draw(st.integers(2, 12))
    degree = [0] * n
    edges = []
    for v in range(1, n):
        u = draw(st.sampled_from([u for u in range(v) if degree[u] < 4]))
        degree[u] += 1
        degree[v] += 1
        edges.append((u, v))
    return empirical_distribution(SimpleGraph.from_edges(n, edges), 2)


class TestIncrementsAgainstTheOracle:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(P=st.one_of(ugw_mixtures(), small_tree_laws()))
    def test_second_increment_is_the_kl_definition(self, P):
        want = oracle.kl_increment(truncate_law(P, 1), P)
        assert abs(entropy_increments(P)[1] - want) <= 1e-12

    def test_kl_increment_joins_consecutive_depths(self):
        with pytest.raises(ValueError, match="consecutive"):
            oracle.kl_increment(UNIFORM12, marginal_ugw(UNIFORM12, 3))


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

    def test_fixed_edges_at_mean_degree_zero(self):
        # Like the three other rates, a value and no error for the
        # all-isolated law, the one law with mean degree 0.
        zero = NeighborhoodLaw.from_degree_law({0: 1})
        assert rate_fixed_edges(zero, 0) == 0.0
        assert rate_fixed_edges(zero, 0.0) == 0.0
        assert rate_fixed_edges(zero, 1) == INF
        assert rate_fixed_degrees(zero, {0: 1}) == 0.0
        assert rate_degree_fixed({0: 1}, 0) == 0.0

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0, -1.5])
    def test_lambda_must_be_finite_and_positive(self, lam):
        law = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        with pytest.raises(ValueError, match="lambda must be finite and > 0"):
            rate_binomial(law, lam)
        with pytest.raises(ValueError, match="lambda must be finite and > 0"):
            rate_degree_er({3: 1}, lam)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, -1, -2.0])
    def test_d_must_be_finite_and_nonnegative(self, d):
        law = NeighborhoodLaw.from_degree_law({3: Fraction(1)})
        with pytest.raises(ValueError, match="d must be finite and >= 0"):
            rate_fixed_edges(law, d)
        with pytest.raises(ValueError, match="d must be finite and >= 0"):
            rate_degree_fixed({3: 1}, d)
        with pytest.raises(ValueError, match="d must be finite and >= 0"):
            entropy_constant(d)


def cyclic_laws():
    """Empirical laws with mass on a class that holds a cycle."""
    k3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    c4 = SimpleGraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
    # a triangle beside a path: 3/6 of the mass on trees
    mixed = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    return {
        "K3": empirical_distribution(k3, 2),
        "K3-depth1": empirical_distribution(k3, 1),
        "C4": empirical_distribution(c4, 2),
        "mixed": empirical_distribution(mixed, 2),
    }


CYCLIC = cyclic_laws()


class TestCyclicSupport:
    """The rate is finite only on laws supported on trees."""

    def test_laws(self):
        assert [c.wire() for c in CYCLIC["K3"]] == ["G2:03002600"]
        mixed = CYCLIC["mixed"]
        assert sum(p for c, p in mixed.items() if c.kind == GENERAL) == HALF

    @pytest.mark.parametrize("name", sorted(CYCLIC))
    def test_every_rate_is_infinite(self, name):
        Q = CYCLIC[name]
        # the means match, so each rate was finite before
        assert rate_binomial(Q, 2.0) == INF
        assert rate_fixed_edges(Q, mean_degree(Q)) == INF
        assert rate_fixed_degrees(Q, Q.degree_law()) == INF

    @pytest.mark.parametrize("name", sorted(CYCLIC))
    @pytest.mark.parametrize("fn", [ugw_entropy, ugw_entropy_terms, entropy_increments])
    def test_entropy_raises_naming_the_class(self, name, fn):
        Q = CYCLIC[name]
        (cyclic,) = {c for c in Q if c.kind == GENERAL}
        with pytest.raises(CyclicLawError, match=re.escape(cyclic.wire())):
            fn(Q)

    def test_a_cyclic_law_is_still_admissible(self):
        assert all(is_admissible(Q) for Q in CYCLIC.values())


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
