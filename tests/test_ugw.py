"""Prescribed-neighborhood tree tests: branch laws, marginals, samplers."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp import entropy
from ugwldp.neighborhood import (
    CyclicLawError,
    NeighborhoodLaw,
    edge_intensity_table,
    empirical_distribution,
    is_admissible,
    root_edge_types,
    truncate_law,
    tv_distance,
)
from ugwldp.oracle import brute_ugw_marginal
from ugwldp.rooted import (
    LabeledRootedGraph,
    SimpleGraph,
    canonicalize,
    parse_class,
    root_degree,
    star,
    truncate,
)
from ugwldp.ugw import (
    ColoredOffspringLaw,
    MissingBranchError,
    SupportExplosionError,
    _bipartite_law,
    _extension_size,
    colored_branch_law,
    consistency_check,
    edge_law_identity,
    marginal_ugw,
    sample_ugw,
    sample_ugw_bipartite,
    sample_ugw_colored,
    typed_branching_law,
)

HALF = Fraction(1, 2)
UNIFORM12 = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})


def empirical_law(samples, h: int) -> NeighborhoodLaw:
    """Empirical depth-h law of a list of sampled rooted trees."""
    counts = Counter(canonicalize(t, h) for t in samples)
    n = len(samples)
    return NeighborhoodLaw(h, {c: Fraction(v, n) for c, v in counts.items()})


def bipartite_root_probability(P1, P2):
    """Root type odds of the alternating two-law tree: (d2, d1) / (d1 + d2)."""
    d1 = sum(k * p for k, p in P1.items())
    d2 = sum(k * p for k, p in P2.items())
    tot = d1 + d2
    if isinstance(tot, float):
        return d2 / tot, d1 / tot
    return Fraction(d2) / tot, Fraction(d1) / tot


def size_biased(P):
    """Size-biased offspring law of a degree law on the nonnegative integers.

    Maps k to (k+1) P(k+1) / mean(P); requires a positive finite mean.
    The reference for the branch laws of the alternating two-law tree.
    """
    mean = sum(k * p for k, p in P.items())
    if mean == 0:
        raise ValueError("size bias of a zero-mean law")
    return {k - 1: k * p / mean for k, p in P.items() if k >= 1 and p != 0}


@st.composite
def small_degree_laws(draw):
    """Rational degree laws with support in {1..4} and a denominator of at most 6."""
    q = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, q), min_size=3, max_size=3)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return {k: Fraction(x, q) for k, x in zip(range(1, 5), counts) if x}


@st.composite
def typed_degree_laws(draw):
    """(weights, mode): degree weights on {0..4} with a denominator of at most 6.

    A rational law's weights are Fractions, or ints where the weight is 0
    or 1; a float law's are a mix of floats, Fractions and ints.
    """
    mode = draw(st.sampled_from(["rational", "float"]))
    q = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, q), min_size=4, max_size=4)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    kinds = ["fraction", "int"] if mode == "rational" else ["fraction", "int", "float"]
    weights = {}
    for k, x in enumerate(counts):
        kind = draw(st.sampled_from(kinds))
        if kind == "int" and x % q == 0:
            weights[k] = x // q
        elif kind == "float":
            weights[k] = x / q
        else:
            weights[k] = Fraction(x, q)
    return weights, mode


def _tower_laws(law):
    """law, its marginals to depth 3 (depth 2 where 3 would exceed 500
    classes), their truncations and branch laws, and JSON round-trips."""
    tower = [law]
    for k in (2, 3):
        try:
            tower.append(marginal_ugw(law, k, support_cap=500))
        except SupportExplosionError:
            break
    laws = tower + [truncate_law(Q, j) for Q in tower[1:] for j in range(Q.depth)]
    laws += [branch for Q in tower for branch in typed_branching_law(Q).table.values()]
    return laws + [NeighborhoodLaw.from_json(Q.to_json()) for Q in laws]


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
        dot = star(0, 0)
        law = typed_branching_law(P).law(dot, dot)
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
            assert edge_intensity_table(P).get((t, tp), 0) > 0

    def test_zero_intensity_rejected(self):
        P = marginal_ugw(NeighborhoodLaw.from_degree_law({3: Fraction(1)}), 2)
        with pytest.raises((ValueError, MissingBranchError)):
            typed_branching_law(P).law(star(0, 1), star(0, 1))

    def test_non_admissible_rejected(self):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        P = NeighborhoodLaw(chain.depth, {chain: 1})
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
        assert all(t is star(2, 1) for t in cls.children)

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

    def test_support_count_is_the_support_size(self):
        from ugwldp.neighborhood import root_edge_types
        from ugwldp.ugw import _extension_size, typed_branching_law
        from ugwldp.verify import marginal_law_pool

        for P, _h, k in marginal_law_pool():
            law = P
            while law.depth < k:
                size = _extension_size(law, root_edge_types(law), typed_branching_law(law))
                law = marginal_ugw(law, law.depth + 1)
                assert size == len(law)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(degree_law=small_degree_laws())
    def test_support_count_is_exact_on_degree_laws(self, degree_law):
        # steps 1 -> 2 -> 3; a step predicted above the cap must raise instead
        cap = 3000
        law = NeighborhoodLaw.from_degree_law(degree_law)
        while law.depth < 3:
            size = _extension_size(law, root_edge_types(law), typed_branching_law(law))
            if size > cap:
                with pytest.raises(SupportExplosionError):
                    marginal_ugw(law, law.depth + 1, support_cap=cap)
                return
            law = marginal_ugw(law, law.depth + 1, support_cap=cap)
            assert size == len(law)

    def test_support_cap_raises_before_building(self):
        import time

        from ugwldp.neighborhood import poisson_law
        from ugwldp.ugw import SupportExplosionError

        P2 = marginal_ugw(poisson_law(1.0, tail=1e-3), 2)
        start = time.perf_counter()
        with pytest.raises(SupportExplosionError, match="exceeds the cap of 1000"):
            marginal_ugw(P2, 3, support_cap=1000)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k", [2.5, 3.0, True, False, "3", None])
    def test_rejects_a_depth_that_is_not_an_int(self, k):
        P = marginal_ugw(UNIFORM12, 2)
        with pytest.raises(ValueError, match=f"depth must be an int, got {k!r}"):
            marginal_ugw(UNIFORM12, k)
        with pytest.raises(ValueError, match=f"depth must be an int, got {k!r}"):
            truncate_law(P, k)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(case=typed_degree_laws())
    def test_the_mode_decides_every_weight_type(self, case):
        weights, mode = case
        law = NeighborhoodLaw.from_degree_law(weights, mode=mode)
        want = Fraction if mode == "rational" else float
        for Q in _tower_laws(law):
            assert Q.mode == mode
            assert all(type(w) is want for w in Q.support.values())
            if mode == "rational":
                assert NeighborhoodLaw.from_json(Q.to_json()) == Q

    def test_int_weight_tower_serializes(self):
        for k in (1, 2, 3):
            Q = marginal_ugw(NeighborhoodLaw.from_degree_law({3: 1}), k)
            assert NeighborhoodLaw.from_json(Q.to_json()) == Q

    @pytest.mark.parametrize("weights", [{1: 0.5, 2: 0.5}, {1: HALF, 2: 0.5}, {3: 1.0}])
    def test_rational_law_rejects_a_float_weight(self, weights):
        with pytest.raises(ValueError, match="int or Fraction weights"):
            NeighborhoodLaw.from_degree_law(weights)

    def test_one_fraction_per_class(self, monkeypatch):
        # a warmed step sums integer numerators: one Fraction per class of
        # the result, and one for the total-mass check
        third = Fraction(1, 3)
        rho = marginal_ugw(NeighborhoodLaw.from_degree_law({1: third, 2: third, 3: third}), 2)
        marginal_ugw(rho, 3)
        made = []
        plain = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(1)
            return plain(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        result = marginal_ugw(rho, 3)
        monkeypatch.undo()
        assert len(result) == 285
        assert len(made) <= len(result) + 5

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
            edge_law_identity(NeighborhoodLaw(chain.depth, {chain: 1}))


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

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "2", None])
    def test_depth_not_an_int_rejected(self, k):
        with pytest.raises(ValueError, match="depth must be an int"):
            sample_ugw(UNIFORM12, k, random.Random(0))

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
            sample_ugw(NeighborhoodLaw(chain.depth, {chain: 1}), 3, random.Random(0))

    def test_cyclic_law_raises_before_any_draw(self):
        # the triangle's depth-2 law is admissible but has its mass on a
        # cyclic class: the branch-table build names it, and the generator
        # is left untouched
        law = empirical_distribution(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 2)
        (cyclic,) = law.support
        assert is_admissible(law)
        rng = random.Random(0)
        state = rng.getstate()
        for call in (lambda: sample_ugw(law, 3, rng), lambda: typed_branching_law(law)):
            with pytest.raises(CyclicLawError, match=re.escape(cyclic.wire())):
                call()
        assert rng.getstate() == state
        assert entropy.CyclicLawError is CyclicLawError and issubclass(CyclicLawError, ValueError)


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
        assert len(t.adj) == 1 + 3 + 6 + 12

    def test_all_zero_law(self):
        P = ColoredOffspringLaw(1, {((0,),): Fraction(1)})
        t = sample_ugw_colored(P, 5, random.Random(0))
        assert len(t.adj) == 1

    def test_negative_depth_rejected(self):
        P = ColoredOffspringLaw(1, {((3,),): Fraction(1)})
        assert len(sample_ugw_colored(P, 0, random.Random(0)).adj) == 1
        with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
            sample_ugw_colored(P, -1, random.Random(0))

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_depth_not_an_int_rejected(self, k):
        P = ColoredOffspringLaw(1, {((2,),): Fraction(1)})
        assert len(sample_ugw_colored(P, 2, random.Random(0)).adj) == 5
        with pytest.raises(ValueError, match="depth must be an int"):
            sample_ugw_colored(P, k, random.Random(0))
        with pytest.raises(ValueError, match="depth must be an int"):
            sample_ugw_bipartite({2: 1}, {3: 1}, k, random.Random(0))

    @pytest.mark.parametrize(
        "base, message",
        [
            ({((2,),): 1, ((3,),): 1}, "total mass 2, not 1"),
            ({((2,),): Fraction(3, 2), ((0,),): Fraction(-1, 2)}, "negative weight"),
            ({((2,),): 0.5, ((3,),): 0.5 + 1e-11}, "total mass"),
            ({((2,),): HALF, ((3,),): Fraction(1, 3)}, "total mass 5/6, not 1"),
            ({((2,),): 0.5, ((3,),): float("nan")}, "total mass nan, not 1"),
        ],
    )
    def test_base_law_not_a_probability_law_rejected(self, base, message):
        # a base law is never renormalized or read as counts
        with pytest.raises(ValueError, match=message):
            ColoredOffspringLaw(1, base)

    def test_float_mass_within_tolerance_accepted(self):
        P = ColoredOffspringLaw(1, {((2,),): 0.5, ((3,),): 0.5 + 1e-13})
        assert len(sample_ugw_colored(P, 1, random.Random(0)).adj) in (3, 4)

    def test_bipartite_degree_law_not_a_probability_law_rejected(self):
        with pytest.raises(ValueError, match="total mass"):
            sample_ugw_bipartite({2: 1, 3: 1}, {2: Fraction(1)}, 3, random.Random(0))

    def test_equal_laws_hash_equal(self):
        a = ColoredOffspringLaw(2, {((2, 0), (0, 0)): Fraction(1, 4), ZERO2: Fraction(3, 4)})
        b = ColoredOffspringLaw(2, {ZERO2: Fraction(3, 4), ((2, 0), (0, 0)): Fraction(1, 4)})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, _bipartite_law({2: 1}, {3: 1})}) == 2

    def test_single_color_matches_tree_sampler(self):
        deg = {0: Fraction(1, 4), 1: Fraction(1, 4), 3: HALF}
        P1 = ColoredOffspringLaw(1, {((k,),): p for k, p in deg.items()})
        law = NeighborhoodLaw.from_degree_law(deg)
        rng = random.Random(11)
        N = 20000
        colored = [sample_ugw_colored(P1, 2, rng) for _ in range(N)]
        emp_c = empirical_law(colored, 2)
        target = marginal_ugw(law, 2)
        assert float(tv_distance(emp_c, target)) < 0.01


# (P1, P2) pairs: exact, with a degree-0 entry on one or both sides (the
# zero matrix then sums both types' mass), with int weights, equal laws,
# and float weights
BIPARTITE_PAIRS = [
    ({0: Fraction(1, 4), 2: Fraction(1, 4), 3: HALF}, {1: Fraction(1, 3), 4: Fraction(2, 3)}),
    ({0: HALF, 1: HALF}, {0: Fraction(1, 3), 2: Fraction(2, 3)}),
    ({2: 1}, {3: 1}),
    ({1: 1}, {0: Fraction(1, 5), 5: Fraction(4, 5)}),
    ({2: HALF, 3: HALF}, {2: HALF, 3: HALF}),
    ({1: 0.5, 3: 0.5}, {0: 0.25, 2: 0.75}),
    ({0: 0.1, 1: 0.2, 4: 0.7}, {1: Fraction(1, 3), 2: Fraction(2, 3)}),
]


class TestBipartite:
    @pytest.mark.parametrize("P1, P2", BIPARTITE_PAIRS)
    def test_two_color_law_is_the_alternating_tree(self, P1, P2):
        # exact, no sampling: root mass (d2, d1) / (d1 + d2) per type, and
        # branch laws size_biased(P2) across (1, 2), size_biased(P1) across (2, 1)
        r1, r2 = bipartite_root_probability(P1, P2)
        root = {}
        for k, p in P1.items():
            root[((0, k), (0, 0))] = root.get(((0, k), (0, 0)), 0) + r1 * p
        for k, p in P2.items():
            root[((0, 0), (k, 0))] = root.get(((0, 0), (k, 0)), 0) + r2 * p
        law = _bipartite_law(P1, P2)
        hat12 = colored_branch_law(law, (1, 2))
        hat21 = colored_branch_law(law, (2, 1))
        assert all(M[0] == (0, 0) and M[1][1] == 0 for M in hat12)
        assert all(M[1] == (0, 0) and M[0][0] == 0 for M in hat21)
        hat12 = {M[1][0]: p for M, p in hat12.items()}
        hat21 = {M[0][1]: p for M, p in hat21.items()}
        floats = any(isinstance(p, float) for p in [*P1.values(), *P2.values()])
        if floats:
            assert law.base == pytest.approx(root, rel=1e-12, abs=0)
            assert hat12 == pytest.approx(size_biased(P2), rel=1e-12, abs=0)
            assert hat21 == pytest.approx(size_biased(P1), rel=1e-12, abs=0)
        else:
            assert all(type(p) is Fraction for p in law.base.values())
            assert law.base == root
            assert hat12 == size_biased(P2)
            assert hat21 == size_biased(P1)

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
        with pytest.raises(ValueError, match="depth must be >= 0, got -2"):
            sample_ugw_bipartite({2: 1}, {3: 1}, -2, random.Random(0))
