"""Neighborhood distribution, edge-intensity, and admissibility tests."""

import json
import random
from fractions import Fraction

import pytest

from ugwldp.neighborhood import (
    NeighborhoodLaw,
    edge_intensity,
    edge_intensity_table,
    edge_type_distribution,
    empirical_distribution,
    is_admissible,
    mean_degree,
    poisson_law,
    truncate_law,
    tv_distance,
)
from ugwldp.rooted import (
    LabeledRootedGraph,
    SimpleGraph,
    canonicalize,
    isolated_root,
    star,
)

HALF = Fraction(1, 2)


def five_vertex_example():
    """Graph with a degree-3 hub: one vertex each of four local patterns."""
    return SimpleGraph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 4)]
    )


class TestEmpirical:
    def test_five_vertex_component_classes(self):
        G = five_vertex_example()
        # component classes (depth 4 covers the diameter): the two
        # triangle-side vertices coincide; the other three are distinct
        U = empirical_distribution(G, 4)
        weights = sorted(U.support.values())
        assert weights == [Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(2, 5)]
        assert canonicalize(G.rooted_at(1), 4) is canonicalize(G.rooted_at(2), 4)
        assert len({canonicalize(G.rooted_at(v), 4) for v in range(5)}) == 4

    def test_regular_cycle_point_mass(self):
        C5 = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        U = empirical_distribution(C5, 1)
        assert U.support == {star(2, 1): Fraction(1)}

    def test_path3(self):
        path3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        U = empirical_distribution(path3, 1)
        assert U.support == {star(1, 1): Fraction(2, 3), star(2, 1): Fraction(1, 3)}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution(SimpleGraph.from_edges(0, []), 1)

    def test_mean_degree_is_edge_density(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            G = SimpleGraph.from_edges(n, pairs[: rng.randint(0, len(pairs))])
            for h in (1, 2):
                assert mean_degree(empirical_distribution(G, h)) == Fraction(
                    2 * G.m, G.n
                )

    def test_marginal_consistency(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            G = SimpleGraph.from_edges(n, pairs[: rng.randint(0, len(pairs))])
            deep = empirical_distribution(G, 3)
            for k in (0, 1, 2, 3):
                assert truncate_law(deep, k) == empirical_distribution(G, k)


class TestEdgeIntensity:
    def test_point_mass_star(self):
        for d in (1, 2, 5):
            P = NeighborhoodLaw.point_mass(star(d, 1))
            dot = isolated_root(0)
            assert edge_intensity(P, dot, dot) == d

    def test_path3_mean(self):
        path3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        P = empirical_distribution(path3, 1)
        dot = isolated_root(0)
        assert edge_intensity(P, dot, dot) == Fraction(4, 3)
        assert sum(edge_intensity_table(P).values()) == mean_degree(P)

    def test_asymmetric_point_mass(self):
        # depth-2 path rooted at an end: the lone root edge has far pattern
        # a single-child star but near pattern an isolated root
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        P = NeighborhoodLaw.point_mass(chain)
        s1 = star(1)
        dot = isolated_root(0)
        assert edge_intensity(P, s1, dot) == 1
        assert edge_intensity(P, dot, s1) == 0
        rep = is_admissible(P)
        assert not rep
        assert rep.violations

    def test_pi_point_mass_h1(self):
        P = NeighborhoodLaw.from_degree_law({2: HALF, 4: HALF})
        pi = edge_type_distribution(P)
        assert sum(pi.values()) == 1
        assert len(pi) == 1

    def test_pi_symmetric_for_admissible(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(3, 6)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            G = SimpleGraph.from_edges(n, pairs[: rng.randint(2, len(pairs))])
            P = empirical_distribution(G, 2)
            if mean_degree(P) == 0:
                continue
            assert is_admissible(P)
            pi = edge_type_distribution(P)
            assert all(w == pi.get((tp, t), 0) for (t, tp), w in pi.items())

    def test_pi_regular_tree_marginal(self):
        from ugwldp.ugw import marginal_ugw

        P = marginal_ugw(NeighborhoodLaw.from_degree_law({3: Fraction(1)}), 2)
        pi = edge_type_distribution(P)
        ((pair, w),) = pi.items()
        assert w == 1
        assert pair[0] is pair[1] is star(2, 1)

    def test_zero_mean_rejected(self):
        P = NeighborhoodLaw.from_degree_law({0: Fraction(1)})
        with pytest.raises(ValueError):
            edge_type_distribution(P)


class TestAdmissibility:
    def test_degree_laws_always_admissible(self):
        rng = random.Random(13)
        for _ in range(10):
            ks = rng.sample(range(8), 3)
            ws = [Fraction(rng.randint(1, 5)) for _ in ks]
            tot = sum(ws)
            P = NeighborhoodLaw.from_degree_law(
                {k: w / tot for k, w in zip(ks, ws)}
            )
            assert is_admissible(P)

    def test_empirical_always_admissible(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(1, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            G = SimpleGraph.from_edges(n, pairs[: rng.randint(0, len(pairs))])
            for h in (1, 2, 3):
                assert is_admissible(empirical_distribution(G, h))


class TestTvAndPoisson:
    def test_tv_self_zero(self):
        P = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})
        assert tv_distance(P, P) == 0

    def test_tv_disjoint_point_masses(self):
        a = NeighborhoodLaw.point_mass(star(1, 1))
        b = NeighborhoodLaw.point_mass(star(2, 1))
        assert tv_distance(a, b) == 1

    def test_tv_depth_mismatch(self):
        a = NeighborhoodLaw.point_mass(star(1, 1))
        b = NeighborhoodLaw.point_mass(star(1, 2), depth=2)
        with pytest.raises(ValueError):
            tv_distance(a, b)

    def test_truncated_poisson_mean(self):
        lam = 2.5
        P = poisson_law(lam, tail=1e-12)
        deg = P.degree_law()
        import math

        direct = sum(
            k * math.exp(-lam) * lam**k / math.factorial(k) for k in sorted(deg)
        )
        direct /= sum(
            math.exp(-lam) * lam**k / math.factorial(k) for k in sorted(deg)
        )
        assert abs(float(mean_degree(P)) - direct) < 1e-9


class TestSerialization:
    def test_json_round_trip_rational(self):
        G = five_vertex_example()
        P = empirical_distribution(G, 2)
        blob = json.dumps(P.to_json())
        back = NeighborhoodLaw.from_json(json.loads(blob))
        assert back == P and back.mode == P.mode

    def test_json_round_trip_float(self):
        P = poisson_law(1.5)
        back = NeighborhoodLaw.from_json(P.to_json())
        assert back.depth == 1
        assert tv_distance(back, P) < 1e-12

    def test_file_round_trip(self, tmp_path):
        P = empirical_distribution(five_vertex_example(), 3)
        path = tmp_path / "law.json"
        P.dump(path)
        assert NeighborhoodLaw.load(path) == P

    def test_general_class_wire_in_law(self):
        tri_plus = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        P = empirical_distribution(tri_plus, 2)
        assert any(cls.kind == "general" for cls in P)
        back = NeighborhoodLaw.from_json(P.to_json())
        assert back == P
