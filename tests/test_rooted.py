"""Canonical form and structural operation tests.

Isomorphism ground truth comes from a brute-force bijection check, never
from the encodings under test.
"""

import itertools
import random

import pytest

from ugwldp import rooted
from ugwldp.rooted import (
    EdgeAbsentError,
    KindMismatchError,
    LabeledRootedGraph,
    _radius,
    canonical_from_adjacency,
    canonicalize,
    declare_depth,
    edge_type_count,
    edge_type_table,
    join_at_root,
    parse_class,
    root_degree,
    split_at_edge,
    star,
    truncate,
)


def brute_isomorphic(g1: LabeledRootedGraph, g2: LabeledRootedGraph) -> bool:
    """Root-preserving isomorphism by trying every bijection."""
    v1 = sorted(g1.adj)
    v2 = sorted(g2.adj)
    if len(v1) != len(v2):
        return False
    e1 = {frozenset(e) for e in g1.edges()}
    others1 = [v for v in v1 if v != g1.root]
    others2 = [v for v in v2 if v != g2.root]
    for perm in itertools.permutations(others2):
        mapping = {g1.root: g2.root}
        mapping.update(zip(others1, perm))
        mapped = {frozenset((mapping[a], mapping[b])) for e in e1 for a, b in [tuple(e)]}
        if mapped == {frozenset(e) for e in g2.edges()}:
            return True
    return False


def random_tree(n, rng, root=0):
    g = LabeledRootedGraph(root=root, vertices=range(n))
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


def random_graph(n, extra_edges, rng):
    g = random_tree(n, rng)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(pairs)
    for u, v in pairs[:extra_edges]:
        g.add_edge(u, v)
    return g


def relabel(g, mapping):
    """g with each vertex v renamed mapping[v]."""
    return LabeledRootedGraph(
        [(mapping[u], mapping[v]) for u, v in g.edges()],
        root=mapping[g.root],
        vertices=mapping.values(),
    )


def relabeled(g, rng):
    labels = sorted(g.adj)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    return relabel(g, dict(zip(labels, shuffled)))


class TestCanonicalize:
    def test_isolated_root_depth0(self):
        g = LabeledRootedGraph(root=0)
        c = canonicalize(g, 0)
        assert c.wire() == "()"
        assert c is star(0, 0)

    def test_relabeling_invariance_path(self):
        a = LabeledRootedGraph([(0, 1), (1, 2)], root=0)
        b = LabeledRootedGraph([(10, 20), (20, 30)], root=30)
        assert canonicalize(a, 1) is canonicalize(b, 1)

    def test_root_placement_matters(self):
        end = LabeledRootedGraph([(0, 1), (1, 2)], root=0)
        mid = LabeledRootedGraph([(0, 1), (1, 2)], root=1)
        assert canonicalize(end, 2) is not canonicalize(mid, 2)
        # brute-force confirms they are genuinely non-isomorphic
        assert not brute_isomorphic(end, mid)

    def test_only_root_component_counts(self):
        g = LabeledRootedGraph([(0, 1)], root=0, vertices=[5, 6])
        g.add_edge(5, 6)
        lone = LabeledRootedGraph([(0, 1)], root=0)
        assert canonicalize(g, 3) is canonicalize(lone, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_soundness_exhaustive_small_trees(self, n):
        rng = random.Random(100 + n)
        for _ in range(3):
            g = random_tree(n, rng, root=rng.randrange(n))
            base = canonicalize(g, n)
            labels = sorted(g.adj)
            for perm in itertools.permutations(labels):
                h = relabel(g, dict(zip(labels, perm)))
                assert canonicalize(h, n) is base

    @pytest.mark.parametrize("n", [8, 9])
    def test_soundness_sampled_large_trees(self, n):
        rng = random.Random(200 + n)
        for _ in range(4):
            g = random_tree(n, rng, root=rng.randrange(n))
            base = canonicalize(g, n)
            for _ in range(300):
                assert canonicalize(relabeled(g, rng), n) is base

    def test_distinct_classes_distinct_encodings(self):
        rng = random.Random(7)
        trees = [random_tree(rng.randint(2, 7), rng) for _ in range(40)]
        for a, b in itertools.combinations(trees, 2):
            same_code = canonicalize(a, 9) is canonicalize(b, 9)
            assert same_code == brute_isomorphic(a, b)

    def test_general_graph_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(3, 7)
            g = random_graph(n, rng.randint(1, 3), rng)
            base = canonicalize(g, n)
            for _ in range(40):
                assert canonicalize(relabeled(g, rng), n) is base

    def test_general_distinct_iff_nonisomorphic(self):
        rng = random.Random(13)
        graphs = [random_graph(rng.randint(3, 6), rng.randint(1, 3), rng) for _ in range(25)]
        for a, b in itertools.combinations(graphs, 2):
            same_code = canonicalize(a, 6) is canonicalize(b, 6)
            assert same_code == brute_isomorphic(a, b)

    def test_wire_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng.randint(2, 6), rng.randint(0, 3), rng)
            c = canonicalize(g, 4)
            assert parse_class(c.wire(), 4) is c

    def test_unsorted_tree_string_parses_to_its_class(self):
        # "(())" sorts before "()", so the canonical string lists it first.
        got = parse_class("(()(()))", 2)
        assert got is parse_class("((())())", 2)
        assert got.wire() == "((())())"
        assert got is join_at_root(star(1, 2), star(1, 1))


class TestTruncate:
    def test_depth2_path_to_single_child(self):
        g = LabeledRootedGraph([(0, 1), (1, 2)], root=0)
        c = canonicalize(g, 2)
        assert truncate(c, 1).wire() == "(())"

    def test_idempotent_above_depth(self):
        c = canonicalize(LabeledRootedGraph([(0, 1)], root=0), 1)
        assert truncate(c, 5) is c
        assert truncate(c, 1) is c

    def test_depth3_binary_to_depth2(self):
        # complete binary tree of depth 3 truncates to the depth-2 one
        def binary(depth):
            g = LabeledRootedGraph(root=0)
            frontier = [(0, 0)]
            nxt = 1
            while frontier:
                v, d = frontier.pop()
                if d == depth:
                    continue
                for _ in range(2):
                    g.add_edge(v, nxt)
                    frontier.append((nxt, d + 1))
                    nxt += 1
            return g

        c3 = canonicalize(binary(3), 3)
        c2 = canonicalize(binary(2), 2)
        assert truncate(c3, 2) is c2

    def test_truncation_tower(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng.randint(3, 8), rng.randint(0, 3), rng)
            c = canonicalize(g, 5)
            for k in range(6):
                for h in range(k + 1):
                    assert truncate(truncate(c, k), h) is truncate(c, h)


class TestSplitJoin:
    def test_split_single_edge(self):
        g = LabeledRootedGraph([(0, 1)], root=0)
        piece = split_at_edge(g, 0, 1)
        assert piece.root == 1 and len(piece.adj) == 1

    def test_split_path(self):
        g = LabeledRootedGraph([(0, 1), (1, 2)], root=0)
        piece = split_at_edge(g, 1, 2)
        assert sorted(piece.adj) == [2] and piece.root == 2

    def test_split_triangle(self):
        g = LabeledRootedGraph([(0, 1), (1, 2), (2, 0)], root=0)
        piece = split_at_edge(g, 0, 1)
        # removing one triangle edge leaves a path through the other two
        assert sorted(piece.adj) == [0, 1, 2] and piece.root == 1
        assert canonicalize(piece, 2) is canonicalize(
            LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2
        )

    def test_split_missing_edge(self):
        g = LabeledRootedGraph([(0, 1), (1, 2)], root=0)
        with pytest.raises(EdgeAbsentError):
            split_at_edge(g, 0, 2)

    def test_join_two_isolated(self):
        out = join_at_root(star(0, 1), star(0, 0))
        assert out.wire() == "(())"

    def test_join_star_grows(self):
        assert join_at_root(star(1), star(0, 0)) is star(2)

    def test_join_depth2(self):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        out = join_at_root(chain, star(1))
        assert root_degree(out) == 2
        assert out.depth == 2 and _radius(out.rep) == 2

    def test_join_kind_mismatch(self):
        tri = canonicalize(LabeledRootedGraph([(0, 1), (1, 2), (2, 0)], root=0), 1)
        with pytest.raises(KindMismatchError):
            join_at_root(tri, star(0, 0))

    def test_join_split_duality(self):
        rng = random.Random(31)
        for _ in range(30):
            tau = canonicalize(random_tree(rng.randint(1, 6), rng), 3)
            tp = canonicalize(random_tree(rng.randint(1, 4), rng), 2)
            joined = join_at_root(tau, tp)
            g = LabeledRootedGraph(
                [(v, u) for v, nb in enumerate(joined.rep) for u in nb if u > v],
                root=0,
                vertices=range(len(joined.rep)),
            )
            # find a root child whose split realizes tp, then check the
            # complement restores tau's pattern at depth h-1
            found = False
            for v in list(g.adj[0]):
                if canonicalize(split_at_edge(g, 0, v), 2) is tp:
                    rest = canonicalize(split_at_edge(g, v, 0), 2)
                    if rest is truncate(tau, 2):
                        found = True
                        break
            assert found


class TestEdgeTypes:
    def test_h1_counts_degree(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_tree(rng.randint(1, 7), rng)
            c = canonicalize(g, 3)
            dot = star(0, 0)
            assert edge_type_count(c, 1, dot, dot) == root_degree(c)

    def test_two_child_example(self):
        # root with a leaf child and a child that has one grandchild
        g = LabeledRootedGraph([(0, 1), (0, 2), (2, 3)], root=0)
        c = canonicalize(g, 2)
        dot = star(0, 0)
        s1 = star(1)
        assert edge_type_count(c, 2, dot, s1) == 1
        assert edge_type_count(c, 2, s1, s1) == 1
        assert sum(edge_type_table(c, 2).values()) == 2

    def test_zero_degree(self):
        c = star(0, 2)
        assert edge_type_table(c, 2) == {}

    def test_table_sums_to_degree(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_graph(rng.randint(2, 7), rng.randint(0, 3), rng)
            for h in (1, 2, 3):
                c = canonicalize(g, h)
                assert sum(edge_type_table(c, h).values()) == root_degree(c)

    def test_depth_guard(self):
        c = canonicalize(LabeledRootedGraph([(0, 1)], root=0), 1)
        with pytest.raises(ValueError):
            edge_type_table(c, 2)
        assert edge_type_table(declare_depth(c, 2), 2)


class TestCanonicalFromAdjacencyRoot:
    PATH3 = [[1], [0, 2], [1]]

    @pytest.mark.parametrize(
        "adj, root, message",
        [
            (PATH3, -1, "root must be >= 0, got -1"),
            (PATH3, 3, "root must be < 3, got 3"),
            (tuple(PATH3), 3, "root must be < 3, got 3"),
            (PATH3, True, "root must be an int, got True"),
            (PATH3, 1.0, "root must be an int, got 1.0"),
            ({"a": {"b"}, "b": {"a"}}, "c", "root 'c' is not a vertex of adj"),
            ({0: {1}, 1: {0}}, 2, "root 2 is not a vertex of adj"),
        ],
    )
    def test_root_outside_adj_rejected_before_traversal(self, adj, root, message, monkeypatch):
        walked = []
        real = rooted._ball
        monkeypatch.setattr(rooted, "_ball", lambda *a: walked.append(a) or real(*a))
        with pytest.raises(ValueError, match=message):
            canonical_from_adjacency(adj, root, 2)
        with pytest.raises(ValueError, match=message):
            canonical_from_adjacency(adj, root, 2, cut=0)
        assert walked == []

    def test_every_vertex_of_list_and_mapping_accepted(self):
        labels = {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        for v, label in enumerate("abc"):
            want = canonical_from_adjacency(self.PATH3, v, 2)
            assert canonical_from_adjacency(labels, label, 2) is want
            assert canonical_from_adjacency(tuple(self.PATH3), v, 2) is want
