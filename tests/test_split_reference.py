"""Edge splits through the cut ball traversal against whole-component DFS.

The references below collect the whole component on one side of an edge
by depth-first search and only then truncate it.  The library reads the
same side from one bounded BFS that treats the edge as absent.  Both must
give the identical interned class, the same split graph, and the same
tables built from splits.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.neighborhood import NeighborhoodLaw
from ugwldp.rooted import (
    EdgeAbsentError,
    LabeledRootedGraph,
    canonical_from_adjacency,
    children_subtrees,
    drop_root_child,
    edge_type_table,
    split_at_edge,
    truncate,
)
from ugwldp.ugw import _child_types, marginal_ugw

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def reference_subtree_vertices(adj, parent, child):
    """The component of child in adj minus the edge {parent, child}."""
    keep = {child}
    stack = [child]
    while stack:
        x = stack.pop()
        for w in adj[x]:
            if (x, w) in ((parent, child), (child, parent)):
                continue
            if w not in keep:
                keep.add(w)
                stack.append(w)
    return keep


def reference_split_class(adj, a, b, h):
    """Depth-h class of the component of b in adj minus the edge {a, b}."""
    keep = reference_subtree_vertices(adj, a, b)
    sub = {
        x: {w for w in adj[x] if w in keep and (x, w) not in ((a, b), (b, a))}
        for x in keep
    }
    return canonical_from_adjacency(sub, b, h)


def reference_split_at_edge(g, u, v):
    if not g.has_edge(u, v):
        raise EdgeAbsentError(f"{{{u}, {v}}} is not an edge")
    keep = reference_subtree_vertices(g.adj, u, v)
    out = LabeledRootedGraph(root=v, vertices=keep)
    for x in keep:
        for w in g.adj[x]:
            if w in keep and x < w and (x, w) not in ((u, v), (v, u)):
                out.add_edge(x, w)
    return out


def reference_drop_root_child(g, subtree):
    adj = {i: set(nb) for i, nb in enumerate(g.rep)}
    for v in g.rep[0]:
        if reference_split_class(adj, 0, v, g.depth - 1) is subtree:
            keep = set(adj) - reference_subtree_vertices(adj, 0, v)
            sub = {x: {w for w in adj[x] if w in keep} for x in keep}
            return canonical_from_adjacency(sub, 0, g.depth)
    raise ValueError("no root child carries the requested subtree")


def reference_edge_type_table(g, h):
    adj = {i: set(nb) for i, nb in enumerate(g.rep)}
    out = Counter()
    for v in g.rep[0]:
        out[
            (reference_split_class(adj, 0, v, h - 1), reference_split_class(adj, v, 0, h - 1))
        ] += 1
    return dict(out)


def reference_child_types(block):
    adj = {i: set(nb) for i, nb in enumerate(block.rep)}
    subs = [reference_split_class(adj, 0, v, block.depth - 1) for v in block.rep[0]]
    out = []
    for s, n_a in sorted(Counter(subs).items(), key=lambda kv: kv[0].wire()):
        rest = reference_drop_root_child(block, s)
        out.append((s, truncate(rest, block.depth - 1), n_a))
    return out


@st.composite
def graphs(draw):
    """A random simple graph on 2..10 vertices, cycles allowed, and a depth."""
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj, draw(st.integers(0, 4))


class TestCutBall:
    @SETTINGS
    @given(graphs())
    def test_cut_class_is_reference_class(self, case):
        adj, h = case
        for a in adj:
            for b in adj[a]:
                want = reference_split_class(adj, a, b, h)
                assert canonical_from_adjacency(adj, b, h, cut=a) is want, (a, b)

    @SETTINGS
    @given(graphs())
    def test_split_at_edge_matches_reference(self, case):
        adj, _ = case
        g = LabeledRootedGraph(
            [(u, v) for u in adj for v in adj[u] if u < v], vertices=adj
        )
        for u in adj:
            for v in adj[u]:
                got = split_at_edge(g, u, v)
                want = reference_split_at_edge(g, u, v)
                assert got.root == want.root == v
                assert set(got.adj) == set(want.adj)
                assert sorted(got.edges()) == sorted(want.edges())

    def test_non_adjacent_cut_raises(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        with pytest.raises(EdgeAbsentError):
            canonical_from_adjacency(adj, 0, 2, cut=2)
        with pytest.raises(EdgeAbsentError):
            canonical_from_adjacency(adj, 0, 2, cut=0)

    def test_reads_only_the_ball(self):
        # A long path through 50, 51, 52, 53, 54 with a leaf 200 on 51,
        # split at the edge {50, 51}.  The adjacency holds only the vertices
        # within distance 2 of 51 on its side, while still naming 50 and 54.
        adj = {51: {50, 52, 200}, 52: {51, 53}, 53: {52, 54}, 200: {51}}
        got = canonical_from_adjacency(adj, 51, 2, cut=50)
        want = canonical_from_adjacency(
            {0: {1, 3}, 1: {0, 2}, 2: {1}, 3: {0}}, 0, 2
        )
        assert got is want
        with pytest.raises(KeyError):
            reference_split_class(adj, 50, 51, 2)


LAWS = (
    {3: Fraction(1)},
    {1: Fraction(1, 2), 2: Fraction(1, 2)},
    {1: Fraction(1, 3), 3: Fraction(2, 3)},
    {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 4)},
)


def _blocks():
    for P_deg in LAWS:
        P = NeighborhoodLaw.from_degree_law(P_deg)
        for k in (1, 2, 3):
            yield from marginal_ugw(P, k).support


class TestTreeSplits:
    def test_every_marginal_block(self):
        blocks = list(_blocks())
        assert len(blocks) > 300
        for block in blocks:
            adj = {i: set(nb) for i, nb in enumerate(block.rep)}
            want_subs = [
                reference_split_class(adj, 0, v, block.depth - 1) for v in block.rep[0]
            ]
            got_subs = children_subtrees(block)
            assert len(got_subs) == len(want_subs)
            assert all(g is w for g, w in zip(got_subs, want_subs))
            for s in set(want_subs):
                assert drop_root_child(block, s) is reference_drop_root_child(block, s)
            for h in range(1, block.depth + 1):
                assert edge_type_table(block, h) == reference_edge_type_table(block, h)
            assert _child_types(block) == reference_child_types(block)
