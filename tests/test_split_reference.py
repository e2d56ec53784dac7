"""Edge splits and tree operations against traversals of labeled copies.

The references below collect the whole component on one side of an edge
by depth-first search and only then truncate it.  The library reads the
same side from one bounded BFS that treats the edge as absent.  Both must
give the identical interned class, the same split graph, and the same
tables built from splits.

On tree classes the library does no traversal at all: a class is the
multiset of its root subtrees, and subtrees, truncations, joins, edge
types and the sampler's carried types are tuple algebra on it.  The
second set of references rebuilds a labeled copy from the representative
and runs the cut BFS on it, as the library used to.  The girth test is
checked against the two BFS loops it replaced and against brute force.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.config_model import Multigraph, has_cycle_leq
from ugwldp.neighborhood import NeighborhoodLaw
from ugwldp.oracle import _has_short_cycle_brute
from ugwldp.rooted import (
    EdgeAbsentError,
    LabeledRootedGraph,
    _short_cycle_at,
    canonical_from_adjacency,
    canonicalize,
    children_subtrees,
    drop_root_child,
    edge_type_table,
    instantiate,
    join_at_root,
    root_sides,
    split_at_edge,
    truncate,
)
from ugwldp.ugw import _assemble, _child_types, _Growth, marginal_ugw

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


def reference_truncate(g, h):
    if h >= g.depth:
        return g
    adj = {i: set(nb) for i, nb in enumerate(g.rep)}
    return canonical_from_adjacency(adj, 0, h)


def reference_join_at_root(tau, t_prime):
    h = tau.depth
    base = instantiate(tau)
    offset = len(tau.rep)
    for v, nb in enumerate(t_prime.rep):
        for u in nb:
            if u > v:
                base.add_edge(v + offset, u + offset)
    base._ensure(offset)
    base.add_edge(0, offset)
    return canonicalize(base, h)


def reference_assemble(chosen, depth):
    g = LabeledRootedGraph(root=0)
    next_id = 1
    for sub, cnt in chosen:
        for _ in range(cnt):
            offset = next_id
            for v, nb in enumerate(sub.rep):
                for u in nb:
                    if u > v:
                        g.add_edge(v + offset, u + offset)
            g._ensure(offset)
            g.add_edge(0, offset)
            next_id += len(sub.rep)
    return canonicalize(g, depth)


def reference_carried_types(tau, back):
    """The sampler's (own, look-back) types, back hung on the root's parent edge."""
    adj = {i: set(nb) for i, nb in enumerate(tau.rep)}
    if back is not None:
        off = len(tau.rep)
        for i, nb in enumerate(back.rep):
            adj[i + off] = {j + off for j in nb}
        adj[0].add(off)
        adj[off].add(0)
    h = tau.depth
    return [
        (
            canonical_from_adjacency(adj, c, h - 1, cut=0),
            canonical_from_adjacency(adj, 0, h - 1, cut=c),
        )
        for c in tau.rep[0]
    ]


def reference_ball_is_tree(adj, root, h):
    parent = {root: None}
    frontier = [root]
    for _ in range(h):
        nxt = []
        for u in frontier:
            p = parent[u]
            for w in adj[u]:
                if w != p:
                    if w in parent:
                        return False
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    for u in frontier:
        p = parent[u]
        for w in adj[u]:
            if w != p and w in parent:
                return False
    return True


def reference_cycle_from(adj, s, h):
    """One source of the old per-source girth loop of has_cycle_leq."""
    limit = h // 2 + 1
    dist = {s: 0}
    parent = {s: None}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            if dist[u] >= limit:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
                elif parent[u] != w:
                    if dist[u] + dist[w] + 1 <= h:
                        return True
        frontier = nxt
    return False


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


def _marginals():
    for P_deg in LAWS:
        P = NeighborhoodLaw.from_degree_law(P_deg)
        for k in (1, 2, 3):
            yield marginal_ugw(P, k)


def _blocks():
    for Q in _marginals():
        yield from Q.support


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
            table = edge_type_table(block, block.depth)
            assert _child_types(table) == reference_child_types(block)


@st.composite
def labeled_trees(draw):
    """A random tree on 1..12 vertices under shuffled labels."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    adj = {v: set() for v in labels}
    for v in range(1, n):
        p = labels[draw(st.integers(0, v - 1))]
        adj[p].add(labels[v])
        adj[labels[v]].add(p)
    return adj


@st.composite
def sparse_graphs(draw):
    """A random tree plus up to three extra edges: long cycles, few of them."""
    adj = draw(labeled_trees())
    vertex = st.sampled_from(sorted(adj))
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@st.composite
def multigraphs(draw, max_n=7):
    """A cycle and a few chords, plus a few extra loops and parallel edges."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    cycle = draw(st.lists(vertex, unique=True, max_size=n))
    pairs = list(zip(cycle, cycle[1:] + cycle[:1])) if len(cycle) >= 3 else []
    pairs += draw(st.sets(st.tuples(vertex, vertex), max_size=6))
    w = {}
    for u, v in pairs:
        if u != v:
            w[(min(u, v), max(u, v))] = 1
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2)):
        key = (min(u, v), max(u, v))
        w[key] = w.get(key, 0) + (2 if u == v else 1)
    return Multigraph(n, w)


class TestTreeAlgebra:
    @SETTINGS
    @given(
        adj=st.one_of(labeled_trees(), graphs().map(lambda case: case[0])),
        data=st.data(),
    )
    def test_truncate_of_a_class_is_the_class_of_the_truncation(self, adj, data):
        root = data.draw(st.sampled_from(sorted(adj)))
        H = data.draw(st.integers(0, 4))
        h = data.draw(st.integers(0, H))
        g = LabeledRootedGraph(
            [(u, v) for u in adj for v in adj[u] if u < v], root=root, vertices=adj
        )
        assert truncate(canonicalize(g, H), h) is canonicalize(g, h)

    def test_every_marginal_block(self):
        blocks = list(_blocks())
        assert len(blocks) > 300
        same_depth = {}
        for block in blocks:
            for h in range(block.depth + 1):
                assert truncate(block, h) is reference_truncate(block, h)
            hung = set(children_subtrees(block))
            hung.add(truncate(block, block.depth - 1))
            for t in hung:
                assert join_at_root(block, t) is reference_join_at_root(block, t)
            other = same_depth.setdefault(block.depth, block)
            chosen = [(block, 1), (other, 2)]
            assert _assemble(chosen, block.depth + 1) is reference_assemble(
                chosen, block.depth + 1
            )

    def test_carried_types_with_a_hung_look_back(self):
        pairs = 0
        for Q in _marginals():
            growth = _Growth(Q)
            support = Q.sorted_items()
            backs = [None] + [truncate(b, Q.depth - 1) for b, _ in support[:6]]
            for block, _ in support:
                for back in backs:
                    want = reference_carried_types(block, back)
                    assert growth.child_types(block, back) == want
                    above = () if back is None else (back,)
                    assert root_sides(block, block.depth, above) == want
                    pairs += 1
        assert pairs > 1000


class TestGirth:
    @SETTINGS
    @given(st.one_of(sparse_graphs(), graphs().map(lambda case: case[0])))
    def test_ball_is_tree_matches_reference(self, adj):
        for v in adj:
            for h in range(5):
                want = not reference_ball_is_tree(adj, v, h)
                assert _short_cycle_at(adj, v, 2 * h + 1) == want, (v, h)

    @SETTINGS
    @given(multigraphs())
    def test_girth_matches_brute_force(self, G):
        # Every bound, so that each graph is also tried at its own girth.
        for g in range(1, 8):
            assert has_cycle_leq(G, g) == _has_short_cycle_brute(G, g), g

    @SETTINGS
    @given(sparse_graphs(), st.integers(1, 9))
    def test_each_source_matches_old_loop(self, adj, g):
        for s in adj:
            assert _short_cycle_at(adj, s, g) == reference_cycle_from(adj, s, g), s

    def test_cycle_with_a_tail(self):
        # The cycle 0..ell-1 with the path ell-1, ell, ell+1 hanging off it.
        for ell in range(3, 10):
            adj = {v: {(v - 1) % ell, (v + 1) % ell} for v in range(ell)}
            adj[ell - 1].add(ell)
            adj[ell] = {ell - 1, ell + 1}
            adj[ell + 1] = {ell}
            G = Multigraph(ell + 2, {(min(u, v), max(u, v)): 1 for u in adj for v in adj[u]})
            for g in range(1, 11):
                assert has_cycle_leq(G, g) == (ell <= g), (ell, g)
                for s in adj:
                    want = reference_cycle_from(adj, s, g)
                    assert _short_cycle_at(adj, s, g) == want, (ell, g, s)
