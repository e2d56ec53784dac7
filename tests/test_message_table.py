"""The vertex-indexed arc table, tree-only classes, and high-degree vertices."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ugwldp.config_model import ColoredMultigraph, degree_sequence_of
from ugwldp.rooted import (
    SimpleGraph,
    _arcs,
    _messages,
    ball_classes,
    canonical_from_adjacency,
    star,
    tree_classes,
)
from ugwldp.tree_encoding import _encoding, is_h_treelike

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def split_classes(adj, k):
    """Depth-k class of both sides of every edge of the vertex-indexed adj.

    Returns a dict (u, v) -> class, read off the depth-k message of
    :func:`_messages` on that arc.  The colored degree sequence of
    tree_encoding is checked against this dict.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    start, to, _, ids, table = _messages(adj, k)
    return {
        (u, to[a]): table[ids[a]]
        for u in range(len(adj))
        for a in range(start[u], start[u + 1])
    }


@st.composite
def graphs(draw, max_n=14):
    """A random forest plus a few extra edges, with vertices in shuffled order."""
    n = draw(st.integers(1, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.add((parent, v))
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=5)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def treelike_graphs(draw):
    """(G, h) with G h-tree-like: trees, and trees hung on cycles longer than 2h + 1."""
    h = draw(st.integers(0, 3))
    edges = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(("tree", "ring")), max_size=3)):
        ring = 0 if kind == "tree" else draw(st.integers(2 * h + 2, 2 * h + 5))
        size = ring + draw(st.integers(1 if kind == "tree" else 0, 6))
        edges += [(n + i, n + (i + 1) % ring) for i in range(ring)]
        for v in range(max(ring, 1), size):
            edges.append((n + draw(st.integers(0, v - 1)), n + v))
        n += size
    return SimpleGraph.from_edges(max(n, 1), edges), h


@SETTINGS
@given(G=graphs())
def test_adjacency_lists_each_edge_once_per_end(G):
    adj = G.adjacency()
    assert len(adj) == G.n
    assert all(len(set(nb)) == len(nb) for nb in adj)
    assert sum(map(len, adj)) == 2 * G.m
    assert {(min(u, w), max(u, w)) for u, nb in enumerate(adj) for w in nb} == G.edges


@SETTINGS
@given(G=graphs())
def test_arc_table(G):
    adj = G.adjacency()
    start, to, back = _arcs(adj)
    assert len(start) == G.n + 1 and start[0] == 0 and start[-1] == len(to) == len(back)
    source = [u for u in range(G.n) for _ in range(start[u], start[u + 1])]
    for a in range(len(to)):
        assert back[a] != a
        assert back[back[a]] == a
        assert to[back[a]] == source[a]
    for u in range(G.n):
        out = to[start[u] : start[u + 1]]
        assert len(out) == len(set(out))
        assert set(out) == set(adj[u])


@SETTINGS
@given(case=treelike_graphs())
def test_tree_classes_are_ball_classes_on_treelike_graphs(case):
    G, h = case
    assert is_h_treelike(G, h)
    adj = G.adjacency()
    got = tree_classes(adj, h)
    want = ball_classes(adj, h)
    assert len(got) == G.n
    assert all(got[v] is want[v] for v in range(G.n))


@SETTINGS
@given(case=treelike_graphs())
def test_degree_sequence_from_the_arc_table_equals_the_split_dict_one(case):
    G, h = case
    assume(h >= 1)
    splits = split_classes(G.adjacency(), h - 1)
    classes = sorted(set(splits.values()), key=lambda c: c.wire())
    index = {c: i + 1 for i, c in enumerate(classes)}
    colored = ColoredMultigraph(len(classes), G.n)
    for u, v in G.edges:
        colored.add_edge((index[splits[(u, v)]], index[splits[(v, u)]]), u, v)
    *_, got_classes, D = _encoding(G, h)
    assert got_classes == tuple(classes)
    assert D == degree_sequence_of(colored)


def test_tree_classes_skip_the_cycle_search():
    # A triangle's depth-1 ball holds a cycle; its unfolding is a 2-star.
    adj = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]).adjacency()
    assert ball_classes(adj, 1)[0] is canonical_from_adjacency(adj, 0, 1)
    assert ball_classes(adj, 1)[0].kind == "general"
    assert tree_classes(adj, 1) == [star(2, 1)] * 3


LEAVES = 5000


def test_star_classes_at_every_depth():
    # A high-degree vertex: one join per distinct message dropped from it.
    adj = SimpleGraph.from_edges(LEAVES + 1, [(0, v) for v in range(1, LEAVES + 1)]).adjacency()
    for h in (1, 2, 3):
        classes = ball_classes(adj, h)
        assert classes[0] is canonical_from_adjacency(adj, 0, h)
        assert classes[LEAVES] is canonical_from_adjacency(adj, LEAVES, h)
        assert classes[1] is classes[LEAVES]
    sides = split_classes(adj, 2)
    assert len(sides) == 2 * LEAVES
    assert sides[(0, 7)] is canonical_from_adjacency(adj, 7, 2, cut=0)
    assert sides[(7, 0)] is canonical_from_adjacency(adj, 0, 2, cut=7)
    assert sides[(7, 0)] is not sides[(0, 7)]
