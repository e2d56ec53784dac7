"""The message pass against its per-round reference.

The reference below is the library's message pass as it was before the
first round was read off the degrees: every round, depth 1 included,
sorts the ids into each vertex, joins once per distinct key and per
distinct dropped message, and numbers the messages in order of first
join.  Both must give the same ids and the same table, in the same order
and with the same class objects, so every class and payload read from
them is unchanged.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.rooted import SimpleGraph, _arcs, _join, _messages, _tree_class

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def reference_messages(adj, k):
    """Depth-k messages of every arc, (start, to, back, ids, table), one join loop per round."""
    start, to, back = _arcs(adj)
    table = [_tree_class(0, "()")]
    ids = [0] * len(to)
    for depth in range(1, k + 1):
        drops = {}
        index = {}
        new = [0] * len(to)
        for v in range(len(adj)):
            lo, hi = start[v], start[v + 1]
            key = tuple(sorted(ids[lo:hi]))
            drop = drops.get(key)
            if drop is None:
                drop = drops[key] = {}
                kids = [table[i] for i in key]
                for p, i in enumerate(key):
                    if i not in drop:
                        c = _join(depth, kids[:p] + kids[p + 1 :])
                        drop[i] = index.setdefault(c, len(index))
            for a in range(lo, hi):
                new[back[a]] = drop[ids[a]]
        table = list(index)
        ids = new
    return start, to, back, ids, table


def assert_same_messages(adj, k):
    start, to, back, ids, table = _messages(adj, k)
    r_start, r_to, r_back, r_ids, r_table = reference_messages(adj, k)
    assert (start, to, back) == (r_start, r_to, r_back)
    assert ids == r_ids
    assert len(table) == len(r_table)
    assert all(c is r for c, r in zip(table, r_table))


@st.composite
def graphs(draw, max_n=16):
    """Isolated vertices, leaves and a hub of degree >= 5, in shuffled order.

    A star with 5 to 8 leaves is drawn first, then a random forest on the
    rest with some vertices left isolated, then a few extra edges.
    """
    hub = draw(st.integers(5, 8))
    n = hub + 1 + draw(st.integers(0, max_n - hub - 1))
    edges = {(0, v) for v in range(1, hub + 1)}
    for v in range(hub + 1, n):
        parent = draw(st.integers(-2, v - 1))
        if parent >= 0:
            edges.add((parent, v))
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=5)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@SETTINGS
@given(G=graphs(), k=st.integers(0, 3))
def test_messages_match_the_reference(G, k):
    assert_same_messages(G.adjacency(), k)


def test_isolated_vertices_leaves_and_a_hub():
    # 0 is isolated, 1 a hub of degree 6, 2..5 its leaves, 6-7-8 a path off
    # it, 9 isolated, and 10-11-12 a triangle off the path.
    edges = [(1, v) for v in (2, 3, 4, 5, 6, 10)] + [(6, 7), (7, 8), (8, 10), (10, 11), (11, 12), (12, 10)]
    adj = SimpleGraph.from_edges(13, edges).adjacency()
    for k in range(4):
        assert_same_messages(adj, k)


def test_graphs_without_arcs():
    for n in (0, 1, 4):
        for k in range(4):
            assert_same_messages([[] for _ in range(n)], k)


def test_random_multi_degree_graphs():
    rng = random.Random(2903)
    for n in (30, 200):
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
        adj = SimpleGraph.from_edges(n, edges).adjacency()
        assert max(map(len, adj)) >= 5 and min(map(len, adj)) <= 1
        for k in range(4):
            assert_same_messages(adj, k)
