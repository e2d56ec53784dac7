"""Girth tests near the 2-core: ball classes and short-cycle tests stay exact."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.config_model import Multigraph, has_cycle_leq
from ugwldp.rooted import (
    SimpleGraph,
    _has_short_cycle,
    _short_cycle_at,
    _two_core,
    _within,
    ball_classes,
    canonical_from_adjacency,
)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def core_graphs(draw):
    """Disjoint pieces: trees, short cycles, and trees hung on triangles and 4-cycles."""
    edges = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(("tree", "cycle", "hung")), max_size=4)):
        ring = 0 if kind == "tree" else draw(st.integers(3, 6 if kind == "cycle" else 4))
        size = ring + draw(st.integers(1 if kind == "tree" else 0, 7))
        edges += [(n + i, n + (i + 1) % ring) for i in range(ring)]
        for v in range(max(ring, 1), size):
            edges.append((n + draw(st.integers(0, v - 1)), n + v))
        n += size
    return SimpleGraph.from_edges(max(n, 1), edges)


def from_simple(G):
    """The simple graph G as a Multigraph of weight-1 edges."""
    return Multigraph(G.n, {(u, v): 1 for u, v in G.edges})


def _core_by_definition(adj):
    """The 2-core by definition: drop vertices with <= 1 kept neighbour until none is left."""
    keep = set(range(len(adj)))
    while True:
        low = {v for v in keep if sum(w in keep for w in adj[v]) <= 1}
        if not low:
            return keep
        keep -= low


@SETTINGS
@given(G=core_graphs(), h=st.integers(0, 3))
def test_ball_class_is_canonical_class(G, h):
    adj = G.adjacency()
    got = ball_classes(adj, h)
    assert set(got) == set(range(G.n))
    for v in range(G.n):
        assert got[v] is canonical_from_adjacency(adj, v, h)


@SETTINGS
@given(G=core_graphs(), h=st.integers(0, 3))
def test_near_core_is_the_ball_of_the_core(G, h):
    adj = G.adjacency()
    core = _core_by_definition(adj)
    assert _two_core(adj) == core
    dist = {v: 0 for v in core}
    frontier = list(core)
    for d in range(1, h + 1):
        frontier = [w for v in frontier for w in adj[v] if w not in dist]
        dist.update(dict.fromkeys(frontier, d))
    assert _within(adj, set(core), h) == set(dist)
    # a cyclic ball lies within distance h of the core
    for v in set(range(len(adj))) - set(dist):
        assert not _short_cycle_at(adj, v, 2 * h + 1)


@SETTINGS
@given(G=core_graphs(), g=st.integers(3, 8))
def test_core_girth_test_matches_every_vertex(G, g):
    adj = G.adjacency()
    want = any(_short_cycle_at(adj, v, g) for v in range(len(adj)))
    assert _has_short_cycle(adj, g) == want
    assert has_cycle_leq(from_simple(G), g) == want


def test_pendant_paths_on_a_triangle():
    tail = [(2, 3), (3, 4), (4, 5), (5, 6)]
    G = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (2, 0)] + tail)
    adj = G.adjacency()
    assert _two_core(adj) == {0, 1, 2}
    assert _within(adj, _two_core(adj), 2) == {0, 1, 2, 3, 4}
    for h in range(4):
        classes = ball_classes(adj, h)
        for v in range(7):
            assert classes[v] is canonical_from_adjacency(adj, v, h)
