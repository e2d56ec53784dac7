"""The short-cycle search from each cycle's least vertex against the per-vertex girth rule.

ball_classes and _has_short_cycle find the short cycles once, by a BFS
from each 2-core vertex over the vertices above it
(_least_cycle_vertices).  Every vertex whose per-vertex rule
(_short_cycle_at at 2h + 1) sees a cycle must lie within distance h of a
vertex that search yields, and both answers must be those of the
per-vertex rule at every vertex, not only on the 2-core.  The search
depends on the vertex labels, so relabeling must change nothing.  One
girth BFS serves the search and the exact test, each pass on a stamp pair
of its own, so no stamp left by one pass may read as a cycle in the other.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_near_core import core_graphs
from test_split_reference import reference_cycle_from, sparse_graphs
from ugwldp import rooted
from ugwldp.config_model import DegreeSequence, _simple_sample
from ugwldp.rooted import (
    GENERAL,
    TREE,
    SimpleGraph,
    _ball,
    _has_short_cycle,
    _least_cycle_vertices,
    _short_cycle_at,
    ball_classes,
    canonical_from_adjacency,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def cubic(n, seed):
    """A simple 3-regular graph on n vertices, drawn by the pairing sampler."""
    G, _, _ = _simple_sample(DegreeSequence.single_color([3] * n), 2, random.Random(seed))
    return G


def relabel(G, perm):
    return SimpleGraph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def assert_matches_every_vertex(adj, h):
    """ball_classes, _has_short_cycle and the least vertices against the per-vertex rule."""
    g = 2 * h + 1
    cyclic = {v for v in range(len(adj)) if _short_cycle_at(adj, v, g)}
    least = set(_least_cycle_vertices(adj, g))
    near = set()
    for x in least:
        near |= _ball(adj, x, h).keys()
    assert cyclic <= near
    assert _has_short_cycle(adj, g) == bool(cyclic) == bool(least)
    classes = ball_classes(adj, h)
    assert list(classes) == list(range(len(adj)))
    for v in range(len(adj)):
        assert classes[v] is canonical_from_adjacency(adj, v, h)
        assert (classes[v].kind == GENERAL) == (v in cyclic)


@st.composite
def cycle_graphs(draw):
    """(G, h): cycles of length 2h + 1 and 2h + 2, paths and trees hung on them, labels shuffled."""
    h = draw(st.integers(0, 4))
    edges = []
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(st.sampled_from((0, 2 * h + 1, 2 * h + 2, 3, 4)))
        ring = ring if ring >= 3 else 0
        size = ring + draw(st.integers(0 if ring else 1, 6))
        edges += [(n + i, n + (i + 1) % ring) for i in range(ring)]
        for v in range(max(ring, 1), size):
            edges.append((n + draw(st.integers(0, v - 1)), n + v))
        n += size
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]), h


@SETTINGS
@given(Gh=cycle_graphs())
def test_least_vertex_search_matches_every_vertex(Gh):
    G, h = Gh
    assert_matches_every_vertex(G.adjacency(), h)


@SETTINGS
@given(seed=st.integers(0, 10**6), n=st.sampled_from((4, 10, 24, 60)), h=st.integers(0, 4))
def test_cubic_pairings_match_every_vertex(seed, n, h):
    assert_matches_every_vertex(cubic(n, seed).adjacency(), h)


@SETTINGS
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from((10, 24, 60)),
    h=st.integers(0, 4),
    data=st.data(),
)
def test_relabeling_maps_classes_and_keeps_the_girth_answer(seed, n, h, data):
    G = cubic(n, seed)
    perm = data.draw(st.permutations(range(n)))
    H = relabel(G, perm)
    got, want = ball_classes(H.adjacency(), h), ball_classes(G.adjacency(), h)
    assert all(got[perm[v]] is want[v] for v in range(n))
    for g in range(3, 2 * h + 2):
        assert _has_short_cycle(H.adjacency(), g) == _has_short_cycle(G.adjacency(), g)


@pytest.mark.parametrize("h", range(5))
def test_cycle_of_length_2h_plus_1_is_caught_and_2h_plus_2_is_a_tree_ball(h):
    for length, kind in ((2 * h + 1, GENERAL), (2 * h + 2, TREE)):
        if length < 3:
            continue
        for seed in range(5):
            perm = list(range(length))
            random.Random(seed).shuffle(perm)
            G = SimpleGraph.from_edges(
                length, [(perm[i], perm[(i + 1) % length]) for i in range(length)]
            )
            adj = G.adjacency()
            assert _has_short_cycle(adj, 2 * h + 1) == (kind == GENERAL)
            classes = ball_classes(adj, h)
            assert {c.kind for c in classes.values()} == {kind}
            assert_matches_every_vertex(adj, h)


@pytest.mark.parametrize("h", range(1, 5))
def test_least_vertex_at_distance_h_from_the_root(h):
    """The root's ball holds a short cycle whose least vertex is as far as it can be.

    The root r is the largest label.  A path of h - 1 edges leads from r
    to a triangle {a, b, c} with a on the path; b and c are at distance h
    from r, and c is the least vertex of the graph.  Second, an odd cycle
    of length 2h + 1 through r, whose least vertex is opposite r.
    """
    # path r = p_0, ..., p_{h-1} = a, triangle a, b, c: ids c = 0, b = 1, then the path
    path = list(range(h + 1, 1, -1))  # p_0 = h + 1 (largest) down to p_{h-1} = 2
    edges = list(zip(path, path[1:])) + [(path[-1], 1), (1, 0), (0, path[-1])]
    adj = SimpleGraph.from_edges(h + 2, edges).adjacency()
    root = path[0]
    assert _ball(adj, root, h)[0] == h
    assert list(_least_cycle_vertices(adj, 3)) == [0]
    assert ball_classes(adj, h)[root].kind == GENERAL
    assert_matches_every_vertex(adj, h)

    length = 2 * h + 1
    ring = [length - 1 - i for i in range(length)]  # ring[0] is the largest id
    ring[h], ring[length - 1] = ring[length - 1], ring[h]  # 0 opposite ring[0]
    adj = SimpleGraph.from_edges(
        length, [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    ).adjacency()
    assert _ball(adj, ring[0], h)[0] == h
    assert list(_least_cycle_vertices(adj, length)) == [0]
    assert ball_classes(adj, h)[ring[0]].kind == GENERAL
    assert_matches_every_vertex(adj, h)


@SETTINGS
@given(
    adj=st.one_of(sparse_graphs(), core_graphs().map(SimpleGraph.adjacency)),
    g=st.integers(1, 8),
    data=st.data(),
)
def test_one_stamp_pair_serves_a_pass_of_roots(adj, g, data):
    """The girth BFS on one stamp pair per pass, roots in any order, against the reference.

    Without a floor it is the per-vertex rule; with the floor x it is the
    rule on the subgraph induced by the vertices >= x.  Each pass has its
    own pair, as ball_classes and _least_cycle_vertices have.
    """
    n = len(adj)
    order = data.draw(st.permutations(range(n)))
    seen, parent = [-1] * n, [-1] * n
    for v in order:
        assert _short_cycle_at(adj, v, g, -1, seen, parent) == reference_cycle_from(adj, v, g)
    seen, parent = [-1] * n, [-1] * n
    for x in order:
        above = {v: [w for w in adj[v] if w >= x] for v in range(x, n)}
        want = reference_cycle_from(above, x, g)
        assert _short_cycle_at(adj, x, g, x, seen, parent) == want, x


def count_short_cycle_at(monkeypatch):
    """Record (x, answer) of each exact test, the calls with no floor (above < 0)."""
    calls = []
    inner = rooted._short_cycle_at

    def counting(adj, x, g, above=-1, seen=None, parent=None):
        got = inner(adj, x, g, above, seen, parent)
        if above < 0:
            calls.append((x, got))
        return got

    monkeypatch.setattr(rooted, "_short_cycle_at", counting)
    return calls


@pytest.mark.parametrize("seed", [2901, 2902, 2903])
def test_cubic_ball_classes_test_few_vertices(monkeypatch, seed):
    n = 3200
    adj = cubic(n, seed).adjacency()
    calls = count_short_cycle_at(monkeypatch)
    classes = ball_classes(adj, 2)
    assert 0 < len(calls) < n / 10
    cyclic = {v for v, c in classes.items() if c.kind == GENERAL}
    # the exact test answers True exactly where the ball is cyclic
    assert {x for x, got in calls if got} == cyclic


@pytest.mark.parametrize("seed", [2911, 2912, 2913])
def test_pendant_trees_keep_no_stamp_for_the_exact_test(monkeypatch, seed):
    # the least-vertex search stamps pendant vertices that no later root
    # restamps; an exact test on that stamp pair would answer True there
    D = DegreeSequence.single_color([1, 2, 3, 3] * 200)
    adj = _simple_sample(D, 2, random.Random(seed))[0].adjacency()
    calls = count_short_cycle_at(monkeypatch)
    classes = ball_classes(adj, 2)
    cyclic = {v for v, c in classes.items() if c.kind == GENERAL}
    assert cyclic and len(rooted._two_core(adj)) < len(adj)
    assert {x for x, got in calls if got} == cyclic


def test_forest_ball_classes_test_no_vertex(monkeypatch):
    rng = random.Random(29)
    n = 500
    G = SimpleGraph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n) if v % 7])
    calls = count_short_cycle_at(monkeypatch)
    for h in range(4):
        ball_classes(G.adjacency(), h)
    assert calls == []
