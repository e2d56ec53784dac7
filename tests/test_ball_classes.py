"""Classes from the edge-message table against one canonicalization per ball."""

from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ugwldp.neighborhood import NeighborhoodLaw, empirical_distribution
from ugwldp.rooted import SimpleGraph, ball_classes, canonical_from_adjacency
from ugwldp.tree_encoding import encode, is_h_treelike

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def graphs(draw, max_n=12):
    """A random forest plus a few extra edges: balls with and without cycles."""
    n = draw(st.integers(1, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.add((parent, v))
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=4)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return SimpleGraph.from_edges(n, edges)


@SETTINGS
@given(G=graphs(), h=st.integers(0, 4))
def test_message_class_is_ball_class(G, h):
    adj = G.adjacency()
    got = ball_classes(adj, h)
    assert set(got) == set(range(G.n))
    for v in range(G.n):
        assert got[v] is canonical_from_adjacency(adj, v, h)


@SETTINGS
@given(G=graphs(), h=st.integers(0, 4))
def test_empirical_distribution_is_per_vertex_law(G, h):
    adj = G.adjacency()
    counts = Counter(canonical_from_adjacency(adj, v, h) for v in range(G.n))
    want = NeighborhoodLaw(h, {c: Fraction(k, G.n) for c, k in counts.items()})
    assert empirical_distribution(G, h) == want


@SETTINGS
@given(G=graphs(), h=st.integers(1, 4))
def test_encode_splits_are_cut_classes(G, h):
    assume(is_h_treelike(G, h))
    adj = G.adjacency()
    colored, ctx, _ = encode(G, h)
    seen = set()
    for ((i, j), u, v), m in colored.w.items():
        assert m == 1
        # color (i, j) on (u, v): v's side of the edge, then u's side
        assert ctx.classes[i - 1] is canonical_from_adjacency(adj, v, h - 1, cut=u)
        assert ctx.classes[j - 1] is canonical_from_adjacency(adj, u, h - 1, cut=v)
        seen.add((min(u, v), max(u, v)))
    assert seen == set(G.edges)
