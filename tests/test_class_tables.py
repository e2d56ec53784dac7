"""Per-class truncations and edge-type tables, and exact weight sums."""

import pickle
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.neighborhood import _sum_by_key
from ugwldp.rooted import (
    TREE,
    LabeledRootedGraph,
    _join,
    canonical_from_adjacency,
    canonicalize,
    edge_type_table,
    root_sides,
    truncate,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def rooted_graphs(draw):
    """(labeled rooted graph, depth): a random tree, sometimes with extra edges."""
    n = draw(st.integers(1, 9))
    g = LabeledRootedGraph(root=0, vertices=range(n))
    for v in range(1, n):
        g.add_edge(v, draw(st.integers(0, v - 1)))
    if n > 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pairs, max_size=3)):
            if u != v:
                g.add_edge(u, v)
    return g, draw(st.integers(1, 4))


def fresh_truncation(g, h):
    if g.kind == TREE:
        return _join(h, g.children)
    return canonical_from_adjacency(g.rep, 0, h)


def fresh_edge_types(g, h):
    if g.kind == TREE:
        return dict(Counter(root_sides(g, h)))
    return dict(
        Counter(
            (
                canonical_from_adjacency(g.rep, v, h - 1, cut=0),
                canonical_from_adjacency(g.rep, 0, h - 1, cut=v),
            )
            for v in g.rep[0]
        )
    )


@SETTINGS
@given(rooted_graphs())
def test_stored_truncations_equal_a_fresh_computation(case):
    graph, depth = case
    g = canonicalize(graph, depth)
    for h in range(depth):
        for _ in range(2):  # the first call stores, the second reads back
            got = truncate(g, h)
            assert got is fresh_truncation(g, h)
            assert got is canonicalize(graph, h)


@SETTINGS
@given(rooted_graphs())
def test_stored_edge_types_equal_a_fresh_computation(case):
    graph, depth = case
    g = canonicalize(graph, depth)
    for h in range(1, depth + 1):
        for _ in range(2):
            assert edge_type_table(g, h) == fresh_edge_types(g, h)


@SETTINGS
@given(rooted_graphs())
def test_mutating_a_returned_table_leaves_the_stored_one(case):
    graph, depth = case
    g = canonicalize(graph, depth)
    want = fresh_edge_types(g, depth)
    table = edge_type_table(g, depth)
    table[(g, g)] = 99
    for key in want:
        table[key] += 1
    assert edge_type_table(g, depth) == want
    edge_type_table(g, depth).clear()
    assert edge_type_table(g, depth) == want


@SETTINGS
@given(rooted_graphs())
def test_pickles_ignore_stored_results(case):
    graph, depth = case
    g = canonicalize(graph, depth)
    before = pickle.dumps(g)
    for h in range(depth):
        truncate(g, h)
    for h in range(1, depth + 1):
        edge_type_table(g, h)
    assert g._edge_types
    after = pickle.dumps(g)
    assert after == before
    assert pickle.loads(after) is g


keys = st.integers(0, 4)
fractions = st.builds(Fraction, st.integers(1, 50), st.integers(1, 40))


def plain_sums(pairs):
    out = {}
    for key, w in pairs:
        out[key] = out.get(key, 0) + w
    return out


@SETTINGS
@given(st.lists(st.tuples(keys, fractions), max_size=30))
def test_exact_sum_equals_the_fraction_sum(pairs):
    got = _sum_by_key(pairs)
    assert list(got) == list(dict.fromkeys(k for k, _ in pairs))
    for key, total in got.items():
        assert type(total) is Fraction
        assert total == sum(w for k, w in pairs if k == key)


@SETTINGS
@given(
    st.lists(
        st.tuples(keys, st.floats(0, 1e6, allow_nan=False) | fractions | st.integers(0, 9)),
        max_size=30,
    )
)
def test_sum_of_other_weights_is_the_in_order_sum(pairs):
    if any(type(w) is not Fraction for _, w in pairs):
        got = _sum_by_key(pairs)
        want = plain_sums(pairs)
        assert list(got) == list(want)
        for key in want:
            assert type(got[key]) is type(want[key])
            assert repr(got[key]) == repr(want[key])


@SETTINGS
@given(st.lists(st.tuples(keys, st.floats(0, 1e6, allow_nan=False)), max_size=30))
def test_float_sum_is_the_in_order_float_sum(pairs):
    got = _sum_by_key(pairs)
    for key, total in got.items():
        assert total.hex() == float(sum(w for k, w in pairs if k == key)).hex()
