"""Tree balls through the peel: a tree is a ball whose core is the root alone.

canonical_from_adjacency peels non-root leaves off every ball and builds
each peeled tree's parenthesis string on the way; when only the root is
left, the root's string is the class.  The reference below is the
recursive encoding the library used for trees before: the strings must be
equal, so every tree class, wire string and digest stays the same.  Balls
and wire strings far deeper than the interpreter's recursion limit must
canonicalize and read back.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp import rooted
from ugwldp.rooted import (
    GENERAL,
    TREE,
    LabeledRootedGraph,
    _parse_paren,
    canonical_from_adjacency,
    canonicalize,
    parse_class,
    truncate,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

DEEP = 1100


def reference_paren(adj, root, h, cut=None):
    """Recursive parenthesis string of the depth-h tree ball, {root, cut} removed."""

    def enc(v, parent, depth):
        if depth == h:
            return "()"
        subs = sorted(
            enc(w, v, depth + 1)
            for w in adj[v]
            if w != parent and not (v == root and w == cut)
        )
        return "(" + "".join(subs) + ")"

    return enc(root, None, 0)


@st.composite
def trees(draw):
    """A random tree on 1..20 vertices as a dict of neighbour sets, shuffled labels."""
    n = draw(st.integers(1, 20))
    perm = draw(st.permutations(range(n)))
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[perm[u]].add(perm[v])
        adj[perm[v]].add(perm[u])
    return adj


def balls(adj):
    """Every root, with no cut and with each root edge cut in turn."""
    return [(r, cut) for r in adj for cut in (None, *sorted(adj[r]))]


@SETTINGS
@given(adj=trees(), h=st.integers(0, 6), data=st.data())
def test_tree_classes_are_the_recursive_strings(adj, h, data):
    perm = data.draw(st.permutations(range(len(adj))))
    moved = {perm[v]: {perm[u] for u in nb} for v, nb in adj.items()}
    for r, cut in balls(adj):
        got = canonical_from_adjacency(adj, r, h, cut=cut)
        assert got.kind == TREE and got.depth == h
        assert got.encoding == reference_paren(adj, r, h, cut)
        cut_moved = None if cut is None else perm[cut]
        assert canonical_from_adjacency(moved, perm[r], h, cut=cut_moved) is got
        assert parse_class(got.wire(), h) is got


def test_a_tree_ball_is_never_searched(monkeypatch):
    def refuse(n, colors, arcs):
        raise AssertionError("a tree ball went through canonical_labeling")

    monkeypatch.setattr(rooted, "canonical_labeling", refuse)
    adj = {0: {1, 2}, 1: {0, 3, 4}, 2: {0}, 3: {1}, 4: {1}}
    for r in adj:
        assert canonical_from_adjacency(adj, r, 3).kind == TREE


def path(n):
    return [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]


def test_deep_path_ball():
    assert DEEP > sys.getrecursionlimit()
    adj = path(1300)
    got = canonical_from_adjacency(adj, 0, DEEP)
    assert got.kind == TREE and got.n_vertices == DEEP + 1
    assert got.encoding == "(" * (DEEP + 1) + ")" * (DEEP + 1)
    assert parse_class(got.wire(), DEEP) is got
    g = LabeledRootedGraph(edges=[(v, v + 1) for v in range(1299)], root=1299)
    assert canonicalize(g, DEEP) is got


def triangle_with_pendant_path(k):
    """Vertices 0, 1, 2 form a triangle; the path 3, ..., k + 2 hangs from 0."""
    adj = path(k + 3)
    adj[0] = [1, 2, 3]
    adj[1] = [0, 2]
    adj[2] = [0, 1]
    adj[3] = [0, 4] if k > 1 else [0]
    return adj


@pytest.mark.parametrize(
    "root, kind, size",
    [(0, GENERAL, DEEP + 3), (DEEP + 2, TREE, DEEP + 1)],
    ids=["on-the-triangle", "at-the-path-end"],
)
def test_deep_pendant_path_on_a_triangle(root, kind, size):
    # From the far end of the path, the depth-DEEP ball stops at vertex 0:
    # a tree.  From 0 it holds the triangle and the whole path.
    adj = triangle_with_pendant_path(DEEP)
    got = canonical_from_adjacency(adj, root, DEEP)
    assert got.kind == kind and got.n_vertices == size
    assert parse_class(got.wire(), DEEP) is got


def test_deep_wire_string():
    wire = "(" * 1000 + ")" * 1000
    got = parse_class(wire)
    assert got.kind == TREE and got.depth == 999 and got.encoding == wire
    assert parse_class(wire, 1000).depth == 1000


def test_deep_truncation():
    # the subtrees are truncated off a stack, bottom up, so no call recurses
    deep = parse_class("(" * 1000 + ")" * 1000)
    assert deep.depth == 999 > 500
    got = truncate(deep, 500)
    assert got.depth == 500 and got.encoding == "(" * 501 + ")" * 501
    assert deep._truncations[500] is got and truncate(deep, 500) is got
    # each level below keeps its own truncation, as the recursive joins did
    child = deep.children[0]
    assert child._truncations[499] is got.children[0]


@SETTINGS
@given(adj=trees(), h=st.integers(0, 6))
def test_truncating_a_tree_class_is_canonicalizing_the_smaller_ball(adj, h):
    for r in adj:
        full = canonical_from_adjacency(adj, r, len(adj))
        for k in range(h + 1):
            want = canonical_from_adjacency(adj, r, k)
            assert truncate(full, k) is (want if k < full.depth else full)


@pytest.mark.parametrize("text", ["", "x", "(", ")(", "(x)", "(()", "(()]"])
def test_bad_tree_encoding(text):
    with pytest.raises(ValueError, match="bad tree encoding"):
        _parse_paren(text)


@pytest.mark.parametrize("text", ["())", "()()", "()x", "(())("])
def test_trailing_characters(text):
    with pytest.raises(ValueError, match="trailing characters"):
        _parse_paren(text)


def test_parsed_neighbours_are_sorted_and_rooted_at_zero():
    assert _parse_paren("(()(()))") == ((1, 2), (0,), (0, 3), (2,))
