"""Balls with a cycle: the folded canonical form against the whole-ball search.

The reference below is canonical_from_adjacency as it was before pendant
trees were folded: every vertex of a ball that holds a cycle went through
the individualization-refinement search, with its distance to the root as
colour.  The library peels the pendant trees off first, folds their
parenthesis strings into the colour of the core vertex each hangs from,
and searches the core only.  The two encodings differ, but they must
split balls into the same classes; the library's class must not depend
on the labels, and its wire string and representative must read back to
it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp import rooted
from ugwldp.config_model import _simple_sample
from ugwldp.experiments import degree_sequence_for_law
from ugwldp.rooted import (
    GENERAL,
    SimpleGraph,
    _ball,
    _decode_general,
    ball_classes,
    canonical_from_adjacency,
    canonical_labeling,
    parse_class,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


def _tree_paren(adj_sets, root):
    """Recursive parenthesis encoding of a labeled rooted tree."""

    def enc(v, parent):
        subs = sorted(enc(w, v) for w in adj_sets[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return enc(root, None)


def reference_key(adj, root, h, cut=None):
    """The depth-h class of (adj, root) as a key: parentheses, or the search's bytes."""
    dist = _ball(adj, root, h, cut)
    keep = dist.keys()
    sub = {v: {u for u in adj[v] if u in keep} for v in keep}
    if cut in sub:
        sub[root].discard(cut)
        sub[cut].discard(root)
    n = len(keep)
    m = sum(len(nb) for nb in sub.values()) // 2
    if m == n - 1:
        return _tree_paren(sub, root)
    verts = list(keep)
    index = {v: i for i, v in enumerate(verts)}
    arcs = {(index[v], index[u]): 1 for v in verts for u in sub[v]}
    _, order, _ = canonical_labeling(n, [dist[v] for v in verts], arcs)
    layout = [verts[i] for i in order]
    pos = {v: i for i, v in enumerate(layout)}
    bits = 0
    for v in verts:
        for u in sub[v]:
            if pos[v] < pos[u]:
                bits |= 1 << (pos[v] * n + pos[u])
    return n.to_bytes(2, "little") + bits.to_bytes(max((n * n + 7) // 8, 1), "little")


def same_partition(items, key_a, key_b):
    """True when key_a and key_b split the items into the same classes."""
    pairs = {(key_a(x), key_b(x)) for x in items}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


@st.composite
def cored_graphs(draw):
    """A cycle of length 3..6 with up to three chords and trees hung on it.

    Each further vertex hangs from a random earlier one, so leaves are
    often twins.  Returned as a dict of neighbour sets, on shuffled labels.
    """
    ell = draw(st.integers(3, 6))
    edges = {(i, (i + 1) % ell) for i in range(ell)}
    corner = st.integers(0, ell - 1)
    for u, v in draw(st.lists(st.tuples(corner, corner), max_size=3)):
        if u != v:
            edges.add((u, v))
    n = ell + draw(st.integers(0, 12))
    for v in range(ell, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(n)))
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[perm[u]].add(perm[v])
        adj[perm[v]].add(perm[u])
    return adj


def balls(adj):
    """Every root, with no cut and with each root edge cut in turn."""
    return [(adj, r, cut) for r in adj for cut in (None, *sorted(adj[r]))]


@SETTINGS
@given(adj_a=cored_graphs(), adj_b=cored_graphs(), h=st.integers(1, 3), data=st.data())
def test_folded_classes_match_the_whole_ball_search(adj_a, adj_b, h, data):
    assert same_partition(
        balls(adj_a) + balls(adj_b),
        lambda x: canonical_from_adjacency(*x[:2], h, cut=x[2]),
        lambda x: reference_key(*x[:2], h, cut=x[2]),
    )
    perm = data.draw(st.permutations(range(len(adj_a))))
    moved = {perm[v]: {perm[u] for u in nb} for v, nb in adj_a.items()}
    for _, r, cut in balls(adj_a):
        got = canonical_from_adjacency(adj_a, r, h, cut=cut)
        cut_moved = None if cut is None else perm[cut]
        assert canonical_from_adjacency(moved, perm[r], h, cut=cut_moved) is got
        assert parse_class(got.wire(), h) is got
        if got.kind == GENERAL:
            assert _decode_general(got.encoding) == got.rep


def test_hanging_trees_of_one_height_in_every_labeling():
    # A pendant vertex on a triangle's root with two children of height 1
    # that differ: a star with one leaf and a star with two.  Peeling meets
    # them in label order; the fold must not.
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (3, 5), (4, 6), (5, 7), (5, 8)]
    rng = random.Random(2)
    seen = set()
    for _ in range(40):
        perm = list(range(9))
        rng.shuffle(perm)
        adj = {v: set() for v in range(9)}
        for u, v in edges:
            adj[perm[u]].add(perm[v])
            adj[perm[v]].add(perm[u])
        seen.add(canonical_from_adjacency(adj, perm[0], 3))
        assert same_partition(
            balls(adj),
            lambda x: canonical_from_adjacency(*x[:2], 3, cut=x[2]),
            lambda x: reference_key(*x[:2], 3, cut=x[2]),
        )
    assert len(seen) == 1


def test_depth_three_mixed_degree_partition():
    # The sampled graph of the cost measurement: 326 of its 400 depth-3
    # balls hold a cycle, most with pendant trees.
    D = degree_sequence_for_law(
        {2: Fraction(1, 4), 3: Fraction(1, 2), 5: Fraction(1, 4)}, 400
    )
    G, _, _ = _simple_sample(D, 2, random.Random(5))
    adj = G.adjacency()
    classes = ball_classes(adj, 3)
    general = [v for v in range(G.n) if classes[v].kind == GENERAL]
    assert len(general) > 300
    assert same_partition(
        range(G.n), classes.__getitem__, lambda v: reference_key(adj, v, 3)
    )


def test_only_the_core_of_a_triangle_with_pendant_leaves_is_searched(monkeypatch):
    # The 100 leaves on the root are twins; folded, they are one colour.
    k = 100
    edges = [(0, 1), (1, 2), (0, 2)] + [(0, v) for v in range(3, 3 + k)]
    adj = SimpleGraph.from_edges(3 + k, edges).adjacency()
    calls = []
    search = rooted.canonical_labeling

    def counting(n, colors, arcs):
        calls.append(n)
        return search(n, colors, arcs)

    monkeypatch.setattr(rooted, "canonical_labeling", counting)
    got = canonical_from_adjacency(adj, 0, 1)
    assert calls == [3]
    assert got.kind == GENERAL and got.n_vertices == 3 + k
    assert _decode_general(got.encoding) == got.rep
