"""The UGW tree sampler against a straightforward reference.

The reference below grows the tree by re-splitting it: for every frontier
vertex it finds the parent by a root BFS, recomputes both edge types from
two split copies of the partial tree, and grafts the drawn block in place
of the old subtree.  The library sampler carries the types forward
instead.  Both must draw the same blocks in the same order, so they leave
the random generator in the same state and return isomorphic trees.
"""

import json
import pickle
import random
from fractions import Fraction

import pytest

from ugwldp.neighborhood import (
    NeighborhoodLaw,
    edge_intensity_table,
    empirical_distribution,
    is_admissible,
    poisson_law,
)
from ugwldp.rooted import (
    LabeledRootedGraph,
    SimpleGraph,
    canonicalize,
    instantiate,
    isolated_root,
    split_at_edge,
)
from ugwldp.ugw import marginal_ugw, sample_ugw, typed_branching_law


def _draw(items, rng):
    total = float(sum(w for _, w in items))
    x = rng.random() * total
    acc = 0.0
    for item, w in items:
        acc += float(w)
        if x < acc:
            return item
    return items[-1][0]


def _parent_of(tree, v):
    seen = {tree.root: None}
    stack = [tree.root]
    while stack:
        x = stack.pop()
        for w in tree.adj[x]:
            if w not in seen:
                seen[w] = x
                stack.append(w)
    return seen[v]


def _collect_subtree(tree, parent, v):
    keep = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in tree.adj[x]:
            if (x, w) in ((parent, v), (v, parent)):
                continue
            if w not in keep:
                keep.add(w)
                stack.append(w)
    return keep


def _graft(tree, v, new_sub):
    parent = _parent_of(tree, v)
    old = _collect_subtree(tree, parent, v)
    old.discard(v)
    for x in old:
        for w in list(tree.adj[x]):
            tree.adj[w].discard(x)
        del tree.adj[x]
    tree.adj[v] = {parent}
    base = max(tree.adj) + 1
    rep = new_sub.rep
    ids = {0: v}
    for i in range(1, len(rep)):
        ids[i] = base + i - 1
    for i, nb in enumerate(rep):
        for j in nb:
            if j > i:
                tree.add_edge(ids[i], ids[j])


def _depths(tree):
    out = {tree.root: 0}
    frontier = [tree.root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in tree.adj[u]:
                if w not in out:
                    out[w] = d
                    nxt.append(w)
        frontier = nxt
    return out


def reference_sample_ugw(P, k, rng):
    """Re-splitting sampler: both edge types recomputed from the partial tree."""
    h = P.depth
    if k < h:
        raise ValueError(f"output depth {k} below law depth {h}")
    if not is_admissible(P):
        raise ValueError("sampling requires an admissible law")
    branching = typed_branching_law(P)
    block = _draw(P.sorted_items(), rng)
    tree = instantiate(block)
    depths = _depths(tree)
    for r in range(1, k - h + 1):
        frontier = [v for v, d in depths.items() if d == r]
        for v in sorted(frontier):
            parent = _parent_of(tree, v)
            own = canonicalize(split_at_edge(tree, parent, v), h - 1)
            back = canonicalize(split_at_edge(tree, v, parent), h - 1)
            law = branching.law(own, back)
            _graft(tree, v, _draw(law.sorted_items(), rng))
        depths = _depths(tree)
    return tree


def _path(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


F = Fraction
DEGREE_LAWS = (
    {2: F(1)},
    {1: F(1, 2), 2: F(1, 2)},
    {1: F(1, 3), 3: F(2, 3)},
    {0: F(1, 4), 2: F(3, 4)},
    {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)},
)
# Unimodular laws that are not Galton-Watson: uniform roots of finite trees.
FINITE_TREES = (
    _path(6),
    SimpleGraph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6)]),
    SimpleGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6), (2, 7)]),
)
SEEDS = range(30)


def rational_laws():
    for deg in DEGREE_LAWS:
        base = NeighborhoodLaw.from_degree_law(deg)
        name = ",".join(f"{k}:{p}" for k, p in sorted(deg.items()))
        for h in (1, 2, 3):
            yield f"deg{name}-h{h}", marginal_ugw(base, h)
    for i, G in enumerate(FINITE_TREES):
        for h in (1, 2, 3):
            yield f"tree{i}-h{h}", empirical_distribution(G, h)


def _compare(P, k, seeds):
    for seed in seeds:
        rng_lib = random.Random(seed)
        rng_ref = random.Random(seed)
        for _ in range(3):
            got = sample_ugw(P, k, rng_lib)
            want = reference_sample_ugw(P, k, rng_ref)
            assert rng_lib.getstate() == rng_ref.getstate()
            assert canonicalize(got, k) is canonicalize(want, k)


@pytest.mark.parametrize("P", [pytest.param(P, id=name) for name, P in rational_laws()])
def test_same_stream_same_tree_rational(P):
    h = P.depth
    for k in range(h, h + 4):
        _compare(P, k, SEEDS)


@pytest.mark.parametrize("h", [1, 2])
def test_same_stream_same_tree_float(h):
    P = marginal_ugw(poisson_law(1.0, tail=1e-3), h)
    assert P.mode == "float"
    for k in range(h, h + 3):
        _compare(P, k, SEEDS)


def test_fresh_law_object_each_draw():
    """A draw from a new, equal law object pays the compile and agrees."""
    deg = {1: F(1, 3), 3: F(2, 3)}
    rng_lib, rng_ref = random.Random(5), random.Random(5)
    ref_law = marginal_ugw(NeighborhoodLaw.from_degree_law(deg), 2)
    for _ in range(5):
        P = marginal_ugw(NeighborhoodLaw.from_degree_law(deg), 2)
        got = sample_ugw(P, 4, rng_lib)
        want = reference_sample_ugw(ref_law, 4, rng_ref)
        assert rng_lib.getstate() == rng_ref.getstate()
        assert canonicalize(got, 4) is canonicalize(want, 4)


class TestCompiledOnce:
    def test_branching_law_is_kept(self):
        P = marginal_ugw(NeighborhoodLaw.from_degree_law(DEGREE_LAWS[2]), 2)
        assert typed_branching_law(P) is typed_branching_law(P)
        assert edge_intensity_table(P) is edge_intensity_table(P)
        assert is_admissible(P) is is_admissible(P)

    def test_equal_laws_do_not_share(self):
        deg = DEGREE_LAWS[1]
        P = NeighborhoodLaw.from_degree_law(deg)
        Q = NeighborhoodLaw.from_degree_law(deg)
        assert P == Q and hash(P) == hash(Q)
        assert typed_branching_law(P) == typed_branching_law(Q)
        assert typed_branching_law(P) is not typed_branching_law(Q)

    def test_inadmissible_raises_every_call(self):
        chain = canonicalize(LabeledRootedGraph([(0, 1), (1, 2)], root=0), 2)
        P = NeighborhoodLaw.point_mass(chain)
        for _ in range(2):
            with pytest.raises(ValueError, match="not admissible"):
                typed_branching_law(P)
            with pytest.raises(ValueError, match="admissible"):
                sample_ugw(P, 3, random.Random(0))
        assert not is_admissible(P)

    def test_depth0_raises_every_call(self):
        P0 = NeighborhoodLaw.point_mass(isolated_root(0))
        for _ in range(2):
            with pytest.raises(ValueError):
                typed_branching_law(P0)
            with pytest.raises(ValueError):
                sample_ugw(P0, 1, random.Random(0))

    def test_round_trips_after_sampling(self):
        fresh = marginal_ugw(NeighborhoodLaw.from_degree_law(DEGREE_LAWS[2]), 2)
        P = marginal_ugw(NeighborhoodLaw.from_degree_law(DEGREE_LAWS[2]), 2)
        rng = random.Random(3)
        for _ in range(20):
            sample_ugw(P, 5, rng)
        blob = pickle.dumps(P)
        assert len(blob) <= len(pickle.dumps(fresh))
        back = pickle.loads(blob)
        assert back == P and hash(back) == hash(P)
        assert NeighborhoodLaw.from_json(json.loads(json.dumps(P.to_json()))) == P
        # the unpickled law samples like the original
        r1, r2 = random.Random(8), random.Random(8)
        t1, t2 = sample_ugw(back, 4, r1), sample_ugw(P, 4, r2)
        assert r1.getstate() == r2.getstate()
        assert canonicalize(t1, 4) is canonicalize(t2, 4)

