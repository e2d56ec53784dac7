"""The UGW tree sampler against a straightforward reference.

The reference below grows the tree by re-splitting it: for every frontier
vertex it finds the parent by a root BFS, recomputes both edge types from
two split copies of the partial tree, and grafts the drawn block in place
of the old subtree.  The library sampler carries the types forward
instead.  Both must draw the same blocks in the same order, so they leave
the random generator in the same state and return isomorphic trees.

The law tables have references too: the intensity table, the branch
table and the entropy's factorial term, each recomputed from per-class
edge-type tables and subtree counts, as the library did before it read
one table of root edge types per law.
"""

import itertools
import json
import math
import pickle
import random
import sys
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.entropy import _log_factorial_term, ugw_entropy
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
    drop_root_child,
    edge_type_table,
    root_sides,
    split_at_edge,
    star,
    truncate,
)
from ugwldp.ugw import (
    ColoredOffspringLaw,
    MissingBranchError,
    _mat_get,
    colored_branch_law,
    marginal_ugw,
    sample_ugw,
    sample_ugw_colored,
    typed_branching_law,
)
from ugwldp.verify import marginal_law_pool


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
    tree = LabeledRootedGraph(
        [(v, u) for v, nb in enumerate(block.rep) for u in nb if u > v],
        root=0,
        vertices=range(len(block.rep)),
    )
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


class _DrawTable:
    """Weighted draws from [(item, weight)] in a fixed item order.

    A draw scales one rng.random() by the total weight and returns the
    first item whose cumulative float weight exceeds it.
    """

    __slots__ = ("items", "cumulative", "total")

    def __init__(self, items):
        self.items = [item for item, _ in items]
        self.cumulative = list(itertools.accumulate(float(w) for _, w in items))
        self.total = float(sum(w for _, w in items))

    def draw(self, rng: random.Random):
        i = bisect_right(self.cumulative, rng.random() * self.total)
        return self.items[min(i, len(self.items) - 1)]


def reference_tables(P):
    """A draw table for the root block and one per branch-law key of P."""
    branches = {key: _DrawTable(law.sorted_items()) for key, law in typed_branching_law(P).table.items()}
    return _DrawTable(P.sorted_items()), branches


def reference_growth_loop(P, k, rng, tables):
    """sample_ugw's rounds with a lookup per child: its types, then its table's draw.

    tables come from :func:`reference_tables`, built apart from the law's
    compiled plan, and each child's types are read off root_sides.
    """
    root, branches = tables
    h = P.depth
    tree = LabeledRootedGraph(root=0)
    adj = tree.adj
    frontier = [(0, root.draw(rng), None)]
    for _ in range(k - h):
        nxt = []
        for v, tau, back in frontier:
            above = () if back is None else (back,)
            for own, own_back in root_sides(tau, tau.depth, above):
                c = len(adj)
                adj[c] = {v}
                adj[v].add(c)
                table = branches.get((own, own_back))
                if table is None:
                    raise MissingBranchError(f"no branch law for type {(own, own_back)}")
                nxt.append((c, table.draw(rng), own_back))
        frontier = nxt
    for v, tau, _ in frontier:
        off = len(adj) - 1
        for i, nb in enumerate(tau.rep):
            for j in nb:
                if j > i:
                    u = off + i if i else v
                    adj[off + j] = {u}
                    adj[u].add(off + j)
    return tree


POOL = [P for P, _h, _k in marginal_law_pool()]
POOL_TABLES = [reference_tables(P) for P in POOL]


def _listing(tree):
    return [(v, sorted(nb)) for v, nb in tree.adj.items()]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    index=st.integers(0, len(POOL) - 1),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_plan_matches_per_child_lookups(index, extra, seed):
    """Same vertex ids, adjacency key order, neighbours and generator state."""
    P = POOL[index]
    k = P.depth + extra
    rng_lib, rng_ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got = sample_ugw(P, k, rng_lib)
        want = reference_growth_loop(P, k, rng_ref, POOL_TABLES[index])
        assert _listing(got) == _listing(want)
        assert rng_lib.getstate() == rng_ref.getstate()


def test_missing_branch_raises_in_both_samplers():
    """A branch table without a type the sampler reaches raises, plan or no plan."""
    P = marginal_ugw(NeighborhoodLaw.from_degree_law(DEGREE_LAWS[2]), 2)
    root, _ = reference_tables(P)
    block = root.draw(random.Random(0))
    (own, back), *_ = root_sides(block, block.depth)
    del typed_branching_law(P).table[(own, back)]
    assert is_admissible(P)
    for _ in range(2):
        with pytest.raises(MissingBranchError, match="no branch law"):
            sample_ugw(P, P.depth + 1, random.Random(0))
        with pytest.raises(MissingBranchError, match="no branch law"):
            reference_growth_loop(P, P.depth + 1, random.Random(0), reference_tables(P))


# ---------------------------------------------------------------------------
# The colored sampler against its breadth-first reference
# ---------------------------------------------------------------------------


@dataclass
class ColoredRootedTree:
    """Rooted tree whose non-root vertices carry the color of their parent edge."""

    n: int
    root: int
    parents: dict  # vertex -> parent
    types: dict  # vertex -> color (absent for the root)

    def colorblind(self) -> LabeledRootedGraph:
        """The tree without its colors: the root, then vertices 0..n-1, as keys."""
        g = LabeledRootedGraph(root=self.root)
        adj = g.adj = {v: set() for v in (self.root, *range(self.n))}
        for v, p in self.parents.items():
            adj[v].add(p)
            adj[p].add(v)
        return g


def reference_sample_ugw_colored(P, k, rng):
    """A deque BFS that draws each vertex's matrix from tables built per call."""
    colors = [(i, j) for i in range(1, P.L + 1) for j in range(1, P.L + 1)]
    hats = {c: _DrawTable(sorted(colored_branch_law(P, c).items())) for c in colors}
    base = _DrawTable(sorted(P.base.items()))
    parents: dict = {}
    types: dict = {}
    n = 1
    frontier = deque([(0, None, 0)])  # (vertex, type, depth)
    while frontier:
        v, ctype, depth = frontier.popleft()
        if depth >= k:
            continue
        M = (base if ctype is None else hats[ctype]).draw(rng)
        for c in colors:
            for _ in range(_mat_get(M, c)):
                parents[n] = v
                types[n] = c
                frontier.append((n, c, depth + 1))
                n += 1
    return ColoredRootedTree(n, 0, parents, types).colorblind()


@st.composite
def colored_laws(draw):
    """A balanced offspring law: each matrix and its transpose share a weight.

    A matrix holds at most four children.  One color and its conjugate
    may be left out of every matrix, so that they have mean zero.
    """
    L = draw(st.integers(1, 3))
    colors = [(i, j) for i in range(1, L + 1) for j in range(1, L + 1)]
    dead = draw(st.none() | st.sampled_from(colors))
    live = [c for c in colors if dead not in (c, c[::-1])]
    weights = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    exact = draw(st.booleans())
    total = 2 * sum(weights)
    base = {}
    for w in weights:
        rows = [[0] * L for _ in range(L)]
        for i, j in draw(st.lists(st.sampled_from(live), max_size=4)) if live else ():
            rows[i - 1][j - 1] += 1
        M = tuple(map(tuple, rows))
        for X in (M, tuple(zip(*M))):
            base[X] = base.get(X, 0) + (Fraction(w, total) if exact else w / total)
    return ColoredOffspringLaw(L, base)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(P=colored_laws(), seed=st.integers(0, 2**32 - 1))
def test_colored_sampler_matches_bfs_reference(P, seed):
    """Same vertex ids, adjacency key order, neighbours and generator state at k = 0..5."""
    rng_lib, rng_ref = random.Random(seed), random.Random(seed)
    for k in range(6):
        for _ in range(3):
            got = sample_ugw_colored(P, k, rng_lib)
            want = reference_sample_ugw_colored(P, k, rng_ref)
            assert _listing(got) == _listing(want)
            assert rng_lib.getstate() == rng_ref.getstate()


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
        P = NeighborhoodLaw(chain.depth, {chain: 1})
        for _ in range(2):
            with pytest.raises(ValueError, match="not admissible"):
                typed_branching_law(P)
            with pytest.raises(ValueError, match="admissible"):
                sample_ugw(P, 3, random.Random(0))
        assert not is_admissible(P)

    def test_depth0_raises_every_call(self):
        P0 = NeighborhoodLaw(0, {star(0, 0): 1})
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


# ---------------------------------------------------------------------------
# Law tables against per-class references
# ---------------------------------------------------------------------------


def reference_edge_intensity_table(P):
    acc = {}
    for cls, p in P.items():
        for pair, cnt in edge_type_table(cls, P.depth).items():
            acc[pair] = acc.get(pair, 0) + p * cnt
    return dict(sorted(acc.items(), key=lambda kv: (kv[0][0].wire(), kv[0][1].wire())))


def reference_branching_table(P):
    h = P.depth
    acc = {}
    for S, p in P.items():
        subs = S.children
        seen = set()
        for sub in subs:
            if sub in seen:
                continue
            seen.add(sub)
            tau = drop_root_child(S, sub)
            cell = acc.setdefault((truncate(tau, h - 1), sub), {})
            cell[tau] = cell.get(tau, 0) + p * subs.count(sub)
    intens = reference_edge_intensity_table(P)
    return {
        key: NeighborhoodLaw(h, {tau: w / intens[key] for tau, w in cell.items()}, mode=P.mode)
        for key, cell in acc.items()
    }


def reference_log_factorial_term(P):
    total = 0.0
    for cls, p in P.items():
        s = sum(math.lgamma(c + 1) for c in edge_type_table(cls, P.depth).values())
        total += float(p) * s
    return total


SPLIT_LAWS = (
    {3: F(1)},
    {1: F(1, 2), 2: F(1, 2)},
    {1: F(1, 3), 3: F(2, 3)},
    {0: F(1, 4), 1: F(1, 4), 2: F(1, 4), 3: F(1, 4)},
)


def table_laws():
    """The 12 marginal laws of the split tests and the verify pool."""
    for deg in SPLIT_LAWS:
        name = ",".join(f"{k}:{p}" for k, p in sorted(deg.items()))
        for h in (1, 2, 3):
            yield f"split{name}-h{h}", marginal_ugw(NeighborhoodLaw.from_degree_law(deg), h)
    for i, (P, h, _k) in enumerate(marginal_law_pool()):
        yield f"pool{i}-h{h}", P


TABLE_LAWS = [pytest.param(P, id=name) for name, P in table_laws()]
FLOAT_LAWS = [
    pytest.param(marginal_ugw(poisson_law(1.0, tail=1e-3), h), id=f"poisson-h{h}")
    for h in (1, 2)
]


@pytest.mark.parametrize("P", TABLE_LAWS + FLOAT_LAWS)
def test_law_tables_match_references(P):
    assert list(edge_intensity_table(P).items()) == list(
        reference_edge_intensity_table(P).items()
    )
    got = typed_branching_law(P).table
    want = reference_branching_table(P)
    assert list(got) == list(want)
    for key, law in want.items():
        assert list(got[key].items()) == list(law.items())
    assert _log_factorial_term(P) == reference_log_factorial_term(P)


@pytest.mark.parametrize("P", TABLE_LAWS)
def test_one_edge_type_table_per_class(P, monkeypatch):
    """Intensities, branch laws, entropy and one extension step share one table."""
    P = pickle.loads(pickle.dumps(P))  # a fresh law object, nothing derived yet
    calls = Counter()
    real = edge_type_table

    def counted(cls, h):
        calls[(cls, h)] += 1
        return real(cls, h)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ugwldp" and hasattr(mod, "edge_type_table"):
            monkeypatch.setattr(mod, "edge_type_table", counted)
    edge_intensity_table(P)
    typed_branching_law(P)
    ugw_entropy(P)
    marginal_ugw(P, P.depth + 1)
    assert calls == Counter({(cls, P.depth): 1 for cls in P.support})
