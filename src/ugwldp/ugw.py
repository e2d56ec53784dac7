"""Unimodular Galton-Watson trees with a prescribed neighborhood law.

Given an admissible depth-h law P, the tree is grown by sampling the
depth-h ball from P and then extending each vertex with a typed
size-biased law: a vertex whose subtree pattern is t and whose view back
toward its parent is t' extends its subtree one level using the branch
law for (t, t').  The same branch laws drive an exact finite-depth
marginal computation (multinomial over child-subtree assignments), a
sampler, and the consistency checks tying the two together.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .neighborhood import (
    NeighborhoodLaw,
    edge_intensity_table,
    is_admissible,
    root_edge_types,
)
from .rooted import (
    TREE,
    CanonicalClass,
    KindMismatchError,
    LabeledRootedGraph,
    _join,
    canonicalize,
    declare_depth,
    drop_root_child,
    root_sides,
)


class SupportExplosionError(RuntimeError):
    """Raised when an exact marginal exceeds its support cap."""


class MissingBranchError(RuntimeError):
    """A sampler asked for a branch type with zero intensity.

    Types generated by a consistent recursion always have positive
    intensity, so hitting this means the input law was not admissible.
    """


def size_biased(P):
    """Size-biased offspring law of a degree law on the nonnegative integers.

    Maps k to (k+1) P(k+1) / mean(P); requires a positive finite mean.
    """
    mean = sum(k * p for k, p in P.items())
    if mean == 0:
        raise ValueError("size bias of a zero-mean law")
    return {k - 1: k * p / mean for k, p in P.items() if k >= 1 and p != 0}


@dataclass(frozen=True)
class TypedBranchingLaw:
    """Branch laws of an admissible depth-h law, one per edge type.

    table maps (t, t') with positive intensity to the law of the depth-h
    subtree at a vertex of that type; each entry is supported on trees
    whose depth-(h-1) truncation equals t.
    """

    h: int
    table: dict

    def law(self, t, t_prime):
        key = (declare_depth(t, self.h - 1), declare_depth(t_prime, self.h - 1))
        got = self.table.get(key)
        if got is None:
            raise MissingBranchError(f"no branch law for type {key}")
        return got


def typed_branching_law(P: NeighborhoodLaw) -> TypedBranchingLaw:
    """All branch laws of P at once, with exact normalization checks.

    Built once per law object, and kept only once every check has passed:
    an inadmissible law raises on every call.
    """
    return P._derive("branching", _build_branching)


def _build_branching(P):
    h = P.depth
    rep = is_admissible(P)
    if not rep:
        raise ValueError(f"law is not admissible: {rep.violations[:3]}")
    types = root_edge_types(P)
    acc: dict = {}
    for S, p in P.items():
        if S.kind != TREE:
            raise KindMismatchError("branching laws are defined for tree laws")
        # one entry per distinct root subtree sub; seen from that child,
        # the root is a vertex of type (back, sub) whose subtree is tau
        for (sub, back), m in types[S].items():
            tau = drop_root_child(S, sub)
            cell = acc.setdefault((back, sub), {})
            cell[tau] = cell.get(tau, 0) + p * m
    intens = edge_intensity_table(P)
    table = {
        key: NeighborhoodLaw(h, {tau: w / intens[key] for tau, w in cell.items()}, mode=P.mode)
        for key, cell in acc.items()
    }
    return TypedBranchingLaw(h, table)


def branch_law(P: NeighborhoodLaw, t: CanonicalClass, t_prime: CanonicalClass):
    """The branch law of P for one edge type (t, t')."""
    return typed_branching_law(P).law(t, t_prime)


# ---------------------------------------------------------------------------
# Exact marginals
# ---------------------------------------------------------------------------


def _child_types(table):
    """Distinct (subtree, look-back) types among the root children of a block.

    Returns [(s, s_complement, multiplicity)] from the block's edge-type
    table, sorted by the subtree's wire form.  Children with the same
    subtree class automatically share the same complement.
    """
    ordered = sorted(table.items(), key=lambda kv: kv[0][0].wire())
    return [(s, s_comp, n_a) for (s, s_comp), n_a in ordered]


def _extend_block(block, table, branching, cap, acc, weight):
    """One-step extension of a depth-h block to depth h+1; table is its root edge-type table."""
    h = block.depth
    groups = []
    for s, s_comp, n_a in _child_types(table):
        law = branching.law(s, s_comp)
        opts = law.sorted_items()
        combos = []
        for combo in _multisets(len(opts), n_a):
            w = _multinomial(n_a, combo)
            pr = Fraction(1) if isinstance(weight, Fraction) else 1.0
            chosen = []
            for idx, cnt in enumerate(combo):
                if cnt == 0:
                    continue
                tau, p = opts[idx]
                pr = pr * p**cnt
                chosen.append((tau, cnt))
            combos.append((chosen, w * pr))
        groups.append(combos)
    for pick in itertools.product(*groups):
        chosen_all = []
        pr = weight
        for chosen, w in pick:
            chosen_all.extend(chosen)
            pr = pr * w
        tau = _assemble(chosen_all, h + 1)
        acc[tau] = acc.get(tau, 0) + pr
        if len(acc) > cap:
            raise SupportExplosionError(
                f"marginal support exceeded cap of {cap} classes"
            )


def _multisets(n_options, total):
    """All count vectors of length n_options summing to total."""
    if n_options == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multisets(n_options - 1, total - first):
            yield (first,) + rest


def _multinomial(n, counts):
    out = 1
    rem = n
    for c in counts:
        out *= comb(rem, c)
        rem -= c
    return out


def _assemble(chosen, depth):
    """Tree class from a multiset [(child-subtree class, count)]."""
    return _join(depth, [sub for sub, cnt in chosen for _ in range(cnt)])


def marginal_ugw(P: NeighborhoodLaw, k: int, support_cap: int = 10**6) -> NeighborhoodLaw:
    """Exact depth-k marginal of the UGW tree with depth-h law P.

    Iterates the one-step multinomial extension from depth h up to k.
    """
    if k < P.depth:
        raise ValueError(f"target depth {k} below law depth {P.depth}")
    law = P
    while law.depth < k:
        branching = typed_branching_law(law)
        types = root_edge_types(law)
        acc: dict = {}
        for block, p in law.items():
            _extend_block(block, types[block], branching, support_cap, acc, p)
        law = NeighborhoodLaw(law.depth + 1, acc, mode=P.mode)
    return law


def consistency_check(P: NeighborhoodLaw, k: int) -> bool:
    """Marginals of the restarted recursion agree with the original.

    Computes Q as the depth-k marginal and compares the depth-(k+1)
    marginals of Q and of P for exact equality.
    """
    if not is_admissible(P):
        raise ValueError("consistency check requires an admissible law")
    Q = marginal_ugw(P, k)
    return marginal_ugw(Q, k + 1) == marginal_ugw(P, k + 1)


def edge_law_identity(P: NeighborhoodLaw) -> bool:
    """One-step edge intensities factor through the branch laws.

    With Q the depth-(h+1) marginal, checks
    e_Q(t, t') = e_P(s, s') * B(s,s')(t) * B(s',s)(t') exactly for every
    pair, where s, s' are the depth-(h-1) truncations of t, t' and B is
    the branch-law table of P.
    """
    rep = is_admissible(P)
    if not rep:
        raise ValueError("edge law identity requires an admissible law")
    h = P.depth
    branching = typed_branching_law(P)
    e_P = edge_intensity_table(P)
    Q = marginal_ugw(P, h + 1)
    e_Q = edge_intensity_table(Q)
    rhs = {}
    for (s, s_p), e in e_P.items():
        fwd = branching.table.get((s, s_p))
        bwd = branching.table.get((s_p, s))
        if fwd is None or bwd is None:
            return False
        for t, pt in fwd.items():
            for t_p, ptp in bwd.items():
                key = (t, t_p)
                rhs[key] = rhs.get(key, 0) + e * pt * ptp
    rhs = {k: v for k, v in rhs.items() if v != 0}
    return rhs == e_Q


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


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


class _Growth:
    """Sampling tables of one admissible law, kept on the law object.

    Holds a draw table for the root block and one per edge type, and, for
    each (block, look-back) pair the sampler has reached, the carried
    types of the block's root children.
    """

    def __init__(self, P):
        self.root = _DrawTable(P.sorted_items())
        self.branches = {
            key: _DrawTable(law.sorted_items())
            for key, law in typed_branching_law(P).table.items()
        }
        self.carried = {}

    def branch(self, own, back):
        got = self.branches.get((own, back))
        if got is None:
            raise MissingBranchError(f"no branch law for type {(own, back)}")
        return got

    def child_types(self, tau, back):
        """(own, look-back) types of tau's root children, in tau.rep[0] order.

        back is the look-back type of tau's root, hung on the root's parent
        edge; None for the root block, whose root has no parent.
        """
        got = self.carried.get((tau, back))
        if got is None:
            above = () if back is None else (back,)
            got = self.carried[(tau, back)] = root_sides(tau, tau.depth, above)
        return got


def sample_ugw(P: NeighborhoodLaw, k: int, rng: random.Random) -> LabeledRootedGraph:
    """Depth-k truncation of a UGW tree sample with depth-h law P.

    The root block is drawn from P; the tree then grows one level per
    round by drawing, for each frontier vertex, the typed branch law of
    its (subtree pattern, look-back pattern) pair.  Both patterns are
    carried from the block the vertex's parent drew: a child's own type is
    its subtree in that block, and its look-back type is the rest of the
    block with the parent's look-back type hung above it.  Frontier
    vertices are visited in their parents' order, then in block order.

    The branch tables are built once per law object; after that a draw
    costs O(tree size), plus a one-time type computation for each
    (block, look-back) pair the sampler meets for the first time.
    """
    h = P.depth
    if k < h:
        raise ValueError(f"output depth {k} below law depth {h}")
    if not is_admissible(P):
        raise ValueError("sampling requires an admissible law")
    growth = P._derive("growth", _Growth)
    tree = LabeledRootedGraph(root=0)
    frontier = [(0, growth.root.draw(rng), None)]
    for _ in range(k - h):
        nxt = []
        for v, tau, back in frontier:
            for own, own_back in growth.child_types(tau, back):
                c = len(tree.adj)
                tree.add_edge(v, c)
                nxt.append((c, growth.branch(own, own_back).draw(rng), own_back))
        frontier = nxt
    for v, tau, _ in frontier:
        base = len(tree.adj)
        ids = [v, *range(base, base + len(tau.rep) - 1)]
        for i, nb in enumerate(tau.rep):
            for j in nb:
                if j > i:
                    tree.add_edge(ids[i], ids[j])
    return tree


def empirical_law(samples, h: int) -> NeighborhoodLaw:
    """Empirical depth-h law of a list of sampled rooted trees."""
    counts: Counter = Counter(canonicalize(t, h) for t in samples)
    n = len(samples)
    return NeighborhoodLaw(h, {c: Fraction(v, n) for c, v in counts.items()})


# ---------------------------------------------------------------------------
# Colored multi-type trees
# ---------------------------------------------------------------------------


def _mat_get(M, c):
    return M[c[0] - 1][c[1] - 1]


def _mat_add(M, c, delta):
    rows = [list(r) for r in M]
    rows[c[0] - 1][c[1] - 1] += delta
    return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class ColoredOffspringLaw:
    """Offspring law on L x L count matrices with conjugate-balanced means."""

    L: int
    base: dict  # matrix -> weight

    def __post_init__(self):
        colors = [(i, j) for i in range(1, self.L + 1) for j in range(1, self.L + 1)]
        for i, j in colors:
            if i < j:
                a = self.color_mean((i, j))
                b = self.color_mean((j, i))
                if isinstance(a, Fraction) and isinstance(b, Fraction):
                    ok = a == b
                else:
                    ok = abs(float(a) - float(b)) <= 1e-9
                if not ok:
                    raise ValueError(
                        f"mean of color {(i, j)} is {a} but conjugate mean is {b}"
                    )

    def color_mean(self, c):
        return sum(p * _mat_get(M, c) for M, p in self.base.items())


def colored_branch_law(P: ColoredOffspringLaw, c) -> dict:
    """Size-biased offspring law seen across an edge of color c.

    Conjugate-weighted shift of the base law; a color with zero mean
    degenerates to a point mass at the zero matrix.
    """
    cbar = (c[1], c[0])
    mean = P.color_mean(c)
    if mean == 0:
        zero = tuple(tuple(0 for _ in range(P.L)) for _ in range(P.L))
        return {zero: Fraction(1)}
    out = {}
    for M, p in P.base.items():
        mc = _mat_get(M, cbar)
        if mc >= 1:
            shifted = _mat_add(M, cbar, -1)
            out[shifted] = out.get(shifted, 0) + mc * p / mean
    return out


@dataclass
class ColoredRootedTree:
    """Rooted tree whose non-root vertices carry the color of their parent edge."""

    n: int
    root: int
    parents: dict  # vertex -> parent
    types: dict  # vertex -> color (absent for the root)

    def children(self):
        out = {v: [] for v in range(self.n)}
        for v, p in self.parents.items():
            out[p].append(v)
        return out

    def colorblind(self) -> LabeledRootedGraph:
        g = LabeledRootedGraph(root=self.root, vertices=range(self.n))
        for v, p in self.parents.items():
            g.add_edge(v, p)
        return g


def sample_ugw_colored(P: ColoredOffspringLaw, k: int, rng: random.Random) -> ColoredRootedTree:
    """Multi-type tree: root offspring from the base law, then per-color branch laws."""
    if k < 0:
        raise ValueError(f"output depth {k} is negative")
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
    return ColoredRootedTree(n, 0, parents, types)


def sample_ugw_bipartite(P1, P2, k: int, rng: random.Random) -> LabeledRootedGraph:
    """Tree with alternating types; root type i drawn with odds of the opposite mean.

    P1 and P2 are degree laws with positive finite means d1, d2.  The root
    is type i with probability d_{other}/(d1+d2) and reproduces by P_i;
    deeper type-i vertices reproduce by the size-biased law of P_i.
    """
    if k < 0:
        raise ValueError(f"output depth {k} is negative")
    d1 = sum(kk * p for kk, p in P1.items())
    d2 = sum(kk * p for kk, p in P2.items())
    if d1 <= 0 or d2 <= 0:
        raise ValueError("both degree laws need positive mean")
    p1 = d2 / (d1 + d2)
    laws = {1: _DrawTable(sorted(P1.items())), 2: _DrawTable(sorted(P2.items()))}
    hats = {
        1: _DrawTable(sorted(size_biased(P1).items())),
        2: _DrawTable(sorted(size_biased(P2).items())),
    }
    root_type = 1 if rng.random() < float(p1) else 2
    tree = LabeledRootedGraph(root=0)
    n = 1
    frontier = deque([(0, root_type, 0, True)])
    while frontier:
        v, tpe, depth, is_root = frontier.popleft()
        if depth >= k:
            continue
        deg = (laws[tpe] if is_root else hats[tpe]).draw(rng)
        for _ in range(deg):
            tree.add_edge(v, n)
            frontier.append((n, 3 - tpe, depth + 1, False))
            n += 1
    return tree


def bipartite_root_probability(P1, P2):
    d1 = sum(k * p for k, p in P1.items())
    d2 = sum(k * p for k, p in P2.items())
    tot = d1 + d2
    if isinstance(tot, float):
        return d2 / tot, d1 / tot
    return Fraction(d2) / tot, Fraction(d1) / tot
