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
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .neighborhood import (
    NeighborhoodLaw,
    _check_trees,
    _dividable,
    _sum_by_key,
    _weights,
    edge_intensity_table,
    is_admissible,
    root_edge_types,
)
from .rooted import (
    LabeledRootedGraph,
    _check_int,
    _join,
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
    an inadmissible law raises ValueError on every call, and a law with mass
    on a class that holds a cycle raises CyclicLawError naming the class.
    For a rational law each entry is summed as an integer numerator over
    the law's common denominator and normalized as one Fraction(w, e), with
    e the intensity's numerator over the same denominator.
    """
    return P._derive("branching", _build_branching)


def _build_branching(P):
    h = P.depth
    rep = is_admissible(P)
    if not rep:
        raise ValueError(f"law is not admissible: {rep.violations[:3]}")
    _check_trees(P)
    types = root_edge_types(P)
    _, weights = _weights(P)
    acc: dict = {}
    for S, p in weights.items():
        # one entry per distinct root subtree sub; seen from that child,
        # the root is a vertex of type (back, sub) whose subtree is tau
        for (sub, back), m in types[S].items():
            tau = drop_root_child(S, sub)
            cell = acc.setdefault((back, sub), {})
            cell[tau] = cell.get(tau, 0) + p * m
    intens, div = _dividable(P, edge_intensity_table(P))
    table = {
        key: NeighborhoodLaw(h, {tau: div(w, intens[key]) for tau, w in cell.items()}, mode=P.mode)
        for key, cell in acc.items()
    }
    return TypedBranchingLaw(h, table)


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


def _extend_block(block, table, branching, out, weight):
    """One-step extension of a depth-h block to depth h+1; table is its root edge-type table.

    Appends one (depth-(h+1) class, weight) pair per pick to the list out.
    For a rational law, weight and each branch-law option are integer
    numerators (an option's over its law's common denominator, see
    :func:`_weights`), so every product is an integer; for a float law
    they are the laws' own floats, multiplied in the same order (1 * x is
    x to the bit).
    """
    h = block.depth
    groups = []
    for s, s_comp, n_a in _child_types(table):
        law = branching.law(s, s_comp)
        nums = _weights(law)[1]
        opts = [(tau, nums[tau]) for tau, _ in law.sorted_items()]
        combos = []
        for combo in _multisets(len(opts), n_a):
            w = _multinomial(n_a, combo)
            pr = 1
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
        out.append((_assemble(chosen_all, h + 1), pr))


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


def _extension_size(law, types, branching):
    """Number of classes the one-step extension of law builds, before building any.

    A block's extension picks, for each distinct child type, a multiset of
    n_a classes from that type's branch law: C(options + n_a - 1, n_a)
    picks, multiplied over the types and summed over the blocks.
    """
    total = 0
    for block in law.support:
        picks = 1
        for s, s_comp, n_a in _child_types(types[block]):
            picks *= comb(len(branching.law(s, s_comp)) + n_a - 1, n_a)
        total += picks
    return total


def _block_weights(law, types, branching):
    """(den, {block: weight}): the weights that one extension step starts from.

    For a rational law, a block of weight p has picks over p.denominator
    times the product of D_s^{n_a} over its child types, D_s the common
    denominator of branch law s; den is the lcm of these, and a block's
    weight is its integer numerator over den.  For a float law den is None
    and the weights are the law's own.
    """
    if _weights(law)[0] is None:
        return None, law.support
    dens = {}
    for block, p in law.items():
        d = p.denominator
        for (s, s_comp), n_a in types[block].items():
            d *= _weights(branching.law(s, s_comp))[0] ** n_a
        dens[block] = d
    den = math.lcm(*dens.values())
    return den, {block: p.numerator * (den // dens[block]) for block, p in law.items()}


def marginal_ugw(P: NeighborhoodLaw, k: int, support_cap: int = 10**6) -> NeighborhoodLaw:
    """Exact depth-k marginal of the UGW tree with depth-h law P.

    Iterates the one-step multinomial extension from depth h up to k.
    Raises SupportExplosionError before a step whose support, counted by
    :func:`_extension_size`, would exceed support_cap, and ValueError when
    k or support_cap is not an int >= 0.  On a rational law a step
    multiplies integer numerators only: every pick's weight is an integer
    over the lcm of the blocks' denominators, and the step builds one
    Fraction per class of the result; a float law multiplies in order.
    """
    _check_int("depth", k, 0)
    _check_int("support_cap", support_cap, 0)
    if k < P.depth:
        raise ValueError(f"target depth {k} below law depth {P.depth}")
    law = P
    while law.depth < k:
        branching = typed_branching_law(law)
        types = root_edge_types(law)
        size = _extension_size(law, types, branching)
        if size > support_cap:
            raise SupportExplosionError(
                f"depth-{law.depth + 1} marginal support of {size} classes "
                f"exceeds the cap of {support_cap}"
            )
        den, weights = _block_weights(law, types, branching)
        picks = []
        for block, w in weights.items():
            _extend_block(block, types[block], branching, picks, w)
        law = NeighborhoodLaw(law.depth + 1, _sum_by_key(picks, den), mode=P.mode)
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


def _table(pairs):
    """Draw table of [(item, weight)] in a fixed item order: (cumulative, total, items, last).

    A draw scales one rng.random() by the total weight and takes
    items[min(bisect_right(cumulative, r * total), last)], the first item
    whose cumulative float weight exceeds it.
    """
    items = [item for item, _ in pairs]
    cumulative = list(itertools.accumulate(float(w) for _, w in pairs))
    return cumulative, float(sum(w for _, w in pairs)), items, len(items) - 1


class _Plan:
    """Compiled draws of one multi-type tree law, as :func:`_grow` reads them.

    root is the root item's draw table and tables holds one per vertex
    type, each a :func:`_table` tuple.  sides(item, carried) lists, in
    the tree's child order, the (type, carry) pair of each child of a
    vertex that drew item and carried `carried` from its parent;
    leaves(item) lists the (i, j) edges, j > i, of the final block a
    frontier vertex hangs for item.  Each (item, carried) pair's children,
    resolved to their draw tables, and each item's final-block edges are
    kept the first time the loop needs them, so a missing type raises
    MissingBranchError from there.
    """

    __slots__ = ("root", "tables", "sides", "leaves", "kids", "edges")

    def __init__(self, root, tables, sides, leaves):
        self.root = root
        self.tables = tables
        self.sides = sides
        self.leaves = leaves
        self.kids = {}
        self.edges = {}

    def children(self, item, carried):
        """One (carry, cumulative, total, items, last) tuple per child."""
        got = self.kids.get((item, carried))
        if got is None:
            got = []
            for kind, carry in self.sides(item, carried):
                table = self.tables.get(kind)
                if table is None:
                    raise MissingBranchError(f"no branch law for type {kind}")
                got.append((carry, *table))
            got = self.kids[(item, carried)] = tuple(got)
        return got

    def block_edges(self, item):
        got = self.edges.get(item)
        if got is None:
            got = self.edges[item] = tuple(self.leaves(item))
        return got


def _grow(plan, rounds, rng):
    """One tree of plan's law: the root's draw, `rounds` growth rounds, then the final blocks.

    A round gives each frontier vertex its children, in frontier order,
    and draws each child's item as it is placed.  Every edge hangs a new
    vertex from one already placed, so it is written straight into
    tree.adj: one set per new vertex and one add to its parent's set.  A
    final block's vertex j >= 1 gets the next free id, len(adj) - 1 + j,
    and its vertex 0 is the frontier vertex itself.
    """
    tree = LabeledRootedGraph(root=0)
    adj = tree.adj
    rand = rng.random
    children = plan.children
    cumulative, total, items, last = plan.root
    i = bisect_right(cumulative, rand() * total)
    frontier = [(0, items[i if i < last else last], None)]
    for _ in range(rounds):
        nxt = []
        for v, item, carried in frontier:
            nb = adj[v]
            for carry, cumulative, total, items, last in children(item, carried):
                c = len(adj)
                adj[c] = {v}
                nb.add(c)
                i = bisect_right(cumulative, rand() * total)
                nxt.append((c, items[i if i < last else last], carry))
        frontier = nxt
    for v, item, _ in frontier:
        off = len(adj) - 1
        for i, j in plan.block_edges(item):
            u = off + i if i else v
            w = off + j
            adj[w] = {u}
            adj[u].add(w)
    return tree


def _ugw_plan(P):
    """sample_ugw's plan: items are depth-h tree classes, types their branch-law keys.

    A final block's edges are the (i, j) pairs with j > i of its rep, in
    rep order.  A tree's rep numbers its vertices in preorder, so each
    pair hangs the new vertex j from a vertex i already placed.
    """
    return _Plan(
        _table(P.sorted_items()),
        {key: _table(law.sorted_items()) for key, law in typed_branching_law(P).table.items()},
        _ugw_sides,
        lambda tau: [(i, j) for i, nb in enumerate(tau.rep) for j in nb if j > i],
    )


def _ugw_sides(tau, back):
    """tau's root children as ((own, look-back), look-back), in tau.rep[0] order.

    back is the look-back type of tau's root, hung on the root as one more
    child; None for the root block, whose root has no parent.
    """
    above = () if back is None else (back,)
    return [((own, own_back), own_back) for own, own_back in root_sides(tau, tau.depth, above)]


def sample_ugw(P: NeighborhoodLaw, k: int, rng: random.Random) -> LabeledRootedGraph:
    """Depth-k truncation of a UGW tree sample with depth-h law P.

    The root block is drawn from P; the tree then grows one level per
    round by drawing, for each frontier vertex, the typed branch law of
    its (subtree pattern, look-back pattern) pair.  Both patterns are
    carried from the block the vertex's parent drew: a child's own type is
    its subtree in that block, and its look-back type is the rest of the
    block with the parent's look-back type hung above it.  Frontier
    vertices are visited in their parents' order, then in block order;
    after k - h rounds each frontier vertex hangs the rest of its block.

    The draw tables are compiled once per law object into the plan that
    :func:`_grow`, the one growth loop, runs; after that a draw costs
    O(tree size): each new vertex is one dict entry holding a one-element
    set, one add to its parent's set and, below the final round, one
    rng.random() bisected into its branch table.  A depth k that is not an
    int >= 0 raises ValueError, and a law with mass on a cyclic class
    raises CyclicLawError.
    """
    _check_int("depth", k, 0)
    h = P.depth
    if k < h:
        raise ValueError(f"output depth {k} below law depth {h}")
    if not is_admissible(P):
        raise ValueError("sampling requires an admissible law")
    return _grow(P._derive("plan", _ugw_plan), k - h, rng)


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
    """Offspring law on L x L count matrices with conjugate-balanced means.

    L is an int >= 1, and every matrix is a tuple of L rows of L ints >= 0;
    anything else raises ValueError, before the weights are read.
    """

    L: int
    base: dict  # matrix -> weight >= 0; mass 1, within 1e-12 if any weight is a float

    def __post_init__(self):
        _check_int("L", self.L, 1)
        for M in self.base:
            if len(M) != self.L or any(len(row) != self.L for row in M):
                raise ValueError(f"offspring matrix {M!r} is not {self.L} x {self.L}")
            for row in M:
                for x in row:
                    _check_int("degree", x, 0)
        weights = self.base.values()
        exact = all(isinstance(p, (int, Fraction)) for p in weights)
        if any(p < 0 for p in weights):
            raise ValueError("offspring law has a negative weight")
        if not abs(sum(weights) - 1) <= (0 if exact else 1e-12):  # NaN fails too
            raise ValueError(f"offspring law has total mass {sum(weights)}, not 1")
        for i, j in itertools.combinations(range(1, self.L + 1), 2):
            a, b = self.color_mean((i, j)), self.color_mean((j, i))
            if abs(a - b) > (0 if exact else 1e-9):
                raise ValueError(f"mean of color {(i, j)} is {a} but conjugate mean is {b}")

    def __hash__(self):
        return hash((self.L, frozenset(self.base.items())))

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


def sample_ugw_colored(P: ColoredOffspringLaw, k: int, rng: random.Random) -> LabeledRootedGraph:
    """Depth-k multi-type tree: root offspring from the base law, then per-color branch laws.

    A vertex's type is the color of its parent edge.  It draws an L x L
    count matrix, the root from the base law and a vertex of color c from
    :func:`colored_branch_law` (P, c), and has M[c] children of color c,
    listed in color order.  Vertices are numbered in breadth-first order
    and draw in that order; the depth-(k-1) vertices' children are leaves
    and draw nothing, and at k = 0 the lone root draws nothing.  Returns
    the tree without its colors, grown by :func:`_grow` from draw tables
    built on every call.  Raises ValueError for a depth k that is not an
    int >= 0.
    """
    _check_int("depth", k, 0)
    if k == 0:
        return LabeledRootedGraph(root=0)
    colors = [(i, j) for i in range(1, P.L + 1) for j in range(1, P.L + 1)]
    plan = _Plan(
        _table(sorted(P.base.items())),
        {c: _table(sorted(colored_branch_law(P, c).items())) for c in colors},
        lambda M, _: [(c, None) for c in colors for _ in range(_mat_get(M, c))],
        lambda M: [(0, j) for j in range(1, sum(map(sum, M)) + 1)],
    )
    return _grow(plan, k - 1, rng)


def _bipartite_law(P1, P2) -> ColoredOffspringLaw:
    """The alternating two-law tree as a two-color offspring law.

    A type-1 vertex has k children across color (1, 2) with probability
    P1(k), a type-2 vertex k across (2, 1) with probability P2(k), and the
    root is type 1 or 2 with odds (d2, d1) / (d1 + d2), where d1, d2 > 0
    are the means of P1, P2.  The branch laws across (1, 2) and (2, 1) are
    then the size-biased laws of P2 and P1.  Every degree is an int >= 0,
    else ValueError.
    """
    for k in (*P1, *P2):
        _check_int("degree", k, 0)
    # summed from Fraction(0), int and Fraction weights stay exact
    d1 = sum((k * p for k, p in P1.items()), Fraction(0))
    d2 = sum((k * p for k, p in P2.items()), Fraction(0))
    if d1 <= 0 or d2 <= 0:
        raise ValueError("both degree laws need positive mean")
    pairs = [(((0, k), (0, 0)), d2 * p) for k, p in P1.items()]
    pairs += [(((0, 0), (k, 0)), d1 * p) for k, p in P2.items()]
    return ColoredOffspringLaw(2, {M: w / (d1 + d2) for M, w in _sum_by_key(pairs).items()})


def sample_ugw_bipartite(P1, P2, k: int, rng: random.Random) -> LabeledRootedGraph:
    """Tree with alternating types; root type i drawn with odds of the opposite mean.

    The root is type i with probability d_{other}/(d1+d2) and reproduces by
    P_i; deeper type-i vertices reproduce by the size-biased law of P_i.
    One :func:`sample_ugw_colored` draw from :func:`_bipartite_law`.
    """
    return sample_ugw_colored(_bipartite_law(P1, P2), k, rng)
