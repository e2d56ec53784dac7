"""Brute-force enumeration oracles.

Everything here recomputes quantities by definition (exhaustive
enumeration, literal formula evaluation) so the closed-form
implementations elsewhere have something independent to agree with.
Oracles share only the canonical-class machinery and the definitional
configuration-to-graph map; they are allowed to be exponentially slow.
An integer parameter (h, k, limit) that is not an int >= 0, a bool
included, raises ValueError before any enumeration; so does a cycle
bound h below 1, which has no cycle to count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .config_model import (
    Configuration,
    DegreeSequence,
    Multigraph,
    bijection_colors,
    colorblind,
    config_space_size,
    conj,
    graph_of,
    matching_colors,
)
from .entropy import relative_entropy
from .neighborhood import NeighborhoodLaw, edge_type_distribution, mean_degree
from .rooted import (
    LabeledRootedGraph,
    SimpleGraph,
    canonical_from_adjacency,
    canonicalize,
    declare_depth,
    drop_root_child,
    edge_type_count,
    join_at_root,
    truncate,
)


def _count(name, value):
    """The oracle's own integer check, apart from the library's: an int >= 0, not a bool."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be an int >= 0, got {value!r}")


def enumerate_graphs(n: int, m: int):
    """All simple graphs on {0..n-1} with exactly m edges."""
    if n > 8:
        raise ValueError("graph enumeration is capped at n <= 8")
    slots = list(itertools.combinations(range(n), 2))
    for chosen in itertools.combinations(slots, m):
        yield SimpleGraph(n, frozenset(chosen))


def _all_matchings(points):
    if not points:
        yield ()
        return
    first = points[0]
    for i in range(1, len(points)):
        partner = points[i]
        rest = points[1:i] + points[i + 1 :]
        for sub in _all_matchings(rest):
            yield ((first, partner),) + sub


def half_edges(D: DegreeSequence, c):
    """W_c in the fixed order (vertex ascending, slot ascending): (c, u, slot) per half-edge."""
    a, b = c[0] - 1, c[1] - 1
    return [(c, i, j) for i, mat in enumerate(D.mats) for j in range(1, mat[a][b] + 1)]


def enumerate_configurations(D: DegreeSequence, limit: int = 10**6):
    """Every half-edge pairing of D exactly once (guarded by the space size).

    The pairings are enumerated over the half-edges of :func:`half_edges`,
    so two that differ only in slots are both yielded; each is yielded
    named by its owners, as a Configuration of pairs (u, v).  A graph is
    then reached once per configuration in its fiber.
    """
    _count("limit", limit)
    if config_space_size(D) > limit:
        raise ValueError("configuration space beyond the oracle limit")
    colors = matching_colors(D.L) + bijection_colors(D.L)
    choices = [list(_all_matchings(tuple(half_edges(D, c)))) for c in matching_colors(D.L)]
    for c in bijection_colors(D.L):
        left = half_edges(D, c)
        right = half_edges(D, conj(c))
        if len(left) != len(right):
            raise ValueError("unbalanced conjugate colors")
        choices.append([tuple(zip(left, perm)) for perm in itertools.permutations(right)])
    for combo in itertools.product(*choices):
        yield Configuration(
            D, {c: tuple((a[1], b[1]) for a, b in pairs) for c, pairs in zip(colors, combo)}
        )


def exact_cm_law(D: DegreeSequence, limit: int = 10**6):
    """Exact law of the projected configuration, keyed by graph."""
    counts, total = exact_fiber_sizes(D, limit)
    return {G: Fraction(c, total) for G, c in counts.items()}


def exact_fiber_sizes(D: DegreeSequence, limit: int = 10**6):
    """Configurations per projected graph, and the total configuration count."""
    _count("limit", limit)
    total = 0
    counts = {}
    for sigma in enumerate_configurations(D):
        total += 1
        if total > limit:
            raise ValueError("configuration space beyond the oracle limit")
        G = graph_of(sigma)
        counts[G] = counts.get(G, 0) + 1
    return counts, total


def _has_short_cycle_brute(G: Multigraph, h: int) -> bool:
    """Definitional short-cycle test: loops, parallel pairs, subset cycles."""
    for (u, v), m in G.w.items():
        if u == v and m > 0:
            return True
        if h >= 2 and u != v and m >= 2:
            return True
    for ell in range(3, h + 1):
        for subset in itertools.combinations(range(G.n), ell):
            rest = subset[1:]
            for perm in itertools.permutations(rest):
                cycle = (subset[0],) + perm
                if all(
                    G.weight(cycle[i], cycle[(i + 1) % ell]) >= 1 for i in range(ell)
                ):
                    return True
    return False


def exact_acceptance_fraction(D: DegreeSequence, h: int, limit: int = 10**6) -> Fraction:
    """Fraction of configurations whose projection has no cycle <= h, for h >= 1."""
    _count("h", h)
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h!r}")
    _count("limit", limit)
    total = 0
    good = 0
    for sigma in enumerate_configurations(D):
        total += 1
        if total > limit:
            raise ValueError("configuration space beyond the oracle limit")
        if not _has_short_cycle_brute(colorblind(graph_of(sigma)), h):
            good += 1
    return Fraction(good, total)


def _ball_law(G: SimpleGraph, h: int) -> Counter:
    """Multiset of depth-h classes, one canonicalization per vertex."""
    adj = G.adjacency()
    return Counter(canonical_from_adjacency(adj, v, h) for v in range(G.n))


def exact_equivalent_count(G: SimpleGraph, h: int) -> int:
    """Graphs on [n] with the same edge count and depth-h law, by full scan."""
    _count("h", h)
    if G.n > 7:
        raise ValueError("equivalent-graph scan is capped at n <= 7")
    target = _ball_law(G, h)
    return sum(1 for H in enumerate_graphs(G.n, G.m) if _ball_law(H, h) == target)


# ---------------------------------------------------------------------------
# Independent finite-depth marginal of the prescribed-neighborhood tree
# ---------------------------------------------------------------------------


def _oracle_edge_intensity(P: NeighborhoodLaw, t, t_prime):
    h = P.depth
    return sum(p * edge_type_count(g, h, t, t_prime) for g, p in P.items())


def _oracle_branch_law(P: NeighborhoodLaw, t, t_prime):
    """Literal evaluation of the typed size-biased extension law.

    Weight of tau is P(tau joined with a new root child carrying t') times
    one plus the number of existing root children of tau with subtree t',
    over the edge intensity of (t, t').
    """
    h = P.depth
    t = declare_depth(t, h - 1)
    t_prime = declare_depth(t_prime, h - 1)
    e = _oracle_edge_intensity(P, t, t_prime)
    if e == 0:
        raise ValueError(f"zero intensity for {(t, t_prime)}")
    candidates = set()
    for S in P:
        for sub in set(S.children):
            if sub is t_prime:
                tau = drop_root_child(S, sub)
                if truncate(tau, h - 1) is t:
                    candidates.add(tau)
    out = {}
    for tau in candidates:
        joined = join_at_root(tau, t_prime)
        mult = 1 + tau.children.count(t_prime)
        w = P.prob(joined) * mult
        if w:
            out[tau] = Fraction(w) / e
    return out


def _attach_subtree(g: LabeledRootedGraph, sub):
    """Graft a fresh copy of `sub` as a new child of g's root (vertex 0)."""
    offset = max(g.adj) + 1
    for v, nb in enumerate(sub.rep):
        for u in nb:
            if u > v:
                g.add_edge(v + offset, u + offset)
    g._ensure(offset)
    g.add_edge(0, offset)


def brute_ugw_marginal(P: NeighborhoodLaw, k: int) -> NeighborhoodLaw:
    """Exact depth-k marginal by direct summation over ordered child assignments.

    Recursion on the law of the depth-j subtree seen across an edge of a
    given type; no multinomial grouping anywhere.  The look-back pattern
    of a grandchild is rebuilt explicitly from the sampled block and the
    parent's truncated view.
    """
    _count("k", k)
    h = P.depth
    if k < h:
        raise ValueError("target depth below the law depth")
    if k == h:
        return P
    memo = {}

    def branch(t, t_prime, j):
        """Law of the depth-j subtree at a vertex of type (t, t'), j >= h."""
        key = (t, t_prime, j)
        if key in memo:
            return memo[key]
        base = _oracle_branch_law(P, t, t_prime)
        if j == h:
            memo[key] = base
            return base
        out = {}
        for tau, w in base.items():
            for sub_tree, wt in _extend(tau, t_prime, j):
                out[sub_tree] = out.get(sub_tree, 0) + w * wt
        memo[key] = out
        return out

    def _extend(tau, t_prime, j):
        """Depth-j refinements of the depth-h subtree tau at a (., t') vertex."""
        kids = tau.children
        parent_stub = truncate(t_prime, h - 2) if h >= 2 else None
        options = []
        for s in kids:
            if h >= 2:
                rest = truncate(drop_root_child(tau, s), h - 1)
                look = join_at_root(rest, parent_stub)
            else:
                look = truncate(tau, 0)
            sub_laws = branch(s, look, j - 1)
            options.append(sorted(sub_laws.items(), key=lambda kv: kv[0].wire()))
        for combo in itertools.product(*options):
            g = LabeledRootedGraph(root=0)
            wt = Fraction(1)
            for sub, w in combo:
                wt *= w
                _attach_subtree(g, sub)
            yield canonicalize(g, j), wt

    out = {}
    for g, p in P.items():
        kids = g.children
        options = []
        for s in kids:
            look = truncate(drop_root_child(g, s), h - 1)
            sub_laws = branch(s, look, k - 1)
            options.append(sorted(sub_laws.items(), key=lambda kv: kv[0].wire()))
        for combo in itertools.product(*options):
            tree = LabeledRootedGraph(root=0)
            wt = Fraction(p)
            for sub, w in combo:
                wt *= w
                _attach_subtree(tree, sub)
            cls = canonicalize(tree, k)
            out[cls] = out.get(cls, 0) + wt
    return NeighborhoodLaw(k, out, mode=P.mode)


def kl_increment(rho_km1: NeighborhoodLaw, rho_k: NeighborhoodLaw) -> float:
    """KL(rho_k || rho*) - (d/2) KL(pi_k || pi*): the entropy increment by definition.

    rho* is the brute one-step extension of rho_km1, the truncation of rho_k;
    pi_k and pi* are the edge-type laws of rho_k and rho*, d the mean degree.
    """
    if rho_k.depth != rho_km1.depth + 1:
        raise ValueError("an increment joins two consecutive depths")
    rho_star = brute_ugw_marginal(rho_km1, rho_k.depth)
    kl_pi = relative_entropy(edge_type_distribution(rho_k), edge_type_distribution(rho_star))
    return relative_entropy(rho_k, rho_star) - float(mean_degree(rho_k)) / 2 * kl_pi
