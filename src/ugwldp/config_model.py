"""Directed colored multigraphs and their uniform configuration model.

Colors are ordered pairs (i, j) of indices in 1..L; the conjugate of
(i, j) is (j, i).  A degree sequence assigns every vertex an L x L count
matrix; half-edges of a diagonal color are paired by a uniform perfect
matching, and half-edges of color (i, j) with i < j are matched to
half-edges of the conjugate color by a uniform bijection.  Exact fiber
and probability formulas, cycle statistics, rejection sampling of the
short-cycle-free set, and a lazy neighborhood exploration live here.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .rooted import SimpleGraph, _ball, _short_cycle_at, canonical_labeling

Color = tuple  # (i, j), 1-based


def conj(c: Color) -> Color:
    return (c[1], c[0])


class _Conjugates(dict):
    """Color -> its conjugate, one tuple per color, shared by every weight key."""

    def __missing__(self, c):
        self[c] = cb = (c[1], c[0])
        return cb


_CONJ = _Conjugates()


def all_colors(L):
    return [(i, j) for i in range(1, L + 1) for j in range(1, L + 1)]


def matching_colors(L):
    return [(i, i) for i in range(1, L + 1)]


def bijection_colors(L):
    return [(i, j) for i in range(1, L + 1) for j in range(i + 1, L + 1)]


class InvalidDegreeSequenceError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class RejectionExhaustedError(RuntimeError):
    def __init__(self, attempts):
        super().__init__(f"no short-cycle-free sample in {attempts} attempts")
        self.attempts = attempts


@dataclass(frozen=True)
class DegreeSequence:
    """Per-vertex L x L count matrices; row sums drive the half-edge sets.

    Per-color totals, nonnegativity and half-edge offsets are derived once,
    on first use, and reused by every later call on the same sequence.
    """

    L: int
    mats: tuple  # n matrices, each a tuple of L tuples of ints

    @staticmethod
    def from_rows(L, rows):
        """One row of exactly L * L ints per vertex: its matrix, row by row."""
        if L < 1:
            raise ValueError(f"L must be >= 1, got {L}")
        for u, row in enumerate(rows):
            if len(row) != L * L:
                raise ValueError(f"row {u} has {len(row)} entries, expected {L * L}")
        mats = tuple(
            tuple(tuple(int(x) for x in row[i * L : (i + 1) * L]) for i in range(L))
            for row in rows
        )
        return DegreeSequence(L, mats)

    @staticmethod
    def single_color(degrees):
        return DegreeSequence(1, tuple(((int(d),),) for d in degrees))

    @property
    def n(self):
        return len(self.mats)

    def D(self, u, c: Color) -> int:
        return self.mats[u][c[0] - 1][c[1] - 1]

    @cached_property
    def offsets(self):
        """Color -> prefix sums over vertices: W_c of vertex u starts at offsets[c][u]."""
        return {
            c: array(
                "q",
                itertools.accumulate(
                    (mat[c[0] - 1][c[1] - 1] for mat in self.mats), initial=0
                ),
            )
            for c in all_colors(self.L)
        }

    @cached_property
    def totals(self):
        """Color -> S(c), the number of half-edges of that color."""
        return {c: offs[-1] for c, offs in self.offsets.items()}

    @cached_property
    def nonnegative(self):
        return all(x >= 0 for mat in self.mats for row in mat for x in row)

    def S(self, c: Color) -> int:
        return self.totals[c]

    def total_half_edges(self):
        return sum(self.totals.values())


def validate_degree_sequence(D: DegreeSequence) -> bool:
    """Column-sum symmetry plus even diagonal totals."""
    if not D.nonnegative:
        return False
    for c in bijection_colors(D.L):
        if D.S(c) != D.S(conj(c)):
            return False
    for c in matching_colors(D.L):
        if D.S(c) % 2 != 0:
            return False
    return True


def graphical_check(degrees) -> bool:
    """Erdos-Gallai test: is the scalar degree vector realizable by a simple graph."""
    d = sorted((int(x) for x in degrees), reverse=True)
    n = len(d)
    if any(x < 0 or x >= n and x > 0 for x in d):
        return False
    if sum(d) % 2 != 0:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(x, k) for x in d[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


# ---------------------------------------------------------------------------
# Colored multigraphs
# ---------------------------------------------------------------------------


class ColoredMultigraph:
    """Vertex set {0..n-1} with per-color weight maps.

    The weight dict stores every nonzero entry (c, u, v) -> count and
    maintains w[c][u][v] == w[conj c][v][u]: :meth:`add_edge` is the one
    rule that writes it, and :meth:`edges` reads it back.
    """

    __slots__ = ("L", "n", "w")

    def __init__(self, L, n, w=None):
        self.L = L
        self.n = n
        self.w = dict(w or {})

    def omega(self, c, u, v):
        return self.w.get((c, u, v), 0)

    def add_edge(self, c, u, v):
        """Add one edge (u, v) of color c: 1 at (c, u, v) and 1 at its twin (conj c, v, u).

        A loop of a diagonal color is its own twin and so counts 2; a loop
        of an off-diagonal color counts once on each of its two keys.
        """
        w = self.w
        key = (c, u, v)
        w[key] = w.get(key, 0) + 1
        key = (_CONJ[c], v, u)
        w[key] = w.get(key, 0) + 1

    def edges(self):
        """One (c, u, v) per edge, in sorted key order: add_edge over them rebuilds w.

        A key below its twin (conj c, v, u) stands for m edges, a key equal
        to its twin (a diagonal-color loop) for m // 2, and a key above its
        twin for none, since the twin carries them.
        """
        out = []
        for key, m in sorted(self.w.items()):
            c, u, v = key
            twin = ((c[1], c[0]), v, u)
            if key < twin:
                out += [key] * m
            elif key == twin:
                out += [key] * (m // 2)
        return out

    def key(self):
        return (self.L, self.n, tuple(sorted(self.w.items())))

    def __eq__(self, other):
        return isinstance(other, ColoredMultigraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<ColoredMultigraph n={self.n} L={self.L} entries={len(self.w)}>"


def degree_sequence_of(G: ColoredMultigraph) -> DegreeSequence:
    mats = [[[0] * G.L for _ in range(G.L)] for _ in range(G.n)]
    for (c, u, _v), m in G.w.items():
        mats[u][c[0] - 1][c[1] - 1] += m
    return DegreeSequence(G.L, tuple(tuple(tuple(r) for r in mat) for mat in mats))


class Multigraph:
    """Undirected multigraph: symmetric weights, even diagonal (two per loop)."""

    __slots__ = ("n", "w")

    def __init__(self, n, w=None):
        self.n = n
        self.w = dict(w or {})  # (u, v) with u <= v -> count; (u,u) even

    def weight(self, u, v):
        return self.w.get((min(u, v), max(u, v)), 0)

    def adjacency(self):
        """adj[v] maps each neighbor of v to the edge multiplicity; loops are left out."""
        adj = [{} for _ in range(self.n)]
        for (u, v), m in self.w.items():
            if u == v:
                continue
            adj[u][v] = m
            adj[v][u] = m
        return adj


def colorblind(G: ColoredMultigraph) -> Multigraph:
    out = {}
    for (c, u, v), m in G.w.items():
        if u <= v:
            out[(u, v)] = out.get((u, v), 0) + m
    return Multigraph(G.n, out)


def colorblind_simple(G: ColoredMultigraph):
    """Colorblind projection as a SimpleGraph; raises on loops or multi-edges."""
    bar = colorblind(G)
    edges = []
    for (u, v), m in bar.w.items():
        if u == v or m > 1:
            raise ValueError("colorblind projection is not simple")
        edges.append((u, v))
    return SimpleGraph.from_edges(G.n, edges)


def from_simple(G) -> Multigraph:
    return Multigraph(G.n, {(u, v): 1 for u, v in G.edges})


def has_cycle_leq(G: Multigraph, h: int) -> bool:
    """Any cycle of length <= h: loops count as 1, double edges as 2."""
    if h < 1:
        raise ValueError("cycle length bound must be >= 1")
    for (u, v), m in G.w.items():
        if u == v and m > 0:
            return True
    if h >= 2:
        for (u, v), m in G.w.items():
            if u != v and m >= 2:
                return True
    if h < 3:
        return False
    # girth of the underlying simple graph: a bounded BFS from every vertex
    adj = G.adjacency()
    return any(_short_cycle_at(adj, s, h) for s in range(G.n))


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def half_edges(D: DegreeSequence, c: Color):
    """W_c in the fixed order (vertex ascending, slot ascending)."""
    a, b = c[0] - 1, c[1] - 1
    return [(c, i, j) for i, mat in enumerate(D.mats) for j in range(1, mat[a][b] + 1)]


@dataclass
class Configuration:
    """A pairing of every half-edge of D: color -> tuple of (half-edge, half-edge) pairs.

    Colors come in C_= order, then C_< order.  A diagonal color c holds a
    perfect matching of W_c, in drawn order; a color c of C_< holds every
    half-edge of W_c, in W_c order, with its partner in W_conj(c).  Each
    pair is one edge of :func:`graph_of`.
    """

    D: DegreeSequence
    pairs: dict


def _pools(D: DegreeSequence):
    """Color -> W_c as a tuple, for :func:`_pair_draws` to copy."""
    return {c: tuple(half_edges(D, c)) for c in all_colors(D.L)}


def _pair_draws(D: DegreeSequence, pools, rng: random.Random):
    """The pairs of a uniform configuration, yielded as they are drawn.

    Each diagonal color c is a sequential matching: the least unmatched
    half-edge of W_c gets a uniform partner among the rest.  Each color c
    of C_< is a Fisher-Yates shuffle of W_conj(c), the one random.shuffle
    performs, with the same draws; position i is final once step i is
    done, and is then yielded as the partner of W_c[i].  `pools` is
    :func:`_pools` of D.
    """
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    for c in matching_colors(D.L):
        pool = list(pools[c])
        # pool[lo:] holds the unmatched half-edges
        lo = 0
        while lo < len(pool):
            k = lo + rng.randrange(1, len(pool) - lo)
            yield pool[lo], pool[k]
            pool[k] = pool[-1]
            pool.pop()
            lo += 1
    for c in bijection_colors(D.L):
        left = pools[c]
        perm = list(pools[conj(c)])
        for i in reversed(range(1, len(perm))):
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
            yield left[i], perm[i]
        if perm:
            yield left[0], perm[0]


def _configuration(D: DegreeSequence, drawn) -> Configuration:
    """Group drawn pairs by color; a color of C_< is put in W_c order."""
    pairs = {c: [] for c in matching_colors(D.L) + bijection_colors(D.L)}
    for a, b in drawn:
        pairs[a[0]].append((a, b))
    return Configuration(
        D, {c: tuple(p if c[0] == c[1] else sorted(p)) for c, p in pairs.items()}
    )


def sample_configuration(D: DegreeSequence, rng: random.Random) -> Configuration:
    """Uniform configuration: sequential uniform pairing per color."""
    return _configuration(D, _pair_draws(D, _pools(D), rng))


def graph_of(sigma: Configuration) -> ColoredMultigraph:
    """The colored multigraph of sigma: one add_edge(c, u, v) per pair, in pair order."""
    D = sigma.D
    G = ColoredMultigraph(D.L, D.n)
    add = G.add_edge
    for c, pairs in sigma.pairs.items():
        for (_, u, _), (_, v, _) in pairs:
            add(c, u, v)
    return G


def colorblind_of(sigma: Configuration) -> Multigraph:
    """colorblind(graph_of(sigma)), in one pass over the pairs of sigma.

    Colors are forgotten: a loop adds 2 to (u, u), any other pair adds 1
    to (min, max).  The weights equal the two-step projection's, entry for
    entry; only the dict's insertion order may differ.
    """
    w: dict = {}
    for (_, u, _), (_, v, _) in itertools.chain(*sigma.pairs.values()):
        key = (u, v) if u <= v else (v, u)
        w[key] = w.get(key, 0) + (2 if u == v else 1)
    return Multigraph(sigma.D.n, w)


def apply_switch(sigma: Configuration, rng: random.Random) -> Configuration:
    """One uniform switch: two pairs (a, b), (x, y) of one color exchange partners.

    The color is uniform among those with two pairs or more, and the two
    pair indices are rng.sample(range(len), 2).  They become (a, y) and
    (x, b).  In a matching the ends of a pair are exchangeable, so one more
    draw, rng.random() < 0.5, gives (a, x) and (b, y) instead of (a, y)
    and (b, x); b leads its new pair.
    """
    candidates = [c for c, p in sigma.pairs.items() if len(p) >= 2]
    if not candidates:
        return sigma
    c = candidates[rng.randrange(len(candidates))]
    pairs = list(sigma.pairs[c])
    i, j = rng.sample(range(len(pairs)), 2)
    (a, b), (x, y) = pairs[i], pairs[j]
    if c[0] == c[1]:
        x, y, b = (b, x, y) if rng.random() < 0.5 else (b, y, x)
    pairs[i], pairs[j] = (a, y), (x, b)
    return Configuration(sigma.D, {**sigma.pairs, c: tuple(pairs)})


def sample_G_Dh(
    D: DegreeSequence, h: int, rng: random.Random, max_attempts: int | None = None
):
    """Rejection sampling of a uniform colored multigraph with no short cycles.

    Accepts once the colorblind projection has no cycle of length <= h.
    Returns (graph, attempts).

    An attempt draws its pairs in :func:`sample_configuration` order and
    stops at the first loop, or at the first pair of vertices joined twice
    over all colors: both are cycles of length <= 2 <= h, so the attempt
    would be rejected whatever the remaining draws.  The law of the
    accepted graph is therefore the one of full attempts, but the random
    stream differs from drawing every attempt in full.  A completed
    attempt is simple, and has_cycle_leq then looks for longer cycles.
    """
    if h < 2:
        raise ValueError("short-cycle-free sampling needs h >= 2")
    cap = max_attempts if max_attempts is not None else 100_000
    pools = _pools(D)
    for attempt in range(1, cap + 1):
        joined = set()
        pairs = []
        for a, b in _pair_draws(D, pools, rng):
            u, v = a[1], b[1]
            key = (u, v) if u < v else (v, u)
            if u == v or key in joined:
                break
            joined.add(key)
            pairs.append((a, b))
        else:
            if not has_cycle_leq(Multigraph(D.n, dict.fromkeys(joined, 1)), h):
                return graph_of(_configuration(D, pairs)), attempt
    raise RejectionExhaustedError(cap)


# ---------------------------------------------------------------------------
# Exact counting
# ---------------------------------------------------------------------------


def double_factorial(n):
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def config_space_size(D: DegreeSequence) -> int:
    out = 1
    for c in bijection_colors(D.L):
        out *= math.factorial(D.S(c))
    for c in matching_colors(D.L):
        out *= double_factorial(D.S(c) - 1)
    return out


def _b_factor(H: ColoredMultigraph) -> int:
    """Product of per-edge-slot multiplicities distinguishing configurations."""
    out = 1
    for c in bijection_colors(H.L):
        for u in range(H.n):
            for v in range(H.n):
                out *= math.factorial(H.omega(c, u, v))
    for c in matching_colors(H.L):
        for u in range(H.n):
            loops = H.omega(c, u, u) // 2
            out *= math.factorial(loops) * 2**loops
            for v in range(u + 1, H.n):
                out *= math.factorial(H.omega(c, u, v))
    return out


def degree_factorials(D: DegreeSequence) -> int:
    """Product of D(u, c)! over vertices u and colors c: the slot orderings."""
    out = 1
    for mat in D.mats:
        for row in mat:
            for x in row:
                out *= math.factorial(x)
    return out


def fiber_size(D: DegreeSequence, H: ColoredMultigraph) -> int:
    """Number of configurations mapping to H: the slot orderings over b(H)."""
    if degree_sequence_of(H) != D:
        raise DegreeMismatchError("graph degrees do not match the sequence")
    return degree_factorials(D) // _b_factor(H)


def cm_probability(D: DegreeSequence, H: ColoredMultigraph) -> Fraction:
    """Probability that the uniform configuration projects to H."""
    return Fraction(fiber_size(D, H), config_space_size(D))


def excess(H: ColoredMultigraph) -> int:
    """Colorblind edge count (loops once) minus vertex count."""
    total_deg = sum(m for m in H.w.values())
    return total_deg // 2 - H.n


def _colored_canon(H: ColoredMultigraph, root=None):
    """canonical_labeling of H: loops and the root in the vertex colors.

    A vertex's color is (is the root, its sorted loop entries (c, m)); the
    label of the arc (u, v) is its sorted entries (c, m) of (c, u, v).
    """
    loops = [[] for _ in range(H.n)]
    arcs = {}
    for (c, u, v), m in H.w.items():
        (loops[u] if u == v else arcs.setdefault((u, v), [])).append((c, m))
    colors = [(u == root, tuple(sorted(lp))) for u, lp in enumerate(loops)]
    return canonical_labeling(
        H.n, colors, {a: tuple(sorted(e)) for a, e in arcs.items()}
    )


def automorphism_count(H: ColoredMultigraph) -> int:
    """Vertex permutations preserving every color weight."""
    return _colored_canon(H)[2]


def _falling(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


def _falling_pairs(S, s):
    """Product (S-1)(S-3)...: one factor per half-edge pair consumed."""
    if s % 2:
        raise ValueError(f"a matching consumes half-edges in pairs, got an odd count {s}")
    out = 1
    for i in range(1, s // 2 + 1):
        out *= S - 2 * i + 1
    return out


def subgraph_count_expectation(
    H: ColoredMultigraph, degrees: DegreeSequence | None = None, limit: dict | None = None
):
    """Expected number of embedded copies of a motif.

    Exactly one of `degrees` (finite-sequence mode, exact rational) or
    `limit` (limit-law mode, the n-free intensity prefactor scaling as
    n^-excess) must be given.  `limit` maps L x L matrices to weights.
    The finite-sequence mode sums over all n!/(n-k)! placements of the
    motif's k vertices.
    """
    if (degrees is None) == (limit is None):
        raise ValueError("give exactly one of degrees= or limit=")
    a = automorphism_count(H)
    b = _b_factor(H)
    dH = degree_sequence_of(H)
    k = H.n
    if degrees is not None:
        D = degrees
        total = Fraction(0)
        for tau in itertools.permutations(range(D.n), k):
            term = Fraction(1)
            for i in range(k):
                for c in all_colors(D.L):
                    need = dH.D(i, c)
                    if need:
                        term *= _falling(D.D(tau[i], c), need)
                if term == 0:
                    break
            total += term
        den = a * b
        for c in bijection_colors(D.L):
            den *= _falling(D.S(c), dH.S(c))
        for c in matching_colors(D.L):
            den *= _falling_pairs(D.S(c), dH.S(c))
        return total / den
    L = H.L
    num = 1.0
    for i in range(k):
        factor = 0.0
        for M, p in limit.items():
            term = float(p)
            for c in all_colors(L):
                need = dH.D(i, c)
                if need:
                    term *= _falling(M[c[0] - 1][c[1] - 1], need)
            factor += term
        num *= factor
    den = float(a * b)
    for c in all_colors(L):
        sc = dH.S(c)
        if sc:
            ed = sum(float(p) * M[c[0] - 1][c[1] - 1] for M, p in limit.items())
            den *= ed ** (sc / 2)
    return num / den


def cycle_family(L: int, h: int):
    """Distinct colored motifs whose colorblind projection is a short cycle.

    Loops have length 1 and parallel pairs length 2.  Deduplicated by
    the canonical certificate of each motif.
    """
    out = []
    seen = set()

    def add(H):
        key = (H.n, _colored_canon(H)[0])
        if key not in seen:
            seen.add(key)
            out.append(H)

    colors = all_colors(L)
    if h >= 1:
        for c in colors:
            if c[0] > c[1]:
                continue
            H = ColoredMultigraph(L, 1)
            H.add_edge(c, 0, 0)
            add(H)
    if h >= 2:
        for c1 in colors:
            for c2 in colors:
                H = ColoredMultigraph(L, 2)
                H.add_edge(c1, 0, 1)
                H.add_edge(c2, 0, 1)
                add(H)
    for ell in range(3, h + 1):
        for combo in itertools.product(colors, repeat=ell):
            H = ColoredMultigraph(L, ell)
            for idx in range(ell):
                H.add_edge(combo[idx], idx, (idx + 1) % ell)
            add(H)
    return out


def short_cycle_intensity(limit: dict, L: int, h: int) -> float:
    """Sum of limiting motif intensities over the short-cycle family.

    Derived estimate: exp(-value) approximates the limiting acceptance
    rate of the short-cycle rejection sampler.
    """
    return sum(
        float(subgraph_count_expectation(H, limit=limit)) for H in cycle_family(L, h)
    )


def acceptance_estimate(limit: dict, L: int, h: int) -> float:
    return math.exp(-short_cycle_intensity(limit, L, h))


# ---------------------------------------------------------------------------
# Lazy exploration
# ---------------------------------------------------------------------------


@dataclass
class ExploredNeighborhood:
    """Depth-k ball of a vertex under the configuration model, lazily paired."""

    root: int
    vertices: dict  # original vertex -> distance from root
    edges: list  # (u, v, color) triples with original ids, one entry per edge
    is_tree: bool

    def signature(self):
        """Canonical key of the rooted colored ball (root-fixing relabelings)."""
        index = {v: i for i, v in enumerate(self.vertices)}
        L = max((max(c) for _u, _v, c in self.edges), default=1)
        H = ColoredMultigraph(L, len(index))
        for u, v, c in self.edges:
            H.add_edge(c, index[u], index[v])
        return (H.n, _colored_canon(H, index[self.root])[0])


def explore_neighborhood(
    D: DegreeSequence, v: int, depth: int, rng: random.Random
) -> ExploredNeighborhood:
    """Sample the depth-k ball of v without building the whole graph.

    Half-edges are revealed in breadth-first order (vertices by discovery,
    slots in the fixed (color, slot) order); each reveal draws a uniform
    partner among the not-yet-matched half-edges of the conjugate color.
    The result is distributed as the ball of v in a full uniform sample.

    Cost: O(n) once per DegreeSequence (its cached offsets and totals),
    then O(ball * L^2) per call, plus one O(log n) bisect per revealed
    half-edge; nothing of size n is built per call.
    """
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    offsets = D.offsets
    # The unmatched half-edges of color c form a virtual array of size[c]
    # entries, initially W_c in half_edges order; a half-edge is named by
    # its position in that initial order.  Removal swaps the last entry
    # into the hole (sparse Fisher-Yates): at[c] (position -> half-edge)
    # and pos[c] (half-edge -> position) record only the moved entries.
    size = dict(D.totals)
    at = {c: {} for c in offsets}
    pos = {c: {} for c in offsets}
    matched = set()  # (color, half-edge)

    def pool_remove(c, he):
        i = pos[c].pop(he, he)
        last = size[c] - 1
        moved = at[c].pop(last, last)
        if moved != he:
            at[c][i] = moved
            pos[c][moved] = i
        size[c] = last

    def draw_partner(c, he):
        target = conj(c)
        if c == target:
            # avoid self-pairing
            my_i = pos[c].get(he, he)
            k = rng.randrange(size[c] - 1)
            if k >= my_i:
                k += 1
        else:
            k = rng.randrange(size[target])
        partner = at[target].get(k, k)
        pool_remove(c, he)
        pool_remove(target, partner)
        matched.add((c, he))
        matched.add((target, partner))
        return bisect.bisect_right(offsets[target], partner) - 1

    colors = all_colors(D.L)
    dist = {v: 0}
    order = [v]
    edges = []
    is_tree = True
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        du = dist[u]
        for c in colors:
            offs = offsets[c]
            for he in range(offs[u], offs[u + 1]):
                if (c, he) in matched:
                    continue
                w = draw_partner(c, he)
                if du >= depth:
                    if w in dist and dist[w] <= depth:
                        edges.append((u, w, c))
                        is_tree = False
                    continue
                if w in dist:
                    is_tree = False
                else:
                    dist[w] = du + 1
                    order.append(w)
                edges.append((u, w, c))
    return ExploredNeighborhood(v, dist, edges, is_tree)


def ball_of(G: ColoredMultigraph, v: int, depth: int) -> ExploredNeighborhood:
    """Induced depth-k ball of v in a realized colored multigraph.

    Produces the same structure as :func:`explore_neighborhood` so the two
    can be compared by signature.
    """
    dist = _ball(colorblind(G).adjacency(), v, depth)
    edges = [(a, b, c) for c, a, b in G.edges() if a in dist and b in dist]
    is_tree = len(edges) == len(dist) - 1 and all(u != w for u, w, _ in edges)
    return ExploredNeighborhood(v, dist, edges, is_tree)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_degree_file(path, D: DegreeSequence):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{D.L} {D.n}\n")
        for u in range(D.n):
            flat = [str(x) for row in D.mats[u] for x in row]
            fh.write(" ".join(flat) + "\n")


def read_degree_file(path) -> DegreeSequence:
    """Header "L n", then exactly n nonblank rows of L * L ints; else ValueError."""
    with open(path, encoding="utf-8") as fh:
        L, n = (int(x) for x in fh.readline().split())
        rows = [[int(x) for x in line.split()] for line in fh if line.strip()]
    if len(rows) != n:
        raise ValueError(f"{path}: header gives {n} rows, the file has {len(rows)}")
    return DegreeSequence.from_rows(L, rows)


def write_colored_graph(path, G: ColoredMultigraph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{G.L} {G.n}\n")
        for (c, u, v), m in sorted(G.w.items()):
            fh.write(f"{u} {v} {c[0]} {c[1]} {m}\n")


def read_colored_graph(path) -> ColoredMultigraph:
    """Header "L n", then one line "u v i j m" per weight w[(i, j), u, v] = m.

    Raises ValueError unless each line has u, v in 0..n-1, i, j in 1..L,
    m >= 1 and a new key, and w[c, u, v] == w[conj c, v, u] throughout.
    """
    with open(path, encoding="utf-8") as fh:
        L, n = (int(x) for x in fh.readline().split())
        w = {}
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            u, v, i, j, m = (int(x) for x in parts)
            key = ((i, j), u, v)
            if not (0 <= u < n and 0 <= v < n and 1 <= i <= L and 1 <= j <= L):
                raise ValueError(
                    f"{path}: {line.strip()!r}: vertices are 0..{n - 1}, colors 1..{L}"
                )
            if m <= 0 or key in w:
                raise ValueError(f"{path}: {line.strip()!r}: weight below 1 or a repeated key")
            w[key] = m
    bad = [key for key, m in w.items() if w.get((_CONJ[key[0]], key[2], key[1])) != m]
    if bad:
        raise ValueError(f"{path}: w{bad[0]} differs from its twin w[conj c, v, u]")
    return ColoredMultigraph(L, n, w)


def write_colorblind(path, G: Multigraph):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{G.n}\n")
        for (u, v), m in sorted(G.w.items()):
            fh.write(f"{u} {v} {m}\n")
