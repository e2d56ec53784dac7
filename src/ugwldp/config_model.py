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
from types import MappingProxyType

from .rooted import SimpleGraph, _check_int, _has_short_cycle

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

    Per-color totals, nonnegativity, half-edge offsets and half-edge owners
    are derived once, on first use, and reused by every later call on the
    same sequence.
    """

    L: int
    mats: tuple  # n matrices, each a tuple of L tuples of ints

    @staticmethod
    def from_rows(L, rows):
        """One row of exactly L * L ints per vertex: its matrix, row by row."""
        _check_int("L", L, 1)
        for u, row in enumerate(rows):
            if len(row) != L * L:
                raise ValueError(f"row {u} has {len(row)} entries, expected {L * L}")
            for x in row:
                _check_int("degree", x)
        mats = tuple(tuple(tuple(row[i * L : (i + 1) * L]) for i in range(L)) for row in rows)
        return DegreeSequence(L, mats)

    @staticmethod
    def single_color(degrees):
        for d in degrees:
            _check_int("degree", d)
        return DegreeSequence(1, tuple(((d,),) for d in degrees))

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
    def owners(self):
        """Color -> the owner vertex of each half-edge of W_c, in W_c order."""
        return {
            c: tuple(
                itertools.chain.from_iterable(
                    itertools.repeat(u, mat[c[0] - 1][c[1] - 1])
                    for u, mat in enumerate(self.mats)
                )
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
    """Undirected multigraph on 0..n-1, stored as its vertex-indexed adjacency.

    adj[u] maps each neighbour v != u to the multiplicity of the edge uv,
    so adj[u][v] == adj[v][u] and iterating adj[u] gives u's neighbours,
    as the girth code of :mod:`rooted` reads them; loops[u] counts the
    loops at u.  Multigraph(n, w) builds it from a weight dict whose keys
    are (u, v) with 0 <= u <= v < n and whose counts are ints >= 1, two
    per loop on the diagonal; anything else raises ValueError.  The
    projections :func:`colorblind` and :func:`colorblind_of` write adj and
    loops directly, and the readers of the cycle statistics take them as
    stored.  `w` derives the weight dict back, in O(n + edges log deg)
    per read, for the file writer and the brute-force oracle.
    """

    __slots__ = ("n", "adj", "loops")

    def __init__(self, n, w=None):
        _check_int("n", n, 0)
        adj = [{} for _ in range(n)]
        loops = [0] * n
        for key, m in (w or {}).items():
            u, v = key
            _check_int("vertex", u, 0)
            _check_int("vertex", v, 0)
            if u > v or v >= n:
                raise ValueError(f"weight key {key!r} is not (u, v) with u <= v < {n}")
            _check_int(f"weight of {key!r}", m, 1)
            if u == v:
                if m % 2:
                    raise ValueError(f"weight of loop {key!r} is odd: a loop weighs 2, got {m}")
                loops[u] = m // 2
            else:
                adj[u][v] = adj[v][u] = m
        self.n, self.adj, self.loops = n, adj, loops

    @classmethod
    def _of(cls, n, adj, loops):
        """The multigraph of a prepared adjacency and loop list, taken as they are."""
        G = cls.__new__(cls)
        G.n, G.adj, G.loops = n, adj, loops
        return G

    @property
    def w(self):
        """The weight dict, derived and read-only: (u, v) with u <= v -> count, in sorted order.

        A loop weighs 2, so the count at (u, u) is 2 * loops[u].
        """
        out = {}
        for u, (nbrs, k) in enumerate(zip(self.adj, self.loops)):
            if k:
                out[(u, u)] = 2 * k
            for v in sorted(nbrs):
                if v > u:
                    out[(u, v)] = nbrs[v]
        return MappingProxyType(out)

    def weight(self, u, v):
        return 2 * self.loops[u] if u == v else self.adj[u].get(v, 0)


def colorblind(G: ColoredMultigraph) -> Multigraph:
    """Forget the colors of G: one pass over its weights writes adj and loops.

    A key (c, u, v) with u < v adds its weight to the edge uv, and its
    twin (conj c, v, u) is skipped; the loop weights at u, two per loop
    over the keys (c, u, u), are summed and halved.  Cost O(n + |G.w|).
    """
    adj = [{} for _ in range(G.n)]
    loops = [0] * G.n
    for (_, u, v), m in G.w.items():
        if u < v:
            au = adj[u]
            au[v] = adj[v][u] = au.get(v, 0) + m
        elif u == v:
            loops[u] += m
    return Multigraph._of(G.n, adj, [k // 2 for k in loops])


def colorblind_simple(G: ColoredMultigraph):
    """Colorblind projection as a SimpleGraph; raises on loops or multi-edges."""
    bar = colorblind(G)
    edges = []
    for (u, v), m in bar.w.items():
        if u == v or m > 1:
            raise ValueError("colorblind projection is not simple")
        edges.append((u, v))
    return SimpleGraph.from_edges(G.n, edges)


def has_cycle_leq(G: Multigraph, h: int) -> bool:
    """Any cycle of length <= h: loops count as 1, double edges as 2.

    Loops are read off G.loops and double edges off G.adj; for h >= 3 the
    girth of the underlying simple graph is tested on G.adj itself by
    :func:`rooted._has_short_cycle`.  Cost O(n + edges), plus that girth
    test.
    """
    _check_int("h", h, 1)
    if any(G.loops):
        return True
    if h >= 2 and any(m >= 2 for nbrs in G.adj for m in nbrs.values()):
        return True
    if h < 3:
        return False
    return _has_short_cycle(G.adj, h)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclass
class Configuration:
    """A pairing of every half-edge of D, named by owners: color -> its pairs (u, v).

    Colors come in C_= order, then C_< order.  A diagonal color c holds a
    perfect matching of W_c; a color c of C_< pairs every half-edge of W_c
    with one of W_conj(c).  In a pair (u, v), u owns the first half-edge
    and v the second.  Every reader (:func:`graph_of`, :func:`colorblind_of`,
    :func:`apply_switch`, the oracle's fiber counts) needs only the
    owners, so a pair holds no slot.  Each pair is one edge of
    :func:`graph_of`.  :func:`sample_configuration` keeps the lists of
    :func:`_draw_pairs` in drawn order, one tuple copy per color.
    """

    D: DegreeSequence
    pairs: dict


def _below(getrandbits, m):
    """Uniform integer in [0, m) for m >= 1: rejection on m.bit_length() random bits.

    The algorithm of Random._randbelow_with_getrandbits in CPython 3.11,
    without randrange's argument checks, so rng.randrange(m) and
    _below(rng.getrandbits, m) draw the same values from the same stream.
    """
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    return r


def _draw_pairs(D: DegreeSequence, rng: random.Random, joined=None):
    """The owner pairs of a uniform configuration: color -> list of (u, v), in drawn order.

    The half-edges of W_c are named by their owners, D.owners[c], in W_c
    order; only that pool is copied.  Each diagonal color c is a
    sequential matching: the least unmatched half-edge of W_c gets a
    uniform partner among the rest.  Each color c of C_< is a Fisher-Yates
    shuffle of W_conj(c), the one random.shuffle performs, with the same
    draws; position i is final once step i is done, and (owner of W_c[i],
    owner of its partner) is then appended, so the list runs from the
    last half-edge of W_c to the first.  Every draw is the stream of
    rng.randrange: one :func:`_below` per bijection step, and the same
    rejection written out in the matching loop, where a one-color D makes
    all of its draws.  With `joined`, a set of owner pairs (u, v), u < v,
    each pair's owners are added to it, and the draws stop with None at
    the first loop or the first pair of owners already joined.  Cost per
    call: one copy of each pool, then one draw and one append per pair.
    """
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    pools = D.owners
    bits = rng.getrandbits
    out = {}
    for c in matching_colors(D.L):
        pool = list(pools[c])
        out[c] = drawn = []
        # pool[lo:end] holds the unmatched entries
        lo, end = 0, len(pool)
        while lo < end:
            m = end - lo - 1
            k = m.bit_length()
            r = bits(k)
            while r >= m:
                r = bits(k)
            r += lo + 1
            a, b = pool[lo], pool[r]
            if joined is not None:
                key = (a, b) if a < b else (b, a)
                if a == b or key in joined:
                    return None
                joined.add(key)
            drawn.append((a, b))
            end -= 1
            pool[r] = pool[end]
            lo += 1
    for c in bijection_colors(D.L):
        left = pools[c]
        perm = list(pools[_CONJ[c]])
        out[c] = drawn = []
        # position i is read once, at its own step, so the swap writes only j
        for i in range(len(perm) - 1, -1, -1):
            j = _below(bits, i + 1) if i else 0
            a, b = left[i], perm[j]
            perm[j] = perm[i]
            if joined is not None:
                key = (a, b) if a < b else (b, a)
                if a == b or key in joined:
                    return None
                joined.add(key)
            drawn.append((a, b))
    return out


def sample_configuration(D: DegreeSequence, rng: random.Random) -> Configuration:
    """Uniform configuration: sequential uniform pairing per color.

    The owner pairs of :func:`_draw_pairs`, in drawn order, a color of C_<
    from the last half-edge of W_c to the first.  Cost: O(n L^2) once per
    D for its cached owner pools, then per sample one copy of each pool,
    one draw and one append per pair, and one tuple copy per color:
    O(half-edges).
    """
    return Configuration(D, {c: tuple(p) for c, p in _draw_pairs(D, rng).items()})


def graph_of(sigma: Configuration) -> ColoredMultigraph:
    """The colored multigraph of sigma: one add_edge(c, u, v) per pair, in pair order."""
    D = sigma.D
    G = ColoredMultigraph(D.L, D.n)
    add = G.add_edge
    for c, pairs in sigma.pairs.items():
        for u, v in pairs:
            add(c, u, v)
    return G


def colorblind_of(sigma: Configuration) -> Multigraph:
    """colorblind(graph_of(sigma)), in one pass over the pairs of sigma.

    Colors are forgotten: a loop adds 1 to loops[u], any other pair adds 1
    to the multiplicity at adj[u][v] and adj[v][u].  The result equals the
    two-step projection's, neighbour for neighbour and in the same order.
    Cost O(n + pairs).
    """
    n = sigma.D.n
    adj = [{} for _ in range(n)]
    loops = [0] * n
    for u, v in itertools.chain(*sigma.pairs.values()):
        if u == v:
            loops[u] += 1
            continue
        au = adj[u]
        if v in au:
            au[v] = adj[v][u] = au[v] + 1
        else:
            au[v] = adj[v][u] = 1
    return Multigraph._of(n, adj, loops)


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


def _simple_sample(D: DegreeSequence, h: int, rng: random.Random, max_attempts=None):
    """The attempt loop of :func:`sample_G_Dh`: (simple graph, draws, attempts).

    An attempt is :func:`_draw_pairs` with a fresh `joined` set, so it
    stops at the first loop, or at the first pair of vertices joined twice
    over all colors: both are cycles of length <= 2 <= h, so the attempt
    would be rejected whatever the remaining draws.  A completed attempt is simple; for h >= 3 its girth
    is tested by :func:`rooted._has_short_cycle`.  The accepted attempt
    gives SimpleGraph(D.n, its joined set), the colorblind projection, and
    its draws as :func:`_draw_pairs` lists them: color -> list of owner
    pairs (u, v), one per edge, in drawn order.  max_attempts caps the
    attempts: an int >= 1, or None for 100000; anything else raises
    ValueError before the first draw.  Cost per attempt: that of
    :func:`_draw_pairs`, one set test and insert per pair included.
    """
    _check_int("h", h, 2)
    cap = 100_000 if max_attempts is None else max_attempts
    _check_int("max_attempts", cap, 1)
    for attempt in range(1, cap + 1):
        joined = set()
        drawn = _draw_pairs(D, rng, joined)
        if drawn is not None:
            G = SimpleGraph(D.n, frozenset(joined))
            if h < 3 or not _has_short_cycle(G.adjacency(), h):
                return G, drawn, attempt
    raise RejectionExhaustedError(cap)


def sample_G_Dh(
    D: DegreeSequence, h: int, rng: random.Random, max_attempts: int | None = None
):
    """Rejection sampling of a uniform colored multigraph with no short cycles.

    Accepts once the colorblind projection has no cycle of length <= h.
    Returns (graph, attempts): the graph is :func:`graph_of` the
    Configuration of the accepted attempt of :func:`_simple_sample`, its
    owner pairs in drawn order, and that attempt's simple graph is its
    colorblind projection.

    An attempt stops at its first loop or double edge, so the law of the
    accepted graph is the one of full attempts, but the random stream
    differs from drawing every attempt in full.  Cost per attempt: O(L^2 +
    half-edges), plus the 2-core girth test of a completed one for h >= 3.
    """
    _, draws, attempts = _simple_sample(D, h, rng, max_attempts)
    return graph_of(Configuration(D, draws)), attempts


# ---------------------------------------------------------------------------
# Exact counting
# ---------------------------------------------------------------------------


def double_factorial(n):
    return math.prod(range(n, 0, -2))


def config_space_size(D: DegreeSequence) -> int:
    out = 1
    for c in bijection_colors(D.L):
        out *= math.factorial(D.S(c))
    for c in matching_colors(D.L):
        out *= double_factorial(D.S(c) - 1)
    return out


def _b_factor(H: ColoredMultigraph) -> int:
    """Product of per-edge-slot multiplicities distinguishing configurations.

    One pass over the stored weights, each slot read from one of its two
    keys: m! where c[0] < c[1], or c is diagonal and u < v, and (m/2)!
    2^(m/2) for a diagonal loop, which counts each of its m/2 loops twice.
    """
    out = 1
    for (c, u, v), m in H.w.items():
        if c[0] < c[1] or c[0] == c[1] and u < v:
            out *= math.factorial(m)
        elif c[0] == c[1] and u == v:
            out *= math.factorial(m // 2) * 2 ** (m // 2)
    return out


def degree_factorials(D: DegreeSequence) -> int:
    """Product of D(u, c)! over vertices u and colors c: the slot orderings."""
    return math.prod(math.factorial(x) for mat in D.mats for row in mat for x in row)


def fiber_size(D: DegreeSequence, H: ColoredMultigraph) -> int:
    """Number of configurations mapping to H: the slot orderings over b(H)."""
    if degree_sequence_of(H) != D:
        raise DegreeMismatchError("graph degrees do not match the sequence")
    return degree_factorials(D) // _b_factor(H)


def cm_probability(D: DegreeSequence, H: ColoredMultigraph) -> Fraction:
    """Probability that the uniform configuration projects to H."""
    return Fraction(fiber_size(D, H), config_space_size(D))


def short_cycle_intensity(limit: dict, L: int, h: int) -> float:
    """Limiting mean number of cycles of length <= h, loops and double edges too.

    exp(-value) is the limiting acceptance rate of the short-cycle
    rejection sampler.  With e(c) = sum p(M) M[c] the mean of color c, a
    color is live when e(c) e(conj c) > 0; over live colors, the walk
    that enters a vertex through a conj(c) half-edge and leaves it through
    a c' half-edge has weight
    B[c][c'] = sum p(M) M[conj c] (M[c'] - [c' = conj c]) / sqrt(e(c) e(conj c)),
    and an l-cycle is a closed walk up to its l rotations and 2
    directions, so lambda_l = tr(B^l) / (2l).  A color that is not live
    closes no cycle.  Cost: O(|limit| L^4) for B, then O(h L^6).
    """
    _check_int("L", L, 1)
    _check_int("h", h, 1)
    rows = [(float(p), [x for row in M for x in row]) for M, p in limit.items()]
    mean = [sum(p * m[k] for p, m in rows) for k in range(L * L)]
    bar = [(k % L) * L + k // L for k in range(L * L)]  # flat index of conj
    live = [k for k in range(L * L) if mean[k] * mean[bar[k]] > 0]
    B = [
        [
            sum(p * m[bar[k]] * (m[j] - (j == bar[k])) for p, m in rows)
            / math.sqrt(mean[k] * mean[bar[k]])
            for j in live
        ]
        for k in live
    ]
    total, walk = 0.0, B
    for ell in range(1, h + 1):
        if ell > 1:
            walk = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in walk]
        total += sum(walk[i][i] for i in range(len(live))) / (2 * ell)
    return total


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
    _check_int("v", v, 0)
    if v >= D.n:
        raise ValueError(f"v must be < {D.n}, got {v!r}")
    _check_int("depth", depth, 0)
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    offsets = D.offsets
    # The unmatched half-edges of color c form a virtual array of size[c]
    # entries, initially W_c; a half-edge is named by its position in W_c.
    # Removal swaps the last entry into the hole (sparse Fisher-Yates):
    # at[c] (position -> half-edge) and pos[c] (half-edge -> position)
    # record only the moved entries.
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
    m >= 1, an even m on a loop of a diagonal color, and a new key, and
    w[c, u, v] == w[conj c, v, u] throughout.
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
            if i == j and u == v and m % 2:
                raise ValueError(
                    f"{path}: {line.strip()!r}: a loop of a diagonal color weighs 2 per edge"
                )
            w[key] = m
    bad = [key for key, m in w.items() if w.get((_CONJ[key[0]], key[2], key[1])) != m]
    if bad:
        raise ValueError(f"{path}: w{bad[0]} differs from its twin w[conj c, v, u]")
    return ColoredMultigraph(L, n, w)


def write_colorblind(path, G: Multigraph):
    """Header "n", then one line "u v m" per weight G.w[(u, v)] = m, in sorted order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{G.n}\n")
        for (u, v), m in G.w.items():
            fh.write(f"{u} {v} {m}\n")
