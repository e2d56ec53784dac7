"""The individualization-refinement engine against brute-force searches.

The references below enumerate vertex labelings outright: every labeling
consistent with colour refinement for rooted graphs, every permutation for
colored multigraphs and for explored balls.  They are exponential and
only run on small inputs.  The library answers every colored-isomorphism
question with one search, :func:`ugwldp.rooted.canonical_labeling`; it
must induce the same partition into classes, count the same
automorphisms, and also handle inputs the references cannot.

Colored multigraphs and explored balls go through that search by
:func:`_colored_canon` below, which the library itself does not need.
With it, :func:`signature` keys a ball by its rooted colored class, and
:func:`subgraph_count_expectation` gives the expected count of a motif,
the sum that the closed form :func:`short_cycle_intensity` is checked
against.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from test_pairing_reference import reference_ball_of
from ugwldp.config_model import (
    ColoredMultigraph,
    DegreeSequence,
    ExploredNeighborhood,
    _b_factor,
    all_colors,
    bijection_colors,
    conj,
    degree_sequence_of,
    explore_neighborhood,
    graph_of,
    matching_colors,
    sample_configuration,
    short_cycle_intensity,
)
from ugwldp.rooted import (
    GENERAL,
    _ball,
    canonical_from_adjacency,
    canonical_labeling,
    parse_class,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

_MAX_LABELINGS = 2_000_000


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


def signature(ball: ExploredNeighborhood):
    """Canonical key of the rooted colored ball (root-fixing relabelings)."""
    index = {v: i for i, v in enumerate(ball.vertices)}
    L = max((max(c) for _u, _v, c in ball.edges), default=1)
    H = ColoredMultigraph(L, len(index))
    for u, v, c in ball.edges:
        H.add_edge(c, index[u], index[v])
    return (H.n, _colored_canon(H, index[ball.root])[0])


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
            if not ed:
                return 0.0  # no weighted vertex has color c: the numerator is 0
            den *= ed ** (sc / 2)
    return num / den


def _tree_paren(adj_sets, root):
    """Recursive parenthesis encoding of a labeled rooted tree."""

    def enc(v, parent):
        subs = sorted(enc(w, v) for w in adj_sets[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return enc(root, None)


def reference_refine_partition(adj_sets, order, dist):
    colors = {v: (dist[v], len(adj_sets[v])) for v in order}
    ncells = len(set(colors.values()))
    while True:
        sig = {
            v: (colors[v], tuple(sorted(colors[u] for u in adj_sets[v])))
            for v in order
        }
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colors = {v: ranks[sig[v]] for v in order}
        k = len(set(colors.values()))
        if k == ncells:
            return colors
        ncells = k


def reference_canonical_general(adj_sets, root, dist):
    """Minimum adjacency bytes over labelings consistent with refinement."""
    order = sorted(adj_sets, key=lambda v: (dist[v], v))
    colors = reference_refine_partition(adj_sets, order, dist)
    cells: dict[int, list[int]] = {}
    for v in order:
        cells.setdefault(colors[v], []).append(v)
    cell_list = [cells[c] for c in sorted(cells)]

    total = 1
    for cell in cell_list:
        for i in range(2, len(cell) + 1):
            total *= i
        if total > _MAX_LABELINGS:
            raise ValueError("general canonical form: neighborhood too symmetric/large")

    n = len(order)
    best_bits = None
    best_layout = None
    for perm_combo in itertools.product(
        *[itertools.permutations(cell) for cell in cell_list]
    ):
        layout = [v for cell in perm_combo for v in cell]
        pos = {v: i for i, v in enumerate(layout)}
        bits = 0
        for i, v in enumerate(layout):
            for u in adj_sets[v]:
                j = pos[u]
                if j > i:
                    bits |= 1 << (i * n + j)
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_layout = layout

    assert best_layout is not None
    pos = {v: i for i, v in enumerate(best_layout)}
    rep = tuple(
        tuple(sorted(pos[u] for u in adj_sets[v])) for v in best_layout
    )
    nbytes = (n * n + 7) // 8
    encoding = n.to_bytes(2, "little") + best_bits.to_bytes(max(nbytes, 1), "little")
    return encoding, rep


def reference_key(adj, root, h):
    """Reference encoding of the depth-h ball: parentheses or minimal bytes."""
    dist = _ball(adj, root, h)
    sub = {v: {u for u in adj[v] if u in dist} for v in dist}
    if sum(len(nb) for nb in sub.values()) // 2 == len(sub) - 1:
        return _tree_paren(sub, root)
    return reference_canonical_general(sub, root, dist)[0]


def reference_automorphism_count(H):
    D = degree_sequence_of(H)
    groups = {}
    for u in range(H.n):
        groups.setdefault(D.mats[u], []).append(u)
    count = 0
    blocks = sorted(groups.values())
    for perms in itertools.product(*[itertools.permutations(b) for b in blocks]):
        pi = {}
        for block, perm in zip(blocks, perms):
            for src, dst in zip(block, perm):
                pi[src] = dst
        ok = True
        for (c, u, v), m in H.w.items():
            if H.omega(c, pi[u], pi[v]) != m:
                ok = False
                break
        if ok:
            count += 1
    return count


def reference_motif_key(H):
    """A motif's dedupe key: least sorted entry list over relabelings."""
    return min(
        tuple(
            sorted(
                ((c, pi[u], pi[v]), m) for (c, u, v), m in H.w.items()
            )
        )
        for pi in (
            dict(zip(range(H.n), perm))
            for perm in itertools.permutations(range(H.n))
        )
    )


def reference_cycle_family(L, h):
    out = []
    seen = set()

    def add(H):
        key = reference_motif_key(H)
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


def balanced_limit(L, rng):
    """A limit law whose every color has mean > 0, equal to its conjugate's.

    Three random count matrices, each beside its transpose at equal
    weight, and the all-ones matrix.
    """
    limit = {tuple(tuple(1 for _ in range(L)) for _ in range(L)): 1.0}
    for _ in range(3):
        M = tuple(tuple(rng.randint(0, 3) for _ in range(L)) for _ in range(L))
        w = rng.random()
        for X in (M, tuple(zip(*M))):
            limit[X] = limit.get(X, 0.0) + w
    total = sum(limit.values())
    return {M: w / total for M, w in limit.items()}


def reference_signature(ball):
    verts = sorted(ball.vertices)
    if len(verts) > 9:
        raise ValueError("ball signature is brute force; too many vertices")
    others = [v for v in verts if v != ball.root]
    best = None
    for perm in itertools.permutations(range(1, len(verts))):
        lab = {ball.root: 0}
        lab.update(zip(others, perm))
        key = tuple(
            sorted(
                min((c, lab[u], lab[v]), (conj(c), lab[v], lab[u]))
                for u, v, c in ball.edges
            )
        )
        if best is None or key < best:
            best = key
    return (len(verts), best)


def same_partition(items, key_a, key_b):
    """True when key_a and key_b split the items into the same classes."""
    pairs = {(key_a(x), key_b(x)) for x in items}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def relabeled(adj, perm):
    return {perm[v]: {perm[u] for u in nb} for v, nb in adj.items()}


@st.composite
def rooted_graphs(draw):
    """Two random graphs on one vertex set of 2..9, cycles allowed, a depth,
    and a relabeling of the vertex set."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for _ in range(2):
        adj = {v: set() for v in range(n)}
        for u, v in draw(st.sets(st.sampled_from(pairs), min_size=1)):
            adj[u].add(v)
            adj[v].add(u)
        out.append(adj)
    perm = draw(st.permutations(range(n)))
    return out, draw(st.integers(0, 3)), perm


@st.composite
def colored_multigraphs(draw):
    """Random colored multigraphs, L <= 3 and n <= 6: loops, multi-edges,
    loop-only motifs and twin copies of a vertex."""
    L = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    color = st.sampled_from(all_colors(L))
    vertex = st.integers(0, n - 1)
    H = ColoredMultigraph(L, n)
    if draw(st.booleans()):
        for u in draw(st.lists(vertex, max_size=4)):
            H.add_edge(draw(color), u, u)
    else:
        for _ in range(draw(st.integers(0, 7))):
            H.add_edge(draw(color), draw(vertex), draw(vertex))
    if n < 6 and draw(st.booleans()):
        # a twin: vertex n gets the entries of vertex t
        t = draw(vertex)
        twin = ColoredMultigraph(L, n + 1, H.w)
        for (c, u, v), m in H.w.items():
            if u == t and v == t:
                twin.w[(c, n, n)] = m
            elif u == t:
                twin.w[(c, n, v)] = m
                twin.w[(conj(c), v, n)] = m
        H = twin
    return H


def colored_motif_key(H):
    return (H.n, _colored_canon(H)[0])


def shuffled(H, perm):
    w = {(c, perm[u], perm[v]): m for (c, u, v), m in H.w.items()}
    return ColoredMultigraph(H.L, H.n, w)


class TestRootedClasses:
    @SETTINGS
    @given(rooted_graphs())
    def test_classes_match_reference(self, case):
        (adj_a, adj_b), h, perm = case
        balls = [(adj, r) for adj in (adj_a, adj_b) for r in adj]
        assert same_partition(
            balls,
            lambda b: canonical_from_adjacency(b[0], b[1], h),
            lambda b: reference_key(b[0], b[1], h),
        )
        moved = relabeled(adj_a, perm)
        for r in adj_a:
            want = canonical_from_adjacency(adj_a, r, h)
            assert canonical_from_adjacency(moved, perm[r], h) is want
            assert parse_class(want.wire(), h) is want

    def test_reference_wire_string_parses_to_the_class(self):
        # Old law files hold the reference's wire strings; some differ from
        # the engine's, and parsing re-canonicalizes them.
        found = 0
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(4, 8)
            adj = {v: set() for v in range(n)}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        adj[u].add(v)
                        adj[v].add(u)
            for h in (1, 2, 3):
                dist = _ball(adj, 0, h)
                sub = {v: {u for u in adj[v] if u in dist} for v in dist}
                if sum(len(nb) for nb in sub.values()) // 2 < len(sub):
                    continue
                enc, _ = reference_canonical_general(sub, 0, dist)
                got = canonical_from_adjacency(adj, 0, h)
                assert got.kind == GENERAL
                assert parse_class(f"G{h}:{enc.hex()}") is got
                found += int(enc != got.encoding)
        assert found > 0

    def test_five_cube_ball(self):
        # 16 vertices in three distance cells of sizes 1, 5 and 10: the
        # reference's labeling count 5! * 10! is past its cap.
        adj = {v: {v ^ (1 << i) for i in range(5)} for v in range(32)}
        dist = _ball(adj, 0, 2)
        sub = {v: {u for u in adj[v] if u in dist} for v in dist}
        try:
            reference_canonical_general(sub, 0, dist)
        except ValueError:
            pass
        else:
            raise AssertionError("the reference handles the 5-cube ball")
        got = canonical_from_adjacency(adj, 0, 2)
        assert got.n_vertices == 16 and got.depth == 2
        assert parse_class(got.wire()) is got
        assert canonical_from_adjacency(adj, 31, 2) is got

    def test_engine_counts_cube_automorphisms(self):
        # Aut(Q_d) has 2^d * d! elements; fixing a vertex leaves d!.
        for d in (3, 4, 5):
            n = 1 << d
            arcs = {(v, v ^ (1 << i)): 1 for v in range(n) for i in range(d)}
            assert canonical_labeling(n, [0] * n, arcs)[2] == 2**d * math.factorial(d)
            colors = [int(v == 0) for v in range(n)]
            assert canonical_labeling(n, colors, arcs)[2] == math.factorial(d)


def triangle_with_leaves(k):
    H = ColoredMultigraph(1, 3 + 2 * k)
    for u, v in ((0, 1), (1, 2), (0, 2)):
        H.add_edge((1, 1), u, v)
    for i in range(2 * k):
        H.add_edge((1, 1), 1 + i % 2, 3 + i)
    return H


def cycle_motif(ell):
    H = ColoredMultigraph(1, ell)
    for i in range(ell):
        H.add_edge((1, 1), i, (i + 1) % ell)
    return H


class TestColoredMultigraphs:
    @SETTINGS
    @given(colored_multigraphs(), colored_multigraphs(), st.permutations(range(6)))
    def test_automorphisms_and_classes_match_reference(self, H, H2, perm):
        assert automorphism_count(H) == reference_automorphism_count(H)
        perm = [p for p in perm if p < H.n]
        motifs = [H, shuffled(H, perm), H2]
        assert same_partition(
            motifs,
            colored_motif_key,
            lambda x: (x.n, reference_motif_key(x)),
        )

    def test_loop_only_motifs_stay_apart(self):
        one, two = ColoredMultigraph(1, 2), ColoredMultigraph(1, 2)
        one.add_edge((1, 1), 0, 0)
        two.add_edge((1, 1), 0, 0)
        two.add_edge((1, 1), 1, 1)
        assert colored_motif_key(one) != colored_motif_key(two)
        assert automorphism_count(one) == 1 and automorphism_count(two) == 2

    def test_short_cycle_intensity_matches_reference_motif_sum(self):
        # the closed form tr(B^l)/(2l) against the brute-force family's
        # motifs, summed one limit intensity at a time
        rng = random.Random(23)
        # the last limit is unbalanced, e(c) != e(conj c): the sqrt split of
        # each edge's denominator must match the motifs' prod e(c)^(S_c/2)
        unbalanced = {((1, 2), (3, 1)): 0.25, ((2, 1), (1, 1)): 0.75}
        cases = [(L, h, balanced_limit(L, rng)) for L, h in ((1, 4), (2, 3), (2, 4), (3, 3))]
        for L, h, limit in cases + [(2, 3, unbalanced)]:
            want = sum(
                subgraph_count_expectation(H, limit=limit)
                for H in reference_cycle_family(L, h)
            )
            got = short_cycle_intensity(limit, L, h)
            assert abs(got - want) <= 1e-12 * want, (L, h, got, want)

    def test_triangle_with_six_leaves_each(self):
        assert automorphism_count(triangle_with_leaves(6)) == 2 * math.factorial(6) ** 2

    def test_ten_cycle(self):
        assert automorphism_count(cycle_motif(10)) == 20


def explored_balls():
    sequences = [
        DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2], [0, 1, 1, 2]]),
        DegreeSequence.single_color([3, 3, 2, 2, 1, 1]),
        DegreeSequence.single_color([2] * 7),
        DegreeSequence.from_rows(
            2, [[2, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 2], [1, 0, 1, 1]]
        ),
    ]
    rng = random.Random(11)
    for D in sequences:
        for v in range(D.n):
            for depth in (1, 2, 3):
                for _ in range(15):
                    yield explore_neighborhood(D, v, depth, rng)
                    yield reference_ball_of(graph_of(sample_configuration(D, rng)), v, depth)


class TestSignature:
    def test_partition_matches_reference(self):
        balls = [b for b in explored_balls() if len(b.vertices) <= 9]
        assert len(balls) > 1000
        assert len({reference_signature(b) for b in balls}) > 50
        assert same_partition(balls, signature, reference_signature)

    def test_large_ball(self):
        # On 2000 vertices a depth-3 ball of a 3-regular graph is nearly
        # always the 22-vertex tree.
        D = DegreeSequence.single_color([3] * 2000)
        rng = random.Random(4)
        by_sig = defaultdict(list)
        for v in range(12):
            ball = explore_neighborhood(D, v, 3, rng)
            assert len(ball.vertices) > 9
            by_sig[signature(ball)].append(ball)
        assert max(map(len, by_sig.values())) > 1
        ball = next(iter(by_sig.values()))[0]
        perm = list(range(2000))
        random.Random(5).shuffle(perm)
        moved = ExploredNeighborhood(
            perm[ball.root],
            {perm[v]: d for v, d in ball.vertices.items()},
            [(perm[u], perm[v], conj(c)) for v, u, c in ball.edges],
            ball.is_tree,
        )
        assert signature(moved) == signature(ball)
