"""Pairing samplers, the pair-to-weight rule and the girth test against references.

The references below are the materialized-pool forms of the lazy
exploration, the sequential pairing and one rejection attempt: they build
every half-edge pool up front, and pair half-edges (c, u, slot).  A color
of C_< is listed in drawn order, from the last half-edge of W_c to the
first.  The library names each half-edge by its owner, so a reference's
pairs are projected to owners (:func:`owner_pairs`) before they are
compared or handed to graph_of.  The library versions must return the
same result and leave the random generator in the same state, on the
same seed; an accepted attempt's draws must also come in the reference's
drawn order.

A second set keeps a configuration as two containers, a tuple of pairs per
diagonal color and a dict half-edge -> partner per color of C_<, with the
weight rule written out per case in add_edge and graph_of, the induced
ball inverted by hand, and a switch per container.  The one-dict
Configuration, ColoredMultigraph.add_edge and ColoredMultigraph.edges must
give the same weights, in the same insertion order, and the same switched
pairs and generator state.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.config_model import (
    ColoredMultigraph,
    Configuration,
    DegreeSequence,
    ExploredNeighborhood,
    InvalidDegreeSequenceError,
    Multigraph,
    RejectionExhaustedError,
    _simple_sample,
    all_colors,
    apply_switch,
    bijection_colors,
    colorblind,
    conj,
    explore_neighborhood,
    graph_of,
    has_cycle_leq,
    matching_colors,
    sample_configuration,
    sample_G_Dh,
    validate_degree_sequence,
)
from ugwldp.oracle import _has_short_cycle_brute, half_edges
from ugwldp.rooted import _ball

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def reference_explore(D, v, depth, rng):
    """Lazy exploration over fully materialized half-edge pools."""
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    pools = {}
    index = {}
    for c in all_colors(D.L):
        hes = half_edges(D, c)
        pools[c] = hes
        index.update({he: (c, i) for i, he in enumerate(hes)})
    matched = {}

    def pool_remove(he):
        c, i = index[he]
        pool = pools[c]
        last = pool[-1]
        pool[i] = last
        index[last] = (c, i)
        pool.pop()
        del index[he]

    def draw_partner(he):
        c = he[0]
        target = conj(c)
        pool = pools[target]
        if c == target:
            my_c, my_i = index[he]
            k = rng.randrange(len(pool) - 1)
            if k >= my_i:
                k += 1
            partner = pool[k]
        else:
            partner = pool[rng.randrange(len(pool))]
        pool_remove(he)
        pool_remove(partner)
        matched[he] = partner
        matched[partner] = he
        return partner

    dist = {v: 0}
    order = [v]
    edges = []
    is_tree = True
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        du = dist[u]
        for c in all_colors(D.L):
            for j in range(1, D.D(u, c) + 1):
                he = (c, u, j)
                if he in matched:
                    continue
                if du >= depth:
                    partner = draw_partner(he)
                    w = partner[1]
                    if w in dist and dist[w] <= depth:
                        edges.append((u, w, c))
                        is_tree = False
                    continue
                partner = draw_partner(he)
                w = partner[1]
                if w in dist:
                    is_tree = False
                else:
                    dist[w] = du + 1
                    order.append(w)
                edges.append((u, w, c))
    return ExploredNeighborhood(v, dist, edges, is_tree)


def reference_configuration(D, rng):
    """Sequential pairing that pops the least unmatched half-edge off the front."""
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    out = {}
    for c in matching_colors(D.L):
        pool = half_edges(D, c)
        pairs = []
        while pool:
            first = pool[0]
            k = rng.randrange(1, len(pool))
            partner = pool[k]
            pairs.append((first, partner))
            pool[k] = pool[-1]
            pool.pop()
            pool.pop(0)
        out[c] = tuple(pairs)
    for c in bijection_colors(D.L):
        perm = list(half_edges(D, conj(c)))
        rng.shuffle(perm)
        out[c] = tuple(zip(half_edges(D, c), perm))[::-1]
    return Configuration(D, out)


def reference_attempt(D, rng):
    """One rejection attempt over materialized pools, in sample_configuration order.

    Draws like reference_configuration, with random.shuffle's steps spelled
    out for the bijections, and returns None at the first pair that makes
    a loop or joins two vertices already joined, over all colors.
    """
    if not validate_degree_sequence(D):
        raise InvalidDegreeSequenceError("degree sequence outside the valid set")
    joined = set()

    def defect(a, b):
        pair = frozenset((a[1], b[1]))
        if len(pair) == 1 or pair in joined:
            return True
        joined.add(pair)
        return False

    out = {}
    for c in matching_colors(D.L):
        pool = half_edges(D, c)
        pairs = []
        while pool:
            first = pool[0]
            k = rng.randrange(1, len(pool))
            partner = pool[k]
            if defect(first, partner):
                return None
            pairs.append((first, partner))
            pool[k] = pool[-1]
            pool.pop()
            pool.pop(0)
        out[c] = tuple(pairs)
    for c in bijection_colors(D.L):
        left = half_edges(D, c)
        perm = half_edges(D, conj(c))
        # random.shuffle swaps position i with a uniform j <= i, i falling;
        # position i is final after its swap
        for i in reversed(range(len(perm))):
            if i:
                j = rng.randrange(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            if defect(left[i], perm[i]):
                return None
        out[c] = tuple(zip(left, perm))[::-1]
    return Configuration(D, out)


def owner_pairs(sigma):
    """The half-edge pairs of sigma named by their owners, in the same order."""
    return Configuration(
        sigma.D, {c: tuple((a[1], b[1]) for a, b in p) for c, p in sigma.pairs.items()}
    )


def split_containers(sigma):
    """(matchings, bijections): tuples of pairs, and dicts half-edge -> partner."""
    matchings = {c: sigma.pairs[c] for c in matching_colors(sigma.D.L)}
    bijections = {c: dict(sigma.pairs[c]) for c in bijection_colors(sigma.D.L)}
    return matchings, bijections


def reference_add_edge(G, c, u, v):
    """The weight rule written out for loops and non-loops of both color kinds."""
    cb = conj(c)
    if u == v:
        if c == cb:
            G.w[(c, u, u)] = G.w.get((c, u, u), 0) + 2
        else:
            G.w[(c, u, u)] = G.w.get((c, u, u), 0) + 1
            G.w[(cb, u, u)] = G.w.get((cb, u, u), 0) + 1
    else:
        G.w[(c, u, v)] = G.w.get((c, u, v), 0) + 1
        G.w[(cb, v, u)] = G.w.get((cb, v, u), 0) + 1


def reference_graph_of(sigma):
    matchings, bijections = split_containers(sigma)
    D = sigma.D
    G = ColoredMultigraph(D.L, D.n)
    for c, pairs in matchings.items():
        for (c1, u, _), (c2, v, _) in pairs:
            if u == v:
                G.w[(c, u, u)] = G.w.get((c, u, u), 0) + 2
            else:
                G.w[(c, u, v)] = G.w.get((c, u, v), 0) + 1
                G.w[(c, v, u)] = G.w.get((c, v, u), 0) + 1
    for c, bij in bijections.items():
        cb = conj(c)
        for (c1, u, _), (c2, v, _) in bij.items():
            if u == v:
                G.w[(c, u, u)] = G.w.get((c, u, u), 0) + 1
                G.w[(cb, u, u)] = G.w.get((cb, u, u), 0) + 1
            else:
                G.w[(c, u, v)] = G.w.get((c, u, v), 0) + 1
                G.w[(cb, v, u)] = G.w.get((cb, v, u), 0) + 1
    return G


def reference_apply_switch(sigma, rng):
    """One switch on the two containers; returned as a one-dict Configuration."""
    matchings, bijections = split_containers(sigma)
    candidates = [c for c in matching_colors(sigma.D.L) if len(matchings[c]) >= 2]
    candidates += [c for c in bijection_colors(sigma.D.L) if len(bijections[c]) >= 2]
    if not candidates:
        return sigma
    c = candidates[rng.randrange(len(candidates))]
    if c in matchings:
        pairs = list(matchings[c])
        i, j = rng.sample(range(len(pairs)), 2)
        (a, b), (x, y) = pairs[i], pairs[j]
        if rng.random() < 0.5:
            pairs[i], pairs[j] = (a, x), (b, y)
        else:
            pairs[i], pairs[j] = (a, y), (b, x)
        matchings[c] = tuple(pairs)
    else:
        bij = dict(bijections[c])
        keys = sorted(bij, reverse=True)  # drawn order
        i, j = rng.sample(range(len(keys)), 2)
        k1, k2 = keys[i], keys[j]
        bij[k1], bij[k2] = bij[k2], bij[k1]
        bijections[c] = bij
    pairs = dict(matchings)
    pairs.update((c, tuple(bij.items())) for c, bij in bijections.items())
    return Configuration(sigma.D, pairs)


def reference_ball_of(G, v, depth):
    """Induced ball, one edge per pair of twin weight entries, inverted by hand."""
    dist = _ball(colorblind(G).adj, v, depth)
    edges = []
    for (c, a, b), m in sorted(G.w.items()):
        if a not in dist or b not in dist:
            continue
        if a == b:
            if c != min(c, conj(c)):
                continue  # the conjugate entry carries the same loops
            count = m // 2 if c == conj(c) else m
            edges.extend((a, a, c) for _ in range(count))
        else:
            if (c, a, b) <= (conj(c), b, a):
                edges.extend((a, b, c) for _ in range(m))
    is_tree = len(edges) == len(dist) - 1 and all(u != w for u, w, _ in edges)
    return ExploredNeighborhood(v, dist, edges, is_tree)


@st.composite
def degree_sequences(draw, max_L=3, max_n=12, max_count=2):
    """Valid sequences: small random counts, then balanced and made even."""
    L = draw(st.integers(1, max_L))
    n = draw(st.integers(1, max_n))
    flat = draw(st.lists(st.integers(0, max_count), min_size=n * L * L, max_size=n * L * L))
    mats = [[flat[(u * L + i) * L : (u * L + i + 1) * L] for i in range(L)] for u in range(n)]
    vertex = st.integers(0, n - 1)
    for i in range(L):
        for j in range(i + 1, L):
            gap = sum(m[i][j] for m in mats) - sum(m[j][i] for m in mats)
            if gap > 0:
                mats[draw(vertex)][j][i] += gap
            elif gap < 0:
                mats[draw(vertex)][i][j] -= gap
        if sum(m[i][i] for m in mats) % 2:
            mats[draw(vertex)][i][i] += 1
    D = DegreeSequence(L, tuple(tuple(tuple(row) for row in m) for m in mats))
    assert validate_degree_sequence(D)
    return D


@st.composite
def multigraphs(draw, max_n=7):
    """Simple edges plus a few extra loops and parallel edges."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    w = {}
    for u, v in draw(st.sets(st.tuples(vertex, vertex), max_size=12)):
        if u != v:
            w[(min(u, v), max(u, v))] = 1
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2)):
        key = (min(u, v), max(u, v))
        w[key] = w.get(key, 0) + (2 if u == v else 1)
    return Multigraph(n, w)


class TestAgainstReference:
    @SETTINGS
    @given(D=degree_sequences(), data=st.data(), seed=st.integers(0, 2**32))
    def test_explore_matches_reference(self, D, data, seed):
        v = data.draw(st.integers(0, D.n - 1))
        depth = data.draw(st.integers(0, 3))
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = explore_neighborhood(D, v, depth, rng)
        want = reference_explore(D, v, depth, ref_rng)
        assert got == want
        assert rng.getstate() == ref_rng.getstate()

    @SETTINGS
    @given(D=degree_sequences(), seed=st.integers(0, 2**32))
    def test_repeated_balls_match_reference(self, D, seed):
        # one generator across many balls of one sequence, as a caller
        # exploring several roots does
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for v in range(D.n):
            assert explore_neighborhood(D, v, 2, rng) == reference_explore(D, v, 2, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    @SETTINGS
    @given(D=degree_sequences(), seed=st.integers(0, 2**32))
    def test_configuration_matches_reference(self, D, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = sample_configuration(D, rng)
        want = reference_configuration(D, ref_rng)
        assert got.pairs == owner_pairs(want).pairs
        assert rng.getstate() == ref_rng.getstate()

    @SETTINGS
    @given(D=degree_sequences(), seed=st.integers(0, 2**32))
    def test_pairs_name_every_half_edge_by_its_owner(self, D, seed):
        # a color of C_< runs from the last half-edge of W_c to the first,
        # and its partners are the half-edges of W_conj(c), each once
        pairs = sample_configuration(D, random.Random(seed)).pairs
        for c in matching_colors(D.L):
            assert sorted(x for pair in pairs[c] for x in pair) == list(D.owners[c])
        for c in bijection_colors(D.L):
            assert [u for u, _ in pairs[c]] == list(reversed(D.owners[c]))
            assert sorted(v for _, v in pairs[c]) == list(D.owners[conj(c)])

    @SETTINGS
    @given(D=degree_sequences(max_L=2, max_n=8), h=st.integers(2, 5), seed=st.integers(0, 2**32))
    def test_short_cycle_free_sampler_matches_reference(self, D, h, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        try:
            got = sample_G_Dh(D, h, rng, max_attempts=20)
        except RejectionExhaustedError:
            got = None
        want = None
        for attempt in range(1, 21):
            sigma = reference_attempt(D, ref_rng)
            if sigma is None:
                continue
            G = graph_of(owner_pairs(sigma))
            if not _has_short_cycle_brute(colorblind(G), h):
                want = (G, attempt)
                break
        assert got == want
        assert rng.getstate() == ref_rng.getstate()

    @SETTINGS
    @given(D=degree_sequences(max_L=3, max_n=30, max_count=1), seed=st.integers(0, 2**32))
    def test_accepted_draws_keep_the_drawn_order(self, D, seed):
        # sparse counts, so that attempts with C_< colors are often accepted;
        # a color of C_< is drawn from the last entry of W_c to the first
        rng, ref_rng, colored_rng = (random.Random(seed) for _ in range(3))
        try:
            _, got, got_attempts = _simple_sample(D, 2, rng, max_attempts=50)
            colored, _ = sample_G_Dh(D, 2, colored_rng, max_attempts=50)
        except RejectionExhaustedError:
            got = None
        want = None
        for attempt in range(1, 51):
            sigma = reference_attempt(D, ref_rng)
            if sigma is not None:
                want = {c: list(pairs) for c, pairs in owner_pairs(sigma).pairs.items()}
                break
        assert rng.getstate() == ref_rng.getstate()
        assert got == want
        if want is not None:
            assert list(got) == list(want) and got_attempts == attempt
            reference = ColoredMultigraph(D.L, D.n)
            for c, pairs in want.items():
                for u, v in pairs:
                    reference_add_edge(reference, c, u, v)
            assert list(colored.w) == list(reference.w)
            assert colored_rng.getstate() == ref_rng.getstate()

    @SETTINGS
    @given(G=multigraphs(), h=st.integers(1, 6))
    def test_girth_test_matches_brute_force(self, G, h):
        assert has_cycle_leq(G, h) == _has_short_cycle_brute(G, h)


class TestConfigurationAgainstReference:
    """Small sequences (n <= 5, L <= 3), so loops of both color kinds are common."""

    @SETTINGS
    @given(D=degree_sequences(max_n=5), seed=st.integers(0, 2**32))
    def test_graph_of_matches_reference(self, D, seed):
        sigma = reference_configuration(D, random.Random(seed))
        assert list(sigma.pairs) == matching_colors(D.L) + bijection_colors(D.L)
        got, want = graph_of(owner_pairs(sigma)), reference_graph_of(sigma)
        assert (got.L, got.n) == (want.L, want.n)
        assert list(got.w.items()) == list(want.w.items())

    @SETTINGS
    @given(D=degree_sequences(max_n=5), seed=st.integers(0, 2**32))
    def test_edges_rebuild_weights(self, D, seed):
        sigma = sample_configuration(D, random.Random(seed))
        G = graph_of(sigma)
        edges = G.edges()
        assert edges == sorted(edges)
        assert len(edges) == sum(len(p) for p in sigma.pairs.values())
        rebuilt = ColoredMultigraph(G.L, G.n)
        for c, u, v in edges:
            rebuilt.add_edge(c, u, v)
        assert rebuilt.w == G.w

    @SETTINGS
    @given(D=degree_sequences(max_n=5), seed=st.integers(0, 2**32))
    def test_weight_keys_share_one_color_object_per_color(self, D, seed):
        # at most the configuration's color object and one shared conjugate
        # per color; a fresh color tuple per weight key grows a graph by a third
        G = graph_of(sample_configuration(D, random.Random(seed)))
        colors = {c for c, _, _ in G.w}
        assert len({id(c) for c, _, _ in G.w}) <= 2 * len(colors)

    @SETTINGS
    @given(
        L=st.integers(1, 3),
        n=st.integers(1, 4),
        data=st.data(),
    )
    def test_add_edge_matches_reference(self, L, n, data):
        color = st.tuples(st.integers(1, L), st.integers(1, L))
        vertex = st.integers(0, n - 1)
        got, want = ColoredMultigraph(L, n), ColoredMultigraph(L, n)
        for c, u, v in data.draw(st.lists(st.tuples(color, vertex, vertex), max_size=12)):
            got.add_edge(c, u, v)
            reference_add_edge(want, c, u, v)
        assert list(got.w.items()) == list(want.w.items())

    @SETTINGS
    @given(D=degree_sequences(max_n=5), seed=st.integers(0, 2**32))
    def test_repeated_switches_match_reference(self, D, seed):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = sample_configuration(D, random.Random(seed + 1))
        want = reference_configuration(D, random.Random(seed + 1))
        for _ in range(6):
            got = apply_switch(got, rng)
            want = reference_apply_switch(want, ref_rng)
            assert got.pairs == owner_pairs(want).pairs
            assert list(graph_of(got).w.items()) == list(reference_graph_of(want).w.items())
            assert rng.getstate() == ref_rng.getstate()

    def test_loops_of_both_color_kinds(self):
        # vertex 0: its two (1,1) half-edges pair into a loop, and its (1,2)
        # and (2,1) half-edges can only pair with each other, another loop
        D = DegreeSequence.from_rows(2, [[2, 1, 1, 0]])
        G = graph_of(sample_configuration(D, random.Random(0)))
        assert G.w == reference_graph_of(reference_configuration(D, random.Random(0))).w == {
            ((1, 1), 0, 0): 2,
            ((1, 2), 0, 0): 1,
            ((2, 1), 0, 0): 1,
        }
        assert G.edges() == [((1, 1), 0, 0), ((1, 2), 0, 0)]


class TestDerivedTotals:
    @SETTINGS
    @given(D=degree_sequences())
    def test_totals_and_offsets(self, D):
        for c in all_colors(D.L):
            assert D.S(c) == sum(D.D(u, c) for u in range(D.n)) == len(half_edges(D, c))
            offs = D.offsets[c]
            assert [offs[u + 1] - offs[u] for u in range(D.n)] == [
                D.D(u, c) for u in range(D.n)
            ]

    def test_cached_values_leave_equality_alone(self):
        D = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2]])
        E = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [1, 0, 0, 2]])
        assert validate_degree_sequence(D)
        assert D == E and hash(D) == hash(E)

    def test_negative_count_invalid(self):
        D = DegreeSequence.from_rows(1, [[2], [-2], [2]])
        assert D.S((1, 1)) == 2
        assert not validate_degree_sequence(D)
