"""The encoding, the counts and the preservation check against their split-dict reference.

The reference below is the library as it was before encode,
count_equivalent_graphs and verify_neighborhood_preservation shared one
girth test and one message pass: each ran the full encode, which read
the side of every arc into a (u, v) -> class dict, built the colored
multigraph from it and read D back through degree_sequence_of; the count
subtracted one lgamma term per matrix entry, zeros included.  Both must
give the same colored multigraph, context, D, count bits, preservation
answer and random stream.
"""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.config_model import (
    ColoredMultigraph,
    _simple_sample,
    bijection_colors,
    colorblind_simple,
    config_space_size,
    degree_sequence_of,
    matching_colors,
    sample_G_Dh,
)
from ugwldp.experiments import degree_sequence_for_law
from ugwldp.rooted import SimpleGraph, _messages, tree_classes
from ugwldp.tree_encoding import (
    EncodingContext,
    NotTreeLikeError,
    count_equivalent_graphs,
    count_short_cycle_free,
    distinct_orderings,
    encode,
    is_h_treelike,
    log_matchings,
    verify_neighborhood_preservation,
)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
EXACT_SPACE = 5000  # exact mode enumerates every configuration


# ---------------------------------------------------------------------------
# Reference: a split dict, a colored multigraph and D read back from it
# ---------------------------------------------------------------------------


def ref_split_classes(adj, k):
    if k < 0:
        raise ValueError("depth must be nonnegative")
    start, to, _, ids, table = _messages(adj, k)
    return {
        (u, to[a]): table[ids[a]]
        for u in range(len(adj))
        for a in range(start[u], start[u + 1])
    }


def ref_encode(G, h):
    if not is_h_treelike(G, h):
        raise NotTreeLikeError(f"graph has a cycle of length <= {2 * h + 1}")
    splits = ref_split_classes(G.adjacency(), h - 1)
    classes = tuple(sorted(set(splits.values()), key=lambda c: c.wire()))
    index = {c: i + 1 for i, c in enumerate(classes)}
    ctx = EncodingContext(h, classes, index)
    out = ColoredMultigraph(ctx.L, G.n)
    for u, v in G.edges:
        color = (index[splits[(u, v)]], index[splits[(v, u)]])
        out.add_edge(color, u, v)
    return out, ctx, degree_sequence_of(out)


def ref_verify_neighborhood_preservation(G, h, samples, rng):
    _, _, D = ref_encode(G, h)
    want = Counter(tree_classes(G.adjacency(), h))
    for _ in range(samples):
        sample, _, _ = _simple_sample(D, 2 * h + 1, rng)
        if Counter(tree_classes(sample.adjacency(), h)) != want:
            return False
    return True


def ref_count_equivalent_graphs(G, h, mode="exact"):
    _, _, D = ref_encode(G, h)
    if mode == "exact":
        space = config_space_size(D)
        if space > 2_000_000:
            raise ValueError(f"configuration space too large for exact mode ({space})")
        return distinct_orderings(D) * count_short_cycle_free(D, 2 * h + 1)
    if mode == "log_asymptotic":
        n = G.n
        m = G.m
        log_count = math.lgamma(n + 1)
        for c in Counter(D.mats).values():
            log_count -= math.lgamma(c + 1)
        for c in bijection_colors(D.L):
            log_count += math.lgamma(D.S(c) + 1)
        for c in matching_colors(D.L):
            log_count += log_matchings(D.S(c))
        for u in range(D.n):
            for i in range(D.L):
                for j in range(D.L):
                    log_count -= math.lgamma(D.mats[u][i][j] + 1)
        value = log_count / n - (m / n) * math.log(n)
        return {
            "per_vertex_rate": value,
            "acceptance_factor_dropped": True,
            "n": n,
            "m": m,
        }
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@st.composite
def forests(draw, max_n=12):
    """A random forest, isolated vertices included, with vertices in shuffled order."""
    n = draw(st.integers(1, max_n))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def prufer_tree(n, rng, isolated):
    """A uniform labeled tree on n >= 2 vertices, then `isolated` edgeless vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return SimpleGraph.from_edges(n + isolated, edges)


def sampled_graph(seed, h, n):
    law = {1: 0.4, 2: 0.3, 3: 0.3}
    G, _ = sample_G_Dh(degree_sequence_for_law(law, n), 2 * h + 1, random.Random(seed))
    return colorblind_simple(G)


def assert_same_outputs(G, h, seed=0):
    got = encode(G, h)
    want = ref_encode(G, h)
    assert got[0] == want[0]  # L, n and the sorted weights
    assert got[1] == want[1]
    assert json.dumps(got[1].to_json()) == json.dumps(want[1].to_json())
    assert got[2] == want[2]
    rate = count_equivalent_graphs(G, h, mode="log_asymptotic")
    ref = ref_count_equivalent_graphs(G, h, mode="log_asymptotic")
    assert rate == ref
    assert repr(rate["per_vertex_rate"]) == repr(ref["per_vertex_rate"])
    if config_space_size(want[2]) <= EXACT_SPACE:
        assert count_equivalent_graphs(G, h) == ref_count_equivalent_graphs(G, h)
    rng = random.Random(seed)
    ref_rng = random.Random(seed)
    assert verify_neighborhood_preservation(G, h, 2, rng) is (
        ref_verify_neighborhood_preservation(G, h, 2, ref_rng)
    )
    assert rng.getstate() == ref_rng.getstate()


# ---------------------------------------------------------------------------
# Equality
# ---------------------------------------------------------------------------


@SETTINGS
@given(G=forests(), h=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_forests_match_the_reference(G, h, seed):
    assert_same_outputs(G, h, seed)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_prufer_trees_with_isolated_vertices_match_the_reference(h):
    rng = random.Random(16000 + h)
    for _ in range(12):
        G = prufer_tree(rng.randint(2, 40), rng, rng.randint(0, 3))
        assert_same_outputs(G, h, rng.randrange(2**16))


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_graphs_match_the_reference(h, seed):
    G = sampled_graph(seed, h, 60 * seed)
    assert is_h_treelike(G, h) and G.m
    assert_same_outputs(G, h, seed)


def test_edgeless_graph_matches_the_reference():
    for h in (1, 2, 3):
        assert_same_outputs(SimpleGraph.from_edges(4, []), h)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_short_cycles_are_rejected_by_all_three(h):
    for length in range(3, 2 * h + 2):
        edges = [(i, (i + 1) % length) for i in range(length)] + [(0, length)]
        G = SimpleGraph.from_edges(length + 1, edges)
        for call in (
            lambda: encode(G, h),
            lambda: count_equivalent_graphs(G, h),
            lambda: count_equivalent_graphs(G, h, mode="log_asymptotic"),
            lambda: verify_neighborhood_preservation(G, h, 1, random.Random(0)),
            lambda: ref_encode(G, h),
        ):
            with pytest.raises(NotTreeLikeError):
                call()
