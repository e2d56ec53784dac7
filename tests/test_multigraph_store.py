"""Properties of the Multigraph store: adj and loops are all it keeps.

The strategies are those of tests/test_cycles_reference.py: multigraphs
with loops and parallel edges, and small degree sequences whose pairings
hold loops of both color kinds.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from test_cycles_reference import degree_sequences, multigraphs
from ugwldp.config_model import (
    Multigraph,
    colorblind,
    colorblind_of,
    graph_of,
    sample_configuration,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def listing(bar):
    """Every stored entry, in stored order."""
    return bar.n, [list(nbrs.items()) for nbrs in bar.adj], list(bar.loops)


@SETTINGS
@given(bar=multigraphs(max_n=30), seed=st.integers(0, 2**32))
def test_weights_round_trip(bar, seed):
    w = dict(bar.w)
    assert Multigraph(bar.n, w).w == w
    # the stored graph does not depend on the order of the weight keys
    keys = list(w)
    random.Random(seed).shuffle(keys)
    shuffled = Multigraph(bar.n, {key: w[key] for key in keys})
    assert shuffled.w == w and list(shuffled.w) == sorted(w)
    assert shuffled.adj == bar.adj and shuffled.loops == bar.loops


@SETTINGS
@given(bar=multigraphs(max_n=30))
def test_adjacency_is_the_weights(bar):
    for u, nbrs in enumerate(bar.adj):
        assert u not in nbrs
        for v, m in nbrs.items():
            assert m >= 1 and bar.adj[v][u] == m == bar.w[min(u, v), max(u, v)]
        assert bar.weight(u, u) == 2 * bar.loops[u] == bar.w.get((u, u), 0)


@SETTINGS
@given(bar=multigraphs(max_n=30))
def test_pickle_round_trip(bar):
    back = pickle.loads(pickle.dumps(bar))
    assert type(back) is Multigraph
    assert listing(back) == listing(bar)
    assert back.w == bar.w


@SETTINGS
@given(D=degree_sequences(), seed=st.integers(0, 2**32))
def test_one_pass_projection_writes_the_two_step_adjacency(D, seed):
    sigma = sample_configuration(D, random.Random(seed))
    got, want = colorblind_of(sigma), colorblind(graph_of(sigma))
    assert got.adj == want.adj
    assert listing(got) == listing(want)
