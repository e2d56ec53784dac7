"""Bad depths and sample counts, and one girth test and one message pass per call."""

import random

import pytest

from ugwldp import rooted, tree_encoding
from ugwldp.rooted import SimpleGraph
from ugwldp.tree_encoding import (
    count_equivalent_graphs,
    encode,
    verify_neighborhood_preservation,
)

TREE = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (2, 6)])
BAD_DEPTHS = [True, False, 1.5, 2.0, "2", None, 0, -1]

CALLS = {
    "encode": lambda G, h: encode(G, h),
    "exact": lambda G, h: count_equivalent_graphs(G, h),
    "log_asymptotic": lambda G, h: count_equivalent_graphs(G, h, mode="log_asymptotic"),
    "preserve": lambda G, h: verify_neighborhood_preservation(G, h, 1, random.Random(0)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("h", BAD_DEPTHS)
def test_bad_depth_is_rejected_by_name(name, h):
    with pytest.raises(ValueError, match=f"got {h!r}"):
        CALLS[name](TREE, h)


@pytest.mark.parametrize("samples", [True, 1.5, "1", None, 0, -3])
def test_bad_sample_count_is_rejected_by_name(samples):
    rng = random.Random(0)
    state = rng.getstate()
    form = "must be >= 1" if type(samples) is int else "must be an int"
    with pytest.raises(ValueError, match=f"samples {form}, got {samples!r}"):
        verify_neighborhood_preservation(TREE, 2, samples, rng)
    assert rng.getstate() == state


@pytest.fixture
def counted(monkeypatch):
    """Record each girth test as h, and each message pass as (adjacency, depth)."""
    seen = {"girth": [], "messages": []}
    girth = tree_encoding.is_h_treelike
    messages = rooted._messages

    def counting_girth(G, h):
        seen["girth"].append(h)
        return girth(G, h)

    def counting_messages(adj, k):
        seen["messages"].append(([sorted(nb) for nb in adj], k))
        return messages(adj, k)

    monkeypatch.setattr(tree_encoding, "is_h_treelike", counting_girth)
    monkeypatch.setattr(rooted, "_messages", counting_messages)
    monkeypatch.setattr(tree_encoding, "_messages", counting_messages)
    return seen


def test_unknown_mode_fails_before_the_graph_work(counted):
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        count_equivalent_graphs(TREE, 2, mode="fast")
    assert counted == {"girth": [], "messages": []}


@pytest.mark.parametrize("name", ["encode", "exact", "log_asymptotic"])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_one_girth_test_and_one_message_pass(counted, name, h):
    CALLS[name](TREE, h)
    assert counted["girth"] == [h]
    assert counted["messages"] == [([sorted(nb) for nb in TREE.adjacency()], h - 1)]


@pytest.mark.parametrize("samples", [1, 2, 5])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_preservation_makes_one_pass_on_the_graph_and_one_per_sample(counted, samples, h):
    assert verify_neighborhood_preservation(TREE, h, samples, random.Random(samples))
    assert counted["girth"] == [h]
    passes = counted["messages"]
    assert passes[0] == ([sorted(nb) for nb in TREE.adjacency()], h - 1)
    assert len(passes) == 1 + samples
    assert all(k == h - 1 and len(adj) == TREE.n for adj, k in passes)
