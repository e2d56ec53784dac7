"""The sampler's simple graph, its uniform draws, and pinned seeded payloads."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from ugwldp import experiments
from ugwldp.config_model import (
    DegreeSequence,
    _below,
    _simple_sample,
    colorblind_simple,
    sample_G_Dh,
)

HALF = Fraction(1, 2)


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# SHA-256 of json.dumps(payload, sort_keys=True) for small fixed seeds and
# sizes.  A change of these digests is a change of the seeded payloads.
PAYLOADS = {
    "converge {3: 1}": (
        lambda: experiments.converge_experiment({3: 1}, [40, 80], 2, 2, 7),
        "c9aa7987ce1afb186583cb8e6cc9a79838e73c5efec5903a20385dc0c121cdeb",
    ),
    "converge {1: 1/2, 2: 1/2}": (
        lambda: experiments.converge_experiment({1: HALF, 2: HALF}, [50, 120], 3, 2, 7),
        "07cf5fa73decc75bb1bbcd8ada605b1c6791c222c14f00eb97ee356f165bb081",
    ),
    "converge {1: 1/3, 3: 2/3} depth 3": (
        lambda: experiments.converge_experiment(
            {1: Fraction(1, 3), 3: Fraction(2, 3)}, [60], 2, 3, 4
        ),
        "60311ef22ce0c0bcc3d9c28a2f714316b3f4abee522f69ed8e0ff02bdeddcb90",
    ),
    "cycles": (
        lambda: experiments.cycles_experiment(3, 60, 5, 11),
        "94a162acb3105386354761b0b814d5a56cf66c01c5be1b0551958e6c20fb3f74",
    ),
    "concentrate": (
        lambda: experiments.concentrate_experiment(3, [40, 90], 4, 5),
        "7ac58458c817d0ae0f2cb743bc6fa326b2df0eea0fd03ef41aae8d291a8982df",
    ),
}

ONE_COLOR = DegreeSequence.single_color([1, 2, 2, 3] * 15)
TWO_COLORS = DegreeSequence.from_rows(2, [[1, 1, 0, 0], [0, 0, 1, 1]] * 30)
DENSE_TWO_COLORS = DegreeSequence.from_rows(2, [[1, 1, 1, 0], [0, 1, 1, 1]] * 10)

# SHA-256 of [[attempts, repr(G.key())] for seeds 0..3] from sample_G_Dh.
SAMPLES = {
    ("one color", 2): (
        ONE_COLOR,
        "b49b1b677a21567a4bf18e18a3d4164e829877eaa5c685d4930ddffd6e7c7951",
    ),
    ("one color", 5): (
        ONE_COLOR,
        "f76aad860cace19ac3be7596e670b34fd57baa4d37f87fb01fc069c9a3ad2da7",
    ),
    ("two colors", 2): (
        TWO_COLORS,
        "f396798c26992aa19f05f2ec439255377d960beb0dee7edea30b0a26163be988",
    ),
    ("two colors", 5): (
        TWO_COLORS,
        "bb150a40ae138a2a55c57b982a25d1398175a628901187c8eced2f4a06fb7f44",
    ),
    ("dense two colors", 2): (
        DENSE_TWO_COLORS,
        "bb4a4fbe30b3b84e7944933b8bfcf2f1d7663964b4a1633f9c7ccaa46a9c0c63",
    ),
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_seeded_payload_digest(name):
    run, want = PAYLOADS[name]
    assert digest(run()) == want


@pytest.mark.parametrize("name, h", sorted(SAMPLES))
def test_seeded_sample_G_Dh_digest(name, h):
    D, want = SAMPLES[(name, h)]
    out = []
    for s in range(4):
        G, attempts = sample_G_Dh(D, h, random.Random(s))
        out.append([attempts, repr(G.key())])
    assert digest(out) == want


WIDTHS = sorted(
    {1, 2, 3, 5, 7, 1000, 10**6, 3**40, 2**200 + 12345}
    | {2**k + e for k in range(1, 70) for e in (-1, 0, 1)}
)


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_below_draws_the_randrange_stream(seed):
    ours = random.Random(seed)
    theirs = random.Random(seed)
    for m in WIDTHS:
        for _ in range(5):
            assert _below(ours.getrandbits, m) == theirs.randrange(m)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("D", [ONE_COLOR, TWO_COLORS], ids=["one color", "two colors"])
@pytest.mark.parametrize("h", [2, 5])
def test_simple_graph_is_the_projection_of_sample_G_Dh(D, h):
    for s in range(6):
        G, draws, attempts = _simple_sample(D, h, random.Random(s))
        colored, want_attempts = sample_G_Dh(D, h, random.Random(s))
        assert attempts == want_attempts
        assert G == colorblind_simple(colored)
        assert sum(len(pairs) for pairs in draws.values()) == G.m


def test_simple_sample_keeps_the_argument_checks():
    with pytest.raises(ValueError, match="h must be >= 2, got 1"):
        _simple_sample(ONE_COLOR, 1, random.Random(0))
