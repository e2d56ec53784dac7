"""Pinned draws of the tree samplers: adjacency, key order and generator state.

Each digest covers, for seeds 0..3 in turn, the repr of
[(v, sorted(neighbours of v)) for v in tree.adj] (so the key order counts)
and the repr of the generator's final state.  A change of a digest is a
change of the trees the samplers return or of the random draws they make.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from ugwldp.neighborhood import NeighborhoodLaw
from ugwldp.ugw import (
    ColoredOffspringLaw,
    marginal_ugw,
    sample_ugw,
    sample_ugw_bipartite,
    sample_ugw_colored,
)

LAWS = {
    # the bench's ugw-sample law
    "rational": lambda: marginal_ugw(
        NeighborhoodLaw.from_degree_law({1: Fraction(1, 3), 3: Fraction(2, 3)}), 2
    ),
    "float": lambda: marginal_ugw(
        NeighborhoodLaw.from_degree_law({1: 0.25, 2: 0.25, 3: 0.5}, mode="float"), 2
    ),
}

# SHA-256 per (law, output depth), at law depth 2 and depths 2..5
DIGESTS = {
    ("rational", 2): "218589cf1f54fe65e1af7259541099c5b0b7875d26ad45d247c35411dca364ed",
    ("rational", 3): "916c1d5abb4e91f786d1a5656c6e249ce6d77e66a5a8d70e29904003509129b6",
    ("rational", 4): "28a94b7559a8497f5a4be4f148207172625d4b7b01deafb3efffa47a526257ad",
    ("rational", 5): "6186895a38c6ebc3bd26469059a8621a81f68b98b3676df932238b27291ecc02",
    ("float", 2): "d1827c7f509d20416e3d5d537f95bc03d8e7b08f69b809c3a5a0887a913e1f8a",
    ("float", 3): "ccc1f6caf10193a9ad65ff1262f56fb165338453977e2cb7cb7c096decd84d09",
    ("float", 4): "018ed367ce1dc8fbb8c9b94af18448c2d87c74e73cb4e65fbc2fbd71c391a593",
    ("float", 5): "04d75a92224c264bc9ac8f771fff33be1abbba7b92da1efde4fb4bcd3d6c6ebf",
}

# SHA-256 per output depth of sample_ugw_bipartite({1: 1/2, 3: 1/2}, {2: 1}, k)
BIPARTITE = {
    0: "adff98aebe25db13fce8010fe79562ce8f27a6eeb2409c0b01dd1015cebf635d",
    3: "784fa7af796254ad9df67bb1cd7b485f1c5a267f1ca67a8bd94cf503ddf969c4",
    6: "20f7adaad59d7c2ae1460e229b4c760b94f1cbc4b90d161d6664e774997e0599",
}

A = ((0, 2, 0), (0, 0, 1), (1, 0, 0))
COLORED_LAWS = {
    "L1": ColoredOffspringLaw(
        1, {((0,),): Fraction(1, 4), ((1,),): Fraction(1, 4), ((3,),): Fraction(1, 2)}
    ),
    # A and its transpose balance each other, the other matrices are symmetric,
    # and color (3, 3) has mean zero
    "L3": ColoredOffspringLaw(
        3,
        {
            A: Fraction(1, 6),
            tuple(zip(*A)): Fraction(1, 6),
            ((1, 0, 0), (0, 0, 1), (0, 1, 0)): Fraction(1, 4),
            ((0, 0, 0), (0, 1, 0), (0, 0, 0)): Fraction(1, 4),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)): Fraction(1, 6),
        },
    ),
}

# SHA-256 per (law, output depth) of sample_ugw_colored
COLORED = {
    ("L1", 0): "adff98aebe25db13fce8010fe79562ce8f27a6eeb2409c0b01dd1015cebf635d",
    ("L1", 1): "b2cf14263d28e97acab4f39267fc0cef5b6aa7c03e6e64ba556dbd3732f35d6a",
    ("L1", 3): "bcdd5ebd6e992d9c4546f06a5a9ddd51bbddeac71191b5a65b6a46a745162fc0",
    ("L1", 5): "02827bd4f70be50824476f999ff6a7d26a5c87ea1e8e60f5e7a38ebc44024467",
    ("L3", 0): "adff98aebe25db13fce8010fe79562ce8f27a6eeb2409c0b01dd1015cebf635d",
    ("L3", 1): "139185b2b32d62ddbf03b4ab4f146a8574c5eb7d5f16b8857006feebe76129ba",
    ("L3", 3): "a1d0be589c8a54fd3082980167e07e6003640190ab38959d8770d4fb643e1193",
    ("L3", 5): "58f28edb12b2cf6670296d33f3eb75fa29df8b182f89e04dfdb009c9151ac546",
}


def digest(sample):
    h = hashlib.sha256()
    for seed in range(4):
        rng = random.Random(seed)
        tree = sample(rng)
        h.update(repr([(v, sorted(nb)) for v, nb in tree.adj.items()]).encode())
        h.update(repr(rng.getstate()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, k", list(DIGESTS), ids=lambda x: str(x))
def test_sample_ugw_pinned(name, k):
    law = LAWS[name]()
    assert digest(lambda rng: sample_ugw(law, k, rng)) == DIGESTS[(name, k)]


@pytest.mark.parametrize("k", list(BIPARTITE))
def test_sample_ugw_bipartite_pinned(k):
    P1 = {1: Fraction(1, 2), 3: Fraction(1, 2)}
    got = digest(lambda rng: sample_ugw_bipartite(P1, {2: 1}, k, rng))
    assert got == BIPARTITE[k]


@pytest.mark.parametrize("name, k", list(COLORED), ids=lambda x: str(x))
def test_sample_ugw_colored_pinned(name, k):
    law = COLORED_LAWS[name]
    assert digest(lambda rng: sample_ugw_colored(law, k, rng)) == COLORED[(name, k)]


def test_block_edges_are_kept_once_per_class():
    law = LAWS["rational"]()
    rng = random.Random(3)
    for _ in range(50):
        sample_ugw(law, 4, rng)
    plan = law._derive("plan", None)
    edges = plan.edges
    # one entry per distinct block class drawn: root blocks and branch blocks
    drawable = set(law.support).union(*(items for _, _, items, _ in plan.tables.values()))
    assert edges and set(edges) <= drawable
    for tau, pairs in edges.items():
        assert pairs == tuple((i, j) for i, nb in enumerate(tau.rep) for j in nb if j > i)
        # a tree block has one edge per non-root vertex, each hanging a new one
        assert sorted(j for _, j in pairs) == list(range(1, len(tau.rep)))
    before = dict(edges)
    for _ in range(20):
        sample_ugw(law, 4, rng)
    assert all(edges[tau] is pairs for tau, pairs in before.items())
