"""Pinned outputs of the exact marginal tower and its entropy functionals."""

import hashlib
import json
from fractions import Fraction

import pytest

from ugwldp.entropy import entropy_increments, ugw_entropy
from ugwldp.neighborhood import (
    NeighborhoodLaw,
    edge_type_distribution,
    mean_degree,
    poisson_law,
)
from ugwldp.ugw import marginal_ugw

THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def weight(p):
    """Exact text of a weight: "n/d" for a Fraction, repr (every bit) otherwise."""
    return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else repr(p)


def tower_record(P, k):
    Q = marginal_ugw(P, k)
    return {
        "marginal": [[c.wire(), weight(p)] for c, p in Q.sorted_items()],
        "ugw_entropy": repr(ugw_entropy(Q)),
        "increments": [repr(x) for x in entropy_increments(Q)],
        "mean_degree": weight(mean_degree(Q)),
        "edge_types": [
            [t.wire(), tp.wire(), weight(p)]
            for (t, tp), p in edge_type_distribution(Q).items()
        ],
    }


LAWS = {
    "{1: 1/2, 2: 1/2}": lambda: NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF}),
    "{1: 1/3, 2: 1/3, 3: 1/3}": lambda: NeighborhoodLaw.from_degree_law(
        {1: THIRD, 2: THIRD, 3: THIRD}
    ),
    "{1: 1/3, 3: 2/3}": lambda: NeighborhoodLaw.from_degree_law({1: THIRD, 3: 2 * THIRD}),
    "{2: 1/4, 3: 1/2, 4: 1/4}": lambda: NeighborhoodLaw.from_degree_law(
        {2: QUARTER, 3: HALF, 4: QUARTER}
    ),
    # float-mode laws given float, int, and mixed Fraction and float weights;
    # the law turns each into a float
    "{1: 0.5, 2: 0.5}": lambda: NeighborhoodLaw.from_degree_law({1: 0.5, 2: 0.5}, mode="float"),
    "{3: 1}": lambda: NeighborhoodLaw.from_degree_law({3: 1}, mode="float"),
    "{1: 1/2, 2: 0.5}": lambda: NeighborhoodLaw.from_degree_law(
        {1: HALF, 2: 0.5}, mode="float"
    ),
    "{3: Fraction(1)}": lambda: NeighborhoodLaw.from_degree_law({3: Fraction(1)}),
    "poisson 0.5": lambda: poisson_law(0.5, tail=1e-3),
    "poisson 1.0": lambda: poisson_law(1.0, tail=1e-3),
}

# SHA-256 of json.dumps(tower_record(law, k), sort_keys=True).  A change of
# these digests is a change of the exact weights or of a float's last bit.
DIGESTS = {
    ("{1: 1/2, 2: 1/2}", 1): "c49e1d7e5b07aa187bedff4763cab05bf4b7d19604cb8dc715f857f94314d0a5",
    ("{1: 1/2, 2: 1/2}", 2): "f23ef5801cfc65a593e70337feeeefadf13bb17abf7c5a1bd6bb2f49496a5cbb",
    ("{1: 1/2, 2: 1/2}", 3): "4e2f5c17d8668afa838608a7bac63a1ab8965ff3848c20802f4e90f244294301",
    ("{1: 1/3, 2: 1/3, 3: 1/3}", 1): "25fe79b2da6ff2d9e140115b0b0c1bef57bb9111ba4b3335725ed94a5dbef161",
    ("{1: 1/3, 2: 1/3, 3: 1/3}", 2): "2d1636979444585aae8f116bfaa7cf5c1c4e30b0d15d0e9196b1b3d7ee7e9253",
    ("{1: 1/3, 2: 1/3, 3: 1/3}", 3): "393ebd69b5659b3d290c034cb00200846b9e7bb49e9af3d014fb8e7f480a281a",
    ("{1: 1/3, 3: 2/3}", 1): "3945ddc611c843987bd4264868c5fcf3343b5f746979051af4b7fa26f477151c",
    ("{1: 1/3, 3: 2/3}", 2): "0996348dcbfa581353436cbb723c910639cd2657ea91cf39b1e31b9f4c8a941a",
    ("{1: 1/3, 3: 2/3}", 3): "b42344e8eef78dc913b4b1ce3e9ac841a6998280c9c470987c735520a77a7d72",
    ("{2: 1/4, 3: 1/2, 4: 1/4}", 1): "2a38f80a313848c52807534ff8aa15a2aa3c1eea65d086a3e5cf4e4aa1c865ba",
    ("{2: 1/4, 3: 1/2, 4: 1/4}", 2): "97bd2eaa5a89dcddec70cd93e1bb104014c6a74bd030e3a68a041b4cfebbe891",
    ("{1: 0.5, 2: 0.5}", 1): "20a960fe6551b2697b738c64426efbcfa01d28bee3c31f91d549c9ae274d6d9d",
    ("{1: 0.5, 2: 0.5}", 2): "fa1460fe32256861d8069ef41891220a451198fc82ddb04ef9ef7c73a3512674",
    ("{1: 0.5, 2: 0.5}", 3): "7e235d4f70924a5f5b1e7f72290bd53b28551a59d261068597b38ae12685d5b0",
    ("{1: 1/2, 2: 0.5}", 1): "20a960fe6551b2697b738c64426efbcfa01d28bee3c31f91d549c9ae274d6d9d",
    ("{1: 1/2, 2: 0.5}", 2): "fa1460fe32256861d8069ef41891220a451198fc82ddb04ef9ef7c73a3512674",
    ("{1: 1/2, 2: 0.5}", 3): "7e235d4f70924a5f5b1e7f72290bd53b28551a59d261068597b38ae12685d5b0",
    ("{3: 1}", 1): "4b3837ccd0a7ba88520f5156de0543405732fb9456718cece3298d6d0bd72c29",
    ("{3: 1}", 2): "6853453afda3515c07f58adf4028370d6b7087fc0c026485714e7114d7960a99",
    ("{3: 1}", 3): "fbbaac53ac4378548e2b3e4aec7719c166dd4c0360e968a20e523a9c8be4149b",
    ("{3: Fraction(1)}", 1): "55cc3e1d858750544d7af8ea1f68dee7c221be365baa6fbd7dc0e26b1112f6e7",
    ("{3: Fraction(1)}", 2): "5a5f4638a9216553941597c151c145cfc4249f720a3c24657eb46807c8c4a620",
    ("{3: Fraction(1)}", 3): "f17cbd92b5976bfdd27c119e0a8b95d5375ce15d02cb2a5aee801b045904e0dd",
    ("poisson 0.5", 1): "c554f850e076ee52a19f4f6593dd8fd27eb5f069a183ca7c148d1f7424599839",
    ("poisson 0.5", 2): "c9e4a107c81089a7592d4d9391276029e5a5e0f8b9933c4fddb8fa0449f1c6a9",
    ("poisson 1.0", 1): "e2e4569fdd73e12889d8fa94c20afe2ee3723b27d35c0e1481c271f834fc73c2",
    ("poisson 1.0", 2): "e2a79ecfc61f7a3c01c82a8e86b7a41f357f3a98066be4a0cb37bb219ed43259",
}


@pytest.mark.parametrize("name, k", sorted(DIGESTS))
def test_tower_digest(name, k):
    record = tower_record(LAWS[name](), k)
    got = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert got == DIGESTS[(name, k)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rational_int_weight_is_its_fraction(k):
    # a rational law turns an int weight into a Fraction, so the tower of
    # {3: 1} is exactly the tower of {3: Fraction(1)}
    assert tower_record(NeighborhoodLaw.from_degree_law({3: 1}), k) == tower_record(
        NeighborhoodLaw.from_degree_law({3: Fraction(1)}), k
    )
