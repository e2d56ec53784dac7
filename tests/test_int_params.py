"""One rule for integer parameters: rooted._check_int at every entry point.

A depth, a cycle-length bound, a count, a vertex or a degree must be an
int, and a bool is not one.  Anything else raises ValueError("<name> must
be an int, got <value!r>"), and a value below the parameter's least
allowed one raises ValueError("<name> must be >= <least>, got <value!r>").
Both happen before the first draw from a caller's rng, and nothing is
truncated or interned on the way.
"""

import json
import random
from fractions import Fraction

import pytest

from ugwldp import experiments
from ugwldp.config_model import (
    DegreeSequence,
    _simple_sample,
    acceptance_estimate,
    colorblind,
    explore_neighborhood,
    has_cycle_leq,
    sample_G_Dh,
    short_cycle_intensity,
    validate_degree_sequence,
)
from ugwldp.neighborhood import NeighborhoodLaw, empirical_distribution, truncate_law
from ugwldp.rooted import (
    CanonicalClass,
    SimpleGraph,
    canonical_from_adjacency,
    declare_depth,
    edge_type_table,
    star,
    tree_classes,
    truncate,
)
from ugwldp.tree_encoding import (
    count_short_cycle_free,
    encode,
    is_h_treelike,
    log_matchings,
    verify_neighborhood_preservation,
)
from ugwldp.ugw import (
    ColoredOffspringLaw,
    marginal_ugw,
    sample_ugw,
    sample_ugw_bipartite,
    sample_ugw_colored,
)

HALF = Fraction(1, 2)
PATH = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
ADJ = PATH.adjacency()
D3 = DegreeSequence.single_color([3, 3, 3, 3])
D2 = DegreeSequence.single_color([2, 2, 2, 2, 2])
LIMIT = {((3,),): 1.0}
LAW = NeighborhoodLaw.from_degree_law({1: HALF, 2: HALF})
COLORED = ColoredOffspringLaw(1, {((2,),): Fraction(1)})
DEEP_STAR = star(3, 3)
SAMPLED, _ = sample_G_Dh(D3, 2, random.Random(1))

ZERO = NeighborhoodLaw(0, {star(0, 0): 1})
EXP = experiments

# (id, name, least, ok, call(x, rng)): x is the parameter under test and
# every other argument is valid; least None means no lower bound, so no
# "least - 1" case; ok is a value that passes, least itself where the
# other arguments allow it.
ENTRY_POINTS = [
    ("canonical_from_adjacency", "depth", 0, 0, lambda x, r: canonical_from_adjacency(ADJ, 0, x)),
    ("tree_classes", "depth", 0, 0, lambda x, r: tree_classes(ADJ, x)),
    ("truncate", "depth", 0, 0, lambda x, r: truncate(DEEP_STAR, x)),
    ("declare_depth", "depth", 0, 0, lambda x, r: declare_depth(star(2, 1), x)),
    ("edge_type_table", "depth", 1, 1, lambda x, r: edge_type_table(DEEP_STAR, x)),
    ("star.k", "k", 0, 0, lambda x, r: star(x, 1)),
    ("star.depth", "depth", 0, 0, lambda x, r: star(0, x)),
    ("from_edges.n", "n", 0, 0, lambda x, r: SimpleGraph.from_edges(x, [])),
    ("from_edges.vertex", "vertex", None, 1, lambda x, r: SimpleGraph.from_edges(3, [(0, x)])),
    ("empirical_distribution", "depth", 0, 0, lambda x, r: empirical_distribution(PATH, x)),
    ("NeighborhoodLaw", "depth", 0, 0, lambda x, r: NeighborhoodLaw(x, {star(0, 0): 1})),
    (
        "NeighborhoodLaw.from_json",
        "depth",
        0,
        0,
        lambda x, r: NeighborhoodLaw.from_json({**ZERO.to_json(), "depth": x}),
    ),
    ("truncate_law", "depth", 0, 0, lambda x, r: truncate_law(LAW, x)),
    ("is_h_treelike", "depth", 0, 0, lambda x, r: is_h_treelike(PATH, x)),
    ("encode", "depth", 1, 1, lambda x, r: encode(PATH, x)),
    (
        "verify_neighborhood_preservation.depth",
        "depth",
        1,
        1,
        lambda x, r: verify_neighborhood_preservation(PATH, x, 1, r),
    ),
    (
        "verify_neighborhood_preservation.samples",
        "samples",
        1,
        1,
        lambda x, r: verify_neighborhood_preservation(PATH, 1, x, r),
    ),
    ("count_short_cycle_free", "h", 2, 2, lambda x, r: count_short_cycle_free(D2, x)),
    ("log_matchings", "s", 0, 0, lambda x, r: log_matchings(x)),
    ("has_cycle_leq", "h", 1, 1, lambda x, r: has_cycle_leq(colorblind(SAMPLED), x)),
    ("_simple_sample.h", "h", 2, 2, lambda x, r: _simple_sample(D3, x, r)),
    ("sample_G_Dh.h", "h", 2, 2, lambda x, r: sample_G_Dh(D3, x, r)),
    # a cap of 1 may be spent, which raises RejectionExhaustedError
    ("sample_G_Dh.max_attempts", "max_attempts", 1, 1000, lambda x, r: sample_G_Dh(D3, 2, r, x)),
    ("short_cycle_intensity.L", "L", 1, 1, lambda x, r: short_cycle_intensity(LIMIT, x, 2)),
    ("short_cycle_intensity.h", "h", 1, 1, lambda x, r: short_cycle_intensity(LIMIT, 1, x)),
    ("acceptance_estimate.L", "L", 1, 1, lambda x, r: acceptance_estimate(LIMIT, x, 2)),
    ("acceptance_estimate.h", "h", 1, 1, lambda x, r: acceptance_estimate(LIMIT, 1, x)),
    ("explore_neighborhood.v", "v", 0, 0, lambda x, r: explore_neighborhood(D3, x, 1, r)),
    ("explore_neighborhood.depth", "depth", 0, 0, lambda x, r: explore_neighborhood(D3, 0, x, r)),
    ("single_color", "degree", None, 0, lambda x, r: DegreeSequence.single_color([2, x])),
    ("from_rows.L", "L", 1, 1, lambda x, r: DegreeSequence.from_rows(x, [[1], [1]])),
    ("from_rows.entry", "degree", None, 1, lambda x, r: DegreeSequence.from_rows(1, [[1], [x]])),
    ("cycles_experiment.d", "d", 1, 1, lambda x, r: EXP.cycles_experiment(x, 10, 2, 0)),
    # a single vertex of degree 3 cannot be paired
    ("cycles_experiment.n", "n", 1, 2, lambda x, r: EXP.cycles_experiment(3, x, 2, 0)),
    ("cycles_experiment.samples", "samples", 1, 1, lambda x, r: EXP.cycles_experiment(3, 8, x, 0)),
    (
        "converge_experiment.samples",
        "samples",
        1,
        1,
        lambda x, r: EXP.converge_experiment({3: 1}, [10], x, 2, 0),
    ),
    (
        "converge_experiment.depth",
        "depth",
        1,
        1,
        lambda x, r: EXP.converge_experiment({3: 1}, [10], 2, x, 0),
    ),
    (
        "converge_experiment.n_list",
        "n_list[1]",
        1,
        10,
        lambda x, r: EXP.converge_experiment({3: 1}, [10, x], 2, 2, 0),
    ),
    ("concentrate_experiment.d", "d", 1, 1, lambda x, r: EXP.concentrate_experiment(x, [8], 2, 0)),
    (
        "concentrate_experiment.samples",
        "samples",
        1,
        1,
        lambda x, r: EXP.concentrate_experiment(3, [10], x, 0),
    ),
    (
        "concentrate_experiment.n_list",
        "n_list[0]",
        1,
        10,
        lambda x, r: EXP.concentrate_experiment(3, [x], 2, 0),
    ),
    ("degree_sequence_for_law.n", "n", 1, 1, lambda x, r: EXP.degree_sequence_for_law({2: 1}, x)),
    (
        "degree_sequence_for_law.degree",
        "degree",
        0,
        4,
        lambda x, r: EXP.degree_sequence_for_law({2: HALF, x: HALF}, 10),
    ),
    # a depth below the law's is the other check's to reject
    ("marginal_ugw.depth", "depth", 0, 1, lambda x, r: marginal_ugw(LAW, x)),
    ("marginal_ugw.support_cap", "support_cap", 0, 10**6, lambda x, r: marginal_ugw(LAW, 2, x)),
    ("sample_ugw", "depth", 0, 1, lambda x, r: sample_ugw(LAW, x, r)),
    ("sample_ugw_colored", "depth", 0, 0, lambda x, r: sample_ugw_colored(COLORED, x, r)),
    (
        "sample_ugw_bipartite",
        "depth",
        0,
        0,
        lambda x, r: sample_ugw_bipartite({2: 1}, {3: 1}, x, r),
    ),
    ("ColoredOffspringLaw.L", "L", 1, 1, lambda x, r: ColoredOffspringLaw(x, {((2,),): 1})),
    (
        "ColoredOffspringLaw.entry",
        "degree",
        0,
        0,
        lambda x, r: ColoredOffspringLaw(1, {((x,),): 1}),
    ),
    (
        "sample_ugw_bipartite.degree",
        "degree",
        0,
        0,
        lambda x, r: sample_ugw_bipartite({x: HALF, 3: HALF}, {2: 1}, 2, r),
    ),
]
IDS = [entry[0] for entry in ENTRY_POINTS]


def _cases():
    for entry, name, least, _, call in ENTRY_POINTS:
        for value in (True, 1.5, "1", None):
            if entry == "sample_G_Dh.max_attempts" and value is None:
                continue  # None asks for the default cap
            message = f"{name} must be an int, got {value!r}"
            yield pytest.param(call, value, message, id=f"{entry}-{value!r}")
        if least is not None:
            message = f"{name} must be >= {least}, got {least - 1}"
            yield pytest.param(call, least - 1, message, id=f"{entry}-{least - 1}")


@pytest.mark.parametrize("call, value, message", list(_cases()))
def test_rejected_by_name_before_any_draw(call, value, message):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError) as info:
        call(value, rng)
    assert str(info.value) == message
    assert rng.getstate() == state


@pytest.mark.parametrize("entry, name, least, ok, call", ENTRY_POINTS, ids=IDS)
def test_least_value_accepted(entry, name, least, ok, call):
    call(ok, random.Random(0))


# The holes this rule closes, each call as it was written against the old
# checks, and what it does now.
HOLES = [
    # star(2, 1.5) used to intern a class of depth 1.5
    (lambda: star(2, 1.5), "depth must be an int, got 1.5"),
    # a negative vertex used to index from the end of the offsets
    (lambda: explore_neighborhood(D3, -1, 1, random.Random(0)), "v must be >= 0, got -1"),
    (lambda: explore_neighborhood(D3, 4, 1, random.Random(0)), "v must be < 4, got 4"),
    # degree entries used to be truncated by int()
    (lambda: DegreeSequence.single_color([2.5, 1.5]), "degree must be an int, got 2.5"),
    (lambda: DegreeSequence.from_rows(1, [[2.5], [1.9]]), "degree must be an int, got 2.5"),
    (lambda: experiments.cycles_experiment(2.5, 10, 2, 0), "d must be an int, got 2.5"),
    (lambda: experiments.cycles_experiment(3, 10, True, 0), "samples must be an int, got True"),
    (lambda: acceptance_estimate(LIMIT, 1, -1), "h must be >= 1, got -1"),
    (lambda: sample_G_Dh(D3, 2.5, random.Random(0)), "h must be an int, got 2.5"),
    # these raised TypeError from deep inside, or named no parameter
    (lambda: empirical_distribution(PATH, 1.0), "depth must be an int, got 1.0"),
    (lambda: tree_classes(ADJ, 1.5), "depth must be an int, got 1.5"),
    (
        lambda: experiments.converge_experiment({3: 1}, [10], samples=1.5, depth=2, seed=0),
        "samples must be an int, got 1.5",
    ),
    (
        lambda: experiments.concentrate_experiment(3, [10.5], 2, 0),
        "n_list[0] must be an int, got 10.5",
    ),
    (lambda: edge_type_table(DEEP_STAR, 1.5), "depth must be an int, got 1.5"),
    (lambda: experiments.degree_sequence_for_law({2.5: 1}, 10), "degree must be an int, got 2.5"),
    # a bool L used to be read as L = 1
    (lambda: ColoredOffspringLaw(True, {((2,),): 1}), "L must be an int, got True"),
    # a 2 x 2 matrix under L = 1 used to be accepted, and its entries ignored
    (
        lambda: ColoredOffspringLaw(1, {((1, 1), (1, 1)): 1}),
        "offspring matrix ((1, 1), (1, 1)) is not 1 x 1",
    ),
    (lambda: ColoredOffspringLaw(1, {((-1,),): 1}), "degree must be >= 0, got -1"),
    # a negative degree used to be sampled, as a tree of 13 vertices at depth 3
    (
        lambda: sample_ugw_bipartite({-1: HALF, 3: HALF}, {2: 1}, 3, random.Random(0)),
        "degree must be >= 0, got -1",
    ),
    # a float degree used to raise TypeError
    (
        lambda: sample_ugw_bipartite({1.5: 1}, {2: 1}, 3, random.Random(0)),
        "degree must be an int, got 1.5",
    ),
]


@pytest.mark.parametrize("call, message", HOLES, ids=[m for _, m in HOLES])
def test_former_holes_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_a_bool_depth_interns_nothing():
    # True == 1 and hash(True) == hash(1): a class interned at depth True
    # would be the one every later depth-1 lookup of the same tree returns
    for k in (1, 37):
        adj = [list(range(1, k + 1))] + [[0]] * k
        with pytest.raises(ValueError, match="depth must be an int, got True"):
            canonical_from_adjacency(adj, 0, True)
        got = star(k, 1)
        assert type(got.depth) is int
        assert json.loads(json.dumps(NeighborhoodLaw(1, {got: 1}).to_json()))["depth"] == 1


def test_a_negative_degree_is_left_to_the_validator():
    D = DegreeSequence.single_color([-1, 1])
    assert D.mats == (((-1,),), ((1,),)) and not validate_degree_sequence(D)


def test_classes_carry_no_id():
    assert "id" not in CanonicalClass.__slots__
    assert not hasattr(star(1, 1), "id")
