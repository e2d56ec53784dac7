"""The exact marginal tower against its per-product Fraction reference.

The reference below multiplies every pick of the one-step extension as
Fractions, and builds the intensity table, the mean degree, the edge-type
distribution, the admissibility check and the branch laws with one
Fraction operation per (class, edge type), as the library did before it
summed integer numerators over one common denominator per law.  Both must
give the same laws, with the same weights, the same Fraction type and the
same key order.
"""

import itertools
import math
from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from ugwldp.neighborhood import (
    RATIONAL,
    AdmissibilityReport,
    NeighborhoodLaw,
    edge_intensity_table,
    edge_type_distribution,
    is_admissible,
    mean_degree,
    root_edge_types,
)
from ugwldp.oracle import brute_ugw_marginal
from ugwldp.rooted import TREE, KindMismatchError, _join, drop_root_child, root_degree
from ugwldp.ugw import TypedBranchingLaw, _extension_size, marginal_ugw, typed_branching_law

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
CAP = 3000


@st.composite
def small_degree_laws(draw):
    """Rational degree laws with support in {1..4} and a denominator of at most 6."""
    q = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, q), min_size=3, max_size=3)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return {k: Fraction(x, q) for k, x in zip(range(1, 5), counts) if x}


# ---------------------------------------------------------------------------
# Reference: one Fraction operation per product and per (class, edge type)
# ---------------------------------------------------------------------------


def ref_sum_by_key(pairs) -> dict:
    acc = {}
    if all(type(w) is Fraction for _, w in pairs):
        den = math.lcm(*{w.denominator for _, w in pairs})
        for key, w in pairs:
            acc[key] = acc.get(key, 0) + w.numerator * (den // w.denominator)
        return {key: Fraction(num, den) for key, num in acc.items()}
    for key, w in pairs:
        acc[key] = acc.get(key, 0) + w
    return acc


def ref_total(weights):
    return ref_sum_by_key([(None, w) for w in weights]).get(None, 0)


def ref_mean_degree(P):
    return ref_total([p * root_degree(cls) for cls, p in P.items()])


def ref_intensity_table(P):
    types = root_edge_types(P)
    acc = ref_sum_by_key(
        [(pair, p * cnt) for cls, p in P.items() for pair, cnt in types[cls].items()]
    )
    return dict(sorted(acc.items(), key=lambda kv: (kv[0][0].wire(), kv[0][1].wire())))


def ref_edge_type_distribution(P):
    table = ref_intensity_table(P)
    d = sum(table.values())
    if d == 0:
        raise ValueError("zero mean degree: edge-type distribution undefined")
    return {pair: w / d for pair, w in table.items()}


def ref_admissibility(P):
    d = ref_mean_degree(P)
    table = ref_intensity_table(P)
    tol = 0 if P.mode == RATIONAL else 1e-9 * max(1.0, float(d))
    bad = []
    for (t, tp), w in table.items():
        back = table.get((tp, t), 0)
        if abs(w - back) > tol:
            bad.append(((t, tp), w, back))
    return AdmissibilityReport(not bad, d, tuple(bad))


def ref_branching(P):
    h = P.depth
    rep = ref_admissibility(P)
    if not rep:
        raise ValueError(f"law is not admissible: {rep.violations[:3]}")
    types = root_edge_types(P)
    acc: dict = {}
    for S, p in P.items():
        if S.kind != TREE:
            raise KindMismatchError("branching laws are defined for tree laws")
        for (sub, back), m in types[S].items():
            tau = drop_root_child(S, sub)
            cell = acc.setdefault((back, sub), {})
            cell[tau] = cell.get(tau, 0) + p * m
    intens = ref_intensity_table(P)
    table = {
        key: NeighborhoodLaw(h, {tau: w / intens[key] for tau, w in cell.items()}, mode=P.mode)
        for key, cell in acc.items()
    }
    return TypedBranchingLaw(h, table)


def ref_child_types(table):
    ordered = sorted(table.items(), key=lambda kv: kv[0][0].wire())
    return [(s, s_comp, n_a) for (s, s_comp), n_a in ordered]


def ref_multisets(n_options, total):
    if n_options == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in ref_multisets(n_options - 1, total - first):
            yield (first,) + rest


def ref_multinomial(n, counts):
    out = 1
    rem = n
    for c in counts:
        out *= comb(rem, c)
        rem -= c
    return out


def ref_extend_block(block, table, branching, out, weight):
    h = block.depth
    groups = []
    for s, s_comp, n_a in ref_child_types(table):
        law = branching.law(s, s_comp)
        opts = law.sorted_items()
        combos = []
        for combo in ref_multisets(len(opts), n_a):
            w = ref_multinomial(n_a, combo)
            pr = Fraction(1) if isinstance(weight, Fraction) else 1.0
            chosen = []
            for idx, cnt in enumerate(combo):
                if cnt == 0:
                    continue
                tau, p = opts[idx]
                pr = pr * p**cnt
                chosen.append((tau, cnt))
            combos.append((chosen, w * pr))
        groups.append(combos)
    for pick in itertools.product(*groups):
        chosen_all = []
        pr = weight
        for chosen, w in pick:
            chosen_all.extend(chosen)
            pr = pr * w
        out.append((_join(h + 1, [sub for sub, cnt in chosen_all for _ in range(cnt)]), pr))


def ref_marginal_step(law):
    branching = ref_branching(law)
    types = root_edge_types(law)
    picks = []
    for block, p in law.items():
        ref_extend_block(block, types[block], branching, picks, p)
    return NeighborhoodLaw(law.depth + 1, ref_sum_by_key(picks), mode=law.mode)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def same(got, want):
    """Equal dicts with the same key order, and every value of the same type."""
    assert list(got) == list(want)
    assert got == want
    assert all(type(got[k]) is type(want[k]) for k in want)


def check_tables(law):
    assert mean_degree(law) == ref_mean_degree(law)
    assert type(mean_degree(law)) is type(ref_mean_degree(law))
    same(edge_intensity_table(law), ref_intensity_table(law))
    same(edge_type_distribution(law), ref_edge_type_distribution(law))
    assert is_admissible(law) == ref_admissibility(law)
    got, want = typed_branching_law(law).table, ref_branching(law).table
    assert list(got) == list(want)
    for key in want:
        same(got[key].support, want[key].support)
        assert all(type(w) is Fraction for w in got[key].support.values())


@SETTINGS
@given(degree_law=small_degree_laws())
def test_exact_tower_equals_the_per_product_reference(degree_law):
    law = NeighborhoodLaw.from_degree_law(degree_law)
    while law.depth < 3:
        check_tables(law)
        if _extension_size(law, root_edge_types(law), typed_branching_law(law)) > CAP:
            return
        got = marginal_ugw(law, law.depth + 1, support_cap=CAP)
        want = ref_marginal_step(law)
        same(got.support, want.support)
        assert all(type(w) is Fraction for w in got.support.values())
        law = got
    check_tables(law)


def test_depth_two_equals_the_brute_oracle():
    for degree_law in (
        {1: Fraction(1, 2), 2: Fraction(1, 2)},
        {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)},
        {1: Fraction(1, 6), 3: Fraction(5, 6)},
        {2: Fraction(1, 4), 4: Fraction(3, 4)},
    ):
        P = NeighborhoodLaw.from_degree_law(degree_law)
        got = marginal_ugw(P, 2)
        assert got == brute_ugw_marginal(P, 2)
        assert all(type(w) is Fraction for w in got.support.values())
