"""Cross-check grid: every closed form against its enumeration oracle.

Run via the CLI `verify` subcommand.  Each identity prints one PASS/FAIL
line; the run fails as a whole if any identity fails.  The quick subset
trims the instance grids but touches every identity.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import config_model as cm
from . import oracle
from .entropy import (
    INF,
    CyclicLawError,
    entropy_constant,
    entropy_increments,
    rate_binomial,
    rate_fixed_degrees,
    rate_fixed_edges,
    relative_entropy_poisson,
    ugw_entropy,
)
from .neighborhood import (
    NeighborhoodLaw,
    empirical_distribution,
    is_admissible,
    mean_degree,
    truncate_law,
)
from .oracle import brute_ugw_marginal, exact_acceptance_fraction, exact_equivalent_count
from .rooted import SimpleGraph
from .tree_encoding import count_equivalent_graphs, count_short_cycle_free, is_h_treelike
from .ugw import consistency_check, edge_law_identity, marginal_ugw


def tiny_degree_grid(limit_cases: int, max_space: int = 20000):
    """Deterministic mix of valid tiny degree sequences, small spaces first.

    All single-color cases with n <= 3 and entries <= 2, then two-color
    cases in a fixed sampled order until the case budget is reached.
    """
    cases = []
    for n in (1, 2, 3):
        for combo in itertools.product(range(3), repeat=n):
            D = cm.DegreeSequence.single_color(list(combo))
            if cm.validate_degree_sequence(D):
                cases.append(D)
    rng = random.Random(20240)
    two_color = []
    mats = list(itertools.product(range(3), repeat=4))
    for n in (1, 2, 3):
        for _ in range(4000):
            rows = [rng.choice(mats) for _ in range(n)]
            D = cm.DegreeSequence.from_rows(2, [list(r) for r in rows])
            if cm.validate_degree_sequence(D) and cm.config_space_size(D) <= max_space:
                two_color.append(D)
    seen = set()
    out = []
    for D in cases + two_color:
        if D not in seen:
            seen.add(D)
            out.append(D)
        if len(out) >= limit_cases:
            break
    return out


def check_exact_counts(quick=False):
    cases = tiny_degree_grid(60 if quick else 220)
    for D in cases:
        space = cm.config_space_size(D)
        counts, seen_total = oracle.exact_fiber_sizes(D)
        if seen_total != space:
            return False, f"config space size mismatch for {D}"
        total = Fraction(0)
        for H, cnt in counts.items():
            prob = Fraction(cnt, space)
            total += prob
            if cm.cm_probability(D, H) != prob:
                return False, f"projection probability mismatch for {D}"
            if cm.fiber_size(D, H) != cnt:
                return False, f"fiber size mismatch for {D}"
        if total != 1:
            return False, f"law does not sum to one for {D}"
    return True, f"{len(cases)} degree sequences"


def treelike_graph_pool(full=True):
    """(graph, depth) cases whose neighborhood-equivalent counts are enumerable."""
    path3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    pool = [
        (path3, 1),
        (SimpleGraph.from_edges(2, [(0, 1)]), 1),
        (SimpleGraph.from_edges(4, [(0, 1), (2, 3)]), 1),
        (SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 1),
        (SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1),
        (SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 1),
        (SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 1),
        (SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 1),
        (SimpleGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), 1),
        (SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 1),
        (SimpleGraph.from_edges(3, [(0, 1)]), 1),
    ]
    if full:
        pool += [
            (SimpleGraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)]), 1),
            (SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 1),
            (SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), 1),
            (SimpleGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 1),
            (SimpleGraph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]), 1),
            (SimpleGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), 1),
            (SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2),
            (SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2),
            (SimpleGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), 2),
            (SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 2),
            (SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), 2),
        ]
    return pool


def check_equivalent_counts(quick=False):
    pool = treelike_graph_pool(full=not quick)
    n_checked = 0
    for G, h in pool:
        if not is_h_treelike(G, h):
            return False, f"pool graph unexpectedly not tree-like at h={h}"
        if count_equivalent_graphs(G, h) != exact_equivalent_count(G, h):
            return False, f"equivalent-graph count mismatch (n={G.n}, h={h})"
        n_checked += 1
    return True, f"{n_checked} graphs"


def marginal_law_pool():
    half = Fraction(1, 2)
    pool = [
        (NeighborhoodLaw.from_degree_law({1: half, 2: half}), 1, 2),
        (NeighborhoodLaw.from_degree_law({3: Fraction(1)}), 1, 2),
        (NeighborhoodLaw.from_degree_law({1: Fraction(1, 3), 3: Fraction(2, 3)}), 1, 2),
        (NeighborhoodLaw.from_degree_law({0: Fraction(1, 4), 2: Fraction(3, 4)}), 1, 2),
        (NeighborhoodLaw.from_degree_law({1: half, 2: half}), 1, 3),
        (NeighborhoodLaw.from_degree_law({2: Fraction(1)}), 1, 3),
    ]
    path4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star4 = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    two_edges = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    pool.append((empirical_distribution(path4, 2), 2, 3))
    pool.append((empirical_distribution(star4, 2), 2, 3))
    pool.append((empirical_distribution(two_edges, 2), 2, 3))
    uniform12 = NeighborhoodLaw.from_degree_law({1: half, 2: half})
    pool.append((marginal_ugw(uniform12, 2), 2, 3))
    return pool


def check_marginals(quick=False):
    pool = marginal_law_pool()
    if quick:
        pool = pool[:5]
    for P, h, k in pool:
        if P.depth != h:
            return False, f"law pool entry of depth {P.depth} listed at h={h}"
        if not is_admissible(P):
            return False, "law pool contains a non-admissible law"
        if marginal_ugw(P, k) != brute_ugw_marginal(P, k):
            return False, f"marginal mismatch at (h={h}, k={k})"
        if not consistency_check(P, k):
            return False, f"consistency fails at (h={h}, k={k})"
        if not edge_law_identity(P):
            return False, f"edge intensity identity fails at h={h}"
    return True, f"{len(pool)} laws"


def check_entropy(quick=False):
    rng = random.Random(7)
    n_laws = 8 if quick else 20
    for _ in range(n_laws):
        ks = rng.sample(range(0, 7), rng.randint(2, 4))
        ws = [rng.randint(1, 9) for _ in ks]
        # two or more distinct degrees: the mean is positive
        P = {k: Fraction(w, sum(ws)) for k, w in zip(ks, ws)}
        law = NeighborhoodLaw.from_degree_law(P)
        d = float(mean_degree(law))
        gap = abs(ugw_entropy(law) - (entropy_constant(d) - relative_entropy_poisson(P, d)))
        if gap > 1e-12:
            return False, f"depth-1 entropy identity off by {gap}"
    # each increment above depth 1 against its KL definition, on the pool
    # laws and on their marginals
    n_levels = 0
    for P, _h, k in marginal_law_pool():
        for law in (P, marginal_ugw(P, k)):
            tower = [truncate_law(law, j) for j in range(1, law.depth + 1)]
            for a, b, inc in zip(tower, tower[1:], entropy_increments(law)[1:]):
                gap = abs(inc - oracle.kl_increment(a, b))
                if gap > 1e-12 or inc < -1e-12:
                    return False, f"increment {inc} at depth {b.depth}, {gap} off kl_increment"
                n_levels += 1
    # the triangle's law, all mass on a cyclic class: +inf rates, no entropy
    k3 = empirical_distribution(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 2)
    rates = (rate_binomial(k3, 2.0), rate_fixed_edges(k3, 2), rate_fixed_degrees(k3, {2: 1}))
    if rates != (INF,) * 3:
        return False, f"rates {rates} of a law with mass on a cycle"
    try:
        return False, f"entropy {ugw_entropy(k3)} of a law with mass on a cycle"
    except CyclicLawError:
        pass
    return True, f"{n_laws} degree laws, {n_levels} increments vs oracle.kl_increment, cyclic K3"


def check_acceptance_fraction(quick=False):
    cases = tiny_degree_grid(12 if quick else 30, max_space=5000)
    rng = random.Random(99)
    for D in cases:
        alpha = exact_acceptance_fraction(D, 2)
        accepted = count_short_cycle_free(D, 2) * cm.degree_factorials(D)
        if Fraction(accepted, cm.config_space_size(D)) != alpha:
            return False, "cycle detectors disagree"
        if alpha > 0:
            G, _ = cm.sample_G_Dh(D, 2, rng, max_attempts=100000)
            if cm.has_cycle_leq(cm.colorblind(G), 2):
                return False, "rejection sampler returned a short cycle"
    return True, f"{len(cases)} degree sequences"


ALL_CHECKS = [
    ("exact-count-suite", check_exact_counts),
    ("equivalent-graph-counts", check_equivalent_counts),
    ("tree-marginal-suite", check_marginals),
    ("entropy-identities", check_entropy),
    ("short-cycle-acceptance", check_acceptance_fraction),
]


def run_verify(quick=False, out=print):
    failures = 0
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn(quick=quick)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        status = "PASS" if ok else "FAIL"
        out(f"{status} {name}: {detail}")
        if not ok:
            failures += 1
    return failures
