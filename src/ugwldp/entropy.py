"""Entropy and rate functionals for sparse-graph neighborhood laws.

All entropies are in nats.  The central object is the per-vertex entropy
of the tree ensemble pinned to a depth-h neighborhood law: its value for
a prescribed-law tree admits a closed form in the law itself (degree-law
entropy, edge-type entropy, local pattern factorials), and the rate
functions of the uniform fixed-degree, uniform fixed-edge and binomial
ensembles are differences of such values.

Conventions: 0 log 0 = 0; constraint violations yield +inf rates; a d or
lambda that is not finite, or out of range, raises ValueError.  A law
with mass on a class that holds a cycle has rate +inf under every
ensemble; its entropy would be -inf, and asking for it raises
CyclicLawError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .neighborhood import (
    CyclicLawError,  # raised by _check_trees; importable from here as well
    NeighborhoodLaw,
    _check_trees,
    edge_type_distribution,
    is_admissible,
    mean_degree,
    root_edge_types,
    truncate_law,
)
from .rooted import GENERAL

INF = float("inf")

_MEAN_TOL = 1e-9


def _check_parameter(name, x, positive: bool) -> float:
    """float(x), or ValueError unless x is finite and > 0 (positive) or >= 0."""
    x = float(x)
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {x}")
    return x


def _on_trees(P) -> bool:
    return all(c.kind != GENERAL for c in P)


def entropy_constant(d) -> float:
    """Per-vertex entropy constant of the uniform graph ensemble at mean degree d."""
    d = _check_parameter("d", d, positive=False)
    if d == 0:
        return 0.0
    return d / 2 - (d / 2) * math.log(d)


def _as_float(p) -> float:
    """float(p), bit for bit: a float as it is, a Fraction or int as numerator / denominator.

    float() of a Fraction runs numbers.Rational.__float__, which is this
    same true division after two int() calls.
    """
    return p if isinstance(p, float) else p.numerator / p.denominator


def _xlogx(p) -> float:
    p = _as_float(p)
    return 0.0 if p == 0 else p * math.log(p)


def shannon(P) -> float:
    """Shannon entropy of a law given as a NeighborhoodLaw or a mapping."""
    return -sum(_xlogx(p) for _, p in P.items()) + 0.0


def relative_entropy(P, Q) -> float:
    """KL divergence between two finite-support laws on the same key space."""
    q_map = dict(Q.items())
    out = 0.0
    for key, p in P.items():
        if p == 0:
            continue
        q = q_map.get(key, 0)
        if q == 0:
            return INF
        p = float(p)
        out += p * (math.log(p) - math.log(float(q)))
    return out


def relative_entropy_poisson(P, lam) -> float:
    """KL divergence of a finite-mean degree law from the Poisson of mean lam.

    Evaluated in closed form (no tail truncation): the Poisson log-mass at
    k is -lam + k log lam - log k!.
    """
    lam = float(lam)
    if lam == 0:
        return 0.0 if dict(P).get(0, 0) == 1 else INF
    out = 0.0
    for k, p in P.items():
        if p == 0:
            continue
        p = float(p)
        out += p * math.log(p)
        out += p * (lam - k * math.log(lam) + math.lgamma(k + 1))
    return out


def _degree_law(P):
    if isinstance(P, NeighborhoodLaw):
        return P.degree_law()
    return dict(P)


def _mean(P):
    return sum(k * p for k, p in _degree_law(P).items())


def _log_factorial_term(P: NeighborhoodLaw) -> float:
    """Expected sum over edge types of log(count!) at the root."""
    types = root_edge_types(P)
    total = 0.0
    for cls, p in P.items():
        s = sum(math.lgamma(c + 1) for c in types[cls].values())
        total += _as_float(p) * s
    return total


def ugw_entropy_terms(P: NeighborhoodLaw) -> dict:
    """Term breakdown of the tree-ensemble entropy of a depth-h law."""
    rep = is_admissible(P)
    if not rep:
        raise ValueError(f"law is not admissible: {rep.violations[:3]}")
    _check_trees(P)
    d = float(rep.mean_degree)
    if d <= 0:
        raise ValueError("entropy needs positive mean degree")
    H_P = shannon(P)
    H_pi = shannon(edge_type_distribution(P))
    log_fact = _log_factorial_term(P)
    s_d = entropy_constant(d)
    value = -s_d + H_P - (d / 2) * H_pi - log_fact
    return {
        "mean_degree": d,
        "s_d": s_d,
        "H_P": H_P,
        "H_pi": H_pi,
        "log_factorials": log_fact,
        "value": value,
    }


def ugw_entropy(P: NeighborhoodLaw) -> float:
    """Per-vertex entropy of the tree ensemble with depth-h law P.

    Equals the entropy of the prescribed-neighborhood tree built from P;
    at depth 1 it reduces to entropy_constant(d) minus the Poisson KL gap.
    """
    return ugw_entropy_terms(P)["value"]


def sigma_ugw1(P) -> float:
    """Entropy of the depth-1 tree ensemble via the Poisson-gap identity."""
    deg = _degree_law(P)
    d = float(_mean(deg))
    if d == 0:
        return 0.0
    return entropy_constant(d) - relative_entropy_poisson(deg, d)


def entropy_increments(P: NeighborhoodLaw) -> list:
    """Increments [delta_1, ..., delta_h] of the marginal tower of P.

    delta_1 is the Poisson gap of the degree law.  For k >= 2, delta_k is the
    drop ugw_entropy(rho_{k-1}) - ugw_entropy(rho_k) along the truncation
    tower, equal to the KL form of oracle.kl_increment because the branch-law
    factors of the one-step extension cancel.  A depth-0 law, or a level that
    is not admissible, raises ValueError, and a cyclic class CyclicLawError.
    """
    if P.depth < 1:
        raise ValueError("entropy increments need a law of depth >= 1")
    _check_trees(P)
    tower = [P]
    while tower[0].depth > 1:
        tower.insert(0, truncate_law(tower[0], tower[0].depth - 1))
    deg = tower[0].degree_law()
    js = [ugw_entropy(rho) for rho in tower] if P.depth > 1 else []
    drops = [a - b for a, b in zip(js, js[1:])]
    return [relative_entropy_poisson(deg, float(_mean(deg)))] + drops


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------


def _means_match(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= _MEAN_TOL * max(1.0, abs(fa), abs(fb))


def rate_fixed_degrees(Q: NeighborhoodLaw, P) -> float:
    """LDP rate of hitting depth-h law Q under the uniform fixed-degree ensemble.

    Infinite unless Q is on trees and its degree marginal equals the
    ensemble's degree law P; otherwise the entropy drop from depth 1 to
    depth h.
    """
    if not _on_trees(Q):
        return INF
    deg_law = dict(_degree_law(P))
    q1 = Q.degree_law()
    keys = set(deg_law) | set(q1)
    same = all(_means_match(deg_law.get(k, 0), q1.get(k, 0)) for k in keys)
    if not same:
        return INF
    d = _mean(deg_law)
    if float(d) == 0:
        return 0.0
    j1 = sigma_ugw1(deg_law)
    jh = j1 if Q.depth == 1 else ugw_entropy(Q)
    return j1 - jh


def rate_fixed_edges(Q: NeighborhoodLaw, d) -> float:
    """Rate under the uniform ensemble with a pinned edge count.

    At d = 0 the only graph has no edge, so the law with mean 0, all mass
    on the isolated root, is hit with probability 1: rate 0.
    """
    _check_parameter("d", d, positive=False)
    if not (_on_trees(Q) and _means_match(mean_degree(Q), d)):
        return INF
    if float(d) == 0:
        return 0.0
    return entropy_constant(d) - ugw_entropy(Q)


def rate_binomial(Q: NeighborhoodLaw, lam: float) -> float:
    """Rate under the binomial (independent-edge) ensemble with mean lam."""
    _check_parameter("lambda", lam, positive=True)
    if not _on_trees(Q):
        return INF
    d = float(mean_degree(Q))
    if d == 0:
        return lam / 2
    sigma = ugw_entropy(Q)
    return lam / 2 - (d / 2) * math.log(lam) - sigma


def rate_degree_fixed(P, d) -> float:
    """Degree-law rate under the fixed-edge ensemble."""
    _check_parameter("d", d, positive=False)
    if not _means_match(_mean(P), d):
        return INF
    return relative_entropy_poisson(_degree_law(P), float(d))


def rate_degree_er(P, lam: float) -> float:
    """Degree-law rate under the binomial ensemble."""
    _check_parameter("lambda", lam, positive=True)
    deg = _degree_law(P)
    d = float(_mean(deg))
    if d == 0:
        return lam / 2
    return (lam - d) / 2 - (d / 2) * math.log(lam / d) + relative_entropy_poisson(deg, d)


def discontinuity_bound(P1, P2) -> float:
    """Upper bound on the entropy of the alternating two-law tree.

    Requires both degree laws supported on {2, 3, ...}.  The bound is the
    two-block counting estimate: type entropy, block degree entropies, the
    half-edge pairing term at the harmonic-mean degree, minus local
    factorial corrections.
    """
    P1 = dict(P1)
    P2 = dict(P2)
    for P in (P1, P2):
        for k, p in P.items():
            if p != 0 and k in (0, 1):
                raise ValueError("supports must avoid degrees 0 and 1")
    d1 = float(_mean(P1))
    d2 = float(_mean(P2))
    p1 = d2 / (d1 + d2)
    p2 = d1 / (d1 + d2)
    d = 2 * d1 * d2 / (d1 + d2)
    h_types = -_xlogx(p1) - _xlogx(p2)
    h_blocks = p1 * shannon(P1) + p2 * shannon(P2)
    log_fact = p1 * sum(
        float(p) * math.lgamma(k + 1) for k, p in P1.items()
    ) + p2 * sum(float(p) * math.lgamma(k + 1) for k, p in P2.items())
    return h_types + h_blocks + (d / 2) * math.log(d / 2) - d / 2 - log_fact
