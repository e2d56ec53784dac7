"""Empirical neighborhood distributions and edge-type statistics.

A :class:`NeighborhoodLaw` is a finite-support probability measure on
canonical rooted-graph classes of a fixed truncation depth.  Laws derived
from finite graphs or finite recursions carry exact rational weights;
float mode exists for tail-truncated analytic families (Poisson).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .rooted import (
    CanonicalClass,
    SimpleGraph,
    ball_classes,
    declare_depth,
    edge_type_table,
    parse_class,
    root_degree,
    star,
    truncate,
)

RATIONAL = "rational"
FLOAT = "float"

_FLOAT_MASS_TOL = 1e-12


class NeighborhoodLaw:
    """Finite-support probability measure on depth-h canonical classes.

    `support` must not be mutated after construction: the hash, and the
    tables derived from the law (edge intensities, admissibility, branch
    laws), are computed from it once per law object.  Derived tables are
    not part of equality, hashing or pickles.
    """

    __slots__ = ("depth", "support", "mode", "_derived")

    def __init__(self, depth, support, mode=RATIONAL):
        self.depth = depth
        self.mode = mode
        cleaned = {}
        for cls, p in support.items():
            if p == 0:
                continue
            if p < 0:
                raise ValueError(f"negative weight for {cls}")
            if cls.depth > depth:
                raise ValueError(
                    f"support class of depth {cls.depth} in a depth-{depth} law"
                )
            key = declare_depth(cls, depth)
            cleaned[key] = cleaned.get(key, 0) + p
        self.support = cleaned
        total = sum(cleaned.values())
        if mode == RATIONAL:
            if total != 1:
                raise ValueError(f"rational law has total mass {total}")
        else:
            if abs(total - 1) > _FLOAT_MASS_TOL:
                raise ValueError(f"float law has total mass {total!r}")
        self._derived = {}

    def __getstate__(self):
        return None, {"depth": self.depth, "support": self.support, "mode": self.mode}

    def __setstate__(self, state):
        for name, value in state[1].items():
            setattr(self, name, value)
        self._derived = {}

    def _derive(self, key, build):
        """build(self), computed on first use and kept on this law object.

        A build that raises stores nothing, so it raises again next time.
        """
        got = self._derived.get(key)
        if got is None:
            got = self._derived[key] = build(self)
        return got

    def __eq__(self, other):
        return (
            isinstance(other, NeighborhoodLaw)
            and self.depth == other.depth
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.depth, frozenset(self.support.items())))

    def __len__(self):
        return len(self.support)

    def __iter__(self):
        return iter(self.support)

    def items(self):
        return self.support.items()

    def prob(self, cls):
        return self.support.get(declare_depth(cls, self.depth), 0)

    def sorted_items(self):
        return sorted(self.support.items(), key=lambda kv: kv[0].wire())

    # -- construction -------------------------------------------------

    @staticmethod
    def point_mass(cls, depth=None):
        d = cls.depth if depth is None else depth
        return NeighborhoodLaw(d, {cls: Fraction(1)})

    @staticmethod
    def from_degree_law(P, mode=RATIONAL):
        """Depth-1 law from a probability map {root degree: weight}."""
        return NeighborhoodLaw(1, {star(k, 1): p for k, p in P.items()}, mode=mode)

    def degree_law(self):
        """Projection to the law of the root degree (plain dict)."""
        out = {}
        for cls, p in self.support.items():
            k = root_degree(cls)
            out[k] = out.get(k, 0) + p
        return out

    # -- serialization -------------------------------------------------

    def to_json(self):
        entries = []
        for cls, p in self.sorted_items():
            val = f"{p.numerator}/{p.denominator}" if self.mode == RATIONAL else float(p)
            entries.append({"class": cls.wire(), "p": val})
        return {"depth": self.depth, "mode": self.mode, "support": entries}

    @staticmethod
    def from_json(obj):
        depth = obj["depth"]
        mode = obj["mode"]
        support = {}
        for entry in obj["support"]:
            cls = parse_class(entry["class"], depth if entry["class"][0] == "(" else None)
            p = entry["p"]
            if mode == RATIONAL:
                if isinstance(p, str):
                    num, _, den = p.partition("/")
                    p = Fraction(int(num), int(den or 1))
                else:
                    p = Fraction(p)
            else:
                p = float(p)
            support[cls] = support.get(cls, 0) + p
        return NeighborhoodLaw(depth, support, mode=mode)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return NeighborhoodLaw.from_json(json.load(fh))


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    mean_degree: object
    violations: tuple  # of ((t, t'), e_forward, e_backward)

    def __bool__(self):
        return self.ok


def empirical_distribution(G: SimpleGraph, h: int) -> NeighborhoodLaw:
    """Uniform-root law of depth-h neighborhood classes of a finite graph.

    The classes come from :func:`rooted.ball_classes`: O(h * m * d log d)
    for the tree balls, d the largest degree, plus a canonical labeling
    for each ball that holds a cycle.
    """
    if G.n == 0:
        raise ValueError("empirical distribution of an empty vertex set")
    counts = Counter(ball_classes(G.adjacency(), h).values())
    return NeighborhoodLaw(
        h, {cls: Fraction(c, G.n) for cls, c in counts.items()}
    )


def mean_degree(P: NeighborhoodLaw):
    return sum(p * root_degree(cls) for cls, p in P.items())


def root_edge_types(P: NeighborhoodLaw) -> dict:
    """{cls: edge_type_table(cls, h)} over the support of a depth-h law.

    The one edge-type statistic that the intensities, the branch laws, the
    marginal extension and the entropy's factorial term all read; built
    once per law object.  A depth-0 law raises ValueError.
    """
    return P._derive("root_edge_types", _build_root_edge_types)


def _build_root_edge_types(P):
    return {cls: edge_type_table(cls, P.depth) for cls in P.support}


def edge_intensity_table(P: NeighborhoodLaw) -> dict:
    """Unnormalized edge-type intensities {(t, t'): e(t, t')} of a depth-h law.

    e(t, t') is the expected number of root neighbors realizing the ordered
    pattern (t, t').  Keys come in (t.wire(), t'.wire()) order, and the
    values sum to the mean degree.  Built once per law object.
    """
    return P._derive("edge_intensities", _build_edge_intensity_table)


def _build_edge_intensity_table(P):
    types = root_edge_types(P)
    acc = {}
    for cls, p in P.items():
        for pair, cnt in types[cls].items():
            acc[pair] = acc.get(pair, 0) + p * cnt
    return dict(sorted(acc.items(), key=lambda kv: (kv[0][0].wire(), kv[0][1].wire())))


def edge_intensity(P: NeighborhoodLaw, t: CanonicalClass, t_prime: CanonicalClass):
    key = (declare_depth(t, P.depth - 1), declare_depth(t_prime, P.depth - 1))
    return edge_intensity_table(P).get(key, 0)


def edge_type_distribution(P: NeighborhoodLaw) -> dict:
    """Edge intensities over their total, the mean degree, in the same order.

    Raises ValueError at zero mean degree.
    """
    table = edge_intensity_table(P)
    d = sum(table.values())
    if d == 0:
        raise ValueError("zero mean degree: edge-type distribution undefined")
    return {pair: w / d for pair, w in table.items()}


def is_admissible(P: NeighborhoodLaw) -> AdmissibilityReport:
    """Finite mean degree plus swap symmetry of the edge intensities.

    Checked once per law object.
    """
    return P._derive("admissibility", _build_admissibility)


def _build_admissibility(P):
    d = mean_degree(P)
    table = edge_intensity_table(P)
    tol = 0 if P.mode == RATIONAL else 1e-9 * max(1.0, float(d))
    bad = []
    for (t, tp), w in table.items():
        back = table.get((tp, t), 0)
        if abs(w - back) > tol:
            bad.append(((t, tp), w, back))
    return AdmissibilityReport(not bad, d, tuple(bad))


def tv_distance(P: NeighborhoodLaw, Q: NeighborhoodLaw):
    """Half L1 distance between two laws of the same depth."""
    if P.depth != Q.depth:
        raise ValueError(f"depth mismatch: {P.depth} vs {Q.depth}")
    keys = set(P.support) | set(Q.support)
    tot = sum(abs(P.support.get(k, 0) - Q.support.get(k, 0)) for k in keys)
    return tot / 2


def truncate_law(P: NeighborhoodLaw, k: int) -> NeighborhoodLaw:
    """Push the law through depth-k truncation of its support classes."""
    if k > P.depth:
        raise ValueError(f"cannot deepen a law from {P.depth} to {k}")
    if k == P.depth:
        return P
    out = {}
    for cls, p in P.items():
        t = truncate(cls, k)
        out[t] = out.get(t, 0) + p
    return NeighborhoodLaw(k, out, mode=P.mode)


def poisson_law(lam: float, tail: float = 1e-12) -> NeighborhoodLaw:
    """Tail-truncated Poisson degree law as a float-mode depth-1 law.

    Truncates once the remaining tail mass drops below `tail`, then
    renormalizes; the truncation point is recoverable from the support.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0:
        return NeighborhoodLaw.from_degree_law({0: 1.0}, mode=FLOAT)
    probs = {}
    p = math.exp(-lam)
    k = 0
    acc = 0.0
    while acc < 1 - tail:
        if p > 0:
            probs[k] = p
        acc += p
        k += 1
        p *= lam / k
        if k > 10 * lam + 200:
            break
    total = sum(probs.values())
    return NeighborhoodLaw.from_degree_law(
        {k: v / total for k, v in probs.items()}, mode=FLOAT
    )
