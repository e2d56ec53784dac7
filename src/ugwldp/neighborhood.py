"""Empirical neighborhood distributions and edge-type statistics.

A :class:`NeighborhoodLaw` is a finite-support probability measure on
canonical rooted-graph classes of a fixed truncation depth.  Laws derived
from finite graphs or finite recursions carry exact rational weights;
float mode exists for tail-truncated analytic families (Poisson).
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .rooted import (
    GENERAL,
    SimpleGraph,
    _check_int,
    _redeclare,
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


def _sum_by_key(pairs, den=None) -> dict:
    """{key: the sum of its weights} over a list of (key, weight) pairs.

    Keys come in first-seen order.  With den given, as it is for a
    rational law (:func:`_weights`), the weights are integer numerators
    over den: they are added as integers, and each key gets one
    Fraction(sum, den) at the end, so the whole sum costs one gcd per key.
    Without den, as for a float law, the weights are added one by one in
    the given order, starting from 0, so a float sum keeps every bit of the
    plain loop's.
    """
    acc = {}
    for key, w in pairs:
        acc[key] = acc.get(key, 0) + w
    if den is None:
        return acc
    return {key: Fraction(num, den) for key, num in acc.items()}


def _total(weights, den=None):
    """The sum of the weights, as :func:`_sum_by_key` sums one key's."""
    return _sum_by_key([(None, w) for w in weights], den).get(None, 0)


def _weights(P) -> tuple:
    """(den, {cls: weight}): the weights that the exact law tables add up.

    For a rational law, whose weights are all Fractions, den is the lcm of
    their denominators and each weight is the integer n with
    P(cls) == n / den, so a table sums integers and builds one Fraction
    per key.  For a float law den is None and the weights are P's own
    floats, added in order.  Built once per law object, with the law.
    """
    return P._derive("weights", _build_weights)


def _build_weights(P):
    support = P.support
    if P.mode == FLOAT:
        return None, support
    den = math.lcm(*(w.denominator for w in support.values()))
    return den, {cls: w.numerator * (den // w.denominator) for cls, w in support.items()}


def _dividable(P, table):
    """A law table of P ready to divide, and its division.

    For a rational law its Fraction values become integer numerators over
    the law's common denominator, and a quotient of two is one
    Fraction(n, m); for a float law the values stay, and a quotient is
    w / e.
    """
    den, _ = _weights(P)
    if den is None:
        return table, operator.truediv
    return {key: w.numerator * (den // w.denominator) for key, w in table.items()}, Fraction


class CyclicLawError(ValueError):
    """A law has mass on a class that holds a cycle where a tree law is needed.

    Raised by the entropy functionals and by the branch-table build behind
    the exact marginals and the sampler.
    """


def _check_trees(P) -> None:
    """Raise CyclicLawError, naming the class, if P has mass on a cyclic class."""
    for c in P:
        if c.kind == GENERAL:
            raise CyclicLawError(f"law is not supported on trees: class {c.wire()} holds a cycle")


def _check_mode(mode) -> None:
    """Raise ValueError unless mode is "rational" or "float"."""
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"law mode must be {RATIONAL!r} or {FLOAT!r}, got {mode!r}")


class NeighborhoodLaw:
    """Finite-support probability measure on depth-h canonical classes.

    `support` must not be mutated after construction: the hash, and the
    tables derived from the law (edge intensities, admissibility, branch
    laws), are computed from it once per law object.  Derived tables are
    not part of equality, hashing or pickles.  Weights of classes that are
    re-declared to the same depth-h class are merged by :func:`_sum_by_key`.

    The mode decides the type of every weight, here and nowhere else.  A
    "rational" law, the default, keeps a Fraction weight as it is, turns an
    int into a Fraction and rejects a float with ValueError; a "float" law
    turns every weight into a float.  Any other mode raises ValueError, and
    so does a depth that is not an int >= 0 (a bool is not a depth).
    A rational law writes its weights once as integer numerators over
    one common denominator (:func:`_weights`): the total-mass check, the
    mean degree, the edge intensities, the edge-type distribution, the
    branch laws and the marginal's extension add and multiply those
    integers, and build one Fraction per output key.  The per-class tables
    the law tables read (truncations, edge types) are kept on the interned
    classes, so a fresh law over known classes rebuilds only its own sums.
    """

    __slots__ = ("depth", "support", "mode", "_derived")

    def __init__(self, depth, support, mode=RATIONAL):
        _check_mode(mode)
        _check_int("depth", depth, 0)
        self.depth = depth
        self.mode = mode
        pairs = []
        for cls, p in support.items():
            if mode == FLOAT:
                p = float(p)
            elif type(p) is not Fraction:
                if not isinstance(p, (int, Fraction)):
                    raise ValueError(f"a rational law takes int or Fraction weights, got {p!r}")
                p = Fraction(p)
            if p == 0:
                continue
            if p < 0:
                raise ValueError(f"negative weight for {cls}")
            if cls.depth > depth:
                raise ValueError(
                    f"support class of depth {cls.depth} in a depth-{depth} law"
                )
            pairs.append((_redeclare(cls, depth), p))
        cleaned = dict(pairs)
        if len(cleaned) < len(pairs):
            cleaned = _sum_by_key(pairs)
        self.support = cleaned
        self._derived = {}
        den, weights = _weights(self)
        total = _total(weights.values(), den)
        if mode == RATIONAL:
            if total != 1:
                raise ValueError(f"rational law has total mass {total}")
        else:
            if not abs(total - 1) <= _FLOAT_MASS_TOL:  # a NaN weight fails too
                raise ValueError(f"float law has total mass {total!r}")

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
    def from_degree_law(P, mode=RATIONAL):
        """Depth-1 law from a probability map {root degree: weight}.

        A rational law takes int or Fraction weights and holds Fractions;
        a float law holds floats.
        """
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
            val = f"{p.numerator}/{p.denominator}" if self.mode == RATIONAL else p
            entries.append({"class": cls.wire(), "p": val})
        return {"depth": self.depth, "mode": self.mode, "support": entries}

    @staticmethod
    def from_json(obj):
        depth = obj["depth"]
        mode = obj["mode"]
        _check_mode(mode)
        _check_int("depth", depth, 0)
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

    The classes come from :func:`rooted.ball_classes` on G's
    vertex-indexed adjacency: an O(n + m) arc table, O(n + m) for the
    depth-1 messages read off the degrees and O((h - 2) * m * d log d) for
    the deeper ones, d the largest degree, O(n + m) for the 2-core, one
    BFS over the larger vertices from each core vertex to find the short
    cycles from their least vertices, and a girth BFS and a canonical
    labeling of the core of each ball near one, the ball without its
    pendant trees.
    """
    if G.n == 0:
        raise ValueError("empirical distribution of an empty vertex set")
    counts = Counter(ball_classes(G.adjacency(), h).values())
    return NeighborhoodLaw(
        h, {cls: Fraction(c, G.n) for cls, c in counts.items()}
    )


def mean_degree(P: NeighborhoodLaw):
    den, weights = _weights(P)
    return _total([p * root_degree(cls) for cls, p in weights.items()], den)


def root_edge_types(P: NeighborhoodLaw) -> dict:
    """{cls: edge_type_table(cls, h)} over the support of a depth-h law.

    The one edge-type statistic that the intensities, the branch laws, the
    marginal extension and the entropy's factorial term all read; built
    once per law object.  Each class's table is kept on the class, so
    after the first law that holds it, it costs O(root degree) to copy.
    A depth-0 law raises ValueError.
    """
    return P._derive("root_edge_types", _build_root_edge_types)


def _build_root_edge_types(P):
    return {cls: edge_type_table(cls, P.depth) for cls in P.support}


def edge_intensity_table(P: NeighborhoodLaw) -> dict:
    """Unnormalized edge-type intensities {(t, t'): e(t, t')} of a depth-h law.

    e(t, t') is the expected number of root neighbors realizing the ordered
    pattern (t, t').  Keys come in (t.wire(), t'.wire()) order, and the
    values sum to the mean degree.  Built once per law object; an exact
    law sums integer numerators (:func:`_weights`) and builds one Fraction
    per key.
    """
    return P._derive("edge_intensities", _build_edge_intensity_table)


def _build_edge_intensity_table(P):
    types = root_edge_types(P)
    den, weights = _weights(P)
    acc = _sum_by_key(
        [(pair, p * cnt) for cls, p in weights.items() for pair, cnt in types[cls].items()],
        den,
    )
    return dict(sorted(acc.items(), key=lambda kv: (kv[0][0].wire(), kv[0][1].wire())))


def edge_type_distribution(P: NeighborhoodLaw) -> dict:
    """Edge intensities over their total, the mean degree, in the same order.

    Raises ValueError at zero mean degree.
    """
    table, div = _dividable(P, edge_intensity_table(P))
    d = sum(table.values())
    if d == 0:
        raise ValueError("zero mean degree: edge-type distribution undefined")
    return {pair: div(w, d) for pair, w in table.items()}


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
        # at tol 0, != compares two Fractions without building a third
        if w != back if tol == 0 else abs(w - back) > tol:
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
    _check_int("depth", k, 0)
    if k > P.depth:
        raise ValueError(f"cannot deepen a law from {P.depth} to {k}")
    if k == P.depth:
        return P
    den, weights = _weights(P)
    out = _sum_by_key([(truncate(cls, k), p) for cls, p in weights.items()], den)
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
