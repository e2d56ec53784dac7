"""The benchmark's workloads: inputs from a seed, timed rounds, output checks.

Each workload builds its inputs from the seed alone, then runs rounds of
public ``ugwldp`` calls in a closed loop: a call starts when the previous
one has returned.  One round is one result at the workload's stated size,
and ``wall_s`` is the mean wall time of a round.  Outputs are checked outside
the timed region.  Sampled outputs are checked against statistical
envelopes pooled over every round of a run, never against digests, because
a change of RNG stream is legitimate; exact outputs are checked against
stored digests.  ``check(records, tally, pool=False)`` checks a round's
records without adding them to the pooled statistics: a traced run repeats
each round with the same seed, and pooling both copies would count every
sample twice and shrink the envelopes by sqrt(2).

Library functions are looked up as module attributes at call time, so the
traced run sees the wrappers it installs.  No call passes ``threads``.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
import traceback
from collections import Counter
from fractions import Fraction

from ugwldp import config_model, entropy, experiments, rooted, tree_encoding, ugw
from ugwldp.neighborhood import NeighborhoodLaw, mean_degree, tv_distance

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def round_seed(workload: str, seed: int, r: int) -> int:
    """Library seed of round r; string seeding is stable across interpreters."""
    return random.Random(f"{workload}:{seed}:{r}").getrandbits(31)


class Tally:
    """Attempted and failed operations; an operation is one public call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok = Counter()  # check group -> operations not failed so far

    def call(self, group, fn, *args, **kwargs):
        """Run one operation; a raise counts as a failure and yields None."""
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        self.ok[group] += 1
        return out

    def fail(self, group, n=1):
        """n operations of the group failed their output check."""
        n = min(n, self.ok[group])
        self.ok[group] -= n
        self.failed += n

    def fail_group(self, group):
        """A check pooled over the run failed: every operation it covers fails."""
        self.fail(group, self.ok[group])


class Cycles:
    """Short-cycle counts of the 3-regular pairing model at n=1000 (criterion 5)."""

    name = "cycles"
    SIZES = {"full": {"n": 1000, "samples": 100}, "tiny": {"n": 60, "samples": 4}}
    d = 3

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n = self.SIZES[size]["n"]
        self.samples = self.SIZES[size]["samples"]
        self.rows = []

    def fingerprint(self):
        return (self.d, self.n, self.samples, round_seed(self.name, self.seed, 0))

    def round(self, r: int, tally: Tally):
        out = tally.call(
            "cycles",
            experiments.cycles_experiment,
            self.d,
            self.n,
            self.samples,
            round_seed(self.name, self.seed, r),
        )
        return [("cycles", out)]

    def targets(self):
        d = self.d
        out = {ell: (d - 1) ** ell / (2 * ell) for ell in (1, 2, 3, 4)}
        out["simple_rate"] = math.exp(-(out[1] + out[2]))
        return out

    def check(self, records, tally: Tally, pool: bool = True):
        want = self.targets()
        for group, out in records:
            if out is None:
                continue
            rows = {row["length"]: row for row in out}
            if set(rows) != set(want) or any(
                abs(rows[k]["target"] - want[k]) > 1e-12 or rows[k]["stderr"] < 0
                for k in want
            ):
                tally.fail(group)
            elif pool:
                self.rows.append(rows)

    def final(self, tally: Tally):
        """Triangle mean, 4-cycle mean and simple rate within 3 pooled SE."""
        if not self.rows:
            return
        want = self.targets()
        for key in (3, 4, "simple_rate"):
            mean = statistics.fmean(rows[key]["mean"] for rows in self.rows)
            se = math.sqrt(sum(rows[key]["stderr"] ** 2 for rows in self.rows))
            se /= len(self.rows)
            if abs(mean - want[key]) > 3 * se:
                tally.fail_group("cycles")


class Converge:
    """Local convergence of depth-2 laws toward the tree marginal (criterion 6)."""

    name = "converge"
    # (degree law, samples per call).  Rejection makes a {3:1} sample's
    # time vary most, so it gets one sample per call; the checks pool rounds.
    LAWS = (({3: Fraction(1)}, 1), ({1: HALF, 2: HALF}, 6))
    SIZES = {"full": (200, 800, 3200), "tiny": (20, 40, 80)}
    depth = 2

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n_list = self.SIZES[size]
        self.tvs = {i: [] for i in range(len(self.LAWS))}

    def fingerprint(self):
        return (self.n_list, round_seed(self.name, self.seed, 0))

    def round(self, r: int, tally: Tally):
        seed = round_seed(self.name, self.seed, r)
        records = []
        for i, (law, samples) in enumerate(self.LAWS):
            out = tally.call(
                i,
                experiments.converge_experiment,
                law,
                list(self.n_list),
                samples=samples,
                depth=self.depth,
                seed=seed,
            )
            records.append((i, out))
        return records

    def check(self, records, tally: Tally, pool: bool = True):
        for i, out in records:
            if out is None:
                continue
            samples = self.LAWS[i][1]
            if [row["n"] for row in out] != list(self.n_list) or any(
                row["samples"] != samples or not 0 <= row["tv"] <= 1 for row in out
            ):
                tally.fail(i)
            elif pool:
                self.tvs[i].append([row["tv"] for row in out])

    def final(self, tally: Tally):
        """Mean TV over the run's rounds falls as n grows and ends <= 0.05.

        TV of a mean law of few samples is noise-dominated for the path
        law, so the ordering is checked on the mean over rounds.
        """
        for i, rows in self.tvs.items():
            if not rows:
                continue
            means = [statistics.fmean(col) for col in zip(*rows)]
            if not all(a > b for a, b in zip(means, means[1:])) or means[-1] > 0.05:
                tally.fail_group(i)


class UgwSample:
    """sample_ugw draws from a fixed depth-2 law, grown three levels beyond it."""

    name = "ugw-sample"
    BASE = {1: THIRD, 3: 2 * THIRD}
    h = 2
    SIZES = {"full": {"depth": 5, "draws": 250}, "tiny": {"depth": 3, "draws": 5}}

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.depth = self.SIZES[size]["depth"]
        self.draws = self.SIZES[size]["draws"]
        self.law = ugw.marginal_ugw(NeighborhoodLaw.from_degree_law(self.BASE), self.h)
        self.classes = Counter()

    def fingerprint(self):
        return (self.depth, self.draws, round_seed(self.name, self.seed, 0))

    def round(self, r: int, tally: Tally):
        rng = random.Random(round_seed(self.name, self.seed, r))
        return [
            ("draws", tally.call("draws", ugw.sample_ugw, self.law, self.depth, rng))
            for _ in range(self.draws)
        ]

    def check(self, records, tally: Tally, pool: bool = True):
        for group, tree in records:
            if tree is None:
                continue
            dist = _bfs(tree.adj, tree.root)
            edges = sum(len(nb) for nb in tree.adj.values()) // 2
            if len(dist) != len(tree.adj) or edges != len(tree.adj) - 1:
                tally.fail(group)
            elif max(dist.values()) > self.depth:
                tally.fail(group)
            elif pool:
                self.classes[rooted.canonicalize(tree, self.h + 1)] += 1

    def final(self, tally: Tally):
        """Empirical depth-(h+1) law within 3 SE of the exact marginal."""
        total = sum(self.classes.values())
        if not total:
            return
        target = ugw.marginal_ugw(self.law, self.h + 1)
        emp = NeighborhoodLaw(
            self.h + 1, {c: Fraction(k, total) for c, k in self.classes.items()}
        )
        if float(tv_distance(emp, target)) > 3 * math.sqrt(len(target) / total):
            tally.fail_group("draws")


def law_digest(law: NeighborhoodLaw) -> str:
    """Digest of a law's exact weights, keyed by encoding-free class features."""
    lines = sorted(
        f"{rooted.root_degree(c)} {c.n_vertices} {p.numerator}/{p.denominator}"
        for c, p in law.items()
    )
    return hashlib.sha256(f"{law.depth}\n{chr(10).join(lines)}".encode()).hexdigest()


class Treelike:
    """Encoding, counting, lazy exploration and the exact tower at h=2."""

    name = "treelike"
    LAW = {1: THIRD, 2: THIRD, 3: THIRD}
    h = 2
    SIZES = {
        "full": {"n": 300, "tiled_n": 20000, "balls": 8},
        "tiny": {"n": 40, "tiled_n": 400, "balls": 2},
    }
    # law_digest of marginal_ugw(rho, 3), rho the depth-2 marginal of LAW
    TOWER_DIGEST = "24034e5db487f1b7670e3e45f99b65b49d4e8df1216e4337e46b7c266e178809"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        cfg = self.SIZES[size]
        self.balls = cfg["balls"]
        rng = random.Random(f"{self.name}:{seed}:graph")
        D = experiments.degree_sequence_for_law(self.LAW, cfg["n"])
        G, _ = config_model.sample_G_Dh(D, 2 * self.h + 1, rng)
        self.graph = config_model.colorblind_simple(G)
        _, _, self.encoded = tree_encoding.encode(self.graph, self.h)
        copies = max(1, cfg["tiled_n"] // cfg["n"])
        self.tiled = config_model.DegreeSequence(self.encoded.L, self.encoded.mats * copies)
        self.rho = ugw.marginal_ugw(NeighborhoodLaw.from_degree_law(self.LAW), self.h)
        self._classes = None
        self.tree_balls = 0

    def fingerprint(self):
        return (tuple(sorted(self.graph.edges)), round_seed(self.name, self.seed, 0))

    def round(self, r: int, tally: Tally):
        rng = random.Random(round_seed(self.name, self.seed, r))
        G, h = self.graph, self.h
        records = [
            ("encode", tally.call("encode", tree_encoding.encode, G, h)),
            (
                "count",
                tally.call(
                    "count", tree_encoding.count_equivalent_graphs, G, h, mode="log_asymptotic"
                ),
            ),
            (
                "preserve",
                tally.call(
                    "preserve", tree_encoding.verify_neighborhood_preservation, G, h, 1, rng
                ),
            ),
        ]
        for _ in range(self.balls):
            v = rng.randrange(self.tiled.n)
            ball = tally.call("explore", config_model.explore_neighborhood, self.tiled, v, h, rng)
            records.append(("explore", ball))
        tower = tally.call("tower", ugw.marginal_ugw, self.rho, h + 1)
        value = tally.call("tower", entropy.ugw_entropy, tower)
        increments = tally.call("tower", entropy.entropy_increments, tower)
        records.append(("tower", tower))
        records.append(("tower-entropy", (tower, value, increments)))
        return records

    def source_class(self, v):
        if self._classes is None:
            self._classes = tree_encoding.neighborhood_vector(self.graph, self.h)
        return self._classes[v % self.graph.n]

    def check(self, records, tally: Tally, pool: bool = True):
        G = self.graph
        for group, out in records:
            if group == "encode" and out is not None:
                colored, _ctx, D = out
                back = config_model.colorblind_simple(colored)
                if sorted(back.edges) != sorted(G.edges) or D != self.encoded:
                    tally.fail(group)
            elif group == "count" and out is not None:
                if (out["n"], out["m"]) != (G.n, G.m) or not math.isfinite(
                    out["per_vertex_rate"]
                ):
                    tally.fail(group)
            elif group == "preserve" and out is not None:
                if out is not True:
                    tally.fail(group)
            elif group == "explore" and out is not None:
                if out.is_tree:
                    self.tree_balls += 1
                    adj = {x: set() for x in out.vertices}
                    for u, w, _c in out.edges:
                        adj[u].add(w)
                        adj[w].add(u)
                    got = rooted.canonical_from_adjacency(adj, out.root, self.h)
                    if got is not self.source_class(out.root):
                        tally.fail(group)
            elif group == "tower" and out is not None:
                if law_digest(out) != self.TOWER_DIGEST:
                    tally.fail("tower")
            elif group == "tower-entropy":
                tower, value, increments = out
                if tower is None or value is None or increments is None:
                    continue
                d = float(mean_degree(tower))
                gap = entropy.entropy_constant(d) - sum(increments) - value
                if abs(gap) > 1e-10 or any(x < -1e-12 for x in increments):
                    tally.fail("tower", 2)

    def final(self, tally: Tally):
        """At least one explored ball was a tree, so the class check ran."""
        if not self.tree_balls:
            tally.fail_group("explore")


def _bfs(adj, root):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


WORKLOADS = {w.name: w for w in (Cycles, Converge, UgwSample, Treelike)}
