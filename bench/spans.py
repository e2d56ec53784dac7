"""Span recording around ugwldp's public functions, and span arithmetic.

A :class:`Recorder` keeps every span in memory: a name, a start, an end
and the index of the span that was open when it started.  :func:`traced`
wraps each function named in :data:`TARGETS` in every ``ugwldp`` module
namespace that holds it, which is where its callers look it up, and puts
the originals back on exit.  The library source is never edited.

Self time is a span's duration minus the part of its interval that its
child spans cover.  :func:`layer_metrics` turns the spans and the per-call
counters into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import sys
import time
from array import array

# Public functions whose spans the traced run records, by defining module.
# HOOKS below adds counters taken from the arguments or result of some.
TARGETS = (
    "experiments.cycles_experiment",
    "experiments.cycle_counts",
    "experiments.converge_experiment",
    "config_model.sample_configuration",
    "config_model.graph_of",
    "config_model.colorblind",
    "config_model.has_cycle_leq",
    "config_model.sample_G_Dh",
    "config_model.explore_neighborhood",
    "rooted.canonical_from_adjacency",
    "rooted.canonicalize",
    "rooted.split_at_edge",
    "neighborhood.empirical_distribution",
    "neighborhood.tv_distance",
    "neighborhood.is_admissible",
    "neighborhood.edge_intensity_table",
    "ugw.typed_branching_law",
    "ugw.sample_ugw",
    "ugw.marginal_ugw",
    "entropy.ugw_entropy",
    "entropy.entropy_increments",
    "tree_encoding.encode",
    "tree_encoding.is_h_treelike",
    "tree_encoding.verify_neighborhood_preservation",
    "tree_encoding.count_equivalent_graphs",
    "tree_encoding.neighborhood_vector",
)

# Per-layer metrics reported by every traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("experiments.cycles_experiment.self_s", "s"),
    ("experiments.cycle_counts.calls", "count"),
    ("experiments.cycle_counts.self_s", "s"),
    ("experiments.converge_experiment.self_s", "s"),
    ("experiments.cpu_per_wall", "ratio"),
    ("config_model.sample_configuration.calls", "count"),
    ("config_model.sample_configuration.self_s", "s"),
    ("config_model.sample_configuration.half_edges", "count"),
    ("config_model.graph_of.self_s", "s"),
    ("config_model.colorblind.self_s", "s"),
    ("config_model.has_cycle_leq.calls", "count"),
    ("config_model.has_cycle_leq.self_s", "s"),
    ("config_model.sample_G_Dh.calls", "count"),
    ("config_model.sample_G_Dh.attempts", "count"),
    ("config_model.sample_G_Dh.accept_ratio", "ratio"),
    ("config_model.sample_G_Dh.predicted_accept", "ratio"),
    ("config_model.sample_G_Dh.p50_ms", "ms"),
    ("config_model.sample_G_Dh.p90_ms", "ms"),
    ("config_model.explore_neighborhood.calls", "count"),
    ("config_model.explore_neighborhood.self_s", "s"),
    ("config_model.explore_neighborhood.ball_vertices", "count"),
    ("config_model.explore_neighborhood.us_per_ball_vertex", "us"),
    ("rooted.canonical_from_adjacency.calls", "count"),
    ("rooted.canonical_from_adjacency.self_s", "s"),
    ("rooted.canonical_from_adjacency.general_frac", "ratio"),
    ("rooted.canonicalize.calls", "count"),
    ("rooted.canonicalize.self_s", "s"),
    ("rooted.split_at_edge.calls", "count"),
    ("rooted.split_at_edge.self_s", "s"),
    ("neighborhood.empirical_distribution.calls", "count"),
    ("neighborhood.empirical_distribution.self_s", "s"),
    ("neighborhood.empirical_distribution.vertices", "count"),
    ("neighborhood.tv_distance.self_s", "s"),
    ("neighborhood.is_admissible.calls", "count"),
    ("neighborhood.is_admissible.self_s", "s"),
    ("neighborhood.edge_intensity_table.calls", "count"),
    ("neighborhood.edge_intensity_table.self_s", "s"),
    ("ugw.typed_branching_law.calls", "count"),
    ("ugw.typed_branching_law.self_s", "s"),
    ("ugw.sample_ugw.calls", "count"),
    ("ugw.sample_ugw.self_s", "s"),
    ("ugw.sample_ugw.tree_vertices", "count"),
    ("ugw.sample_ugw.us_per_vertex", "us"),
    ("ugw.sample_ugw.p50_ms", "ms"),
    ("ugw.sample_ugw.p90_ms", "ms"),
    ("ugw.marginal_ugw.calls", "count"),
    ("ugw.marginal_ugw.self_s", "s"),
    ("ugw.marginal_ugw.support", "count"),
    ("entropy.ugw_entropy.self_s", "s"),
    ("entropy.entropy_increments.self_s", "s"),
    ("tree_encoding.encode.self_s", "s"),
    ("tree_encoding.is_h_treelike.self_s", "s"),
    ("tree_encoding.verify_neighborhood_preservation.self_s", "s"),
    ("tree_encoding.count_equivalent_graphs.self_s", "s"),
    ("tree_encoding.neighborhood_vector.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("fail_frac", "ratio"),
)


class Recorder:
    """Spans in parallel arrays plus per-function counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: dict[str, dict] = {}
        self._open: list[int] = []
        self.cache: dict = {}  # for counter hooks

    def __len__(self):
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def spans(self):
        """(name, start, end, parent) tuples in opening order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def count(self, name: str, key: str, amount=1) -> None:
        cell = self.counters.setdefault(name, {})
        cell[key] = cell.get(key, 0) + amount

    def dump(self, path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s:.9f}\t{e:.9f}\t{p}\n")


# ---------------------------------------------------------------------------
# Counter hooks: (recorder, args, kwargs, result) -> None
# ---------------------------------------------------------------------------


def _predicted_accept(D, h):
    """Limiting acceptance rate from config_model.acceptance_estimate.

    Only for single-color sequences: the short-cycle motif family grows
    with the number of colors L, and takes tens of seconds at L=3, h=5.
    """
    if D.L != 1:
        return None
    from ugwldp.config_model import acceptance_estimate

    counts: dict = {}
    for mat in D.mats:
        counts[mat] = counts.get(mat, 0) + 1
    limit = {mat: c / D.n for mat, c in counts.items()}
    return acceptance_estimate(limit, D.L, h)


def _on_sample_configuration(rec, args, kwargs, out):
    D = args[0] if args else kwargs["D"]
    half_edges = sum(x for mat in D.mats for row in mat for x in row)
    rec.count("config_model.sample_configuration", "half_edges", half_edges)


def _on_sample_G_Dh(rec, args, kwargs, out):
    name = "config_model.sample_G_Dh"
    rec.count(name, "attempts", out[1])
    D = args[0] if args else kwargs["D"]
    h = args[1] if len(args) > 1 else kwargs["h"]
    if (D, h) not in rec.cache:
        rec.cache[(D, h)] = _predicted_accept(D, h)
    p = rec.cache[(D, h)]
    if p:
        rec.count(name, "predicted_calls")
        rec.count(name, "predicted_attempts", 1.0 / p)


def _on_explore(rec, args, kwargs, out):
    rec.count("config_model.explore_neighborhood", "ball_vertices", len(out.vertices))


def _on_canonical(rec, args, kwargs, out):
    from ugwldp.rooted import TREE

    if out.kind != TREE:
        rec.count("rooted.canonical_from_adjacency", "general")


def _on_empirical(rec, args, kwargs, out):
    G = args[0] if args else kwargs["G"]
    rec.count("neighborhood.empirical_distribution", "vertices", G.n)


def _on_sample_ugw(rec, args, kwargs, out):
    rec.count("ugw.sample_ugw", "tree_vertices", len(out.adj))


def _on_marginal(rec, args, kwargs, out):
    cell = rec.counters.setdefault("ugw.marginal_ugw", {})
    cell["support"] = max(cell.get("support", 0), len(out))


HOOKS = {
    "config_model.sample_configuration": _on_sample_configuration,
    "config_model.sample_G_Dh": _on_sample_G_Dh,
    "config_model.explore_neighborhood": _on_explore,
    "rooted.canonical_from_adjacency": _on_canonical,
    "neighborhood.empirical_distribution": _on_empirical,
    "ugw.sample_ugw": _on_sample_ugw,
    "ugw.marginal_ugw": _on_marginal,
}


def _wrap(rec: Recorder, name: str, fn, hook):
    def traced_call(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, out)
        return out

    traced_call.__wrapped__ = fn
    return traced_call


@contextlib.contextmanager
def traced(rec: Recorder):
    """Wrap every target wherever a loaded ``ugwldp`` module binds it."""
    modules = [m for k, m in list(sys.modules.items()) if k == "ugwldp" or k.startswith("ugwldp.")]
    patched = []
    try:
        for target in TARGETS:
            mod_name, func_name = target.split(".")
            orig = getattr(sys.modules[f"ugwldp.{mod_name}"], func_name)
            wrapper = _wrap(rec, target, orig, HOOKS.get(target))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
        yield rec
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent) span."""
    children: dict[int, list] = {}
    for name, s, e, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    return [
        (e - s) - _covered(children.get(i, ()), s, e)
        for i, (name, s, e, parent) in enumerate(spans)
    ]


def by_function(spans) -> dict[str, dict]:
    """Per name: calls, total self time, and the list of span durations."""
    out: dict[str, dict] = {}
    for (name, s, e, _), self_s in zip(spans, self_times(spans)):
        cell = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        cell["calls"] += 1
        cell["self_s"] += self_s
        cell["durations"].append(e - s)
    return out


def layer_metrics(rec: Recorder, overhead_s: float, cpu_per_wall: float, fail_frac: float):
    """Every per-layer metric, as {name: value}; absent layers read zero."""
    funcs = by_function(rec.spans())
    values: dict[str, float] = {
        "experiments.cpu_per_wall": cpu_per_wall,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(rec),
        "fail_frac": fail_frac,
    }

    def get(target, key):
        if key in ("calls", "self_s"):
            return funcs.get(target, {}).get(key, 0)
        return rec.counters.get(target, {}).get(key, 0)

    def ms(target, q):
        durations = funcs.get(target, {}).get("durations")
        return percentile(durations, q) * 1e3 if durations else 0.0

    for metric, _unit in PER_LAYER:
        if metric in values:
            continue
        target, _, key = metric.rpartition(".")
        calls = get(target, "calls")
        if key == "accept_ratio":
            attempts = get(target, "attempts")
            values[metric] = calls / attempts if attempts else 0.0
        elif key == "predicted_accept":
            # calls over the attempts the predicted rates imply, so the
            # figure compares directly with accept_ratio
            n_pred = get(target, "predicted_calls")
            values[metric] = n_pred / get(target, "predicted_attempts") if n_pred else 0.0
        elif key in ("p50_ms", "p90_ms"):
            values[metric] = ms(target, 50 if key == "p50_ms" else 90)
        elif key == "general_frac":
            values[metric] = get(target, "general") / calls if calls else 0.0
        elif key == "us_per_ball_vertex":
            n = get(target, "ball_vertices")
            values[metric] = get(target, "self_s") / n * 1e6 if n else 0.0
        elif key == "us_per_vertex":
            n = get(target, "tree_vertices")
            values[metric] = get(target, "self_s") / n * 1e6 if n else 0.0
        else:
            values[metric] = get(target, key)
    return values
