"""Tests of the benchmark itself: span arithmetic, seeded inputs, smoke runs.

    python3 -m pytest -q bench

Kept out of the library's test paths, so the tier-1 suite does not run them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# arithmetic on synthetic spans
# ---------------------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert spans.percentile(xs, 0) == 1.0
    assert spans.percentile(xs, 100) == 4.0
    assert spans.percentile(xs, 50) == 2.5
    assert spans.percentile(list(range(1, 12)), 90) == 10.0
    assert spans.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),  # overlaps a: union with a is [1, 4]
        ("c", 2.5, 3.5, 2),  # grandchild: counts against b only
        ("d", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    got = spans.self_times(synthetic)
    assert got == pytest.approx([10 - 3 - 1, 2, 1, 1, 3])


def test_by_function_aggregates_calls_self_time_and_durations():
    synthetic = [
        ("f", 0.0, 4.0, -1),
        ("g", 1.0, 2.0, 0),
        ("g", 2.0, 3.5, 0),
    ]
    funcs = spans.by_function(synthetic)
    assert funcs["f"]["calls"] == 1
    assert funcs["f"]["self_s"] == pytest.approx(1.5)
    assert funcs["g"]["calls"] == 2
    assert funcs["g"]["self_s"] == pytest.approx(2.5)
    assert funcs["g"]["durations"] == pytest.approx([1.0, 1.5])


def test_layer_metrics_ratios_on_a_synthetic_recorder():
    rec = spans.Recorder()
    durations = (0.010, 0.020, 0.030, 0.040)
    t = 0.0
    for dur in durations:
        rec.names.append("config_model.sample_G_Dh")
        rec.starts.append(t)
        rec.ends.append(t + dur)
        rec.parents.append(-1)
        t += dur
    rec.count("config_model.sample_G_Dh", "attempts", 10)
    rec.count("config_model.sample_G_Dh", "predicted_calls", 4)
    rec.count("config_model.sample_G_Dh", "predicted_attempts", 8.0)
    out = spans.layer_metrics(rec, overhead_s=0.5, cpu_per_wall=1.0, fail_frac=0.0)
    assert set(out) == {name for name, _ in spans.PER_LAYER}
    assert out["config_model.sample_G_Dh.calls"] == 4
    assert out["config_model.sample_G_Dh.accept_ratio"] == pytest.approx(0.4)
    assert out["config_model.sample_G_Dh.predicted_accept"] == pytest.approx(0.5)
    assert out["config_model.sample_G_Dh.p50_ms"] == pytest.approx(25.0)
    assert out["config_model.sample_G_Dh.p90_ms"] == pytest.approx(37.0)
    assert out["ugw.sample_ugw.us_per_vertex"] == 0.0
    assert out["trace.spans"] == 4
    assert out["trace.overhead_s"] == 0.5


def test_traced_records_nested_spans_and_restores_the_library():
    from ugwldp import config_model, experiments

    orig = experiments.cycle_counts
    rec = spans.Recorder()
    with spans.traced(rec):
        assert experiments.cycle_counts is not orig
        experiments.cycles_experiment(3, 8, 2, seed=1)
    assert experiments.cycle_counts is orig
    assert not hasattr(config_model.sample_configuration, "__wrapped__")
    funcs = spans.by_function(rec.spans())
    assert funcs["experiments.cycles_experiment"]["calls"] == 1
    assert funcs["experiments.cycle_counts"]["calls"] == 2
    assert funcs["config_model.sample_configuration"]["calls"] == 2
    assert rec.counters["config_model.sample_configuration"]["half_edges"] == 2 * 24
    top = rec.names.index("experiments.cycles_experiment")
    assert rec.parents[rec.names.index("experiments.cycle_counts")] == top


def test_reference_slowdown_is_mean_chunk_time_over_the_scale():
    ref = reference.Reference()
    with pytest.raises(ValueError):
        ref.slowdown()
    ref.run(0.0)  # always at least one chunk
    assert ref.chunks == 1 and ref.seconds > 0
    ref.run(2.4 * reference.REF_CHUNK_S)
    assert ref.chunks == 3
    ref.seconds = 6 * reference.REF_CHUNK_S
    assert ref.slowdown() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(3).fingerprint() == cls(3).fingerprint()
    assert cls(3).fingerprint() != cls(4).fingerprint()


def test_unpooled_check_leaves_the_pooled_statistics_alone():
    w, tally = workloads.Cycles(3, "tiny"), workloads.Tally()
    records = w.round(0, tally)
    w.check(records, tally, pool=False)
    assert w.rows == [] and tally.failed == 0
    w.check(records, tally)
    assert len(w.rows) == 1


def test_round_seeds_differ_by_round_and_workload():
    seeds = {workloads.round_seed(w, 5, r) for w in workloads.WORKLOADS for r in range(3)}
    assert len(seeds) == 3 * len(workloads.WORKLOADS)
    assert workloads.round_seed("cycles", 5, 0) == workloads.round_seed("cycles", 5, 0)


# ---------------------------------------------------------------------------
# the benchmark contract
# ---------------------------------------------------------------------------


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke_run(name, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace:
        assert (run.SPANS_DIR / f"{name}-7.tsv.gz").is_file()


def test_fails_without_the_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "cycles", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
