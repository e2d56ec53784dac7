"""One benchmark workload in a fresh interpreter.

Started by run.py, never by hand.  It imports ``ugwldp`` from the
checkout's ``src``, builds the workload's inputs from the seed, prints
``ready`` and then, by mode:

- ``setup``: exits;
- ``measure``: runs rounds for the given seconds with tracing off,
  interleaved with the reference task of reference.py, and prints one
  JSON line with the round wall times (after one warm-up round), the
  host's slowdown over them and peak memory;
- ``trace``: alternates untraced and traced runs of each round and prints
  one JSON line with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_SHARE = 0.25  # reference time per second of measured rounds


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ugwldp

    where = Path(ugwldp.__file__).resolve().parent
    if where != (src / "ugwldp").resolve():
        raise SystemExit(f"ugwldp imported from {where}, not from {src}")


def cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_round(workload, r, tally):
    t0 = time.perf_counter()
    records = workload.round(r, tally)
    return time.perf_counter() - t0, records


def measure(workload, tally, seconds):
    """Round wall times and the host's slowdown over them.

    The first round is a warm-up that fills caches.  After each later round
    the reference task runs for REF_SHARE of that round's time, so its
    chunks sample the host's speed in the same phases as the rounds.
    """
    from reference import Reference

    ref = Reference()
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        wall, records = timed_round(workload, len(walls), tally)
        if walls:
            ref.run(REF_SHARE * wall)
        walls.append(wall)
        workload.check(records, tally)
    peak = peak_rss_mb()
    workload.final(tally)
    return {
        "warmup_s": walls[0],
        "walls": walls[1:],
        "slowdown": ref.slowdown(),
        "peak_rss_mb": peak,
    }


def trace(workload, tally, seconds, spans_path):
    import spans

    rec = spans.Recorder()
    plain, traced = [], []
    cpu = wall_traced = 0.0
    deadline = time.perf_counter() + seconds
    r = 0
    while not traced or time.perf_counter() < deadline:
        # alternate which side goes first, so warm caches favour neither
        for use_trace in (r % 2 == 1, r % 2 == 0):
            if use_trace:
                c0 = cpu_seconds()
                with spans.traced(rec):
                    wall, records = timed_round(workload, r, tally)
                cpu += cpu_seconds() - c0
                wall_traced += wall
                traced.append(wall)
            else:
                wall, records = timed_round(workload, r, tally)
                plain.append(wall)
            # both sides draw the same samples; pool them once
            workload.check(records, tally, pool=not use_trace)
        r += 1
    workload.final(tally)
    rec.dump(spans_path)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics = spans.layer_metrics(
        rec, overhead, cpu / wall_traced, tally.failed / tally.attempted
    )
    return {"rounds": r, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans", help="trace mode: gzipped TSV file for the spans")
    args = ap.parse_args(argv)

    import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    tally = workloads.Tally()
    if args.mode == "measure":
        out = measure(workload, tally, args.seconds)
    else:
        out = trace(workload, tally, args.seconds, args.spans)
    out.update(attempted=tally.attempted, failed=tally.failed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
