"""Benchmark of the ugwldp library: one workload per invocation.

    python3 bench/run.py --workload cycles --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): cycles, converge,
ugw-sample, treelike.  Every interpreter that runs library code is fresh
and single-threaded, and imports ``ugwldp`` from this checkout's ``src``.

With ``--trace 0`` the run times set-up in several fresh interpreters
(start to inputs ready) around one more that measures the workload with
tracing off; it reports ``setup_s`` (median set-up), ``wall_s`` (mean
round time, i.e. time per result at the stated size) and ``peak_rss_mb``.
The mean, not the median: on a shared host whose speed alternates between
phases lasting minutes, round times are bimodal, and their median jumps
between the modes while their mean moves smoothly.  Both times are
divided by the host's slowdown, which the measuring interpreter reads off
a fixed reference task run between its rounds (see reference.py), so they
read as seconds at reference speed; the raw times are in the context
record.  With ``--trace 1`` it reports the per-layer metrics of a traced
run instead, and writes its spans to
``.bench_spans/<workload>-<seed>.tsv.gz``.  The second-to-last line of
standard output is a context record (revision, Python, CPUs, load, source
size); the last line is the JSON result.  The exit code is nonzero, and
no result is printed, when the library source is missing or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_spans"  # traced runs write their spans here
WORKLOADS = ("cycles", "converge", "ugw-sample", "treelike")
SETUP_RUNS = 5  # set-up-only interpreters, timed from start to inputs ready
TIME_LIMIT_S = 170  # the whole invocation, children included
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _alarm(signum, frame):
    raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")


def spawn(args, mode, extra=()):
    """Run worker.py once; return (seconds from start to ready, JSON payload)."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--size", args.size,
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {mode} run failed with exit code {code}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def git_rev():
    """Commit of the checkout from .git, or None when it is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "ugwldp").glob("*.py"))
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for smoke tests")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        if not (ROOT / "src" / "ugwldp" / "__init__.py").is_file():
            raise BenchError(f"library source not found under {ROOT / 'src'}")
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines(),
            "loadavg_before": list(os.getloadavg()),
        }
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans_file = SPANS_DIR / f"{args.workload}-{args.seed}.tsv.gz"
            _, out = spawn(args, "trace", ["--seconds", str(args.seconds), "--spans", str(spans_file)])
            metrics = {
                name: {"value": out["metrics"][name], "unit": unit}
                for name, unit in PER_LAYER
            }
            context.update(rounds=out["rounds"], spans_file=str(spans_file.relative_to(ROOT)))
        else:
            # set-up is timed before and after the measuring run, so that a
            # slow phase of the shared host does not skew every sample
            setups = [spawn(args, "setup")[0] for _ in range(SETUP_RUNS // 2 + 1)]
            ready, out = spawn(args, "measure", ["--seconds", str(args.seconds)])
            setups.append(ready)
            setups += [spawn(args, "setup")[0] for _ in range(SETUP_RUNS // 2)]
            walls = out["walls"]
            # the set-up interpreters run just before and after the
            # measuring one, so its reading of the host's speed holds for them
            slowdown = out["slowdown"]
            values = {
                "setup_s": statistics.median(setups) / slowdown,
                "wall_s": statistics.fmean(walls) / slowdown,
                "peak_rss_mb": out["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            context.update(
                rounds=len(walls),
                slowdown=slowdown,
                raw_setup_s=statistics.median(setups),
                raw_wall_s=statistics.fmean(walls),
                warmup_s=out["warmup_s"],
                round_walls=walls,
                setup_s_all=setups,
            )
        context["loadavg_after"] = list(os.getloadavg())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
