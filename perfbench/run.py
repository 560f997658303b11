#!/usr/bin/env python3
"""simhaus benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload classes5 --seed 0 --seconds 40 --trace 0

Workloads (why each exists is in ``workloads.py``): ``classes5``,
``labeled``, ``iso_pairs``, or ``all`` to run each in turn.

Each timed pass runs in a fresh single process (``worker.py``), so the
program's caches are cold at the start of every pass, as they are for a
CLI user. Inputs are generated from the seed before the pass timer
starts. Passes repeat, one after another, until the next one would end
after ``--seconds``, with at least three untraced passes (``--trace 0``)
or one untraced and one traced pass (``--trace 1``).

End-to-end metrics (``--trace 0``):
  run_s        median over passes of the wall time of one pass
  item_p50_ms  median time of one item, over all items of all passes
  item_p90_ms  90th percentile of the same; classes5 has one item per
               pass (the whole ``matrix 5`` call), so both are pass times
  setup_s      median wall time from process start until the inputs exist
               (interpreter, imports, generation) over at least 5 processes
  peak_rss_mb  median peak RSS of the pass processes

All times are scaled by the host speed measured during the same pass or
set-up (``speed.py``), so that they compare across minutes on a shared
host; the unscaled median pass time is printed as ``wall_s``.

Per-layer metrics (``--trace 1``) are listed in ``tracing.PER_LAYER``.
Each is the median over the traced passes; counts should repeat exactly,
and a note says when they do not. ``trace.overhead_s`` is traced
``run_s`` minus untraced ``run_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
fail ratio. The lines above it give the metrics, the fail ratio and the
environment in words. Exit code 2 means the program's sources are
missing, 3 that a pass process broke or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = (("run_s", "s"), ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 5
MIN_PLAIN_PASSES = 3
DEADLINE_S = 170.0
# One interpreter thread per pass process: no BLAS pools, and hash order fixed
# so that traced counts repeat exactly.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                  OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class PassError(RuntimeError):
    pass


def run_worker(name: str, seed: int, mode: str, deadline: float) -> dict:
    """Start one pass process, wait for it and return its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), mode, repr(time.time())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=WORKER_ENV, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass of {name} ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{mode} pass of {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    modes = ("plain", "traced") if traced else ("plain",)
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    setups: list[float] = []
    start = time.monotonic()
    while True:
        for mode in modes:
            result = run_worker(name, seed, mode, deadline)
            setups.append(result["setup_s"])
            passes[mode].append(result)
        rounds = len(passes["plain"])
        spent = time.monotonic() - start
        if (traced or rounds >= MIN_PLAIN_PASSES) and spent + spent / rounds > seconds:
            break
    while len(setups) < SETUP_SAMPLES and not traced:
        setups.append(run_worker(name, seed, "setup", deadline)["setup_s"])

    every = [r for rs in passes.values() for r in rs]
    plain = passes["plain"]
    summary = {
        "passes": {m: len(rs) for m, rs in passes.items()},
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "failures": [f for r in every for f in r["failures"]][:5],
        "notes": sorted({n for r in every for n in r["notes"]}),
        "env": every[0]["env"],
    }
    if not traced:
        items = [t for r in plain for t in r["item_s"]]
        summary["wall_s"] = statistics.median(r["wall_s"] for r in plain)
        summary["metrics"] = {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "item_p50_ms": percentile(items, 0.5) * 1e3,
            "item_p90_ms": percentile(items, 0.9) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        return summary

    runs = passes["traced"]
    metrics: dict[str, float] = {}
    for metric, unit, _needs in PER_LAYER:
        values = [r["layers"][metric] for r in runs if metric in r["layers"]]
        if len(values) != len(runs):
            continue
        metrics[metric] = statistics.median(values)
        if unit not in ("s", "1/s") and len(set(values)) > 1:
            summary["notes"].append(f"{metric} differs between traced passes: {values}")
    metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in runs)
                                   - statistics.median(r["run_s"] for r in plain))
    summary["metrics"] = metrics
    return summary


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(name: str, seed: int, traced: bool, summary: dict) -> dict:
    units = dict(END_TO_END) if not traced else {m: u for m, u, _ in PER_LAYER}
    print(f"# workload {name}  seed {seed}  trace {int(traced)}  passes {summary['passes']}")
    for metric, value in summary["metrics"].items():
        print(f"{metric:44s} {value:.6g} {units[metric]}")
    if "wall_s" in summary:
        print(f"{'wall_s (unscaled run_s)':44s} {summary['wall_s']:.6g} s")
    print(f"fail_ratio {summary['failed']}/{summary['attempted']}")
    for failure in summary["failures"]:
        print(f"failure: {failure}")
    for note in summary["notes"]:
        print(f"note: {note}")
    env = dict(summary["env"], nproc=os.cpu_count(), commit=git_commit())
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in summary["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "simhaus" / "__init__.py").is_file():
        print(f"error: no simhaus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            summary = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
            results[name] = report(name, args.seed, bool(args.trace), summary)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
