#!/usr/bin/env python3
"""Self-test of the benchmark harness itself (about 30 s).

    python3 perfbench/selftest.py

Checks that generation is deterministic for a seed, that the checker
reports corrupted outputs as failures, that ``BENCHMARK.json`` lists
exactly the metrics the harness prints, and that two traced passes of
``classes5`` count exactly 2640 LP solves, 16110 kernel pairs and 180
classes. Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import simhaus  # noqa: E402
import simhaus.cli  # noqa: E402,F401

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def test_generation_is_seeded() -> None:
    for name in workloads.WORKLOADS:
        first = workloads.describe(workloads.generate(simhaus, name, 7))
        expect(first == workloads.describe(workloads.generate(simhaus, name, 7)),
               f"{name}: the same seed gives the same inputs")
        if name != "classes5":
            expect(first != workloads.describe(workloads.generate(simhaus, name, 8)),
                   f"{name}: another seed gives other inputs")
    sizes = {name: len(workloads.generate(simhaus, name, 0)) for name in ("labeled", "iso_pairs")}
    expect(all(n >= 100 for n in sizes.values()), f"at least 100 items per pass: {sizes}")


def test_checker_catches_corruption() -> None:
    golden = workloads.load_golden()
    seed = golden["labeled"]["seed"]
    items = workloads.generate(simhaus, "labeled", seed)
    outputs = [Fraction(v) for v in golden["labeled"]["outputs"]]
    expect(not any(workloads.check(simhaus, "labeled", seed, items, outputs, golden)),
           "labeled: the golden outputs pass")
    heavy = next(i for i, item in enumerate(items) if item[0] == "heavy")
    bad = list(outputs)
    bad[heavy] += Fraction(1, 1000)
    problems = workloads.check(simhaus, "labeled", seed, items, bad, golden)
    expect([i for i, p in enumerate(problems) if p] == [heavy], "labeled: a wrong golden value fails")

    other = [item for item in workloads.generate(simhaus, "labeled", seed + 1) if item[0] == "closed"]
    exact = [item[3] for item in other]
    expect(not any(workloads.check(simhaus, "labeled", seed + 1, other, exact, golden)),
           "labeled: closed forms pass on another seed")
    exact[0] = 1 - exact[0]
    expect(bool(workloads.check(simhaus, "labeled", seed + 1, other, exact, golden)[0]),
           "labeled: a wrong closed form fails on another seed")

    pairs = workloads.generate(simhaus, "iso_pairs", seed + 1)[:3]
    results = [simhaus.class_distance(a, b) for _, a, b in pairs]
    expect(not any(workloads.check(simhaus, "iso_pairs", seed + 1, pairs, results, golden)),
           "iso_pairs: true witnesses re-score to their values")
    results[1] = simhaus.ClassDistanceResult(results[1].value + Fraction(1, 1000),
                                             results[1].witness_bijection)
    problems = workloads.check(simhaus, "iso_pairs", seed + 1, pairs, results, golden)
    expect([i for i, p in enumerate(problems) if p] == [1], "iso_pairs: a wrong value fails")

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        items = workloads.generate(simhaus, "classes5", seed)
        _, _, outputs = workloads.run_pass(items, scratch, workloads.entry_points(simhaus))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expect(workloads.check(simhaus, "classes5", seed, items, outputs, golden) == [None],
           "classes5: the table passes")
    rc, data = outputs[0]
    lines = data.decode().splitlines()
    cells = lines[2].split("\t")
    cells[1], cells[2] = cells[2], cells[1]
    lines[2] = "\t".join(cells)
    corrupt = [(rc, ("\n".join(lines) + "\n").encode())]
    expect(workloads.check(simhaus, "classes5", seed, items, corrupt, golden)[0] is not None,
           "classes5: two swapped cells fail")


def test_benchmark_json_matches() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json lists the end-to-end metrics")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(name, unit) for name, unit, _ in tracing.PER_LAYER],
           "BENCHMARK.json lists the per-layer metrics")


def test_traced_counts_repeat() -> None:
    deadline = time.monotonic() + run.DEADLINE_S
    passes = [run.run_worker("classes5", 0, "traced", deadline)["layers"] for _ in range(2)]
    exact = {name for name, unit, _ in tracing.PER_LAYER if unit in ("count", "ratio")}
    counts = [{m: v for m, v in layers.items() if m in exact} for layers in passes]
    expect(counts[0] == counts[1], "classes5: traced counts repeat exactly")
    got = (counts[0]["exact_minimax.solve.calls"], counts[0]["kernels.pairs"],
           counts[0]["iso_metric.enumerate_classes.classes"])
    expect(got == (2640, 16110, 180), f"classes5: solves, kernel pairs, classes = {got}")


def main() -> int:
    test_generation_is_seeded()
    test_checker_catches_corruption()
    test_benchmark_json_matches()
    test_traced_counts_repeat()
    return 0


if __name__ == "__main__":
    sys.exit(main())
