"""One pass of one workload in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD SEED MODE STARTED

MODE is ``setup`` (import and generate, then exit), ``plain`` (one timed
pass) or ``traced`` (one pass with the per-layer tracer installed).
STARTED is the ``time.time()`` at which the caller started the process.

The worker prints one JSON line: the set-up time (from STARTED until the
inputs exist) and, after a pass, the pass time, per-item times, failures,
peak RSS and, when traced, the per-layer metrics. All times are scaled to
the reference speed of ``speed.SpeedProbe``; the unscaled pass time is
``wall_s``. Outputs are checked after the pass, untimed and untraced. The
program is imported from the ``src`` directory beside this one, never
from an installed copy.
"""

from __future__ import annotations

import importlib.util
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOT_SAMPLES = 10  # speed samples before and after set-up


def main() -> int:
    name, seed, mode, started = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    from speed import SpeedProbe

    boot = SpeedProbe()
    boot.sample(BOOT_SAMPLES)
    protocol = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints may reach the protocol stream
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import simhaus
    import simhaus.cli  # noqa: F401  (the package does not import its CLI)

    import tracing
    import workloads

    items = workloads.generate(simhaus, name, seed)
    wall_setup_s = time.time() - started - boot.spent
    boot.sample(BOOT_SAMPLES)
    setup_s = boot.at_reference(wall_setup_s)
    if mode == "setup":
        protocol.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    calls = workloads.entry_points(simhaus)
    probe = SpeedProbe()
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer(probe.clock)
        calls = tracer.install(simhaus, calls)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with probe:
            whole, spans, outputs = workloads.run_pass(items, scratch, calls, probe.clock)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers, notes = None, []
    if tracer is not None:
        tracer.uninstall()
        layers, notes = tracer.metrics(probe.at_reference(1.0)), tracer.notes

    problems = workloads.check(simhaus, name, seed, items, outputs, workloads.load_golden())
    failures = [f"item {i} ({items[i][0]}): {p}" for i, p in enumerate(problems) if p]
    result = {
        "setup_s": setup_s,
        "wall_s": whole[1] - whole[0],
        "run_s": probe.scaled(*whole),
        "item_s": [probe.scaled(*span) for span in spans],
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "notes": notes,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
        },
    }
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
