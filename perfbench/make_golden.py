#!/usr/bin/env python3
"""Record ``golden.json``: the exact outputs of every workload for the default seed.

    python3 perfbench/make_golden.py

The file pins the outputs of the program as it stands when this is run;
``workloads.check`` compares every later pass on the default seed with it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import simhaus  # noqa: E402
import simhaus.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> int:
    golden: dict = {}
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in workloads.WORKLOADS:
            items = workloads.generate(simhaus, name, workloads.DEFAULT_SEED)
            _, _, outputs = workloads.run_pass(items, scratch, workloads.entry_points(simhaus))
            record = workloads.output_record(name, items, outputs)
            if name == "classes5":
                golden[name] = {"tsv_sha256": record[0]}
            else:
                golden[name] = {"seed": workloads.DEFAULT_SEED, "outputs": record}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
