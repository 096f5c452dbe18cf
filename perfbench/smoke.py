#!/usr/bin/env python3
"""Smoke test of the benchmark harness at toy scale.

Runs every workload once untraced and once traced on the default seed, so
that every output check and the recorded toy-scale digests apply, and checks
that each run is correct and reports exactly the metrics, with the units,
that BENCHMARK.json declares.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--scale", "toy"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: incorrect output\n{proc.stderr}")
            elif units != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(declared[trace].items()))}")
            else:
                print(f"ok  {label}: {result['attempted']} jobs")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
