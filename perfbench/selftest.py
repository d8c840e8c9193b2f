"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics (with
units) that perfbench/run.py emits, and runs the traced run of every
workload twice, on two seeds, to check that it passes its correctness gates
and that the exact counts repeat: fft.transforms_per_step, every
*.calls_per_step, shell_linf.fft_calls and steps_to_t_end.  Takes about two
minutes; exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 2  # each traced run still does at least one episode per phase


def exact_counts(metrics: dict) -> dict:
    return {
        k: v["value"]
        for k, v in metrics.items()
        if k.endswith(".calls_per_step")
        or k in ("fft.transforms_per_step", "solver.steps_to_t_end",
                 "littlewood_paley.shell_linf.fft_calls")
    }


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    emitted = {
        "workloads": list(WORKLOADS),
        "end_to_end": END_TO_END_UNITS,
        "per_layer": PER_LAYER_UNITS,
    }
    for key in declared:
        if declared[key] != emitted[key]:
            raise SystemExit(f"FAIL: BENCHMARK.json {key} {declared[key]} != {emitted[key]}")
    print("ok: BENCHMARK.json matches the emitted workloads and metrics")

    for workload in WORKLOADS:
        counts = []
        for seed in (1, 2):
            res = run(workload, seed, trace=1)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"FAIL: {workload} seed {seed}: correctness gate failed")
            if set(res["metrics"]) != set(PER_LAYER_UNITS):
                raise SystemExit(f"FAIL: {workload}: per-layer metric names differ")
            counts.append(exact_counts(res["metrics"]))
        if counts[0] != counts[1]:
            raise SystemExit(f"FAIL: {workload}: counts differ between runs: {counts}")
        print(f"ok: {workload} counts repeat exactly: {counts[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
