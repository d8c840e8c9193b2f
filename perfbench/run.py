"""hallmhd benchmark: run workloads, each in its own single-threaded process.

    python3 perfbench/run.py                        # every workload, seed 0
    python3 perfbench/run.py --workload turb64_hall --seed 3 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout that
holds this file.  For each workload it prints the environment, one line of
metrics with units and sample counts, and writes the full result to
perfbench/out/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("turb64_hall", "whistler32", "diag32_mhd")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary_line(res: dict) -> str:
    m = {k: v["value"] for k, v in res["metrics"].items()}
    frac = res["failed"] / res["attempted"]
    head = f"{res['workload']} seed={res['seed']} trace={res['trace']}:"
    if res["trace"]:
        body = "  ".join(f"{k}={v:.6g}" for k, v in m.items())
        breakdown = "  ".join(f"{k}={v:.4g}" for k, v in res["self_s_per_step"].items())
        return (
            f"{head} {body}\n  self s per step over {res['traced_steps']} traced steps: "
            f"{breakdown}\n  spans: {res['spans_file']}"
            f"\n  failed_ops_frac={frac:.6g} ({res['failed']} of {res['attempted']} ops)"
        )
    n = res["samples"]
    return (
        f"{head} setup_s={m['setup_s']:.6g} s (median of {n['setup_s']})"
        f"  step_s={m['step_s']:.6g} s (median of {n['step_s']} steps)"
        f"  run_s={m['run_s']:.6g} s (median of {n['run_s']} runs of "
        f"{res['steps_per_episode']} steps)"
        f"  peak_rss_mb={m['peak_rss_mb']:.6g} MB"
        f"  failed_ops_frac={frac:.6g} ({res['failed']} of {res['attempted']} ops)"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hallmhd" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'hallmhd'} not found", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results.append(res)
        print("env: " + json.dumps(res["env"]))
        print(summary_line(res))
        if res["errors"]:
            print("  failures: " + "; ".join(res["errors"]))
        path = OUT / f"result_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1))

    out = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        out["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
