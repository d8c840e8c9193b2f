"""One benchmark workload, run in the calling process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload turb64_hall \
        --seed 1 --seconds 30 --trace 0

prints one JSON line with the workload's measurements.  `perfbench/run.py`
starts this script in a fresh single-threaded process per workload; see
perfbench/README.md for the workloads and metrics.

The package is driven only through its public functions: RunConfig, Grid,
solver.make_initial, solver.dt_gate, solver.Stepper.step, the
littlewood_paley and checkpoint functions and oracles.whistler_matrix.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hallmhd.checkpoint as checkpoint
import hallmhd.littlewood_paley as littlewood_paley
import hallmhd.solver as solver
from hallmhd import oracles
from hallmhd.config import RunConfig
from hallmhd.fields import Grid

from tracer import STEP, SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# set-ups repeated before the first episode (at least SETUP_REPS, and for at
# least SETUP_SECONDS), so that the set-up median has samples even when only a
# few episodes fit into the run
SETUP_REPS = 3
SETUP_SECONDS = 1.0
# |E(t) + diss_integral - E(0)| / E(0); observed <= 1e-9 over the seeds tried
ENERGY_BALANCE_TOL = 1e-8
# relative error of each whistler eigenfrequency, as in the whistler test
WHISTLER_FREQ_TOL = 0.01


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    hall_on: bool
    nu: float  # nu = mu
    dt_cap: float  # upper bound on dt; does not bind today
    whistler: bool = False  # whistler initial state and frequency check
    steps: int | None = None  # fixed steps per episode ...
    t_end: float | None = None  # ... or step until t_end
    diagnostics: bool = False  # diagnostics record after every step
    checkpoint_every: int | None = None

    def init(self, seed: int) -> dict:
        if self.whistler:
            # seeded perturbation amplitude, still deep in the linear regime
            eps = 1e-6 * (1.0 + np.random.default_rng(seed).random())
            return {"kind": "uniform_b_plus_whistler", "b0": 1.0, "eps": eps, "k": 1}
        return {"kind": "random_band"}


WORKLOADS = {
    s.name: s
    for s in (
        Spec("turb64_hall", n=64, hall_on=True, nu=0.01, dt_cap=2e-3, steps=2),
        Spec(
            "whistler32", n=32, hall_on=True, nu=1e-3, dt_cap=0.05, whistler=True,
            t_end=0.15,
        ),
        Spec(
            "diag32_mhd", n=32, hall_on=False, nu=0.01, dt_cap=1e-2, steps=10,
            diagnostics=True, checkpoint_every=5,
        ),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "step_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "fft.forward.calls_per_step": "count",
    "fft.inverse.calls_per_step": "count",
    "fft.transforms_per_step": "count",
    "fft.s_per_step": "s",
    "fft.bytes_per_step": "B_computed",
    "fft.share": "fraction",
    "solver.rhs.calls_per_step": "count",
    "solver.rhs.self_s_per_step": "s",
    "solver.Stepper.step.self_s": "s",
    "solver.dt_gate.self_s_per_step": "s",
    "solver.steps_to_t_end": "count",
    "solver.energy.s_per_call": "s",
    "solver.magnetic_helicity.s_per_call": "s",
    "fields.leray_project.calls_per_step": "count",
    "fields.leray_project.s_per_step": "s",
    "fields.curl.calls_per_step": "count",
    "fields.curl.s_per_step": "s",
    "fields.to_physical.calls_per_step": "count",
    "fields.grad_norm_sq.s_per_step": "s",
    "fields.divergence_error.s_per_step": "s",
    "fields.state_bytes": "B_computed",
    "littlewood_paley.build_partition.s": "s",
    "littlewood_paley.shell_l2_sq.s_per_call": "s",
    "littlewood_paley.shell_linf.s_per_call": "s",
    "littlewood_paley.shell_linf.fft_calls": "count",
    "checkpoint.write_checkpoint.s_per_call": "s",
    "checkpoint.write_checkpoint.bytes": "B",
    "checkpoint.read_checkpoint.s_per_call": "s",
    "checkpoint.read_checkpoint.bytes": "B",
    "trace.step_s": "s",
    "trace.overhead_s_per_step": "s",
}


class Ops:
    """Attempted and failed operations: steps and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


@dataclass
class Run:
    cfg: RunConfig
    stepper: solver.Stepper
    state: solver.SolverState
    n_steps: int
    partition: littlewood_paley.LPPartition | None


def setup(spec: Spec, seed: int) -> Run:
    """RunConfig to the first step being ready."""
    cfg = RunConfig(
        n=spec.n, dt=spec.dt_cap, t_end=spec.t_end or 1.0, nu=spec.nu, mu=spec.nu,
        init=spec.init(seed), hall_on=spec.hall_on, seed=seed,
    )
    grid = Grid(cfg.n, cfg.dealias_cut)
    u0, b0 = solver.make_initial(cfg.init, grid, cfg.seed)
    dt = min(0.5 * solver.dt_gate(u0, b0, cfg), spec.dt_cap)
    if spec.t_end is None:
        n_steps = spec.steps
        cfg = dataclasses.replace(cfg, dt=dt, t_end=n_steps * dt)
    else:
        # the 1e-9 keeps a dt a few ulps below t_end / k from adding a step
        n_steps = math.ceil(spec.t_end / dt * (1.0 - 1e-9))
        cfg = dataclasses.replace(cfg, dt=dt)
    cfg.validate()
    partition = littlewood_paley.build_partition(grid) if spec.diagnostics else None
    return Run(cfg, solver.Stepper(grid, cfg), solver.SolverState(0.0, u0, b0), n_steps, partition)


def total_energy(state: solver.SolverState) -> float:
    return solver.energy(state.u) + solver.energy(state.b)


def whistler_coords(state: solver.SolverState, evecs: np.ndarray, k: int) -> np.ndarray:
    """Minus-polarization (u, b) amplitudes at wavevector k z_hat in the
    eigenbasis of the linearized system."""
    uu = state.u.coeffs[:, 0, 0, k]
    bb = state.b.coeffs[:, 0, 0, k]
    vec = np.array([(uu[0] - 1j * uu[1]) / np.sqrt(2), (bb[0] - 1j * bb[1]) / np.sqrt(2)])
    return np.linalg.solve(evecs, vec)


def diagnostics_record(run: Run, state: solver.SolverState) -> dict:
    p = run.partition
    return {
        "t": state.t,
        "energy": total_energy(state),
        "magnetic_helicity": solver.magnetic_helicity(state.b),
        "shell_l2_sq_u": p.shell_l2_sq(state.u),
        "shell_l2_sq_b": p.shell_l2_sq(state.b),
        "shell_linf_u": p.shell_linf(state.u),
        "shell_linf_b": p.shell_linf(state.b),
    }


def record_finite(rec: dict) -> bool:
    return all(np.all(np.isfinite(v)) for v in rec.values())


class Workload:
    """Runs episodes of one workload: set up, step, check."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()
        self.io_bytes = {"write": 0, "read": 0}
        self.state_bytes = 0
        self.reference = self._straight_run() if spec.checkpoint_every else None

    def _straight_run(self) -> solver.SolverState:
        """Untimed run without diagnostics or checkpoints, for the resume check."""
        run = setup(self.spec, self.seed)
        state = run.state
        for _ in range(run.n_steps):
            state = run.stepper.step(state)
        return state

    def episode(self) -> dict:
        spec, ops = self.spec, self.ops
        t0 = time.perf_counter()
        run = setup(spec, self.seed)
        t1 = time.perf_counter()
        state = run.state
        self.state_bytes = state.u.coeffs.nbytes + state.b.coeffs.nbytes
        step_s = []
        if spec.whistler:
            k, b0 = run.cfg.init["k"], run.cfg.init["b0"]
            evals, evecs = np.linalg.eig(oracles.whistler_matrix(k, b0, spec.nu, spec.nu)["-"])
            times, coords = [state.t], [whistler_coords(state, evecs, k)]
        records = [diagnostics_record(run, state)] if spec.diagnostics else []
        e0 = records[0]["energy"] if records else total_energy(state)
        for i in range(run.n_steps):
            a = time.perf_counter()
            try:
                state = run.stepper.step(state)
            except RuntimeError as exc:  # DtGateError, BlowUpDetected, drift
                ops.check(False, f"step {i + 1}: {exc}")
                break
            step_s.append(time.perf_counter() - a)
            ops.check(True, "step")
            if spec.whistler:
                times.append(state.t)
                coords.append(whistler_coords(state, evecs, k))
            if spec.diagnostics:
                records.append(diagnostics_record(run, state))
            if spec.checkpoint_every and (i + 1) % spec.checkpoint_every == 0:
                state = self._checkpoint_round_trip(run, state)
        else:
            if spec.whistler:
                coords = np.array(coords)
                for j in range(2):
                    slope = np.polyfit(times, np.unwrap(np.angle(coords[:, j])), 1)[0]
                    freq = abs(evals[j].imag)
                    err = abs(abs(slope) - freq) / freq
                    ops.check(err < WHISTLER_FREQ_TOL, f"whistler frequency {j} error {err:.3e}")
            else:
                e_t = records[-1]["energy"] if records else total_energy(state)
                resid = abs(e_t + state.diss_integral - e0) / e0
                ops.check(resid <= ENERGY_BALANCE_TOL, f"energy balance residual {resid:.3e}")
            if records:
                ops.check(all(map(record_finite, records)), "diagnostics records finite")
            if self.reference is not None:
                ref = self.reference
                same = (
                    np.array_equal(state.u.coeffs, ref.u.coeffs)
                    and np.array_equal(state.b.coeffs, ref.b.coeffs)
                    and state.t == ref.t
                    and state.diss_integral == ref.diss_integral
                )
                ops.check(same, "resumed run bit-identical to the straight run")
        t2 = time.perf_counter()
        return {"setup_s": t1 - t0, "step_s": step_s, "run_s": t2 - t1, "steps": run.n_steps}

    def _checkpoint_round_trip(self, run: Run, state: solver.SolverState) -> solver.SolverState:
        """Write, read back and resume from the read-back state.  The
        checkpoint does not store step_count or diss_integral, so those carry
        over from memory."""
        path = self.workdir / "state.hmhd"
        cfg = run.cfg
        checkpoint.write_checkpoint(path, state.t, cfg.nu, cfg.mu, state.u, state.b)
        size = path.stat().st_size
        t, _, _, u, b = checkpoint.read_checkpoint(path)
        self.io_bytes = {"write": size, "read": size}
        self.ops.check(
            t == state.t
            and np.array_equal(u.coeffs, state.u.coeffs)
            and np.array_equal(b.coeffs, state.b.coeffs),
            f"checkpoint round trip at step {state.step_count}",
        )
        u.is_solenoidal = True
        b.is_solenoidal = True
        return solver.SolverState(t, u, b, state.step_count, state.diss_integral)

    def measure(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Episodes until the next one would end after `seconds`.  With a
        tracer, every second episode runs traced, so that drift in machine
        speed hits traced and untraced steps alike."""
        deadline = time.perf_counter() + seconds
        setup_s = []
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_SECONDS:
            a = time.perf_counter()
            setup(self.spec, self.seed)
            setup_s.append(time.perf_counter() - a)
        episodes = []
        while True:
            traced = tracer is not None and len(episodes) % 2 == 1
            a = time.perf_counter()
            if traced:
                tracer.install()
            try:
                ep = self.episode()
            finally:
                if traced:
                    tracer.uninstall()
            ep["wall_s"] = time.perf_counter() - a
            ep["traced"] = traced
            episodes.append(ep)
            typical = statistics.median(e["wall_s"] for e in episodes)
            enough = tracer is None or len(episodes) >= 2
            if enough and time.perf_counter() + typical > deadline:
                break
        plain = [e for e in episodes if not e["traced"]]
        return {
            "setup_s": setup_s + [e["setup_s"] for e in plain],
            "step_s": [s for e in plain for s in e["step_s"]],
            "traced_step_s": [s for e in episodes if e["traced"] for s in e["step_s"]],
            "run_s": [e["run_s"] for e in plain],
            "steps_per_episode": episodes[-1]["steps"],
        }


def median(samples: list[float]) -> float:
    """Median, or 0 when a failed step left no samples (the run then reports
    correct: false)."""
    return statistics.median(samples) if samples else 0.0


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def layer_metrics(stats: SpanStats, wl: Workload, measured: dict) -> dict:
    ps, pc = stats.per_step, stats.per_call
    fft_s = ps("fft.forward", 1) + ps("fft.inverse", 1)
    step_mean = statistics.fmean(stats.step_durations) if stats.steps else 0.0
    traced_step = median(measured["traced_step_s"])
    return {
        "fft.forward.calls_per_step": ps("fft.forward", 0),
        "fft.inverse.calls_per_step": ps("fft.inverse", 0),
        "fft.transforms_per_step": ps("fft.forward", 3) + ps("fft.inverse", 3),
        "fft.s_per_step": fft_s,
        "fft.bytes_per_step": ps("fft.forward", 4) + ps("fft.inverse", 4),
        "fft.share": fft_s / step_mean if step_mean else 0.0,
        "solver.rhs.calls_per_step": ps("solver.rhs", 0),
        "solver.rhs.self_s_per_step": ps("solver.rhs", 2),
        "solver.Stepper.step.self_s": ps(STEP, 2),
        "solver.dt_gate.self_s_per_step": ps("solver.dt_gate", 2),
        "solver.steps_to_t_end": measured["steps_per_episode"],
        "solver.energy.s_per_call": pc("solver.energy"),
        "solver.magnetic_helicity.s_per_call": pc("solver.magnetic_helicity"),
        "fields.leray_project.calls_per_step": ps("fields.leray_project", 0),
        "fields.leray_project.s_per_step": ps("fields.leray_project", 1),
        "fields.curl.calls_per_step": ps("fields.curl", 0),
        "fields.curl.s_per_step": ps("fields.curl", 1),
        "fields.to_physical.calls_per_step": ps("fields.to_physical", 0),
        "fields.grad_norm_sq.s_per_step": ps("fields.grad_norm_sq", 1),
        "fields.divergence_error.s_per_step": ps("fields.divergence_error", 1),
        "fields.state_bytes": wl.state_bytes,
        "littlewood_paley.build_partition.s": pc("littlewood_paley.build_partition"),
        "littlewood_paley.shell_l2_sq.s_per_call": pc("littlewood_paley.shell_l2_sq"),
        "littlewood_paley.shell_linf.s_per_call": pc("littlewood_paley.shell_linf"),
        "littlewood_paley.shell_linf.fft_calls": stats.child_count_per_call(
            "littlewood_paley.shell_linf", "fft.inverse"
        ),
        "checkpoint.write_checkpoint.s_per_call": pc("checkpoint.write_checkpoint"),
        "checkpoint.write_checkpoint.bytes": wl.io_bytes["write"],
        "checkpoint.read_checkpoint.s_per_call": pc("checkpoint.read_checkpoint"),
        "checkpoint.read_checkpoint.bytes": wl.io_bytes["read"],
        "trace.step_s": traced_step,
        "trace.overhead_s_per_step": traced_step - median(measured["step_s"]),
    }


def self_time_breakdown(stats: SpanStats) -> dict:
    """Self seconds per step by span name, over spans inside steps; the values
    sum to the mean traced step span."""
    out = {
        name: v[2] / stats.steps
        for (name, inside), v in stats.total.items()
        if inside and stats.steps
    }
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    def read_field(path: str, key: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    # numpy.fft (pocketfft) runs every transform on the calling thread; the
    # package reaching for scipy.fft instead would show up in sys.modules
    fft_backend, fft_threads = "numpy.fft (pocketfft)", 1
    if "scipy.fft" in sys.modules:
        fft_backend = "scipy.fft loaded, numpy.fft (pocketfft)"
        fft_threads = sys.modules["scipy.fft"].get_workers()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "fft_backend": fft_backend,
        "fft_threads": fft_threads,
        "process_threads": read_field("/proc/self/status", "Threads"),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": read_field("/proc/cpuinfo", "model name"),
        "seed": seed,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work_{os.getpid()}"
    workdir.mkdir()
    try:
        wl = Workload(spec, args.seed, workdir)
        result = {"workload": spec.name, "seed": args.seed, "trace": args.trace}
        if args.trace:
            tracer = Tracer()
            m = wl.measure(args.seconds, tracer)
            stats = SpanStats(tracer.spans)
            spans_path = OUT / f"spans_{spec.name}_seed{args.seed}.json"
            tracer.dump(spans_path)
            result["metrics"] = with_units(layer_metrics(stats, wl, m), PER_LAYER_UNITS)
            result["self_s_per_step"] = self_time_breakdown(stats)
            result["traced_steps"] = stats.steps
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            m = wl.measure(args.seconds)
            result["samples"] = {k: len(m[k]) for k in ("setup_s", "step_s", "run_s")}
            result["steps_per_episode"] = m["steps_per_episode"]
            values = {k: median(m[k]) for k in ("setup_s", "step_s", "run_s")}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["metrics"] = with_units(values, END_TO_END_UNITS)
        result["attempted"] = wl.ops.attempted
        result["failed"] = wl.ops.failed
        result["errors"] = wl.ops.errors[:20]
        result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
