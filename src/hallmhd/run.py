"""The run driver: the one way to run a RunConfig to t_end in a directory.

    python -m hallmhd.run CONFIG.json RUN_DIR    (installed: hallmhd ...)

run(cfg, run_dir) builds the grid and the initial state from the init spec
that config.check_init_params resolves and picks dt once, as the smaller of
cfg.dt and half the dt_gate of the initial state.  It steps to step
ceil(t_end / dt) (less 1e-9 relative, so that a dt a few ulps below
t_end / k adds no step).  At step 0, every diag_every steps and at the last
step it appends one JSON line to RUN_DIR/records.jsonl: version
(RECORD_VERSION), step, t, dt, energy_u, energy_b, diss_integral, balance,
the residual (E + D - E0) / E0 of the total energy E, the dissipation
integral D and E0, the E of step 0 (null when E0 = 0), div_u and div_b, the
divergence errors, and phase_s, the wall seconds spent in steps, records
and checkpoints since the previous record.  Every checkpoint_every steps
and at the last step it writes RUN_DIR/state.hmhd, whose header holds, as
well as the codec's keys, step_count, diss_integral, dt, energy0 (E0) and
config, the validated config with its init spec resolved.  Every record
reads the state's fields as a step reads them, dealiased (see
solver.SolverState), so the energies of step 0 and E0 leave out the modes
beyond the cut that an init of kind from_checkpoint may hold.

Resume.  If RUN_DIR holds state.hmhd, run continues from it, reading the
header and both fields in one read of the file.  The stored config must
equal cfg in every key but t_end, diag_every and checkpoint_every, which
may change, so that a finished run can be extended; the first other key
that differs raises ConfigError naming it.  dt and E0 are the header's,
not derived again.  The record file is cut back to the lines before the
checkpoint's step, so that a resumed run's state and records equal those
of the straight run, phase_s apart (under the same BLAS kernel and
fields.SLAB_BYTES, see bit determinism in the fields docstring).  A resume
continues one run; an init of kind from_checkpoint instead starts a new
run at t = 0 from a file's fields (see solver.make_initial), for example
to branch runs with another nu.

On BlowUpDetected, DtGateError or SolenoidalDriftError, run writes the last
finite state to state.hmhd and a last record with "status", the error's
name, and re-raises.  main prints the name and message of one of these, a
ConfigError or a CheckpointError to stderr and returns 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import solver
from .checkpoint import CheckpointError, read_with_header, write_checkpoint
from .config import ConfigError, RunConfig, check_init_params
from .fields import Grid, divergence_error

RECORD_VERSION = 1
CHECKPOINT, RECORDS = "state.hmhd", "records.jsonl"
# the keys a resume may change; every other config key must equal the stored one
EXTENSIBLE = ("t_end", "diag_every", "checkpoint_every")
STEP_ERRORS = (solver.BlowUpDetected, solver.DtGateError, solver.SolenoidalDriftError)


def run(cfg: RunConfig, run_dir) -> solver.SolverState:
    """Run cfg to t_end in run_dir, or resume it there from state.hmhd
    (see the module docstring); returns the last state.  A resume continues
    the run that wrote state.hmhd, with its t, step count, dissipation
    integral, dt and E0; an init of kind from_checkpoint instead starts a
    new run at t = 0 from a file's fields."""
    cfg.validate()
    grid = Grid(cfg.n, cfg.dealias_cut)
    config = {**cfg.to_dict(), "init": check_init_params(cfg.init, grid)}
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    path, records = run_dir / CHECKPOINT, run_dir / RECORDS
    kept = []
    if path.exists():
        header, u, b = read_with_header(path)
        _check_resume(header, config, path)
        dt, e0 = header["dt"], header["energy0"]
        state = solver.SolverState(
            header["t"], u, b, header["step_count"], header["diss_integral"]
        )
        lines = records.read_text().splitlines(keepends=True) if records.exists() else []
        for line in lines:  # a torn last line lacks its newline
            if not line.endswith("\n") or json.loads(line)["step"] >= state.step_count:
                break
            kept.append(line)
    else:
        u, b = solver.make_initial(config["init"], grid, cfg.seed)
        dt = min(cfg.dt, 0.5 * solver.dt_gate(u, b, cfg))
        state = solver.SolverState(0.0, u, b)
        # of the dealiased fields, which the first step reads
        e0 = solver.energy(state.u) + solver.energy(state.b)
    del u, b  # the state has given up its fields
    stepper = solver.Stepper(grid, dataclasses.replace(cfg, dt=dt))
    # the 1e-9 keeps a dt a few ulps below t_end / k from adding a step
    last = max(math.ceil(cfg.t_end / dt * (1.0 - 1e-9)), state.step_count)
    phases = dict.fromkeys(("step", "record", "checkpoint"), 0.0)

    def record(state: solver.SolverState, **status) -> None:
        start = time.perf_counter()
        u, b = state.u, state.b
        eu, eb, diss = solver.energy(u), solver.energy(b), state.diss_integral
        rec = {
            "version": RECORD_VERSION, "step": state.step_count, "t": state.t, "dt": dt,
            "energy_u": eu, "energy_b": eb, "diss_integral": diss,
            "balance": (eu + eb + diss - e0) / e0 if e0 else None,
            "div_u": divergence_error(u), "div_b": divergence_error(b), **status,
        }
        phases["record"] += time.perf_counter() - start
        fh.write(json.dumps({**rec, "phase_s": phases}) + "\n")
        fh.flush()
        phases.update(dict.fromkeys(phases, 0.0))

    def save(state: solver.SolverState) -> None:
        start = time.perf_counter()
        write_checkpoint(path, state.t, cfg.nu, cfg.mu, state.u, state.b, dt=dt, energy0=e0,
                         step_count=state.step_count, diss_integral=state.diss_integral,
                         config=config)
        phases["checkpoint"] += time.perf_counter() - start

    with open(records, "w") as fh:
        fh.writelines(kept)
        if state.step_count % cfg.diag_every == 0 or state.step_count == last:
            record(state)
        while state.step_count < last:
            start = time.perf_counter()
            try:
                new = stepper.step(state)
            except STEP_ERRORS as exc:
                save(state)
                record(state, status=type(exc).__name__)
                raise
            phases["step"] += time.perf_counter() - start
            state, k = new, new.step_count
            if k % cfg.diag_every == 0 or k == last:
                record(state)
            if k == last or (cfg.checkpoint_every and k % cfg.checkpoint_every == 0):
                save(state)
    return state


def _check_resume(header: dict, config: dict, path: Path) -> None:
    for key in ("step_count", "diss_integral", "dt", "energy0", "config"):
        if key not in header:
            raise CheckpointError(f"{path}: header key {key} missing, not a run's checkpoint")
    stored = header["config"]
    for key, value in config.items():
        if key not in EXTENSIBLE and stored.get(key) != value:
            msg = f"key {key!r}: {value!r}, but the run in {path.parent} has {stored.get(key)!r}"
            raise ConfigError(f"{msg}; a resume may change only {', '.join(EXTENSIBLE)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hallmhd", description=__doc__.splitlines()[0])
    parser.add_argument("config", help="RunConfig JSON file")
    parser.add_argument("run_dir", help="directory of records.jsonl and state.hmhd")
    args = parser.parse_args(argv)
    try:
        run(RunConfig.from_json(args.config), args.run_dir)
    except (ConfigError, CheckpointError) + STEP_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
