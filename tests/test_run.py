"""The run driver: every config key it reads, a resume bit-identical to the
straight run, the failures it records and the command line."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hallmhd import run as driver
from hallmhd import solver
from hallmhd.checkpoint import CheckpointError, read_with_header, write_checkpoint
from hallmhd.config import ConfigError, RunConfig
from hallmhd.fields import Grid, zero_field
from hallmhd.solver import BlowUpDetected, DtGateError, SolenoidalDriftError

ROOT = Path(__file__).resolve().parents[1]

# dt = 1e-3 binds: half the dt_gate of these states is larger
HALL16 = RunConfig(
    n=16, dt=1e-3, t_end=16e-3, nu=0.05, mu=0.05, init={"kind": "random_band"},
    diag_every=2, checkpoint_every=4,
)
# B0 = 1 takes the mean-field integrating factor; dt = 0.01 binds
WHISTLER32 = RunConfig(
    n=32, dt=0.01, t_end=0.06, nu=1e-3, mu=1e-3, diag_every=1,
    init={"kind": "uniform_b_plus_whistler", "b0": 1.0, "eps": 1e-6, "k": 1},
)


def records(run_dir) -> list[dict]:
    with open(Path(run_dir) / driver.RECORDS) as fh:
        return [json.loads(line) for line in fh]


def without_timings(recs) -> list[dict]:
    return [{k: v for k, v in rec.items() if k != "phase_s"} for rec in recs]


def flip_last_byte(path) -> None:
    data = bytearray(Path(path).read_bytes())
    data[-1] ^= 1
    Path(path).write_bytes(data)


def assert_same_run(a, b, dir_a, dir_b):
    assert np.array_equal(a.u.coeffs, b.u.coeffs)
    assert np.array_equal(a.b.coeffs, b.b.coeffs)
    assert (a.t, a.step_count, a.diss_integral) == (b.t, b.step_count, b.diss_integral)
    recs = records(dir_b)
    assert without_timings(records(dir_a)) == without_timings(recs)
    steps = [rec["step"] for rec in recs]
    assert steps == sorted(set(steps))


class TestResume:
    @pytest.mark.parametrize("cfg", [HALL16, WHISTLER32], ids=["hall16", "whistler32"])
    def test_extended_run_equals_the_straight_run(self, tmp_path, cfg):
        # 2N straight steps, against N steps extended to 2N in one directory
        straight = driver.run(cfg, tmp_path / "a")
        half = dataclasses.replace(cfg, t_end=cfg.t_end / 2)
        assert driver.run(half, tmp_path / "b").step_count == straight.step_count // 2
        resumed = driver.run(cfg, tmp_path / "b")
        assert_same_run(straight, resumed, tmp_path / "a", tmp_path / "b")
        assert straight.step_count == round(cfg.t_end / cfg.dt)

    def test_interrupted_run_resumes_from_its_last_checkpoint(self, tmp_path, monkeypatch):
        # stopped after step 6, the run resumes from the checkpoint of step
        # 4 and cuts the records of steps 4 and 6 that it writes again
        straight = driver.run(HALL16, tmp_path / "a")
        step = solver.Stepper.step

        def interrupted(self, state):
            if state.step_count == 6:
                raise KeyboardInterrupt
            return step(self, state)

        with monkeypatch.context() as m:
            m.setattr(solver.Stepper, "step", interrupted)
            with pytest.raises(KeyboardInterrupt):
                driver.run(HALL16, tmp_path / "b")
        header, _, _ = read_with_header(tmp_path / "b" / driver.CHECKPOINT)
        assert header["step_count"] == 4
        assert [rec["step"] for rec in records(tmp_path / "b")] == [0, 2, 4, 6]
        resumed = driver.run(HALL16, tmp_path / "b")
        assert_same_run(straight, resumed, tmp_path / "a", tmp_path / "b")

    def test_finished_run_is_left_as_it_is(self, tmp_path):
        first = driver.run(HALL16, tmp_path)
        state_bytes = (tmp_path / driver.CHECKPOINT).read_bytes()
        again = driver.run(HALL16, tmp_path)
        assert (tmp_path / driver.CHECKPOINT).read_bytes() == state_bytes
        assert again.step_count == first.step_count
        assert [rec["step"] for rec in records(tmp_path)] == list(range(0, 17, 2))

    @pytest.mark.parametrize(
        "key, value",
        [("nu", 0.06), ("hall_on", False), ("dt", 5e-4), ("seed", 1), ("dealias_cut", 4),
         ("init", {"kind": "random_band", "amplitude": 2.0})],
    )
    def test_another_config_refused(self, tmp_path, key, value):
        driver.run(dataclasses.replace(HALL16, t_end=4e-3), tmp_path)
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            driver.run(dataclasses.replace(HALL16, **{key: value}), tmp_path)

    def test_resolved_init_defaults_are_the_same_config(self, tmp_path):
        # the stored config holds the init spec with its defaults filled in
        driver.run(dataclasses.replace(HALL16, t_end=4e-3), tmp_path)
        init = {"kind": "random_band", "q_lo": 2, "b_amplitude": 1.0}
        state = driver.run(dataclasses.replace(HALL16, t_end=8e-3, init=init), tmp_path)
        assert state.step_count == 8

    def test_flipped_payload_byte_refused(self, tmp_path):
        driver.run(dataclasses.replace(HALL16, t_end=4e-3), tmp_path)
        flip_last_byte(tmp_path / driver.CHECKPOINT)
        with pytest.raises(CheckpointError, match="payload CRC32"):
            driver.run(HALL16, tmp_path)

    def test_checkpoint_of_no_run_refused(self, tmp_path):
        g = Grid(16)
        path = tmp_path / driver.CHECKPOINT
        write_checkpoint(path, 0.0, 0.05, 0.05, zero_field(g), zero_field(g))
        with pytest.raises(CheckpointError, match="header key step_count missing"):
            driver.run(HALL16, tmp_path)


class TestConfigKeys:
    def test_t_end_sets_the_step_count(self, tmp_path):
        # 0.010000000000000002, the t that 10 steps of 1e-3 reach, is
        # 10.000000000000002 steps; the ulp guard keeps it 10
        for t_end, steps in ((sum([1e-3] * 10), 10), (10.5e-3, 11)):
            cfg = dataclasses.replace(HALL16, t_end=t_end, checkpoint_every=None)
            state = driver.run(cfg, tmp_path / str(steps))
            assert state.step_count == steps
            assert state.t == pytest.approx(steps * 1e-3, rel=1e-12)

    def test_diag_every_sets_the_records(self, tmp_path):
        cfg = dataclasses.replace(HALL16, t_end=10e-3, diag_every=3, checkpoint_every=None)
        driver.run(cfg, tmp_path)
        recs = records(tmp_path)
        assert [rec["step"] for rec in recs] == [0, 3, 6, 9, 10]
        for rec in recs:
            assert rec["version"] == driver.RECORD_VERSION and rec["dt"] == 1e-3
            assert abs(rec["balance"]) < 1e-10
            assert max(rec["div_u"], rec["div_b"]) < 1e-12
        assert recs[0]["diss_integral"] == 0.0 and recs[-1]["diss_integral"] > 0.0

    def test_balance_of_a_file_of_a_larger_cut(self, tmp_path):
        # a random_band n = 32 file of cut 10 run at dealias_cut 8: E0 and
        # the energies of step 0 are those of the dealiased fields, which the
        # first step reads, not of the modes beyond the cut that it drops
        u, b = solver.make_initial({"kind": "random_band"}, Grid(32), 0)
        path = tmp_path / "init.hmhd"
        write_checkpoint(path, 0.0, 0.01, 0.01, u, b)
        cfg = RunConfig(
            n=32, dealias_cut=8, dt=1e-3, t_end=3e-3, nu=0.01, mu=0.01, diag_every=1,
            init={"kind": "from_checkpoint", "path": str(path)},
        )
        driver.run(cfg, tmp_path / "run")
        recs = records(tmp_path / "run")
        assert [rec["step"] for rec in recs] == [0, 1, 2, 3]
        assert recs[0]["energy_u"] < solver.energy(u)
        for rec in recs:
            assert abs(rec["balance"]) <= 1e-10

    @pytest.mark.parametrize("every, steps", [(4, [4, 8, 10]), (None, [10])])
    def test_checkpoint_every_sets_the_writes(self, tmp_path, monkeypatch, every, steps):
        written = []

        def counted(*args, **extra):
            written.append(extra["step_count"])
            write_checkpoint(*args, **extra)

        monkeypatch.setattr(driver, "write_checkpoint", counted)
        driver.run(dataclasses.replace(HALL16, t_end=10e-3, checkpoint_every=every), tmp_path)
        assert written == steps

    def test_dt_is_half_the_gate_when_it_binds(self, tmp_path):
        # dt is picked once, from the initial state: an extended run keeps it
        cfg = dataclasses.replace(HALL16, dt=1.0, t_end=0.05, checkpoint_every=None)
        u, b = solver.make_initial(cfg.init, Grid(16))
        dt = 0.5 * solver.dt_gate(u, b, cfg)
        state = driver.run(cfg, tmp_path)
        assert state.step_count == int(np.ceil(0.05 / dt * (1 - 1e-9)))
        gate = solver.dt_gate(state.u, state.b, cfg)
        assert 0.5 * gate != dt
        state = driver.run(dataclasses.replace(cfg, t_end=0.1), tmp_path)
        assert state.step_count == int(np.ceil(0.1 / dt * (1 - 1e-9)))
        assert {rec["dt"] for rec in records(tmp_path)} == {dt}

    def test_records_time_each_phase(self, tmp_path):
        start = time.perf_counter()
        driver.run(HALL16, tmp_path)
        wall = time.perf_counter() - start
        phases = [rec["phase_s"] for rec in records(tmp_path)]
        assert all(set(p) == {"step", "record", "checkpoint"} for p in phases)
        assert all(v >= 0.0 for p in phases for v in p.values())
        assert sum(v for p in phases for v in p.values()) <= wall
        assert phases[0]["step"] == 0.0 and phases[1]["step"] > 0.0
        assert phases[3]["checkpoint"] > 0.0  # the checkpoint of step 4, before step 6


GATE = solver._gate


def gate_closing_at_step_2(monkeypatch):
    # calls 1 and 2 are dt_gate and the gate of step 1; from step 2 the gate
    # reads a thousandth of itself
    calls = []

    def closing(*args):
        calls.append(1)
        return GATE(*args) * (1e-3 if len(calls) > 2 else 1.0)

    monkeypatch.setattr(solver, "_gate", closing)
    return HALL16, 1


def blow_up(monkeypatch):
    # gate constants so large that the gate never binds
    cfg = RunConfig(
        n=16, dt=0.2, t_end=10.0, nu=1e-4, mu=1e-4,
        init={"kind": "random_band", "q_lo": 1, "q_hi": 3, "amplitude": 5.0},
        seed=1, cfl_adv=1e300, cfl_whistler=1e300, diag_every=1,
    )
    return cfg, None


def drift(monkeypatch):
    monkeypatch.setattr(solver, "SOLENOIDAL_DRIFT_TOL", -1.0)
    return HALL16, 0


class TestFailures:
    @pytest.mark.parametrize(
        "error, make",
        [(DtGateError, gate_closing_at_step_2), (BlowUpDetected, blow_up),
         (SolenoidalDriftError, drift)],
        ids=["DtGateError", "BlowUpDetected", "SolenoidalDriftError"],
    )
    def test_last_finite_state_and_status_kept(
        self, tmp_path, monkeypatch, capsys, error, make
    ):
        cfg, last = make(monkeypatch)
        with pytest.raises(error):
            driver.run(cfg, tmp_path / "run")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        make(monkeypatch)  # the gate closes again in the second run
        assert driver.main([str(path), str(tmp_path / "main")]) == 1
        assert capsys.readouterr().err.startswith(f"{error.__name__}: ")
        for run_dir in (tmp_path / "run", tmp_path / "main"):
            header, u, b = read_with_header(run_dir / driver.CHECKPOINT)
            if last is not None:
                assert header["step_count"] == last
            assert all(np.isfinite(f.coeffs).all() for f in (u, b))
            final = records(run_dir)[-1]
            assert final["status"] == error.__name__
            assert final["step"] == header["step_count"] and final["t"] == header["t"]
            assert all("status" not in rec for rec in records(run_dir)[:-1])

    def test_bad_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**HALL16.to_dict(), "nu": -1.0}))
        assert driver.main([str(path), str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("ConfigError: key 'nu'")


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["hallmhd"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_command_line_runs_extends_and_refuses_a_corrupt_checkpoint(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    def cli(cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return subprocess.run(
            [sys.executable, "-m", "hallmhd.run", str(path), str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )

    short = dataclasses.replace(HALL16, t_end=8e-3)
    out = cli(short)
    assert out.returncode == 0, out.stderr
    assert len(records(tmp_path / "run")) == 5
    out = cli(dataclasses.replace(short, t_end=16e-3))
    assert out.returncode == 0, out.stderr
    assert [rec["step"] for rec in records(tmp_path / "run")] == list(range(0, 17, 2))
    flip_last_byte(tmp_path / "run" / driver.CHECKPOINT)
    out = cli(HALL16)
    assert out.returncode == 1
    assert out.stderr.startswith("CheckpointError: ")
