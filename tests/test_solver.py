"""Solver right side, IF-RK4 stepping, exact decays, whistler dispersion,
conservation, and initial conditions."""

import re

import numpy as np
import pytest

from hallmhd import oracles, solver
from hallmhd.config import ConfigError, RunConfig
from hallmhd.fields import (
    Grid,
    SpectralField,
    curl,
    dealias,
    divergence_error,
    grad_norm_sq,
    hermitian_error,
    l2_norm_spectral,
    leray_project,
    lp_norm,
    random_field,
    zero_field,
)
from hallmhd.littlewood_paley import build_partition
from hallmhd.solver import (
    BlowUpDetected,
    DtGateError,
    SolverState,
    Stepper,
    abc_beltrami,
    dt_gate,
    energy,
    hall_power,
    magnetic_helicity,
    make_initial,
    orszag_tang_3d,
    rhs,
    ORSZAG_TANG_ENERGY_COEFF,
)

VOLUME = (2 * np.pi) ** 3


def run_steps(cfg, n_steps, seed=0, enforce_gate=True):
    grid = Grid(cfg.n, cfg.dealias_cut)
    u0, b0 = make_initial(cfg.init, grid, seed)
    st = SolverState(0.0, u0, b0)
    stepper = Stepper(grid, cfg)
    for _ in range(n_steps):
        st = stepper.step(st, enforce_gate=enforce_gate)
    return st, (u0, b0)


class TestRhs:
    def test_zero_fields(self):
        g = Grid(8)
        du, db = rhs(zero_field(g), zero_field(g))
        assert np.abs(du.coeffs).max() == 0.0
        assert np.abs(db.coeffs).max() == 0.0

    def test_beltrami_b_annihilates(self):
        # Lorentz term projects to zero, Hall term is b x b = 0
        g = Grid(16)
        b = abc_beltrami(g)
        du, db = rhs(zero_field(g), b, hall_on=True)
        assert np.abs(du.coeffs).max() <= 1e-11
        assert np.abs(db.coeffs).max() <= 1e-11

    def test_matches_convolution_oracle(self):
        g = Grid(8)
        rng = np.random.default_rng(5)
        u = dealias(leray_project(random_field(g, rng))) * 0.3
        b = dealias(leray_project(random_field(g, rng))) * 0.3
        for hall in (False, True):
            du, db = rhs(u, b, hall_on=hall)
            du_o, db_o = oracles.rhs_direct(u, b, hall_on=hall)
            assert np.abs(du.coeffs - du_o).max() / np.abs(du_o).max() < 1e-10
            assert np.abs(db.coeffs - db_o).max() / np.abs(db_o).max() < 1e-10
        # a uniform b0 z_hat on top: the k = 0 mode takes part in every product
        b.coeffs[2, 0, 0, 0] = 1.5
        du, db = rhs(u, b, hall_on=True)
        du_o, db_o = oracles.rhs_direct(u, b, hall_on=True)
        assert np.abs(du.coeffs - du_o).max() / np.abs(du_o).max() < 1e-10
        assert np.abs(db.coeffs - db_o).max() / np.abs(db_o).max() < 1e-10

    def test_outputs_hermitian(self):
        # the kz < 0 half is filled from the kz >= 0 half, which comes from
        # real transforms; n = 10 has an odd n/2
        for n in (10, 16, 32):
            g = Grid(n)
            rng = np.random.default_rng(n)
            u = dealias(leray_project(random_field(g, rng)))
            b = dealias(leray_project(random_field(g, rng)))
            du, db = rhs(u, b)
            assert hermitian_error(du) < 1e-14
            assert hermitian_error(db) < 1e-14

    def test_rejects_nonsolenoidal(self):
        g = Grid(8)
        u = random_field(g, np.random.default_rng(1))  # unprojected
        with pytest.raises(ValueError, match="solenoidal"):
            rhs(u, zero_field(g))

    def test_outputs_solenoidal(self):
        g = Grid(16)
        rng = np.random.default_rng(2)
        u = dealias(leray_project(random_field(g, rng)))
        b = dealias(leray_project(random_field(g, rng)))
        du, db = rhs(u, b)
        assert divergence_error(du) < 1e-12
        assert divergence_error(db) < 1e-12

    def test_hall_term_does_no_work(self):
        g = Grid(16)
        b = dealias(leray_project(random_field(g, np.random.default_rng(3))))
        scale = l2_norm_spectral(b) ** 2
        assert abs(hall_power(b)) <= 1e-11 * scale


def full_cube_step(u0, b0, cfg):
    """One IF-RK4 step on the full cube, from the public rhs: the reference
    for Stepper.step, which works on the half cube.  Returns (u, b, the
    dissipation integral increment)."""
    ksq, dt = u0.grid.k_sq, cfg.dt
    eu_half = np.exp(-cfg.nu * ksq * dt / 2)
    eb_half = np.exp(-cfg.mu * ksq * dt / 2)
    eu_full, eb_full = eu_half**2, eb_half**2

    def stage(u, b):
        du, db = rhs(u, b, cfg.hall_on)
        diss = cfg.nu * grad_norm_sq(u) + cfg.mu * grad_norm_sq(b)
        return du.coeffs, db.coeffs, diss

    def field(c):
        return SpectralField(u0.grid, c, True)

    u, b = u0.coeffs, b0.coeffs
    du1, db1, g1 = stage(u0, b0)
    du2, db2, g2 = stage(
        field(eu_half * (u + dt / 2 * du1)), field(eb_half * (b + dt / 2 * db1))
    )
    du3, db3, g3 = stage(
        field(eu_half * u + dt / 2 * du2), field(eb_half * b + dt / 2 * db2)
    )
    du4, db4, g4 = stage(
        field(eu_full * u + dt * eu_half * du3), field(eb_full * b + dt * eb_half * db3)
    )
    u_new = eu_full * u + dt / 6 * (
        eu_full * du1 + 2 * eu_half * (du2 + du3) + du4
    )
    b_new = eb_full * b + dt / 6 * (
        eb_full * db1 + 2 * eb_half * (db2 + db3) + db4
    )
    diss = dt / 6 * (g1 + 2 * g2 + 2 * g3 + g4)
    return leray_project(field(u_new)).coeffs, b_new, diss


class TestHalfCubeStep:
    @pytest.mark.parametrize("n", [10, 16, 24])
    @pytest.mark.parametrize("hall", [False, True])
    def test_matches_full_cube_step(self, n, hall):
        g = Grid(n)
        rng = np.random.default_rng(n + hall)
        u0 = dealias(leray_project(random_field(g, rng))) * 0.5
        b0 = dealias(leray_project(random_field(g, rng))) * 0.5
        cfg = RunConfig(n=n, dt=1e-2, t_end=1.0, nu=0.05, mu=0.03, hall_on=hall)
        st = Stepper(g, cfg).step(SolverState(0.0, u0, b0, diss_integral=0.25))
        u_ref, b_ref, diss_ref = full_cube_step(u0, b0, cfg)
        assert np.abs(st.u.coeffs - u_ref).max() <= 1e-13 * np.abs(u_ref).max()
        assert np.abs(st.b.coeffs - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
        assert st.diss_integral - 0.25 == pytest.approx(diss_ref, rel=1e-13)
        assert hermitian_error(st.u) < 1e-14
        assert hermitian_error(st.b) < 1e-14

    def test_fills_the_full_cube_once_per_field(self, monkeypatch):
        calls = []

        def counting_fill(grid, half):
            calls.append(half.shape)
            return fill(grid, half)

        fill = solver._fill_from_half
        monkeypatch.setattr(solver, "_fill_from_half", counting_fill)
        cfg = RunConfig(
            n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1, init={"kind": "random_band"}
        )
        st, _ = run_steps(cfg, 2)
        assert st.step_count == 2
        assert calls == [(3, 16, 16, 9)] * 4

    @pytest.mark.parametrize("n", [10, 16])
    def test_products_use_the_dealiased_part(self, n):
        # solenoidal white noise reaches every mode; what lies beyond the cut
        # takes no part in a product, and a step leaves nothing there
        g = Grid(n)
        rng = np.random.default_rng(n)
        u = leray_project(random_field(g, rng)) * 0.5
        b = leray_project(random_field(g, rng)) * 0.5
        ud, bd = dealias(u), dealias(b)
        assert np.abs(u.coeffs - ud.coeffs).max() > 0.1 * np.abs(u.coeffs).max()
        for hall in (False, True):
            for got, expect in zip(rhs(u, b, hall), rhs(ud, bd, hall)):
                assert np.array_equal(got.coeffs, expect.coeffs)
        assert hall_power(b) == hall_power(bd)
        cfg = RunConfig(n=n, dt=1.0, t_end=1.0, nu=0.05, mu=0.03)
        cfg = RunConfig(n=n, dt=0.5 * dt_gate(ud, bd, cfg), t_end=1.0, nu=0.05, mu=0.03)
        stepper = Stepper(g, cfg)
        st = stepper.step(SolverState(0.0, u, b))
        ref = stepper.step(SolverState(0.0, ud, bd))
        assert np.array_equal(st.u.coeffs, ref.u.coeffs)
        assert np.array_equal(st.b.coeffs, ref.b.coeffs)
        assert st.diss_integral == ref.diss_integral
        beyond = ~g.dealias_mask
        assert np.all(st.u.coeffs[:, beyond] == 0.0)
        assert np.all(st.b.coeffs[:, beyond] == 0.0)


class TestExactDecays:
    def test_beltrami_velocity_decay(self):
        nu = 0.1
        cfg = RunConfig(
            n=16, dt=1e-2, t_end=1.0, nu=nu, mu=nu, init={"kind": "beltrami_u"}
        )
        st, (u0, _) = run_steps(cfg, 100)
        expect = np.exp(-nu * 1.0)
        err = l2_norm_spectral(st.u - expect * u0) / (expect * l2_norm_spectral(u0))
        assert err <= 1e-8
        assert l2_norm_spectral(st.b) == 0.0
        assert hermitian_error(st.u) < 1e-12

    def test_hall_inert_beltrami_magnetic_decay(self):
        mu = 0.1
        cfg = RunConfig(
            n=16, dt=1e-2, t_end=1.0, nu=0.05, mu=mu,
            init={"kind": "beltrami_b"}, hall_on=True,
        )
        st, (_, b0) = run_steps(cfg, 100)
        expect = np.exp(-mu * 1.0)
        err = l2_norm_spectral(st.b - expect * b0) / (expect * l2_norm_spectral(b0))
        assert err <= 1e-8
        assert l2_norm_spectral(st.u) <= 1e-10 * l2_norm_spectral(b0)

    def test_energy_balance_along_decay(self):
        cfg = RunConfig(
            n=16, dt=1e-2, t_end=0.5, nu=0.1, mu=0.1, init={"kind": "beltrami_u"}
        )
        st, (u0, _) = run_steps(cfg, 50)
        # Definition-2.2 equality with unhalved norms
        lhs = 2 * energy(st.u) + 2 * energy(st.b) + 2 * st.diss_integral
        rhs_val = 2 * energy(u0)
        assert abs(lhs - rhs_val) / rhs_val < 1e-10


class TestWhistler:
    def test_frequency_matches_linearized_eigensystem(self):
        # circularly polarized perturbation about uniform B0 z_hat; the init
        # excites the minus-polarization at wavevector +k
        n, b0, k, nu = 32, 1.0, 1, 1e-3
        cfg = RunConfig(
            n=n, dt=5e-3, t_end=0.75, nu=nu, mu=nu,
            init={"kind": "uniform_b_plus_whistler", "b0": b0, "eps": 1e-6, "k": k},
        )
        grid = Grid(n)
        u0, bb0 = make_initial(cfg.init, grid, 0)
        st = SolverState(0.0, u0, bb0)
        stepper = Stepper(grid, cfg)
        mat = oracles.whistler_matrix(k, b0, nu, nu)["-"]
        evals, evecs = np.linalg.eig(mat)

        def minus_coords(state):
            uu = state.u.coeffs[:, 0, 0, k]
            bb = state.b.coeffs[:, 0, 0, k]
            vec = np.array(
                [(uu[0] - 1j * uu[1]) / np.sqrt(2), (bb[0] - 1j * bb[1]) / np.sqrt(2)]
            )
            return np.linalg.solve(evecs, vec)

        ts, coords = [], []
        for _ in range(150):
            ts.append(st.t)
            coords.append(minus_coords(st))
            st = stepper.step(st)
        ts = np.array(ts)
        coords = np.array(coords)
        for i in range(2):
            phase = np.unwrap(np.angle(coords[:, i]))
            slope = np.polyfit(ts, phase, 1)[0]
            oracle_freq = abs(evals[i].imag)
            assert abs(abs(slope) - oracle_freq) / oracle_freq < 0.01


class TestTemporalOrder:
    def test_rk4_error_reduction_on_nonlinear_run(self):
        # Beltrami decay is integrated exactly by the integrating factor, so
        # the fourth-order signature is measured on an Orszag-Tang run instead
        grid = Grid(16)
        t_end = 0.1

        def run(dt):
            cfg = RunConfig(
                n=16, dt=dt, t_end=t_end, nu=0.05, mu=0.05,
                init={"kind": "orszag_tang_3d", "amplitude": 0.5},
            )
            u0, b0 = make_initial(cfg.init, grid, 0)
            st = SolverState(0.0, u0, b0)
            stepper = Stepper(grid, cfg)
            for _ in range(round(t_end / dt)):
                st = stepper.step(st)
            return st

        ref = run(2.5e-4)
        errs = []
        for dt in (4e-3, 2e-3):
            st = run(dt)
            errs.append(
                l2_norm_spectral(st.u - ref.u) + l2_norm_spectral(st.b - ref.b)
            )
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0


class TestIdealInvariants:
    def test_energy_and_helicity_conserved(self):
        cfg = RunConfig(
            n=16, dt=1e-3, t_end=0.05, nu=0.0, mu=0.0, ideal=True,
            init={"kind": "random_band", "q_lo": 1, "q_hi": 3, "amplitude": 0.5},
            seed=9,
        )
        cfg.validate()
        st, (u0, b0) = run_steps(cfg, 50, seed=cfg.seed)
        e0 = energy(u0) + energy(b0)
        e1 = energy(st.u) + energy(st.b)
        assert abs(e1 - e0) / e0 < 1e-6
        h0 = magnetic_helicity(b0)
        h1 = magnetic_helicity(st.b)
        assert abs(h1 - h0) / abs(h0) < 1e-6


class TestGateAndBlowUp:
    def test_gate_formula(self):
        g = Grid(16)
        u = abc_beltrami(g, 2.0)
        b = zero_field(g)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        # max |u| for the ABC field is known: sqrt(3) at amplitude 1... use lp
        gate = dt_gate(u, b, cfg)
        expect = 1.0 / (g.dealias_cut * lp_norm(u, np.inf))
        assert gate == pytest.approx(expect)
        assert dt_gate(zero_field(g), zero_field(g), cfg) == np.inf

    @pytest.mark.parametrize("kind", ["beltrami_u", "beltrami_b", "random_band"])
    def test_step_gate_matches_dt_gate(self, kind):
        # the stepper gates on its stage-1 samples; the gate it reports in
        # DtGateError is the one dt_gate computes from the state
        cfg = RunConfig(
            n=16, dt=10.0, t_end=10.0, nu=0.1, mu=0.1, init={"kind": kind}, seed=3
        )
        grid = Grid(16)
        u0, b0 = make_initial(cfg.init, grid, cfg.seed)
        with pytest.raises(DtGateError) as excinfo:
            Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
        assert excinfo.value.gate == pytest.approx(dt_gate(u0, b0, cfg), rel=1e-12)

    def test_gate_violation_raises(self):
        cfg = RunConfig(
            n=16, dt=0.5, t_end=1.0, nu=0.1, mu=0.1,
            init={"kind": "beltrami_u", "amplitude": 2.0},
        )
        with pytest.raises(DtGateError):
            run_steps(cfg, 1)

    def test_blow_up_detected_carries_last_finite_state(self):
        cfg = RunConfig(
            n=16, dt=0.2, t_end=10.0, nu=1e-4, mu=1e-4,
            init={"kind": "random_band", "q_lo": 1, "q_hi": 3, "amplitude": 5.0},
            seed=1,
        )
        with pytest.raises(BlowUpDetected) as excinfo:
            run_steps(cfg, 50, seed=1, enforce_gate=False)
        last = excinfo.value.last_state
        assert np.all(np.isfinite(last.u.coeffs.view(np.float64)))
        assert np.all(np.isfinite(last.b.coeffs.view(np.float64)))

    def test_single_step_wrapper(self):
        cfg = RunConfig(
            n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1, init={"kind": "beltrami_u"}
        )
        grid = Grid(16)
        u0, b0 = make_initial(cfg.init, grid, 0)
        st = Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
        assert st.t == pytest.approx(1e-3)
        assert st.step_count == 1


class TestInitialConditions:
    def test_beltrami_u_is_curl_eigenfield(self):
        g = Grid(16)
        u, b = make_initial({"kind": "beltrami_u", "amplitude": 1.0}, g)
        assert lp_norm(curl(u) - u, np.inf) <= 1e-12
        assert np.abs(b.coeffs).max() == 0.0

    def test_random_band_energy_confinement(self):
        g = Grid(32)
        part = build_partition(g)
        u, b = make_initial(
            {"kind": "random_band", "q_lo": 2, "q_hi": 4, "amplitude": 1.0}, g, seed=4
        )
        for f in (u, b):
            assert divergence_error(f) <= 1e-12
            shells = part.shell_l2_sq(f)
            total = shells.sum()
            for q in part.shell_range():
                if not 2 <= q <= 4:
                    assert shells[q + 1] <= 1e-14 * total
        # rms normalization
        assert lp_norm(u, 2.0) / (2 * np.pi) ** 1.5 == pytest.approx(1.0, rel=1e-12)

    def test_orszag_tang_frozen_energy(self):
        g = Grid(16)
        for amp in (1.0, 0.5):
            u, b = make_initial({"kind": "orszag_tang_3d", "amplitude": amp}, g)
            assert divergence_error(u) <= 1e-13
            assert divergence_error(b) <= 1e-13
            e_total = energy(u) + energy(b)
            assert e_total == pytest.approx(
                ORSZAG_TANG_ENERGY_COEFF * amp**2 * VOLUME, rel=1e-12
            )

    def test_uniform_b_plus_whistler(self):
        g = Grid(16)
        u, b = make_initial(
            {"kind": "uniform_b_plus_whistler", "b0": 2.0, "eps": 1e-3, "k": 2}, g
        )
        assert np.abs(u.coeffs).max() == 0.0
        assert b.coeffs[2, 0, 0, 0] == pytest.approx(2.0)
        assert divergence_error(b) <= 1e-13

    def test_whistler_beyond_the_cut_rejected(self):
        g = Grid(16)
        with pytest.raises(ValueError, match="beyond dealias_cut=5"):
            make_initial(
                {"kind": "uniform_b_plus_whistler", "b0": 1.0, "eps": 1e-3, "k": 6}, g
            )

    def test_from_checkpoint_round_trip(self, tmp_path):
        from hallmhd.checkpoint import write_checkpoint

        g = Grid(8)
        rng = np.random.default_rng(6)
        u = leray_project(random_field(g, rng))
        b = leray_project(random_field(g, rng))
        path = tmp_path / "init.hmhd"
        write_checkpoint(path, 0.5, 0.1, 0.1, u, b)
        u2, b2 = make_initial({"kind": "from_checkpoint", "path": str(path)}, g)
        assert np.array_equal(u2.coeffs, u.coeffs)
        assert np.array_equal(b2.coeffs, b.coeffs)

    def test_unknown_kind_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError, match="unknown initial-condition"):
            make_initial({"kind": "nope"}, g)


# (key, bad value) rows: validate must raise a ConfigError naming the key
BAD_VALUES = [
    ("dt", float("nan")),
    ("dt", float("inf")),
    ("t_end", float("nan")),
    ("nu", float("nan")),
    ("mu", float("nan")),
    ("checkpoint_every", 0),
    ("checkpoint_every", -10),
    ("cfl_adv", 0.0),
    ("cfl_adv", -1.0),
    ("cfl_whistler", 0.0),
    ("dealias_cut", 9),
    ("dealias_cut", 0),
    ("seed", -1),
    ("hall_on", "no"),
    ("ideal", 0),
    ("n", 16.0),
    ("diag_every", 2.5),
    ("seed", 1.5),
    ("init.amplitud", {"kind": "random_band", "amplitud": 2.0}),
    ("init.q_lo", {"kind": "beltrami_u", "q_lo": 1}),
]


class TestConfig:
    def test_zero_viscosity_requires_ideal_mode(self):
        with pytest.raises(ConfigError, match="nu"):
            RunConfig.from_dict(
                {"n": 16, "dt": 1e-2, "t_end": 1.0, "nu": 0.0, "mu": 0.1}
            )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: 'viscosity'"):
            RunConfig.from_dict(
                {"n": 16, "dt": 1e-2, "t_end": 1.0, "nu": 0.1, "mu": 0.1,
                 "viscosity": 1.0}
            )

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="missing config key: 'dt'"):
            RunConfig.from_dict({"n": 16, "t_end": 1.0, "nu": 0.1, "mu": 0.1})

    @pytest.mark.parametrize(
        "key, value",
        BAD_VALUES,
        ids=[k if isinstance(v, dict) else f"{k}={v}" for k, v in BAD_VALUES],
    )
    def test_bad_value_named(self, key, value):
        data = {"n": 16, "dt": 1e-2, "t_end": 1.0, "nu": 0.1, "mu": 0.1}
        data[key.split(".")[0]] = value
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}'")):
            RunConfig.from_dict(data)

    def test_integer_valued_reals_accepted(self):
        cfg = RunConfig.from_dict(
            {"n": 16, "dt": 1, "t_end": 2, "nu": 1, "mu": 1, "dealias_cut": 5}
        )
        assert cfg.t_end == 2

    def test_checkpoint_cadence_constraint(self):
        with pytest.raises(ConfigError, match="checkpoint_every"):
            RunConfig.from_dict(
                {"n": 16, "dt": 1e-2, "t_end": 1.0, "nu": 0.1, "mu": 0.1,
                 "diag_every": 10, "checkpoint_every": 15}
            )

    def test_json_round_trip(self, tmp_path):
        import json

        cfg = RunConfig(n=16, dt=1e-2, t_end=1.0, nu=0.1, mu=0.2, seed=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        cfg2 = RunConfig.from_json(path)
        assert cfg2 == cfg
        assert cfg2.m == 0.1
