"""Solver right side, IF-RK4 stepping, exact decays, whistler dispersion,
conservation, and initial conditions."""

import re

import numpy as np
import pytest

from hallmhd import oracles, solver
from hallmhd.config import KNOWN_INIT_KINDS, ConfigError, RunConfig
from hallmhd.fields import (
    DimensionError,
    Grid,
    SpectralField,
    _leray,
    curl,
    divergence_error,
    from_physical,
    grad_norm_sq,
    inner_product,
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
    magnetic_helicity,
    make_initial,
    orszag_tang_3d,
    rhs,
    ORSZAG_TANG_ENERGY_COEFF,
)
from hallmhd.oracles import dealias, hermitian_error

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
        b = abc_beltrami(g, 1.0)
        du, db = rhs(zero_field(g), b, hall_on=True)
        assert np.abs(du.coeffs).max() <= 1e-11
        assert np.abs(db.coeffs).max() <= 1e-11

    def test_mixed_grids_rejected(self):
        u, b = abc_beltrami(Grid(16), 1.0), abc_beltrami(Grid(32), 1.0)
        with pytest.raises(DimensionError, match="u is on .*n=16.*b on .*n=32"):
            rhs(u, b)

    def test_matches_convolution_oracle(self):
        g = Grid(8)
        rng = np.random.default_rng(5)
        u = dealias(leray_project(random_field(g, rng))) * 0.3
        b = dealias(leray_project(random_field(g, rng))) * 0.3
        half = np.s_[..., : g.n // 2 + 1]
        for hall in (False, True):
            du, db = rhs(u, b, hall_on=hall)
            du_o, db_o = (x[half] for x in oracles.rhs_direct(u, b, hall_on=hall))
            assert np.abs(du.coeffs - du_o).max() / np.abs(du_o).max() < 1e-10
            assert np.abs(db.coeffs - db_o).max() / np.abs(db_o).max() < 1e-10
        # a uniform b0 z_hat on top: the k = 0 mode takes part in every product
        b.coeffs[2, 0, 0, 0] = 1.5
        du, db = rhs(u, b, hall_on=True)
        du_o, db_o = (x[half] for x in oracles.rhs_direct(u, b, hall_on=True))
        assert np.abs(du.coeffs - du_o).max() / np.abs(du_o).max() < 1e-10
        assert np.abs(db.coeffs - db_o).max() / np.abs(db_o).max() < 1e-10

    def test_outputs_hermitian(self):
        # the kz = 0 and kz = n/2 planes of the half cube hold their own
        # Hermitian partners, which the real transforms keep; n = 10 has an
        # odd n/2
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
        # with u = 0, db = -curl((curl b) x b), so the Hall work is -(db, b)
        g = Grid(16)
        b = dealias(leray_project(random_field(g, np.random.default_rng(3))))
        scale = l2_norm_spectral(b) ** 2
        db = rhs(zero_field(g), b)[1]
        assert abs(inner_product(db, b)) <= 1e-11 * scale


def reference_step(u0, b0, cfg):
    """One IF-RK4 step on the half cube, from the public rhs: the reference
    for Stepper.step, which works on the dealiased box.  Returns (u, b, the
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
        return SpectralField(u0.grid, c)

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


def steady_step_boxes(kind):
    """The peak of the second Hall step of an n = 32 `kind` state above the
    memory live before it, in box-sized arrays, by tracemalloc."""
    import tracemalloc

    cfg = RunConfig(n=32, dt=1e-3, t_end=1.0, nu=0.01, mu=0.01, init={"kind": kind})
    g = Grid(32)
    stepper = Stepper(g, cfg)
    st = stepper.step(SolverState(0.0, *make_initial(cfg.init, g, 4)))
    c = g.dealias_cut
    box_bytes = 3 * (2 * c + 1) ** 2 * (c + 1) * 16
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        st = stepper.step(st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st.step_count == 2
    return (peak - live) / box_bytes


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
        u_ref, b_ref, diss_ref = reference_step(u0, b0, cfg)
        assert np.abs(st.u.coeffs - u_ref).max() <= 1e-13 * np.abs(u_ref).max()
        assert np.abs(st.b.coeffs - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
        assert st.diss_integral - 0.25 == pytest.approx(diss_ref, rel=1e-13)
        assert hermitian_error(st.u) < 1e-14
        assert hermitian_error(st.b) < 1e-14

    def test_step_fills_nothing_until_asked(self, monkeypatch):
        # a stepped state holds boxes; each half cube is scattered from its
        # box on first access and kept
        calls = []

        def counting_scatter(box, n):
            calls.append(box.shape)
            return scatter(box, n)

        scatter = solver._from_box
        monkeypatch.setattr(solver, "_from_box", counting_scatter)
        cfg = RunConfig(
            n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1, init={"kind": "random_band"}
        )
        st, _ = run_steps(cfg, 2)
        assert st.step_count == 2
        assert calls == []
        u = st.u
        assert calls == [(3, 11, 11, 6)]
        assert u.coeffs.shape == (3, 16, 16, 9)
        b = st.b
        assert calls == [(3, 11, 11, 6)] * 2
        assert st.u is u and st.b is b
        assert calls == [(3, 11, 11, 6)] * 2
        assert not u.coeffs.flags.writeable

    def test_workspace_reuse(self):
        # one stepper alternating between a Hall random_band state and a B0
        # whistler state equals a fresh stepper on each, and no result
        # aliases a buffer of the kernel
        g = Grid(16)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.05, mu=0.05, hall_on=True)
        states = [
            SolverState(0.0, *make_initial({"kind": "random_band"}, g, 3)),
            SolverState(0.0, *make_initial({"kind": "uniform_b_plus_whistler"}, g)),
        ]
        shared = Stepper(g, cfg)
        for _ in range(2):
            for i, st in enumerate(states):
                got = shared.step(st)
                ref = Stepper(g, cfg).step(st)
                assert np.array_equal(got.u.coeffs, ref.u.coeffs)
                assert np.array_equal(got.b.coeffs, ref.b.coeffs)
                assert got.diss_integral == ref.diss_integral
                states[i] = got
        kernel = shared._kernel
        boxes = [st._dealiased_boxes() for st in states]
        first, second = solver._pair(g), solver._pair(g)
        maxima = kernel(*boxes[0], True, first, gate=True)
        kept = [first.copy(), maxima.copy()]
        kernel(*boxes[1], True, second, gate=True)
        for a, b in zip((first, maxima), kept):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("planes", [1, 3])
    @pytest.mark.parametrize("hall", [False, True])
    def test_kernel_slabs_match_whole_transforms(self, monkeypatch, planes, hall):
        # the kernel streamed over slabs of one plane, and of three planes
        # with a shorter last slab, equals the same products formed with the
        # whole pruned transforms, bit for bit
        from hallmhd.fields import (
            _cross,
            _curl,
            _forward_x,
            _forward_zy,
            _half_to_physical,
        )

        def forward(samples):
            z = np.empty((3, n, n, n // 2 + 1), dtype=np.complex128)
            zy = np.empty((3, n, 2 * c + 1, c + 1), dtype=np.complex128)
            box = np.empty((3, 2 * c + 1, 2 * c + 1, c + 1), dtype=np.complex128)
            return _forward_x(_forward_zy(samples, z, zy), box)

        g = Grid(16)
        n, c = g.n, g.dealias_cut
        per_plane = 8 * 16 * n * n + 16 * 3 * n * (c + 1 + n // 2 + 1)
        monkeypatch.setattr(solver, "SLAB_BYTES", planes * per_plane)
        kernel = solver._Kernel(g)
        assert kernel._slab == planes
        u, b = make_initial({"kind": "random_band"}, g, 7)
        uh, bh = solver._dealiased_box(u), solver._dealiased_box(b)
        du, db = solver._pair(g)
        maxima = kernel(uh, bh, hall, (du, db), gate=True)

        kvec, _, inv_k_sq, mask = g.box
        up, wp = (_half_to_physical(x, n) for x in (uh, _curl(kvec, uh)))
        bp, jp = (_half_to_physical(x, n) for x in (bh, _curl(kvec, bh)))
        f = _cross(up, wp)
        f += _cross(jp, bp)
        fu = forward(f) * mask
        fb = forward(_cross(up - jp if hall else up, bp)) * mask
        assert np.array_equal(du, _leray(kvec, inv_k_sq, fu))
        assert np.array_equal(db, _curl(kvec, fb))
        assert maxima[0] == np.sqrt(np.sum(up * up, axis=0)).max()
        assert maxima[1] == np.sqrt(np.sum(bp * bp, axis=0)).max()

    def test_steady_step_allocates_few_boxes(self):
        # after the first step has allocated the kernel's buffers, a Hall
        # step at n = 32 peaks at most 10 box-sized arrays above live memory,
        # eight of them the four stage arrays
        assert steady_step_boxes("random_band") <= 10

    def test_steady_mean_field_step_allocates_few_boxes(self):
        # the factor of a mean field B0 adds at most its two curls
        assert steady_step_boxes("uniform_b_plus_whistler") <= 11

    def test_first_step_drops_the_fields(self):
        # a state built from fields keeps only their masked boxes once a step
        # has read them: the original coefficients are freed, and u is the
        # dealiased field
        import weakref

        g = Grid(16)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.05, mu=0.05)
        u, b = make_initial({"kind": "random_band"}, g, 5)
        ud = dealias(u).coeffs
        coeffs = weakref.ref(u.coeffs)
        st = SolverState(0.0, u, b)
        del u, b
        assert coeffs() is not None
        Stepper(g, cfg).step(st)
        assert coeffs() is None
        assert np.array_equal(st.u.coeffs, ud)

    def test_successive_states_share_no_memory(self):
        g = Grid(16)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.05, mu=0.05)
        stepper = Stepper(g, cfg)
        u, b = make_initial({"kind": "random_band"}, g, 6)
        first = stepper.step(SolverState(0.0, u, b))
        second = stepper.step(first)
        for a in first._dealiased_boxes():
            for b in second._dealiased_boxes():
                assert not np.shares_memory(a, b)

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
        hall_work = [inner_product(rhs(zero_field(g), x)[1], x) for x in (b, bd)]
        assert hall_work[0] == hall_work[1]
        cfg = RunConfig(n=n, dt=1.0, t_end=1.0, nu=0.05, mu=0.03)
        cfg = RunConfig(n=n, dt=0.5 * dt_gate(ud, bd, cfg), t_end=1.0, nu=0.05, mu=0.03)
        stepper = Stepper(g, cfg)
        st = stepper.step(SolverState(0.0, u, b))
        ref = stepper.step(SolverState(0.0, ud, bd))
        assert np.array_equal(st.u.coeffs, ref.u.coeffs)
        assert np.array_equal(st.b.coeffs, ref.b.coeffs)
        assert st.diss_integral == ref.diss_integral
        beyond = ~oracles.dealias_mask(g)
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
        for err in whistler_frequency_errors(32, 5e-3, 149, True):
            assert err < 0.01


def whistler_frequency_errors(n, dt, n_steps, hall):
    """Step the uniform-B0 whistler state and return the relative errors of
    the two phase speeds, fitted from the minus-polarization eigen-coordinates
    at wavevector k z_hat, against oracles.whistler_matrix."""
    b0, k, nu = 1.0, 1, 1e-3
    cfg = RunConfig(
        n=n, dt=dt, t_end=n_steps * dt, nu=nu, mu=nu, hall_on=hall,
        init={"kind": "uniform_b_plus_whistler", "b0": b0, "eps": 1e-6, "k": k},
    )
    grid = Grid(n)
    u0, bb0 = make_initial(cfg.init, grid, 0)
    st = SolverState(0.0, u0, bb0)
    stepper = Stepper(grid, cfg)
    evals, evecs = np.linalg.eig(oracles.whistler_matrix(k, b0, nu, nu, hall)["-"])
    ts, coords = [], []
    for i in range(n_steps + 1):
        if i:
            st = stepper.step(st)
        uu, bb = st.u.coeffs[:, 0, 0, k], st.b.coeffs[:, 0, 0, k]
        vec = np.array([uu[0] - 1j * uu[1], bb[0] - 1j * bb[1]]) / np.sqrt(2)
        ts.append(st.t)
        coords.append(np.linalg.solve(evecs, vec))
    # the mean field is conserved exactly
    assert np.array_equal(st.b.coeffs[:, 0, 0, 0], bb0.coeffs[:, 0, 0, 0])
    coords = np.array(coords)
    errs = []
    for i in range(2):
        slope = np.polyfit(ts, np.unwrap(np.angle(coords[:, i])), 1)[0]
        errs.append(abs(abs(slope) - abs(evals[i].imag)) / abs(evals[i].imag))
    return errs


def linear_operator_exp(k, b0, nu, mu, hall, t):
    """exp(t L) of the per-mode 6x6 linear operator on (u, b - B0),
    L = [[-nu |k|^2, i kappa], [i kappa, -mu |k|^2 + kappa (k x)]] (kappa =
    k.B0, the k x term with the Hall term only), from np.linalg.eig."""
    kappa, ksq, eye = k @ b0, k @ k, np.eye(3)
    kcross = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    op = np.block([
        [-nu * ksq * eye, 1j * kappa * eye],
        [1j * kappa * eye, -mu * ksq * eye + (kappa * kcross if hall else 0)],
    ])
    w, v = np.linalg.eig(t * op)
    return (v * np.exp(w)) @ np.linalg.inv(v)


class TestMeanField:
    @pytest.mark.parametrize("hall", [False, True])
    def test_linear_terms_are_what_rhs_adds(self, hall):
        # rhs(u, B0 + b') - rhs(u, b') = (i kappa b', i kappa u + kappa k x b'),
        # the k x term with the Hall term only: the operator the factor takes
        g = Grid(16)
        rng = np.random.default_rng(4)
        u, b = (dealias(leray_project(random_field(g, rng))) * 0.5 for _ in "ub")
        mean = np.array([0.3, -0.2, 1.1])
        bm = b.copy()
        bm.coeffs[:, 0, 0, 0] = mean
        k = np.stack(np.broadcast_arrays(*g.kvec))
        kappa = np.tensordot(mean, k, axes=1)
        expect_u = 1j * kappa * b.coeffs
        expect_b = 1j * kappa * u.coeffs
        if hall:
            expect_b += kappa * np.cross(k, b.coeffs, axis=0)
        (du_m, db_m), (du, db) = rhs(u, bm, hall), rhs(u, b, hall)
        scale = np.abs(du.coeffs).max() + np.abs(db.coeffs).max()
        assert np.abs(du_m.coeffs - du.coeffs - expect_u).max() <= 1e-13 * scale
        assert np.abs(db_m.coeffs - db.coeffs - expect_b).max() <= 1e-13 * scale

    @pytest.mark.parametrize("hall", [False, True])
    @pytest.mark.parametrize("direction", ["random", "z"])
    @pytest.mark.parametrize("nu, mu", [(0.05, 0.05), (0.05, 0.02)])
    def test_factor_matches_matrix_exponential(self, hall, direction, nu, mu):
        # every box mode at n = 8, among them k = 0 (identity), the kappa = 0
        # modes (with nu = mu the degenerate branch) and, for B0 || z_hat,
        # the whole kz = 0 plane
        g = Grid(8)
        rng = np.random.default_rng(11)
        b0 = rng.standard_normal(3) if direction == "random" else np.array([0, 0, 1.0])
        b0 *= 1.3 / np.linalg.norm(b0)
        cfg = RunConfig(n=8, dt=0.2, t_end=1.0, nu=nu, mu=mu, hall_on=hall)
        t = cfg.dt / 2
        kvec, ksq, inv_k_sq, _ = g.box
        shape = (3,) + ksq.shape
        re, im = rng.standard_normal((2, 2) + shape)
        u, b = (_leray(kvec, inv_k_sq, x) for x in re + 1j * im)
        eu, eb = solver._pair(g)
        solver._MeanField(g, cfg, b0, t)(u, b, out=(eu, eb))
        ks = np.stack(np.broadcast_arrays(*kvec), axis=-1)
        degenerate = 0
        for idx in np.ndindex(ksq.shape):
            k = ks[idx]
            x = np.concatenate([u[(slice(None),) + idx], b[(slice(None),) + idx]])
            got = np.concatenate([eu[(slice(None),) + idx], eb[(slice(None),) + idx]])
            expect = linear_operator_exp(k, b0, nu, mu, hall, t) @ x
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(x).max()
            if not k.any():
                assert np.array_equal(got, x)
            degenerate += abs(k @ b0) < 1e-12
        if direction == "z":
            assert degenerate == (2 * g.dealias_cut + 1) ** 2

    @pytest.mark.parametrize("hall", [False, True])
    def test_stiff_whistler_frequencies(self, hall):
        # dt = 0.05 is 5x the whistler gate 1/(cut^2 |B0|) = 0.01 of the
        # mean field at n = 32 (cut 10); the factor integrates the B0 waves
        # exactly, and the gate reads b - B0 only
        for err in whistler_frequency_errors(32, 0.05, 15, hall):
            assert err < 1e-8

    def test_step_gate_reads_the_fluctuation(self):
        cfg = RunConfig(
            n=16, dt=1e6, t_end=1e6, nu=0.1, mu=0.1,
            init={"kind": "uniform_b_plus_whistler", "b0": 2.0, "eps": 1e-3, "k": 2},
        )
        grid = Grid(16)
        u0, b0 = make_initial(cfg.init, grid, 0)
        expect = cfg.cfl_whistler / (grid.dealias_cut**2 * 1e-3)
        assert dt_gate(u0, b0, cfg) == pytest.approx(expect, rel=1e-12)
        with pytest.raises(DtGateError) as excinfo:
            Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
        assert excinfo.value.gate == dt_gate(u0, b0, cfg)

    @pytest.mark.parametrize("hall", [False, True])
    def test_convergence_with_a_mean_field(self, hall):
        # random_band plus B0 = (0.3, 0, 1): fourth order from dt = 0.02, and
        # below the error and the energy-balance residual of the same IF-RK4
        # with B0 in the explicit products (reference_step)
        grid, t_end = Grid(16), 0.08
        cfg0 = RunConfig(
            n=16, dt=0.02, t_end=t_end, nu=0.05, mu=0.05, hall_on=hall,
            init={"kind": "random_band", "amplitude": 0.3}, seed=2,
        )
        u0, b0 = make_initial(cfg0.init, grid, cfg0.seed)
        b0.coeffs[:, 0, 0, 0] = (0.3, 0.0, 1.0)
        e0 = energy(u0) + energy(b0)

        def run(dt, explicit=False):
            cfg = RunConfig(**{**cfg0.to_dict(), "dt": dt})
            st, stepper = SolverState(0.0, u0, b0), Stepper(grid, cfg)
            for _ in range(round(t_end / dt)):
                if explicit:
                    u, b, diss = reference_step(st.u, st.b, cfg)
                    st = SolverState(
                        st.t + dt,
                        SpectralField(grid, u),
                        SpectralField(grid, b),
                        diss_integral=st.diss_integral + diss,
                    )
                else:
                    st = stepper.step(st)
            return st

        def error(st):
            return l2_norm_spectral(st.u - ref.u) + l2_norm_spectral(st.b - ref.b)

        def residual(st):
            return abs(energy(st.u) + energy(st.b) + st.diss_integral - e0)

        ref = run(0.02 / 16)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            st, explicit = run(dt), run(dt, explicit=True)
            errs.append(error(st))
            assert errs[-1] < error(explicit)
            assert residual(st) <= residual(explicit)
        for coarse, fine in zip(errs, errs[1:]):
            assert 12.0 <= coarse / fine <= 20.0


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
    def test_gate_of_mixed_grids_rejected(self):
        # b's box would be padded into the rows of u's smaller grid
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        u, _ = make_initial({"kind": "random_band"}, Grid(16), 0)
        _, b = make_initial({"kind": "random_band"}, Grid(32), 0)
        with pytest.raises(DimensionError, match="n=16.*n=32"):
            dt_gate(u, b, cfg)

    def test_gate_formula(self):
        g = Grid(16)
        u = abc_beltrami(g, 2.0)
        b = zero_field(g)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        # the ABC field lies inside the cut, so the gate reads the max|u| of
        # the whole field's samples, lp_norm(u, inf)
        gate = dt_gate(u, b, cfg)
        expect = 1.0 / (g.dealias_cut * lp_norm(u, np.inf))
        assert gate == pytest.approx(expect)
        assert dt_gate(zero_field(g), zero_field(g), cfg) == np.inf

    @pytest.mark.parametrize(
        "kind", ["beltrami_u", "beltrami_b", "random_band", "full_band"]
    )
    def test_step_gate_matches_dt_gate(self, kind):
        # the stepper gates on its stage-1 samples; the gate it reports in
        # DtGateError is the one dt_gate computes from the state, bit for
        # bit, also for a state with content beyond the cut
        cfg = RunConfig(n=16, dt=10.0, t_end=10.0, nu=0.1, mu=0.1)
        grid = Grid(16)
        if kind == "full_band":
            # Leray-projected white noise reaches every mode
            rng = np.random.default_rng(3)
            u0, b0 = (leray_project(random_field(grid, rng)) for _ in "ub")
        else:
            u0, b0 = make_initial({"kind": kind}, grid, 3)
        with pytest.raises(DtGateError) as excinfo:
            Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
        assert excinfo.value.gate == dt_gate(u0, b0, cfg)

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


class TestStepperInputs:
    def test_config_n_must_match_the_grid(self):
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        with pytest.raises(ConfigError, match="key 'n'"):
            Stepper(Grid(32), cfg)

    def test_config_cut_must_match_the_grid(self):
        cfg = RunConfig(n=32, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        with pytest.raises(ConfigError, match="key 'dealias_cut'"):
            Stepper(Grid(32, 8), cfg)

    def test_state_on_another_grid_rejected(self):
        # an n = 34 state has the cut 10 of n = 32, but not its grid
        cfg = RunConfig(n=32, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        u, b = make_initial({"kind": "random_band"}, Grid(34, 10), 0)
        with pytest.raises(DimensionError, match="n=34"):
            Stepper(Grid(32), cfg).step(SolverState(0.0, u, b))

    def test_config_validated(self):
        cfg = RunConfig(n=16, dt=float("nan"), t_end=1.0, nu=0.1, mu=0.1, hall_on="no")
        with pytest.raises(ConfigError):
            Stepper(Grid(16), cfg)


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

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_trig_states_match_their_sampled_formulas(self, n):
        # abc_beltrami and orszag_tang_3d set their coefficients directly
        g = Grid(n)
        x, y, z = oracles.mesh(g)
        for amp in (1.0, 0.5):
            beltrami = [np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)]
            ot_u = [-2 * np.sin(y), 2 * np.sin(x), np.zeros_like(x)]
            ot_b = [
                -2 * np.sin(2 * y) + np.sin(z), 2 * np.sin(x) + np.sin(z),
                np.sin(x) + np.sin(y),
            ]
            u, b = orszag_tang_3d(g, amp)
            pairs = [
                (abc_beltrami(g, amp), amp * np.stack(beltrami)),
                (u, amp * np.stack(ot_u)),
                (b, 0.8 * amp * np.stack(ot_b)),
            ]
            for field, samples in pairs:
                assert np.abs(field.coeffs - from_physical(samples, g).coeffs).max() <= 1e-15

    def test_random_band_peaks_under_three_half_cubes(self):
        # the band's coefficients are drawn on the box and scattered into
        # the half cube once: no n^3 noise and no transform, and the field
        # is scaled in place.  A first call loads numpy's lazily imported
        # modules, which tracemalloc counts
        import tracemalloc

        make_initial({"kind": "random_band"}, Grid(16))
        g = Grid(32)
        half_cube = 3 * 32 * 32 * 17 * 16
        tracemalloc.start()
        try:
            make_initial({"kind": "random_band"}, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * half_cube

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

    def test_from_checkpoint_takes_the_run_cut(self, tmp_path):
        # a file written under the default cut 10 loads onto the run's grid
        # of cut 8: it steps there, and gates as those coefficients do
        from hallmhd.checkpoint import write_checkpoint

        u, b = make_initial({"kind": "random_band"}, Grid(32), 3)
        path = tmp_path / "init.hmhd"
        write_checkpoint(path, 0.0, 0.01, 0.01, u, b)
        cfg = RunConfig.from_dict({
            "n": 32, "dt": 1e-3, "t_end": 1.0, "nu": 0.01, "mu": 0.01,
            "dealias_cut": 8, "init": {"kind": "from_checkpoint", "path": str(path)},
        })
        grid = Grid(32, 8)
        u0, b0 = make_initial(cfg.init, grid)
        assert u0.grid == grid and b0.grid == grid
        expect = dt_gate(SpectralField(grid, u.coeffs), SpectralField(grid, b.coeffs), cfg)
        assert dt_gate(u0, b0, cfg) == expect
        state = Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
        assert state.u.grid == grid and state.t == cfg.dt

    def test_from_checkpoint_of_another_grid_named(self, tmp_path):
        from hallmhd.checkpoint import write_checkpoint

        path = tmp_path / "init.hmhd"
        write_checkpoint(path, 0.5, 0.1, 0.1, zero_field(Grid(8)), zero_field(Grid(8)))
        with pytest.raises(ConfigError, match="key 'init.path'.*n=8.*n=16"):
            make_initial({"kind": "from_checkpoint", "path": str(path)}, Grid(16))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="key 'init.amplitud'"):
            make_initial({"kind": "random_band", "amplitud": 2.0}, Grid(8))

    def test_unknown_kind_rejected(self):
        g = Grid(8)
        for spec in ({"kind": "nope"}, {}):
            with pytest.raises(
                ConfigError, match="key 'init.kind': unknown initial-condition kind"
            ):
                make_initial(spec, g)

    @pytest.mark.parametrize("kind", sorted(set(KNOWN_INIT_KINDS) - {"from_checkpoint"}))
    def test_defaults_are_the_table(self, kind):
        # random_band's b_amplitude defaults to its amplitude
        defaults = dict(KNOWN_INIT_KINDS[kind])
        if kind == "random_band":
            defaults["b_amplitude"] = defaults["amplitude"]
        for g in (Grid(16), Grid(34, 10)):
            implicit = make_initial({"kind": kind}, g, 5)
            explicit = make_initial({"kind": kind, **defaults}, g, 5)
            for got, expect in zip(implicit, explicit):
                assert np.array_equal(got.coeffs, expect.coeffs)


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
    ("init.kind", {"kind": "nope"}),
    ("init.amplitud", {"kind": "random_band", "amplitud": 2.0}),
    ("init.q_lo", {"kind": "beltrami_u", "q_lo": 1}),
    ("init.q_lo", {"kind": "random_band", "q_lo": 1.5}),
    ("init.q_hi", {"kind": "random_band", "q_hi": True}),
    ("init.q_hi", {"kind": "random_band", "q_lo": 3, "q_hi": 1}),
    ("init.q_hi", {"kind": "random_band", "q_lo": -1, "q_hi": -1}),  # only k = 0
    ("init.q_lo", {"kind": "random_band", "q_lo": 5}),
    ("init.k", {"kind": "uniform_b_plus_whistler", "k": 2.7}),
    ("init.amplitude", {"kind": "beltrami_u", "amplitude": float("nan")}),
    ("init.amplitude", {"kind": "random_band", "amplitude": "2"}),
    ("init.b_amplitude", {"kind": "random_band", "b_amplitude": float("inf")}),
    ("init.b0", {"kind": "uniform_b_plus_whistler", "b0": None}),
    ("init.eps", {"kind": "uniform_b_plus_whistler", "eps": float("-inf")}),
    ("init.path", {"kind": "from_checkpoint"}),
    ("init.path", {"kind": "from_checkpoint", "path": ""}),
    ("init.q_lo", {"kind": "random_band", "q_lo": 4, "q_hi": 4}),
    ("init.q_lo", {"kind": "random_band", "q_lo": 3, "q_hi": 3}),  # 2^3 > cut 5
    ("init.k", {"kind": "uniform_b_plus_whistler", "k": 6}),
]


def bad_value_id(key, value):
    """`key=value`; an init row shows the parameter's value, or only the
    key for a parameter the kind does not read."""
    if not isinstance(value, dict):
        return f"{key}={value}"
    name = key.split(".")[1]
    if name != "kind" and name not in KNOWN_INIT_KINDS[value["kind"]]:
        return key
    return f"{key}={value.get(name)!r}"


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
        ids=[bad_value_id(k, v) for k, v in BAD_VALUES],
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
