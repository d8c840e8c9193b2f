"""Solver right side, IF-RK4 stepping, exact decays, whistler dispersion,
conservation, and initial conditions."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hallmhd import fields, oracles, solver
from hallmhd.checkpoint import CheckpointError
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
from hallmhd.oracles import dealias, half_cube, hermitian_error

VOLUME = (2 * np.pi) ** 3


def scaled(f, a):
    """The field a f."""
    return SpectralField(f.grid, a * f.coeffs)


def l2_distance(f, g):
    """||f - g||_2 by the spectral sum."""
    return l2_norm_spectral(SpectralField(f.grid, f.coeffs - g.coeffs))


def run_steps(cfg, n_steps, seed=0):
    grid = Grid(cfg.n, cfg.dealias_cut)
    u0, b0 = make_initial(cfg.init, grid, seed)
    st = SolverState(0.0, u0, b0)
    stepper = Stepper(grid, cfg)
    for _ in range(n_steps):
        st = stepper.step(st)
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
        u = scaled(dealias(leray_project(random_field(g, rng))), 0.3)
        b = scaled(dealias(leray_project(random_field(g, rng))), 0.3)
        half = np.s_[..., : g.n // 2 + 1]
        for hall in (False, True):
            du, db = (half_cube(f) for f in rhs(u, b, hall_on=hall))
            du_o, db_o = (x[half] for x in oracles.rhs_direct(u, b, hall_on=hall))
            assert np.abs(du - du_o).max() / np.abs(du_o).max() < 1e-10
            assert np.abs(db - db_o).max() / np.abs(db_o).max() < 1e-10
        # a uniform b0 z_hat on top: the k = 0 mode takes part in every product
        b.coeffs[2, 0, 0, 0] = 1.5
        du, db = (half_cube(f) for f in rhs(u, b, hall_on=True))
        du_o, db_o = (x[half] for x in oracles.rhs_direct(u, b, hall_on=True))
        assert np.abs(du - du_o).max() / np.abs(du_o).max() < 1e-10
        assert np.abs(db - db_o).max() / np.abs(db_o).max() < 1e-10

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
    """One IF-RK4 step of fields on the dealias box, from the public rhs
    and field calculus: the reference for Stepper.step, which fuses them.
    Returns (u, b, the dissipation integral increment)."""
    ksq, dt = fields._norm_sq(fields._box_axes(u0.grid.dealias_cut)), cfg.dt
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


def box_step(u0, b0, cfg):
    """One step of Stepper's sequence of operations on the dealias box, with
    rhs for the kernel calls, for states without a mean field: the new (u,
    b) boxes.  Every mode takes the stepper's operations in its order, so a
    step on the ball equals it bit for bit."""
    grid, dt = u0.grid, cfg.dt
    kvec = fields._box_axes(grid.dealias_cut)
    ksq = fields._norm_sq(kvec)
    eu, eb = (np.exp(-nu * ksq * dt / 2.0) for nu in (cfg.nu, cfg.mu))

    def factor(pair):
        return np.stack([eu * pair[0], eb * pair[1]])

    def kernel(pair):
        fs = (SpectralField(grid, c) for c in pair)
        return np.stack([f.coeffs for f in rhs(*fs, cfg.hall_on)])

    e0 = factor(np.stack([u0.coeffs, b0.coeffs]))
    d = kernel(np.stack([u0.coeffs, b0.coeffs]))
    acc = factor(d)
    x = e0 + dt / 2 * acc
    acc = e0 + dt / 6 * acc
    d = kernel(x)
    acc += dt / 3 * d
    x = e0 + dt / 2 * d
    d = kernel(x)
    acc += dt / 3 * d
    x = factor(e0 + dt * d)
    d = kernel(x)
    x = factor(acc) + dt / 6 * d
    x[0] = _leray(kvec, fields._reciprocal(ksq), x[0])
    return x


def traced(action):
    """action()'s result, the peak of the memory traced while it ran and the
    memory traced after it, each in bytes above the memory live before it,
    by tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = action()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - live, after - live


def stepped_once(kind):
    """The Stepper of a Hall n = 32 `kind` config, and the state of one step."""
    cfg = RunConfig(n=32, dt=1e-3, t_end=1.0, nu=0.01, mu=0.01, init={"kind": kind})
    g = Grid(32)
    stepper = Stepper(g, cfg)
    return stepper, stepper.step(SolverState(0.0, *make_initial(cfg.init, g, 4)))


def steady_step_boxes(kind):
    """The peak of the second Hall step of an n = 32 `kind` state above the
    memory live before it, in box-sized arrays, (3, 21, 21, 11) complex128
    (the dealias box of one field), by tracemalloc."""
    stepper, st = stepped_once(kind)
    c = stepper.grid.dealias_cut
    box_bytes = 3 * (2 * c + 1) ** 2 * (c + 1) * 16
    st, peak, _ = traced(lambda: stepper.step(st))
    assert st.step_count == 2
    return peak / box_bytes


class TestHalfCubeStep:
    @pytest.mark.parametrize("n", [10, 16, 24])
    @pytest.mark.parametrize("hall", [False, True])
    def test_matches_full_cube_step(self, n, hall):
        g = Grid(n)
        rng = np.random.default_rng(n + hall)
        u0 = scaled(dealias(leray_project(random_field(g, rng))), 0.5)
        b0 = scaled(dealias(leray_project(random_field(g, rng))), 0.5)
        cfg = RunConfig(n=n, dt=1e-2, t_end=1.0, nu=0.05, mu=0.03, hall_on=hall)
        st = Stepper(g, cfg).step(SolverState(0.0, u0, b0, diss_integral=0.25))
        u_ref, b_ref, diss_ref = reference_step(u0, b0, cfg)
        assert np.abs(st.u.coeffs - u_ref).max() <= 1e-13 * np.abs(u_ref).max()
        assert np.abs(st.b.coeffs - b_ref).max() <= 1e-13 * np.abs(b_ref).max()
        assert st.diss_integral - 0.25 == pytest.approx(diss_ref, rel=1e-13)
        assert hermitian_error(st.u) < 1e-14
        assert hermitian_error(st.b) < 1e-14

    @pytest.mark.parametrize("n", [10, 16, 24])
    @pytest.mark.parametrize("hall", [False, True])
    def test_equals_the_box_layout_step(self, n, hall):
        # the step on the dealias ball, against the same operations on the
        # dealias box, whose modes beyond the ball stay zero
        g = Grid(n)
        rng = np.random.default_rng(n + hall)
        u0 = scaled(dealias(leray_project(random_field(g, rng))), 0.5)
        b0 = scaled(dealias(leray_project(random_field(g, rng))), 0.5)
        cfg = RunConfig(n=n, dt=1e-2, t_end=1.0, nu=0.05, mu=0.03, hall_on=hall)
        st = Stepper(g, cfg).step(SolverState(0.0, u0, b0))
        u_ref, b_ref = box_step(u0, b0, cfg)
        assert np.array_equal(st.u.coeffs, u_ref)
        assert np.array_equal(st.b.coeffs, b_ref)

    def test_step_fills_nothing_until_asked(self):
        # a stepped state holds ball arrays; each access to u or b is a new
        # field, its ball expanded into the field's own box
        cfg = RunConfig(
            n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1, init={"kind": "random_band"}
        )
        st, _ = run_steps(cfg, 2)
        assert st.step_count == 2
        u = st.u
        assert u.coeffs.shape == st.b.coeffs.shape == (3, 11, 11, 6)
        assert np.array_equal(st.u.coeffs, u.coeffs)
        assert np.array_equal(u.coeffs, st.grid.ball.expand(st._balls()[0]))
        for f, ball in zip((u, st.b), st._balls()):
            assert not np.shares_memory(f.coeffs, ball)

    def test_stepped_state_keeps_no_half_cube(self):
        # a read of a stepped state's u expands its ball into a box, and a
        # record like the benchmark's diagnostics record (energy, magnetic
        # helicity and the shell L^2 and L^inf norms of u and b, each call
        # reading the state) builds no half cube either: at n = 32 the read peaks
        # below one (3, 32, 32, 17) half cube, and the record below one
        # half cube on top of the slab buffers that the shell sup norms
        # stream through (fields._BoxSup), 1.2 MB at n = 32 in any layout
        _, st = stepped_once("random_band")
        g = st.grid
        half_cube_bytes = 3 * 32 * 32 * 17 * 16
        sup = fields._BoxSup(g, 3, g.dealias_cut)
        slabs = sup._x.nbytes + sup._y.nbytes + sup._samples.nbytes
        part = build_partition(g)

        def record():
            shells = [(part.shell_l2_sq(f), part.shell_linf(f)) for f in (st.u, st.b)]
            return energy(st.u) + energy(st.b), magnetic_helicity(st.b), shells

        record()  # the first call fills the caches of the DFT matrices
        u, peak, kept = traced(lambda: st.u)
        assert u.coeffs.shape == (3, 21, 21, 11)
        assert kept >= u.coeffs.nbytes and peak < half_cube_bytes
        _, peak, kept = traced(record)
        assert peak < half_cube_bytes + slabs
        assert kept < half_cube_bytes / 100

    def test_workspace_reuse(self):
        # one stepper alternating between a Hall random_band state and a B0
        # whistler state equals a fresh stepper on each; the pair a kernel
        # call returns lives on the kernel's buffers until its next call
        # overwrites it, and no call writes its inputs
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
        balls = [st._balls() for st in states]
        inputs = [np.copy(pair) for pair in balls]
        fresh = [solver._Kernel(g)(*pair, True, gate=True) for pair in balls]
        first, maxima = kernel(*balls[0], True, gate=True)
        kept = first.copy()
        assert np.shares_memory(first, kernel._xs)
        # work between two calls leaves the pair alone: a step of another
        # stepper, rhs and dt_gate build their own buffers
        Stepper(g, cfg).step(states[1])
        derivs = rhs(states[1].u, states[1].b)
        derivs_kept = [f.coeffs.copy() for f in derivs]
        dt_gate(states[1].u, states[1].b, cfg)
        assert np.array_equal(first, kept)
        second, second_maxima = kernel(*balls[1], True, gate=True)
        assert np.shares_memory(first, second)
        for got, ref in zip([(kept, maxima), (second, second_maxima)], fresh):
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert not np.array_equal(first, kept)
        for pair, copy in zip(balls, inputs):
            assert np.array_equal(pair, copy)
        # rhs results are copies, which no later call writes
        later = rhs(states[0].u, states[0].b)
        for f, copy in zip(derivs, derivs_kept):
            assert np.array_equal(f.coeffs, copy)
            assert not any(np.shares_memory(f.coeffs, o.coeffs) for o in later)

    @pytest.mark.parametrize("planes", [1, 3])
    @pytest.mark.parametrize("hall", [False, True])
    def test_kernel_slabs_match_whole_transforms(self, monkeypatch, planes, hall):
        # the kernel streamed over slabs of one plane, and of three planes
        # with a shorter last slab, equals the same products formed with its
        # own passes over whole arrays, at n = 16, where the x and y passes
        # are dense products, and at n = 64, where they are FFTs (the z
        # passes are dense at both): bit for bit where the BLAS gives the
        # same bits for a row or column in a product of any height or width,
        # else to 1e-15 relative; the kernel takes and returns ball arrays,
        # which are checked on every ball mode against the whole-array
        # products on the box
        from hallmhd.fields import (
            _BoxSup,
            _cross,
            _curl,
            _dense_xy,
            _forward_x,
            _forward_y,
            _forward_z,
            _inverse_x,
            _inverse_y,
            _inverse_z,
            _xy_matrices,
            _z_matrices,
        )

        def inverse(box):
            xs = _inverse_x(box, np.empty((3, n, w, h), dtype=np.complex128))
            y = _inverse_y(xs, np.empty((3, n, n, h), dtype=np.complex128), scratch)
            return _inverse_z(y, np.empty((3, n, n, n)))

        def forward(samples):
            z = _forward_z(samples, np.empty((3, n, n, h), dtype=np.complex128))
            zy = _forward_y(z, np.empty((3, n, w, h), dtype=np.complex128), scratch)
            return _forward_x(zy, np.empty((3, w, w, h), dtype=np.complex128))

        def assert_close(got, expect):
            if exact:
                assert np.array_equal(got, expect), n
            err = np.abs(got - expect).max()
            assert err <= 1e-15 * np.abs(expect).max(), (n, err, np.abs(expect).max())

        for n in (16, 64):
            g = Grid(n)
            c = g.dealias_cut
            w, h = 2 * c + 1, c + 1
            scratch = np.empty((3, n, n, n))
            # whether this BLAS rounds the rows of each slab's z products,
            # and the columns of its dense y products, as it rounds them in
            # the products over the whole array; a slab's z rows are its x
            # planes of (comp, x, y) rows, or of (comp, y, x) rows where
            # the y pass is dense, and its y columns (x, kz) columns
            dense = _dense_xy(n, c)
            rng = np.random.default_rng(0)
            z_pairs = [
                (x, m, x @ m)
                for x, m in zip(
                    (rng.standard_normal((3 * n * n, r)) for r in (2 * h, n)),
                    _z_matrices(n, c),
                )
            ]
            y_pairs = [
                (x, m, m @ x)
                for x, m in zip(
                    (rng.standard_normal((r, n * h, 2)).view(np.complex128)[..., 0] for r in (w, n)),
                    _xy_matrices(n, c),
                )
            ]
            index = np.arange(3 * n * n).reshape(3, n, n)
            exact = True
            for i0 in range(0, n, planes):
                i1 = min(i0 + planes, n)
                rows = (index[:, :, i0:i1] if dense else index[:, i0:i1]).ravel()
                exact &= all(np.array_equal(x[rows] @ m, xm[rows]) for x, m, xm in z_pairs)
                cols = slice(i0 * h, i1 * h)
                exact &= not dense or all(
                    np.array_equal(m @ np.ascontiguousarray(x[:, cols]), mx[:, cols])
                    for x, m, mx in y_pairs
                )
            per_plane = 8 * 16 * n * n + 16 * 3 * n * h
            monkeypatch.setattr(fields, "SLAB_BYTES", planes * per_plane)
            kernel = solver._Kernel(g)
            assert kernel._slab == planes
            u, b = make_initial({"kind": "random_band"}, g, 7)
            uh, bh = solver._dealiased_ball(u, "u"), solver._dealiased_ball(b, "b")
            inputs = uh.copy(), bh.copy()
            (du, db), maxima = kernel(uh, bh, hall, gate=True)
            assert np.array_equal(uh, inputs[0]) and np.array_equal(bh, inputs[1])

            ball = g.ball
            kvec = fields._box_axes(c)
            ub, bb = ball.expand(uh), ball.expand(bh)
            up, wp = (inverse(x) for x in (ub, _curl(kvec, ub)))
            bp, jp = (inverse(x) for x in (bb, _curl(kvec, bb)))
            f = _cross(up, wp)
            f += _cross(jp, bp)
            fu = ball.gather(forward(f))
            fb = ball.gather(forward(_cross(up - jp if hall else up, bp)))
            assert du.shape == db.shape == (3, ball.size)
            assert_close(du, _leray(ball.kvec, ball.inv_k_sq, fu))
            assert_close(db, _curl(ball.kvec, fb))
            for got, p in zip(maxima, (up, bp)):
                assert_close(got, np.sqrt(np.sum(p * p, axis=0)).max())
            # dt_gate reads the same samples: _BoxSup streams a box through
            # the same passes on slabs of the same height
            sup = _BoxSup(g, 3, g.dealias_cut)
            assert sup.planes == planes
            assert maxima[0] == sup(ub)
            assert maxima[1] == sup(bb)

    def test_steady_step_allocates_few_boxes(self):
        # after the first step has allocated the kernel's buffers, a Hall
        # step at n = 32 peaks at most 3 box-sized arrays above live memory
        # (2.49 measured), 1.85 of them the two stage pairs of ball arrays,
        # each ball 46% of its box
        assert steady_step_boxes("random_band") <= 3

    def test_steady_mean_field_step_allocates_few_boxes(self):
        # the factor of a mean field B0 forms its curls one component at a
        # time, so it peaks no higher than the kernel (2.33 measured)
        assert steady_step_boxes("uniform_b_plus_whistler") <= 3

    def test_first_step_drops_the_fields(self):
        # a state built from fields keeps only their ball arrays once a step
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
        for a in first._balls():
            for b in second._balls():
                assert not np.shares_memory(a, b)

    def test_resume_from_own_fields_is_bit_identical(self):
        # the diagnostics workload of the benchmark at seed 7509 (n = 32,
        # Hall off, nu = mu = 0.01, dt half the gate): a state rebuilt from
        # a stepped state's own u and b steps as the stepped state does.
        # That needs C-contiguous ball arrays: the first step sums the
        # dissipation over them, and over another layout in another order
        cfg = RunConfig(
            n=32, dt=1e-2, t_end=1.0, nu=0.01, mu=0.01, hall_on=False,
            init={"kind": "random_band"},
        )
        g = Grid(32)
        u, b = make_initial(cfg.init, g, 7509)
        cfg = RunConfig(
            n=32, dt=0.5 * dt_gate(u, b, cfg), t_end=1.0, nu=0.01, mu=0.01,
            hall_on=False,
        )
        stepper = Stepper(g, cfg)
        st = SolverState(0.0, u, b)
        for _ in range(5):
            st = stepper.step(st)
        rebuilt = SolverState(st.t, st.u, st.b, st.step_count, st.diss_integral)
        assert all(ball.flags.c_contiguous for ball in rebuilt._balls())
        straight, resumed = stepper.step(st), stepper.step(rebuilt)
        assert np.array_equal(straight.u.coeffs, resumed.u.coeffs)
        assert np.array_equal(straight.b.coeffs, resumed.b.coeffs)
        assert straight.diss_integral == resumed.diss_integral

    @pytest.mark.parametrize("n", [10, 16])
    def test_products_use_the_dealiased_part(self, n):
        # solenoidal white noise reaches every mode; what lies beyond the cut
        # takes no part in a product, and a step leaves nothing there
        g = Grid(n)
        rng = np.random.default_rng(n)
        u = scaled(leray_project(random_field(g, rng)), 0.5)
        b = scaled(leray_project(random_field(g, rng)), 0.5)
        ud, bd = dealias(u), dealias(b)
        assert np.abs(half_cube(u) - half_cube(ud)).max() > 0.1 * np.abs(u.coeffs).max()
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
        assert np.all(half_cube(st.u)[:, beyond] == 0.0)
        assert np.all(half_cube(st.b)[:, beyond] == 0.0)


# steps a Hall random_band state of size n three times and prints a SHA-256
# of u, b, the dissipation integral and the record of the stepped state:
# dt_gate, the shell norms of u and b and the magnetic helicity of b
DIGEST_SCRIPT = """
import hashlib, sys
from hallmhd.config import RunConfig
from hallmhd.fields import Grid
from hallmhd.littlewood_paley import build_partition
from hallmhd.solver import SolverState, Stepper, dt_gate, magnetic_helicity, make_initial
n = int(sys.argv[1])
grid = Grid(n)
u, b = make_initial({"kind": "random_band"}, grid, 3)
cfg = RunConfig(n=n, dt=1e-3, t_end=1.0, nu=0.01, mu=0.01, hall_on=True)
cfg.dt = min(cfg.dt, 0.5 * dt_gate(u, b, cfg))
st = SolverState(0.0, u, b)
stepper = Stepper(grid, cfg)
for _ in range(3):
    st = stepper.step(st)
u, b = st.u, st.b
h = hashlib.sha256(u.coeffs.tobytes())
h.update(b.coeffs.tobytes())
h.update(repr((st.diss_integral, dt_gate(u, b, cfg), magnetic_helicity(b))).encode())
part = build_partition(grid)
for f in (u, b):
    h.update(part.shell_l2_sq(f).tobytes())
    h.update(part.shell_linf(f).tobytes())
print(h.hexdigest())
"""


class TestDeterminism:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_steps_do_not_depend_on_blas_threads(self, n):
        # the kernel's z passes, and its x and y passes at n <= 56, are BLAS
        # products, as are the passes of the shell sup norms; a run, its
        # resume and its record must give the same bits whether the BLAS may
        # run them on one thread or on two, between which it may split a
        # product
        src = str(Path(solver.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", DIGEST_SCRIPT, str(n)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestExactDecays:
    def test_beltrami_velocity_decay(self):
        nu = 0.1
        cfg = RunConfig(
            n=16, dt=1e-2, t_end=1.0, nu=nu, mu=nu, init={"kind": "beltrami_u"}
        )
        st, (u0, _) = run_steps(cfg, 100)
        expect = np.exp(-nu * 1.0)
        err = l2_distance(st.u, scaled(u0, expect)) / (expect * l2_norm_spectral(u0))
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
        err = l2_distance(st.b, scaled(b0, expect)) / (expect * l2_norm_spectral(b0))
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
        u, b = (scaled(dealias(leray_project(random_field(g, rng))), 0.5) for _ in "ub")
        mean = np.array([0.3, -0.2, 1.1])
        bm = b.copy()
        bm.coeffs[:, 0, 0, 0] = mean
        k = np.stack(np.broadcast_arrays(*fields._box_axes(g.dealias_cut)))
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
        # every ball mode at n = 8, among them k = 0 (identity), the kappa = 0
        # modes (with nu = mu the degenerate branch) and, for B0 || z_hat,
        # the whole kz = 0 disc of the ball
        g = Grid(8)
        c, ball = g.dealias_cut, g.ball
        rng = np.random.default_rng(11)
        b0 = rng.standard_normal(3) if direction == "random" else np.array([0, 0, 1.0])
        b0 *= 1.3 / np.linalg.norm(b0)
        cfg = RunConfig(n=8, dt=0.2, t_end=1.0, nu=nu, mu=mu, hall_on=hall)
        t = cfg.dt / 2
        re, im = rng.standard_normal((2, 2, 3, ball.size))
        u, b = (_leray(ball.kvec, ball.inv_k_sq, x) for x in re + 1j * im)
        eu, eb = solver._pair(g)
        solver._MeanField(g, cfg, b0, t)(u, b, out=(eu, eb))
        ks = np.stack(ball.kvec, axis=-1)
        degenerate = 0
        for i, k in enumerate(ks):
            x = np.concatenate([u[:, i], b[:, i]])
            got = np.concatenate([eu[:, i], eb[:, i]])
            expect = linear_operator_exp(k, b0, nu, mu, hall, t) @ x
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(x).max()
            if not k.any():
                assert np.array_equal(got, x)
            degenerate += abs(k @ b0) < 1e-12
        if direction == "z":
            disc = sum(kx * kx + ky * ky <= c * c for kx in range(-c, c + 1) for ky in range(-c, c + 1))
            assert degenerate == disc

    @pytest.mark.parametrize("hall", [False, True])
    @pytest.mark.parametrize(
        "mean", [(1.3, 0, 0), (0, 1.3, 0), (0, 0, 1.3), (0.7, -0.4, 1.1)]
    )
    def test_factors_leave_k0_unchanged(self, hall, mean):
        # a step recomputes E (u0, b0 - B0) from the state's boxes as
        # E (u0, b0) - B0, which holds bit for bit only because both factors
        # leave every k = 0 coefficient as it is
        g = Grid(8)
        rng = np.random.default_rng(7)
        cfg = RunConfig(n=8, dt=0.2, t_end=1.0, nu=0.05, mu=0.02, hall_on=hall)
        stepper = Stepper(g, cfg)
        mean = np.array(mean, dtype=float)
        ball = g.ball
        re, im = rng.standard_normal((2, 2, 3, ball.size))
        u, b = (_leray(ball.kvec, ball.inv_k_sq, x) for x in re + 1j * im)
        # k = 0 is mode 0 of the ball
        b[:, 0] += mean
        fluct = b.copy()
        fluct[:, 0] -= mean
        factors = (solver._Diagonal(stepper.eu_half, stepper.eb_half), stepper._factor(mean))
        assert isinstance(factors[1], solver._MeanField)
        for factor in factors:
            e, e_fluct = solver._pair(g), solver._pair(g)
            factor(u, b, out=e)
            factor(u, fluct, out=e_fluct)
            assert e[:, :, 0].tobytes() == np.stack([u, b])[:, :, 0].tobytes()
            assert e_fluct[1, :, 0].tobytes() == fluct[:, 0].tobytes()
            e[1][:, 0] -= mean
            assert e.tobytes() == e_fluct.tobytes()

    def test_equal_diffusivities_share_one_factor(self):
        g = Grid(8)
        same = Stepper(g, RunConfig(n=8, dt=0.1, t_end=1.0, nu=0.05, mu=0.05))
        assert same.eb_half is same.eu_half
        other = Stepper(g, RunConfig(n=8, dt=0.1, t_end=1.0, nu=0.05, mu=0.02))
        assert not np.array_equal(other.eb_half, other.eu_half)

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
            return l2_distance(st.u, ref.u) + l2_distance(st.b, ref.b)

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
                l2_distance(st.u, ref.u) + l2_distance(st.b, ref.b)
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
        # bit, also for a state with content beyond the cut; at n = 16 the
        # kernel's x and y passes are dense products, at n = 64 FFTs
        for n in (16, 64):
            cfg = RunConfig(n=n, dt=10.0, t_end=10.0, nu=0.1, mu=0.1)
            grid = Grid(n)
            if kind == "full_band":
                # Leray-projected white noise reaches every mode
                rng = np.random.default_rng(3)
                u0, b0 = (leray_project(random_field(grid, rng)) for _ in "ub")
            else:
                u0, b0 = make_initial({"kind": kind}, grid, 3)
            with pytest.raises(DtGateError) as excinfo:
                Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
            assert excinfo.value.gate == dt_gate(u0, b0, cfg), n

    def test_gate_violation_raises(self):
        cfg = RunConfig(
            n=16, dt=0.5, t_end=1.0, nu=0.1, mu=0.1,
            init={"kind": "beltrami_u", "amplitude": 2.0},
        )
        with pytest.raises(DtGateError):
            run_steps(cfg, 1)

    def test_blow_up_detected_carries_last_finite_state(self):
        # gate constants so large that the gate never binds
        cfg = RunConfig(
            n=16, dt=0.2, t_end=10.0, nu=1e-4, mu=1e-4,
            init={"kind": "random_band", "q_lo": 1, "q_hi": 3, "amplitude": 5.0},
            seed=1, cfl_adv=1e300, cfl_whistler=1e300,
        )
        with pytest.raises(BlowUpDetected) as excinfo:
            run_steps(cfg, 50, seed=1)
        last = excinfo.value.last_state
        assert np.all(np.isfinite(last.u.coeffs.view(np.float64)))
        assert np.all(np.isfinite(last.b.coeffs.view(np.float64)))

    def test_solenoidal_drift_named(self, monkeypatch):
        # no step reaches a drift of 1e-10; below a tolerance of -1 every
        # step raises, naming the drift and t
        monkeypatch.setattr(solver, "SOLENOIDAL_DRIFT_TOL", -1.0)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        with pytest.raises(solver.SolenoidalDriftError, match=r"drift \S+ exceeds -1.0 at t=0"):
            run_steps(cfg, 1)

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

    @pytest.mark.parametrize(
        "key, cfg, grid",
        [
            ("cfl_adv", RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1,
                                  cfl_adv=-1.0, cfl_whistler=-1.0), Grid(16)),
            ("n", RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1), Grid(32)),
            ("dealias_cut", RunConfig(n=32, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1),
             Grid(32, 8)),
        ],
        ids=["negative_cfl", "other_n", "other_cut"],
    )
    def test_dt_gate_refuses_what_stepper_refuses(self, key, cfg, grid):
        # an invalid config, or one of another grid, gives no gate: with
        # negative CFL constants it would be a negative dt
        u, b = make_initial({"kind": "random_band"}, grid, 0)
        for call in (lambda: Stepper(grid, cfg), lambda: dt_gate(u, b, cfg)):
            with pytest.raises(ConfigError, match=f"key '{key}'"):
                call()

    def test_state_fields_on_two_grids_rejected(self):
        # when the state is built, before any step
        u, b = zero_field(Grid(16)), zero_field(Grid(32))
        with pytest.raises(DimensionError, match="n=16.*n=32"):
            SolverState(0.0, u, b)

    @pytest.mark.parametrize(
        "call, name, ncomp",
        [
            ("state", "u", 1),
            ("state", "b", 9),
            ("rhs", "u", 1),
            ("rhs", "b", 1),
            ("dt_gate", "u", 1),
            ("dt_gate", "b", 1),
            ("magnetic_helicity", "b", 9),
        ],
    )
    def test_fields_that_are_not_vectors_rejected(self, call, name, ncomp):
        # a named error, not an IndexError or a failed unpacking inside a pass
        g = Grid(16)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        pair = {"u": zero_field(g), "b": zero_field(g), name: zero_field(g, ncomp)}
        u, b = pair["u"], pair["b"]
        calls = {
            "state": lambda: Stepper(g, cfg).step(SolverState(0.0, u, b)),
            "rhs": lambda: rhs(u, b),
            "dt_gate": lambda: dt_gate(u, b, cfg),
            "magnetic_helicity": lambda: magnetic_helicity(b),
        }
        with pytest.raises(DimensionError, match=f"{name} has ncomp={ncomp}"):
            calls[call]()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["u", "b"])
    def test_non_finite_coefficients_rejected(self, name, value):
        # a nan maximum is not read as a zero field by the gate, and rhs and
        # the first step do not run on it
        g = Grid(16)
        cfg = RunConfig(n=16, dt=1e-3, t_end=1.0, nu=0.1, mu=0.1)
        pair = dict(zip("ub", make_initial({"kind": "random_band"}, g, 0)))
        pair[name].coeffs[0, 1, 2, 3] = value
        u, b = pair["u"], pair["b"]
        calls = (
            lambda: dt_gate(u, b, cfg),
            lambda: rhs(u, b),
            lambda: Stepper(g, cfg).step(SolverState(0.0, u, b)),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"{name} has a nan or inf"):
                call()

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
        assert lp_norm(SpectralField(g, curl(u).coeffs - u.coeffs), np.inf) <= 1e-12
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

    def test_random_band_past_the_cut(self):
        # the cut caps the band: q_hi = 1100, at which 2.0 ** q_hi overflows,
        # gives the fields of q_hi = 3, the first shell past the n = 16 cut 5
        g = Grid(16)
        wide, band = (make_initial({"kind": "random_band", "q_hi": q}, g, 2) for q in (1100, 3))
        for got, expect in zip(wide, band):
            assert np.array_equal(got.coeffs, expect.coeffs)

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
                sampled = half_cube(from_physical(samples, g))
                assert np.abs(half_cube(field) - sampled).max() <= 1e-15

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
        # the zero u is the dealias box, so every kz = k <= dealias_cut is
        # indexable as [:, 0, 0, k], as the benchmark reads the whistler
        assert u.coeffs.shape == b.coeffs.shape == (3, 11, 11, 6)
        assert not u.coeffs[:, 0, 0, g.dealias_cut].any()
        assert b.coeffs[0, 0, 0, 2] == pytest.approx(5e-4)

    def test_whistler_beyond_the_cut_rejected(self):
        g = Grid(16)
        with pytest.raises(ValueError, match="beyond dealias_cut=5"):
            make_initial(
                {"kind": "uniform_b_plus_whistler", "b0": 1.0, "eps": 1e-3, "k": 6}, g
            )

    def test_from_checkpoint_round_trip(self, tmp_path):
        # a file of full-band fields, as for analysis
        from hallmhd.checkpoint import write_checkpoint

        g = Grid(8)
        rng = np.random.default_rng(6)
        u = leray_project(random_field(g, rng))
        b = leray_project(random_field(g, rng))
        path = tmp_path / "v2.hmhd"
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

    @pytest.mark.parametrize(
        "name, cause",
        [
            ("missing.hmhd", FileNotFoundError), (".", IsADirectoryError),
            ("truncated.hmhd", CheckpointError), ("flipped.hmhd", CheckpointError),
        ],
    )
    def test_from_checkpoint_unreadable_path_named(self, tmp_path, name, cause):
        # a file the codec refuses names the key and the path, with the
        # codec's error as the cause: cut to 7 bytes, or one payload bit flipped
        from hallmhd.checkpoint import write_checkpoint

        path = tmp_path / name
        if cause is CheckpointError:
            write_checkpoint(path, 0.5, 0.1, 0.1, zero_field(Grid(8)), zero_field(Grid(8)))
            data = bytearray(path.read_bytes())
            if name == "truncated.hmhd":
                del data[7:]
            else:
                data[-1] ^= 1
            path.write_bytes(data)
        with pytest.raises(ConfigError, match="key 'init.path'") as info:
            make_initial({"kind": "from_checkpoint", "path": str(path)}, Grid(8))
        assert isinstance(info.value.__cause__, cause)
        if cause is CheckpointError:
            assert f"key 'init.path': {path}: checkpoint parse: " in str(info.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="key 'init.amplitud'"):
            make_initial({"kind": "random_band", "amplitud": 2.0}, Grid(8))

    @pytest.mark.parametrize("spec", ["random_band", None, ["random_band"]])
    def test_spec_that_is_not_a_dict_rejected(self, spec):
        with pytest.raises(ConfigError, match="key 'init': must be an object"):
            make_initial(spec, Grid(8))

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
    ("ideal", True),  # with nu = mu = 0.1
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

    @pytest.mark.parametrize("data", [[1, 2], "abc", None, 3])
    def test_config_that_is_not_a_dict_rejected(self, data, tmp_path):
        # from_dict and from_json share the check
        import json

        with pytest.raises(ConfigError, match="config must be a JSON object"):
            RunConfig.from_dict(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            RunConfig.from_json(path)

    def test_unreadable_config_named(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config: .*No such file"):
            RunConfig.from_json(tmp_path / "missing.json")
        path = tmp_path / "cfg.json"
        path.write_text('{"n": 16,')
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            RunConfig.from_json(path)

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
