"""Spectral field core: transforms, calculus, Leray projection, norms."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmhd import fields, oracles
from hallmhd.fields import (
    DimensionError,
    Grid,
    SpectralField,
    _box_axes,
    _box_shape,
    _BoxSup,
    _dense_xy,
    _forward_pass,
    _forward_x,
    _forward_y,
    _forward_z,
    _inverse_pass,
    _inverse_x,
    _inverse_y,
    _inverse_z,
    _parseval,
    _regrid,
    _xy_matrices,
    _z_matrices,
    curl,
    divergence_error,
    from_physical,
    inner_product,
    l2_norm_spectral,
    leray_project,
    lp_norm,
    random_field,
    to_physical,
    vector_potential,
    zero_field,
)
from hallmhd.oracles import (
    dealias,
    divergence,
    full_cube,
    gradient,
    half_cube,
    hermitian_error,
    mesh,
)

VOLUME = (2 * np.pi) ** 3


def white_noise(grid, seed):
    """Coefficients of real white noise: Hermitian, its n/2 planes dropped."""
    rng = np.random.default_rng(seed)
    return from_physical(rng.standard_normal((3,) + (grid.n,) * 3), grid)


def abc_field(grid, amplitude=1.0):
    """u = (sin z + cos y, sin x + cos z, sin y + cos x): curl u = u."""
    x, y, z = mesh(grid)
    u = amplitude * np.stack(
        [np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)]
    )
    return from_physical(u, grid)


class TestGrid:
    def test_defaults(self):
        g = Grid(16)
        assert g.dealias_cut == 5
        # the half cube holds the corner |k| = sqrt(3) n/2
        k_mag = oracles.k_mag(g)
        assert k_mag.shape == (16, 16, 9)
        assert k_mag.max() == pytest.approx(np.sqrt(3) * 16 / 2)

    def test_wavenumber_layout(self):
        # a box's x and y axes, and the half cube's, in FFT order
        assert list(_box_axes(3)[0].ravel()) == [0, 1, 2, 3, -3, -2, -1]
        assert list(oracles.wavevectors(Grid(8))[0].ravel()) == [0, 1, 2, 3, -4, -3, -2, -1]

    def test_wavenumbers_are_integers(self):
        # fftfreq(n, 1/n) is off by ulps for 35 even n <= 1024 (at n = 98,
        # 1.0000000000000002 for 1); the largest box of every grid, and the
        # half cube of the oracles, hold the integers exactly
        for n in range(8, 1025, 2):
            k = np.minimum(np.arange(n), n - np.arange(n))
            k[n // 2 :] *= -1
            assert np.array_equal(oracles.wavevectors(Grid(n))[0].ravel(), k), n
            assert np.array_equal(_box_axes(n // 2 - 1)[0].ravel(), np.delete(k, n // 2)), n

    def test_validation(self):
        with pytest.raises(DimensionError):
            Grid(7)
        with pytest.raises(DimensionError):
            Grid(4)
        with pytest.raises(DimensionError):
            Grid(16, dealias_cut=9)
        # 3*cut = n aliases quadratic products; the message names the largest cut
        with pytest.raises(DimensionError, match=r"outside \[1, 7\]"):
            Grid(24, dealias_cut=8)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((32, 8.5), "dealias_cut"),
            ((32, 8.0), "dealias_cut"),
            ((32, True), "dealias_cut"),
            ((32, "8"), "dealias_cut"),
            ((32.0,), "n"),
            ((True,), "n"),
        ],
    )
    def test_sizes_must_be_integers(self, args, name):
        # a float or a string fails inside Grid.ball, and a bool passes as 0 or 1
        msg = f"grid {name} must be an integer, got {re.escape(repr(args[-1]))}"
        with pytest.raises(DimensionError, match=msg):
            Grid(*args)

    def test_numpy_integer_sizes_accepted(self):
        # stored as ints, so that the int methods the init checks read, such
        # as bit_length, work on them
        from hallmhd.solver import make_initial

        g = Grid(np.int64(32), np.int64(8))
        assert g == Grid(32, 8)
        assert type(g.n) is int and type(g.dealias_cut) is int
        assert g.ball.shape == (17, 17, 9)
        got, expect = (make_initial({"kind": "random_band"}, h, 1) for h in (g, Grid(32, 8)))
        assert np.array_equal(got[0].coeffs, expect[0].coeffs)

    @pytest.mark.parametrize("n", [24, 48])
    def test_default_cut_keeps_squares_unaliased(self, n):
        # cos^2(cut x) = 1/2 + cos(2 cut x)/2; were 3*cut = n, the 2*cut mode
        # would fold onto the retained mode -cut with weight 1/4
        g = Grid(n)
        x, _, _ = mesh(g)
        sq = dealias(from_physical(np.cos(g.dealias_cut * x) ** 2, g)).coeffs[0]
        assert abs(sq[0, 0, 0] - 0.5) <= 1e-14
        sq[0, 0, 0] = 0.0
        assert np.abs(sq).max() <= 1e-14


class TestTransforms:
    def test_zero_round_trip(self):
        g = Grid(8)
        f = zero_field(g)
        assert np.all(to_physical(f) == 0.0)
        back = from_physical(to_physical(f), g)
        assert np.all(back.coeffs == 0.0)

    def test_single_mode_is_cosine(self):
        # coeff(k=(1,0,0)) = 1/2 on x-component plus Hermitian partner, both
        # on the kz = 0 plane
        g = Grid(16)
        c = np.zeros((3, 16, 16, 9), dtype=np.complex128)
        c[0, 1, 0, 0] = 0.5
        c[0, -1, 0, 0] = 0.5
        f = SpectralField(g, c)
        x, _, _ = mesh(g)
        assert np.abs(to_physical(f)[0] - np.cos(x)).max() < 1e-13

    def test_round_trip_matches_direct_dft(self):
        g = Grid(8)
        rng = np.random.default_rng(11)
        f = random_field(g, rng)
        phys = to_physical(f)
        direct = oracles.dft_direct(phys)[..., : g.n // 2 + 1]
        fast = half_cube(from_physical(phys, g))
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() / scale < 1e-12
        # inverse path against direct summation
        phys_direct = oracles.idft_direct(half_cube(f))
        assert np.abs(phys - phys_direct).max() / np.abs(phys).max() < 1e-12

    def test_round_trip_identity(self):
        g = Grid(16)
        rng = np.random.default_rng(3)
        f = random_field(g, rng)
        back = from_physical(to_physical(f), g)
        rel = np.abs(back.coeffs - f.coeffs).max() / np.abs(f.coeffs).max()
        assert rel < 1e-12

    def test_size_mismatch(self):
        g = Grid(8)
        with pytest.raises(DimensionError):
            from_physical(np.zeros((3, 16, 16, 16)), g)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda g: SpectralField(g, np.zeros((3, 5, 5, 4))),
             r"coeffs shape \(3, 5, 5, 4\) incompatible with n=8"),
            (lambda g: inner_product(zero_field(g), zero_field(Grid(10))),
             r"field mismatch: \(8,3\) vs \(10,3\)"),
            (lambda g: inner_product(zero_field(g), zero_field(g, 1)),
             r"field mismatch: \(8,3\) vs \(8,1\)"),
            (lambda g: curl(zero_field(g, 1)), "curl needs a 3-component field"),
            (lambda g: leray_project(zero_field(g, 1)),
             "leray_project needs a 3-component field"),
            (lambda g: random_field(g, np.random.default_rng(0), ncomp=1, solenoidal=True),
             "a solenoidal random field needs 3 components"),
        ],
        ids=["box_shape", "inner_n", "inner_ncomp", "curl", "leray", "random_solenoidal"],
    )
    def test_shape_and_components_named(self, call, match):
        # a shape that is neither a box nor the half cube, fields of another
        # n or component count, and a 1-component field where 3 are needed
        with pytest.raises(DimensionError, match=match):
            call(Grid(8))

    def test_nyquist_content_is_refused_and_dropped(self):
        # no field holds content on an n/2 plane: the constructor drops the
        # n/2 planes of a half cube, here the kx, ky and kz = 4 planes at
        # n = 8, so that no box holds them, and so does from_physical with
        # its transform, here all of cos(4x) + cos(4y) + cos(4z), and keeps
        # the rest.  A checkpoint's boxes cannot reach n/2 either
        # (test_bad_header_field_named[u_cut_half])
        g = Grid(8)
        for index in (np.s_[:, 4, 1, 0], np.s_[:, 1, 4, 0], np.s_[:, 1, 1, 4]):
            c = np.zeros((3, 8, 8, 5), dtype=np.complex128)
            c[index] = 1.0
            c[:, 1, 1, 1] = 2.0
            f = SpectralField(g, c)
            c[index] = 0.0
            assert np.array_equal(half_cube(f), c)
        x, y, z = mesh(g)
        oddball = from_physical(np.cos(4 * x) + np.cos(4 * y) + np.cos(4 * z), g)
        assert not oddball.coeffs.any()
        samples = np.random.default_rng(2).standard_normal((3, 8, 8, 8))
        half = np.fft.rfftn(samples, axes=(1, 2, 3), norm="forward")
        keep = np.ones(half.shape[1:], dtype=bool)
        keep[4], keep[:, 4], keep[..., 4] = False, False, False
        f = half_cube(from_physical(samples, g))
        assert np.array_equal(f[:, keep], half[:, keep])
        assert not f[:, ~keep].any() and half[:, ~keep].all()

    def test_samples_of_white_noise(self):
        # white noise without its n/2 planes; the real part of the complex
        # inverse transform of the full cube is the reference
        g = Grid(8)
        rng = np.random.default_rng(17)
        f = from_physical(rng.standard_normal((3, 8, 8, 8)), g)
        expect = np.fft.ifftn(full_cube(half_cube(f)), axes=(-3, -2, -1)).real * g.n**3
        got = to_physical(f)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("n", [8, 10, 16, 24])
    def test_pruned_pair_matches_full_real_transforms(self, monkeypatch, n):
        # the box |kx|, |ky|, kz <= cut: the sup of its pruned inverse,
        # streamed slab by slab with dense z products (_BoxSup), against the
        # sup of irfftn of the half cube holding it, for 1, 3 and 9
        # components and slabs of 1, 3 and n planes (the pair's passes are
        # checked in test_dense_z_passes_match_full_real_transforms)
        g = Grid(n)
        c = g.dealias_cut
        per_plane = 8 * 16 * n * n + 16 * 3 * n * (c + 1)
        rng = np.random.default_rng(n)
        for ncomp in (1, 3, 9):
            samples = rng.standard_normal((ncomp, n, n, n))
            box = _regrid(from_physical(samples, g).coeffs, _box_shape(c))
            assert box.shape == (ncomp, 2 * c + 1, 2 * c + 1, c + 1)
            half = _regrid(box, (n, n, n // 2 + 1))
            expect = np.fft.irfftn(half, s=(n,) * 3, axes=(1, 2, 3), norm="forward")
            expect = np.sqrt(np.sum(expect * expect, axis=0)).max()
            for planes in (1, 3, n):
                monkeypatch.setattr(fields, "SLAB_BYTES", planes * per_plane)
                sup = _BoxSup(g, ncomp, c)
                assert sup.planes == planes
                assert abs(sup(box) - expect) <= 1e-15 * expect

    @pytest.mark.parametrize("n", [8, 10, 16, 24, 32, 64])
    def test_dense_z_passes_match_full_real_transforms(self, n):
        # the solver kernel's pruned pair, its z passes dense real matrix
        # products: the inverse against irfftn of the half cube holding the
        # box, the forward against the truncated rfftn, as for the FFT passes
        g = Grid(n)
        c = g.dealias_cut
        w, h = 2 * c + 1, c + 1
        rng = np.random.default_rng(n)
        samples = rng.standard_normal((3, n, n, n))
        box = _regrid(from_physical(samples, g).coeffs, _box_shape(c))
        half = _regrid(box, (n, n, n // 2 + 1))
        expect = np.fft.irfftn(half, s=(n,) * 3, axes=(1, 2, 3), norm="forward")
        y = np.empty((3, n, n, h), dtype=np.complex128)
        xs = _inverse_pass(box, np.empty((3, n, w, h), dtype=np.complex128), -3)
        got = _inverse_z(_inverse_pass(xs, y, -2), np.empty((3, n, n, n)))
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()
        expect = _regrid(np.fft.rfftn(samples, axes=(1, 2, 3), norm="forward"), _box_shape(c))
        zy = np.empty((3, n, w, h), dtype=np.complex128)
        _forward_pass(_forward_z(samples, y), zy, -2)
        got = _forward_pass(zy, np.empty_like(box), -3)
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()

    @pytest.mark.parametrize("n, c", [(16, 5), (32, 10), (56, 18), (64, 15), (64, 21)])
    def test_x_and_y_passes_match_ffts(self, n, c):
        # the x and y passes, dense matrix products where _dense_xy(n, c)
        # holds (all but (64, 21)), against ifft of the box rows zero-padded
        # at the index rows and the box rows of fft, to 1e-15 relative, for
        # 1, 3 and 9 components and y slabs of 1, 3 and n planes, each a
        # slice of an x buffer as a kernel's slab is
        rows = np.r_[0 : c + 1, n - c : n]
        w, h = 2 * c + 1, c + 1
        dense = _dense_xy(n, c)
        rng = np.random.default_rng(n + c)

        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def padded(box, axis):
            shape = list(box.shape)
            shape[axis] = n
            out = np.zeros(shape, dtype=np.complex128)
            np.moveaxis(out, axis, 0)[rows] = np.moveaxis(box, axis, 0)
            return out

        def assert_close(got, expect):
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()

        for k in (1, 3, 9):
            box = rand(k, w, w, h)
            expect = np.fft.ifft(padded(box, -3), axis=-3, norm="forward")
            assert_close(_inverse_x(box, np.empty((k, n, w, h), dtype=np.complex128)), expect)
            a = rand(k, n, w, h)
            expect = np.take(np.fft.fft(a, axis=-3, norm="forward"), rows, axis=-3)
            assert_close(_forward_x(a.copy(), np.empty((k, w, w, h), dtype=np.complex128)), expect)
            xs = rand(k, n, w, h)
            for s in (1, 3, n):
                i0 = 1 if s < n else 0
                x = xs[:, i0 : i0 + s]
                scratch = np.full((k, s, n, n), np.nan)
                y = _inverse_y(x, np.empty((k, s, n, h), dtype=np.complex128), scratch)
                # the dense pass gives (comp, y, x, kz), the FFT pass (comp, x, y, kz)
                got = y.swapaxes(-3, -2) if dense else y
                assert_close(got, np.fft.ifft(padded(x, -2), axis=-2, norm="forward"))
                a = rand(k, s, n, h)
                expect = np.take(np.fft.fft(a, axis=-2, norm="forward"), rows, axis=-2)
                ordered = np.ascontiguousarray(a.swapaxes(-3, -2) if dense else a)
                out = np.empty((k, n, w, h), dtype=np.complex128)[:, i0 : i0 + s]
                got = _forward_y(ordered.reshape(k, s, n, h), out, scratch)
                assert_close(got, expect)

    def test_dense_xy_rule(self):
        # the rule sends the benchmark's n = 32 workloads (whistler32,
        # diag32_mhd: cut 10) to the dense x and y passes and its n = 64
        # workload (turb64_hall: cut 21) to the FFT passes
        assert _dense_xy(32, 10)
        assert not _dense_xy(64, 21)

    def test_dense_z_passes_refuse_strided_arrays(self):
        # a reshape of a strided slice is a copy: a product written to it
        # would be lost, so the passes raise instead
        n, h = 16, 6
        y = np.zeros((3, 4, n, h), dtype=np.complex128)
        with pytest.raises(ValueError, match="C-contiguous"):
            _inverse_z(y, np.empty((3, 8, n, n))[:, :4])
        with pytest.raises(ValueError, match="C-contiguous"):
            _forward_z(np.zeros((3, 8, n, n))[:, :4], y)

    def test_z_matrices_are_cached_and_read_only(self):
        inv, fwd = _z_matrices(32, 10)
        assert _z_matrices(32, 10)[0] is inv
        assert inv.shape == (22, 32) and fwd.shape == (32, 22)
        with pytest.raises(ValueError):
            inv[0, 0] = 0.0
        with pytest.raises(ValueError):
            fwd[0, 0] = 0.0
        inv, fwd = _xy_matrices(32, 10)
        assert _xy_matrices(32, 10)[0] is inv
        assert inv.shape == (32, 21) and fwd.shape == (21, 32)
        with pytest.raises(ValueError):
            inv[0, 0] = 0.0
        with pytest.raises(ValueError):
            fwd[0, 0] = 0.0


def layout_cases():
    """(n, cut) of every box cut the package makes: 0 (random_field with
    k_hi < 1), 1, the dealias cut and n/2 - 1 (random_field's default)."""
    for n in (8, 10, 16, 32):
        for c in sorted({0, 1, Grid(n).dealias_cut, n // 2 - 1}):
            yield n, c


class TestBoxLayout:
    # the block map fields._halves against the box's x and y rows written
    # as an index array, rows np.r_[0:c + 1, n - c:n] of an axis of n

    @pytest.mark.parametrize("n, c", list(layout_cases()))
    def test_box_copies_match_the_index_rows(self, n, c):
        # _regrid between a half cube, the box of c and the largest box, of
        # cut n/2 - 1, which holds the half cube but its n/2 planes
        rows = np.r_[0 : c + 1, n - c : n]
        rng = np.random.default_rng(n + c)
        half = rng.standard_normal((2, n, n, n // 2 + 1, 2)).view(np.complex128)[..., 0]
        box = _regrid(half, _box_shape(c))
        assert box.flags.c_contiguous
        assert np.array_equal(box, half[:, rows[:, None], rows, : c + 1])
        expect = np.zeros_like(half)
        expect[:, rows[:, None], rows, : c + 1] = box
        assert np.array_equal(_regrid(box, half.shape[1:]), expect)
        assert np.array_equal(_regrid(_regrid(box, half.shape[1:]), _box_shape(c)), box)
        largest = _regrid(box, _box_shape(n // 2 - 1))
        assert np.array_equal(largest, np.delete(np.delete(expect, n // 2, 1), n // 2, 2)[..., :-1])
        assert np.array_equal(_regrid(largest, _box_shape(c)), box)
        assert _regrid(box, _box_shape(c)) is box

    @pytest.mark.parametrize("n, c", list(layout_cases()))
    @pytest.mark.parametrize("axis", [-3, -2])
    def test_pad_and_keep_rows_match_the_index_rows(self, n, c, axis):
        # the x and y passes: the inverse pads the box rows before its FFT,
        # the forward keeps them after its FFT
        rows = np.r_[0 : c + 1, n - c : n]
        rng = np.random.default_rng(n + c)
        shape = [2, 3, 4, 5]
        shape[axis] = 2 * c + 1
        box = rng.standard_normal(shape) + 0j
        shape[axis] = n
        padded = np.zeros(shape, dtype=np.complex128)
        np.moveaxis(padded, axis, 0)[rows] = np.moveaxis(box, axis, 0)
        expect = np.fft.ifft(padded, axis=axis, norm="forward")
        got = _inverse_pass(box, np.full(shape, np.nan, dtype=np.complex128), axis)
        assert np.array_equal(got, expect)
        full = rng.standard_normal(shape) + 0j
        expect = np.take(np.fft.fft(full, axis=axis, norm="forward"), rows, axis=axis)
        got = _forward_pass(full, np.empty_like(box), axis)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("n, c", list(layout_cases()))
    def test_box_wavevectors_match_k1(self, n, c):
        # k1, the half cube's axis of the oracles; a grid's dealias ball
        # holds those of the box at its modes
        rows = np.r_[0 : c + 1, n - c : n]
        k1 = oracles.wavevectors(Grid(n))[0].ravel()
        kx, ky, kz = _box_axes(c)
        assert kx.dtype == ky.dtype == kz.dtype == np.float64
        assert np.array_equal(kx, k1[rows].reshape(-1, 1, 1))
        assert np.array_equal(ky, k1[rows].reshape(1, -1, 1))
        assert np.array_equal(kz, k1[: c + 1])
        if 1 <= c <= (n - 1) // 3:
            ball = Grid(n, c).ball
            for k, axis in zip(ball.kvec, (kx, ky, kz)):
                assert k.dtype == np.float64
                assert np.array_equal(k, np.broadcast_to(axis, ball.shape).ravel()[ball.index])

    @pytest.mark.parametrize("support", [0, 1, 5, 6, 7])
    def test_fields_are_stored_on_one_box(self, support):
        # C = max(dealias_cut, support cut) = max(5, support) at n = 16: a
        # field built from its half cube, from the largest box and from its
        # dealias box (where it fits) holds the same array of that box
        g = Grid(16)
        kx, ky, kz = (np.abs(k) for k in oracles.wavevectors(g))
        half = half_cube(white_noise(g, support))
        half *= np.maximum(np.maximum(kx, ky), kz) <= support
        cut = max(g.dealias_cut, support)
        built = [SpectralField(g, half), SpectralField(g, _regrid(half, _box_shape(7)))]
        if support <= g.dealias_cut:
            built.append(SpectralField(g, _regrid(half, _box_shape(g.dealias_cut))))
        for f in built:
            assert f.coeffs.shape == (3,) + _box_shape(cut)
            assert np.array_equal(f.coeffs, built[0].coeffs)
            assert np.array_equal(half_cube(f), half)

    def test_random_field_of_cut_zero_is_its_mean(self):
        g = Grid(8)
        f = random_field(g, np.random.default_rng(0), k_hi=0.5, zero_mean=False)
        mean = f.coeffs[:, 0, 0, 0].copy()
        f.coeffs[:, 0, 0, 0] = 0.0
        assert np.all(mean != 0.0) and np.all(mean.imag == 0.0)
        assert not f.coeffs.any()


class TestDealiasBall:
    # the tables of the modes |k| <= cut with kz >= 0, on which the solver
    # steps, against the box modes enumerated one by one

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_tables_hold_the_ball(self, n):
        g = Grid(n)
        c, ball = g.dealias_cut, g.ball
        w, _, h = ball.shape
        modes = [
            (kx, ky, kz)
            for kx in range(-c, c + 1)
            for ky in range(-c, c + 1)
            for kz in range(c + 1)
            if kx * kx + ky * ky + kz * kz <= c * c
        ]
        # flat index into the box, x and y rows in FFT order: box order
        flat = sorted(((kx % w) * w + ky % w) * h + kz for kx, ky, kz in modes)
        assert ball.size == len(modes) and ball.index.tolist() == flat
        ks = np.unravel_index(ball.index, ball.shape)
        expect = [np.where(i <= c, i, i - w) for i in ks[:2]] + [ks[2]]
        for got, k in zip(ball.kvec, expect):
            assert got.dtype == np.float64 and np.array_equal(got, k)
        kx, ky, kz = expect
        k_sq = kx**2 + ky**2 + kz**2
        assert np.array_equal(ball.k_sq, k_sq) and ball.k_sq.max() <= c * c
        assert ball.inv_k_sq[0] == 0.0 and np.array_equal(ball.inv_k_sq[1:], 1.0 / k_sq[1:])
        assert np.array_equal(ball.mult, np.where(kz == 0, 1.0, 2.0))
        tables = (ball.index, *ball.kvec, ball.k_sq, ball.inv_k_sq, ball.mult)
        assert not any(t.flags.writeable for t in tables)
        assert Grid(n).ball is ball

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_box_to_ball_to_box(self, n):
        # exact for a dealiased box; a box with content beyond the cut comes
        # back zero there and equal within it
        g = Grid(n)
        ball = g.ball
        box = _regrid(half_cube(white_noise(g, n)), ball.shape)
        kx, ky, kz = _box_axes(g.dealias_cut)
        inside = kx**2 + ky**2 + kz**2 <= g.dealias_cut**2
        assert not np.all(box[:, ~inside] == 0.0)
        got = ball.gather(box)
        assert got.shape == (3, ball.size) and got.flags.c_contiguous
        back = ball.expand(got)
        assert np.all(back[:, ~inside] == 0.0)
        assert np.array_equal(back[:, inside], box[:, inside])
        dealiased = box * inside
        assert np.array_equal(ball.expand(ball.gather(dealiased)), dealiased)
        out = np.empty_like(got)
        assert ball.gather(dealiased, out=out) is out
        assert np.array_equal(out, got)


class TestCalculus:
    def test_curl_of_beltrami_is_identity(self):
        g = Grid(16)
        u = abc_field(g)
        err = np.abs(curl(u).coeffs - u.coeffs).max()
        assert err < 1e-12

    def test_curl_matches_componentwise_formula(self):
        # the same products and differences as i (dy cz - dz cy), ... in the
        # same order, so equal to the last bit on the field's box, on the
        # dealias box and on the dealias ball
        g = Grid(16)
        f = white_noise(g, 4).coeffs
        box = _regrid(f, _box_shape(g.dealias_cut))
        cases = (
            (_box_axes(7), f),
            (_box_axes(g.dealias_cut), box),
            (g.ball.kvec, g.ball.gather(box)),
        )
        for kvec, c in cases:
            dx, dy, dz = kvec
            cx, cy, cz = c
            expect = np.stack(
                [1j * (dy * cz - dz * cy), 1j * (dz * cx - dx * cz), 1j * (dx * cy - dy * cx)]
            )
            assert np.array_equal(fields._curl(kvec, c), expect)

    def test_divergence_of_curl_vanishes(self):
        g = Grid(16)
        rng = np.random.default_rng(5)
        f = random_field(g, rng)
        dcurl = divergence(curl(f))
        assert np.abs(to_physical(dcurl)).max() < 1e-12 * np.abs(to_physical(f)).max()

    def test_gradient_matches_direct_oracle(self):
        g = Grid(8)  # oracle cost guard
        x, y, _ = mesh(g)
        f = from_physical(np.cos(x + 2 * y), g)
        fast = half_cube(gradient(f))
        direct = oracles.gradient_direct(full_cube(half_cube(f)))[..., : g.n // 2 + 1]
        assert np.abs(fast - direct).max() < 1e-12

    def test_gradient_cos_analytic(self):
        g = Grid(16)
        x, y, _ = mesh(g)
        f = from_physical(np.cos(x + 2 * y), g)
        got = to_physical(gradient(f))
        assert np.abs(got[0] + np.sin(x + 2 * y)).max() < 1e-12
        assert np.abs(got[1] + 2 * np.sin(x + 2 * y)).max() < 1e-12
        assert np.abs(got[2]).max() < 1e-13

    def test_curl_of_gradient_vanishes(self):
        g = Grid(16)
        rng = np.random.default_rng(6)
        f = random_field(g, rng, ncomp=1)
        cg = curl(gradient(f))
        assert np.abs(cg.coeffs).max() < 1e-12 * np.abs(f.coeffs).max()


class TestLeray:
    def test_kills_gradients(self):
        g = Grid(16)
        rng = np.random.default_rng(7)
        grad = gradient(random_field(g, rng, ncomp=1))
        proj = leray_project(grad)
        assert np.abs(proj.coeffs).max() < 1e-12 * np.abs(grad.coeffs).max()

    def test_fixes_solenoidal_fields(self):
        g = Grid(16)
        rng = np.random.default_rng(8)
        f = leray_project(random_field(g, rng))
        again = leray_project(f)
        assert np.abs(again.coeffs - f.coeffs).max() < 1e-14 * np.abs(f.coeffs).max()

    def test_matches_dense_oracle(self):
        g = Grid(8)
        rng = np.random.default_rng(9)
        f = random_field(g, rng)
        fast = half_cube(leray_project(f))
        direct = oracles.leray_direct(full_cube(half_cube(f)))[..., : g.n // 2 + 1]
        assert np.abs(fast - direct).max() / np.abs(direct).max() < 1e-12

    def test_output_is_solenoidal(self):
        g = Grid(16)
        rng = np.random.default_rng(10)
        f = leray_project(random_field(g, rng))
        assert divergence_error(f) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_self_adjoint(self, seed):
        g = Grid(8)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng)
        h = random_field(g, rng)
        lhs = inner_product(leray_project(f), h)
        rhs = inner_product(f, leray_project(h))
        # independent noise: the sum can nearly cancel, so roundoff is
        # measured against ||f|| ||h||, not against the sum itself
        scale = np.sqrt(inner_product(f, f) * inner_product(h, h))
        assert abs(lhs - rhs) < 1e-14 * scale


class TestNorms:
    def test_zero_field(self):
        g = Grid(8)
        for p in (1.0, 2.0, 4.0, np.inf):
            assert lp_norm(zero_field(g), p) == 0.0

    def test_cosine_l2_is_parseval_exact(self):
        g = Grid(16)
        x, _, _ = mesh(g)
        u = np.zeros((3, 16, 16, 16))
        u[0] = np.cos(x)
        f = from_physical(u, g)
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(VOLUME / 2), rel=1e-13)

    def test_cosine_linf_hits_max(self):
        g = Grid(16)
        x, _, _ = mesh(g)
        f = from_physical(np.cos(x), g)
        assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-13)

    def test_linf_oversampling_agrees_within_2pct(self):
        # resolved field (>= 8 points per wavelength); the grid sup is a
        # lower bound on the true sup and close to it
        g = Grid(32)
        rng = np.random.default_rng(3)
        f = random_field(g, rng, k_hi=4.0, ncomp=1)
        coarse = lp_norm(f, np.inf)
        # the samples on the 8x finer grid, from the zero-padded half cube
        n, m = g.n, 8 * g.n
        pos = np.fft.fftfreq(n, d=1.0 / n).astype(int) % m
        padded = np.zeros((m, m, m // 2 + 1), dtype=np.complex128)
        padded[pos[:, None], pos, : n // 2 + 1] = half_cube(f)[0]
        fine = np.fft.irfftn(padded, s=(m, m, m), axes=(0, 1, 2), norm="forward")
        fine = np.abs(fine).max()
        assert coarse <= fine * (1 + 1e-12)
        assert (fine - coarse) / fine < 0.02

    def test_p_below_one_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            lp_norm(zero_field(g), 0.5)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, seed):
        g = Grid(8)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng)
        collocation = lp_norm(f, 2)
        spectral = l2_norm_spectral(f)
        assert collocation == pytest.approx(spectral, rel=1e-12)


class TestHermitianAndPotential:
    def test_random_fields_are_hermitian(self):
        g = Grid(16)
        f = random_field(g, np.random.default_rng(13))
        assert hermitian_error(f) < 1e-13

    def test_vector_potential_inverts_curl(self):
        g = Grid(16)
        b = leray_project(random_field(g, np.random.default_rng(14)))
        a = vector_potential(b)
        err = np.abs(curl(a).coeffs - b.coeffs).max() / np.abs(b.coeffs).max()
        assert err < 1e-12
        assert divergence_error(a) < 1e-12


    @pytest.mark.parametrize("n", [8, 10])
    def test_outputs_hermitian_on_nyquist_planes(self, n):
        # index n/2 carries the wavenumber -n/2 for a mode and for its
        # partner alike; no field holds content there, so the outputs stay
        # Hermitian
        g = Grid(n)
        f = white_noise(g, n)
        assert hermitian_error(f) < 1e-14
        assert hermitian_error(leray_project(f)) < 1e-14
        assert hermitian_error(vector_potential(f)) < 1e-14

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("band", [{}, {"k_hi": 3.0}, {"k_lo": 1.5, "k_hi": 5.0}])
    def test_drawn_fields_are_hermitian_and_in_band(self, n, band):
        # random_field draws on the box of cut min(floor(k_hi), n/2 - 1):
        # a box inside the half cube (k_hi = 3, and k_hi = 5 at n = 16), or
        # the whole half cube but its n/2 planes (no k_hi, and k_hi = 5 at n = 8)
        g = Grid(n)
        k_lo, k_hi = band.get("k_lo", 0.0), band.get("k_hi", np.inf)
        h = n // 2
        n2_planes = np.zeros(oracles.k_sq(g).shape, dtype=bool)
        n2_planes[h], n2_planes[:, h], n2_planes[..., h] = True, True, True
        k_mag = oracles.k_mag(g)
        outside = (k_mag < k_lo) | (k_mag > k_hi) | n2_planes
        for seed in range(3):
            rng = np.random.default_rng(seed)
            f = random_field(g, rng, zero_mean=False, **band)
            assert hermitian_error(f) == 0.0
            assert not half_cube(f)[:, outside].any()
            assert half_cube(f)[:, ~outside].all()
            f = random_field(g, rng, solenoidal=True, **band)
            assert hermitian_error(f) == 0.0
            assert not half_cube(f)[:, outside].any()
            assert not f.coeffs[:, 0, 0, 0].any()
            assert divergence_error(f) <= 1e-14

    @pytest.mark.parametrize("band", [{}, {"k_hi": 3.0}])
    def test_per_mode_power_is_that_of_white_noise(self, band):
        # the coefficients of unit white noise on the n^3 grid have
        # E|c|^2 = 1/n^3 and, but at the self-conjugate k = 0, E c^2 = 0.
        # Over N seeds the mean of n^3 |c|^2 has a standard error of
        # 1/sqrt(N) per mode (sqrt(2/N) at the real k = 0), and of
        # 1/sqrt(N m) pooled over m independent modes; each bound is 5
        # standard errors, 6 for the largest of the per-mode ones
        n, seeds = 8, 200
        g = Grid(n)
        c = np.stack([
            half_cube(random_field(g, np.random.default_rng(s), zero_mean=False, **band))
            for s in range(seeds)
        ]) * n**1.5
        power, pseudo = np.mean(np.abs(c) ** 2, axis=0), np.mean(c**2, axis=0)
        live = oracles.k_mag(g) <= band.get("k_hi", np.inf)
        live[n // 2], live[:, n // 2], live[..., n // 2] = False, False, False
        assert not power[:, ~live].any()
        assert np.abs(power[:, live] - 1.0).max() <= 6 * np.sqrt(2 / seeds)
        assert not c[:, :, 0, 0, 0].imag.any()
        kz0 = np.zeros_like(live)
        kz0[..., 0] = True
        # on kz = 0 the modes come in Hermitian pairs, so half are independent
        for modes, pairs in ((live & kz0 & (oracles.k_sq(g) > 0), 2), (live & ~kz0, 1)):
            se = 1 / np.sqrt(seeds * 3 * modes.sum() / pairs)
            assert abs(power[:, modes].mean() - 1.0) <= 5 * se
            assert abs(pseudo[:, modes].mean()) <= 5 * np.sqrt(2) * se

    def test_fill_from_half_odd_half_grid(self):
        # n = 10 has an odd n/2: the full cube that oracles.full_cube, the
        # Hermitian fill of the oracles, fills from the real transform of a
        # product must invert, with the full complex transform, to the same
        # real samples
        g = Grid(10)
        rng = np.random.default_rng(4)
        samples = np.prod(
            to_physical(random_field(g, rng, ncomp=2, zero_mean=False)), axis=0
        )
        full = full_cube(np.fft.rfftn(samples, norm="forward"))
        back = np.fft.ifftn(full) * g.n**3
        assert np.abs(back.imag).max() <= 1e-14 * np.abs(samples).max()
        assert np.abs(back.real - samples).max() <= 1e-14 * np.abs(samples).max()


class TestHalfCubeSums:
    # a field's box kz >= 0 with Hermitian multiplicities (2 above the kz = 0
    # plane, 1 on it) against the plain sums over the full cube of
    # oracles.full_cube; n = 10 has an odd n/2
    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_parseval_matches_full_cube_sum(self, n):
        g = Grid(n)
        f = white_noise(g, n + 1)
        power = np.abs(full_cube(half_cube(f))) ** 2
        k_sq = oracles.k_sq(g)
        for weight in (np.ones(k_sq.shape), k_sq, np.cos(oracles.k_mag(g)) ** 2):
            full = VOLUME * np.sum(full_cube(weight) * power)
            on_box = _regrid(weight, f.coeffs.shape[1:])
            assert _parseval(f.coeffs, on_box) == pytest.approx(full, rel=1e-14)

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_parseval_on_the_box(self, n):
        # the box's last plane is kz = cut, not n/2: it counts twice
        g = Grid(n)
        c = g.dealias_cut
        box = _regrid(white_noise(g, n + 3).coeffs, _box_shape(c))
        power = np.abs(full_cube(_regrid(box, (n, n, n // 2 + 1)))) ** 2
        k_sq = oracles.k_sq(g)
        for weight in (np.ones(k_sq.shape), k_sq):
            full = VOLUME * np.sum(full_cube(weight) * power)
            assert _parseval(box, _regrid(weight, _box_shape(c))) == pytest.approx(
                full, rel=1e-14
            )

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_public_sums_match_full_cube(self, n):
        from hallmhd.littlewood_paley import build_partition
        from hallmhd.solver import energy, magnetic_helicity

        g = Grid(n)
        f = white_noise(g, n + 2)
        fc = full_cube(half_cube(f))
        power = np.abs(fc) ** 2
        full = VOLUME * np.sum(power)
        assert energy(f) == pytest.approx(0.5 * full, rel=1e-14)
        assert l2_norm_spectral(f) == pytest.approx(np.sqrt(full), rel=1e-14)
        h = white_noise(g, n + 3)
        hc = full_cube(half_cube(h))
        # independent noise: the sum cancels, so the scale is ||f|| ||h||
        scale = np.sqrt(full * VOLUME * np.sum(np.abs(hc) ** 2))
        expect = VOLUME * np.sum(np.real(np.conj(fc) * hc))
        assert inner_product(f, h) == pytest.approx(expect, abs=1e-14 * scale)
        assert inner_product(f, f) == pytest.approx(full, rel=1e-14)
        a = full_cube(half_cube(vector_potential(f)))
        expect = VOLUME * np.sum(np.real(np.conj(a) * fc))
        assert magnetic_helicity(f) == pytest.approx(expect, abs=1e-14 * full)
        assert fields.grad_norm_sq(f) == pytest.approx(
            VOLUME * np.sum(full_cube(oracles.k_sq(g)) * power), rel=1e-14
        )
        part = build_partition(g)
        shells = part.shell_l2_sq(f)
        total = np.sum(power, axis=0)
        for q in part.shell_range():
            mult = full_cube(part._mult(q, oracles.k_sq(g).astype(np.intp)))
            expect = VOLUME * np.sum(mult**2 * total)
            assert shells[q + 1] == pytest.approx(expect, rel=1e-14, abs=1e-14 * full)


    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("which", ["zero", "one", "dealias", "below_half"])
    def test_support_box_sums_match_half_cube(self, n, which):
        # magnetic_helicity and shell_l2_sq sum on the box of the field's
        # support cut, which is below n/2, against the half-cube formulas
        # they replaced
        from hallmhd.fields import _support_cut
        from hallmhd.littlewood_paley import build_partition
        from hallmhd.solver import magnetic_helicity

        g = Grid(n)
        cut = {"zero": 0, "one": 1, "dealias": g.dealias_cut, "below_half": n // 2 - 1}[which]
        kx, ky, kz = (np.abs(k) for k in oracles.wavevectors(g))
        in_box = np.maximum(np.maximum(kx, ky), kz) <= cut
        b = SpectralField(g, half_cube(white_noise(g, n + cut)) * in_box)
        assert _support_cut(b.coeffs) == cut
        a = vector_potential(b)
        expect = inner_product(a, b)
        bound = np.sqrt(inner_product(a, a) * inner_product(b, b))
        assert abs(magnetic_helicity(b) - expect) <= 1e-14 * bound
        part = build_partition(g)
        power = np.sum(np.abs(half_cube(b)) ** 2, axis=0)
        power *= fields._multiplicity(power)
        binned = np.bincount(
            oracles.k_sq(g).astype(np.intp).ravel(), weights=power.ravel(),
            minlength=part._radial.shape[1],
        )
        expect = VOLUME * (part._radial**2 @ binned)
        assert np.all(np.abs(part.shell_l2_sq(b) - expect) <= 1e-14 * expect)


class TestConvolutionOracleSelfConsistency:
    def test_two_summation_orders_agree(self):
        g = Grid(8)
        rng = np.random.default_rng(15)
        f = full_cube(half_cube(random_field(g, rng, ncomp=1))[0])
        h = full_cube(half_cube(random_field(g, rng, ncomp=1))[0])
        c1 = oracles.convolve_direct(f, h, order="p")
        c2 = oracles.convolve_direct(f, h, order="q")
        assert np.abs(c1 - c2).max() <= 1e-12 * max(np.abs(c1).max(), 1e-300)

    def test_single_mode_product(self):
        # cos(x) * cos(x) = 1/2 + cos(2x)/2
        g = Grid(8)
        c = np.zeros((8, 8, 8), dtype=np.complex128)
        c[1, 0, 0] = 0.5
        c[-1, 0, 0] = 0.5
        prod = oracles.convolve_direct(c, c)
        assert prod[0, 0, 0] == pytest.approx(0.5)
        assert prod[2, 0, 0] == pytest.approx(0.25)
        assert prod[-2, 0, 0] == pytest.approx(0.25)

    def test_oracle_refuses_large_grids(self):
        with pytest.raises(ValueError):
            oracles.dft_direct(np.zeros((16, 16, 16)))


FFT_TRANSFORM = re.compile(r"i?r?fft[n2]?|i?hfft")  # not fftfreq or the shifts


def fft_calls(node, owner=None):
    """(enclosing function, called name, line) of every FFT transform call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from fft_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            name = getattr(child.func, "attr", getattr(child.func, "id", ""))
            if FFT_TRANSFORM.fullmatch(name):
                yield owner, name, child.lineno
        yield from fft_calls(child, owner)


class TestSingleTransformPath:
    def test_fft_calls_only_in_the_real_transform_pair(self):
        # every FFT in the package goes through the two real transforms of
        # fields and the passes of their pruned box path, which the solver's
        # kernel streams over x slabs, so the sample/coefficient convention
        # lives in one place; the dense z passes, and the x and y passes
        # where fields._dense_xy holds, are matrix products in fields that
        # call no FFT, and the x and y passes elsewhere these FFTs
        allowed = {
            ("fields.py", "to_physical"),
            ("fields.py", "from_physical"),
            ("fields.py", "_inverse_pass"),
            ("fields.py", "_forward_pass"),
        }
        found, stray = set(), []
        for path in sorted(Path(fields.__file__).parent.glob("*.py")):
            for owner, name, line in fft_calls(ast.parse(path.read_text())):
                if (path.name, owner) in allowed:
                    found.add((path.name, owner))
                else:
                    stray.append(f"{path.name}:{line} {name} in {owner}")
        assert stray == []
        assert found == allowed


def unused_imports(tree):
    """Names a module imports and never reads, in source order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
            node, "module", None
        ) != "__future__":
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


class TestImports:
    def test_no_unused_imports(self):
        # a name imported and never read is dead weight that hides which
        # helpers a module, or a test module, really depends on
        unused = []
        paths = [Path(fields.__file__).parent, Path(__file__).parent]
        for path in sorted(p for d in paths for p in d.glob("*.py")):
            names = unused_imports(ast.parse(path.read_text()))
            unused += [f"{path.name}: {name}" for name in names]
        assert unused == []


def private_defs(tree):
    """(name, line) of each module-level private function and each private
    method of a module-level class; dunders are not private."""
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if (
                isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                and d.name.startswith("_")
                and not d.name.endswith("__")
            ):
                yield d.name, d.lineno


def names_read(tree):
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


class TestDeadHelpers:
    def test_every_private_helper_is_read_by_the_package(self):
        # a private helper that only tests or the benchmark read is code the
        # package keeps for nothing, so only the package's modules are read
        trees = {
            path.name: ast.parse(path.read_text())
            for path in sorted(Path(fields.__file__).parent.glob("*.py"))
        }
        read = set().union(*(names_read(tree) for tree in trees.values()))
        dead = [
            f"{name}:{line} {helper}"
            for name, tree in trees.items()
            for helper, line in private_defs(tree)
            if helper not in read
        ]
        assert dead == []
