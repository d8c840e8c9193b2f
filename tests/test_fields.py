"""Spectral field core: transforms, calculus, Leray projection, norms."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmhd import checkpoint, fields, oracles
from hallmhd.fields import (
    DimensionError,
    Grid,
    SpectralField,
    _forward_x,
    _forward_zy,
    _from_box,
    _half_to_physical,
    _parseval,
    _physical_to_half,
    _to_box,
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
from hallmhd.oracles import dealias, divergence, full_cube, gradient, hermitian_error, mesh

VOLUME = (2 * np.pi) ** 3


def white_noise(grid, seed):
    """Coefficients of real white noise: Hermitian, with n/2 content."""
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
        g = Grid(8)
        assert list(g.k1) == [0, 1, 2, 3, -4, -3, -2, -1]
        assert g.d1[4] == 0.0  # oddball zeroed for derivatives

    def test_wavenumbers_are_integers(self):
        # fftfreq(n, 1/n) is off by ulps for 35 even n <= 1024 (at n = 98,
        # 1.0000000000000002 for 1); k1 holds the integers exactly
        for n in range(8, 1025, 2):
            k = np.minimum(np.arange(n), n - np.arange(n))
            k[n // 2 :] *= -1
            assert np.array_equal(Grid(n).k1, k), n

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
        fast = from_physical(phys, g).coeffs
        scale = np.abs(direct).max()
        assert np.abs(fast - direct).max() / scale < 1e-12
        # inverse path against direct summation
        phys_direct = oracles.idft_direct(f.coeffs)
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

    def test_samples_of_white_noise(self):
        # white noise keeps its n/2 planes; the real part of the complex
        # inverse transform of the full cube is the reference
        g = Grid(8)
        rng = np.random.default_rng(17)
        f = from_physical(rng.standard_normal((3, 8, 8, 8)), g)
        expect = np.fft.ifftn(full_cube(f.coeffs), axes=(-3, -2, -1)).real * g.n**3
        got = to_physical(f)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    @pytest.mark.parametrize("n", [8, 10, 16, 24])
    def test_pruned_pair_matches_full_real_transforms(self, n):
        # the box |kx|, |ky|, kz <= cut: its inverse against irfftn of the
        # half cube holding it, its forward against the truncated rfftn
        g = Grid(n)
        c = g.dealias_cut
        rng = np.random.default_rng(n)
        samples = rng.standard_normal((3, n, n, n))
        box = _to_box(from_physical(samples, g).coeffs, c)
        assert box.shape == (3, 2 * c + 1, 2 * c + 1, c + 1)
        half = _from_box(box, n)
        expect = np.fft.irfftn(half, s=(n,) * 3, axes=(1, 2, 3), norm="forward")
        got = _half_to_physical(box, n)
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()
        # the pruned forward transform, composed of the passes the solver's
        # kernel runs
        expect = _to_box(np.fft.rfftn(samples, axes=(1, 2, 3), norm="forward"), c)
        z = np.empty((3, n, n, n // 2 + 1), dtype=np.complex128)
        zy = np.empty((3, n, 2 * c + 1, c + 1), dtype=np.complex128)
        got = _forward_x(_forward_zy(samples, z, zy), np.empty_like(box))
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()


class TestCalculus:
    def test_curl_of_beltrami_is_identity(self):
        g = Grid(16)
        u = abc_field(g)
        err = np.abs(curl(u).coeffs - u.coeffs).max()
        assert err < 1e-12

    def test_curl_matches_componentwise_formula(self):
        # the same products and differences as i (dy cz - dz cy), ... in the
        # same order, so equal to the last bit on the half cube, with the
        # derivative and with the plain wavenumbers, and on the box
        g = Grid(16)
        f = white_noise(g, 4).coeffs
        for dvec, c in (
            (g.dvec, f),
            (g.kvec, f),
            (g.box[0], _to_box(f, g.dealias_cut)),
        ):
            dx, dy, dz = dvec
            cx, cy, cz = c
            expect = np.stack(
                [1j * (dy * cz - dz * cy), 1j * (dz * cx - dx * cz), 1j * (dx * cy - dy * cx)]
            )
            assert np.array_equal(fields._curl(dvec, c), expect)

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
        fast = gradient(f).coeffs
        direct = oracles.gradient_direct(full_cube(f.coeffs))[..., : g.n // 2 + 1]
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
        fast = leray_project(f).coeffs
        direct = oracles.leray_direct(full_cube(f.coeffs))[..., : g.n // 2 + 1]
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
        padded[pos[:, None], pos, : n // 2 + 1] = f.coeffs[0]
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
        # partner alike; the n/2 planes are zeroed to keep the symmetry
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
        n2_planes = np.zeros(g.k_sq.shape, dtype=bool)
        n2_planes[h], n2_planes[:, h], n2_planes[..., h] = True, True, True
        k_mag = oracles.k_mag(g)
        outside = (k_mag < k_lo) | (k_mag > k_hi) | n2_planes
        for seed in range(3):
            rng = np.random.default_rng(seed)
            f = random_field(g, rng, zero_mean=False, **band)
            assert hermitian_error(f) == 0.0
            assert not f.coeffs[:, outside].any()
            assert f.coeffs[:, ~outside].all()
            f = random_field(g, rng, solenoidal=True, **band)
            assert hermitian_error(f) == 0.0
            assert not f.coeffs[:, outside].any()
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
            random_field(g, np.random.default_rng(s), zero_mean=False, **band).coeffs
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
        for modes, pairs in ((live & kz0 & (g.k_sq > 0), 2), (live & ~kz0, 1)):
            se = 1 / np.sqrt(seeds * 3 * modes.sum() / pairs)
            assert abs(power[:, modes].mean() - 1.0) <= 5 * se
            assert abs(pseudo[:, modes].mean()) <= 5 * np.sqrt(2) * se

    def test_fill_from_half_odd_half_grid(self):
        # n = 10 has an odd n/2: the full cube that the checkpoint writer
        # fills from the real transform of a product must invert, with the
        # full complex transform, to the same real samples
        g = Grid(10)
        rng = np.random.default_rng(4)
        samples = np.prod(
            to_physical(random_field(g, rng, ncomp=2, zero_mean=False)), axis=0
        )
        full = checkpoint._full_cube(_physical_to_half(samples))
        back = np.fft.ifftn(full) * g.n**3
        assert np.abs(back.imag).max() <= 1e-14 * np.abs(samples).max()
        assert np.abs(back.real - samples).max() <= 1e-14 * np.abs(samples).max()


class TestHalfCubeSums:
    # the half cube kz >= 0 with Hermitian multiplicities (2 inside, 1 on the
    # kz = 0 and kz = n/2 planes) against the plain sums over the full cube
    # of oracles.full_cube; n = 10 has an odd n/2
    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_parseval_matches_full_cube_sum(self, n):
        g = Grid(n)
        f = white_noise(g, n + 1)
        power = np.abs(full_cube(f.coeffs)) ** 2
        for weight in (np.ones(g.k_sq.shape), g.k_sq, np.cos(oracles.k_mag(g)) ** 2):
            full = VOLUME * np.sum(full_cube(weight) * power)
            assert _parseval(f.coeffs, weight) == pytest.approx(full, rel=1e-14)

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_parseval_on_the_box(self, n):
        # the box's last plane is kz = cut, not n/2: it counts twice
        g = Grid(n)
        c = g.dealias_cut
        box = _to_box(white_noise(g, n + 3).coeffs, c)
        power = np.abs(full_cube(_from_box(box, n))) ** 2
        for weight in (np.ones(g.k_sq.shape), g.k_sq):
            full = VOLUME * np.sum(full_cube(weight) * power)
            assert _parseval(box, _to_box(weight, c)) == pytest.approx(
                full, rel=1e-14
            )

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_public_sums_match_full_cube(self, n):
        from hallmhd.littlewood_paley import build_partition
        from hallmhd.solver import energy, magnetic_helicity

        g = Grid(n)
        f = white_noise(g, n + 2)
        fc = full_cube(f.coeffs)
        power = np.abs(fc) ** 2
        full = VOLUME * np.sum(power)
        assert energy(f) == pytest.approx(0.5 * full, rel=1e-14)
        assert l2_norm_spectral(f) == pytest.approx(np.sqrt(full), rel=1e-14)
        h = white_noise(g, n + 3)
        hc = full_cube(h.coeffs)
        # independent noise: the sum cancels, so the scale is ||f|| ||h||
        scale = np.sqrt(full * VOLUME * np.sum(np.abs(hc) ** 2))
        expect = VOLUME * np.sum(np.real(np.conj(fc) * hc))
        assert inner_product(f, h) == pytest.approx(expect, abs=1e-14 * scale)
        assert inner_product(f, f) == pytest.approx(full, rel=1e-14)
        a = full_cube(vector_potential(f).coeffs)
        expect = VOLUME * np.sum(np.real(np.conj(a) * fc))
        assert magnetic_helicity(f) == pytest.approx(expect, abs=1e-14 * full)
        assert fields.grad_norm_sq(f) == pytest.approx(
            VOLUME * np.sum(full_cube(g.k_sq) * power), rel=1e-14
        )
        part = build_partition(g)
        shells = part.shell_l2_sq(f)
        total = np.sum(power, axis=0)
        for q in part.shell_range():
            mult = full_cube(part._mult(q))
            expect = VOLUME * np.sum(mult**2 * total)
            assert shells[q + 1] == pytest.approx(expect, rel=1e-14, abs=1e-14 * full)


class TestConvolutionOracleSelfConsistency:
    def test_two_summation_orders_agree(self):
        g = Grid(8)
        rng = np.random.default_rng(15)
        f = full_cube(random_field(g, rng, ncomp=1).coeffs[0])
        h = full_cube(random_field(g, rng, ncomp=1).coeffs[0])
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
        # lives in one place
        allowed = {
            ("fields.py", "_half_to_physical"),
            ("fields.py", "_physical_to_half"),
            ("fields.py", "_inverse_x"),
            ("fields.py", "_inverse_yz"),
            ("fields.py", "_forward_zy"),
            ("fields.py", "_forward_x"),
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
