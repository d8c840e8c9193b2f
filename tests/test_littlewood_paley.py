"""Dyadic partition, shell projections, the per-shell L^2 and L^inf norms
(with the Besov, Sobolev and Bernstein forms built from them) and the
checkpoint codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmhd import fields, oracles
from hallmhd.config import RunConfig
from hallmhd.fields import (
    DimensionError,
    Grid,
    SpectralField,
    curl,
    from_physical,
    l2_norm_spectral,
    leray_project,
    lp_norm,
    random_field,
    zero_field,
)
from hallmhd.littlewood_paley import (
    LPPartition,
    PartitionError,
    build_partition,
    dealias_limited_q_max,
    smooth_bridge_profile,
)
from hallmhd.oracles import gradient, half_cube
from hallmhd.solver import SolverState, Stepper, make_initial, whistler_initial

# frozen from the profile: the bridge g is symmetric about s = 1/2,
# so chi(7/8) = g(1/2) = 1/2 exactly
CHI_AT_7_8 = 0.5


def box_limited_noise(grid, seed, cut):
    """Real white noise kept on |kx|, |ky|, |kz| <= cut, so its support cut
    is `cut` (below n/2: from_physical drops the n/2 planes)."""
    rng = np.random.default_rng(seed)
    f = from_physical(rng.standard_normal((3,) + (grid.n,) * 3), grid)
    kx, ky, kz = (np.abs(k) for k in oracles.wavevectors(grid))
    return SpectralField(grid, half_cube(f) * (np.maximum(np.maximum(kx, ky), kz) <= cut))


def half_k_sq(grid):
    """The integer |k|^2 on the grid's half cube, the radial tables' index."""
    return oracles.k_sq(grid).astype(np.intp)


def single_mode(grid, kvec, amplitude=1.0, comp=0, ncomp=3):
    """amplitude cos(k.x) in component comp: amplitude/2 at k and at -k,
    of which the half cube holds those with kz index <= n/2."""
    n = grid.n
    c = np.zeros((ncomp, n, n, n // 2 + 1), dtype=np.complex128)
    for k in (np.asarray(kvec), -np.asarray(kvec)):
        idx = tuple(k % n)
        if idx[2] <= n // 2:
            c[(comp,) + idx] += amplitude / 2.0
    return SpectralField(grid, c)


@pytest.fixture(scope="module")
def part32():
    return build_partition(Grid(32))


@pytest.fixture(scope="module")
def part16():
    return build_partition(Grid(16))


class TestProfile:
    def test_plateau_and_support(self):
        assert smooth_bridge_profile(np.array([0.5]))[0] == 1.0
        assert smooth_bridge_profile(np.array([2.0]))[0] == 0.0

    def test_phi_at_one(self):
        # phi(1) = chi(1/2) - chi(1) = 1
        phi1 = smooth_bridge_profile(np.array([0.5]))[0] - smooth_bridge_profile(
            np.array([1.0])
        )[0]
        assert phi1 == 1.0

    def test_frozen_split_value(self):
        assert smooth_bridge_profile(np.array([7 / 8]))[0] == pytest.approx(
            CHI_AT_7_8, abs=1e-15
        )
        # the two bumps covering |k| = 7 telescope to unity
        lo = smooth_bridge_profile(np.array([7 / 16]))[0] - smooth_bridge_profile(
            np.array([7 / 8])
        )[0]
        hi = smooth_bridge_profile(np.array([7 / 8]))[0] - smooth_bridge_profile(
            np.array([7 / 4])
        )[0]
        assert lo + hi == pytest.approx(1.0, abs=1e-15)
        assert lo == pytest.approx(1 - CHI_AT_7_8, abs=1e-15)
        assert hi == pytest.approx(CHI_AT_7_8, abs=1e-15)


class TestPartition:
    def test_unity_on_resolved_wavenumbers(self, part32):
        # on every |k|^2 the half cube holds, up to the corner's 3 (n/2)^2
        held = np.unique(half_k_sq(part32.grid))
        assert held[-1] == 3 * 16**2
        total = sum(part32._mult(q, held) for q in part32.shell_range())
        assert np.abs(total - 1.0).max() <= 1e-12
        assert part32.unity_error <= 1e-12

    @pytest.mark.parametrize("k_sq", [1, 5, 3 * 8**2])
    def test_unity_failure_raises(self, part16, k_sq):
        # one |k|^2 > 0 off unity fails the whole partition, not only k = 0
        radial = part16._radial.copy()
        radial[2, k_sq] += 1e-9
        with pytest.raises(PartitionError, match=rf"first at \|k\|\^2 = {k_sq}\b"):
            LPPartition(part16.grid, radial)

    def test_supports_are_dyadic_annuli(self, part32):
        kmag = oracles.k_mag(part32.grid)
        for q in range(0, part32.q_max + 1):
            mult = part32._mult(q, half_k_sq(part32.grid))
            active = mult > 0
            if not active.any():
                continue
            assert kmag[active].min() > 0.75 * 2**q
            assert kmag[active].max() < 2.0 ** (q + 1)

    @pytest.mark.parametrize("n", [16, 32])
    def test_holds_no_per_shell_half_cube(self, n):
        # the multipliers are kept as radial tables over |k|^2 and gathered
        # on demand onto the |k|^2 of the box a call reads, so the
        # partition's only array is those tables
        part = build_partition(Grid(n))
        arrays = {k: v for k, v in vars(part).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == ["_radial"]
        assert arrays["_radial"].shape == (part.q_max + 2, 3 * (n // 2) ** 2 + 1)

    @pytest.mark.parametrize("n", range(8, 129, 2))
    def test_shell_cuts_are_the_scanned_supports(self, n):
        # min(2^(q+1) - 1, n/2) is the largest max(|kx|, |ky|, kz) of a
        # half-cube entry where phi_q is nonzero, found by an exact scan
        # (integer |k| per axis in FFT order)
        part = build_partition(Grid(n))
        k = np.minimum(np.arange(n), n - np.arange(n))
        k_inf = np.maximum(np.maximum.outer(k, k)[..., None], k[: n // 2 + 1])
        for q in part.shell_range():
            scanned = k_inf[part._mult(q, half_k_sq(part.grid)) != 0].max(initial=-1)
            assert part._shell_cut(q) == scanned

    def test_q_max_matches_resolution(self):
        assert build_partition(Grid(8)).q_max == 3
        assert build_partition(Grid(16)).q_max == 4
        assert build_partition(Grid(32)).q_max == 5

    def test_dealias_limited_q_max(self, part32):
        # shells with 3/4 * 2^q >= dealias_cut are empty after dealiasing, as
        # phi_q vanishes for |k| <= 3/4 * 2^q; the last four rows sit on the
        # equality (cuts 3, 6, 12 and 6)
        assert dealias_limited_q_max(part32) == 3
        for n, cut, expect in ((10, None, 1), (20, None, 2), (38, None, 3), (32, 6, 2)):
            assert dealias_limited_q_max(build_partition(Grid(n, cut))) == expect

    @pytest.mark.parametrize("chi", [smooth_bridge_profile], ids=["default"])
    @pytest.mark.parametrize("n", [8, 10, 32])
    def test_multipliers_match_profile_on_k_mag(self, n, chi):
        # the profile evaluated per distinct |k|^2 and gathered equals the
        # profile applied to oracles.k_mag, and the first shell dropped is empty
        part = build_partition(Grid(n))
        kmag = oracles.k_mag(part.grid)
        expect = [chi(kmag)] + [
            chi(kmag / (2.0 * 2.0**q)) - chi(kmag / 2.0**q)
            for q in range(part.q_max + 2)
        ]
        mults = [part._mult(q, half_k_sq(part.grid)) for q in part.shell_range()]
        assert np.array_equal(np.array(mults), np.array(expect[:-1]))
        assert not np.any(expect[-1] > 0.0)

    def test_grid_mismatch_named(self, part32):
        f = random_field(Grid(16), np.random.default_rng(0))
        for call in (
            lambda: part32.project(f, 0),
            lambda: part32.shell_l2_sq(f),
            lambda: part32.shell_linf(f),
        ):
            with pytest.raises(DimensionError, match="n=16 grid.*n=32 grid"):
                call()


class TestProjections:
    def test_pure_shell_mode(self, part32):
        # |k| = 4 = 2^2 sits entirely in shell 2 (phi(1) = 1)
        f = single_mode(part32.grid, (4, 0, 0))
        for q in part32.shell_range():
            block = part32.project(f, q)
            if q == 2:
                assert np.abs(block.coeffs - f.coeffs).max() < 1e-15
            else:
                assert np.abs(block.coeffs).max() < 1e-15

    def test_constant_field_in_lowest_block(self, part32):
        c = np.zeros((3, 32, 32, 17), dtype=np.complex128)
        c[0, 0, 0, 0] = 2.5
        f = SpectralField(part32.grid, c)
        assert np.abs(part32.project(f, -1).coeffs - f.coeffs).max() < 1e-15
        for q in range(0, part32.q_max + 1):
            assert np.abs(part32.project(f, q).coeffs).max() == 0.0

    def test_split_mode_weights_frozen(self, part32):
        # |k| = 7 splits between shells 2 and 3 with weights (chi(7/8), 1-chi(7/8))
        f = single_mode(part32.grid, (7, 0, 0))
        b2 = part32.project(f, 2)
        b3 = part32.project(f, 3)
        w2 = np.abs(b2.coeffs).max() / np.abs(f.coeffs).max()
        w3 = np.abs(b3.coeffs).max() / np.abs(f.coeffs).max()
        assert w2 == pytest.approx(CHI_AT_7_8, abs=1e-14)
        assert w3 == pytest.approx(1 - CHI_AT_7_8, abs=1e-14)
        rebuilt = b2.coeffs + b3.coeffs
        assert np.abs(rebuilt - f.coeffs).max() < 1e-14

    def test_out_of_range_shell(self, part32):
        f = zero_field(part32.grid)
        with pytest.raises(ValueError):
            part32.project(f, part32.q_max + 1)
        with pytest.raises(ValueError):
            part32.project(f, -2)

    def test_lowpass_is_partial_sum(self, part16):
        # the blocks telescope: sum_{q <= Q} Delta_q has multiplier
        # chi(|k| / 2^(Q+1))
        f = random_field(part16.grid, np.random.default_rng(1))
        kmag = oracles.k_mag(part16.grid)
        for Q in (-1, 0, 2, part16.q_max):
            total = np.zeros_like(half_cube(f))
            for q in range(-1, Q + 1):
                total += half_cube(part16.project(f, q))
            low = half_cube(f) * smooth_bridge_profile(kmag / 2.0 ** (Q + 1))
            assert np.abs(low - total).max() < 1e-14

    def test_bandpass_and_tilde(self, part16):
        # Delta_2 + Delta_3 has multiplier chi(|k|/16) - chi(|k|/4), and the
        # neighbours of a block sum to 1 on its support
        f = random_field(part16.grid, np.random.default_rng(2))
        kmag = oracles.k_mag(part16.grid)
        band = half_cube(part16.project(f, 2)) + half_cube(part16.project(f, 3))
        chi = smooth_bridge_profile
        expect = half_cube(f) * (chi(kmag / 16.0) - chi(kmag / 4.0))
        assert np.abs(band - expect).max() < 1e-14
        for q in part16.shell_range():
            block = part16.project(f, q)
            til = np.zeros_like(half_cube(block))
            for p in range(max(-1, q - 1), min(part16.q_max, q + 1) + 1):
                til += half_cube(part16.project(block, p))
            assert np.abs(til - half_cube(block)).max() < 1e-14

    def test_reconstruction(self, part32):
        for seed in range(20):
            f = random_field(part32.grid, np.random.default_rng(seed))
            total = np.zeros_like(half_cube(f))
            for q in part32.shell_range():
                total += half_cube(part32.project(f, q))
            rest = SpectralField(part32.grid, total - half_cube(f))
            assert l2_norm_spectral(rest) < 1e-10 * l2_norm_spectral(f)

    @given(seed=st.integers(0, 10_000), q=st.integers(-1, 3), p=st.integers(-1, 3))
    @settings(max_examples=25, deadline=None)
    def test_near_orthogonality(self, seed, q, p):
        part = build_partition(Grid(8))
        f = random_field(part.grid, np.random.default_rng(seed))
        double = part.project(part.project(f, p), q)
        if abs(q - p) >= 2:
            assert np.abs(double.coeffs).max() <= 1e-14 * np.abs(f.coeffs).max()

    def test_commutes_with_spectral_calculus(self, part16):
        f = random_field(part16.grid, np.random.default_rng(3))
        g = random_field(part16.grid, np.random.default_rng(4), ncomp=1)
        q = 2
        scale = np.abs(f.coeffs).max()
        a = part16.project(curl(f), q).coeffs - curl(part16.project(f, q)).coeffs
        assert np.abs(a).max() < 1e-14 * scale
        b = (
            part16.project(leray_project(f), q).coeffs
            - leray_project(part16.project(f, q)).coeffs
        )
        assert np.abs(b).max() < 1e-14 * scale
        c = (
            part16.project(gradient(g), q).coeffs
            - gradient(part16.project(g, q)).coeffs
        )
        assert np.abs(c).max() < 1e-14 * np.abs(g.coeffs).max()

    def test_preserves_solenoidality_and_symmetry(self, part16):
        from hallmhd.fields import divergence_error
        from hallmhd.oracles import hermitian_error

        f = leray_project(random_field(part16.grid, np.random.default_rng(5)))
        block = part16.project(f, 2)
        assert divergence_error(block) < 1e-12
        assert hermitian_error(block) < 1e-12


class TestBesov:
    """Per-shell L^inf and L^2 norms, the pieces of
    B^s_{p,inf} = sup_q lambda_q^s ||Delta_q f||_p."""

    def test_zero_field(self, part16):
        f = zero_field(part16.grid)
        assert not part16.shell_linf(f).any()
        assert not part16.shell_l2_sq(f).any()

    def test_single_shell_cosine(self, part32):
        # u_x = cos(4 x1) lies in shell 2 alone, with sup 1
        f = single_mode(part32.grid, (4, 0, 0))
        expect = np.zeros(part32.q_max + 2)
        expect[2 + 1] = 1.0
        assert np.abs(part32.shell_linf(f) - expect).max() < 1e-12

    def test_two_shell_field_frozen(self, part32):
        # modes |k|=2 (amp 1) and |k|=8 (amp 1/8): shell 1 reads 1, shell 3 1/8
        f = single_mode(part32.grid, (2, 0, 0), 1.0)
        f.coeffs += single_mode(part32.grid, (0, 8, 0), 0.125).coeffs
        expect = np.zeros(part32.q_max + 2)
        expect[1 + 1] = 1.0
        expect[3 + 1] = 0.125
        assert np.abs(part32.shell_linf(f) - expect).max() < 1e-12

    @pytest.mark.parametrize("n", [16, 32])
    def test_l2_matches_per_shell_sums(self, n):
        # white noise, n/2 planes included, and a band-limited random field;
        # shell q summed over the half cube with phi_q from the profile on
        # |k|, the kz = 0 and n/2 planes counted once, those between twice
        part = build_partition(Grid(n))
        g = part.grid
        chi = smooth_bridge_profile
        weight = np.full(n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        r = oracles.k_mag(g)
        rng = np.random.default_rng(n)
        noise = from_physical(rng.standard_normal((3, n, n, n)), g)
        for f in (noise, random_field(g, rng, k_lo=2.0, k_hi=g.dealias_cut)):
            power = np.sum(np.abs(half_cube(f)) ** 2, axis=0) * weight
            got = part.shell_l2_sq(f)
            for q in part.shell_range():
                phi = chi(r) if q < 0 else chi(r / 2 ** (q + 1)) - chi(r / 2**q)
                expect = (2 * np.pi) ** 3 * np.sum(phi**2 * power)
                assert got[q + 1] == pytest.approx(expect, rel=1e-14, abs=1e-14 * got.sum())

    def test_linf_matches_direct_summation(self):
        part = build_partition(Grid(8))
        f = random_field(part.grid, np.random.default_rng(8))
        got = part.shell_linf(f)
        for q in part.shell_range():
            samples = oracles.idft_direct(half_cube(part.project(f, q)))
            expect = np.sqrt(np.sum(samples**2, axis=0)).max()
            assert got[q + 1] == pytest.approx(expect, rel=1e-12, abs=1e-15)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_besov_l2_below_full_l2(self, seed):
        # B^0_{2,inf} = sup_q ||Delta_q f||_2 <= ||f||_2
        part = build_partition(Grid(8))
        f = random_field(part.grid, np.random.default_rng(seed))
        assert np.sqrt(part.shell_l2_sq(f).max()) <= lp_norm(f, 2.0) * (1 + 1e-12)


def linf_per_block(part, f):
    """The shell sup norms read from each projected block's own samples."""
    return np.array([lp_norm(part.project(f, q), np.inf) for q in part.shell_range()])


def assert_within_shell_bound(got, ref):
    """|got - ref| <= 1e-15 ref per shell, so exactly 0 where ref is 0: the
    streamed sup's dense z products match irfftn to rounding."""
    err = np.abs(got - ref)
    assert np.all(err <= 1e-15 * ref), (err / np.where(ref > 0, ref, 1.0)).max()


class TestShellLinfBoxes:
    """shell_linf streams each shell on the box of its cut; it must match
    the per-block half-cube norms to 1e-15 relative, with exact zeros, and
    bit for bit on the half-cube path and on the mean-only shell."""

    @pytest.mark.parametrize("hall", [False, True], ids=["mhd", "hall"])
    def test_stepped_random_band(self, hall):
        # after a step the state is zero beyond the dealias box
        grid = Grid(32)
        cfg = RunConfig(
            n=32, dt=1e-4, t_end=1.0, nu=0.01, mu=0.01, hall_on=hall,
            init={"kind": "random_band"},
        )
        u0, b0 = make_initial(cfg.init, grid, 3)
        state = Stepper(grid, cfg).step(SolverState(0.0, u0, b0))
        part = build_partition(grid)
        for f in (state.u, state.b):
            assert_within_shell_bound(part.shell_linf(f), linf_per_block(part, f))

    def test_whistler_support_cut_one(self, part32):
        _, b = whistler_initial(part32.grid, 1.0, 1e-6, 1)
        got, ref = part32.shell_linf(b), linf_per_block(part32, b)
        assert_within_shell_bound(got, ref)
        assert got[0] == ref[0]  # the mean-only shell
        assert got[0] > 0.0 and got[1] > 0.0 and not got[2:].any()

    def test_mean_only_field(self, part32):
        f = box_limited_noise(part32.grid, 10, 0)
        got = part32.shell_linf(f)
        assert got[0] > 0.0 and not got[1:].any()
        assert np.array_equal(got, linf_per_block(part32, f))

    @pytest.mark.parametrize("n, cut", [(10, None), (24, 5)])
    def test_other_grids(self, n, cut):
        grid = Grid(n, cut)
        part = build_partition(grid)
        f = oracles.dealias(random_field(grid, np.random.default_rng(n)))
        assert_within_shell_bound(part.shell_linf(f), linf_per_block(part, f))

    @pytest.mark.parametrize("ncomp", [1, 9])
    @pytest.mark.parametrize("k_hi", [1.0, 5.0, None])
    def test_scalar_and_tensor_fields(self, part16, ncomp, k_hi):
        f = random_field(part16.grid, np.random.default_rng(ncomp), ncomp=ncomp, k_hi=k_hi)
        assert_within_shell_bound(part16.shell_linf(f), linf_per_block(part16, f))

    def test_zero_field(self, part32):
        f = zero_field(part32.grid)
        assert_within_shell_bound(part32.shell_linf(f), linf_per_block(part32, f))

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_support_cut_at_a_shell_bound(self, part32, q):
        # support cut 2^(q+1) - 1: shell q's own box and the field's coincide
        f = box_limited_noise(part32.grid, 12 + q, 2 ** (q + 1) - 1)
        assert_within_shell_bound(part32.shell_linf(f), linf_per_block(part32, f))

    @given(seed=st.integers(0, 10_000), cut=st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_random_support_cuts(self, seed, cut):
        part = build_partition(Grid(16))
        f = box_limited_noise(part.grid, seed, cut)
        assert_within_shell_bound(part.shell_linf(f), linf_per_block(part, f))

    def test_builds_no_sample_cube(self):
        # the shells stream through one x-pass buffer and one slab, and the
        # multiplier enters one component at a time: the norms of a stepped
        # n = 64 state, which fills the dealias box, allocate less than one
        # (3, 64, 64, 64) sample cube, and less than the sup's buffers and
        # one 3-component box of the dealias cut, which the top shell would
        # fill.  The first call fills the caches
        import tracemalloc

        grid = Grid(64)
        cfg = RunConfig(
            n=64, dt=1e-4, t_end=1.0, nu=0.01, mu=0.01, init={"kind": "random_band"}
        )
        state = Stepper(grid, cfg).step(SolverState(0.0, *make_initial(cfg.init, grid, 2)))
        part, u = build_partition(grid), state.u
        assert fields._support_cut(u.coeffs) == grid.dealias_cut
        part.shell_linf(u)
        tracemalloc.start()
        try:
            part.shell_linf(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        c = grid.dealias_cut
        sup = fields._BoxSup(grid, 3, c)
        buffers = sup._x.nbytes + sup._y.nbytes + sup._samples.nbytes
        assert peak < 3 * 64**3 * 8
        assert peak < buffers + 3 * (2 * c + 1) ** 2 * (c + 1) * 16


def lambda_q(q):
    """Dyadic wavenumber 2^q, with the q = -1 weight fixed to 1/2."""
    return 0.5 if q == -1 else float(2**q)


class TestSobolev:
    """Homogeneous H^s norm against its dyadic form
    sqrt(sum_q lambda_q^{2s} ||Delta_q f||_2^2) from shell_l2_sq."""

    @staticmethod
    def norms(part, f, s):
        ksq = oracles.full_cube(oracles.k_sq(part.grid))
        w = np.where(ksq > 0, ksq, 1.0) ** s * (ksq > 0)
        power = np.sum(np.abs(oracles.full_cube(half_cube(f))) ** 2, axis=0)
        direct = np.sqrt((2 * np.pi) ** 3 * np.sum(w * power))
        weights = np.array([lambda_q(q) ** (2 * s) for q in part.shell_range()])
        return direct, np.sqrt(np.sum(weights * part.shell_l2_sq(f)))

    def test_zero_field(self, part16):
        assert self.norms(part16, zero_field(part16.grid), 2.0) == (0.0, 0.0)

    def test_pure_shell_ratio_is_one(self, part32):
        f = single_mode(part32.grid, (4, 0, 0))
        direct, lp_form = self.norms(part32, f, 2.0)
        assert direct == pytest.approx(16.0 * l2_norm_spectral(f), rel=1e-12)
        assert lp_form == pytest.approx(direct, rel=1e-12)

    def test_random_field_within_envelope(self, part32):
        # the ratio of the two forms lies between the extremes of
        # sum_q lambda_q^{2s} phi_q(k)^2 / |k|^{2s} over k != 0, and the
        # partition keeps those extremes on either side of 1
        s = 3.0
        kmag = oracles.k_mag(part32.grid)
        nonzero = kmag > 0
        sym = sum(
            lambda_q(q) ** (2 * s) * part32._mult(q, half_k_sq(part32.grid)) ** 2
            for q in part32.shell_range()
        )
        sym = sym[nonzero] / kmag[nonzero] ** (2 * s)
        c_low, c_high = np.sqrt(sym.min()), np.sqrt(sym.max())
        assert 0 < c_low < 1 < c_high
        for seed in range(5):
            f = random_field(
                part32.grid, np.random.default_rng(seed), k_lo=1.0, k_hi=10.0
            )
            direct, lp_form = self.norms(part32, f, s)
            ratio = lp_form / direct
            assert c_low - 1e-12 <= ratio <= c_high + 1e-12


class TestBernstein:
    """||Delta_q f||_inf against lambda_q^{3/2} ||Delta_q f||_2, from
    shell_linf and shell_l2_sq."""

    @staticmethod
    def ratio(part, f, q):
        l2 = np.sqrt(part.shell_l2_sq(f)[q + 1])
        if l2 == 0.0:
            return 0.0
        return part.shell_linf(f)[q + 1] / (lambda_q(q) ** 1.5 * l2)

    def test_zero_field(self, part16):
        assert self.ratio(part16, zero_field(part16.grid), 2) == 0.0

    def test_single_mode_analytic(self, part32):
        # cos mode at |k| = 2^q: ratio = 1 / (lambda_q^{3/2} sqrt((2 pi)^3 / 2))
        vol = (2 * np.pi) ** 3
        for q in (1, 2, 3):
            f = single_mode(part32.grid, (2**q, 0, 0))
            expect = 1.0 / (2 ** (1.5 * q) * np.sqrt(vol / 2))
            assert self.ratio(part32, f, q) == pytest.approx(expect, rel=1e-12)

    def test_applies_shell_projection_internally(self, part16):
        # broadband input: both shell norms must be those of the q-block
        f = random_field(part16.grid, np.random.default_rng(7))
        for q in part16.shell_range():
            block = part16.project(f, q)
            assert abs(part16.shell_linf(f)[q + 1] - lp_norm(block, np.inf)) <= (
                1e-15 * lp_norm(block, np.inf)
            )
            assert np.sqrt(part16.shell_l2_sq(f)[q + 1]) == pytest.approx(
                lp_norm(block, 2.0), rel=1e-12
            )


def dyadic_state(n):
    """(u, b) half cubes of exact binary fractions, Hermitian on the kz = 0
    plane and zero on the n/2 planes, built without a transform, so that a
    file written from them is the same on every platform."""
    i = np.arange(2 * 3 * n * n * (n // 2 + 1)).reshape(2, 3, n, n, n // 2 + 1)
    c = ((i * 37) % 17 - 8) / 4 + 1j * ((i * 11) % 13 - 6) / 8
    p = c[..., 0]
    c[..., 0] = (p + np.conj(np.roll(p[..., ::-1, ::-1], 1, axis=(-2, -1)))) / 2
    h = n // 2
    c[..., h, :, :] = c[..., :, h, :] = c[..., h] = 0.0
    return c


# SHA-256 of the v1 file of dyadic_state(8) at t = 0.25, nu = 0.01,
# mu = 0.02, the same bytes as written when fields could hold n/2 content
# (and, before that, stored the full cube); a change of the on-disk layout
# changes it
DYADIC_STATE_SHA256 = "3b29cb1b802c0a36cbc6e11402ab5cee7942c68ea9eb0565ff72dfecb8efa6b4"


class TestCheckpointCodec:
    def test_layout_pinned(self, tmp_path):
        import hashlib

        from hallmhd.checkpoint import read_checkpoint, write_checkpoint

        g = Grid(8)
        u, b = (SpectralField(g, c) for c in dyadic_state(8))
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 0.25, 0.01, 0.02, u, b)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DYADIC_STATE_SHA256
        _, _, _, u2, b2 = read_checkpoint(path)
        assert u2.coeffs.tobytes() == u.coeffs.tobytes()
        assert b2.coeffs.tobytes() == b.coeffs.tobytes()

    def test_read_peaks_near_file_size(self, tmp_path):
        # the payload is read one field at a time into one reused cube, so a
        # read holds that cube and the two half cubes it returns, about the
        # file size, not the whole payload on top of them
        import tracemalloc

        from hallmhd.checkpoint import read_checkpoint, write_checkpoint

        g = Grid(32)
        rng = np.random.default_rng(4)
        u, b = random_field(g, rng), random_field(g, rng, zero_mean=False)
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 0.5, 0.1, 0.2, u, b)
        tracemalloc.start()
        try:
            _, _, _, u2, b2 = read_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * path.stat().st_size
        assert u2.coeffs.tobytes() == u.coeffs.tobytes()
        assert b2.coeffs.tobytes() == b.coeffs.tobytes()

    @pytest.mark.parametrize("n", [8, 10])
    def test_payload_is_the_hermitian_fill(self, tmp_path, n):
        # the file holds the full cube that oracles.full_cube extends the
        # stored half cube to; n = 10 has an odd n/2
        from hallmhd.checkpoint import write_checkpoint

        g = Grid(n)
        rng = np.random.default_rng(n)
        u = leray_project(random_field(g, rng))
        b = random_field(g, rng, zero_mean=False)
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 0.5, 0.1, 0.2, u, b)
        payload = np.frombuffer(path.read_bytes()[36:], dtype="<c16")
        expect = np.stack([oracles.full_cube(half_cube(f)) for f in (u, b)])
        assert payload.tobytes() == expect.astype("<c16").tobytes()

    def test_round_trip_bit_exact(self, tmp_path):
        # every bit of the half cube, the sign of its zeros included, also
        # for a stepped state, which holds exact zeros beyond the cut, and a
        # whistler state, whose coefficients are set directly
        from hallmhd.checkpoint import read_checkpoint, write_checkpoint

        g = Grid(8)
        rng = np.random.default_rng(21)
        noise = [leray_project(random_field(g, rng)) for _ in "ub"]
        grid = Grid(16)
        cfg = RunConfig(
            n=16, dt=1e-3, t_end=1.0, nu=0.05, mu=0.05, init={"kind": "random_band"}
        )
        stepped = Stepper(grid, cfg).step(
            SolverState(0.0, *make_initial(cfg.init, grid, 2))
        )
        path = tmp_path / "state.hmhd"
        for u, b in (noise, (stepped.u, stepped.b), whistler_initial(grid, 1.0, 1e-6, -2)):
            write_checkpoint(path, 0.375, 0.01, 0.02, u, b)
            t, nu, mu, u2, b2 = read_checkpoint(path)
            assert (t, nu, mu) == (0.375, 0.01, 0.02)
            assert u2.coeffs.tobytes() == u.coeffs.tobytes()
            assert b2.coeffs.tobytes() == b.coeffs.tobytes()
        # the benchmark's check: the fields read back equal the state's,
        # both on the stepped state's dealias box
        write_checkpoint(path, 0.0, 0.05, 0.05, stepped.u, stepped.b)
        _, _, _, u2, b2 = read_checkpoint(path)
        assert np.array_equal(u2.coeffs, stepped.u.coeffs)
        assert np.array_equal(b2.coeffs, stepped.b.coeffs)
        assert u2.coeffs.shape == b2.coeffs.shape == (3, 11, 11, 6)

    def test_header_layout(self, tmp_path):
        from hallmhd.checkpoint import write_checkpoint

        g = Grid(8)
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 1.0, 0.1, 0.2, zero_field(g), zero_field(g))
        raw = path.read_bytes()
        assert raw[:4] == b"HMHD"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:12], "little") == 8  # n
        assert len(raw) == 36 + 2 * 3 * 8**3 * 16

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        from hallmhd.checkpoint import write_checkpoint

        g = Grid(8)
        rng = np.random.default_rng(22)
        u = leray_project(random_field(g, rng))
        b = leray_project(random_field(g, rng))
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 0.5, 0.1, 0.2, u, b)
        before = path.read_bytes()

        class FailingCoeffs:
            # passes the shape check, then fails once the header and u are
            # already written, as a full disk would
            shape = b.coeffs.shape

            def __array__(self, dtype=None, copy=None):
                raise OSError("no space left on device")

        b.coeffs = FailingCoeffs()
        with pytest.raises(OSError, match="no space"):
            write_checkpoint(path, 0.75, 0.1, 0.2, u, b)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.hmhd"]

    def test_truncated_file_rejected(self, tmp_path):
        from hallmhd.checkpoint import CheckpointError, read_checkpoint, write_checkpoint

        g = Grid(8)
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 0.0, 0.1, 0.2, zero_field(g), zero_field(g))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="checkpoint parse"):
            read_checkpoint(path)

    @pytest.mark.parametrize("n", [0, 9])
    def test_bad_grid_size_in_header_rejected(self, tmp_path, n):
        # n = 0 with an empty payload, and an odd n whose payload length
        # matches, both fail on the header field rather than in Grid
        import struct

        from hallmhd.checkpoint import CheckpointError, read_checkpoint

        path = tmp_path / "bad_n.hmhd"
        header = struct.pack("<4sIIddd", b"HMHD", 1, n, 0.0, 0.1, 0.2)
        path.write_bytes(header + b"\x00" * (2 * 3 * n**3 * 16))
        with pytest.raises(CheckpointError, match="header field n"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "field, index",
        [("u", (0, 4, 0, 0)), ("u", (1, 1, 4, 2)), ("b", (2, 3, 5, 4))],
        ids=["u_kx", "u_ky", "b_kz"],
    )
    def test_nyquist_content_rejected(self, tmp_path, field, index):
        # a v1 file whose u or b holds content on an n/2 plane (kx, ky and
        # kz = n/2 in turn), which no field can, written byte by byte
        import struct

        from hallmhd.checkpoint import CheckpointError, read_checkpoint

        n = 8
        payload = np.zeros((2, 3, n, n, n), dtype="<c16")
        payload[("ub".index(field),) + index] = 1.0
        path = tmp_path / "nyquist.hmhd"
        header = struct.pack("<4sIIddd", b"HMHD", 1, n, 0.0, 0.1, 0.2)
        path.write_bytes(header + payload.tobytes())
        with pytest.raises(CheckpointError, match=f"field {field}: .* n/2 = 4 plane"):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        from hallmhd.checkpoint import CheckpointError, read_checkpoint

        path = tmp_path / "bogus.hmhd"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="checkpoint parse"):
            read_checkpoint(path)
