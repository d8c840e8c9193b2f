"""Dyadic partition, shell projections, Besov/Sobolev norms, Bernstein ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmhd.fields import (
    Grid,
    SpectralField,
    curl,
    from_physical,
    gradient,
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
    lambda_q,
    smooth_bridge_profile,
)

# frozen from the default profile: the bridge g is symmetric about s = 1/2,
# so chi(7/8) = g(1/2) = 1/2 exactly
CHI_AT_7_8 = 0.5


def single_mode(grid, kvec, amplitude=1.0, comp=0, ncomp=3):
    c = np.zeros((ncomp, grid.n, grid.n, grid.n), dtype=np.complex128)
    ka = tuple(np.asarray(kvec) % grid.n)
    kb = tuple((-np.asarray(kvec)) % grid.n)
    c[(comp,) + ka] = amplitude / 2.0
    c[(comp,) + kb] += amplitude / 2.0
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

    def test_bad_profiles_rejected(self):
        with pytest.raises(PartitionError):
            build_partition(Grid(8), chi=lambda r: np.exp(-np.asarray(r) ** 2))
        with pytest.raises(PartitionError):  # wrong support
            build_partition(
                Grid(8), chi=lambda r: (np.asarray(r) <= 2.0).astype(float)
            )


class TestPartition:
    def test_unity_on_resolved_wavenumbers(self, part32):
        assert part32.unity_error <= 1e-12
        assert part32.unity_radius == pytest.approx(part32.grid.k_max)

    def test_supports_are_dyadic_annuli(self, part32):
        kmag = part32.grid.k_mag
        for q in range(0, part32.q_max + 1):
            mult = part32.multipliers[q + 1]
            active = mult > 0
            if not active.any():
                continue
            assert kmag[active].min() > 0.75 * 2**q
            assert kmag[active].max() < 2.0 ** (q + 1)

    def test_q_max_matches_resolution(self):
        assert build_partition(Grid(8)).q_max == 3
        assert build_partition(Grid(16)).q_max == 4
        assert build_partition(Grid(32)).q_max == 5

    def test_dealias_limited_q_max(self, part32):
        # shells with 3/4 * 2^q > dealias_cut (=10) are empty after dealiasing
        assert dealias_limited_q_max(part32) == 3

    def test_sharp_mode_partition(self):
        part = build_partition(Grid(16), mode="sharp")
        assert part.unity_error <= 1e-15
        f = random_field(Grid(16), np.random.default_rng(0))
        assert part.reconstruction_error(f) < 1e-14


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
        c = np.zeros((3, 32, 32, 32), dtype=np.complex128)
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
        rebuilt = b2 + b3
        assert np.abs(rebuilt.coeffs - f.coeffs).max() < 1e-14

    def test_out_of_range_shell(self, part32):
        f = zero_field(part32.grid)
        with pytest.raises(ValueError):
            part32.project(f, part32.q_max + 1)
        with pytest.raises(ValueError):
            part32.project(f, -2)

    def test_lowpass_is_partial_sum(self, part16):
        f = random_field(part16.grid, np.random.default_rng(1))
        for Q in (-1, 0, 2, part16.q_max):
            total = zero_field(part16.grid)
            for q in range(-1, Q + 1):
                total = total + part16.project(f, q)
            low = part16.lowpass(f, Q)
            assert np.abs(low.coeffs - total.coeffs).max() < 1e-14

    def test_bandpass_and_tilde(self, part16):
        f = random_field(part16.grid, np.random.default_rng(2))
        band = part16.bandpass(f, 1, 3)
        expect = part16.project(f, 2) + part16.project(f, 3)
        assert np.abs(band.coeffs - expect.coeffs).max() < 1e-14
        til = part16.tilde(f, 2)
        expect = part16.project(f, 1) + part16.project(f, 2) + part16.project(f, 3)
        assert np.abs(til.coeffs - expect.coeffs).max() < 1e-14

    def test_reconstruction(self, part32):
        for seed in range(20):
            f = random_field(part32.grid, np.random.default_rng(seed))
            assert part32.reconstruction_error(f) < 1e-10

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
        from hallmhd.fields import divergence_error, hermitian_error

        f = leray_project(random_field(part16.grid, np.random.default_rng(5)))
        block = part16.project(f, 2)
        assert block.is_solenoidal
        assert divergence_error(block) < 1e-12
        assert hermitian_error(block) < 1e-12


class TestBesov:
    def test_zero_field(self, part16):
        assert part16.besov_norm(zero_field(part16.grid), 1.0, np.inf) == 0.0

    def test_single_shell_cosine(self, part32):
        # u_x = cos(4 x1): B^1_{inf,inf} = lambda_2 * 1 = 4
        f = single_mode(part32.grid, (4, 0, 0))
        assert part32.besov_norm(f, 1.0, np.inf) == pytest.approx(4.0, rel=1e-12)

    def test_two_shell_field_frozen(self, part32):
        # modes |k|=2 (amp 1) and |k|=8 (amp 1/8): sup(2*1, 8/8) = 2
        f = single_mode(part32.grid, (2, 0, 0), 1.0) + single_mode(
            part32.grid, (0, 8, 0), 0.125
        )
        assert part32.besov_norm(f, 1.0, np.inf) == pytest.approx(2.0, rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_besov_l2_below_full_l2(self, seed):
        part = build_partition(Grid(8))
        f = random_field(part.grid, np.random.default_rng(seed))
        assert part.besov_norm(f, 0.0, 2.0) <= lp_norm(f, 2.0) * (1 + 1e-12)


class TestSobolev:
    def test_zero_field(self, part16):
        assert part16.sobolev_norm(zero_field(part16.grid), 2.0) == (0.0, 0.0)

    def test_pure_shell_ratio_is_one(self, part32):
        f = single_mode(part32.grid, (4, 0, 0))
        direct, lp_form = part32.sobolev_norm(f, 2.0)
        assert direct == pytest.approx(16.0 * l2_norm_spectral(f), rel=1e-12)
        assert lp_form == pytest.approx(direct, rel=1e-12)

    def test_random_field_within_envelope(self, part32):
        c_low, c_high = part32.sobolev_equivalence_envelope(3.0)
        assert 0 < c_low < 1 < c_high
        for seed in range(5):
            f = random_field(
                part32.grid, np.random.default_rng(seed), k_lo=1.0, k_hi=10.0
            )
            direct, lp_form = part32.sobolev_norm(f, 3.0)
            ratio = lp_form / direct
            assert c_low - 1e-12 <= ratio <= c_high + 1e-12


class TestBernstein:
    def test_zero_field(self, part16):
        assert part16.bernstein_ratio(zero_field(part16.grid), 2, np.inf, 2.0) == 0.0

    def test_single_mode_analytic(self, part32):
        # cos mode at |k| = 2^q: ratio = 1 / (lambda_q^{3/2} sqrt((2 pi)^3 / 2))
        vol = (2 * np.pi) ** 3
        for q in (1, 2, 3):
            f = single_mode(part32.grid, (2**q, 0, 0))
            expect = 1.0 / (2 ** (1.5 * q) * np.sqrt(vol / 2))
            got = part32.bernstein_ratio(f, q, np.inf, 2.0)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_exponent_order_enforced(self, part16):
        f = random_field(part16.grid, np.random.default_rng(0))
        with pytest.raises(ValueError):
            part16.bernstein_ratio(f, 2, 2.0, 4.0)

    def test_applies_shell_projection_internally(self, part16):
        # broadband input: ratio must be computed from the q-block norms
        f = random_field(part16.grid, np.random.default_rng(7))
        block = part16.project(f, 2)
        expect = lp_norm(block, np.inf) / (2 ** (1.5 * 2) * lp_norm(block, 2.0))
        assert part16.bernstein_ratio(f, 2, np.inf, 2.0) == pytest.approx(
            expect, rel=1e-12
        )


class TestCheckpointCodec:
    def test_round_trip_bit_exact(self, tmp_path):
        from hallmhd.checkpoint import read_checkpoint, write_checkpoint

        g = Grid(8)
        rng = np.random.default_rng(21)
        u = leray_project(random_field(g, rng))
        b = leray_project(random_field(g, rng))
        path = tmp_path / "state.hmhd"
        write_checkpoint(path, 0.375, 0.01, 0.02, u, b)
        t, nu, mu, u2, b2 = read_checkpoint(path)
        assert (t, nu, mu) == (0.375, 0.01, 0.02)
        assert np.array_equal(u2.coeffs, u.coeffs)
        assert np.array_equal(b2.coeffs, b.coeffs)

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

    def test_bad_magic_rejected(self, tmp_path):
        from hallmhd.checkpoint import CheckpointError, read_checkpoint

        path = tmp_path / "bogus.hmhd"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="checkpoint parse"):
            read_checkpoint(path)
