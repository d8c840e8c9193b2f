"""Bony decomposition completeness, commutator identities, lemma-ratio sanity."""

import numpy as np
import pytest

from hallmhd import oracles
from hallmhd.fields import (
    Grid,
    SpectralField,
    curl,
    from_physical,
    gradient,
    inner_product,
    l2_norm_spectral,
    leray_project,
    lp_norm,
    random_field,
    zero_field,
)
from hallmhd.littlewood_paley import build_partition
from hallmhd.paraproduct import (
    advect,
    advective_commutator,
    bony_decompose,
    cross_with_curl,
    hall_commutator,
    hall_commutator_pairing,
)


@pytest.fixture(scope="module")
def part16():
    return build_partition(Grid(16))


def constant_vector(grid, vec):
    c = np.zeros((3, grid.n, grid.n, grid.n), dtype=np.complex128)
    c[:, 0, 0, 0] = vec
    return SpectralField(grid, c, is_solenoidal=True)


def solenoidal_band(grid, seed, k_lo=0.0, k_hi=None):
    return leray_project(
        random_field(grid, np.random.default_rng(seed), k_lo=k_lo, k_hi=k_hi)
    )


class TestProducts:
    @staticmethod
    def check_against_oracle(got, expect):
        # the padded product zeroes the n/2 planes; everywhere else it is the
        # exact, unaliased triad sum
        h = got.grid.n // 2
        keep = np.ones(expect.shape[1:], dtype=bool)
        keep[h, :, :] = keep[:, h, :] = keep[:, :, h] = False
        assert np.abs(got.coeffs[:, ~keep]).max() == 0.0
        err = np.abs(got.coeffs - expect)[:, keep].max()
        assert err < 1e-12 * np.abs(expect[:, keep]).max()

    def test_advect_matches_triad_oracle(self):
        # broadband inputs, whose products reach far past the 2/3-rule cut
        g = Grid(8)
        u = solenoidal_band(g, 0)
        v = random_field(g, np.random.default_rng(1))
        dv = gradient(v).coeffs  # d_j v_i at 3*i + j
        uc = u.coeffs
        expect = np.stack(
            [
                sum(oracles.convolve_direct(uc[j], dv[3 * i + j]) for j in range(3))
                for i in range(3)
            ]
        )
        self.check_against_oracle(advect(u, v), expect)

    def test_cross_with_curl_matches_triad_oracle(self):
        g = Grid(8)
        rng = np.random.default_rng(2)
        F = random_field(g, rng)
        G = random_field(g, rng)
        f, cg = F.coeffs, curl(G).coeffs
        expect = np.stack(
            [
                oracles.convolve_direct(f[(i + 1) % 3], cg[(i + 2) % 3])
                - oracles.convolve_direct(f[(i + 2) % 3], cg[(i + 1) % 3])
                for i in range(3)
            ]
        )
        self.check_against_oracle(cross_with_curl(F, G), expect)

    def test_cross_with_curl_single_mode(self, part16):
        # F = x_hat const, G = (0, cos z, 0): curl G = (sin z, 0, 0) wait --
        # curl G = (d_y G_z - d_z G_y, d_z G_x - d_x G_z, d_x G_y - d_y G_x)
        #        = (sin z, 0, 0); F x curl G = (0, 0, 0) x ... cross of
        # parallel vectors vanishes; use F = y_hat: y x x = -z
        g = part16.grid
        _, _, z = g.mesh()
        G = from_physical(np.stack([0 * z, np.cos(z), 0 * z]), g)
        F = constant_vector(g, [0.0, 1.0, 0.0])
        got = cross_with_curl(F, G)
        expect = np.stack([0 * z, 0 * z, -np.sin(z)])
        err = np.abs(
            got.coeffs - from_physical(expect, g).coeffs
        ).max()
        assert err < 1e-14


class TestBony:
    def test_constant_v_gives_zero(self, part16):
        g = part16.grid
        u = solenoidal_band(g, 2, k_hi=4.0)
        v = constant_vector(g, [1.0, 2.0, 3.0])
        triple = bony_decompose(part16, u, v, q=1)
        for f in (triple.low_high, triple.high_low, triple.high_high):
            assert np.abs(f.coeffs).max() < 1e-14

    def test_scale_separation_only_low_high(self):
        # u at |k| = 2, v at |k| = 16, q = 4: only the low-high class survives
        g = Grid(40)
        part = build_partition(g)
        _, y, _ = g.mesh()
        u = from_physical(np.stack([np.cos(2 * y), 0 * y, 0 * y]), g)
        u.is_solenoidal = True
        x, _, _ = g.mesh()
        v = from_physical(np.stack([0 * x, np.cos(16 * x), 0 * x]), g)
        triple = bony_decompose(part, u, v, q=4)
        scale = np.abs(triple.low_high.coeffs).max()
        assert scale > 0
        assert np.abs(triple.high_low.coeffs).max() < 1e-14 * scale
        assert np.abs(triple.high_high.coeffs).max() < 1e-14 * scale
        direct = part.project(advect(u, v), 4)
        assert np.abs(triple.low_high.coeffs - direct.coeffs).max() < 1e-12 * scale

    def test_completeness_random_fields(self, part16):
        g = part16.grid
        for seed in range(3):
            u = solenoidal_band(g, 10 + seed, k_hi=8.0)
            v = solenoidal_band(g, 20 + seed, k_hi=8.0)
            full = advect(u, v)
            floor = 1e-14 * l2_norm_spectral(full)  # empty blocks are pure roundoff
            for q in (-1, 0, 2, 4):
                triple = bony_decompose(part16, u, v, q)
                direct = part16.project(full, q)
                err = l2_norm_spectral(triple.total() - direct)
                ref = l2_norm_spectral(direct)
                assert err <= max(1e-10 * ref, floor)

    def test_rejects_nonsolenoidal_u(self, part16):
        g = part16.grid
        u = random_field(g, np.random.default_rng(30), k_hi=4.0)  # not projected
        v = solenoidal_band(g, 31, k_hi=4.0)
        with pytest.raises(ValueError, match="solenoidal"):
            bony_decompose(part16, u, v, q=2)


class TestAdvectiveCommutator:
    def test_constant_transport_commutes(self, part16):
        g = part16.grid
        u = constant_vector(g, [0.7, -0.3, 1.1])
        v = solenoidal_band(g, 3, k_lo=3.0, k_hi=8.0)
        comm = advective_commutator(part16, u, v, q=3)
        assert np.abs(comm.coeffs).max() < 1e-13 * np.abs(v.coeffs).max()

    def test_zero_shell_field(self, part16):
        g = part16.grid
        u = solenoidal_band(g, 4, k_hi=2.0)
        comm = advective_commutator(part16, u, zero_field(g), q=3)
        assert np.abs(comm.coeffs).max() == 0.0

    def test_definition_identity(self, part16):
        # commutator equals the two-term definition assembled by hand
        g = part16.grid
        u_low = part16.lowpass(solenoidal_band(g, 5, k_hi=4.0), 2)
        v = part16.project(random_field(g, np.random.default_rng(6)), 3)
        comm = advective_commutator(part16, u_low, v, q=3)
        manual = part16.project(advect(u_low, v), 3) - advect(
            u_low, part16.project(v, 3)
        )
        err = np.abs(comm.coeffs - manual.coeffs).max()
        assert err < 1e-12 * max(np.abs(comm.coeffs).max(), 1e-30)

    def test_lemma_ratio_sanity(self, part16):
        # ||[Delta_q, u.grad] v||_2 <= C ||grad u||_inf ||v||_2, C order one
        g = part16.grid
        ratios = []
        for seed in range(10):
            u_low = part16.lowpass(solenoidal_band(g, 100 + seed, k_hi=4.0), 2)
            v = part16.project(random_field(g, np.random.default_rng(200 + seed)), 3)
            comm = advective_commutator(part16, u_low, v, q=3)
            denom = lp_norm(gradient(u_low), np.inf) * lp_norm(v, 2.0)
            if denom > 0:
                ratios.append(lp_norm(comm, 2.0) / denom)
        assert ratios and all(np.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) < 10.0


class TestHallCommutator:
    def test_constant_prefactor(self, part16):
        g = part16.grid
        F = constant_vector(g, [1.0, 0.5, -0.2])
        G = part16.project(random_field(g, np.random.default_rng(7)), 3)
        comm = hall_commutator(part16, F, G, q=3)
        assert np.abs(comm.coeffs).max() < 1e-13 * np.abs(G.coeffs).max()

    def test_shell_pure_beltrami_collapses(self, part16):
        # ABC field lives in shell 0 (|k| = 1): with F = G and Delta_0 G = G,
        # both commutator terms are cross products of parallel fields
        g = part16.grid
        x, y, z = g.mesh()
        G = from_physical(
            np.stack(
                [np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)]
            ),
            g,
        )
        G.is_solenoidal = True
        comm = hall_commutator(part16, G, G, q=0)
        assert np.abs(comm.coeffs).max() < 1e-13

    def test_rejects_nonsolenoidal_prefactor(self, part16):
        g = part16.grid
        F = random_field(g, np.random.default_rng(8), k_hi=4.0)
        G = solenoidal_band(g, 9, k_hi=8.0)
        with pytest.raises(ValueError, match="solenoidal"):
            hall_commutator(part16, F, G, q=2)

    def test_lemma_ratio_sanity(self, part16):
        g = part16.grid
        ratios = []
        for seed in range(10):
            F = part16.lowpass(solenoidal_band(g, 300 + seed, k_hi=4.0), 2)
            G = part16.project(random_field(g, np.random.default_rng(400 + seed)), 3)
            comm = hall_commutator(part16, F, G, q=3)
            denom = lp_norm(gradient(F), np.inf) * lp_norm(G, 2.0)
            if denom > 0:
                ratios.append(lp_norm(comm, 2.0) / denom)
        assert ratios and all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 10.0


class TestHallPairing:
    def test_zero_h(self, part16):
        g = part16.grid
        F = part16.lowpass(solenoidal_band(g, 10, k_hi=4.0), 2)
        G = part16.project(random_field(g, np.random.default_rng(11)), 3)
        value, ratio = hall_commutator_pairing(part16, F, G, zero_field(g), q=3)
        assert value == 0.0
        assert ratio == 0.0

    def test_constant_f(self, part16):
        g = part16.grid
        F = constant_vector(g, [0.2, 0.4, 0.8])
        G = part16.project(random_field(g, np.random.default_rng(12)), 3)
        H = solenoidal_band(g, 13, k_hi=8.0)
        value, ratio = hall_commutator_pairing(part16, F, G, H, q=3)
        assert abs(value) < 1e-12 * l2_norm_spectral(G) * l2_norm_spectral(H)

    def test_exponent_duality_enforced(self, part16):
        g = part16.grid
        f = zero_field(g)
        with pytest.raises(ValueError, match="1/r1"):
            hall_commutator_pairing(part16, f, f, f, q=2, r1=2.0, r2=3.0)

    def test_pairing_matches_inner_product(self, part16):
        g = part16.grid
        F = part16.lowpass(solenoidal_band(g, 14, k_hi=4.0), 2)
        G = part16.project(random_field(g, np.random.default_rng(15)), 3)
        H = solenoidal_band(g, 16, k_hi=8.0)
        value, ratio = hall_commutator_pairing(part16, F, G, H, q=3)
        comm = hall_commutator(part16, F, G, q=3)
        assert value == pytest.approx(inner_product(comm, curl(H)), rel=1e-12)
        assert np.isfinite(ratio) and ratio >= 0
