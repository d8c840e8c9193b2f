"""Dyadic Littlewood-Paley decomposition on the grid's wavenumbers.

The partition is the family {chi, phi_q}: a smooth radial cutoff chi with
chi(r) = 1 for r <= 3/4, chi(r) = 0 for r >= 1, and the annular bumps
phi(r) = chi(r/2) - chi(r), phi_q(r) = phi(r / 2^q) for q >= 0, phi_{-1} = chi.
Shell projections act as Fourier multipliers (the physical kernels are never
materialized).
"""

from __future__ import annotations

import numpy as np

from .fields import Grid, SpectralField, _half, _hermitian_sum, lp_norm

UNITY_TOL = 1e-12


class PartitionError(ValueError):
    """Profile violates the plateau/support/monotonicity constraints."""


def smooth_bridge_profile(r):
    """Default cutoff: 1 on [0, 3/4], 0 on [1, inf), and the smooth monotone
    bridge g((1-r)/(1/4)) with g(s) = e^{-1/s} / (e^{-1/s} + e^{-1/(1-s)})
    in between."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros(r.shape)
    out[r <= 0.75] = 1.0
    mid = (r > 0.75) & (r < 1.0)
    if np.any(mid):
        s = (1.0 - r[mid]) / 0.25
        z = np.clip(1.0 / s - 1.0 / (1.0 - s), -700.0, 700.0)
        out[mid] = 1.0 / (1.0 + np.exp(z))
    return out


def _validate_profile(chi) -> None:
    r_plateau = np.linspace(0.0, 0.75, 301)
    if np.abs(chi(r_plateau) - 1.0).max() > UNITY_TOL:
        raise PartitionError("profile must equal 1 on [0, 3/4]")
    r_tail = np.linspace(1.0, 4.0, 301)
    if np.abs(chi(r_tail)).max() > UNITY_TOL:
        raise PartitionError("profile must vanish on [1, inf)")
    r_mid = np.linspace(0.75, 1.0, 513)
    vals = chi(r_mid)
    if np.any(np.diff(vals) > UNITY_TOL):
        raise PartitionError("profile must be monotone on (3/4, 1)")
    if np.any(vals < -UNITY_TOL) or np.any(vals > 1.0 + UNITY_TOL):
        raise PartitionError("profile must stay within [0, 1]")


class LPPartition:
    """Multiplier family sampled on the grid; built via build_partition."""

    def __init__(self, grid: Grid, multipliers: np.ndarray, chi):
        self.grid = grid
        self.multipliers = multipliers  # index q+1 -> phi_q(|k|), q = -1..q_max
        self.chi = chi
        self.q_max = multipliers.shape[0] - 2
        self._half_sq = _half(multipliers) ** 2
        err = np.abs(multipliers.sum(axis=0) - 1.0)
        bad = err > UNITY_TOL
        if not bad.any():
            self.unity_radius = float(grid.k_mag.max())
        else:
            bad_min = grid.k_mag[bad].min()
            good = grid.k_mag[grid.k_mag < bad_min]
            self.unity_radius = float(good.max()) if good.size else 0.0
        self.unity_error = float(err[grid.k_mag <= self.unity_radius].max())

    # -- projections ------------------------------------------------------

    def shell_range(self) -> range:
        return range(-1, self.q_max + 1)

    def _mult(self, q: int) -> np.ndarray:
        if not -1 <= q <= self.q_max:
            raise ValueError(f"shell index {q} outside [-1, {self.q_max}]")
        return self.multipliers[q + 1]

    def project(self, f: SpectralField, q: int) -> SpectralField:
        """Dyadic block Delta_q f (Fourier multiplier phi_q)."""
        return SpectralField(f.grid, f.coeffs * self._mult(q), f.is_solenoidal)

    # -- norms --------------------------------------------------------------

    def shell_l2_sq(self, f: SpectralField) -> np.ndarray:
        """(2*pi)^3 sum_k phi_q^2 |coeff|^2 per shell, the ||Delta_q f||_2^2,
        summed on the half cube."""
        power = np.sum(np.abs(_half(f.coeffs)) ** 2, axis=0)
        vol = (2.0 * np.pi) ** 3
        return np.array([vol * _hermitian_sum(sq * power) for sq in self._half_sq])

    def shell_linf(self, f: SpectralField) -> np.ndarray:
        """max_x |Delta_q f(x)| per shell on the collocation grid."""
        return np.array(
            [lp_norm(self.project(f, q), np.inf) for q in self.shell_range()]
        )


def build_partition(grid: Grid, chi=None) -> LPPartition:
    """Sample the multiplier family on the grid and verify partition of unity.

    chi is the cutoff profile, validated first; smooth_bridge_profile by
    default.
    """
    if chi is None:
        chi = smooth_bridge_profile
    _validate_profile(chi)
    kmag = grid.k_mag
    k_top = float(kmag.max())
    q_cap = int(np.ceil(np.log2(max(k_top, 1.0)))) + 1
    mults = [chi(kmag)]
    for q in range(0, q_cap + 1):
        lam = float(2**q)
        mults.append(chi(kmag / (2.0 * lam)) - chi(kmag / lam))
    while len(mults) > 1 and not np.any(mults[-1] > 0.0):
        mults.pop()
    part = LPPartition(grid, np.array(mults), chi)
    if part.unity_error > UNITY_TOL:
        raise PartitionError(
            f"partition of unity fails at {part.unity_error:.3e} within radius"
        )
    return part


def dealias_limited_q_max(part: LPPartition) -> int:
    """Largest shell not empty after dealiasing (3/4 * 2^q <= dealias_cut)."""
    q = part.q_max
    while q >= 0 and 0.75 * 2**q > part.grid.dealias_cut:
        q -= 1
    return q
