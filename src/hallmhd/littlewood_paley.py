"""Dyadic Littlewood-Paley decomposition on the grid's wavenumbers.

The partition is the family {chi, phi_q}: a smooth radial cutoff chi with
chi(r) = 1 for r <= 3/4, chi(r) = 0 for r >= 1, and the annular bumps
phi(r) = chi(r/2) - chi(r), phi_q(r) = phi(r / 2^q) for q >= 0, phi_{-1} = chi.
Shell projections act as Fourier multipliers (the physical kernels are never
materialized).  Each phi_q depends on |k| alone, and |k|^2 is an integer on
the grid, so phi_q is kept as a radial table over |k|^2 = 0..3(n/2)^2 and
gathered onto the box a projection or a norm reads, by the box's integer
|k|^2 (_k_sq_index).  The tables are all the partition holds.

The shell norms are taken on the box of f's support cut s
(fields._support_cut), the smallest box that holds f: for a stepped state,
the step's box.  The sup norm of shell q streams the smaller box of cut
min(2^(q+1) - 1, s), beyond which phi_q vanishes as chi does on [1, inf),
through fields._BoxSup, which builds no sample cube and no shell box.  It
matches the half-cube samples to <= 1e-15 relative; its last bits are set
as a step's are (see bit determinism in the fields docstring).
"""

from __future__ import annotations

import numpy as np

from .fields import (
    DimensionError,
    Grid,
    SpectralField,
    VOLUME,
    _BoxSup,
    _box_axes,
    _box_shape,
    _cut_of,
    _multiplicity,
    _norm_sq,
    _regrid,
    _support_cut,
)

UNITY_TOL = 1e-12


class PartitionError(ValueError):
    """The sampled multipliers fail to sum to 1 on the resolved wavenumbers."""


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


def _k_sq_index(cut: int) -> np.ndarray:
    """The integer |k|^2 on the box of `cut`, the gather index of the
    radial tables."""
    return _norm_sq(_box_axes(cut)).astype(np.intp)


class LPPartition:
    """The multiplier family phi_q, q = -1..q_max, as radial tables: row
    q + 1 of `radial` holds phi_q(sqrt(j)) for j = 0..3(n/2)^2, and _mult
    gathers a row onto an array of integer |k|^2.  The grid's wavevectors
    are those with |kx|, |ky|, |kz| <= n/2; rows past the last one that is
    positive at some |k|^2 of theirs are dropped.  Raises PartitionError
    unless the rows sum to 1 within UNITY_TOL at every |k|^2 of theirs.
    Built via build_partition."""

    def __init__(self, grid: Grid, radial: np.ndarray):
        self.grid = grid
        k_sq = np.arange(grid.n // 2 + 1) ** 2
        held = np.zeros(radial.shape[1], dtype=bool)
        held[np.add.outer(np.add.outer(k_sq, k_sq), k_sq)] = True
        live = np.flatnonzero((radial[:, held] > 0.0).any(axis=1))
        self._radial = radial[: live.max(initial=0) + 1]
        self.q_max = self._radial.shape[0] - 2
        err = np.abs(self._radial.sum(axis=0) - 1.0)
        err[~held] = 0.0
        self.unity_error = float(err.max())
        if self.unity_error > UNITY_TOL:
            raise PartitionError(
                f"partition of unity fails at {self.unity_error:.3e}, first at "
                f"|k|^2 = {np.argmax(err > UNITY_TOL)}"
            )

    # -- projections ------------------------------------------------------

    def shell_range(self) -> range:
        return range(-1, self.q_max + 1)

    def _mult(self, q: int, k_sq: np.ndarray) -> np.ndarray:
        """phi_q gathered onto the integer |k|^2 of `k_sq`."""
        if not -1 <= q <= self.q_max:
            raise ValueError(f"shell index {q} outside [-1, {self.q_max}]")
        return np.take(self._radial[q + 1], k_sq)

    def _check_grid(self, f: SpectralField) -> None:
        if f.grid.n != self.grid.n:
            raise DimensionError(
                f"field on the n={f.grid.n} grid, partition on the n={self.grid.n} grid"
            )

    def _shell_cut(self, q: int) -> int:
        """Largest |kx|, |ky| or kz at which phi_q may be nonzero: 2^(q+1) - 1,
        as chi vanishes on [1, inf), and at most n/2."""
        return min(2 ** (q + 1) - 1, self.grid.n // 2)

    def project(self, f: SpectralField, q: int) -> SpectralField:
        """Dyadic block Delta_q f (Fourier multiplier phi_q)."""
        self._check_grid(f)
        return SpectralField(f.grid, f.coeffs * self._mult(q, _k_sq_index(_cut_of(f.coeffs))))

    # -- norms --------------------------------------------------------------

    def shell_l2_sq(self, f: SpectralField) -> np.ndarray:
        """(2*pi)^3 sum_k phi_q^2 |coeff|^2 per shell, the ||Delta_q f||_2^2.
        The power, summed one component at a time and each kz plane
        weighted by its Hermitian multiplicity, is binned once by integer
        |k|^2 on the box of f's support cut (fields._support_cut); shell q
        is then the dot product of the square of its radial table with the
        bins."""
        self._check_grid(f)
        cut = _support_cut(f.coeffs)
        shape = _box_shape(cut)
        power, p = np.zeros((2,) + shape)
        for c in f.coeffs:
            power += np.square(np.abs(_regrid(c, shape), out=p), out=p)
        power *= _multiplicity(power)
        binned = np.bincount(
            _k_sq_index(cut).ravel(), weights=power.ravel(), minlength=self._radial.shape[1]
        )
        return VOLUME * (self._radial**2 @ binned)

    def shell_linf(self, f: SpectralField) -> np.ndarray:
        """max_x |Delta_q f(x)| per shell on the collocation grid.

        Shell q is f's box of cut min(2^(q+1) - 1, s) times phi_q, s the
        support cut of f, streamed to its maximum by one fields._BoxSup of
        cut s, which applies phi_q one component at a time, so no shell box
        is built.  That equals lp_norm(self.project(f, q), inf) to <= 1e-15
        relative; a zero block reads exactly 0 and the mean-only block the
        magnitude of its real part, bit for bit."""
        self._check_grid(f)
        cut = _support_cut(f.coeffs)
        out = np.zeros(self.q_max + 2)
        sup = _BoxSup(self.grid, f.ncomp, cut)
        for q in self.shell_range():
            c = min(self._shell_cut(q), cut)
            out[q + 1] = sup(f.coeffs, self._mult(q, _k_sq_index(c)))
        return out


def build_partition(grid: Grid) -> LPPartition:
    """Sample the multiplier family of the cutoff smooth_bridge_profile once
    per integer |k|^2 up to the corner's 3(n/2)^2, at r = sqrt(|k|^2);
    LPPartition drops the shells empty on the grid and verifies partition
    of unity."""
    chi = smooth_bridge_profile
    r = np.sqrt(np.arange(3 * (grid.n // 2) ** 2 + 1))
    q_cap = int(np.ceil(np.log2(max(float(r[-1]), 1.0)))) + 1
    radial = [chi(r)]
    for q in range(0, q_cap + 1):
        lam = float(2**q)
        radial.append(chi(r / (2.0 * lam)) - chi(r / lam))
    return LPPartition(grid, np.array(radial))


def dealias_limited_q_max(part: LPPartition) -> int:
    """Largest shell not empty after dealiasing (3/4 * 2^q < dealias_cut):
    phi_q vanishes for |k| <= 3/4 * 2^q."""
    q = part.q_max
    while q >= 0 and 0.75 * 2**q >= part.grid.dealias_cut:
        q -= 1
    return q
