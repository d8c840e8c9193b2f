"""Dyadic Littlewood-Paley decomposition on the grid's wavenumbers.

The partition is the family {chi, phi_q}: a smooth radial cutoff chi with
chi(r) = 1 for r <= 3/4, chi(r) = 0 for r >= 1, and the annular bumps
phi(r) = chi(r/2) - chi(r), phi_q(r) = phi(r / 2^q) for q >= 0, phi_{-1} = chi.
Shell projections act as Fourier multipliers (the physical kernels are never
materialized); lambda_q = 2^q with the q = -1 weight taken as 1/2.
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


def lambda_q(q: int) -> float:
    """Dyadic wavenumber 2^q, with the q = -1 weight fixed to 1/2."""
    return 0.5 if q == -1 else float(2**q)


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

    def __init__(self, grid: Grid, multipliers: np.ndarray, chi, mode: str):
        self.grid = grid
        self.multipliers = multipliers  # index q+1 -> phi_q(|k|), q = -1..q_max
        self.chi = chi
        self.mode = mode
        self.q_max = multipliers.shape[0] - 2
        self._half_sq = _half(multipliers) ** 2
        self._cumulative = np.cumsum(multipliers, axis=0)
        s = self._cumulative[-1]
        err = np.abs(s - 1.0)
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

    def lowpass(self, f: SpectralField, Q: int) -> SpectralField:
        """Sum of blocks q <= Q; empty (zero) when Q < -1."""
        if Q < -1:
            return SpectralField(f.grid, np.zeros_like(f.coeffs), True)
        Q = min(Q, self.q_max)
        return SpectralField(f.grid, f.coeffs * self._cumulative[Q + 1], f.is_solenoidal)

    def bandpass(self, f: SpectralField, Q: int, N: int) -> SpectralField:
        """Blocks in (Q, N]."""
        return self.lowpass(f, N) - self.lowpass(f, Q)

    def tilde(self, f: SpectralField, q: int) -> SpectralField:
        """Sum of blocks p with |p - q| <= 1."""
        mult = np.zeros_like(self.multipliers[0])
        for p in range(max(-1, q - 1), min(self.q_max, q + 1) + 1):
            mult += self._mult(p)
        return SpectralField(f.grid, f.coeffs * mult, f.is_solenoidal)

    # -- norms --------------------------------------------------------------

    def besov_norm(
        self, f: SpectralField, s: float, p: float, oversample: int = 1
    ) -> float:
        """B^s_{p,inf}: sup_q lambda_q^s ||Delta_q f||_p."""
        if p < 1:
            raise ValueError(f"besov_norm requires p >= 1, got {p}")
        best = 0.0
        for q in self.shell_range():
            norm = lp_norm(self.project(f, q), p, oversample)
            best = max(best, lambda_q(q) ** s * norm)
        return best

    def shell_l2_sq(self, f: SpectralField) -> np.ndarray:
        """(2*pi)^3 sum_k phi_q^2 |coeff|^2 per shell, the ||Delta_q f||_2^2,
        summed on the half cube."""
        power = np.sum(np.abs(_half(f.coeffs)) ** 2, axis=0)
        vol = (2.0 * np.pi) ** 3
        return np.array([vol * _hermitian_sum(sq * power) for sq in self._half_sq])

    def shell_linf(self, f: SpectralField, oversample: int = 1) -> np.ndarray:
        return np.array(
            [
                lp_norm(self.project(f, q), np.inf, oversample)
                for q in self.shell_range()
            ]
        )

    def sobolev_norm(self, f: SpectralField, s: float) -> tuple[float, float]:
        """Homogeneous H^s by two estimators: (direct spectral sum, LP form)."""
        from .fields import sobolev_direct

        direct = sobolev_direct(f, s)
        weights = np.array([lambda_q(q) ** (2 * s) for q in self.shell_range()])
        lp_form = float(np.sqrt(np.sum(weights * self.shell_l2_sq(f))))
        return direct, lp_form

    def sobolev_equivalence_envelope(self, s: float) -> tuple[float, float]:
        """Grid-computable bounds on (LP form)/(direct form), swept over k != 0."""
        kmag = self.grid.k_mag
        nonzero = kmag > 0
        ratio = np.zeros_like(kmag)
        for q in self.shell_range():
            ratio += lambda_q(q) ** (2 * s) * self.multipliers[q + 1] ** 2
        ratio[nonzero] /= kmag[nonzero] ** (2 * s)
        vals = ratio[nonzero]
        return float(np.sqrt(vals.min())), float(np.sqrt(vals.max()))

    def bernstein_ratio(
        self, f: SpectralField, q: int, r: float, s_exp: float
    ) -> float:
        """||Delta_q f||_r / (lambda_q^{3(1/s - 1/r)} ||Delta_q f||_s); 0 if empty."""
        if s_exp < 1:
            raise ValueError("bernstein_ratio requires s_exp >= 1")
        if r < s_exp:
            raise ValueError("bernstein_ratio requires r >= s_exp")
        block = self.project(f, q)
        denom_norm = lp_norm(block, s_exp)
        if denom_norm == 0.0:
            return 0.0
        inv_r = 0.0 if np.isinf(r) else 1.0 / r
        scale = lambda_q(q) ** (3.0 * (1.0 / s_exp - inv_r))
        return lp_norm(block, r) / (scale * denom_norm)

    def reconstruction_error(self, f: SpectralField) -> float:
        """Relative L^2 error of sum_q Delta_q f against f."""
        from .fields import l2_norm_spectral

        total = SpectralField(f.grid, f.coeffs * self._cumulative[-1])
        num = l2_norm_spectral(total - f)
        den = l2_norm_spectral(f)
        return num / den if den > 0 else 0.0


def build_partition(grid: Grid, chi=None, mode: str = "smooth") -> LPPartition:
    """Sample the multiplier family on the grid and verify partition of unity.

    mode "smooth" uses the (validated) profile; mode "sharp" uses indicator
    annuli 2^{q-1} < |k| <= 2^q as a cross-check alternative.
    """
    if mode not in ("smooth", "sharp"):
        raise PartitionError(f"unknown partition mode {mode!r}")
    kmag = grid.k_mag
    k_top = float(kmag.max())
    q_cap = int(np.ceil(np.log2(max(k_top, 1.0)))) + 1
    mults = []
    if mode == "smooth":
        if chi is None:
            chi = smooth_bridge_profile
        _validate_profile(chi)
        mults.append(chi(kmag))
        for q in range(0, q_cap + 1):
            lam = float(2**q)
            mults.append(chi(kmag / (2.0 * lam)) - chi(kmag / lam))
    else:
        mults.append((kmag <= 0.5).astype(np.float64))
        for q in range(0, q_cap + 1):
            lam = float(2**q)
            mults.append(((kmag > lam / 2.0) & (kmag <= lam)).astype(np.float64))
    while len(mults) > 1 and not np.any(mults[-1] > 0.0):
        mults.pop()
    part = LPPartition(grid, np.array(mults), chi, mode)
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
