"""Bony paraproduct decomposition of advective terms and the two commutators
used to expose cancellations in the dyadic flux estimates.

Quadratic products are evaluated pointwise on the 2x zero-padded grid, with
the real transforms of `fields`, and truncated back to the n grid with the
n/2 planes zeroed.  The product is then exact on every other mode whatever
the bandwidth of the inputs, which the lemma-verification suites need: their
sample fields occupy the high shells that the solver's 2/3-rule mask drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    SpectralField,
    _cross,
    _extract,
    _physical_to_half,
    curl,
    gradient,
    inner_product,
    lp_norm,
    require_solenoidal,
    to_physical,
)
from .littlewood_paley import LPPartition


# -- products on the padded grid ----------------------------------------------------


def advect(u: SpectralField, v: SpectralField) -> SpectralField:
    """u . grad v, evaluated pointwise on the 2x padded grid."""
    up = to_physical(u, oversample=2)
    gv = to_physical(gradient(v), oversample=2)  # d_j v_i at 3*i + j
    out = np.empty((v.ncomp,) + up.shape[1:])
    for i in range(v.ncomp):
        np.multiply(up[0], gv[3 * i], out=out[i])
        out[i] += up[1] * gv[3 * i + 1]
        out[i] += up[2] * gv[3 * i + 2]
    return SpectralField(u.grid, _extract(_physical_to_half(out), u.grid))


def cross_with_curl(F: SpectralField, G: SpectralField) -> SpectralField:
    """F x (curl G), evaluated pointwise on the 2x padded grid."""
    prod = _cross(to_physical(F, oversample=2), to_physical(curl(G), oversample=2))
    return SpectralField(F.grid, _extract(_physical_to_half(prod), F.grid))


# -- Bony decomposition ----------------------------------------------------------


@dataclass
class BonyTriple:
    """The three interaction classes of Delta_q(u . grad v) for fixed q."""

    low_high: SpectralField
    high_low: SpectralField
    high_high: SpectralField
    q: int

    def total(self) -> SpectralField:
        return self.low_high + self.high_low + self.high_high


def bony_decompose(
    part: LPPartition, u: SpectralField, v: SpectralField, q: int
) -> BonyTriple:
    """Split Delta_q(u . grad v) into low-high, high-low and high-high sums:

        sum_{|q-p|<=2} Delta_q(u_{<=p-2} . grad v_p)
      + sum_{|q-p|<=2} Delta_q(u_p . grad v_{<=p-2})
      + sum_{p>=q-2}   Delta_q(u~_p . grad v_p).
    """
    require_solenoidal(u, what="advecting field u")
    grid = u.grid
    zero = np.zeros_like(u.coeffs[:1] if v.ncomp == 1 else u.coeffs)

    def zsum():
        return SpectralField(grid, zero.copy())

    low_high = zsum()
    high_low = zsum()
    window = range(max(-1, q - 2), min(part.q_max, q + 2) + 1)
    for p in window:
        u_low = part.lowpass(u, p - 2)
        v_p = part.project(v, p)
        low_high = low_high + advect(u_low, v_p)
        u_p = part.project(u, p)
        v_low = part.lowpass(v, p - 2)
        high_low = high_low + advect(u_p, v_low)
    high_high = zsum()
    for p in range(max(-1, q - 2), part.q_max + 1):
        u_t = part.tilde(u, p)
        v_p = part.project(v, p)
        high_high = high_high + advect(u_t, v_p)
    return BonyTriple(
        part.project(low_high, q),
        part.project(high_low, q),
        part.project(high_high, q),
        q,
    )


# -- commutators ------------------------------------------------------------------


def advective_commutator(
    part: LPPartition,
    u_low: SpectralField,
    v_shell: SpectralField,
    q: int,
) -> SpectralField:
    """[Delta_q, u_low . grad] v  =  Delta_q(u_low . grad v) - u_low . grad Delta_q v."""
    require_solenoidal(u_low, what="transport field u_low")
    first = part.project(advect(u_low, v_shell), q)
    second = advect(u_low, part.project(v_shell, q))
    return first - second


def hall_commutator(
    part: LPPartition,
    F: SpectralField,
    G: SpectralField,
    q: int,
    require_divergence_free: bool = True,
) -> SpectralField:
    """[Delta_q, F x curl] G  =  Delta_q(F x (curl G)) - F x (curl Delta_q G)."""
    if require_divergence_free:
        require_solenoidal(F, what="commutator prefactor F")
    first = part.project(cross_with_curl(F, G), q)
    second = cross_with_curl(F, part.project(G, q))
    return first - second


def hall_commutator_pairing(
    part: LPPartition,
    F: SpectralField,
    G: SpectralField,
    H: SpectralField,
    q: int,
    r1: float = 2.0,
    r2: float = 2.0,
) -> tuple[float, float]:
    """Pairing integral of [Delta_q, F x curl] G against curl H, plus the ratio
    against the bound ||grad^2 F||_inf ||G||_{r1} ||H||_{r2} (Hoelder-dual r's)."""
    if not np.isclose(1.0 / r1 + 1.0 / r2, 1.0):
        raise ValueError(f"exponents must satisfy 1/r1 + 1/r2 = 1, got ({r1}, {r2})")
    comm = hall_commutator(part, F, G, q, require_divergence_free=False)
    value = inner_product(comm, curl(H))
    hessian_sup = lp_norm(gradient(gradient(F)), np.inf)
    bound = hessian_sup * lp_norm(G, r1) * lp_norm(H, r2)
    ratio = abs(value) / bound if bound > 0 else 0.0
    return value, ratio
