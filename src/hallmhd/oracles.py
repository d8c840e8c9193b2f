"""Brute-force reference implementations used as ground truth in tests.

Everything here is deliberately independent of the FFT code paths in
fields.py: transforms are direct O(n^6) summations, convolutions are explicit
integer-triad sums with no aliasing, and the Leray projection is a dense
k-loop.  Guarded to n <= 8.  The reference calculus (divergence, gradient,
dealias) is the plain spectral multipliers on the half cube, at any n, as
are the wavevectors, the wavenumber magnitude k_mag and the dealias mask
they build on.

The package stores a real field as a box of its half cube kz >= 0, which
half_cube scatters into the half cube by index arrays.  The references work
on the full cube, which full_cube extends a half cube to, one mode at a
time: idft_direct takes half cubes, rhs_direct fields, and the others full
cubes.
"""

from __future__ import annotations

import numpy as np

from .fields import DimensionError, SpectralField, TWO_PI

MAX_N = 8


def _guard(n: int):
    if n > MAX_N:
        raise ValueError(f"oracle refused: n={n} exceeds cost guard {MAX_N}")


def half_cube(f: SpectralField) -> np.ndarray:
    """The half cube (ncomp, n, n, n//2 + 1) of f: its box, x and y rows
    0..c and n - c..n - 1 for its cut c, kz planes 0..c, scattered by index
    arrays into zeros."""
    n, c = f.grid.n, (f.coeffs.shape[-3] - 1) // 2
    out = np.zeros((f.ncomp, n, n, n // 2 + 1), dtype=np.complex128)
    rows = np.r_[0 : c + 1, n - c : n]
    out[:, rows[:, None], rows, : c + 1] = f.coeffs
    return out


def full_cube(half: np.ndarray) -> np.ndarray:
    """The full cube (..., n, n, n) of a half cube (..., n, n, n//2 + 1) of
    real fields: coeff(k) = conj(coeff(-k)) for kz < 0, one mode at a time."""
    n, nh = half.shape[-3], half.shape[-1]
    out = np.empty(half.shape[:-1] + (n,), dtype=half.dtype)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if c < nh:
                    out[..., a, b, c] = half[..., a, b, c]
                else:
                    out[..., a, b, c] = np.conj(half[..., -a % n, -b % n, -c % n])
    return out


def hermitian_error(f: SpectralField) -> float:
    """max |coeff(-k) - conj(coeff(k))| on the kz = 0 plane of f's box, the
    plane that holds its own partners, relative to max |coeff|."""
    scale = np.abs(f.coeffs).max()
    plane = f.coeffs[..., 0]
    flipped = np.roll(plane[:, ::-1, ::-1], 1, axis=(1, 2))
    return float(np.abs(flipped - np.conj(plane)).max() / scale) if scale else 0.0


def divergence(f: SpectralField) -> SpectralField:
    if f.ncomp != 3:
        raise DimensionError("divergence needs a 3-component field")
    dx, dy, dz = wavevectors(f.grid)
    c = half_cube(f)
    out = 1j * (dx * c[0] + dy * c[1] + dz * c[2])
    return SpectralField(f.grid, out[None])


def gradient(f: SpectralField) -> SpectralField:
    """Full gradient: ncomp -> 3*ncomp, component order d_j f_i at 3*i + j."""
    dx, dy, dz = wavevectors(f.grid)
    parts = []
    for c in half_cube(f):
        parts += [1j * dx * c, 1j * dy * c, 1j * dz * c]
    return SpectralField(f.grid, np.stack(parts))


def wavevectors(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable (kx, ky, kz) on the grid's half cube, shapes (n, 1, 1),
    (1, n, 1) and (1, 1, n//2 + 1): the integers 0..n/2 - 1, -n/2..-1 in
    FFT order, as floats."""
    n = grid.n
    k = np.r_[0 : n // 2, -n // 2 : 0].astype(np.float64)
    return k.reshape(n, 1, 1), k.reshape(1, n, 1), k[: n // 2 + 1].reshape(1, 1, -1)


def k_sq(grid) -> np.ndarray:
    """|k|^2 on the grid's half cube, integers as floats."""
    kx, ky, kz = wavevectors(grid)
    return kx**2 + ky**2 + kz**2


def k_mag(grid) -> np.ndarray:
    """|k| on the grid's half cube."""
    return np.sqrt(k_sq(grid))


def dealias_mask(grid) -> np.ndarray:
    """|k| <= dealias_cut on the grid's half cube."""
    return k_mag(grid) <= grid.dealias_cut


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, half_cube(f) * dealias_mask(f.grid))


def mesh(grid) -> list[np.ndarray]:
    """Physical coordinate arrays (x, y, z) of the grid's collocation
    points, each shape (n, n, n)."""
    x = np.arange(grid.n) * (TWO_PI / grid.n)
    return np.meshgrid(x, x, x, indexing="ij")


def dft_direct(samples: np.ndarray) -> np.ndarray:
    """coeff(k) = (1/n^3) sum_x f(x) exp(-i k.x), one explicit sum per k."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 3:
        s = s[None]
    n = s.shape[-1]
    _guard(n)
    ks = np.fft.fftfreq(n, d=1.0 / n)
    x = np.arange(n) * (TWO_PI / n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    out = np.zeros(s.shape, dtype=np.complex128)
    for a, kx in enumerate(ks):
        for b, ky in enumerate(ks):
            for c, kz in enumerate(ks):
                phase = np.exp(-1j * (kx * X + ky * Y + kz * Z))
                for comp in range(s.shape[0]):
                    out[comp, a, b, c] = np.sum(s[comp] * phase) / n**3
    return out


def idft_direct(half: np.ndarray) -> np.ndarray:
    """f(x) = sum_k coeff(k) exp(+i k.x) over the full cube of the half cube
    `half`, one explicit sum per grid point."""
    c = full_cube(np.asarray(half, dtype=np.complex128))
    if c.ndim == 3:
        c = c[None]
    n = c.shape[-1]
    _guard(n)
    ks = np.fft.fftfreq(n, d=1.0 / n)
    KX, KY, KZ = np.meshgrid(ks, ks, ks, indexing="ij")
    x = np.arange(n) * (TWO_PI / n)
    out = np.zeros(c.shape, dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            for d in range(n):
                phase = np.exp(1j * (KX * x[a] + KY * x[b] + KZ * x[d]))
                for comp in range(c.shape[0]):
                    out[comp, a, b, d] = np.sum(c[comp] * phase)
    return out.real


def convolve_direct(f: np.ndarray, g: np.ndarray, order: str = "p") -> np.ndarray:
    """Exact convolution (fg)^(k) = sum_{p+q=k} f(p) g(q) with integer triads.

    No modular wraparound: products falling outside [-n/2, n/2)^3 are dropped,
    which is exactly the unaliased truncated product.  `order` selects which
    factor the outer summation loops over ("p" or "q"), giving two independent
    summation orders for self-consistency checks.
    """
    n = f.shape[-1]
    _guard(n)
    if order == "q":
        return convolve_direct(g, f, order="p")
    # centered layout: index i holds wavenumber i - n/2
    fc = np.fft.fftshift(f, axes=(-3, -2, -1))
    gc = np.fft.fftshift(g, axes=(-3, -2, -1))
    out = np.zeros_like(fc)
    lo = -(n // 2)
    for ia in range(n):
        pa = ia + lo
        for ib in range(n):
            pb = ib + lo
            for ic in range(n):
                pc = ic + lo
                w = fc[..., ia, ib, ic]
                if not np.any(w):
                    continue
                # k = p + q  =>  q index block shifted by p
                asrc = slice(max(0, -pa), min(n, n - pa))
                bsrc = slice(max(0, -pb), min(n, n - pb))
                csrc = slice(max(0, -pc), min(n, n - pc))
                adst = slice(asrc.start + pa, asrc.stop + pa)
                bdst = slice(bsrc.start + pb, bsrc.stop + pb)
                cdst = slice(csrc.start + pc, csrc.stop + pc)
                out[..., adst, bdst, cdst] += (
                    w[..., None, None, None] * gc[..., asrc, bsrc, csrc]
                )
    return np.fft.ifftshift(out, axes=(-3, -2, -1))


def leray_direct(coeffs: np.ndarray) -> np.ndarray:
    """Dense per-k projection coeff - k (k.coeff)/|k|^2."""
    n = coeffs.shape[-1]
    _guard(n)
    ks = np.fft.fftfreq(n, d=1.0 / n)
    out = coeffs.copy()
    for a, kx in enumerate(ks):
        for b, ky in enumerate(ks):
            for c, kz in enumerate(ks):
                ksq = kx**2 + ky**2 + kz**2
                if ksq == 0.0:
                    continue
                k = np.array([kx, ky, kz])
                v = coeffs[:, a, b, c]
                out[:, a, b, c] = v - k * (k @ v) / ksq
    return out


def _deriv_ks(n: int) -> np.ndarray:
    d = np.fft.fftfreq(n, d=1.0 / n)
    d[n // 2] = 0.0
    return d


def gradient_direct(coeffs: np.ndarray) -> np.ndarray:
    """ik multiplication with the oddball rule, via explicit loops."""
    n = coeffs.shape[-1]
    _guard(n)
    if coeffs.ndim == 3:
        coeffs = coeffs[None]
    d = _deriv_ks(n)
    ncomp = coeffs.shape[0]
    out = np.zeros((3 * ncomp, n, n, n), dtype=np.complex128)
    for i in range(ncomp):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    v = coeffs[i, a, b, c]
                    out[3 * i + 0, a, b, c] = 1j * d[a] * v
                    out[3 * i + 1, a, b, c] = 1j * d[b] * v
                    out[3 * i + 2, a, b, c] = 1j * d[c] * v
    return out


def rhs_direct(u: SpectralField, b: SpectralField, hall_on: bool) -> tuple:
    """Nonlinear Hall-MHD right side via exact triad convolutions.

    du = -P[ d_j (u_j u_i - b_j b_i) ],  db = -P[ d_j (u_j b_i - b_j u_i) ]
         - curl((curl b) x b)  (hall_on), all products dealiased to the grid
    cut.  Returns full-cube coefficient arrays (du, db).
    """
    grid = u.grid
    n = grid.n
    _guard(n)
    mask = full_cube(dealias_mask(grid))
    d = _deriv_ks(n)
    uh, bh = full_cube(half_cube(u)), full_cube(half_cube(b))

    def div_of_tensor(t):  # t[i][j] spectral products
        out = np.zeros((3, n, n, n), dtype=np.complex128)
        for i in range(3):
            for j, dj in enumerate(
                (d.reshape(n, 1, 1), d.reshape(1, n, 1), d.reshape(1, 1, n))
            ):
                out[i] += 1j * dj * t[i][j]
        return out

    t_u = [[convolve_direct(uh[j], uh[i]) - convolve_direct(bh[j], bh[i]) for j in range(3)] for i in range(3)]
    t_b = [[convolve_direct(uh[j], bh[i]) - convolve_direct(bh[j], uh[i]) for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(3):
            t_u[i][j] *= mask
            t_b[i][j] *= mask
    du = leray_direct(-div_of_tensor(t_u))
    db = leray_direct(-div_of_tensor(t_b))

    if hall_on:
        dx, dy, dz = d.reshape(n, 1, 1), d.reshape(1, n, 1), d.reshape(1, 1, n)
        cb = np.stack(
            [
                1j * (dy * bh[2] - dz * bh[1]),
                1j * (dz * bh[0] - dx * bh[2]),
                1j * (dx * bh[1] - dy * bh[0]),
            ]
        )
        h = np.stack(
            [
                convolve_direct(cb[1], bh[2]) - convolve_direct(cb[2], bh[1]),
                convolve_direct(cb[2], bh[0]) - convolve_direct(cb[0], bh[2]),
                convolve_direct(cb[0], bh[1]) - convolve_direct(cb[1], bh[0]),
            ]
        )
        h *= mask
        db -= np.stack(
            [
                1j * (dy * h[2] - dz * h[1]),
                1j * (dz * h[0] - dx * h[2]),
                1j * (dx * h[1] - dy * h[0]),
            ]
        )
    return du, db


def whistler_matrix(
    k: int, b0: float, nu: float, mu: float, hall_on: bool = True
) -> dict:
    """Linearized 2-mode systems about b = b0 z_hat for wavevector k z_hat.

    In the circular basis e_pm = (x_hat -/+ i y_hat)/sqrt(2) the transverse
    perturbations (u_pm, b_pm) obey d/dt [u, b] = M_pm [u, b] with

        M_pm = [[-nu k^2,  i k b0           ],
                [ i k b0,  +/- i k^2 b0 - mu k^2]].

    Without the Hall term the +/- i k^2 b0 entry drops, and both
    polarizations are shear Alfven waves.  Returns {"+": M_plus,
    "-": M_minus} for numerical diagonalization.
    """
    hall = 1.0 if hall_on else 0.0
    out = {}
    for sgn, key in ((+1.0, "+"), (-1.0, "-")):
        out[key] = np.array(
            [
                [-nu * k**2, 1j * k * b0],
                [1j * k * b0, hall * sgn * 1j * k**2 * b0 - mu * k**2],
            ],
            dtype=np.complex128,
        )
    return out
