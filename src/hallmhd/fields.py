"""Periodic 3D fields stored as Fourier coefficients, with exact spectral calculus.

Convention: for samples f(x) on the n^3 collocation grid of the 2*pi torus,

    coeff(k) = (1/n^3) * sum_x f(x) exp(-i k.x),     k in [-n/2, n/2)^3,

so f(x) = sum_k coeff(k) exp(i k.x).  Wavevectors are integers; the n/2
("oddball") mode present for even n is zeroed whenever a derivative is taken,
and the Leray projection and the vector potential zero the n/2 planes.
Field coefficients are stored as the full complex128 cube.  Fields are real,
so the cube is Hermitian, coeff(-k) = conj(coeff(k)): the half cube
coeffs[..., :n//2 + 1] (kz >= 0) determines the rest.

Inside the solver's step, coefficients live on a smaller array still: the
box |kx|, |ky| <= c, 0 <= kz <= c of a cut c < n/2, shape
(..., 2c + 1, 2c + 1, c + 1), x and y wavenumbers in FFT order
[0..c, -c..-1].  With c = dealias_cut it holds every mode the 2/3 rule keeps.

All transforms are real and go through one pair.  Samples are made from the
half cube by one inverse real FFT, or from a box by a pruned one that skips
the all-zero lines (Markel 1971): each axis is zero-padded only for its own
pass.  Coefficients are made from
samples by one forward real FFT, the upper kz half being restored from the
symmetry, or, pruned, for the box alone, each pass keeping only the box rows
of its axis.  Spectral power sums and inner products (Parseval norms,
||grad f||^2, shell powers) are taken on the half cube or the box, each kz
plane counted with its Hermitian multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI**3

HERMITIAN_TOL = 1e-12
SOLENOIDAL_TOL = 1e-12


class DimensionError(ValueError):
    """Shape or grid mismatch between fields."""


@dataclass(frozen=True)
class Grid:
    """Collocation grid: n modes per axis on the fixed 2*pi torus.

    dealias_cut defaults to (n - 1) // 3, the largest cut with
    3*dealias_cut < n (2/3 rule on the radial wavenumber).  Under that bound,
    quadratic products of fields supported in |k| <= dealias_cut are exact on
    the retained modes, and collocation quadrature of triple products is
    exact.  An explicit cut that breaks it raises DimensionError.
    """

    n: int
    dealias_cut: int | None = None

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise DimensionError(f"grid size must be even and >= 8, got n={self.n}")
        largest = (self.n - 1) // 3
        if self.dealias_cut is None:
            object.__setattr__(self, "dealias_cut", largest)
        if not 1 <= self.dealias_cut <= largest:
            raise DimensionError(
                f"dealias_cut={self.dealias_cut} outside [1, {largest}]: quadratic "
                f"products alias unless 3*dealias_cut < n={self.n}"
            )

    @property
    def k_max(self) -> float:
        """Largest resolved wavenumber magnitude, sqrt(3)*n/2."""
        return np.sqrt(3.0) * self.n / 2.0

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumbers per axis in FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    @cached_property
    def d1(self) -> np.ndarray:
        """Differentiation wavenumbers: k1 with the oddball n/2 mode zeroed."""
        d = self.k1.copy()
        d[self.n // 2] = 0.0
        return d

    @cached_property
    def kvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (kx, ky, kz) with shapes (n,1,1), (1,n,1), (1,1,n)."""
        n = self.n
        return (
            self.k1.reshape(n, 1, 1),
            self.k1.reshape(1, n, 1),
            self.k1.reshape(1, 1, n),
        )

    @cached_property
    def dvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n
        return (
            self.d1.reshape(n, 1, 1),
            self.d1.reshape(1, n, 1),
            self.d1.reshape(1, 1, n),
        )

    @cached_property
    def k_sq(self) -> np.ndarray:
        kx, ky, kz = self.kvec
        return kx**2 + ky**2 + kz**2

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1/|k|^2, 0 at k = 0."""
        return _reciprocal(self.k_sq)

    @cached_property
    def k_mag(self) -> np.ndarray:
        return np.sqrt(self.k_sq)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return self.k_mag <= self.dealias_cut

    @cached_property
    def box(self):
        """(wavevectors, |k|^2, 1/|k|^2, dealias mask) on the box |kx|, |ky|,
        kz <= dealias_cut, where the solver steps.  The box holds no n/2
        index, so its derivative wavenumbers are its wavevectors."""
        c = self.dealias_cut
        k1 = self.k1[_box_rows(self.n, c)]
        kx, ky, kz = k1.reshape(-1, 1, 1), k1.reshape(1, -1, 1), np.arange(c + 1.0)
        k_sq = kx**2 + ky**2 + kz**2
        return (kx, ky, kz), k_sq, _reciprocal(k_sq), np.sqrt(k_sq) <= c

    @cached_property
    def x1(self) -> np.ndarray:
        return np.arange(self.n) * (TWO_PI / self.n)

    def mesh(self):
        """Physical coordinate arrays (x, y, z), each shape (n, n, n)."""
        return np.meshgrid(self.x1, self.x1, self.x1, indexing="ij")


def _reciprocal(k_sq: np.ndarray) -> np.ndarray:
    """1/k_sq, 0 where k_sq = 0."""
    inv = np.zeros_like(k_sq)
    np.divide(1.0, k_sq, out=inv, where=k_sq > 0)
    return inv


@dataclass
class SpectralField:
    """A field (scalar, vector, or tensor) as Fourier coefficients.

    coeffs has shape (ncomp, n, n, n); ncomp is 1 for scalars, 3 for vectors,
    9 for gradient tensors (component order d_j f_i at index 3*i + j).
    """

    grid: Grid
    coeffs: np.ndarray
    is_solenoidal: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim == 3:
            c = c[None]
        if c.ndim != 4 or c.shape[1:] != (self.grid.n,) * 3:
            raise DimensionError(
                f"coeffs shape {c.shape} incompatible with n={self.grid.n}"
            )
        self.coeffs = np.ascontiguousarray(c, dtype=np.complex128)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.is_solenoidal)

    def __add__(self, other):
        _check_same(self, other)
        return SpectralField(
            self.grid,
            self.coeffs + other.coeffs,
            self.is_solenoidal and other.is_solenoidal,
        )

    def __sub__(self, other):
        _check_same(self, other)
        return SpectralField(
            self.grid,
            self.coeffs - other.coeffs,
            self.is_solenoidal and other.is_solenoidal,
        )

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar, self.is_solenoidal)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _check_same(f: SpectralField, g: SpectralField):
    if f.grid.n != g.grid.n or f.ncomp != g.ncomp:
        raise DimensionError(
            f"field mismatch: ({f.grid.n},{f.ncomp}) vs ({g.grid.n},{g.ncomp})"
        )


def zero_field(grid: Grid, ncomp: int = 3) -> SpectralField:
    return SpectralField(
        grid, np.zeros((ncomp, grid.n, grid.n, grid.n), dtype=np.complex128), True
    )


# -- transforms ---------------------------------------------------------------
# The two real transforms below are the only FFT calls in the package.  Each
# takes, or with a cut returns, either the half cube or the box.  The pruned
# passes write in place through the `out` argument of numpy.fft (NumPy 2.0),
# which spares one fresh array per pass.


def _half_to_physical(half: np.ndarray, m: int) -> np.ndarray:
    """Collocation samples on the m^3 grid of real fields from coefficients
    on kz >= 0: the half cube coeffs[..., :m//2 + 1], or a box (odd x/y
    extent 2c + 1).  A box is a pruned transform: each axis is zero-padded to
    m just before its own pass, so the x pass runs on the box's (2c + 1)(c + 1)
    lines and the y pass on m (c + 1) lines, and irfft pads kz."""
    if half.shape[-3] == m:
        return np.fft.irfftn(half, s=(m, m, m), axes=(-3, -2, -1), norm="forward")
    rows = _box_rows(m, half.shape[-1] - 1)
    lead = half.shape[:-3]
    a = np.zeros(lead + (m,) + half.shape[-2:], dtype=np.complex128)
    a[..., rows, :, :] = half
    np.fft.ifft(a, axis=-3, norm="forward", out=a)
    b = np.zeros(lead + (m, m, half.shape[-1]), dtype=np.complex128)
    b[..., rows, :] = a
    np.fft.ifft(b, axis=-2, norm="forward", out=b)
    return np.fft.irfft(b, n=m, axis=-1, norm="forward")


def _physical_to_half(samples: np.ndarray, cut: int | None = None) -> np.ndarray:
    """Half-cube coefficients of real samples, with this module's 1/n^3
    normalization; with a cut, only the box of that cut, each pass keeping
    only the box rows of its axis (kz <= cut, then |ky| <= cut, then
    |kx| <= cut) before the next."""
    if cut is None:
        return np.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward")
    rows = _box_rows(samples.shape[-1], cut)
    a = np.fft.rfft(samples, axis=-1, norm="forward")[..., : cut + 1]
    a = np.fft.fft(a, axis=-2, norm="forward")[..., rows, :]
    return np.fft.fft(a, axis=-3, norm="forward")[..., rows, :, :]


def _box_rows(n: int, cut: int) -> np.ndarray:
    """Indices of the wavenumbers 0..cut, -cut..-1 on an FFT-ordered axis of
    length n: the x and y rows of the box of that cut."""
    return np.r_[0 : cut + 1, n - cut : n]


def _to_box(a: np.ndarray, cut: int) -> np.ndarray:
    """The box |kx|, |ky| <= cut, 0 <= kz <= cut of a full- or half-cube
    array, shape (..., 2 cut + 1, 2 cut + 1, cut + 1), a copy."""
    rows = _box_rows(a.shape[-3], cut)
    return a[..., rows[:, None], rows, : cut + 1]


def _from_box(box: np.ndarray, n: int) -> np.ndarray:
    """The n-grid half cube holding `box`, zero elsewhere."""
    cut = box.shape[-1] - 1
    rows = _box_rows(n, cut)
    out = np.zeros(box.shape[:-3] + (n, n, n // 2 + 1), dtype=np.complex128)
    out[..., rows[:, None], rows, : cut + 1] = box
    return out


def _half(a: np.ndarray) -> np.ndarray:
    """The half cube a[..., :n//2 + 1] (kz >= 0) of a full-cube array, a view."""
    return a[..., : a.shape[-1] // 2 + 1]


def _fill_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full-cube coefficients of real fields from their half cube, the upper
    kz half being the conjugates of the Hermitian partners: index i pairs
    with (n - i) % n on every axis."""
    n, nh = grid.n, grid.n // 2 + 1
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :nh] = half
    src = half[..., nh - 2 : 0 : -1]  # kz index n - iz for iz = n/2+1 .. n-1
    up = out[..., nh:]
    np.conjugate(src[..., 0, 0, :], out=up[..., 0, 0, :])
    np.conjugate(src[..., 0, :0:-1, :], out=up[..., 0, 1:, :])
    np.conjugate(src[..., :0:-1, 0, :], out=up[..., 1:, 0, :])
    np.conjugate(src[..., :0:-1, :0:-1, :], out=up[..., 1:, 1:, :])
    return out


def _zero_nyquist(coeffs: np.ndarray) -> np.ndarray:
    """Zero the n/2 planes (index n/2 on each axis) of full- or half-cube
    coefficients in place, and return them.  Grid.kvec gives index n/2 the
    wavenumber -n/2 both for a mode and for its Hermitian partner, so a
    k-dependent multiplier applied there breaks the symmetry."""
    h = coeffs.shape[-3] // 2
    coeffs[..., h, :, :] = 0.0
    coeffs[..., :, h, :] = 0.0
    coeffs[..., :, :, h] = 0.0
    return coeffs


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples, shape (ncomp, n, n, n).  f is read as a real
    field: only its half cube kz >= 0 is used."""
    return _half_to_physical(_half(f.coeffs), f.grid.n)


def from_physical(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Inverse of to_physical; accepts (n,n,n) or (c,n,n,n)."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 3:
        s = s[None]
    if s.shape[1:] != (grid.n,) * 3:
        raise DimensionError(f"sample shape {s.shape} incompatible with n={grid.n}")
    return SpectralField(grid, _fill_from_half(grid, _physical_to_half(s)))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise a x b of (3, ...) sample arrays."""
    out = np.empty(a.shape)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


# -- calculus -----------------------------------------------------------------


def _curl(dvec, coeffs: np.ndarray) -> np.ndarray:
    """i d x coeffs for broadcastable derivative wavenumbers (full cube, half
    cube or box)."""
    dx, dy, dz = dvec
    cx, cy, cz = coeffs
    return np.stack(
        [
            1j * (dy * cz - dz * cy),
            1j * (dz * cx - dx * cz),
            1j * (dx * cy - dy * cx),
        ]
    )


def curl(f: SpectralField) -> SpectralField:
    if f.ncomp != 3:
        raise DimensionError("curl needs a 3-component field")
    return SpectralField(f.grid, _curl(f.grid.dvec, f.coeffs), is_solenoidal=True)


def divergence(f: SpectralField) -> SpectralField:
    if f.ncomp != 3:
        raise DimensionError("divergence needs a 3-component field")
    dx, dy, dz = f.grid.dvec
    out = 1j * (dx * f.coeffs[0] + dy * f.coeffs[1] + dz * f.coeffs[2])
    return SpectralField(f.grid, out[None])


def gradient(f: SpectralField) -> SpectralField:
    """Full gradient: ncomp -> 3*ncomp, component order d_j f_i at 3*i + j."""
    dx, dy, dz = f.grid.dvec
    parts = []
    for i in range(f.ncomp):
        c = f.coeffs[i]
        parts += [1j * dx * c, 1j * dy * c, 1j * dz * c]
    return SpectralField(f.grid, np.stack(parts))


def _leray(kvec, inv_k_sq: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """coeffs - k (k.coeffs)/|k|^2 for broadcastable wavevectors and 1/|k|^2
    (0 at k = 0, which is left untouched) on the full cube, the half cube or
    the box."""
    kx, ky, kz = kvec
    kdot = (kx * coeffs[0] + ky * coeffs[1] + kz * coeffs[2]) * inv_k_sq
    return np.stack(
        [coeffs[0] - kx * kdot, coeffs[1] - ky * kdot, coeffs[2] - kz * kdot]
    )


def leray_project(f: SpectralField) -> SpectralField:
    """Remove the gradient part: coeff -= k (k.coeff)/|k|^2, k=0 untouched.
    The n/2 planes are zeroed, which keeps the output Hermitian."""
    if f.ncomp != 3:
        raise DimensionError("leray_project needs a 3-component field")
    g = f.grid
    out = _zero_nyquist(_leray(g.kvec, g.inv_k_sq, f.coeffs))
    return SpectralField(g, out, is_solenoidal=True)


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask, f.is_solenoidal)


def _vector_potential(kvec, inv_k_sq: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """A = i k x coeffs / |k|^2 for broadcastable wavevectors and 1/|k|^2 on
    the full or the half cube, its n/2 planes zeroed (not for the box, whose
    index n/2 is no n/2 plane)."""
    return _zero_nyquist(_curl(kvec, coeffs) * inv_k_sq)


def vector_potential(b: SpectralField) -> SpectralField:
    """Solenoidal A with curl A = b (b solenoidal, zero mean): A = i k x b / |k|^2.
    The n/2 planes are zeroed, which keeps the output Hermitian."""
    g = b.grid
    return SpectralField(g, _vector_potential(g.kvec, g.inv_k_sq, b.coeffs), True)


# -- norms and inner products --------------------------------------------------


def pointwise_magnitude(samples: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over the component axis (Frobenius for tensors)."""
    return np.sqrt(np.sum(samples * samples, axis=0))


def lp_norm(f: SpectralField, p: float) -> float:
    """Collocation L^p norm of |f(x)| on the physical grid.

    A grid approximation of the true torus norm; exact for p=2 on band-limited
    fields (Parseval), and a lower bound for p=inf.
    """
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    mag = pointwise_magnitude(to_physical(f))
    if np.isinf(p):
        return float(mag.max(initial=0.0))
    m = mag.shape[-1]
    return float((np.sum(mag**p, dtype=np.float64) * (VOLUME / m**3)) ** (1.0 / p))


def _hermitian_sum(p: np.ndarray) -> float:
    """Full-cube sum of a quantity p(k) = p(-k) given on kz >= 0, either on
    the half cube (x extent n, even; last plane kz = n/2) or on the box
    (x extent 2 cut + 1, odd; last plane kz = cut).  Each plane kz > 0 counts
    twice, for itself and its Hermitian partner, except the half cube's
    kz = n/2 plane, which holds its own partners and, like kz = 0, counts
    once.  The parity of the x extent tells the two apart: Grid makes n
    even, and a box is always odd."""
    multiplicity = np.full(p.shape[-1], 2.0)
    multiplicity[0] = 1.0
    if p.shape[-3] % 2 == 0:
        multiplicity[-1] = 1.0
    return float(np.sum(p @ multiplicity, dtype=np.float64))


def _parseval(half: np.ndarray, weight: np.ndarray | None = None) -> float:
    """(2*pi)^3 sum_k weight(k) |coeff(k)|^2 over the full cube of real fields,
    from their half cube coeffs[..., :n//2 + 1] or their box; weight (even in
    k, given on the same array) defaults to 1.  Which one it is follows from
    the x extent, as in _hermitian_sum."""
    p = np.abs(half)
    np.square(p, out=p)
    if weight is not None:
        p *= weight
    return VOLUME * _hermitian_sum(p)


def l2_norm_spectral(f: SpectralField) -> float:
    """Parseval form: sqrt((2*pi)^3 * sum_k |coeff|^2)."""
    return float(np.sqrt(_parseval(_half(f.coeffs))))


def _inner(f: np.ndarray, g: np.ndarray) -> float:
    """(2*pi)^3 sum_k Re(conj(f(k)) g(k)) over the full cube of real fields,
    from their half cubes or boxes."""
    return VOLUME * _hermitian_sum((np.conj(f) * g).real)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product of real fields via the spectral sum."""
    _check_same(f, g)
    return _inner(_half(f.coeffs), _half(g.coeffs))


def grad_norm_sq(f: SpectralField) -> float:
    """(2*pi)^3 * sum_k |k|^2 |coeff|^2  =  || grad f ||_2^2."""
    return _parseval(_half(f.coeffs), _half(f.grid.k_sq))


# -- consistency checks ---------------------------------------------------------


def hermitian_error(f: SpectralField) -> float:
    """max |coeff(-k) - conj(coeff(k))| relative to max |coeff|."""
    c = f.coeffs
    flipped = np.roll(c[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))
    scale = np.abs(c).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(flipped - np.conj(c)).max() / scale)


def _divergence_error(kvec, coeffs: np.ndarray) -> float:
    """max_k |k . coeffs(k)| relative to max |coeffs| for broadcastable
    wavevectors (full cube, half cube or box)."""
    kx, ky, kz = kvec
    kdot = kx * coeffs[0] + ky * coeffs[1] + kz * coeffs[2]
    scale = np.abs(coeffs).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(kdot).max() / scale)


def divergence_error(f: SpectralField) -> float:
    """max_k |k . coeff(k)| relative to max |coeff| (plain k, not oddball-zeroed)."""
    return _divergence_error(f.grid.kvec, f.coeffs)


# -- random fields --------------------------------------------------------------


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    ncomp: int = 3,
    k_lo: float = 0.0,
    k_hi: float | None = None,
    solenoidal: bool = False,
    zero_mean: bool = True,
) -> SpectralField:
    """Gaussian Hermitian field, band-limited to k_lo <= |k| <= k_hi.

    Built by transforming white physical noise, so Hermitian symmetry is exact.
    Nyquist planes are always removed.
    """
    f = from_physical(rng.standard_normal((ncomp, grid.n, grid.n, grid.n)), grid)
    mask = np.ones((grid.n,) * 3, dtype=bool)
    if k_lo > 0.0:
        mask &= grid.k_mag >= k_lo
    if k_hi is not None:
        mask &= grid.k_mag <= k_hi
    coeffs = _zero_nyquist(f.coeffs * mask)
    if zero_mean:
        coeffs[:, 0, 0, 0] = 0.0
    out = SpectralField(grid, coeffs)
    if solenoidal:
        out = leray_project(out)
    return out
