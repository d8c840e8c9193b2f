"""Periodic 3D fields stored as Fourier coefficients, with exact spectral calculus.

Convention: for samples f(x) on the n^3 collocation grid of the 2*pi torus,

    coeff(k) = (1/n^3) * sum_x f(x) exp(-i k.x),     k in [-n/2, n/2)^3,

so f(x) = sum_k coeff(k) exp(i k.x).  Wavevectors are integers; the n/2
("oddball") mode present for even n is zeroed whenever a derivative is taken,
and the Leray projection and the vector potential zero the n/2 planes.
Fields are real, so their coefficients are Hermitian, coeff(-k) =
conj(coeff(k)), and the half kz >= 0 determines the rest (Canuto et al.,
Spectral Methods, 2006, sec. 2.1).  Field coefficients are stored as that
half cube, complex128 of shape (..., n, n, n//2 + 1), the layout of a real
FFT: kz index j holds the wavenumber j, and the last plane the n/2 plane,
whose partners, like those of the kz = 0 plane, lie in the same plane.
Every wavenumber array of Grid has the same layout.

Inside the solver's step, coefficients live on a smaller array still: the
box |kx|, |ky| <= c, 0 <= kz <= c of a cut c < n/2, shape
(..., 2c + 1, 2c + 1, c + 1), x and y wavenumbers in FFT order
[0..c, -c..-1].  With c = dealias_cut it holds every mode the 2/3 rule keeps.

All transforms are real and go through one pair.  Samples are made from the
half cube by one inverse real FFT, or from a box by a pruned one that skips
the all-zero lines (Markel 1971): each axis is zero-padded only for its own
pass.  Coefficients are made from samples by one forward real FFT.  The
pruned forward transform to the box, each pass keeping only the box rows of
its axis, exists only as its passes: the solver's kernel streams slabs of x
planes through them, and through the passes of the pruned inverse, in
buffers it keeps.

Spectral power sums and inner products (Parseval norms, ||grad f||^2, shell
powers) are taken on the half cube or the box, each kz plane counted with
its Hermitian multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

TWO_PI = 2.0 * np.pi
VOLUME = TWO_PI**3


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

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumbers per axis in FFT order, 0..n/2 - 1, -n/2..-1,
        as floats built from integers: fftfreq(n, 1/n) is off by ulps for
        some n (1.0000000000000002 at n = 98)."""
        k = np.arange(self.n, dtype=np.float64)
        k[self.n // 2 :] -= self.n
        return k

    @cached_property
    def d1(self) -> np.ndarray:
        """Differentiation wavenumbers: k1 with the oddball n/2 mode zeroed."""
        d = self.k1.copy()
        d[self.n // 2] = 0.0
        return d

    @cached_property
    def kvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable (kx, ky, kz) on the half cube, with shapes (n,1,1),
        (1,n,1), (1,1,n//2 + 1)."""
        return _half_cube_axes(self.k1)

    @cached_property
    def dvec(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _half_cube_axes(self.d1)

    @cached_property
    def k_sq(self) -> np.ndarray:
        return _norm_sq(self.kvec)

    @cached_property
    def inv_k_sq(self) -> np.ndarray:
        """1/|k|^2, 0 at k = 0."""
        return _reciprocal(self.k_sq)

    @cached_property
    def box(self):
        """(wavevectors, |k|^2, 1/|k|^2, dealias mask) on the box |kx|, |ky|,
        kz <= dealias_cut, where the solver steps.  The box holds no n/2
        index, so its derivative wavenumbers are its wavevectors."""
        c = self.dealias_cut
        kvec = _box_axes(self.k1, c)
        k_sq = _norm_sq(kvec)
        return kvec, k_sq, _reciprocal(k_sq), np.sqrt(k_sq) <= c


def _half_cube_axes(k1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers k1 in FFT order as broadcastable x, y and kz >= 0
    axes of the half cube."""
    n = k1.size
    return k1.reshape(n, 1, 1), k1.reshape(1, n, 1), k1[: n // 2 + 1].reshape(1, 1, -1)


def _box_axes(k1: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable x, y and kz axes of the box of `cut`, from the per-axis
    wavenumbers k1 in FFT order."""
    k = k1[_box_rows(k1.size, cut)]
    return k.reshape(-1, 1, 1), k.reshape(1, -1, 1), np.arange(cut + 1.0)


def _norm_sq(kvec) -> np.ndarray:
    """|k|^2 of broadcastable wavevector axes."""
    kx, ky, kz = kvec
    return kx**2 + ky**2 + kz**2


def _reciprocal(k_sq: np.ndarray) -> np.ndarray:
    """1/k_sq, 0 where k_sq = 0."""
    inv = np.zeros_like(k_sq)
    np.divide(1.0, k_sq, out=inv, where=k_sq > 0)
    return inv


@dataclass
class SpectralField:
    """A real field (scalar, vector, or tensor) as its Fourier coefficients
    on the half cube kz >= 0.

    coeffs has shape (ncomp, n, n, n//2 + 1); ncomp is 1 for scalars, 3 for
    vectors, 9 for gradient tensors (component order d_j f_i at index
    3*i + j).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim == 3:
            c = c[None]
        n = self.grid.n
        if c.ndim != 4 or c.shape[1:] != (n, n, n // 2 + 1):
            raise DimensionError(
                f"coeffs shape {c.shape} incompatible with n={self.grid.n}"
            )
        self.coeffs = np.ascontiguousarray(c, dtype=np.complex128)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _check_same(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _check_same(f: SpectralField, g: SpectralField):
    if f.grid.n != g.grid.n or f.ncomp != g.ncomp:
        raise DimensionError(
            f"field mismatch: ({f.grid.n},{f.ncomp}) vs ({g.grid.n},{g.ncomp})"
        )


def zero_field(grid: Grid, ncomp: int = 3) -> SpectralField:
    n = grid.n
    return SpectralField(grid, np.zeros((ncomp, n, n, n // 2 + 1), dtype=np.complex128))


# -- transforms ---------------------------------------------------------------
# The two real transforms below, and the passes of their pruned path, are
# the only FFT calls in the package.  The inverse takes either the half cube
# or the box; the forward returns the half cube, and the box only through
# the pruned passes.  The pruned passes write in place
# or into given buffers through the `out` argument of numpy.fft (NumPy 2.0),
# which spares one fresh array per pass.


def _half_to_physical(half: np.ndarray, m: int) -> np.ndarray:
    """Collocation samples on the m^3 grid of real fields from coefficients
    on kz >= 0: the half cube coeffs[..., :m//2 + 1], or a box (odd x/y
    extent 2c + 1).  A box is a pruned transform: each axis is zero-padded to
    m just before its own pass, so the x pass runs on the box's (2c + 1)(c + 1)
    lines and the y pass on m (c + 1) lines, and irfft pads kz."""
    if half.shape[-3] == m:
        return np.fft.irfftn(half, s=(m, m, m), axes=(-3, -2, -1), norm="forward")
    lead = half.shape[:-3]
    xs = np.empty(lead + (m,) + half.shape[-2:], dtype=np.complex128)
    y = np.empty(lead + (m, m, half.shape[-1]), dtype=np.complex128)
    return _inverse_yz(_inverse_x(half, xs), y)


def _physical_to_half(samples: np.ndarray) -> np.ndarray:
    """Half-cube coefficients of real samples, with this module's 1/n^3
    normalization."""
    return np.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward")


# The passes of the pruned box transforms, for callers that stream x planes
# through the y and z passes with buffers of their own.  Box x and y
# wavenumbers are in FFT order [0..c, -c..-1]: rows 0..c and m - c..m - 1 of
# an axis of length m.


def _rows(axis: int, rows: slice) -> tuple:
    """Index of `rows` along a negative `axis`."""
    return (Ellipsis, rows) + (slice(None),) * (-axis - 1)


def _pad_rows(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """dst = src zero-padded along `axis` from the 2c + 1 box rows to the
    dst length m."""
    c, m = src.shape[axis] // 2, dst.shape[axis]
    dst[_rows(axis, slice(c + 1))] = src[_rows(axis, slice(c + 1))]
    dst[_rows(axis, slice(c + 1, m - c))] = 0.0
    dst[_rows(axis, slice(m - c, m))] = src[_rows(axis, slice(c + 1, None))]


def _keep_rows(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """dst = the 2c + 1 box rows of src along `axis`, c from dst."""
    c, m = dst.shape[axis] // 2, src.shape[axis]
    dst[_rows(axis, slice(c + 1))] = src[_rows(axis, slice(c + 1))]
    dst[_rows(axis, slice(c + 1, None))] = src[_rows(axis, slice(m - c, m))]


def _inverse_x(box: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The x pass of the pruned inverse: box (..., 2c + 1, w, h) zero-padded
    to `out` (..., m, w, h) and inverse-transformed along x in place."""
    _pad_rows(box, out, -3)
    return np.fft.ifft(out, axis=-3, norm="forward", out=out)


def _inverse_yz(xs: np.ndarray, y: np.ndarray, out: np.ndarray | None = None):
    """The y and z passes of the pruned inverse: x-pass output xs
    (..., 2c + 1, c + 1) zero-padded along y into the buffer y (..., m, c + 1),
    inverse-transformed along y in place, then along z to the real samples
    (..., m, m), written to `out` when given."""
    _pad_rows(xs, y, -2)
    np.fft.ifft(y, axis=-2, norm="forward", out=y)
    m = y.shape[-2]
    return np.fft.irfft(y, n=m, axis=-1, norm="forward", out=out)


def _forward_zy(samples: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The z and y passes of the pruned forward transform: real samples
    (..., m, m) to `out` (..., 2c + 1, c + 1), through the buffer z
    (..., m, m//2 + 1): kz <= c is kept after the z pass and the box rows of
    y after the y pass, which runs in place in z."""
    c = out.shape[-1] - 1
    a = np.fft.rfft(samples, axis=-1, norm="forward", out=z)[..., : c + 1]
    np.fft.fft(a, axis=-2, norm="forward", out=a)
    _keep_rows(a, out, -2)
    return out


def _forward_x(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The x pass of the pruned forward transform: `a` (..., m, 2c + 1, c + 1)
    transformed along x in place, its box rows written to the box `out`
    (..., 2c + 1, 2c + 1, c + 1)."""
    np.fft.fft(a, axis=-3, norm="forward", out=a)
    _keep_rows(a, out, -3)
    return out


@cache
def _box_rows(n: int, cut: int) -> np.ndarray:
    """Indices of the wavenumbers 0..cut, -cut..-1 on an FFT-ordered axis of
    length n: the x and y rows of the box of that cut.  Cached, as every
    pruned transform asks for them, and read-only."""
    rows = np.r_[0 : cut + 1, n - cut : n]
    rows.flags.writeable = False
    return rows


def _to_box(a: np.ndarray, cut: int) -> np.ndarray:
    """The box |kx|, |ky| <= cut, 0 <= kz <= cut of a half-cube array,
    shape (..., 2 cut + 1, 2 cut + 1, cut + 1), a copy."""
    rows = _box_rows(a.shape[-3], cut)
    return a[..., rows[:, None], rows, : cut + 1]


def _from_box(box: np.ndarray, n: int) -> np.ndarray:
    """The n-grid half cube holding `box`, zero elsewhere."""
    cut = box.shape[-1] - 1
    rows = _box_rows(n, cut)
    out = np.zeros(box.shape[:-3] + (n, n, n // 2 + 1), dtype=np.complex128)
    out[..., rows[:, None], rows, : cut + 1] = box
    return out


def _zero_nyquist(coeffs: np.ndarray) -> np.ndarray:
    """Zero the n/2 planes (index n/2 on each axis) of half-cube
    coefficients in place, and return them.  Grid.kvec gives index n/2 the
    wavenumber -n/2 both for a mode and for its Hermitian partner, so a
    k-dependent multiplier applied there breaks the symmetry."""
    h = coeffs.shape[-3] // 2
    coeffs[..., h, :, :] = 0.0
    coeffs[..., :, h, :] = 0.0
    coeffs[..., :, :, h] = 0.0
    return coeffs


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples, shape (ncomp, n, n, n)."""
    return _half_to_physical(f.coeffs, f.grid.n)


def from_physical(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Inverse of to_physical; accepts (n,n,n) or (c,n,n,n)."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 3:
        s = s[None]
    if s.shape[1:] != (grid.n,) * 3:
        raise DimensionError(f"sample shape {s.shape} incompatible with n={grid.n}")
    return SpectralField(grid, _physical_to_half(s))


def _cross(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Pointwise a x b of (3, ...) sample arrays, written to `out` when given
    (not an input); tmp, one component's shape, holds each subtrahend."""
    if out is None:
        out = np.empty(a.shape)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= np.multiply(a[k], b[j], out=tmp)
    return out


def _sup_magnitude(samples: np.ndarray, sq=None, tmp=None) -> float:
    """max_x |samples(x)| over the component axis, equal bit for bit to the
    largest magnitude lp_norm reads, sqrt(np.sum(samples * samples, axis=0)):
    the squares are summed in component order, as np.sum over axis 0 does,
    and sqrt is monotone, so only the largest sum is rooted.  sq and tmp,
    one component's shape, spare the temporaries."""
    sq = np.multiply(samples[0], samples[0], out=sq)
    for comp in samples[1:]:
        sq += np.multiply(comp, comp, out=tmp)
    return float(np.sqrt(sq.max()))


# -- calculus -----------------------------------------------------------------


def _curl(dvec, coeffs: np.ndarray, out=None) -> np.ndarray:
    """i d x coeffs for broadcastable derivative wavenumbers (half cube or
    box), written to `out` when given (not coeffs).  The wavenumbers
    are made imaginary first, i d, so that no product casts a real operand,
    and each component is written in place."""
    dx, dy, dz = (1j * d for d in dvec)
    cx, cy, cz = coeffs
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    terms = ((dy, cz, dz, cy), (dz, cx, dx, cz), (dx, cy, dy, cx))
    for o, (d1, c1, d2, c2) in zip(out, terms):
        np.multiply(d1, c1, out=o)
        o -= d2 * c2
    return out


def curl(f: SpectralField) -> SpectralField:
    if f.ncomp != 3:
        raise DimensionError("curl needs a 3-component field")
    return SpectralField(f.grid, _curl(f.grid.dvec, f.coeffs))


def _leray(kvec, inv_k_sq: np.ndarray, coeffs: np.ndarray, out=None) -> np.ndarray:
    """coeffs - k (k.coeffs)/|k|^2 for broadcastable wavevectors and 1/|k|^2
    (0 at k = 0, which is left untouched) on the half cube or the box,
    written to `out` when given, which may be coeffs itself."""
    kx, ky, kz = kvec
    kdot = kx * coeffs[0]
    kdot += ky * coeffs[1]
    kdot += kz * coeffs[2]
    kdot *= inv_k_sq
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    for o, c, k in zip(out, coeffs, kvec):
        np.subtract(c, k * kdot, out=o)
    return out


def leray_project(f: SpectralField) -> SpectralField:
    """Remove the gradient part: coeff -= k (k.coeff)/|k|^2, k=0 untouched.
    The n/2 planes are zeroed, which keeps the output Hermitian."""
    if f.ncomp != 3:
        raise DimensionError("leray_project needs a 3-component field")
    g = f.grid
    out = _zero_nyquist(_leray(g.kvec, g.inv_k_sq, f.coeffs))
    return SpectralField(g, out)


def _vector_potential(kvec, inv_k_sq: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """A = i k x coeffs / |k|^2 for broadcastable wavevectors and 1/|k|^2 on
    the half cube, its n/2 planes zeroed (not for the box, whose index n/2
    is no n/2 plane)."""
    return _zero_nyquist(_curl(kvec, coeffs) * inv_k_sq)


def vector_potential(b: SpectralField) -> SpectralField:
    """Solenoidal A with curl A = b (b solenoidal, zero mean): A = i k x b / |k|^2.
    The n/2 planes are zeroed, which keeps the output Hermitian."""
    g = b.grid
    return SpectralField(g, _vector_potential(g.kvec, g.inv_k_sq, b.coeffs))


# -- norms and inner products --------------------------------------------------


def lp_norm(f: SpectralField, p: float) -> float:
    """Collocation L^p norm of |f(x)| on the physical grid, |.| the
    Euclidean magnitude over the components (Frobenius for tensors).

    A grid approximation of the true torus norm; exact for p=2 on band-limited
    fields (Parseval), and a lower bound for p=inf.
    """
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    samples = to_physical(f)
    mag = np.sqrt(np.sum(samples * samples, axis=0))
    if np.isinf(p):
        return float(mag.max(initial=0.0))
    m = mag.shape[-1]
    return float((np.sum(mag**p, dtype=np.float64) * (VOLUME / m**3)) ** (1.0 / p))


def _hermitian_sum(p: np.ndarray) -> float:
    """Sum over all wavevectors of a quantity p(k) = p(-k) given on kz >= 0,
    either on the half cube (x extent n, even; last plane kz = n/2) or on
    the box (x extent 2 cut + 1, odd; last plane kz = cut).  Each plane
    kz > 0 counts twice, for itself and its Hermitian partner kz < 0, which
    is not stored, except the half cube's kz = n/2 plane, which holds its
    own partners and, like kz = 0, counts once.  The parity of the x extent
    tells the two apart: Grid makes n even, and a box is always odd."""
    return float(np.sum(p @ _multiplicity(p), dtype=np.float64))


def _multiplicity(p: np.ndarray) -> np.ndarray:
    """The Hermitian multiplicity of each kz plane of a half cube or box p,
    as _hermitian_sum counts them."""
    multiplicity = np.full(p.shape[-1], 2.0)
    multiplicity[0] = 1.0
    if p.shape[-3] % 2 == 0:
        multiplicity[-1] = 1.0
    return multiplicity


def _parseval(coeffs: np.ndarray, weight: np.ndarray | None = None) -> float:
    """(2*pi)^3 sum_k weight(k) |coeff(k)|^2 over all wavevectors of real
    fields, from their half cube or their box; weight (even in k, given on
    the same array) defaults to 1.  Which one it is follows from the x
    extent, as in _hermitian_sum."""
    p = np.abs(coeffs)
    np.square(p, out=p)
    if weight is not None:
        p *= weight
    return VOLUME * _hermitian_sum(p)


def l2_norm_spectral(f: SpectralField) -> float:
    """Parseval form: sqrt((2*pi)^3 * sum_k |coeff|^2)."""
    return float(np.sqrt(_parseval(f.coeffs)))


def _inner(f: np.ndarray, g: np.ndarray) -> float:
    """(2*pi)^3 sum_k Re(conj(f(k)) g(k)) over all wavevectors of real
    fields, from their half cubes or boxes."""
    return VOLUME * _hermitian_sum((np.conj(f) * g).real)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product of real fields via the spectral sum."""
    _check_same(f, g)
    return _inner(f.coeffs, g.coeffs)


def grad_norm_sq(f: SpectralField) -> float:
    """(2*pi)^3 * sum_k |k|^2 |coeff|^2  =  || grad f ||_2^2."""
    return _parseval(f.coeffs, f.grid.k_sq)


# -- consistency checks ---------------------------------------------------------


def _divergence_error(kvec, coeffs: np.ndarray) -> float:
    """max_k |k . coeffs(k)| relative to max |coeffs| for broadcastable
    wavevectors (half cube or box)."""
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

    The coefficients are drawn directly as i.i.d. complex Gaussians with
    E|c(k)|^2 = 1/n^3, the law of the coefficients of unit white noise on
    the n^3 grid, so no noise is sampled and nothing is transformed.  They
    are drawn on the smallest array that holds the band: the box of cut
    min(floor(k_hi), n/2 - 1), which is the half cube without its n/2
    planes when k_hi is None or k_hi >= n/2 - 1.  The kz = 0 plane holds
    its own Hermitian partners, so there the drawn a(k) become
    (a(k) + conj a(-k)) / sqrt(2): exactly Hermitian, of the same variance,
    and real at the self-conjugate k = 0.  The band mask, the zero mean and
    the Leray projection are applied on the box, and it is scattered into
    the half cube once, with the n/2 planes left zero.

    A seed gives another field than the former draw, which transformed n^3
    white physical noise, but one of the same law.
    """
    if solenoidal and ncomp != 3:
        raise DimensionError("a solenoidal random field needs 3 components")
    n = grid.n
    cut = n // 2 - 1
    if k_hi is not None:
        cut = int(min(max(k_hi, 0), cut))
    kvec = _box_axes(grid.k1, cut)
    k_sq = _norm_sq(kvec)
    draw = rng.standard_normal((ncomp,) + k_sq.shape + (2,))
    coeffs = draw.view(np.complex128)[..., 0]
    coeffs *= np.sqrt(0.5 / n**3)
    plane = coeffs[..., 0]
    plane += np.conj(np.roll(plane[:, ::-1, ::-1], 1, axis=(1, 2)))
    plane *= np.sqrt(0.5)
    k_mag = np.sqrt(k_sq)
    coeffs *= (k_lo <= k_mag) & (k_mag <= (np.inf if k_hi is None else k_hi))
    if zero_mean:
        coeffs[:, 0, 0, 0] = 0.0
    if solenoidal:
        _leray(kvec, _reciprocal(k_sq), coeffs, out=coeffs)
    return SpectralField(grid, _from_box(coeffs, n))
