"""Periodic 3D fields stored as Fourier coefficients, with exact spectral calculus.

Convention: for samples f(x) on the n^3 collocation grid of the 2*pi torus,

    coeff(k) = (1/n^3) * sum_x f(x) exp(-i k.x),     k in [-n/2, n/2)^3,

so f(x) = sum_k coeff(k) exp(i k.x).  Wavevectors are integers.  Fields
are real, so their coefficients are Hermitian, coeff(-k) = conj(coeff(k)),
and the half kz >= 0 determines the rest (Canuto et al., Spectral Methods,
2006, sec. 2.1).  A field stores the box |kx|, |ky| <= C, 0 <= kz <= C of
that half, complex128 of shape (..., 2C + 1, 2C + 1, C + 1), x and y
wavenumbers in FFT order [0..C, -C..-1] and kz index j holding the
wavenumber j, with C = max(dealias_cut, s) and s the field's support cut
(_support_cut), the largest |kx|, |ky| or kz of a nonzero coefficient.  So
equal fields have equal arrays, the fields of a stepped state, which are
zero beyond the dealias cut, are stored on the box of the cut, and every
spectral operation takes the integer wavevectors of the box it is given
(_box_axes): no array of the grid's size holds wavenumbers.

The half cube (..., n, n, n//2 + 1), the layout of a real FFT, holds every
box of a cut below n/2 in rows 0..C and n - C..n - 1 of its x and y axes.
One block map (_halves) makes every copy between a box and a longer axis,
and one function (_regrid) every copy between two layouts, box or half
cube.  Only the real FFT pair (to_physical, from_physical) and the oracles
build a half cube; a checkpoint stores boxes.  Its n/2 ("oddball")
planes, index n/2 of any axis, hold the wavenumber -n/2 of a mode and of
its Hermitian partner alike, so a k-dependent multiplier applied there
breaks the symmetry, and no dyadic shell the package reads reaches them:
they all lie inside the dealias cut, below n/3.  No field holds content
there: SpectralField drops the n/2 planes of a half cube it is given, as
from_physical does with its transform, and a checkpoint's box cuts lie
below n/2.

Inside the solver's step, coefficients live on the dealias ball (_Ball):
the modes |k| <= c = dealias_cut with kz >= 0, the modes the 2/3 rule
keeps, as flat (ncomp, N) arrays in box order, about half the box of c.
The solver's kernel scatters each component into a box for its x pass and
gathers its results back from the box its forward x pass writes; a stepped
state's u and b expand the ball into the field's box of c.  The spectral
sums and sup norms of a record take the box of a field's support cut, the
smallest that holds its nonzero coefficients: for a stepped state, at most
the box of c.

All transforms are real and go through one pair.  Samples are made from the
half cube by one inverse real FFT, and coefficients from samples by one
forward real FFT.  A box is transformed by a pruned pair that skips the
all-zero lines (Markel 1971): the inverse zero-pads each axis only for its
own pass, the forward keeps only the box rows of each axis after its pass.
The pruned pair exists only as its passes, which are streamed over slabs of
x planes in buffers their caller keeps: the x pass of the inverse runs once
into a (..., n, 2c + 1, c + 1) buffer, then each slab takes its y and z
passes (and, in the solver's kernel, the products and the forward z and y
passes), and the forward x pass runs last.  The solver's kernel streams the
pair; _BoxSup streams the inverse to the sup of a box's samples, for the
step's dt gate and for LPPartition.shell_linf, and no sample cube is built.

The z passes run between kz = 0..c and n real samples, so they are
computed as one real matrix product per slab against a cached 2(c + 1) x n
DFT matrix (_z_matrices), O(n c) per line in one BLAS call, which is faster
than the FFT up to about n = 128 (solver._Kernel has the measurements).
The x and y passes run between the 2c + 1 box rows and n samples: where
_dense_xy(n, c) holds, which reads n and c alone, each is one complex
matrix product per component against a cached n x (2c + 1) DFT matrix
(_xy_matrices), and elsewhere a pocketfft call (numpy.fft).  That puts the
kernel and dt gate at n <= 56 and the shell boxes of cut <= 15 at n = 64
and 128 on the products, and the kernel and dt gate at n >= 64 on the
FFTs.  A dense y pass takes a slab's planes transposed, so its samples
come out in (comp, y, x, z) order, which the pointwise products and maxima
read as they are and the dense forward y pass takes back.

Bit determinism.  The dense passes equal the FFT passes to rounding
(<= 1e-15 relative), not bit for bit, and a BLAS need not round a row alike
in products of another height.  So the last bits of whatever a slab
computes depend on the BLAS kernel, on the slab height, which SLAB_BYTES
sets, and on the side of _dense_xy that (n, c) falls on, which is fixed per
grid and box (one and two BLAS threads give the same bits).  A step, a
run resumed from a checkpoint, dt_gate (the stage-1 gate of a step) and the
shell sup norms are therefore bit-identical under the same BLAS kernel and
the same SLAB_BYTES, and the step's products and the shell sup norms match
their half-cube references (irfftn, lp_norm) to <= 1e-15 relative.  The
half-cube transforms keep pocketfft: a half cube has no cut to prune at.

Spectral power sums and inner products (Parseval norms, ||grad f||^2, shell
powers) are taken on a box, each kz plane counted with its Hermitian
multiplicity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from itertools import product

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
    exact.  An explicit cut that breaks it raises DimensionError, as does a
    size that is not an integer (a bool is not one); a numpy integer size
    is stored as an int.

    A grid holds no wavenumber array of its size: each field takes the
    integer wavevectors of its own box (_box_axes), and `ball` holds the
    tables of the dealias ball |k| <= dealias_cut, where the solver steps
    (_Ball).
    """

    n: int
    dealias_cut: int | None = None

    def __post_init__(self):
        for name, value in (("n", self.n), ("dealias_cut", self.dealias_cut)):
            is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not is_int and (name == "n" or value is not None):
                raise DimensionError(f"grid {name} must be an integer, got {value!r}")
            if value is not None:  # a numpy integer is stored as an int
                object.__setattr__(self, name, int(value))
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
    def ball(self) -> "_Ball":
        """The tables of the dealias ball, where the solver steps."""
        return _ball(self.dealias_cut)


def _box_axes(cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Broadcastable x, y and kz axes of the box of `cut`, x and y in FFT
    order [0..cut, -cut..-1], integers as floats."""
    k = np.r_[0 : cut + 1, -cut:0].astype(np.float64)
    return k.reshape(-1, 1, 1), k.reshape(1, -1, 1), np.arange(cut + 1.0)


def _box_shape(cut: int) -> tuple[int, int, int]:
    """The shape (2 cut + 1, 2 cut + 1, cut + 1) of the box of `cut`."""
    return 2 * cut + 1, 2 * cut + 1, cut + 1


def _cut_of(coeffs: np.ndarray) -> int:
    """The cut of the box `coeffs` is on, (m - 1)//2 of its m x rows:
    n/2 - 1 for a half cube, the largest box it holds."""
    return (coeffs.shape[-3] - 1) // 2


def _norm_sq(kvec) -> np.ndarray:
    """|k|^2 of broadcastable wavevector axes."""
    kx, ky, kz = kvec
    return kx**2 + ky**2 + kz**2


def _reciprocal(k_sq: np.ndarray) -> np.ndarray:
    """1/k_sq, 0 where k_sq = 0."""
    inv = np.zeros_like(k_sq)
    np.divide(1.0, k_sq, out=inv, where=k_sq > 0)
    return inv


class _Ball:
    """The modes |k| <= cut with kz >= 0 of the box of `cut`, which the 2/3
    rule keeps at cut = dealias_cut, as per-mode tables in box order (the
    flat order of a C-contiguous box of shape _box_shape(cut), x rows first,
    kz last), so k = 0 is mode 0.  A ball array holds one coefficient per
    mode and component, shape (ncomp, size).

    `index` is each mode's flat index into the box, `kvec` its wavevector
    components as floats, `k_sq` its |k|^2, `inv_k_sq` 1/|k|^2 (0 at
    k = 0) and `mult` the Hermitian multiplicity of its kz plane, as
    _multiplicity counts it.  The ball holds 46%, 49.5% and 51% of the box
    at the default cuts of n = 32, 64 and 128.  The tables are read-only
    and shared: _ball caches one ball per cut."""

    def __init__(self, cut: int):
        self.shape = _box_shape(cut)
        axes = _box_axes(cut)
        self.index = np.flatnonzero(_norm_sq(axes) <= cut * cut)
        self.size = self.index.size
        self.kvec = tuple(np.broadcast_to(k, self.shape).flat[self.index] for k in axes)
        self.k_sq = _norm_sq(self.kvec)
        self.inv_k_sq = _reciprocal(self.k_sq)
        self.mult = np.where(self.kvec[2] > 0, 2.0, 1.0)
        for a in (self.index, *self.kvec, self.k_sq, self.inv_k_sq, self.mult):
            a.flags.writeable = False

    def gather(self, box: np.ndarray, out=None) -> np.ndarray:
        """The ball modes of box (ncomp, ...shape), a new C-contiguous
        (ncomp, size) array, or written into `out`."""
        # mode="clip" writes straight into out, where "raise" buffers it
        return np.take(box.reshape(len(box), -1), self.index, axis=1, out=out, mode="clip")

    def expand(self, ball: np.ndarray) -> np.ndarray:
        """A new box (ncomp, ...shape) holding `ball`, zero beyond it."""
        box = np.zeros((len(ball),) + self.shape, dtype=ball.dtype)
        box.reshape(len(ball), -1)[:, self.index] = ball
        return box


# one ball per cut, shared by every grid of that cut
_ball = cache(_Ball)


@dataclass
class SpectralField:
    """A real field (scalar, vector, or tensor) as its Fourier coefficients
    on the box of cut C = max(grid.dealias_cut, s), s its support cut (see
    the module docstring).

    coeffs has shape (ncomp, 2C + 1, 2C + 1, C + 1); ncomp is 1 for
    scalars, 3 for vectors, 9 for gradient tensors (component order
    d_j f_i at index 3*i + j).  The constructor takes the coefficients on a
    box of any cut below n/2, or on the half cube (ncomp, n, n, n//2 + 1),
    whose n/2 planes it drops, and regrids them to C, so equal fields have
    equal arrays; coefficients already on that box are kept, not copied.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim == 3:
            c = c[None]
        n, dealias_cut = self.grid.n, self.grid.dealias_cut
        cut = _cut_of(c) if c.ndim == 4 else n
        if cut >= n // 2 or c.shape[1:] not in ((n, n, n // 2 + 1), _box_shape(cut)):
            raise DimensionError(f"coeffs shape {c.shape} incompatible with n={n}")
        if cut > dealias_cut:
            # a half cube drops its n/2 planes here, before its support is read
            cut = _support_cut(_regrid(c, _box_shape(cut)))
        self.coeffs = np.ascontiguousarray(_regrid(c, _box_shape(max(cut, dealias_cut))))

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def _check_same(f: SpectralField, g: SpectralField):
    if f.grid.n != g.grid.n or f.ncomp != g.ncomp:
        raise DimensionError(
            f"field mismatch: ({f.grid.n},{f.ncomp}) vs ({g.grid.n},{g.ncomp})"
        )


def zero_field(grid: Grid, ncomp: int = 3) -> SpectralField:
    shape = (ncomp,) + _box_shape(grid.dealias_cut)
    return SpectralField(grid, np.zeros(shape, dtype=np.complex128))


# -- transforms ---------------------------------------------------------------
# The real transform pair (to_physical, from_physical), and the FFT x and y
# passes of the pruned box pair, are the only FFT calls in the package.  The
# real pair goes through the half cube; a box is transformed only through
# the pruned passes (_inverse_x, _inverse_y, then _inverse_z; _forward_z,
# then _forward_y and _forward_x).  The pruned passes write in place or into
# given buffers through the `out` argument of numpy.fft (NumPy 2.0) and
# numpy.matmul, which spares one fresh array per pass.


# The passes of the pruned box transforms, for callers that stream x planes
# through the y and z passes with buffers of their own.  Every copy between
# a box and an axis of length m goes through the block map _halves.


def _halves(m: int, c: int) -> tuple[slice, slice]:
    """The rows of the two blocks of the box of cut c on an FFT-ordered
    axis of m rows: x and y wavenumbers 0..c in rows 0..c, -c..-1 in rows
    m - c..m - 1; on the box's own axis, m = 2c + 1, rows c + 1..2c."""
    return slice(c + 1), slice(m - c, m)


def _rows(axis: int, rows: slice) -> tuple:
    """Index of `rows` along a negative `axis`."""
    return (Ellipsis, rows) + (slice(None),) * (-axis - 1)


def _inverse_pass(box: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """The FFT x (axis -3) or y (axis -2) pass of the pruned inverse: the
    2c + 1 box rows of `box` zero-padded along `axis` to the length m of
    `out` and inverse-transformed along it in place."""
    w, m = box.shape[axis], out.shape[axis]
    c = w // 2
    out[_rows(axis, slice(c + 1, m - c))] = 0.0
    for box_rows, axis_rows in zip(_halves(w, c), _halves(m, c)):
        out[_rows(axis, axis_rows)] = box[_rows(axis, box_rows)]
    return np.fft.ifft(out, axis=axis, norm="forward", out=out)


def _forward_pass(a: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """The FFT y (axis -2) or x (axis -3) pass of the pruned forward
    transform: `a` transformed along `axis` in place, its box rows written
    to `out`, whose 2c + 1 rows along `axis` give c."""
    np.fft.fft(a, axis=axis, norm="forward", out=a)
    w, m = out.shape[axis], a.shape[axis]
    c = w // 2
    for box_rows, axis_rows in zip(_halves(w, c), _halves(m, c)):
        out[_rows(axis, box_rows)] = a[_rows(axis, axis_rows)]
    return out


# The x and y passes between the box rows of cut c and an axis of m are
# matrix products against a cached complex DFT matrix (_xy_matrices), O(m c)
# multiply-adds per line in one BLAS call, where 2c + 1 <= DENSE_XY_SLOPE
# log2 m, and the FFT passes above, O(m log m) per line, elsewhere.  The
# slope is where one Hall kernel call with gate took as long with either
# (solver._Kernel has the table): between 37/log2 56 = 6.4, where the
# products tied, and 43/log2 64 = 7.2, where they lost.
DENSE_XY_SLOPE = 6.7


def _dense_xy(m: int, cut: int) -> bool:
    """Whether the x and y passes between the 2 cut + 1 box rows and an
    axis of m samples are matrix products rather than FFTs."""
    return 2 * cut + 1 <= DENSE_XY_SLOPE * math.log2(m)


def _inverse_x(box: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The x pass of the pruned inverse: box (k, w, w, h), w = 2 cut + 1, to
    out (k, m, w, h).  The dense pass takes one complex product per
    component, written straight into out, which must be C-contiguous."""
    k, w, _, h = box.shape
    m = out.shape[-3]
    if not _dense_xy(m, w // 2):
        return _inverse_pass(box, out, -3)
    inv, _ = _xy_matrices(m, w // 2)
    np.matmul(inv, box.reshape(k, w, w * h), out=_view(out, (k, m, w * h)))
    return out


def _inverse_y(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The y pass of the pruned inverse on a slab: x (k, s, w, h), the
    slab's planes of the x pass, to `out`, a C-contiguous (k, s, m, h).
    The FFT pass returns out, in (comp, x, y, kz) order.  The dense pass
    copies x transposed to (k, w, s, h) onto the leading bytes of
    `scratch`, a C-contiguous buffer the slab holds and the pass may
    overwrite, then takes one (m, w) by (w, s h) product per component;
    it returns out as (k, m, s, h), in (comp, y, x, kz) order.  The z pass
    keeps that order, so the samples it makes are in it too, which only
    pointwise products and maxima and _forward_y read."""
    k, s, w, h = x.shape
    m = out.shape[-2]
    if not _dense_xy(m, w // 2):
        return _inverse_pass(x, out, -2)
    inv, _ = _xy_matrices(m, w // 2)
    t = _complex_scratch(scratch, (k, w, s, h))
    np.copyto(t, x.swapaxes(-3, -2))
    np.matmul(inv, t.reshape(k, w, s * h), out=_view(out, (k, m, s * h)))
    return out.reshape(k, m, s, h)


def _forward_y(a: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The y pass of the pruned forward transform on a slab: a, the forward
    z pass of samples in the order _inverse_y made them, (k, s, m, h) as the
    caller shapes it, to the box rows out (k, s, w, h), the slab's planes
    of the x buffer.  The FFT pass transforms a in place.  The dense pass
    takes one (w, m) by (m, s h) product per component onto the leading
    bytes of `scratch`, as for _inverse_y, and copies it transposed to
    out."""
    k, s, w, h = out.shape
    m = a.shape[-2]
    if not _dense_xy(m, w // 2):
        return _forward_pass(a, out, -2)
    _, fwd = _xy_matrices(m, w // 2)
    t = _complex_scratch(scratch, (k, w, s, h))
    np.matmul(fwd, _view(a, (k, m, s * h)), out=t.reshape(k, w, s * h))
    np.copyto(out, t.swapaxes(-3, -2))
    return out


def _forward_x(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The x pass of the pruned forward transform: a (k, m, w, h) to the
    box out (k, w, w, h).  The FFT pass transforms a in place; the dense
    one takes one complex product per component, of C-contiguous a, written
    straight into out, which must be C-contiguous."""
    k, m, w, h = a.shape
    if not _dense_xy(m, w // 2):
        return _forward_pass(a, out, -3)
    _, fwd = _xy_matrices(m, w // 2)
    np.matmul(fwd, _view(a, (k, m, w * h)), out=_view(out, (k, w, w * h)))
    return out


def _inverse_z(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The z pass of the pruned inverse as one real matrix product: y-pass
    output y (..., m, c + 1) to the real samples `out` (..., m, m), both
    C-contiguous, row for row, so the samples keep the order of y's rows.
    Equals irfft along z to rounding (see _z_matrices)."""
    m, h = out.shape[-1], y.shape[-1]
    inv, _ = _z_matrices(m, h - 1)
    np.matmul(_view(y.view(np.float64), (-1, 2 * h)), inv, out=_view(out, (-1, m)))
    return out


def _forward_z(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The z pass of the pruned forward transform as one real matrix
    product: real samples (..., m, m) to their kz <= c in `out`
    (..., m, c + 1), both C-contiguous, row for row.  Equals rfft along z,
    truncated, to rounding (see _z_matrices)."""
    m, h = samples.shape[-1], out.shape[-1]
    _, fwd = _z_matrices(m, h - 1)
    np.matmul(_view(samples, (-1, m)), fwd, out=_view(out.view(np.float64), (-1, 2 * h)))
    return out


def _view(a: np.ndarray, shape: tuple) -> np.ndarray:
    """a reshaped to `shape` as a view.  A reshape of a non-contiguous array
    is a copy, and a product written to a copy is lost, so that raises."""
    if not a.flags.c_contiguous:
        raise ValueError(f"a dense pass needs C-contiguous arrays, got strides {a.strides}")
    return a.reshape(shape)


def _complex_scratch(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """A complex128 array of `shape` on the leading bytes of buf, a
    C-contiguous float64 or complex128 array that must hold it."""
    return _view(buf, (-1,)).view(np.complex128)[: math.prod(shape)].reshape(shape)


@cache
def _xy_matrices(m: int, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """(INV, FWD): the complex DFT matrices of the dense x and y passes
    between the box rows [0..cut, -cut..-1] and m samples.  INV, (m,
    2 cut + 1), holds exp(i phase); FWD, (2 cut + 1, m), its conjugate
    transpose over m, the 1/m of this module's normalization.  The phases
    are 2 pi ((x k) mod m)/m, reduced in integers as in _z_matrices.
    Cached, as every dense x and y pass asks for them, and read-only."""
    k = np.r_[0 : cut + 1, m - cut : m]
    phase = (TWO_PI / m) * (np.outer(np.arange(m), k) % m)
    inv = np.cos(phase) + 1j * np.sin(phase)
    fwd = np.ascontiguousarray(inv.T.conj()) / m
    inv.flags.writeable = fwd.flags.writeable = False
    return inv, fwd


@cache
def _z_matrices(m: int, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """(INV, FWD): the real DFT matrices of the pruned z passes between kz =
    0..cut, stored as interleaved (re, im) pairs, and m real samples.
    INV, (2 cut + 2, m), sums the Hermitian series: weight 1 at kz = 0 and 2
    above it, so that samples = re . w cos - im . w sin; the imaginary part
    of kz = 0 meets sin 0 = 0 and is ignored, as irfft ignores it.  FWD,
    (m, 2 cut + 2), holds cos/m and -sin/m, the 1/m of this module's
    normalization.  The phases are 2 pi ((k z) mod m)/m, reduced in
    integers: unreduced, the rounding of 2 pi k z/m grew with k z to 4.7e-15
    relative at m = 64.  Cached, as every pruned z pass asks for them, and
    read-only."""
    k = np.arange(cut + 1)
    phase = (TWO_PI / m) * (np.outer(k, np.arange(m)) % m)
    cos, sin = np.cos(phase), np.sin(phase)
    weight = np.where(k == 0, 1.0, 2.0)[:, None]
    inv = np.empty((2 * (cut + 1), m))
    inv[0::2], inv[1::2] = weight * cos, -weight * sin
    fwd = np.empty((m, 2 * (cut + 1)))
    fwd[:, 0::2], fwd[:, 1::2] = cos.T / m, -sin.T / m
    inv.flags.writeable = fwd.flags.writeable = False
    return inv, fwd


def _regrid(a: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Coefficients a (..., m, m, h) on a box or a half cube, on the layout
    `shape` of another: the box of cut c for _box_shape(c), the n-grid half
    cube for (n, n, n//2 + 1).  The modes both layouts hold, the box of the
    smaller cut (_cut_of), are copied, and the others are dropped or zero,
    so a half cube's n/2 planes are never copied.  a itself when it is on
    `shape` already, else a new C-contiguous array of a's dtype.  The four
    blocks of x and y rows (_halves) are copied by slices, so no temporary
    is made; a gather by index arrays lays the box out in another axis
    order, over which sums such as _parseval run in another order."""
    if a.shape[-3:] == shape:
        return a
    cut = min(_cut_of(a), (shape[0] - 1) // 2)
    fresh = np.empty if shape == _box_shape(cut) else np.zeros
    out = fresh(a.shape[:-3] + shape, dtype=a.dtype)
    blocks = zip(_halves(a.shape[-3], cut), _halves(shape[0], cut))
    for (ax, ox), (ay, oy) in product(blocks, repeat=2):
        out[..., ox, oy, : cut + 1] = a[..., ax, ay, : cut + 1]
    return out


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples, shape (ncomp, n, n, n), by the inverse real FFT
    of f's half cube."""
    n = f.grid.n
    half = _regrid(f.coeffs, (n, n, n // 2 + 1))
    return np.fft.irfftn(half, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def from_physical(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Inverse of to_physical on fields without n/2 content, by the forward
    real FFT, with this module's 1/n^3 normalization; accepts (n,n,n) or
    (c,n,n,n).  SpectralField drops the n/2 planes of the transform, as no
    field stores them."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 3:
        s = s[None]
    if s.shape[1:] != (grid.n,) * 3:
        raise DimensionError(f"sample shape {s.shape} incompatible with n={grid.n}")
    return SpectralField(grid, np.fft.rfftn(s, axes=(-3, -2, -1), norm="forward"))


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


# -- streamed box samples --------------------------------------------------------

# bytes of the solver kernel's sample and transform buffers per slab, which
# sets the x planes per slab of every pass streamed on a grid (at least one,
# at most n; _slab_planes).  Budgets of 0.5 to 16 MiB stepped within noise
# of each other at n = 32, 64 and 128 (2-core host, 2 MiB L2 per core, FFT z
# passes); this is the smallest that was never worse.  A kernel plane holds
# 8 (16 n^2 + 6 n (c + 1)) bytes: n^2 float64 of five 3-component sample
# arrays and one scratch array, and 3 n (c + 1) complex128 of the one
# transform buffer, which the dense z passes keep at kz <= c.  That is 14, 3
# and 1 planes at n = 32, 64 and 128.  _BoxSup takes the same height, so
# that the dt gate's maxima are the step's bits.  Its slab holds a third of
# the kernel's, but the slabs its own budget allows (32, 9 and 2 planes) made
# no shell sup norm faster: 7.8 against 7.7 ms, 55 against 56 ms and 626
# against 563 ms for u and b of a stepped state at n = 32, 64 and 128.  The
# budget was tuned with FFT x and y passes and is kept with the dense ones:
# another slab height would change the last bits of every step at n = 64,
# whose x and y passes are still FFTs but whose z products are not.
SLAB_BYTES = 2 << 20


def _slab_planes(grid: Grid) -> int:
    """x planes per slab of the passes streamed on `grid`: as many kernel
    planes as SLAB_BYTES holds, at least one, at most n."""
    n, h = grid.n, grid.dealias_cut + 1
    return min(n, max(1, SLAB_BYTES // (8 * 16 * n * n + 16 * 3 * n * h)))


def _support_cut(coeffs: np.ndarray) -> int:
    """The cut of the smallest box that holds every nonzero entry of the
    box coefficients (ncomp, 2c + 1, 2c + 1, c + 1) of a field: the largest
    |kx|, |ky| or kz of an x, y or kz plane holding one, 0 for a zero field."""
    m = coeffs.shape[-3]
    live = coeffs.any(axis=0)
    xy = live.any(axis=2)
    planes = (xy.any(axis=1), xy.any(axis=0), live.any(axis=0).any(axis=0))
    k = np.minimum(np.arange(m), m - np.arange(m))  # |k| of an index in FFT order
    return int(max(k[: p.size][p].max(initial=0) for p in planes))


class _BoxSup:
    """max_x |samples(x)| over the n^3 grid of the real fields whose
    coefficients on kz >= 0 are a box, or a Fourier multiplier times the
    box of its shape, streamed: the x pass of the pruned inverse runs once
    into an x buffer, one component at a time, each multiplied as it enters
    it, then each slab of _slab_planes(grid) x planes takes the y pass, the
    dense z product and _sup_magnitude, so no sample cube and no multiplied
    box is built.  The x buffer, for boxes of up to `ncomp` components and
    cut `cut`, and the slab's buffers are flat arrays allocated once and
    reused by every box, which takes their C-contiguous leading parts; a
    dense y pass takes its scratch on the slab's sample planes, which the z
    pass fills after it.

    The maxima match those of the half-cube samples to <= 1e-15 relative,
    and at the kernel's slab height and cut they are the kernel's bits (see
    bit determinism in the module docstring).  An all-zero box or
    multiplier reads 0 and a box of cut 0, a constant field, the magnitude
    of its real part, without the y and z passes, and an all-zero product
    reads 0 through them; a nan is kept.  Not thread-safe: one call at a
    time."""

    def __init__(self, grid: Grid, ncomp: int, cut: int):
        n, h = grid.n, cut + 1
        self.n, self.planes = n, _slab_planes(grid)
        self._x = np.empty(ncomp * n * (2 * cut + 1) * h, dtype=np.complex128)
        self._y = np.empty(ncomp * self.planes * n * h, dtype=np.complex128)
        self._samples = np.empty((ncomp + 2) * self.planes * n * n)

    def __call__(self, box: np.ndarray, mult: np.ndarray | None = None) -> float:
        """The sup of box, or of mult times box regridded to mult's box."""
        shape = box.shape[1:] if mult is None else mult.shape
        ncomp, (w, _, h) = len(box), shape

        def component(i):
            c = _regrid(box[i], shape)
            return c if mult is None else c * mult

        if not (box if mult is None else mult).any():
            return 0.0
        if w == 1:
            return _sup_magnitude(np.array([component(i).real for i in range(ncomp)]))
        n, planes = self.n, self.planes
        xs = self._x[: ncomp * n * w * h].reshape(ncomp, n, w, h)
        for i in range(ncomp):
            c = component(i)
            _inverse_x(c[None], xs[i : i + 1])
            del c  # before the next component is formed
        maxima = []
        for i0 in range(0, n, planes):
            p = min(planes, n - i0)
            y = self._y[: ncomp * p * n * h].reshape(ncomp, p, n, h)
            samples = self._samples[: (ncomp + 2) * p * n * n].reshape(ncomp + 2, p, n, n)
            # the sample planes are the y pass's scratch until the z pass
            f = _inverse_z(_inverse_y(xs[:, i0 : i0 + p], y, samples[:ncomp]), samples[:ncomp])
            maxima.append(_sup_magnitude(f, samples[ncomp], samples[ncomp + 1]))
        # np.max, unlike max, keeps a nan of any slab
        return float(np.max(maxima))


# -- calculus -----------------------------------------------------------------


def _curl(kvec, coeffs: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """i k x coeffs for the broadcastable wavevectors of coeffs' box,
    written to `out` when given (not coeffs), one component at a time by
    _curl_component, with its tmp."""
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    for i, o in enumerate(out):
        _curl_component(kvec, coeffs, i, o, tmp)
    return out


def _curl_component(
    kvec, coeffs: np.ndarray, i: int, out: np.ndarray, tmp=None
) -> np.ndarray:
    """Component i of i k x coeffs, written to `out` (not coeffs), one
    component's shape: i (k_j c_k - k_k c_j) with j, k = i + 1, i + 2
    (mod 3), for broadcastable or per-mode wavevectors; the factor i,
    applied last, is exact.  tmp, one component's shape, holds the
    subtrahend."""
    j, k = (i + 1) % 3, (i + 2) % 3
    np.multiply(kvec[j], coeffs[k], out=out)
    out -= np.multiply(kvec[k], coeffs[j], out=tmp)
    out *= 1j
    return out


def curl(f: SpectralField) -> SpectralField:
    if f.ncomp != 3:
        raise DimensionError("curl needs a 3-component field")
    return SpectralField(f.grid, _curl(_box_axes(_cut_of(f.coeffs)), f.coeffs))


def _leray(
    kvec, inv_k_sq: np.ndarray, coeffs: np.ndarray, out=None, tmp=None
) -> np.ndarray:
    """coeffs - k (k.coeffs)/|k|^2 for the broadcastable wavevectors and
    1/|k|^2 (0 at k = 0, which is left untouched) of coeffs' box, written to
    `out` when given, which may be coeffs itself.  tmp, two components,
    holds k.coeffs and each product."""
    if tmp is None:
        tmp = np.empty((2,) + coeffs.shape[1:], dtype=np.complex128)
    kdot, t = tmp
    kx, ky, kz = kvec
    np.multiply(kx, coeffs[0], out=kdot)
    kdot += np.multiply(ky, coeffs[1], out=t)
    kdot += np.multiply(kz, coeffs[2], out=t)
    kdot *= inv_k_sq
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    for o, c, k in zip(out, coeffs, kvec):
        np.subtract(c, np.multiply(k, kdot, out=t), out=o)
    return out


def leray_project(f: SpectralField) -> SpectralField:
    """Remove the gradient part: coeff -= k (k.coeff)/|k|^2, k=0 untouched."""
    if f.ncomp != 3:
        raise DimensionError("leray_project needs a 3-component field")
    kvec = _box_axes(_cut_of(f.coeffs))
    return SpectralField(f.grid, _leray(kvec, _reciprocal(_norm_sq(kvec)), f.coeffs))


def vector_potential(b: SpectralField) -> SpectralField:
    """Solenoidal A with curl A = b (b solenoidal, zero mean): A = i k x b / |k|^2."""
    kvec = _box_axes(_cut_of(b.coeffs))
    a = _curl(kvec, b.coeffs)
    a *= _reciprocal(_norm_sq(kvec))
    return SpectralField(b.grid, a)


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
    """Sum over all wavevectors of a quantity p(k) = p(-k) given on the
    box kz >= 0.  Each plane kz > 0 counts twice, for itself and its
    Hermitian partner kz < 0, which is not stored; the kz = 0 plane holds
    its own partners and counts once."""
    return float(np.sum(p @ _multiplicity(p), dtype=np.float64))


def _multiplicity(p: np.ndarray) -> np.ndarray:
    """The Hermitian multiplicity of each kz plane of a box p, as
    _hermitian_sum counts them."""
    multiplicity = np.full(p.shape[-1], 2.0)
    multiplicity[0] = 1.0
    return multiplicity


def _parseval(coeffs: np.ndarray, weight: np.ndarray | None = None) -> float:
    """(2*pi)^3 sum_k weight(k) |coeff(k)|^2 over all wavevectors of real
    fields, from their box (ncomp, ...); weight (even in k, given on the
    same box) defaults to 1.  The powers are formed one component at a
    time and summed in _hermitian_sum's order."""
    rows = np.empty(coeffs.shape[:-1])
    p = np.empty(coeffs.shape[1:])
    for c, row in zip(coeffs, rows):
        np.square(np.abs(c, out=p), out=p)
        if weight is not None:
            p *= weight
        np.matmul(p, _multiplicity(p), out=row)
    return VOLUME * float(np.sum(rows, dtype=np.float64))


def l2_norm_spectral(f: SpectralField) -> float:
    """Parseval form: sqrt((2*pi)^3 * sum_k |coeff|^2)."""
    return float(np.sqrt(_parseval(f.coeffs)))


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product of real fields via the spectral sum,
    (2*pi)^3 sum_k Re(conj(f(k)) g(k)) over all wavevectors, taken on the
    smaller of their two boxes, beyond which one of them is zero."""
    _check_same(f, g)
    shape = _box_shape(min(_cut_of(f.coeffs), _cut_of(g.coeffs)))
    fc, gc = (_regrid(h.coeffs, shape) for h in (f, g))
    return VOLUME * _hermitian_sum((np.conj(fc) * gc).real)


def grad_norm_sq(f: SpectralField) -> float:
    """(2*pi)^3 * sum_k |k|^2 |coeff|^2  =  || grad f ||_2^2."""
    return _parseval(f.coeffs, _norm_sq(_box_axes(_cut_of(f.coeffs))))


# -- consistency checks ---------------------------------------------------------


def _divergence_error(kvec, coeffs: np.ndarray) -> float:
    """max_k |k . coeffs(k)| relative to max |coeffs| for the broadcastable
    wavevectors of coeffs' box."""
    kx, ky, kz = kvec
    kdot = kx * coeffs[0]
    kdot += ky * coeffs[1]
    kdot += kz * coeffs[2]
    # one component at a time; np.max, unlike max, keeps a nan
    scale = np.max([np.abs(c).max() for c in coeffs])
    if scale == 0.0:
        return 0.0
    return float(np.abs(kdot).max() / scale)


def divergence_error(f: SpectralField) -> float:
    """max_k |k . coeff(k)| relative to max |coeff|."""
    return _divergence_error(_box_axes(_cut_of(f.coeffs)), f.coeffs)


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
    are drawn on the smallest box that holds the band, of cut
    min(floor(k_hi), n/2 - 1), the largest box a field has when k_hi is
    None or k_hi >= n/2 - 1.  The kz = 0 plane holds its own Hermitian
    partners, so there the drawn a(k) become (a(k) + conj a(-k)) / sqrt(2):
    exactly Hermitian, of the same variance, and real at the self-conjugate
    k = 0.  The band mask, the zero mean and the Leray projection are
    applied on that box, which SpectralField regrids to the field's.

    A seed gives another field than the former draw, which transformed n^3
    white physical noise, but one of the same law.
    """
    if solenoidal and ncomp != 3:
        raise DimensionError("a solenoidal random field needs 3 components")
    n = grid.n
    cut = n // 2 - 1
    if k_hi is not None:
        cut = int(min(max(k_hi, 0), cut))
    kvec = _box_axes(cut)
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
    return SpectralField(grid, coeffs)
