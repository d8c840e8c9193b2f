"""Time integration of incompressible resistive viscous Hall-MHD on the torus.

Pressure is eliminated by Leray projection.  The linear terms are integrated
exactly by an integrating factor; the dealiased pseudo-spectral nonlinearity
is advanced with classical fourth-order Runge-Kutta on the transformed
variables.

The linear terms are the diffusion and, when b has a mean B0 (its k = 0
coefficient, which the equations conserve), the coupling of the fluctuations
to B0.  Writing b = B0 + b' and kappa = k.B0, that coupling is

    du = i kappa b',    db' = i kappa u + kappa k x b',

the last term from the Hall term.  Per mode it is a 2x2 system in (u, b')
times the operator k x, whose eigenvalues on solenoidal vectors are
+-i|k| (the helical modes; Waleffe, Phys. Fluids A 4, 1992).  So the factor
is exp(L t) = A + B (k x), with A and B 2x2 blocks of per-mode scalars
taken from the closed-form exponentials of the two branches, and the
Alfven and whistler waves of B0 cost no stability: the step's stage values
are (u, b'), and its dt gate reads b' = b - B0.  The mean velocity stays in
the explicit products: a uniform flow is not folded into the factor.

The nonlinearity is written in rotational form (Orszag & Patterson 1972;
Canuto et al., Spectral Methods, 2006, sec. 3.4), with w = curl u and
J = curl b:

    du = P[ u x w + J x b ],    db = curl( (u - J) x b ),

which equals the advective form by solenoidality of u and b.  One private
kernel evaluates it for the stepper and `rhs` on the dealias ball: the
modes |k| <= dealias_cut with kz >= 0 (the half suffices, the fields being
real), stored as flat (3, N) arrays in box order (fields._Ball), about half
of the box |kx|, |ky|, kz <= dealias_cut.  It scatters each component into
a one-component box and runs the pruned inverse x passes of u, w, b and J
once, then streams slabs of x planes through the y and z passes, the cross
products and the forward z and y passes, and ends with the forward x
passes, whose ball modes it gathers into a (du, db) pair on its own
buffers, which its caller reads until the next call; its z passes are
dense real matrix products, its x and y passes dense complex products up
to n = 56 and FFTs above at the default cut (fields._dense_xy), and its
buffers are allocated once per Stepper.  `dt_gate` reads the gate of the
step's first stage from the same pruned samples, made by the same passes
on slabs of the same height (fields._BoxSup).

Products are formed from the dealiased part of u and b (|k| <= dealias_cut),
as the 2/3 rule assumes: content beyond the cut takes no part in them.  A
step stays on the ball throughout: the four stages, the RK4 sums, the
dissipation integral (summed with Hermitian multiplicities), the final Leray
projection and the finiteness and solenoidality checks, so the new state is
zero beyond the cut, and no elementwise operation touches the zeros of the
box around the ball.  It allocates two stage arrays, each a (u, b) pair of
ball arrays, and writes every stage input and RK4 sum into them, reading
the derivatives where the kernel leaves them and using them as scratch;
the stage input becomes the new state, which the next step reads as it
is, and a steady step allocates nothing else larger than one component of
a box.  A state built from SpectralFields gives them up at its first step
and keeps their ball arrays instead.  A field is stored on its box (see
the fields docstring), so a read of a state's `u` or `b` expands its ball
into a new box, and `rhs` returns the kernel's pair so expanded.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import CheckpointError, read_checkpoint
from .config import ConfigError, RunConfig, check_init_params
from .fields import (
    VOLUME,
    DimensionError,
    Grid,
    SpectralField,
    _BoxSup,
    _box_axes,
    _box_shape,
    _cross,
    _curl_component,
    _divergence_error,
    _forward_x,
    _forward_y,
    _forward_z,
    _inverse_x,
    _inverse_y,
    _inverse_z,
    _leray,
    _multiplicity,
    _norm_sq,
    _parseval,
    _reciprocal,
    _regrid,
    _slab_planes,
    _sup_magnitude,
    _support_cut,
    divergence_error,
    l2_norm_spectral,
    random_field,
    zero_field,
)

SOLENOIDAL_DRIFT_TOL = 1e-10


class BlowUpDetected(RuntimeError):
    """Non-finite coefficients appeared; carries the last finite state.

    A meaningful outcome for this artifact, not a crash."""

    def __init__(self, last_state: "SolverState"):
        super().__init__(f"blow-up detected after t={last_state.t:.6g}")
        self.last_state = last_state


class DtGateError(RuntimeError):
    """Time step exceeds the advective/whistler stability gate."""

    def __init__(self, t: float, dt: float, gate: float):
        super().__init__(f"dt={dt:.3e} exceeds stability gate {gate:.3e} at t={t:.6g}")
        self.t = t
        self.gate = gate


class SolenoidalDriftError(RuntimeError):
    """The divergence error of b after a step exceeds SOLENOIDAL_DRIFT_TOL."""


class SolverState:
    """A time, the fields u and b on `grid` (on two grids they raise
    DimensionError), the step count and the dissipation integral of
    nu ||grad u||_2^2 + mu ||grad b||_2^2.

    The state is held as the step reads it: the dealias ball arrays of u
    and b, each (3, N) with N = grid.ball.size, C-contiguous (fields._Ball).
    A state built from SpectralFields keeps them until a step or a read of
    `u` or `b` first needs the balls: then it gathers their modes within
    the cut once, holds those and drops the fields, so that their
    coefficients are freed once the caller lets them go.  A state that
    Stepper.step returns holds its balls from the start.  Each read of `u`
    or `b` is a new field, its ball expanded into the field's box of
    dealias_cut (see the fields docstring): the dealiased field, zero
    beyond the cut, which is the field the next step reads.
    """

    def __init__(
        self,
        t: float,
        u: SpectralField,
        b: SpectralField,
        step_count: int = 0,
        diss_integral: float = 0.0,
    ):
        self.t = t
        self.step_count = step_count
        self.diss_integral = diss_integral
        self.grid = _common_grid(u, b)
        self._fields = (u, b)
        self._ball_pair = None

    @classmethod
    def _from_balls(
        cls, grid: Grid, t: float, balls: np.ndarray, step_count: int,
        diss_integral: float,
    ) -> "SolverState":
        state = cls.__new__(cls)
        state.t, state.step_count, state.diss_integral = t, step_count, diss_integral
        state.grid, state._fields, state._ball_pair = grid, None, balls
        return state

    @property
    def u(self) -> SpectralField:
        return self._field(0)

    @property
    def b(self) -> SpectralField:
        return self._field(1)

    def _field(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.grid.ball.expand(self._balls()[i]))

    def _balls(self):
        """The dealias ball arrays (u, b), to be read only.  A state that
        holds fields gathers their balls here and drops the fields."""
        if self._ball_pair is None:
            self._ball_pair = tuple(map(_dealiased_ball, self._fields, "ub"))
            self._fields = None
        return self._ball_pair


# -- right-hand side -------------------------------------------------------------


def _common_grid(u: SpectralField, b: SpectralField) -> Grid:
    """The grid of u and b; DimensionError naming both if they differ, or
    naming a field that is not a 3-component vector."""
    for name, f in (("u", u), ("b", b)):
        _check_vector(f, name)
    if u.grid != b.grid:
        raise DimensionError(f"u is on {u.grid}, b on {b.grid}")
    return u.grid


def _check_vector(f: SpectralField, name: str) -> None:
    if f.ncomp != 3:
        raise DimensionError(f"{name} has ncomp={f.ncomp}, not a 3-component vector field")


def _pair(grid: Grid) -> np.ndarray:
    """An empty (u, b) pair of dealias ball arrays, shape (2, 3, N)."""
    return np.empty((2, 3, grid.ball.size), dtype=np.complex128)


def _dealiased_ball(f: SpectralField, name: str) -> np.ndarray:
    """A new C-contiguous dealias ball array of f's coefficients, (3, N):
    its modes within the cut.  A nan or inf among them raises ValueError
    naming the field: a gate would read a nan maximum as a zero field."""
    ball = f.grid.ball
    out = ball.gather(_regrid(f.coeffs, ball.shape))
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has a nan or inf coefficient within the dealias cut")
    return out


class _Kernel:
    """The rotational-form nonlinear terms of dealias ball arrays uh, bh
    (3, N), with the buffers they are computed in:

        du = P[ball (u x w + J x b)],   db = curl(ball ((u - J) x b)),

    ball(.) keeping the modes of the dealias ball, and J dropped from db
    when hall_on is False.  Costs 12 pruned real inverse and 6 pruned real
    forward transforms, in three phases:

    - the x passes of u, w = curl u, b and J = curl b, once, into four
      buffers of shape (3, n, 2c + 1, c + 1), one component at a time:
      each component, the curls' formed on the ball in a ball scratch, is
      scattered into a one-component box scratch, which stays zero beyond
      the ball, and takes its x pass from it;
    - per slab of x planes: the y and z passes to samples, the two cross
      products, and their forward z and y passes, which are written back
      over the planes of the u and w buffers that the slab has consumed;
    - the forward x passes, from those two buffers, each into one box on
      the leading bytes of the consumed b buffer, whose ball modes are
      gathered: du onto the leading bytes of the J buffer, then the
      magnetic product onto those of the u buffer, consumed once du is
      formed, from which db is its curl, written after du on the J buffer.
      The Leray projection of du and the curl take their scratch on the w
      buffer, consumed by the second forward x pass.

    The z passes are dense real matrix products (fields._inverse_z,
    _forward_z), one per slab and field: only kz <= c is nonzero on the way
    in and kept on the way out, so a z line costs one row of a product with
    a 2(c + 1) x n matrix, O(n c) = O(n^2) multiply-adds in one BLAS call,
    against an O(n log n) FFT of the whole line.  The product wins while n
    is small and loses as n/log n grows.  Single-threaded OpenBLAS on a
    2-core Xeon, per slab: the inverse z pass 5x faster than irfft at
    n = 32, 1.8x at 64 and 1.0-1.3x at 128; the forward z and y passes
    1.2-1.7x faster than rfft and y at n = 32 and 1.0-1.1x at 64.  Whole
    Hall steps take 0.76x, 0.83x and 0.985x the time of FFT z passes at
    n = 32, 64 and 128, so the crossover lies near n = 128; above it the
    products are untested.

    The x and y passes are dense complex products (fields._inverse_x,
    _inverse_y, _forward_y, _forward_x) where fields._dense_xy(n, c) holds,
    and FFTs elsewhere; the slab loop calls the same passes either way.
    Dense over FFT time of one Hall call with gate at the dealias cut, the
    two sides forced and alternated call by call, median of the pair
    ratios (same host and BLAS):

        n      16    24    32    40    48    56    64    80    96    128
        ratio  0.69  0.71  0.81  0.93  0.94  1.00  1.18  1.13  1.20  1.36

    so the products run up to n = 56, where they tie.

    The slab holds fields._slab_planes(grid) planes, as many as
    fields.SLAB_BYTES of sample and transform buffers allow.  Each of these
    buffers is one flat array, and a slab takes its C-contiguous leading
    part, as the matrix products need; one complex buffer serves the inverse
    y/z passes and then the forward z/y passes.  The four x buffers and the
    slab's buffers are views of one allocation, made once: freed as one
    block, it raises glibc's dynamic mmap threshold to its size, so later
    workspaces and set-ups reuse heap pages instead of faulting in pages of
    a trimmed heap (n = 32 benchmark set-ups: 312 minor faults each with
    separate buffers, 0 with one block).  A call allocates only temporaries
    of one component.  The pair a call returns, (2, 3, N), lives on the J
    buffer: the next call overwrites it, and until then the caller may read
    it or write into it.  The inputs are only read.  Not thread-safe: one
    call at a time per instance.
    """

    def __init__(self, grid: Grid):
        n, c = grid.n, grid.dealias_cut
        w, h = 2 * c + 1, c + 1
        self.grid = grid
        ball = self._ball = grid.ball
        self._in = np.zeros((1, w, w, h), dtype=np.complex128)
        self._cu = np.empty((2, ball.size), dtype=np.complex128)
        s = self._slab = _slab_planes(grid)
        # the x buffers, the transform buffer and (as float64) the sample
        # buffers of five arrays and one scratch, in one allocation
        x_size, y_size = 4 * 3 * n * w * h, 3 * s * n * h
        work = np.empty(x_size + y_size + 8 * s * n * n, dtype=np.complex128)
        xs = self._xs = work[:x_size].reshape(4, 3, n, w, h)
        self._y = work[x_size : x_size + y_size]
        floats = work[x_size + y_size :].view(np.float64)
        self._samples, self._tmp = floats[: 15 * s * n * n], floats[15 * s * n * n :]
        # the forward x passes' box on the leading bytes of the b buffer, the
        # result pair on those of the J buffer, the magnetic product's ball on
        # those of the u buffer and two components of scratch on those of the
        # w buffer (w < n, and a ball holds at most 52% of its box)
        self._box = xs[2].reshape(-1)[: 3 * w * w * h].reshape(3, w, w, h)
        self._d = xs[3].reshape(-1)[: 6 * ball.size].reshape(2, 3, ball.size)
        self._fb = xs[0].reshape(-1)[: 3 * ball.size].reshape(3, ball.size)
        self._scratch = xs[1].reshape(-1)[: 2 * ball.size].reshape(2, ball.size)

    def _slabs(self):
        """(i0, i1, samples, tmp, y) per slab of x planes i0..i1 - 1:
        samples (5, 3, s, n, n), tmp (s, n, n) and the transform buffer y
        (3, s, n, c + 1), C-contiguous views of the flat buffers."""
        n, h = self.grid.n, self.grid.dealias_cut + 1
        for i0 in range(0, n, self._slab):
            i1 = min(i0 + self._slab, n)
            s = i1 - i0
            yield (
                i0, i1,
                self._samples[: 15 * s * n * n].reshape(5, 3, s, n, n),
                self._tmp[: s * n * n].reshape(s, n, n),
                self._y[: 3 * s * n * h].reshape(3, s, n, h),
            )

    def __call__(self, uh: np.ndarray, bh: np.ndarray, hall_on: bool, gate=False):
        """The pair (du, db), on the kernel's x buffers and valid until its
        next call, and the maxima (max|u|, max|b|) over the samples when gate
        is True, else None.  uh and bh are only read."""
        ball, xs, cu = self._ball, self._xs, self._cu
        into_box = self._in.reshape(-1)  # written on the ball only
        for i, f in ((0, uh), (2, bh)):
            # each component into its rows of xs[i], its curl's into xs[i + 1]
            for j in range(3):
                into_box[ball.index] = f[j]
                _inverse_x(self._in, xs[i, j : j + 1])
            for j in range(3):
                into_box[ball.index] = _curl_component(ball.kvec, f, j, cu[0], cu[1])
                _inverse_x(self._in, xs[i + 1, j : j + 1])
        maxima = []
        for i0, i1, (up, wp, bp, jp, fp), tmp, y in self._slabs():
            # fp, free until the products and again after its forward z
            # pass, is the scratch of the y passes
            for x, o in zip(xs, (up, wp, bp, jp)):
                _inverse_z(_inverse_y(x[:, i0:i1], y, fp), o)
            if gate:  # fp is free until the products
                maxima.append([_sup_magnitude(f, fp[0], fp[1]) for f in (up, bp)])
            _cross(up, wp, out=fp, tmp=tmp)
            fp += _cross(jp, bp, out=wp, tmp=tmp)
            # J is needed no more: u - J overwrites it
            ub = np.subtract(up, jp, out=jp) if hall_on else up
            _cross(ub, bp, out=wp, tmp=tmp)
            _forward_y(_forward_z(fp, y), xs[0, :, i0:i1], fp)
            _forward_y(_forward_z(wp, y), xs[1, :, i0:i1], fp)
        # the b and J buffers are free, the u buffer once du is gathered, and
        # the w buffer, the scratch of the projection and the curl, once fb is
        box, (du, db) = self._box, self._d
        ball.gather(_forward_x(xs[0], box), out=du)
        fb = ball.gather(_forward_x(xs[1], box), out=self._fb)
        _leray(ball.kvec, ball.inv_k_sq, du, out=du, tmp=self._scratch)
        for i in range(3):
            _curl_component(ball.kvec, fb, i, db[i], self._scratch[0])
        # np.max, unlike max, keeps a nan of any slab
        return self._d, (np.max(maxima, axis=0) if gate else None)


def rhs(
    u: SpectralField, b: SpectralField, hall_on: bool = True
) -> tuple[SpectralField, SpectralField]:
    """Nonlinear right side (diffusion excluded), in rotational form:

        du = P[ u x curl u + (curl b) x b ]
        db = curl( (u - curl b) x b )        (u x b when hall_on is False)

    with every product dealiased and formed from the dealiased parts of u
    and b (|k| <= dealias_cut), as the 2/3 rule assumes: rhs(u, b) equals
    rhs(dealias(u), dealias(b)).  Equal to the advective form
    -P[u.grad u - b.grad b], curl(u x b) - curl((curl b) x b) for solenoidal
    u and b, which is checked: a non-solenoidal input, or a nan or inf
    within the dealias cut, raises ValueError, and u and b on different
    grids raise DimensionError.  The results are the pair the kernel leaves
    on its buffers, expanded into new boxes of dealias_cut.
    """
    g = _common_grid(u, b)
    uh, bh = _dealiased_ball(u, "u"), _dealiased_ball(b, "b")
    for f, name in ((u, "u"), (b, "b")):
        err = divergence_error(f)
        if err > 1e-8:
            raise ValueError(f"rhs input {name} not solenoidal (error {err:.2e})")
    (du, db), _ = _Kernel(g)(uh, bh, hall_on)
    return SpectralField(g, g.ball.expand(du)), SpectralField(g, g.ball.expand(db))


# -- time stepping ----------------------------------------------------------------


def _check_config(grid: Grid, cfg: RunConfig) -> None:
    """Validate cfg and require that it describe `grid`: ConfigError names
    the key, an invalid one or an n or dealias_cut that differs."""
    cfg.validate()
    if cfg.n != grid.n:
        raise ConfigError(f"key 'n': config n={cfg.n}, grid n={grid.n}")
    cut = Grid(cfg.n, cfg.dealias_cut).dealias_cut
    if cut != grid.dealias_cut:
        raise ConfigError(
            f"key 'dealias_cut': config cut {cut}, grid cut {grid.dealias_cut}"
        )


def _gate(u_max: float, b_max: float, k_cut: float, cfg: RunConfig) -> float:
    """min(c_adv/(k_cut u_max), c_whistler/(k_cut^2 b_max)), b_max taken
    from b - B0; inf for zero fields."""
    gate = np.inf
    if u_max > 0:
        gate = min(gate, cfg.cfl_adv / (k_cut * u_max))
    if b_max > 0:
        gate = min(gate, cfg.cfl_whistler / (k_cut**2 * b_max))
    return float(gate)


def dt_gate(
    u: SpectralField,
    b: SpectralField,
    cfg: RunConfig,
) -> float:
    """Largest admissible dt:

        min(c_adv/(k_cut max|u|), c_whistler/(k_cut^2 max|b - B0|)).

    B0 is the mean of b, whose waves the step's integrating factor takes
    exactly, so the whistler term reads only the fluctuating field b - B0.
    The mean velocity is not removed from max|u|.  The maxima are taken over
    the pruned samples of the dealias balls of u and b, the samples a step
    gates on in its first stage: fields._BoxSup streams each ball, expanded
    into its box, through the kernel's passes on slabs of the step's
    height, so the gate of the DtGateError a step raises equals dt_gate of
    its state, bit for bit (see bit determinism in the fields docstring).
    That costs one x-pass buffer and one slab, shared by u and b, not two
    (3, n, n, n) sample cubes nor a kernel's workspace, and the passes cost
    what they cost in the kernel (see _Kernel).  The config is checked as
    Stepper checks it, so an invalid one, or one of another n or
    dealias_cut, raises ConfigError; u and b on different grids raise
    DimensionError, and a nan or inf within the dealias cut ValueError."""
    g = _common_grid(u, b)
    _check_config(g, cfg)
    uh, bh = _dealiased_ball(u, "u"), _dealiased_ball(b, "b")
    bh[:, 0] -= bh[:, 0].real
    sup = _BoxSup(g, 3, g.dealias_cut)
    return _gate(sup(g.ball.expand(uh)), sup(g.ball.expand(bh)), float(g.dealias_cut), cfg)


# -- integrating factors ------------------------------------------------------------


class _Diagonal:
    """Integrating factor of diffusion alone: (eu u, eb b)."""

    def __init__(self, eu: np.ndarray, eb: np.ndarray):
        self.eu, self.eb = eu, eb

    def __call__(self, u: np.ndarray, b: np.ndarray, out) -> None:
        """Writes (eu u, eb b) into the pair out."""
        np.multiply(self.eu, u, out=out[0])
        np.multiply(self.eb, b, out=out[1])


def _expm_sym2(a, beta, d, t: float):
    """exp(t [[a, beta], [beta, d]]) for per-mode complex arrays, as its
    entries (uu, ub, bb): c0 I + c1 ([[a, beta], [beta, d]] - m I) with
    m = (a + d)/2, z^2 = t^2 (((a - d)/2)^2 + beta^2), c0 = e^(m t) cosh(z)
    and c1 = t e^(m t) sinh(z)/z, from the eigenvalues m t +- z.  cosh(z)
    and sinh(z)/z are entire in z^2 and are summed as series where
    |z^2| < 1e-2, which covers the degenerate modes z = 0."""
    m, h = (a + d) / 2, (a - d) / 2
    w = (h * h + beta * beta) * (t * t)
    small = np.abs(w) < 1e-2
    z = np.sqrt(np.where(small, 1.0, w))
    mt = m * t
    ep, em = np.exp(mt + z), np.exp(mt - z)
    c0, c1 = (ep + em) / 2, (ep - em) / (2 * z) * t
    ws, es = w[small], np.exp(mt[small])
    c0[small] = es * (1 + ws / 2 * (1 + ws / 12 * (1 + ws / 30 * (1 + ws / 56))))
    c1[small] = es * (1 + ws / 6 * (1 + ws / 20 * (1 + ws / 42 * (1 + ws / 72)))) * t
    return c0 + c1 * h, c1 * beta, c0 - c1 * h


class _MeanField:
    """Integrating factor exp(L t) of diffusion and the coupling to a mean
    field B0 (kappa = k.B0, K = |k|, h = 1 with the Hall term, else 0):

        L (u, b') = (-nu K^2 u + i kappa b',
                     i kappa u - mu K^2 b' + h kappa k x b').

    On the helical branch k x = s i K (s = +-1) it is the 2x2 matrix
    F_s = exp(t [[-nu K^2, i kappa], [i kappa, -mu K^2 + s i h kappa K]]),
    so exp(L t) = (F_+ + F_-)/2 - i (F_+ - F_-)/(2K) (k x): A x + C curl x
    with curl = i k x and C = -(F_+ - F_-)/(2K).  A and C are symmetric 2x2
    blocks of per-mode scalars, kept on the dealias ball; without the Hall
    term F_+ = F_- and C = 0.  At k = 0 the factor is the identity."""

    def __init__(self, grid: Grid, cfg: RunConfig, mean: np.ndarray, t: float):
        ball = grid.ball
        kx, ky, kz = ball.kvec
        ksq = ball.k_sq
        kappa = kx * mean[0] + ky * mean[1] + kz * mean[2]
        a, beta, d = -cfg.nu * ksq + 0j, 1j * kappa, -cfg.mu * ksq + 0j
        self.kvec = ball.kvec
        if not cfg.hall_on:
            self.a, self.c = _expm_sym2(a, beta, d, t), None
            return
        # both branches in one call: index 0 is s = +1, index 1 is s = -1
        hall = 1j * kappa * np.sqrt(ksq)
        branches = _expm_sym2(a, beta, np.stack([d + hall, d - hall]), t)
        inv_2k = 0.5 * np.sqrt(ball.inv_k_sq)
        self.a = tuple((f[0] + f[1]) / 2 for f in branches)
        self.c = tuple(inv_2k * (f[1] - f[0]) for f in branches)

    def __call__(self, u: np.ndarray, b: np.ndarray, out) -> None:
        """Writes exp(L t) (u, b), ball arrays, into the pair out = (eu, eb),
        which must not overlap u or b: eu = a_uu u + a_ub b + c_uu curl u + c_ub curl b
        and eb = a_ub u + a_bb b + c_ub curl u + c_bb curl b, each summed in
        that order.  A product goes into eb before eb is begun, or into a
        one-component scratch, which also takes the subtrahend of each curl
        component; the curls are formed one component at a time in a
        second: the only temporaries."""
        a_uu, a_ub, a_bb = self.a
        eu, eb = out
        np.multiply(a_uu, u, out=eu)
        eu += np.multiply(a_ub, b, out=eb)
        np.multiply(a_ub, u, out=eb)
        tmp = np.empty(u.shape[1:], dtype=np.complex128)
        for i in range(3):
            eb[i] += np.multiply(a_bb, b[i], out=tmp)
        if self.c is None:
            return
        c_uu, c_ub, c_bb = self.c
        cu = np.empty_like(tmp)
        for x, c_x, c_y in ((u, c_uu, c_ub), (b, c_ub, c_bb)):
            for i in range(3):
                _curl_component(self.kvec, x, i, cu, tmp)
                eu[i] += np.multiply(c_x, cu, out=tmp)
                eb[i] += np.multiply(c_y, cu, out=cu)


class Stepper:
    """Integrating-factor RK4 stepper on the dealias ball.

    A step runs on the ball arrays of the state, the modes |k| <= c with
    kz >= 0, c = dealias_cut, each (3, N), N = grid.ball.size (fields._Ball;
    about half the box |kx|, |ky|, kz <= c): the four kernel calls, the
    running RK4 sums, the integrating factors, the dissipation sum, the
    finiteness check, the final Leray projection and the drift check.
    Products are formed from the dealiased part of u and b, as the 2/3 rule
    assumes, so step(state) equals the step of dealias(u), dealias(b), and
    the new state is zero beyond the cut.

    The stages run on (u, b - B0), B0 the mean of b, which the equations
    conserve and the step puts back into the new state.  The integrating
    factor integrates the linear terms exactly: diffusion, and the Alfven
    and Hall (whistler) coupling to B0 (see the module docstring), so the
    stage-1 gate, like dt_gate, reads max|b - B0|.  A state with B0 = 0
    takes the diagonal diffusion factors eu_half, eb_half (one array when
    mu = nu); otherwise the factor of B0 is built on the first step and
    kept while B0 stays.  The mean velocity stays in the explicit products.

    With E the factor over dt/2, the step is IF-RK4 written with E alone,
    applied four times per field pair:

        u2 = E u0 + dt/2 E du1,   u3 = E u0 + dt/2 du2,
        u4 = E (E u0 + dt du3),
        u_new = E (E u0 + dt/6 E du1 + dt/3 (du2 + du3)) + dt/6 du4.

    A step allocates two stage arrays, each a (u, b) pair of ball arrays of
    shape (2, 3, N): the stage input and the running sum of the last line.
    E u0, u0 the pair (u, b - B0), is not stored: where stages 1, 2 and 3
    need it, it is formed again from the state's balls, which are only
    read, as E (u, b) less B0 at k = 0 (mode 0 of the ball), where E is the
    identity, bit for bit.  The derivatives are the pair the kernel
    returns on its own buffers (see _Kernel), which is also the scratch
    until the next kernel call.  Every combination is written into these
    arrays by out= and +=, each sum pairing its operands as the lines above
    read; the stage input is the scratch once the kernel and the
    dissipation sum have read it.  The new state is written into the stage
    input, whose pair becomes its balls (see SolverState): a step neither
    gathers nor copies a ball, except the balls of a state built from
    SpectralFields at its first step, which that state keeps in place of
    its fields.  The dissipation sum runs over the ball with each mode's
    |k|^2 times its Hermitian multiplicity, summed by np.sum per component,
    whose pairwise order no BLAS thread count changes.

    A Stepper owns the kernel's workspace, allocated once when it is built
    and reused by every step, so it is not thread-safe: step one state at a
    time per Stepper.  The workspace holds four arrays of shape
    (3, n, 2c + 1, c + 1), on which the kernel also returns its pair, and a
    slab of sample and transform planes of about SLAB_BYTES, all in one
    allocation, and one component of a box and two of a ball.  A step, and
    a run resumed from a checkpoint, is bit-identical under the same BLAS
    kernel and the same SLAB_BYTES (see bit determinism in the fields
    docstring).

    The config is validated, and must describe the stepper's grid: a
    mismatch in n or dealias_cut raises ConfigError, and a state whose
    `grid` is another raises DimensionError naming both.
    """

    def __init__(self, grid: Grid, cfg: RunConfig):
        _check_config(grid, cfg)
        self.grid = grid
        self.cfg = cfg
        ball = grid.ball
        ksq = ball.k_sq
        # the dissipation sum's weights, and its one-component scratch
        self._weight = ksq * ball.mult
        self._power = np.empty(ball.size)
        dt = cfg.dt
        self.eu_half = np.exp(-cfg.nu * ksq * dt / 2.0)
        self.eb_half = (
            self.eu_half if cfg.mu == cfg.nu else np.exp(-cfg.mu * ksq * dt / 2.0)
        )
        self._mean_field = None  # (B0, its factor) of the last B0 != 0 stepped
        self._kernel = _Kernel(grid)

    def step(self, state: SolverState) -> SolverState:
        if state.grid != self.grid:
            raise DimensionError(f"state is on {state.grid}, stepper on {self.grid}")
        # overflow en route to the isfinite check below is the expected way a
        # blow-up manifests; it is reported, not treated as an FP error
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return self._step_inner(state, self.cfg.dt)

    def _factor(self, mean: np.ndarray):
        """The integrating factor over dt/2 for the mean field `mean`."""
        if not mean.any():
            return _Diagonal(self.eu_half, self.eb_half)
        cached = self._mean_field
        if cached is None or not np.array_equal(cached[0], mean):
            cached = mean, _MeanField(self.grid, self.cfg, mean, self.cfg.dt / 2)
            self._mean_field = cached
        return cached[1]

    def _diss(self, u: np.ndarray, b: np.ndarray) -> float:
        """nu ||grad u||^2 + mu ||grad b||^2 from ball arrays."""
        return self.cfg.nu * self._grad_sq(u) + self.cfg.mu * self._grad_sq(b)

    def _grad_sq(self, f: np.ndarray) -> float:
        """||grad f||^2 of a ball array: (2 pi)^3 sum of |k|^2 |f|^2 times
        the Hermitian multiplicity, one component at a time."""
        p, total = self._power, 0.0
        for c in f:
            np.square(np.abs(c, out=p), out=p)
            p *= self._weight
            total += float(np.sum(p))
        return VOLUME * total

    def _step_inner(self, state: SolverState, dt: float) -> SolverState:
        cfg = self.cfg
        g = self.grid
        nonlinear, hall = self._kernel, cfg.hall_on
        # first, so that the fields a state gives up here are freed before
        # the stage arrays are allocated
        u0, b0 = state._balls()
        # the stage input, which becomes the new state, and the running sum
        x, acc = _pair(g), _pair(g)
        mean = b0[:, 0].real.copy()
        e_h = self._factor(mean)

        def e0(out):
            # E (u0, b0 - B0): E is the identity at k = 0, so B0 comes off
            # after it, bit for bit
            e_h(u0, b0, out=out)
            out[1][:, 0] -= mean
            return out

        b1 = b0
        if mean.any():  # b - B0, in the stage input until stage 1 has read it
            b1 = x[1]
            b1[...] = b0
            b1[:, 0] -= mean
        # d, the derivatives, lives on the kernel's buffers until its next
        # call; until then it is also the scratch
        d, maxima = nonlinear(u0, b1, hall, gate=True)
        # the gate of dt_gate, from the stage-1 samples of the state
        gate = _gate(float(maxima[0]), float(maxima[1]), float(g.dealias_cut), cfg)
        if dt > gate:
            raise DtGateError(state.t, dt, gate)
        diss = self._diss(u0, b1)
        e_h(*d, out=acc)
        np.add(e0(d), np.multiply(dt / 2, acc, out=x), out=x)
        np.add(d, np.multiply(dt / 6, acc, out=acc), out=acc)

        d, _ = nonlinear(*x, hall)
        diss += 2 * self._diss(*x)
        acc += np.multiply(dt / 3, d, out=x)
        np.add(e0(x), np.multiply(dt / 2, d, out=d), out=x)

        d, _ = nonlinear(*x, hall)
        diss += 2 * self._diss(*x)
        acc += np.multiply(dt / 3, d, out=x)
        np.add(e0(x), np.multiply(dt, d, out=d), out=d)
        e_h(*d, out=x)

        d, _ = nonlinear(*x, hall)
        diss += self._diss(*x)
        e_h(*acc, out=x)
        del acc
        x += np.multiply(dt / 6, d, out=d)
        if not np.all(np.isfinite(x.view(np.float64))):
            raise BlowUpDetected(state)

        u_new, b_new = x
        ball = g.ball
        _leray(ball.kvec, ball.inv_k_sq, u_new, out=u_new, tmp=d[0, :2])
        if mean.any():
            b_new[:, 0] += mean
        drift = _divergence_error(ball.kvec, b_new)
        if drift > SOLENOIDAL_DRIFT_TOL:
            raise SolenoidalDriftError(
                f"magnetic solenoidality drift {drift:.3e} exceeds "
                f"{SOLENOIDAL_DRIFT_TOL} at t={state.t:.6g}"
            )
        return SolverState._from_balls(
            g,
            state.t + dt,
            x,
            state.step_count + 1,
            # dissipation integral advanced with the same RK4 quadrature
            state.diss_integral + (dt / 6.0) * diss,
        )


# -- diagnostics scalars ------------------------------------------------------------


def energy(f: SpectralField) -> float:
    """(1/2) ||f||_2^2 by the spectral sum."""
    return 0.5 * _parseval(f.coeffs)


def magnetic_helicity(b: SpectralField) -> float:
    """Integral of A . b with curl A = b, A solenoidal: the spectral sum
    with vector_potential's A, the terms conj(A) b formed in place in A one
    component at a time and summed in fields._hermitian_sum's order.  Both
    are taken on the box of b's support cut (fields._support_cut), the
    smallest that holds b."""
    _check_vector(b, "b")
    cut = _support_cut(b.coeffs)
    kvec = _box_axes(cut)
    coeffs = _regrid(b.coeffs, _box_shape(cut))
    inv_k_sq = _reciprocal(_norm_sq(kvec))
    rows = np.empty(coeffs.shape[:-1])
    a, tmp = np.empty((2,) + coeffs.shape[1:], dtype=np.complex128)
    for i, row in enumerate(rows):
        _curl_component(kvec, coeffs, i, a, tmp)
        a *= inv_k_sq
        np.conjugate(a, out=a)
        a *= coeffs[i]
        np.matmul(a.real, _multiplicity(a), out=row)
    return VOLUME * float(np.sum(rows, dtype=np.float64))


# -- initial conditions ----------------------------------------------------------------


# the coefficients of exp(i k.x) in cos(k.x) and sin(k.x)
_COS, _SIN = 0.5, -0.5j
_X, _Y, _Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _trig_field(grid: Grid, terms, amplitude: float) -> SpectralField:
    """The real vector field of a few cosines and sines, its coefficients
    set directly on the smallest box that holds them: each term (i, k, a)
    puts amplitude * a at the wavevector k (kz >= 0, k != 0) of component i
    and, on the kz = 0 plane, which holds its own partners, the conjugate
    at -k.  a is _COS or _SIN times a real factor."""
    m = 2 * max(max(map(abs, k)) for _, k, _ in terms) + 1
    c = np.zeros((3, m, m, m // 2 + 1), dtype=np.complex128)
    for i, (kx, ky, kz), a in terms:
        c[i, kx % m, ky % m, kz] += amplitude * a
        if kz == 0:
            c[i, -kx % m, -ky % m, 0] += np.conj(amplitude * a)
    return SpectralField(grid, c)


def abc_beltrami(grid: Grid, amplitude: float) -> SpectralField:
    """u = A (sin z + cos y, sin x + cos z, sin y + cos x); curl u = u."""
    terms = [
        (0, _Z, _SIN), (0, _Y, _COS),
        (1, _X, _SIN), (1, _Z, _COS),
        (2, _Y, _SIN), (2, _X, _COS),
    ]
    return _trig_field(grid, terms, amplitude)


# frozen closed form: E(0) = (1/2)(4 u0^2 + 6 b0^2)(2 pi)^3 with b0 = 0.8 u0
ORSZAG_TANG_ENERGY_COEFF = 3.92  # (1/2)(4 + 6 * 0.64)


def orszag_tang_3d(grid: Grid, amplitude: float):
    """3D Orszag-Tang-type vortex: velocity A (-2 sin y, 2 sin x, 0) and the
    magnetic field 0.8 A (-2 sin 2y + sin z, 2 sin x + sin z, sin x + sin y)."""
    u = _trig_field(grid, [(0, _Y, -2 * _SIN), (1, _X, 2 * _SIN)], amplitude)
    b_terms = [
        (0, (0, 2, 0), -2 * _SIN), (0, _Z, _SIN),
        (1, _X, 2 * _SIN), (1, _Z, _SIN),
        (2, _X, _SIN), (2, _Y, _SIN),
    ]
    return u, _trig_field(grid, b_terms, 0.8 * amplitude)


def random_band_field(
    grid: Grid, q_lo: int, q_hi: int, amplitude: float, rng: np.random.Generator
) -> SpectralField:
    """Solenoidal Gaussian field with all shell energy inside [q_lo, q_hi]:
    support restricted to 2^q_lo <= |k| <= min(3/4 * 2^(q_hi+1), dealias_cut),
    scaled so the rms magnitude is `amplitude`.  The band must not be empty:
    make_initial passes the shells that config.check_init_params has
    checked, or the defaults of config.KNOWN_INIT_KINDS.  random_field
    draws the coefficients on the band's box, not by transforming white
    noise."""
    k_lo = float(2**q_lo)
    # the cut caps the band: from q = bit_length(cut) on, 3/4 * 2^(q + 1) >
    # cut, so a larger q_hi, at which 2.0 ** q_hi may overflow, gives that band
    q_hi = min(q_hi, grid.dealias_cut.bit_length())
    k_hi = min(0.75 * 2.0 ** (q_hi + 1), float(grid.dealias_cut))
    f = random_field(grid, rng, k_lo=k_lo, k_hi=k_hi, solenoidal=True)
    # Parseval: the collocation L^2 norm without a transform
    rms = l2_norm_spectral(f) / (2 * np.pi) ** 1.5
    if rms > 0:
        f.coeffs *= amplitude / rms
    return f


def whistler_initial(
    grid: Grid, b0: float, eps: float, k: int
) -> tuple[SpectralField, SpectralField]:
    """Uniform b0 z_hat plus a circularly polarized transverse perturbation
    cos(k z) x_hat - sin(k z) y_hat at amplitude eps; u starts at zero.
    Its coefficients are set directly on the box of cut |k|, b0 at k = 0
    and eps/2 and sign(k) i eps/2 at kz = |k| (eps for k = 0, which leaves
    eps x_hat).  |k| must lie within the dealias cut, or the first step
    would drop the perturbation: make_initial passes the parameters that
    config.check_init_params has checked, or the defaults of
    config.KNOWN_INIT_KINDS."""
    c = np.zeros((3,) + _box_shape(abs(k)), dtype=np.complex128)
    c[2, 0, 0, 0] = b0
    c[0, 0, 0, abs(k)] = eps if k == 0 else eps / 2
    c[1, 0, 0, abs(k)] = complex(0.0, np.sign(k) * eps / 2)
    return zero_field(grid), SpectralField(grid, c)


def make_initial(
    init_spec: dict, grid: Grid, seed: int = 0
) -> tuple[SpectralField, SpectralField]:
    """Build (u0, b0) from an init spec dict: its kind and parameters, with
    the defaults of config.KNOWN_INIT_KINDS filled in by
    config.check_init_params, which raises ConfigError naming an unknown or
    missing kind, a parameter the kind does not read, or a value it cannot
    use.

    A checkpoint's fields are returned as stored, regridded to their boxes
    on `grid`.  One written under a larger cut may hold modes beyond this
    grid's cut, which Stepper drops on the first step (it steps the
    dealiased part).  A path that cannot be read, a file the codec refuses
    (the CheckpointError is the cause) or a file of another n raises
    ConfigError naming init.path.  This starts a new run at t = 0 from the
    file's fields, for example to branch a run with another nu; the run
    driver's resume (hallmhd.run) instead continues the run that wrote the
    file, with its t, step count, dissipation integral and dt."""
    p = check_init_params(init_spec, grid)
    kind = p["kind"]
    if kind == "beltrami_u":
        return abc_beltrami(grid, p["amplitude"]), zero_field(grid)
    if kind == "beltrami_b":
        return zero_field(grid), abc_beltrami(grid, p["amplitude"])
    if kind == "orszag_tang_3d":
        return orszag_tang_3d(grid, p["amplitude"])
    if kind == "random_band":
        rng = np.random.default_rng(seed)
        u = random_band_field(grid, p["q_lo"], p["q_hi"], p["amplitude"], rng)
        b = random_band_field(grid, p["q_lo"], p["q_hi"], p["b_amplitude"], rng)
        return u, b
    if kind == "uniform_b_plus_whistler":
        return whistler_initial(grid, p["b0"], p["eps"], p["k"])
    try:  # from_checkpoint
        _, _, _, u, b = read_checkpoint(p["path"])
    except (OSError, CheckpointError) as exc:
        raise ConfigError(f"key 'init.path': {p['path']}: {exc}") from exc
    if u.grid.n != grid.n:
        raise ConfigError(
            f"key 'init.path': checkpoint grid n={u.grid.n} does not match "
            f"config n={grid.n}"
        )
    return SpectralField(grid, u.coeffs), SpectralField(grid, b.coeffs)
