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
kernel evaluates it for the stepper and `rhs` on the dealiased box: the
coefficients with |kx|, |ky|, kz <= dealias_cut (kz >= 0 suffices, the
fields being real).  It runs the pruned inverse x passes of u, w, b and J
once, then streams slabs of x planes through the y and z passes, the cross
products and the forward z and y passes, and ends with the forward x passes
into the two boxes its caller passes as `dst`; its buffers are allocated
once per Stepper.  `dt_gate` reads the gate of the step's first stage from
the same pruned samples.

Products are formed from the dealiased part of u and b (|k| <= dealias_cut),
as the 2/3 rule assumes: content beyond the cut takes no part in them.  A
step stays on the box throughout: the four stages, the RK4 sums, the
dissipation integral (summed with Hermitian multiplicities), the final Leray
projection and the finiteness and solenoidality checks, so the new state is
zero beyond the cut.  It allocates four stage arrays, each a (u, b) pair of
boxes, and writes every stage and RK4 sum into them; one of them becomes
the new state, which the next step reads as it is.  A state built from
SpectralFields gives them up at its first step and keeps their masked
boxes instead.  A box is scattered into the half cube of a SpectralField
only when the state's `u` or `b` is asked for.  `rhs` scatters its results
at its own boundary.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import read_checkpoint
from .config import ConfigError, RunConfig, check_init_params
from .fields import (
    DimensionError,
    Grid,
    SpectralField,
    _cross,
    _curl,
    _divergence_error,
    _forward_x,
    _forward_zy,
    _from_box,
    _half_to_physical,
    _inner,
    _inverse_x,
    _inverse_yz,
    _leray,
    _parseval,
    _sup_magnitude,
    _to_box,
    _vector_potential,
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


class SolverState:
    """A time, the fields u and b, the step count and the dissipation
    integral of nu ||grad u||_2^2 + mu ||grad b||_2^2.

    A step reads u and b as their dealiased boxes, shape
    (3, 2c + 1, 2c + 1, c + 1) with c = dealias_cut.  A state built from
    SpectralFields keeps them until a step first reads its boxes: then it
    masks their boxes once, holds those and drops the fields, so that their
    half cubes are freed once the caller lets them go.  A state that
    Stepper.step returns holds its boxes from the start.  Either way, once
    boxes are held, `u` and `b` scatter each box into a half cube on first
    access and keep it: the dealiased field, read-only, since steps read
    the box, not the half cube.
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
        self._fields = {"u": u, "b": b}
        self._grid: Grid | None = None  # the grid of the boxes, if any
        self._boxes: dict[str, np.ndarray] = {}

    @classmethod
    def _from_boxes(
        cls, grid: Grid, t: float, u: np.ndarray, b: np.ndarray, step_count: int,
        diss_integral: float,
    ) -> "SolverState":
        state = cls(t, None, None, step_count, diss_integral)
        state._grid, state._boxes = grid, {"u": u, "b": b}
        return state

    @property
    def u(self) -> SpectralField:
        return self._field("u")

    @property
    def b(self) -> SpectralField:
        return self._field("b")

    def _field(self, name: str) -> SpectralField:
        f = self._fields[name]
        if f is None:
            coeffs = _from_box(self._boxes[name], self._grid.n)
            coeffs.flags.writeable = False
            f = self._fields[name] = SpectralField(self._grid, coeffs)
        return f

    def _check_grid(self, grid: Grid) -> None:
        if self._boxes:
            grids = {"u": self._grid, "b": self._grid}
        else:
            grids = {name: f.grid for name, f in self._fields.items()}
        for name, g in grids.items():
            if g != grid:
                raise DimensionError(f"state {name} is on {g}, the stepper on {grid}")

    def _dealiased_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """The dealiased boxes of u and b, to be read only.  A state that
        holds fields masks their boxes here and drops the fields."""
        if not self._boxes:
            u, b = self._fields["u"], self._fields["b"]
            self._grid = u.grid  # b's, as Stepper.step has checked
            self._boxes = {"u": _dealiased_box(u), "b": _dealiased_box(b)}
            self._fields = {"u": None, "b": None}
        return self._boxes["u"], self._boxes["b"]


# -- right-hand side -------------------------------------------------------------


def _common_grid(u: SpectralField, b: SpectralField) -> Grid:
    """The grid of u and b; DimensionError naming both if they differ."""
    if u.grid != b.grid:
        raise DimensionError(f"u is on {u.grid}, b on {b.grid}")
    return u.grid


def _pair(grid: Grid) -> np.ndarray:
    """An empty (u, b) pair of boxes of grid, shape
    (2, 3, 2c + 1, 2c + 1, c + 1)."""
    return np.empty((2, 3) + grid.box[3].shape, dtype=np.complex128)


def _dealiased_box(f: SpectralField) -> np.ndarray:
    """The box of f's coefficients with the modes beyond the cut zeroed."""
    _, _, _, mask = f.grid.box
    box = _to_box(f.coeffs, f.grid.dealias_cut)
    box *= mask
    return box


# bytes of the sample and transform buffers a kernel streams x planes
# through, which sets the planes per slab (at least one, at most n).  Budgets
# of 0.5 to 16 MiB stepped within noise of each other at n = 32, 64 and 128
# (2-core host, 2 MiB L2 per core); this is the smallest that was never worse.
SLAB_BYTES = 2 << 20


class _Kernel:
    """The rotational-form nonlinear terms of dealiased box coefficients uh,
    bh, with the buffers they are computed in:

        du = P[mask (u x w + J x b)],   db = curl(mask ((u - J) x b)),

    J dropped from db when hall_on is False.  Costs 12 pruned real inverse
    and 6 pruned real forward transforms, in three phases:

    - the x passes of u, w = curl u, b and J = curl b, once, into four
      buffers of shape (3, n, 2c + 1, c + 1);
    - per slab of x planes: the y and z passes to samples, the two cross
      products, and their forward z and y passes, which are written back
      over the planes of the u and w buffers that the slab has consumed;
    - the forward x passes, in place in those two buffers.

    The slab holds as many planes as SLAB_BYTES of sample and transform
    buffers allow.  Every buffer is allocated once and the results are
    written into the caller's boxes, so a call allocates only temporaries of
    one component; no result aliases a buffer.  Not thread-safe: one call at
    a time per instance.
    """

    def __init__(self, grid: Grid):
        n, c = grid.n, grid.dealias_cut
        w, h = 2 * c + 1, c + 1
        self.grid = grid
        self._curl_box = np.empty((3, w, w, h), dtype=np.complex128)
        self._xs = np.empty((4, 3, n, w, h), dtype=np.complex128)
        # per x plane: five 3-component sample planes and one scratch plane
        # (real), and the y and z transform planes (complex)
        plane = 8 * 16 * n * n + 16 * 3 * n * (h + n // 2 + 1)
        s = min(n, max(1, SLAB_BYTES // plane))
        self._slab = s
        self._samples = np.empty((5, 3, s, n, n))
        self._tmp = np.empty((s, n, n))
        self._y = np.empty((3, s, n, h), dtype=np.complex128)
        self._z = np.empty((3, s, n, n // 2 + 1), dtype=np.complex128)

    def __call__(self, uh: np.ndarray, bh: np.ndarray, hall_on: bool, dst, gate=False):
        """Writes du and db into the boxes dst = (du, db) and returns the
        maxima (max|u|, max|b|) over the samples when gate is True, else
        None."""
        g = self.grid
        n = g.n
        kvec, _, inv_k_sq, mask = g.box
        xs = self._xs
        _inverse_x(uh, xs[0])
        _inverse_x(_curl(kvec, uh, out=self._curl_box), xs[1])
        _inverse_x(bh, xs[2])
        _inverse_x(_curl(kvec, bh, out=self._curl_box), xs[3])
        maxima = []
        for i0 in range(0, n, self._slab):
            i1 = min(i0 + self._slab, n)
            s = i1 - i0
            up, wp, bp, jp, fp = (a[:, :s] for a in self._samples)
            tmp, y, z = self._tmp[:s], self._y[:, :s], self._z[:, :s]
            for x, o in zip(xs, (up, wp, bp, jp)):
                _inverse_yz(x[:, i0:i1], y, o)
            if gate:  # fp is free until the products
                maxima.append([_sup_magnitude(f, fp[0], fp[1]) for f in (up, bp)])
            _cross(up, wp, out=fp, tmp=tmp)
            fp += _cross(jp, bp, out=wp, tmp=tmp)
            # J is needed no more: u - J overwrites it
            ub = np.subtract(up, jp, out=jp) if hall_on else up
            _cross(ub, bp, out=wp, tmp=tmp)
            _forward_zy(fp, z, xs[0, :, i0:i1])
            _forward_zy(wp, z, xs[1, :, i0:i1])
        du, db = dst
        _forward_x(xs[0], du)
        fb = _forward_x(xs[1], self._curl_box)
        du *= mask
        fb *= mask
        _leray(kvec, inv_k_sq, du, out=du)
        _curl(kvec, fb, out=db)
        # np.max, unlike max, keeps a nan of any slab
        return np.max(maxima, axis=0) if gate else None


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
    u and b, which is checked: a non-solenoidal input raises ValueError,
    and u and b on different grids raise DimensionError.
    """
    g = _common_grid(u, b)
    for f, name in ((u, "u"), (b, "b")):
        err = divergence_error(f)
        if err > 1e-8:
            raise ValueError(f"rhs input {name} not solenoidal (error {err:.2e})")
    du, db = _pair(g)
    _Kernel(g)(_dealiased_box(u), _dealiased_box(b), hall_on, (du, db))
    return SpectralField(g, _from_box(du, g.n)), SpectralField(g, _from_box(db, g.n))


# -- time stepping ----------------------------------------------------------------


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
    the pruned samples of the dealiased boxes of u and b, the samples a step
    gates on in its first stage, so the gate of the DtGateError a step
    raises equals dt_gate of its state, bit for bit.  u and b on different
    grids raise DimensionError."""
    g = _common_grid(u, b)
    uh, bh = _dealiased_box(u), _dealiased_box(b)
    bh[:, 0, 0, 0] -= bh[:, 0, 0, 0].real
    u_max, b_max = (_sup_magnitude(_half_to_physical(x, g.n)) for x in (uh, bh))
    return _gate(u_max, b_max, float(g.dealias_cut), cfg)


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
    blocks of per-mode scalars; without the Hall term F_+ = F_- and C = 0.
    At k = 0 the factor is the identity."""

    def __init__(self, grid: Grid, cfg: RunConfig, mean: np.ndarray, t: float):
        kvec, ksq, inv_k_sq, _ = grid.box
        kx, ky, kz = kvec
        kappa = kx * mean[0] + ky * mean[1] + kz * mean[2]
        a, beta, d = -cfg.nu * ksq + 0j, 1j * kappa, -cfg.mu * ksq + 0j
        self.kvec = kvec
        if not cfg.hall_on:
            self.a, self.c = _expm_sym2(a, beta, d, t), None
            return
        # both branches in one call: index 0 is s = +1, index 1 is s = -1
        hall = 1j * kappa * np.sqrt(ksq)
        branches = _expm_sym2(a, beta, np.stack([d + hall, d - hall]), t)
        inv_2k = 0.5 * np.sqrt(inv_k_sq)
        self.a = tuple((f[0] + f[1]) / 2 for f in branches)
        self.c = tuple(inv_2k * (f[1] - f[0]) for f in branches)

    def __call__(self, u: np.ndarray, b: np.ndarray, out) -> None:
        """Writes exp(L t) (u, b) into the pair out = (eu, eb), which must
        not overlap u or b: eu = a_uu u + a_ub b + c_uu curl u + c_ub curl b
        and eb = a_ub u + a_bb b + c_ub curl u + c_bb curl b, each summed in
        that order.  A product goes into eb before eb is begun, or into one
        of two boxes, which also hold the curls: the only temporaries."""
        a_uu, a_ub, a_bb = self.a
        eu, eb = out
        np.multiply(a_uu, u, out=eu)
        eu += np.multiply(a_ub, b, out=eb)
        np.multiply(a_ub, u, out=eb)
        tmp = np.multiply(a_bb, b)
        eb += tmp
        if self.c is None:
            return
        c_uu, c_ub, c_bb = self.c
        cu = np.empty_like(tmp)
        for x, c_x, c_y in ((u, c_uu, c_ub), (b, c_ub, c_bb)):
            _curl(self.kvec, x, out=cu)
            eu += np.multiply(c_x, cu, out=tmp)
            eb += np.multiply(c_y, cu, out=cu)


class Stepper:
    """Integrating-factor RK4 stepper on the dealiased box.

    A step runs on the box |kx|, |ky|, kz <= c of the state's coefficients,
    c = dealias_cut, shape (3, 2c + 1, 2c + 1, c + 1): the four kernel
    calls, the running RK4 sums, the integrating factors, the dissipation
    sum, the finiteness check, the final Leray projection and the drift
    check.  Products are formed from the dealiased part of u and b, as the
    2/3 rule assumes, so step(state) equals the step of dealias(u),
    dealias(b), and the new state is zero beyond the cut.

    The stages run on (u, b - B0), B0 the mean of b, which the equations
    conserve and the step puts back into the new state.  The integrating
    factor integrates the linear terms exactly: diffusion, and the Alfven
    and Hall (whistler) coupling to B0 (see the module docstring), so the
    stage-1 gate, like dt_gate, reads max|b - B0|.  A state with B0 = 0
    takes the diagonal diffusion factors eu_half, eb_half; otherwise the
    factor of B0 is built on the first step and kept while B0 stays.  The
    mean velocity stays in the explicit products.

    With E the factor over dt/2, the step is IF-RK4 written with E alone,
    applied four times per field pair:

        u2 = E u0 + dt/2 E du1,   u3 = E u0 + dt/2 du2,
        u4 = E (E u0 + dt du3),
        u_new = E (E u0 + dt/6 E du1 + dt/3 (du2 + du3)) + dt/6 du4.

    A step allocates four stage arrays, each a (u, b) pair of boxes of
    shape (2, 3, 2c + 1, 2c + 1, c + 1): E (u0, b0), the running sum of
    the last line, the stage input and the derivatives, which the kernel
    writes into as its `dst`.  Every combination is written into them by
    out= and +=, each sum pairing its operands as the lines above read;
    the stage input is the scratch once the kernel and the dissipation sum
    have read it.  E (u0, b0) is needed no more after stage 3, so the last
    E of the running sum is written over it, and that pair becomes the new
    state's boxes (see SolverState): a step neither masks nor scatters a
    half cube, except the masked boxes of a state built from SpectralFields
    at its first step, which that state keeps in place of its fields.

    A Stepper owns the kernel's workspace, allocated once when it is built
    and reused by every step, so it is not thread-safe: step one state at a
    time per Stepper.  The workspace holds four arrays of shape
    (3, n, 2c + 1, c + 1) and a slab of sample and transform planes of
    about SLAB_BYTES.

    The config is validated, and must describe the stepper's grid: a
    mismatch in n or dealias_cut raises ConfigError, and a state on another
    grid raises DimensionError.
    """

    def __init__(self, grid: Grid, cfg: RunConfig):
        cfg.validate()
        if cfg.n != grid.n:
            raise ConfigError(f"key 'n': config n={cfg.n}, grid n={grid.n}")
        cut = Grid(cfg.n, cfg.dealias_cut).dealias_cut
        if cut != grid.dealias_cut:
            raise ConfigError(
                f"key 'dealias_cut': config cut {cut}, grid cut {grid.dealias_cut}"
            )
        self.grid = grid
        self.cfg = cfg
        _, ksq, _, _ = grid.box
        self._k_sq = ksq
        dt = cfg.dt
        self.eu_half = np.exp(-cfg.nu * ksq * dt / 2.0)
        self.eb_half = np.exp(-cfg.mu * ksq * dt / 2.0)
        self._mean_field = None  # (B0, its factor) of the last B0 != 0 stepped
        self._kernel = _Kernel(grid)

    def step(self, state: SolverState, enforce_gate: bool = True) -> SolverState:
        state._check_grid(self.grid)
        # overflow en route to the isfinite check below is the expected way a
        # blow-up manifests; it is reported, not treated as an FP error
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return self._step_inner(state, self.cfg.dt, enforce_gate)

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
        """nu ||grad u||^2 + mu ||grad b||^2 from boxes."""
        cfg, ksq = self.cfg, self._k_sq
        return cfg.nu * _parseval(u, ksq) + cfg.mu * _parseval(b, ksq)

    def _step_inner(
        self, state: SolverState, dt: float, enforce_gate: bool
    ) -> SolverState:
        cfg = self.cfg
        g = self.grid
        nonlinear, hall = self._kernel, cfg.hall_on
        # first, so that the fields a state gives up here are freed before
        # the stage arrays are allocated
        u0, b0 = state._dealiased_boxes()
        # the running sum, the stage input, the derivatives and E (u0, b0),
        # which becomes the new state; allocated last (allocated first, it
        # left the n = 64 benchmark's peak RSS ~5 MB higher, by heap layout)
        acc, x, d, e0 = (_pair(g) for _ in range(4))
        mean = b0[:, 0, 0, 0].real.copy()
        if mean.any():  # b - B0, in the stage input until stage 1 has read it
            x[1] = b0
            b0 = x[1]
            b0[:, 0, 0, 0] -= mean
        e_h = self._factor(mean)

        maxima = nonlinear(u0, b0, hall, d, gate=enforce_gate)
        if enforce_gate:
            # the gate of dt_gate, from the stage-1 samples of the state
            gate = _gate(float(maxima[0]), float(maxima[1]), float(g.dealias_cut), cfg)
            if dt > gate:
                raise DtGateError(state.t, dt, gate)
        diss = self._diss(u0, b0)
        e_h(u0, b0, out=e0)
        e_h(*d, out=x)
        np.add(e0, np.multiply(dt / 6, x, out=acc), out=acc)
        np.add(e0, np.multiply(dt / 2, x, out=x), out=x)

        nonlinear(*x, hall, d)
        diss += 2 * self._diss(*x)
        acc += np.multiply(dt / 3, d, out=x)
        np.add(e0, np.multiply(dt / 2, d, out=x), out=x)

        nonlinear(*x, hall, d)
        diss += 2 * self._diss(*x)
        acc += np.multiply(dt / 3, d, out=x)
        np.add(e0, np.multiply(dt, d, out=d), out=d)
        e_h(*d, out=x)

        nonlinear(*x, hall, d)
        diss += self._diss(*x)
        e_h(*acc, out=e0)
        e0 += np.multiply(dt / 6, d, out=x)
        del acc, x, d
        if not np.all(np.isfinite(e0.view(np.float64))):
            raise BlowUpDetected(state)

        u_new, b_new = e0
        kvec, _, inv_k_sq, _ = g.box
        _leray(kvec, inv_k_sq, u_new, out=u_new)
        if mean.any():
            b_new[:, 0, 0, 0] += mean
        drift = _divergence_error(kvec, b_new)
        if drift > SOLENOIDAL_DRIFT_TOL:
            raise RuntimeError(
                f"magnetic solenoidality drift {drift:.3e} exceeds "
                f"{SOLENOIDAL_DRIFT_TOL} at t={state.t:.6g}"
            )
        return SolverState._from_boxes(
            g,
            state.t + dt,
            u_new,
            b_new,
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
    with vector_potential's A."""
    g = b.grid
    return _inner(_vector_potential(g.kvec, g.inv_k_sq, b.coeffs), b.coeffs)


# -- initial conditions ----------------------------------------------------------------


# the coefficients of exp(i k.x) in cos(k.x) and sin(k.x)
_COS, _SIN = 0.5, -0.5j
_X, _Y, _Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _trig_field(grid: Grid, terms, amplitude: float) -> SpectralField:
    """The real vector field of a few cosines and sines, its coefficients
    set directly: each term (i, k, a) puts amplitude * a at the wavevector k
    (kz >= 0, k != 0) of component i and, on the kz = 0 plane, which holds
    its own partners, the conjugate at -k.  a is _COS or _SIN times a real
    factor."""
    f = zero_field(grid)
    n = grid.n
    for i, (kx, ky, kz), a in terms:
        f.coeffs[i, kx % n, ky % n, kz] += amplitude * a
        if kz == 0:
            f.coeffs[i, -kx % n, -ky % n, 0] += np.conj(amplitude * a)
    return f


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
    Its coefficients are set directly, b0 at k = 0 and, on the half cube,
    eps/2 and sign(k) i eps/2 at kz = |k| (eps for k = 0, which leaves
    eps x_hat).  |k| must lie within the dealias cut, or the first step
    would drop the perturbation: make_initial passes the parameters that
    config.check_init_params has checked, or the defaults of
    config.KNOWN_INIT_KINDS."""
    b = zero_field(grid)
    c = b.coeffs
    c[2, 0, 0, 0] = b0
    c[0, 0, 0, abs(k)] = eps if k == 0 else eps / 2
    c[1, 0, 0, abs(k)] = complex(0.0, np.sign(k) * eps / 2)
    return zero_field(grid), b


def make_initial(
    init_spec: dict, grid: Grid, seed: int = 0
) -> tuple[SpectralField, SpectralField]:
    """Build (u0, b0) from an init spec dict: its kind and parameters, with
    the defaults of config.KNOWN_INIT_KINDS filled in by
    config.check_init_params, which raises ConfigError naming an unknown or
    missing kind, a parameter the kind does not read, or a value it cannot
    use.

    A checkpoint's fields are returned as stored, on `grid`, so they carry
    its dealias cut.  One written under a larger cut may hold modes beyond
    this grid's cut, which Stepper drops on the first step (it steps the
    dealiased part)."""
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
    _, _, _, u, b = read_checkpoint(p["path"])  # from_checkpoint
    if u.grid.n != grid.n:
        raise ConfigError(
            f"key 'init.path': checkpoint grid n={u.grid.n} does not match "
            f"config n={grid.n}"
        )
    return SpectralField(grid, u.coeffs), SpectralField(grid, b.coeffs)
