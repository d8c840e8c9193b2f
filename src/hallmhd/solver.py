"""Time integration of incompressible resistive viscous Hall-MHD on the torus.

Pressure is eliminated by Leray projection.  Diffusion is handled exactly by
an integrating factor; the dealiased pseudo-spectral nonlinearity is advanced
with classical fourth-order Runge-Kutta on the transformed variables.

The nonlinearity is written in rotational form (Orszag & Patterson 1972;
Canuto et al., Spectral Methods, 2006, sec. 3.4), with w = curl u and
J = curl b:

    du = P[ u x w + J x b ],    db = curl( (u - J) x b ),

which equals the advective form by solenoidality of u and b.  One private
kernel evaluates it for the stepper and `rhs`, and `hall_power` evaluates
the Hall term alone the same way, on the dealiased box: the coefficients
with |kx|, |ky|, kz <= dealias_cut (kz >= 0 suffices, the fields being
real).  The fields are taken to physical space by pruned real transforms of
the box, the cross products are formed pointwise, and the pruned forward
transforms return the box, where the products are dealiased, curled or
projected.

Products are formed from the dealiased part of u and b (|k| <= dealias_cut),
as the 2/3 rule assumes: content beyond the cut takes no part in them.  A
step stays on the box throughout: the four stages, the RK4 sums, the
dissipation integral (summed with Hermitian multiplicities), the final Leray
projection and the finiteness and solenoidality checks, so the new state is
zero beyond the cut.  Its full cube is filled from Hermitian symmetry once
per field per step; `rhs` fills its results at its own boundary, and
`hall_power` sums on the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .fields import (
    Grid,
    SpectralField,
    _cross,
    _curl,
    _divergence_error,
    _fill_from_half,
    _from_box,
    _half,
    _half_to_physical,
    _inner,
    _leray,
    _parseval,
    _physical_to_half,
    _to_box,
    _vector_potential,
    divergence_error,
    from_physical,
    l2_norm_spectral,
    lp_norm,
    pointwise_magnitude,
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


@dataclass
class SolverState:
    t: float
    u: SpectralField
    b: SpectralField
    step_count: int = 0
    diss_integral: float = 0.0  # integral of nu ||grad u||_2^2 + mu ||grad b||_2^2


# -- right-hand side -------------------------------------------------------------


def _dealiased_box(f: SpectralField) -> np.ndarray:
    """The box of f's coefficients with the modes beyond the cut zeroed."""
    _, _, _, mask = f.grid.box
    box = _to_box(f.coeffs, f.grid.dealias_cut)
    box *= mask
    return box


def _fill_from_box(grid: Grid, box: np.ndarray) -> np.ndarray:
    """Full-cube coefficients of real fields from their box."""
    return _fill_from_half(grid, _from_box(box, grid.n))


def _nonlinear(grid: Grid, uh: np.ndarray, bh: np.ndarray, hall_on: bool):
    """The rotational-form nonlinear terms of dealiased box coefficients uh, bh:

        du = P[mask (u x w + J x b)],   db = curl(mask ((u - J) x b)),

    J dropped from db when hall_on is False.  Returns box (du, db) and the
    samples of u and b.  Costs 12 pruned real inverse and 6 pruned real
    forward transforms.
    """
    kvec, _, inv_k_sq, mask = grid.box
    n, c = grid.n, grid.dealias_cut
    # one call per field: pocketfft runs faster on 3-component batches than
    # on one stacked 12-component array
    up, bp, wp, jp = (
        _half_to_physical(x, n) for x in (uh, bh, _curl(kvec, uh), _curl(kvec, bh))
    )
    fu = _physical_to_half(_cross(up, wp) + _cross(jp, bp), c)
    fb = _physical_to_half(_cross(up - jp if hall_on else up, bp), c)
    fu *= mask
    fb *= mask
    return _leray(kvec, inv_k_sq, fu), _curl(kvec, fb), up, bp


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
    u and b, which is checked: a non-solenoidal input raises ValueError.
    """
    for f, name in ((u, "u"), (b, "b")):
        err = divergence_error(f)
        if err > 1e-8:
            raise ValueError(f"rhs input {name} not solenoidal (error {err:.2e})")
    g = u.grid
    du, db, _, _ = _nonlinear(g, _dealiased_box(u), _dealiased_box(b), hall_on)
    return (
        SpectralField(g, _fill_from_box(g, du), True),
        SpectralField(g, _fill_from_box(g, db), True),
    )


def hall_power(b: SpectralField) -> float:
    """Instantaneous work of the Hall term on b: integral of
    curl((curl b) x b) . b dx, zero up to discretization roundoff.  Like
    rhs, it is formed from the dealiased part of b."""
    g = b.grid
    kvec, _, _, mask = g.box
    bh = _dealiased_box(b)
    bp, jp = (_half_to_physical(x, g.n) for x in (bh, _curl(kvec, bh)))
    h = _physical_to_half(_cross(jp, bp), g.dealias_cut) * mask
    return _inner(_curl(kvec, h), bh)


# -- time stepping ----------------------------------------------------------------


def _gate(u_max: float, b_max: float, k_cut: float, cfg: RunConfig) -> float:
    """min(c_adv/(k_cut u_max), c_whistler/(k_cut^2 b_max)); inf for zero fields."""
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
    """Largest admissible dt: min(c_adv/(k_cut max|u|), c_whistler/(k_cut^2 max|b|)).

    The maxima are taken over the samples of the whole fields.  A step gates
    on the samples of their dealiased parts, which it steps, so the two gates
    agree for states with nothing beyond the cut: every state a step returns
    and every initial state make_initial builds, except a checkpoint written
    under a larger cut."""
    return _gate(
        lp_norm(u, np.inf), lp_norm(b, np.inf), float(u.grid.dealias_cut), cfg
    )


class Stepper:
    """Integrating-factor RK4 stepper on the dealiased box.

    A step runs on the box |kx|, |ky|, kz <= c of the state's coefficients,
    c = dealias_cut, shape (3, 2c + 1, 2c + 1, c + 1): the four kernel
    calls, the running RK4 sums, the integrating factors, the dissipation
    sum, the finiteness check, the final Leray projection and the drift
    check.  Products are formed from the dealiased part of u and b, as the
    2/3 rule assumes, so step(state) equals the step of dealias(u),
    dealias(b), and the new state is zero beyond the cut.  Each field has
    one running RK4 sum, eu_full du1 + 2 eu_half (du2 + du3) + du4 for u
    (eb_* for b), which takes each stage's derivatives as the stage
    finishes, so only the sum and the current stage stay alive.  The new
    box is scattered into the half cube and the full cube filled from it,
    once per field per step.
    """

    def __init__(self, grid: Grid, cfg: RunConfig):
        self.grid = grid
        self.cfg = cfg
        _, ksq, _, _ = grid.box
        self._k_sq = ksq
        dt = cfg.dt
        self.eu_half = np.exp(-cfg.nu * ksq * dt / 2.0)
        self.eu_full = self.eu_half**2
        self.eb_half = np.exp(-cfg.mu * ksq * dt / 2.0)
        self.eb_full = self.eb_half**2

    def step(self, state: SolverState, enforce_gate: bool = True) -> SolverState:
        # overflow en route to the isfinite check below is the expected way a
        # blow-up manifests; it is reported, not treated as an FP error
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return self._step_inner(state, self.cfg.dt, enforce_gate)

    def _diss(self, u: np.ndarray, b: np.ndarray) -> float:
        """nu ||grad u||^2 + mu ||grad b||^2 from boxes."""
        cfg, ksq = self.cfg, self._k_sq
        return cfg.nu * _parseval(u, ksq) + cfg.mu * _parseval(b, ksq)

    def _step_inner(
        self, state: SolverState, dt: float, enforce_gate: bool
    ) -> SolverState:
        cfg = self.cfg
        g = self.grid
        eu_h, eu_f = self.eu_half, self.eu_full
        eb_h, eb_f = self.eb_half, self.eb_full
        u0, b0 = _dealiased_box(state.u), _dealiased_box(state.b)

        du, db, up, bp = _nonlinear(g, u0, b0, cfg.hall_on)
        if enforce_gate:
            # the gate of dt_gate, from the stage-1 samples of the state
            gate = _gate(
                float(pointwise_magnitude(up).max(initial=0.0)),
                float(pointwise_magnitude(bp).max(initial=0.0)),
                float(g.dealias_cut),
                cfg,
            )
            if dt > gate:
                raise DtGateError(state.t, dt, gate)
        # each stage's derivatives are dropped before the next kernel call, so
        # that only the running sums sum_u, sum_b outlive a stage
        del up, bp
        diss = self._diss(u0, b0)
        sum_u, sum_b = eu_f * du, eb_f * db
        u, b = eu_h * (u0 + (dt / 2) * du), eb_h * (b0 + (dt / 2) * db)
        del du, db

        du, db, _, _ = _nonlinear(g, u, b, cfg.hall_on)
        diss += 2 * self._diss(u, b)
        sum_u += 2 * eu_h * du
        sum_b += 2 * eb_h * db
        u, b = eu_h * u0 + (dt / 2) * du, eb_h * b0 + (dt / 2) * db
        del du, db

        du, db, _, _ = _nonlinear(g, u, b, cfg.hall_on)
        diss += 2 * self._diss(u, b)
        sum_u += 2 * eu_h * du
        sum_b += 2 * eb_h * db
        u, b = eu_f * u0 + dt * eu_h * du, eb_f * b0 + dt * eb_h * db
        del du, db

        du, db, _, _ = _nonlinear(g, u, b, cfg.hall_on)
        diss += self._diss(u, b)
        sum_u += du
        sum_b += db
        del u, b, du, db

        u_new = eu_f * u0 + (dt / 6) * sum_u
        b_new = eb_f * b0 + (dt / 6) * sum_b
        if not (
            np.all(np.isfinite(u_new.view(np.float64)))
            and np.all(np.isfinite(b_new.view(np.float64)))
        ):
            raise BlowUpDetected(state)

        kvec, _, inv_k_sq, _ = g.box
        u_new = _leray(kvec, inv_k_sq, u_new)
        drift = _divergence_error(kvec, b_new)
        if drift > SOLENOIDAL_DRIFT_TOL:
            raise RuntimeError(
                f"magnetic solenoidality drift {drift:.3e} exceeds "
                f"{SOLENOIDAL_DRIFT_TOL} at t={state.t:.6g}"
            )
        return SolverState(
            t=state.t + dt,
            u=SpectralField(g, _fill_from_box(g, u_new), True),
            b=SpectralField(g, _fill_from_box(g, b_new), True),
            step_count=state.step_count + 1,
            # dissipation integral advanced with the same RK4 quadrature
            diss_integral=state.diss_integral + (dt / 6.0) * diss,
        )


# -- diagnostics scalars ------------------------------------------------------------


def energy(f: SpectralField) -> float:
    """(1/2) ||f||_2^2 by the spectral sum."""
    return 0.5 * _parseval(_half(f.coeffs))


def magnetic_helicity(b: SpectralField) -> float:
    """Integral of A . b with curl A = b, A solenoidal: the spectral sum
    with vector_potential's A, built on the half cube."""
    g = b.grid
    kx, ky, kz = g.kvec
    bh = _half(b.coeffs)
    return _inner(_vector_potential((kx, ky, _half(kz)), _half(g.inv_k_sq), bh), bh)


# -- initial conditions ----------------------------------------------------------------


def abc_beltrami(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """u = A (sin z + cos y, sin x + cos z, sin y + cos x); curl u = u."""
    x, y, z = grid.mesh()
    f = from_physical(
        amplitude
        * np.stack(
            [np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)]
        ),
        grid,
    )
    f.is_solenoidal = True
    return f


# frozen closed form: E(0) = (1/2)(4 u0^2 + 6 b0^2)(2 pi)^3 with b0 = 0.8 u0
ORSZAG_TANG_ENERGY_COEFF = 3.92  # (1/2)(4 + 6 * 0.64)


def orszag_tang_3d(grid: Grid, amplitude: float = 1.0):
    """3D Orszag-Tang-type vortex: velocity (-2 sin y, 2 sin x, 0) and a
    mixed-mode magnetic field at 0.8 relative amplitude."""
    x, y, z = grid.mesh()
    u = from_physical(
        amplitude * np.stack([-2 * np.sin(y), 2 * np.sin(x), np.zeros_like(x)]), grid
    )
    b0 = 0.8 * amplitude
    b = from_physical(
        b0
        * np.stack(
            [
                -2 * np.sin(2 * y) + np.sin(z),
                2 * np.sin(x) + np.sin(z),
                np.sin(x) + np.sin(y),
            ]
        ),
        grid,
    )
    u.is_solenoidal = True
    b.is_solenoidal = True
    return u, b


def random_band_field(
    grid: Grid, q_lo: int, q_hi: int, amplitude: float, rng: np.random.Generator
) -> SpectralField:
    """Solenoidal Gaussian field with all shell energy inside [q_lo, q_hi]:
    support restricted to 2^q_lo <= |k| <= min(3/4 * 2^(q_hi+1), dealias_cut),
    scaled so the rms magnitude is `amplitude`."""
    k_lo = float(2**q_lo)
    k_hi = min(0.75 * 2.0 ** (q_hi + 1), float(grid.dealias_cut))
    if k_hi < k_lo:
        raise ValueError(f"band [{q_lo}, {q_hi}] empty under dealias cut")
    f = random_field(grid, rng, k_lo=k_lo, k_hi=k_hi, solenoidal=True)
    # Parseval: the collocation L^2 norm without a transform
    rms = l2_norm_spectral(f) / (2 * np.pi) ** 1.5
    if rms > 0:
        f = f * (amplitude / rms)
    f.is_solenoidal = True
    return f


def whistler_initial(
    grid: Grid, b0: float = 1.0, eps: float = 1e-6, k: int = 1
) -> tuple[SpectralField, SpectralField]:
    """Uniform b0 z_hat plus a circularly polarized transverse perturbation
    cos(k z) x_hat - sin(k z) y_hat at amplitude eps; u starts at zero.
    k must lie within the dealias cut, or the first step would drop the
    perturbation."""
    if abs(k) > grid.dealias_cut:
        raise ValueError(
            f"whistler k={k} beyond dealias_cut={grid.dealias_cut}: the step "
            f"keeps only |k| <= dealias_cut"
        )
    _, _, z = grid.mesh()
    zero = np.zeros_like(z)
    b = from_physical(
        np.stack([eps * np.cos(k * z), -eps * np.sin(k * z), b0 + zero]), grid
    )
    b.is_solenoidal = True
    return zero_field(grid), b


def make_initial(
    init_spec: dict, grid: Grid, seed: int = 0
) -> tuple[SpectralField, SpectralField]:
    """Build (u0, b0) from an init spec dict; see config.KNOWN_INIT_KINDS.

    A checkpoint is returned as stored.  One written under a larger dealias
    cut may hold modes beyond this grid's cut, which Stepper drops on the
    first step (it steps the dealiased part)."""
    kind = init_spec.get("kind")
    params = {k: v for k, v in init_spec.items() if k != "kind"}
    if kind == "beltrami_u":
        u = abc_beltrami(grid, params.get("amplitude", 1.0))
        return u, zero_field(grid)
    if kind == "beltrami_b":
        b = abc_beltrami(grid, params.get("amplitude", 1.0))
        return zero_field(grid), b
    if kind == "orszag_tang_3d":
        return orszag_tang_3d(grid, params.get("amplitude", 1.0))
    if kind == "random_band":
        rng = np.random.default_rng(seed)
        q_lo = int(params.get("q_lo", 2))
        q_hi = int(params.get("q_hi", 4))
        amp = float(params.get("amplitude", 1.0))
        b_amp = float(params.get("b_amplitude", amp))
        u = random_band_field(grid, q_lo, q_hi, amp, rng)
        b = random_band_field(grid, q_lo, q_hi, b_amp, rng)
        return u, b
    if kind == "uniform_b_plus_whistler":
        return whistler_initial(
            grid,
            b0=float(params.get("b0", 1.0)),
            eps=float(params.get("eps", 1e-6)),
            k=int(params.get("k", 1)),
        )
    if kind == "from_checkpoint":
        from .checkpoint import read_checkpoint

        path = params.get("path")
        if not path:
            raise ValueError("from_checkpoint init requires a 'path'")
        _, _, _, u, b = read_checkpoint(path)
        if u.grid.n != grid.n:
            raise ValueError(
                f"checkpoint grid n={u.grid.n} does not match config n={grid.n}"
            )
        u.is_solenoidal = True
        b.is_solenoidal = True
        return u, b
    raise ValueError(f"unknown initial-condition kind {kind!r}")
