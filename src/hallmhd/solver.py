"""Time integration of incompressible resistive viscous Hall-MHD on the torus.

Pressure is eliminated by Leray projection.  Diffusion is handled exactly by
an integrating factor; the dealiased pseudo-spectral nonlinearity is advanced
with classical fourth-order Runge-Kutta on the transformed variables.

The nonlinearity is written in rotational form (Orszag & Patterson 1972;
Canuto et al., Spectral Methods, 2006, sec. 3.4), with w = curl u and
J = curl b:

    du = P[ u x w + J x b ],    db = curl( (u - J) x b ),

which equals the advective form by solenoidality of u and b.  One private
kernel evaluates it for the stepper, `rhs` and `hall_power`: the fields are
taken to physical space from the half cube kz >= 0 with real transforms, the
cross products are formed pointwise, and the forward real transforms are
dealiased, curled or projected on the half cube before the upper kz half is
restored from Hermitian symmetry.
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
    _fill_from_half,
    _half_to_physical,
    _leray,
    _physical_to_half,
    divergence_error,
    from_physical,
    grad_norm_sq,
    inner_product,
    leray_project,
    lp_norm,
    pointwise_magnitude,
    random_field,
    vector_potential,
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


def _half_calculus(grid: Grid):
    """(derivative wavenumbers, wavevectors, |k|^2, dealias mask) restricted
    to the half cube kz >= 0; views of the grid's full-cube arrays."""
    nh = grid.n // 2 + 1
    dx, dy, dz = grid.dvec
    kx, ky, kz = grid.kvec
    return (
        (dx, dy, dz[..., :nh]),
        (kx, ky, kz[..., :nh]),
        grid.k_sq[..., :nh],
        grid.dealias_mask[..., :nh],
    )


def _nonlinear(grid: Grid, u: np.ndarray, b: np.ndarray, hall_on: bool):
    """The rotational-form nonlinear terms of full-cube coefficients u, b:

        du = P[mask (u x w + J x b)],   db = curl(mask ((u - J) x b)),

    J dropped from db when hall_on is False.  Returns full-cube (du, db) and
    the samples of u and b.  Costs 12 real inverse and 6 real forward
    transforms.
    """
    dvec, kvec, k_sq, mask = _half_calculus(grid)
    n = grid.n
    uh, bh = u[..., : n // 2 + 1], b[..., : n // 2 + 1]
    # one call per field: pocketfft runs faster on 3-component batches than
    # on one stacked 12-component array
    up, bp, wp, jp = (
        _half_to_physical(c, n) for c in (uh, bh, _curl(dvec, uh), _curl(dvec, bh))
    )
    fu = _physical_to_half(_cross(up, wp) + _cross(jp, bp))
    fb = _physical_to_half(_cross(up - jp if hall_on else up, bp))
    fu *= mask
    fb *= mask
    du = _fill_from_half(grid, _leray(kvec, k_sq, fu))
    db = _fill_from_half(grid, _curl(dvec, fb))
    return du, db, up, bp


def rhs(
    u: SpectralField, b: SpectralField, hall_on: bool = True
) -> tuple[SpectralField, SpectralField]:
    """Nonlinear right side (diffusion excluded), in rotational form:

        du = P[ u x curl u + (curl b) x b ]
        db = curl( (u - curl b) x b )        (u x b when hall_on is False)

    with every product dealiased.  Equal to the advective form
    -P[u.grad u - b.grad b], curl(u x b) - curl((curl b) x b) for solenoidal
    u and b, which is checked: a non-solenoidal input raises ValueError.
    """
    for f, name in ((u, "u"), (b, "b")):
        err = divergence_error(f)
        if err > 1e-8:
            raise ValueError(f"rhs input {name} not solenoidal (error {err:.2e})")
    du, db, _, _ = _nonlinear(u.grid, u.coeffs, b.coeffs, hall_on)
    return SpectralField(u.grid, du, True), SpectralField(u.grid, db, True)


def hall_power(b: SpectralField) -> float:
    """Instantaneous work of the Hall term on b: integral of
    curl((curl b) x b) . b dx, zero up to discretization roundoff."""
    grid = b.grid
    dvec, _, _, mask = _half_calculus(grid)
    bh = b.coeffs[..., : grid.n // 2 + 1]
    bp, jp = (_half_to_physical(c, grid.n) for c in (bh, _curl(dvec, bh)))
    h = _physical_to_half(_cross(jp, bp)) * mask
    return inner_product(SpectralField(grid, _fill_from_half(grid, _curl(dvec, h))), b)


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
    """Largest admissible dt: min(c_adv/(k_cut max|u|), c_whistler/(k_cut^2 max|b|))."""
    return _gate(
        lp_norm(u, np.inf), lp_norm(b, np.inf), float(u.grid.dealias_cut), cfg
    )


class Stepper:
    """Integrating-factor RK4 stepper; caches diffusion exponentials."""

    def __init__(self, grid: Grid, cfg: RunConfig):
        self.grid = grid
        self.cfg = cfg
        ksq = grid.k_sq
        dt = cfg.dt
        self.eu_half = np.exp(-cfg.nu * ksq * dt / 2.0)
        self.eu_full = self.eu_half**2
        self.eb_half = np.exp(-cfg.mu * ksq * dt / 2.0)
        self.eb_full = self.eb_half**2

    def _rhs(self, u: SpectralField, b: SpectralField):
        du, db, up, bp = _nonlinear(self.grid, u.coeffs, b.coeffs, self.cfg.hall_on)
        return SpectralField(self.grid, du), SpectralField(self.grid, db), up, bp

    def step(self, state: SolverState, enforce_gate: bool = True) -> SolverState:
        # overflow en route to the isfinite check below is the expected way a
        # blow-up manifests; it is reported, not treated as an FP error
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return self._step_inner(state, self.cfg.dt, enforce_gate)

    def _step_inner(
        self, state: SolverState, dt: float, enforce_gate: bool
    ) -> SolverState:
        cfg = self.cfg
        g = self.grid
        u0, b0 = state.u, state.b

        def diss(u, b):
            return cfg.nu * grad_norm_sq(u) + cfg.mu * grad_norm_sq(b)

        du1, db1, up, bp = self._rhs(u0, b0)
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
        g1 = diss(u0, b0)
        u1 = SpectralField(g, self.eu_half * (u0.coeffs + (dt / 2) * du1.coeffs))
        b1 = SpectralField(g, self.eb_half * (b0.coeffs + (dt / 2) * db1.coeffs))

        du2, db2, _, _ = self._rhs(u1, b1)
        g2 = diss(u1, b1)
        u2 = SpectralField(g, self.eu_half * u0.coeffs + (dt / 2) * du2.coeffs)
        b2 = SpectralField(g, self.eb_half * b0.coeffs + (dt / 2) * db2.coeffs)

        du3, db3, _, _ = self._rhs(u2, b2)
        g3 = diss(u2, b2)
        u3 = SpectralField(g, self.eu_full * u0.coeffs + dt * self.eu_half * du3.coeffs)
        b3 = SpectralField(g, self.eb_full * b0.coeffs + dt * self.eb_half * db3.coeffs)

        du4, db4, _, _ = self._rhs(u3, b3)
        g4 = diss(u3, b3)

        u_new = SpectralField(
            g,
            self.eu_full * u0.coeffs
            + (dt / 6)
            * (
                self.eu_full * du1.coeffs
                + 2 * self.eu_half * (du2.coeffs + du3.coeffs)
                + du4.coeffs
            ),
        )
        b_new = SpectralField(
            g,
            self.eb_full * b0.coeffs
            + (dt / 6)
            * (
                self.eb_full * db1.coeffs
                + 2 * self.eb_half * (db2.coeffs + db3.coeffs)
                + db4.coeffs
            ),
        )
        if not (
            np.all(np.isfinite(u_new.coeffs.view(np.float64)))
            and np.all(np.isfinite(b_new.coeffs.view(np.float64)))
        ):
            raise BlowUpDetected(state)

        u_new = leray_project(u_new)
        b_new.is_solenoidal = True
        drift = divergence_error(b_new)
        if drift > SOLENOIDAL_DRIFT_TOL:
            raise RuntimeError(
                f"magnetic solenoidality drift {drift:.3e} exceeds "
                f"{SOLENOIDAL_DRIFT_TOL} at t={state.t:.6g}"
            )
        # dissipation integral advanced with the same RK4 quadrature
        diss_inc = (dt / 6.0) * (g1 + 2 * g2 + 2 * g3 + g4)
        return SolverState(
            t=state.t + dt,
            u=u_new,
            b=b_new,
            step_count=state.step_count + 1,
            diss_integral=state.diss_integral + diss_inc,
        )


# -- diagnostics scalars ------------------------------------------------------------


def energy(f: SpectralField) -> float:
    """(1/2) ||f||_2^2 by the spectral sum."""
    vol = (2 * np.pi) ** 3
    return float(0.5 * vol * np.sum(np.abs(f.coeffs) ** 2, dtype=np.float64))


def magnetic_helicity(b: SpectralField) -> float:
    """Integral of A . b with curl A = b, A solenoidal."""
    return inner_product(vector_potential(b), b)


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
    rms = lp_norm(f, 2.0) / (2 * np.pi) ** 1.5
    if rms > 0:
        f = f * (amplitude / rms)
    f.is_solenoidal = True
    return f


def whistler_initial(
    grid: Grid, b0: float = 1.0, eps: float = 1e-6, k: int = 1
) -> tuple[SpectralField, SpectralField]:
    """Uniform b0 z_hat plus a circularly polarized transverse perturbation
    cos(k z) x_hat - sin(k z) y_hat at amplitude eps; u starts at zero."""
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
    """Build (u0, b0) from an init spec dict; see config.KNOWN_INIT_KINDS."""
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
