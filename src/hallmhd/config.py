"""Run configuration: physical parameters, grid, stepping, initial condition,
output cadence.  JSON round-trippable; unknown keys are rejected.

The initial-condition kinds, their parameters and defaults are declared
once, in KNOWN_INIT_KINDS; check_init_params resolves an init spec against
it, for RunConfig.validate and solver.make_initial alike.

Every key drives the run driver (hallmhd.run): n and dealias_cut make the
grid, init and seed the initial state, dt caps the step (the driver takes
the smaller of dt and half the dt_gate of the initial state), t_end sets
the step count, nu, mu, hall_on, cfl_adv and cfl_whistler the stepper and
its gate, ideal permits nu = mu = 0, diag_every the record lines and
checkpoint_every the checkpoint writes.  A resume may change only t_end,
diag_every and checkpoint_every.  RunConfig.m is read by no module yet."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from .fields import DimensionError, Grid


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


# each initial-condition kind, the parameters make_initial reads for it and
# their defaults; None marks a parameter without a default of its own:
# random_band's b_amplitude defaults to its amplitude, and from_checkpoint
# requires its path
KNOWN_INIT_KINDS = {
    "beltrami_u": {"amplitude": 1.0},
    "beltrami_b": {"amplitude": 1.0},
    "orszag_tang_3d": {"amplitude": 1.0},
    "random_band": {"q_lo": 2, "q_hi": 4, "amplitude": 1.0, "b_amplitude": None},
    "uniform_b_plus_whistler": {"b0": 1.0, "eps": 1e-6, "k": 1},
    "from_checkpoint": {"path": None},
}


def check_init_params(init: dict, grid: Grid) -> dict:
    """Return init with the defaults of its kind in KNOWN_INIT_KINDS filled
    in: the spec make_initial builds from.  Raise ConfigError naming init
    if it is not a dict, init.kind if it is missing or not a kind of
    KNOWN_INIT_KINDS, else the first parameter that make_initial does not
    read for the kind, or whose value it cannot use on `grid`: q_lo, q_hi
    and k are integers, with q_lo <= q_hi, q_hi >= 0 and 2^q_lo <=
    dealias_cut (else random_band's band 2^q_lo <= |k| <= min(3/4
    2^(q_hi + 1), dealias_cut) is empty), and |k| <= dealias_cut (else the
    step drops the whistler); amplitude, b_amplitude, b0 and eps are finite
    numbers; path, which from_checkpoint requires, is a non-empty string."""
    _require(isinstance(init, dict), "init", "must be an object", init)
    kind = init.get("kind")
    if not (isinstance(kind, str) and kind in KNOWN_INIT_KINDS):
        raise ConfigError(
            f"key 'init.kind': unknown initial-condition kind {kind!r}, "
            f"known: {sorted(KNOWN_INIT_KINDS)}"
        )
    defaults = KNOWN_INIT_KINDS[kind]
    given = {name: value for name, value in init.items() if name != "kind"}
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(
            f"key 'init.{unknown[0]}': unknown parameter for kind {kind!r}, "
            f"allowed: {sorted(defaults)}"
        )
    if kind == "from_checkpoint" and "path" not in given:
        raise ConfigError("key 'init.path': required for kind 'from_checkpoint'")
    params = {**defaults, **given}
    if kind == "random_band" and "b_amplitude" not in given:
        params["b_amplitude"] = params["amplitude"]
    for name in sorted(params):
        key, value = f"init.{name}", params[name]
        if name in ("q_lo", "q_hi", "k"):
            _require(_is_int(value), key, "must be an integer", value)
        elif name == "path":
            _require(
                isinstance(value, str) and value != "",
                key, "must be a non-empty string", value,
            )
        else:
            _require(
                _is_real(value) and math.isfinite(value),
                key, "must be a finite number", value,
            )
    if kind == "random_band":
        q_lo, q_hi = params["q_lo"], params["q_hi"]
        if q_lo > q_hi:
            name = "q_hi" if "q_hi" in given else "q_lo"
            raise ConfigError(
                f"key 'init.{name}': needs q_lo <= q_hi, got q_lo={q_lo}, q_hi={q_hi}"
            )
        if q_hi < 0:
            raise ConfigError(
                f"key 'init.q_hi': needs q_hi >= 0, got {q_hi}: shells below 0 "
                f"hold no mode but k = 0, and random_band has zero mean"
            )
        if q_lo >= grid.dealias_cut.bit_length():  # 2^q_lo > cut, exactly
            raise ConfigError(
                f"key 'init.q_lo': band [{q_lo}, {q_hi}] empty under "
                f"dealias_cut={grid.dealias_cut}: needs 2^q_lo <= dealias_cut"
            )
    if kind == "uniform_b_plus_whistler" and abs(params["k"]) > grid.dealias_cut:
        raise ConfigError(
            f"key 'init.k': whistler k={params['k']} beyond dealias_cut="
            f"{grid.dealias_cut}: the step keeps only |k| <= dealias_cut"
        )
    return {"kind": kind, **params}


def _require(ok: bool, key: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"key {key!r}: {what}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class RunConfig:
    n: int
    dt: float
    t_end: float
    nu: float
    mu: float
    init: dict = field(default_factory=lambda: {"kind": "beltrami_u"})
    hall_on: bool = True
    ideal: bool = False  # permits nu = mu = 0 for conservation tests
    seed: int = 0
    diag_every: int = 10
    checkpoint_every: int | None = None  # steps; multiple of diag_every
    dealias_cut: int | None = None
    cfl_adv: float = 1.0
    cfl_whistler: float = 1.0

    @property
    def m(self) -> float:
        """min(nu, mu), the dissipation floor entering the wavenumber split."""
        return min(self.nu, self.mu)

    def validate(self) -> None:
        for key in ("hall_on", "ideal"):
            value = getattr(self, key)
            _require(isinstance(value, bool), key, "must be true or false", value)
        for key in ("n", "seed", "diag_every", "checkpoint_every", "dealias_cut"):
            value = getattr(self, key)
            optional = key in ("checkpoint_every", "dealias_cut")
            _require(
                _is_int(value) or (optional and value is None),
                key, "must be an integer", value,
            )
        for key in ("dt", "t_end", "cfl_adv", "cfl_whistler"):
            value = getattr(self, key)
            _require(
                _is_real(value) and 0 < value < math.inf,
                key, "must be a finite number > 0", value,
            )
        for key in ("nu", "mu"):
            value = getattr(self, key)
            _require(
                _is_real(value) and math.isfinite(value),
                key, "must be a finite number", value,
            )
            if not self.ideal:
                _require(value > 0, key, "must be > 0 outside ideal mode", value)
        if self.ideal and (self.nu != 0.0 or self.mu != 0.0):
            raise ConfigError("key 'ideal': requires nu = mu = 0")
        _require(self.seed >= 0, "seed", "must be >= 0", self.seed)
        _require(self.n >= 8 and self.n % 2 == 0, "n", "must be even and >= 8", self.n)
        _require(self.diag_every >= 1, "diag_every", "must be >= 1", self.diag_every)
        every = self.checkpoint_every
        _require(
            every is None or (every >= 1 and every % self.diag_every == 0),
            "checkpoint_every", "must be a positive multiple of diag_every", every,
        )
        try:
            grid = Grid(self.n, self.dealias_cut)
        except DimensionError as exc:
            raise ConfigError(f"key 'dealias_cut': {exc}") from exc
        check_init_params(self.init, grid)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ConfigError(f"unknown config key: {unknown[0]!r}")
        missing = [
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            and f.name not in data
        ]
        if missing:
            raise ConfigError(f"missing config key: {missing[0]!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
