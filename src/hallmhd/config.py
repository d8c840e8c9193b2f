"""Run configuration: physical parameters, grid, stepping, initial condition,
output cadence.  JSON round-trippable; unknown keys are rejected."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from .fields import DimensionError, Grid


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


# each initial-condition kind and the parameters make_initial reads for it
KNOWN_INIT_KINDS = {
    "beltrami_u": {"amplitude"},
    "beltrami_b": {"amplitude"},
    "orszag_tang_3d": {"amplitude"},
    "random_band": {"q_lo", "q_hi", "amplitude", "b_amplitude"},
    "uniform_b_plus_whistler": {"b0", "eps", "k"},
    "from_checkpoint": {"path"},
}


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
            Grid(self.n, self.dealias_cut)
        except DimensionError as exc:
            raise ConfigError(f"key 'dealias_cut': {exc}") from exc
        if not isinstance(self.init, dict) or "kind" not in self.init:
            raise ConfigError("key 'init': must be an object with a 'kind'")
        kind = self.init["kind"]
        _require(
            isinstance(kind, str) and kind in KNOWN_INIT_KINDS,
            "init.kind", "unknown kind", kind,
        )
        unknown = sorted(set(self.init) - {"kind"} - KNOWN_INIT_KINDS[kind])
        if unknown:
            raise ConfigError(
                f"key 'init.{unknown[0]}': unknown parameter for kind {kind!r}, "
                f"allowed: {sorted(KNOWN_INIT_KINDS[kind])}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
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
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)
