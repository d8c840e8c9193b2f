"""Run configuration: physical parameters, grid, stepping, initial condition,
output cadence.  JSON round-trippable; unknown keys are rejected."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


KNOWN_INIT_KINDS = (
    "beltrami_u",
    "beltrami_b",
    "orszag_tang_3d",
    "random_band",
    "uniform_b_plus_whistler",
    "from_checkpoint",
)


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
        if self.n < 8 or self.n % 2:
            raise ConfigError(f"key 'n': must be even and >= 8, got {self.n}")
        if self.dt <= 0:
            raise ConfigError(f"key 'dt': must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ConfigError(f"key 't_end': must be > 0, got {self.t_end}")
        if self.ideal:
            if self.nu != 0.0 or self.mu != 0.0:
                raise ConfigError("key 'ideal': requires nu = mu = 0")
        else:
            if self.nu <= 0 or self.mu <= 0:
                raise ConfigError(
                    f"key 'nu'/'mu': must be > 0 outside ideal mode "
                    f"(got nu={self.nu}, mu={self.mu})"
                )
        if self.diag_every < 1:
            raise ConfigError(f"key 'diag_every': must be >= 1, got {self.diag_every}")
        if self.checkpoint_every is not None and (
            self.checkpoint_every % self.diag_every != 0
        ):
            raise ConfigError(
                "key 'checkpoint_every': must be a multiple of diag_every"
            )
        if not isinstance(self.init, dict) or "kind" not in self.init:
            raise ConfigError("key 'init': must be an object with a 'kind'")
        if self.init["kind"] not in KNOWN_INIT_KINDS:
            raise ConfigError(f"key 'init.kind': unknown kind {self.init['kind']!r}")

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
