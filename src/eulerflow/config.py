"""Run configuration with validation and key=value config file parsing."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .stepper import _is_bool, _is_finite, _is_int

__all__ = ["RunConfig", "parse_config_file"]

PROBLEMS = ("cylinder2d", "cylinder3d", "periodic-smooth", "sod1d")


@dataclass
class RunConfig:
    problem: str = "cylinder2d"
    refine: int = 0
    t_final: float = 0.2
    c_cfl: float = 0.9
    limiter_passes: int = 2
    newton_steps: int = 2
    workers: int = 1
    ranks: int = 1
    overlap: bool = True
    output_every: int = 0
    output_dir: str = "out"
    perf: bool = False

    def validate(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}, choose from {PROBLEMS}")
        if not (_is_finite(self.c_cfl) and 0.0 < self.c_cfl <= 1.0):
            raise ValueError("c_cfl must be a number in (0, 1]")
        for name in ("refine", "limiter_passes", "newton_steps", "output_every"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0")
        for name in ("workers", "ranks"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if not (_is_finite(self.t_final) and self.t_final > 0.0):
            raise ValueError("t_final must be a finite number > 0")
        for name in ("overlap", "perf"):
            if not _is_bool(getattr(self, name)):
                raise ValueError(f"{name} must be a bool")
        return self


def _coerce(value: str, target_type):
    if target_type is bool:
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return target_type(value)


def parse_config_file(path: str, base: Optional[RunConfig] = None) -> RunConfig:
    """Read key=value lines ('#' comments allowed) into a RunConfig."""
    cfg = RunConfig() if base is None else base
    types = {f.name: f.type for f in fields(RunConfig)}
    pytypes = {"str": str, "int": int, "float": float, "bool": bool}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            target = pytypes[types[key]] if isinstance(types[key], str) else types[key]
            setattr(cfg, key, _coerce(value, target))
    return cfg.validate()
