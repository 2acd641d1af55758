"""Run configuration with validation and key=value config file parsing."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .problems import PROBLEMS
from .stepper import COUNT, FLAG, POSITIVE_TIME, SETTINGS, check_settings

__all__ = ["RunConfig", "parse_config_file"]


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
        check_settings({f.name: getattr(self, f.name) for f in fields(self) if f.name in _RULES},
                       _RULES)
        return self


# the rules of the checked fields; those that are Solver settings take the Solver's
_RULES = {"problem": (lambda x: x in tuple(PROBLEMS), f"one of {tuple(PROBLEMS)}"), **SETTINGS,
          "refine": COUNT, "t_final": POSITIVE_TIME, "output_every": COUNT, "perf": FLAG}


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
    # the annotations are strings (postponed evaluation)
    pytypes = {"str": str, "int": int, "float": float, "bool": bool}
    types = {f.name: pytypes[f.type] for f in fields(RunConfig)}
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
            try:
                value = _coerce(value, types[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            try:
                check_settings({key: value} if key in _RULES else {}, _RULES)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            setattr(cfg, key, value)
    return cfg.validate()
