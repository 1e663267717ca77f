"""Run configuration: flat key=value files overridden by CLI flags.

The file format is deliberately minimal (one `key = value` per line, `#`
comments), so configurations stay language neutral and diffable.  All
parameters are validated against the module preconditions before any
computation starts; an invalid configuration never partially executes.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields


class ConfigError(ValueError):
    pass


# the accepted spellings of a boolean value, matched case-insensitively
BOOLEAN_WORDS = {"1": True, "true": True, "yes": True,
                 "0": False, "false": False, "no": False}


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


@dataclass
class RunConfig:
    task: str = ""
    eps: float = 0.1
    delta: float = 0.3
    cutoff: int = 32
    s3_order: int = 24
    vol_order: int = 10
    annulus_points: int = 20
    outer_points: int = 24
    taylor_degree: int = 12
    t_min: float = -1e6
    t_max: float = -1e3
    ode_steps: int = 100000
    fast: bool = False
    cache_dir: str = ""
    out: str = ""
    csv: str = ""
    site: str = ""

    def validate(self):
        for name in ("eps", "delta"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("cutoff", "s3_order", "vol_order", "annulus_points",
                     "outer_points", "taylor_degree", "ode_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if not (self.t_min < self.t_max < 0.0):
            raise ConfigError("need t_min < t_max < 0")
        if self.site and not re.fullmatch(
                r"\s*[+-]?\d+\s*(,\s*[+-]?\d+\s*){3}", self.site):
            raise ConfigError("site must be four comma-separated integers, "
                              f"e.g. 1,0,0,0, not {self.site}")
        return self

    def apply_mapping(self, mapping: dict[str, str]):
        known = {f.name: f.type for f in fields(self)}
        for key, value in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key: {key}")
            current = getattr(self, key)
            if isinstance(current, bool):
                word = value.strip().lower()
                if word not in BOOLEAN_WORDS:
                    raise ConfigError(f"{key}: expected a boolean "
                                      f"(1/true/yes or 0/false/no), not "
                                      f"{value!r}")
                setattr(self, key, BOOLEAN_WORDS[word])
            elif isinstance(current, int):
                try:
                    setattr(self, key, int(value))
                except ValueError as exc:
                    raise ConfigError(f"{key}: expected integer") from exc
            elif isinstance(current, float):
                try:
                    setattr(self, key, float(value))
                except ValueError as exc:
                    raise ConfigError(f"{key}: expected number") from exc
            else:
                setattr(self, key, value)
        return self

    def echo(self) -> dict:
        """The parameters: every field but the paths a run reads and
        writes, so a report does not depend on where it was written."""
        echo = asdict(self)
        for path in ("cache_dir", "out", "csv"):
            del echo[path]
        return echo
