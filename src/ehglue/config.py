"""Run configuration: flat key=value files overridden by CLI flags.

The file format is deliberately minimal (one `key = value` per line, `#`
comments), so configurations stay language neutral and diffable.  All
parameters are validated against the module preconditions before any
computation starts; an invalid configuration never partially executes.
"""

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
        # every int field is a count or an order; `is` keeps the bool `fast`
        # out, which Python counts as an int
        for name, kind in FIELD_TYPES.items():
            if kind is int and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if not (self.t_min < self.t_max < 0.0):
            raise ConfigError("need t_min < t_max < 0")
        if self.site and not re.fullmatch(
                r"\s*[+-]?\d+\s*(,\s*[+-]?\d+\s*){3}", self.site):
            raise ConfigError("site must be four comma-separated integers, "
                              f"e.g. 1,0,0,0, not {self.site}")
        return self

    def apply_mapping(self, mapping: dict[str, str]):
        for key, value in mapping.items():
            if key not in FIELD_TYPES:
                raise ConfigError(f"unknown configuration key: {key}")
            kind = FIELD_TYPES[key]
            if kind is bool:
                word = value.strip().lower()
                if word not in BOOLEAN_WORDS:
                    raise ConfigError(f"{key}: expected a boolean "
                                      f"(1/true/yes or 0/false/no), not "
                                      f"{value!r}")
                setattr(self, key, BOOLEAN_WORDS[word])
            else:
                try:
                    setattr(self, key, kind(value))
                except ValueError as exc:
                    word = "integer" if kind is int else "number"
                    raise ConfigError(f"{key}: expected {word}") from exc
        return self

    def echo(self) -> dict:
        """The parameters: every field but the paths a run reads and
        writes, so a report does not depend on where it was written."""
        echo = asdict(self)
        for path in ("cache_dir", "out", "csv"):
            del echo[path]
        return echo


# each parameter's type, stated once by RunConfig's fields: the configuration
# file and the CLI's flags parse their values with it
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
