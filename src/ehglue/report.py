"""Canonical machine-readable reports.

JSON is emitted with sorted keys and every float formatted to 17 significant
digits, so identical configurations produce byte-identical files regardless
of environment threading; wall-clock timings are therefore kept out of the
canonical payload and printed to stderr instead.  CSV tables use a fixed
header and the same float formatting.  All writes are atomic
(write-then-rename).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f"{pad_in}{_string(key)}: "
                         f"{canonical_json(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _string(obj)
    try:
        return format_float(float(obj))
    except (TypeError, ValueError):
        return _string(str(obj))


def _string(text: str) -> str:
    """A JSON string literal; only what JSON demands is escaped."""
    return json.dumps(text, ensure_ascii=False)


@dataclass
class Report:
    """One suite's outcome: config echo, named results, budgets, pass flags.

    Every numeric result is paired with an error budget or marked exact;
    the pass flags are pure functions of (result, budget, tolerance), so
    reruns with identical config are byte-identical.
    """

    task: str
    config: dict
    results: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)

    def add(self, name: str, value, budget=None, expected=None,
            tolerance=None, passed=None):
        self.results[name] = value
        if budget is not None:
            self.budgets[name] = budget
        else:
            self.budgets[name] = "exact"
        if passed is None and expected is not None and tolerance is not None:
            passed = abs(value - expected) <= tolerance
            self.results[name + ".expected"] = expected
            self.results[name + ".tolerance"] = tolerance
        if passed is not None:
            self.passes[name] = bool(passed)
        return self

    def at_most(self, name: str, value, limit):
        """A gate whose budget is its limit: passes when value <= limit, so
        a NaN fails."""
        return self.add(name, value, budget=limit, passed=value <= limit)

    def require(self, name: str, passed: bool):
        self.passes[name] = bool(passed)
        return self

    @property
    def all_passed(self) -> bool:
        return all(self.passes.values())

    def payload(self) -> dict:
        from . import __version__
        import numpy
        return {
            "task": self.task,
            "config": self.config,
            "results": self.results,
            "budgets": self.budgets,
            "pass": self.passes,
            "all_passed": self.all_passed,
            "versions": {"eh-glue": __version__, "numpy": numpy.__version__},
        }

    def to_json(self) -> str:
        return canonical_json(_plainify(self.payload())) + "\n"


def _plainify(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _plainify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plainify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plainify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# written files keep the usual 0666 & ~umask mode (mkstemp creates 0600)
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path: str, data: str | bytes):
    """Write text (as UTF-8) or bytes to path through a temporary file of
    this writer's own in the same directory, renamed over path when complete,
    so concurrent writers never share a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_report(report: Report, path: str | None, elapsed: float):
    text = report.to_json()
    if path:
        atomic_write(path, text)
    else:
        sys.stdout.write(text)
    print(f"[eh-glue] {report.task}: "
          f"{'PASS' if report.all_passed else 'FAIL'} "
          f"({elapsed:.1f} s)", file=sys.stderr)


def write_csv(path: str, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float)
                              else str(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")
