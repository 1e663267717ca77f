#!/usr/bin/env python3
"""Compare two suite reports field by field.

Walks both JSON reports (single-suite or merged) and prints every numeric
field whose relative change exceeds --rtol, every field present in only one
of them, and every gate (an entry of "pass", or "all_passed") whose
pass/fail flag differs or that only one report has.
Exits 1 if anything was printed, 0 otherwise.  Standard library only:

    python3 scripts/report_diff.py before.json after.json --rtol 1e-12
"""

import argparse
import json
import math
import sys


def _walk(obj, path=""):
    """Yield (path, leaf) for every leaf of a nested JSON value."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _walk(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _walk(value, f"{path}[{i}]")
    else:
        yield path, obj


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    if math.isnan(a) or math.isnan(b) or math.isinf(scale):
        return math.inf
    return abs(a - b) / scale


def _is_gate(path: str) -> bool:
    """Pass flags of a suite report, also inside a merged report."""
    return (path == "all_passed" or path.endswith(".all_passed")
            or path.startswith("pass.") or ".pass." in path)


def diff(a: dict, b: dict, rtol: float):
    """(numeric changes, gate flips) as lists of printable lines."""
    left, right = dict(_walk(a)), dict(_walk(b))
    numbers, gates = [], []
    for path in sorted(left.keys() | right.keys()):
        va, vb = left.get(path, "absent"), right.get(path, "absent")
        if _is_gate(path):
            if va != vb:
                gates.append(f"{path}: {va} -> {vb}")
        elif path not in left or path not in right:
            numbers.append(f"{path}: only in {'B' if path in right else 'A'}")
        elif _is_number(va) and _is_number(vb):
            rel = _rel_change(float(va), float(vb))
            if rel > rtol:
                numbers.append(f"{path}: {va!r} -> {vb!r} (rel {rel:.3g})")
    return numbers, gates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="first report (JSON)")
    ap.add_argument("b", help="second report (JSON)")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="largest relative change not reported")
    args = ap.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    numbers, gates = diff(a, b, args.rtol)
    for line in numbers:
        print("changed", line)
    for line in gates:
        print("gate", line)
    return 1 if numbers or gates else 0


if __name__ == "__main__":
    sys.exit(main())
