#!/usr/bin/env python3
"""Compare two suite reports field by field.

Walks both JSON reports (single-suite or merged) and prints every numeric
field whose relative change exceeds --rtol, every field present in only one
of them, and every gate (an entry of "pass", or "all_passed") whose
pass/fail flag differs or that only one report has.  Given two
directories, it compares the reports (``*.json``) of the same name, prefixes
each line with the file name, compares every other file that both hold
(``flow.csv``) byte for byte, and lists every file found in only one of
them, report or not; ``timings.json``, the wall-time sidecar of
``suite_reports.py``, is no report and is skipped.  So one command shows
whether a refactor kept every output.  Exits 1 if anything was printed, 0
otherwise, and 2 on a usage error, such as a path that is neither a file
nor a directory.
Standard library only:

    python3 scripts/report_diff.py before.json after.json --rtol 1e-12
    python3 scripts/report_diff.py before/ after/ --rtol 1e-12
"""

import argparse
import filecmp
import json
import math
import os
import sys

SIDECARS = {"timings.json"}     # directory entries that are not reports


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


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _lines(a: dict, b: dict, rtol: float, prefix: str = "") -> list:
    numbers, gates = diff(a, b, rtol)
    return ([f"changed {prefix}{line}" for line in numbers]
            + [f"gate {prefix}{line}" for line in gates])


def diff_dirs(a: str, b: str, rtol: float) -> list:
    """Printable lines for the same-named reports of two directories, for
    the other files both hold whose bytes differ, and for every file that
    only one of them holds."""
    left, right = ({name for name in os.listdir(d) if name not in SIDECARS
                    and os.path.isfile(os.path.join(d, name))}
                   for d in (a, b))
    lines = []
    for name in sorted(left | right):
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if name not in left or name not in right:
            lines.append(f"only in {'B' if name in right else 'A'}: {name}")
        elif not name.endswith(".json"):
            if not filecmp.cmp(pa, pb, False):
                lines.append(f"changed {name}: bytes differ")
        else:
            lines += _lines(_load(pa), _load(pb), rtol, f"{name}:")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="first report (JSON) or directory of reports")
    ap.add_argument("b", help="second report (JSON) or directory of reports")
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="largest relative change not reported")
    args = ap.parse_args(argv)
    for path in (args.a, args.b):
        if not (os.path.isfile(path) or os.path.isdir(path)):
            ap.error(f"{path}: no such file or directory")
    dirs = os.path.isdir(args.a), os.path.isdir(args.b)
    if dirs[0] != dirs[1]:
        ap.error("give two report files or two directories")
    if dirs[0]:
        lines = diff_dirs(args.a, args.b, args.rtol)
    else:
        lines = _lines(_load(args.a), _load(args.b), args.rtol)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
