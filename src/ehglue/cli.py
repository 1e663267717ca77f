"""Command-line front end.

Subcommands map one-to-one onto module verification suites; reports are
canonical JSON (byte-identical across reruns and thread counts), time series
go to CSV.  Exit codes: 0 all checks passed, 2 configuration error, 3 a
computation failed its budget (the failing suite is named on stderr).

Precedence: built-in task defaults, then the --config file, then explicit
flags.  Thread count is applied to the numerical backends via environment
variables before numpy loads; the deterministic reductions make reports
byte-identical either way.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# config imports no numpy, so the thread variables are still set in time
from .config import FIELD_TYPES, ConfigError, RunConfig, parse_config_file

S = argparse.SUPPRESS


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None,
                        help="flat key=value configuration file")
    shared.add_argument("--out", default=S,
                        help="path for the canonical JSON report")
    shared.add_argument("--csv", default=S,
                        help="path for CSV time series (flow)")
    shared.add_argument("--cache-dir", dest="cache_dir", default=S,
                        help="lattice cache directory (default "
                             "$EH_GLUE_CACHE_DIR, else ~/.cache/eh-glue)")
    shared.add_argument("--threads", type=int, default=1,
                        help="backend thread budget (reports are "
                             "byte-identical for any value)")

    parser = argparse.ArgumentParser(
        prog="eh-glue", parents=[shared],
        description="Numerical verification toolkit for the checkerboard "
                    "instanton gluing: lattice constants, obstruction "
                    "fluxes, heat kernels, modulation dynamics.")
    sub = parser.add_subparsers(dest="task", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[shared], **kw))

    def numeric(p, *names):
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=FIELD_TYPES[name], default=S)

    p = sub.add_parser("omega", help="obstruction-constant partial sums")
    numeric(p, "cutoff")

    sub.add_parser("background", help="lattice background convergence")

    for name in ("flux", "zterm", "project"):
        p = sub.add_parser(name)
        numeric(p, "eps", "delta", "cutoff", "s3_order")
        if name == "flux":
            p.add_argument("--site", default=S,
                           help="single-site mode, e.g. 1,0,0,0")
        if name == "project":
            numeric(p, "vol_order", "annulus_points", "outer_points")
            p.add_argument("--fast", action="store_true", default=S)

    p = sub.add_parser("glue-scan")
    numeric(p, "eps", "delta", "cutoff")

    p = sub.add_parser("dist-laplace", help="distributional reconstruction")
    numeric(p, "s3_order")

    sub.add_parser("heat", help="torus heat kernels")

    p = sub.add_parser("flow", help="modulation dynamics")
    numeric(p, "t_min", "t_max", "ode_steps", "cutoff")

    p = sub.add_parser("verify", help="pointwise identity suites")
    p.add_argument("which", choices=("eh", "glue", "all"))
    numeric(p, "eps", "delta", "cutoff")
    p.add_argument("--fast", action="store_true", default=S)

    p = sub.add_parser("report", help="merge suite reports into one file")
    p.add_argument("inputs", nargs="+", help="JSON reports to merge")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.threads < 1:
        print("eh-glue: configuration error: threads must be a positive "
              "integer", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)

    from .suites import BUDGET_SECONDS, SUITES, TASK_DEFAULTS

    cfg = RunConfig(task=args.task, **TASK_DEFAULTS.get(args.task, {}))
    try:
        if args.config:
            cfg.apply_mapping(parse_config_file(args.config))
        for key, value in vars(args).items():
            if hasattr(cfg, key):
                setattr(cfg, key, value)
        cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"eh-glue: configuration error: {exc}", file=sys.stderr)
        return 2

    if args.task == "report":
        return _merge_reports(args.inputs, cfg.out or None)

    from .report import write_report

    # `verify X` runs the suite keyed verify-X
    suite = args.task + ("-" + args.which if "which" in args else "")
    start = time.monotonic()
    try:
        report = SUITES[suite](cfg)
    except (ValueError, ConfigError) as exc:
        print(f"eh-glue: configuration error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    write_report(report, cfg.out or None, elapsed)

    budget = BUDGET_SECONDS[report.task]
    if elapsed > budget:
        print(f"eh-glue: suite '{report.task}' exceeded its "
              f"{budget:.0f}s budget ({elapsed:.1f}s)", file=sys.stderr)
        return 3
    if not report.all_passed:
        failing = sorted(k for k, v in report.passes.items() if not v)
        print(f"eh-glue: suite '{suite}' failed: {', '.join(failing)}",
              file=sys.stderr)
        return 3
    return 0


def _merge_reports(paths, out) -> int:
    import json

    from .report import atomic_write, canonical_json

    merged = {"task": "report", "suites": {}}
    source = {}
    ok = True
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"eh-glue: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(payload, dict):
            print(f"eh-glue: {path} is not a report", file=sys.stderr)
            return 2
        task = payload.get("task", path)
        if task in source:
            print(f"eh-glue: {source[task]} and {path} are both '{task}' "
                  "reports", file=sys.stderr)
            return 2
        source[task] = path
        merged["suites"][task] = payload
        ok &= bool(payload.get("all_passed", False))
    merged["all_passed"] = ok
    text = canonical_json(merged) + "\n"
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
