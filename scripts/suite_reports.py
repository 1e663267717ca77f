#!/usr/bin/env python3
"""Write the canonical set of suite reports of this checkout into one directory.

Runs each CLI suite of the reference set, one after another, with OUTDIR as
the working directory and relative --out names, and records every exit code
in OUTDIR/exit_codes.json and the wall seconds of each run, measured around
the subprocess, in OUTDIR/timings.json (so no timing enters a canonical
report).  The reports echo `out`, `csv` and `cache_dir`, so two checkouts
give comparable reports only with the same names and the same cache
directory; the cache directory is made absolute here.  Compare
two such directories with report_diff.py, and the flow CSVs with cmp:

    python3 scripts/suite_reports.py /tmp/before --cache-dir /tmp/cache
    python3 scripts/suite_reports.py /tmp/after --cache-dir /tmp/cache
    python3 scripts/report_diff.py /tmp/before /tmp/after
    cmp /tmp/before/flow.csv /tmp/after/flow.csv
"""

import argparse
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

# report name -> CLI arguments before --out
REPORTS = {
    "omega": ["omega"],
    "background": ["background"],
    "flux": ["flux"],
    "flux-site": ["flux", "--site", "1,0,0,0"],
    "zterm": ["zterm"],
    "project": ["project", "--vol-order", "6", "--annulus-points", "4",
                "--outer-points", "4", "--fast"],
    # the coarse sweep behind quad_estimate runs only without --fast
    "project-estimate": ["project", "--vol-order", "6", "--annulus-points",
                         "4", "--outer-points", "4"],
    "dist-laplace": ["dist-laplace"],
    "glue-scan": ["glue-scan"],
    "heat": ["heat"],
    "flow": ["flow", "--csv", "flow.csv"],
    "verify-eh": ["verify", "eh"],
    "verify-eh-fast": ["verify", "eh", "--fast"],
    "verify-glue": ["verify", "glue"],
    "verify-all": ["verify", "all"],
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory for the reports (created)")
    ap.add_argument("--cache-dir", required=True,
                    help="lattice cache directory shared by the runs")
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    cache = os.path.abspath(args.cache_dir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    codes, timings = {}, {}
    for name, cli_args in REPORTS.items():
        cmd = [sys.executable, "-m", "ehglue.cli", *cli_args,
               "--out", f"{name}.json", "--cache-dir", cache]
        start = time.perf_counter()
        codes[name] = subprocess.run(cmd, cwd=args.outdir, env=env).returncode
        timings[name] = round(time.perf_counter() - start, 3)
        print(f"{name}: exit {codes[name]}, {timings[name]:.2f} s",
              file=sys.stderr)
    for filename, data in (("exit_codes.json", codes),
                           ("timings.json", timings)):
        with open(os.path.join(args.outdir, filename), "w",
                  encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
