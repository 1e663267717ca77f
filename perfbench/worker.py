"""One measured process of a benchmark run (started by run.py).

Modes:
  setup    import, make the workload ready, report the set-up time;
  measure  set up, then iterate the workload until --seconds have passed,
           timing each iteration (computation plus output checks);
  trace    set up and iterate once untraced, once with every public function
           of the traced modules wrapped, then run the micro timings.

The set-up clock starts at --t0, a CLOCK_MONOTONIC reading the parent takes
just before it starts this process, so interpreter start-up and imports are
part of set-up.  The result is one JSON object written to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

# work counts of a traced run, over set-up plus the traced iteration
COUNTS = ("lattice.bg_points", "lattice.near_site_evals",
          "lattice.sites_summed", "lattice.cache_hits", "lattice.cache_misses",
          "quadrature.kahan_add_calls", "quadrature.nodes")


def _load_inputs(path: str) -> dict:
    import numpy as np
    with np.load(path) as data:
        return {k: (data[k].item() if data[k].ndim == 0 else data[k])
                for k in data.files}


def _iteration(wl, expected, failing: set):
    """Run and time one iteration: (seconds, outcome, attempted, failed).

    A declared check the iteration did not make failed, and a check it made
    beyond `expected` counts too; failed names are added to `failing`.
    """
    t0 = time.perf_counter()
    try:
        outcome = wl.iterate()
    except Exception:        # a raising iteration fails all of its checks
        traceback.print_exc()
        outcome = None
    elapsed = time.perf_counter() - t0
    made = {} if outcome is None else outcome.checks
    names = set(expected) | set(made)
    failed = {c for c in names if not made.get(c, False)}
    failing.update(failed)
    return elapsed, outcome, len(names), len(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    import ehglue
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(ehglue.__file__).startswith(src + os.sep):
        print(f"ehglue imported from {ehglue.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import CHECKS, CLASSES, KNOWN_RED
    expected, failing = CHECKS[args.workload], set()

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = _load_inputs(args.inputs)
    wl = CLASSES[args.workload](inputs, args.cache)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}

    if args.mode == "measure":
        walls, digests = [], []
        attempted = failed = 0
        known_red = {}
        start = time.perf_counter()
        while True:
            elapsed, outcome, a, f = _iteration(wl, expected, failing)
            walls.append(elapsed)
            attempted += a
            failed += f
            if outcome is not None:
                digests.append(outcome.digest)
                known_red = outcome.known_red
            if time.perf_counter() - start >= args.seconds:
                break
        # repeated iterations on the same inputs must agree bit for bit
        attempted += 1
        if len(digests) != len(walls) or len(set(digests)) != 1:
            failed += 1
            failing.add("rerun.bit_identical")
        # a known-red gate is reported, never dropped
        missing = set(KNOWN_RED.get(args.workload, ())) - set(known_red)
        attempted += len(missing)
        failed += len(missing)
        failing.update(missing)
        result.update(walls=walls, attempted=attempted, failed=failed,
                      known_red=known_red, digest=digests[0] if digests else "")
    elif args.mode == "trace":
        from micro import run as run_micro
        setup_mark = tracer.mark()
        tracer.uninstall()
        plain, _, a0, f0 = _iteration(wl, expected, failing)
        tracer.install()
        lo = tracer.mark()
        traced, _, a1, f1 = _iteration(wl, expected, failing)
        hi = tracer.mark()
        tracer.uninstall()
        modules, top = tracer.self_times(lo, hi)
        result.update(plain_wall_s=plain, traced_wall_s=traced,
                      attempted=a0 + a1, failed=f0 + f1,
                      modules=modules, top_level_s=top,
                      counts=_counts(tracer, 0, setup_mark, lo, hi),
                      micro=run_micro(os.path.dirname(args.out)))
        if args.spans:
            tracer.dump(args.spans)

    result["failing"] = sorted(failing)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _counts(tracer, s0, s1, lo, hi) -> dict:
    """Work counts over set-up (spans s0..s1) and the traced iteration."""
    idx = list(range(s0, s1)) + list(range(lo, hi))
    spans, counts = tracer.spans, tracer.counts
    out = dict.fromkeys(COUNTS, 0)
    bg_jets = "lattice.BackgroundField.jets"
    for i in idx:
        name, _, t0, t1, parent, size = spans[i]
        if name == bg_jets:
            out["lattice.bg_points"] += size
        elif name == "fields.farfield_jets" and parent >= 0 \
                and spans[parent][0] == bg_jets:
            out["lattice.near_site_evals"] += size
        elif name in ("lattice.omega_partial", "lattice.background_values",
                      "lattice.background_partial"):
            out["lattice.sites_summed"] += counts.get(i, 0)
        elif name == "lattice.BackgroundCache.load":
            hit = counts.get(i, 0)
            out["lattice.cache_hits"] += hit
            out["lattice.cache_misses"] += 1 - hit
        elif name == "quadrature.KahanAccumulator.add":
            out["quadrature.kahan_add_calls"] += 1
        elif name in ("quadrature.s3_quadrature",
                      "quadrature.radial_quadrature"):
            out["quadrature.nodes"] += counts.get(i, 0)
    # time of the traced iteration spent inside BackgroundField.jets, and
    # the points it evaluated at each jet order
    out["lattice.bg_jets_s"] = 0.0
    out["bg_points_by_order"] = {0: 0, 1: 0, 2: 0}
    for i in range(lo, hi):
        name, _, t0, t1, _, size = spans[i]
        if name == bg_jets:
            out["lattice.bg_jets_s"] += t1 - t0
            out["bg_points_by_order"][counts[i]] += size
    return out


if __name__ == "__main__":
    sys.exit(main())
