"""eh-glue benchmark: one run of one workload.

    python3 perfbench/run.py --workload project-sweep --seed 1 \
        --seconds 12 --trace 0

Run from the repository root.  The run makes the workload's inputs from
--seed, starts fresh single-threaded worker processes (several set-ups, the
last of which goes on to measure), checks every output, prints a table of
every metric with its unit, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-module ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import MODULES  # noqa: E402
from worker import COUNTS  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

# set-up samples per run (setup_s is their median): one process each, the
# last of which goes on to measure
SETUPS = 3
RUN_LIMIT_S = 170.0     # a run gives up (exit 1) past this
WORK_DIR = ".perfbench-work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio"}


class RunError(RuntimeError):
    pass


def _environment() -> dict:
    import numpy
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "caches": caches,
            "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1"}


def _child_env(root: str, cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["EH_GLUE_CACHE_DIR"] = cache_dir
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(root, rundir, deadline, mode, workload, cache_dir, seconds=0.0,
            spans="") -> dict:
    fd, out = tempfile.mkstemp(suffix=".json", dir=rundir)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--inputs",
           os.path.join(rundir, "inputs.npz"), "--cache", cache_dir,
           "--seconds", repr(seconds), "--out", out]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=root,
                            env=_child_env(root, cache_dir),
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{mode} worker exceeded the run time limit")
    if code != 0:
        raise RunError(f"{mode} worker exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _cache_dir(rundir: str, workload: str, warm: str) -> str:
    """Private cache per process; lattice-cold always starts empty."""
    if workload == "project-sweep":
        return warm
    return tempfile.mkdtemp(prefix="cache-", dir=rundir)


def _warm_cache(root, work, rundir, deadline) -> str:
    """A private copy of a filled cache, filled outside every timed part.

    The filled cache is built once per checkout by a set-up worker (a far
    table depends only on the code) and copied into each run's directory.
    """
    shared = os.path.join(work, "warm-cache")
    if not os.path.isdir(shared):
        tmp = tempfile.mkdtemp(prefix="warm-build-", dir=work)
        _worker(root, rundir, deadline, "setup", "project-sweep", tmp)
        os.replace(tmp, shared)
    private = os.path.join(rundir, "warm-cache")
    shutil.copytree(shared, private)
    return private


def run(root: str, workload: str, seed: int, seconds: float, trace: bool):
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work)
    try:
        import numpy as np
        np.savez(os.path.join(rundir, "inputs.npz"),
                 **make_inputs(workload, seed))
        warm = ""
        if workload == "project-sweep":
            warm = _warm_cache(root, work, rundir, deadline)
        setups = []
        if not trace:
            for _ in range(SETUPS - 1):
                setups.append(_worker(root, rundir, deadline, "setup",
                                      workload,
                                      _cache_dir(rundir, workload, warm))
                              ["setup_s"])
        spans = ""
        if trace:
            os.makedirs(os.path.join(work, "traces"), exist_ok=True)
            spans = os.path.join(work, "traces",
                                 f"{workload}-seed{seed}.jsonl")
        main = _worker(root, rundir, deadline,
                       "trace" if trace else "measure", workload,
                       _cache_dir(rundir, workload, warm), seconds, spans)
        setups.append(main["setup_s"])
        return main, setups
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def end_to_end(main: dict, setups: list) -> dict:
    return {"wall_s": statistics.median(main["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            "pass_ratio": 1.0 - main["failed"] / main["attempted"]}


def per_layer(main: dict) -> dict:
    out = {name: tuple(v) for name, v in main["micro"].items()}
    for mod in MODULES:
        self_s, calls = main["modules"][mod]
        out[f"{mod}.self_s"] = (self_s, "s")
        out[f"{mod}.calls"] = (calls, "count")
    counts = main["counts"]
    for name in COUNTS:
        out[name] = (counts[name], "count")
    traced, plain = main["traced_wall_s"], main["plain_wall_s"]
    out["trace.wall_s"] = (traced, "s")
    out["trace.plain_wall_s"] = (plain, "s")
    out["trace.overhead_ratio"] = (traced / plain, "ratio")
    out["trace.attributed_share"] = (main["top_level_s"] / traced, "ratio")
    out["lattice.bg_jets_share"] = (counts["lattice.bg_jets_s"] / traced,
                                    "ratio")
    out["lattice.bg_jets_s"] = (counts["lattice.bg_jets_s"], "s")
    out["lattice.bg_jets_model_s"] = (_bg_jets_model(main)["total"], "s")
    return out


def _bg_jets_model(main: dict) -> dict:
    """Seconds the micro costs predict for the traced iteration's
    BackgroundField.jets points, with the order-2 near/polynomial split."""
    micro, by_order = main["micro"], main["counts"]["bg_points_by_order"]
    cost = {o: micro[f"lattice.bg_jets_o{o}_us_per_pt"][0] * 1e-6
            for o in (0, 1, 2)}
    n2 = by_order["2"]
    return {"total": sum(n * cost[int(o)] for o, n in by_order.items()),
            "near_o2": n2 * micro["lattice.bg_jets_o2_near_us_per_pt"][0] * 1e-6,
            "poly_o2": n2 * micro["lattice.bg_jets_o2_poly_us_per_pt"][0] * 1e-6}


def _print_table(workload, seed, main, setups, metrics, env):
    print(f"# eh-glue benchmark  workload={workload}  seed={seed}")
    print(f"# python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  {env['threads']}")
    print("# caches " + ", ".join(f"{k} {v}" for k, v in env["caches"].items()))
    if "walls" in main:
        print(f"# iterations {len(main['walls'])}: "
              + " ".join(f"{w:.3f}" for w in main["walls"]) + " s")
        print(f"# setup samples: " + " ".join(f"{s:.3f}" for s in setups)
              + " s")
        print(f"# report digest {main['digest']}")
    print(f"# checks attempted {main['attempted']}  failed {main['failed']}  "
          f"fail_ratio {main['failed'] / main['attempted']:.6g}")
    if main["failing"]:
        print("# failing checks: " + ", ".join(main["failing"]))
    for name, info in sorted(main.get("known_red", {}).items()):
        print(f"# known-red {name} = {info['value']!r}  gate {info['gate']}  "
              f"{'pass' if info['passed'] else 'red'}")
    if "micro" in main:
        by_order = main["counts"]["bg_points_by_order"]
        model = _bg_jets_model(main)
        print(f"# BackgroundField.jets in the traced iteration: "
              f"{main['counts']['lattice.bg_jets_s']:.3f} s for points "
              f"o2/o1/o0 = {by_order['2']}/{by_order['1']}/{by_order['0']}; "
              f"micro costs predict {model['total']:.3f} s (order 2: near "
              f"{model['near_o2']:.3f} s + polynomial {model['poly_o2']:.3f} s)")
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ehglue", "__init__.py")):
        print("perfbench: run from the eh-glue repository root "
              "(src/ehglue not found)", file=sys.stderr)
        return 2
    try:
        main_result, setups = run(root, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(main_result)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(main_result, setups).items()}
    _print_table(args.workload, args.seed, main_result, setups, metrics,
                 _environment())
    line = {"correct": main_result["failed"] == 0,
            "attempted": main_result["attempted"],
            "failed": main_result["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
