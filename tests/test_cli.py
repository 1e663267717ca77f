import ast
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ehglue.config import ConfigError, RunConfig, parse_config_file
from ehglue.report import Report, canonical_json, format_float, write_csv


SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_python(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def run_cli(args, env_extra=None, cwd=None):
    return run_python(["-m", "ehglue.cli", *args], env_extra, cwd)


def test_canonical_json_is_sorted_and_fixed_format():
    text = canonical_json({"b": 1.0 / 3.0, "a": [1, 2.5], "c": {"x": True}})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert format_float(1.0 / 3.0) in text
    assert format_float(1.0 / 3.0) == "0.33333333333333331"


def test_report_budget_pairing():
    rep = Report("demo", {})
    rep.add("x", 1.0, budget=0.1)
    rep.add("y", 2.0)
    assert rep.budgets["x"] == 0.1
    assert rep.budgets["y"] == "exact"
    rep.add("z", 1.05, expected=1.0, tolerance=0.1)
    assert rep.passes["z"]
    assert rep.all_passed
    rep.at_most("at", 0.5, 0.5)
    assert rep.passes["at"] and rep.budgets["at"] == 0.5
    assert rep.results["at"] == 0.5
    rep.at_most("above", np.nextafter(0.5, 1.0), 0.5)
    assert not rep.passes["above"] and rep.budgets["above"] == 0.5
    rep.at_most("nan", float("nan"), 0.5)
    assert not rep.passes["nan"] and rep.budgets["nan"] == 0.5
    assert not rep.all_passed


def test_csv_schema(tmp_path):
    path = str(tmp_path / "series.csv")
    write_csv(path, ["t", "epsilon", "pred_sup_rm", "ric_proxy"],
              [[-1e4, 0.025, 3.0e4, 1e-3]])
    lines = open(path).read().splitlines()
    assert lines[0] == "t,epsilon,pred_sup_rm,ric_proxy"
    assert len(lines) == 2


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\neps = 0.05\ncutoff = 16\n")
    cfg = RunConfig().apply_mapping(parse_config_file(str(path)))
    assert cfg.eps == 0.05
    assert cfg.cutoff == 16
    with pytest.raises(ConfigError):
        RunConfig().apply_mapping({"nonsense": "1"})
    with pytest.raises(ConfigError):
        RunConfig().apply_mapping({"cutoff": "many"})


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(eps=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(t_min=-1.0, t_max=-2.0).validate()


def test_cli_rejects_malformed_flag(tmp_path):
    res = run_cli(["omega", "--cutoff", "-3",
                   "--out", str(tmp_path / "r.json")])
    assert res.returncode == 2
    assert not (tmp_path / "r.json").exists()


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    res = run_cli(["omega", "--config", str(cfg)])
    assert res.returncode == 2


def test_cli_omega_runs_and_passes(tmp_path):
    out = tmp_path / "omega.json"
    res = run_cli(["omega", "--cutoff", "12", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["all_passed"]
    assert abs(payload["results"]["extrapolated"] - 7.70) < 0.05


def test_cli_report_merge(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["omega", "--cutoff", "8", "--out", str(out1)]).returncode == 0
    assert run_cli(["heat", "--out", str(out2)]).returncode == 0
    merged = tmp_path / "merged.json"
    res = run_cli(["report", str(out1), str(out2), "--out", str(merged)])
    assert res.returncode == 0
    payload = json.loads(merged.read_text())
    assert set(payload["suites"]) == {"omega", "heat"}
    assert payload["all_passed"]


def test_cli_report_rejects_input_that_is_not_an_object(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1]\n")
    res = run_cli(["report", str(bad)])
    assert res.returncode == 2
    assert str(bad) in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("first,second", [
    ({"task": "flow"}, {"task": "flow"}),
    ({"task": "flux", "config": {"site": ""}},
     {"task": "flux", "config": {"site": "1,0,0,0"}}),
], ids=["flow-twice", "flux-and-flux-site"])
def test_cli_report_rejects_two_reports_of_one_task(tmp_path, first, second):
    # merging keys each report by its task, so a second one would replace
    # the first
    paths = []
    for name, payload in (("a", first), ("b", second)):
        path = tmp_path / name / f"{payload['task']}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(dict(payload, all_passed=True)) + "\n")
        paths.append(str(path))
    merged = tmp_path / "merged.json"
    res = run_cli(["report", *paths, "--out", str(merged)])
    assert res.returncode == 2
    assert all(p in res.stderr for p in paths)
    assert not merged.exists()


@pytest.mark.parametrize("args", [
    ["zterm", "--s3-order", "8"], ["project", "--s3-order", "20"],
], ids=["zterm", "project"])
def test_cli_rejects_a_flux_order_below_16(tmp_path, monkeypatch, args):
    # zterm's flux runs at --s3-order and project's flux route 8 below it;
    # an order under 16 is refused before any background is built
    from ehglue import cli
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cache").mkdir()
    assert cli.main([*args, "--out", "report.json",
                     "--cache-dir", "cache"]) == 2
    assert not (tmp_path / "report.json").exists()
    assert not list((tmp_path / "cache").iterdir())


def test_cli_and_suites_import_no_scipy():
    res = run_python(["-c", "import sys, ehglue.cli, ehglue.suites; "
                            "print(sorted(m for m in sys.modules "
                            "if m.split('.')[0] == 'scipy'))"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_third_party_imports_are_the_declared_dependencies():
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        block = re.search(r"^dependencies = \[(.*?)\]", fh.read(),
                          re.S | re.M).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_]+)', block))
    imported = set()
    package = os.path.join(root, "src", "ehglue")
    for name in os.listdir(package):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__"}
    assert third_party == declared == {"numpy"}


def test_cli_config_file_respected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff = 8\n")
    out = tmp_path / "omega.json"
    res = run_cli(["omega", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["cutoff"] == 8


@pytest.mark.parametrize("args", [
    ["flux", "--fast"], ["zterm", "--fast"], ["glue-scan", "--fast"],
    ["glue-scan", "--s3-order", "5"], ["verify", "eh", "--s3-order", "5"],
    ["omega", "--config", "threads.cfg"], ["background", "--cutoff", "4"],
], ids=["flux-fast", "zterm-fast", "glue-scan-fast", "glue-scan-s3-order",
        "verify-s3-order", "config-threads", "background-cutoff"])
def test_cli_rejects_knobs_no_suite_reads(tmp_path, monkeypatch, args):
    # flags and config keys that no suite reads are configuration errors,
    # rejected before any suite runs
    from ehglue import cli
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    (tmp_path / "threads.cfg").write_text("threads = 2\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main([*args, "--out", "report.json"]) == 2
    assert not (tmp_path / "report.json").exists()


def test_reports_byte_identical_across_thread_counts(tmp_path):
    """Rerunning any suite with a different thread budget gives the same
    bytes (acceptance determinism gate, exercised on three fast suites; the
    glue run builds its lattice cache first and loads it second)."""
    cache = str(tmp_path / "cache")
    for task, extra in (("omega", ["--cutoff", "12"]), ("heat", []),
                        ("verify", ["glue", "--cutoff", "8",
                                    "--cache-dir", cache])):
        blobs = []
        out = tmp_path / f"{task}.json"
        for threads in ("1", "4"):
            res = run_cli([task, *extra, "--out", str(out),
                           "--threads", threads],
                          env_extra={"OMP_NUM_THREADS": threads,
                                     "OPENBLAS_NUM_THREADS": threads})
            assert res.returncode == 0, res.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{task} report depends on threads"


def test_verify_eh_gates():
    from ehglue.suites import run_verify_eh
    fast = run_verify_eh(RunConfig(task="verify", fast=True))
    assert fast.all_passed, sorted(k for k, v in fast.passes.items() if not v)
    # at 200 points metric_lichnerowicz is a known red (1.62e-9 against its
    # 1e-9 gate); every other gate must hold
    full = run_verify_eh(RunConfig(task="verify"))
    failing = {k for k, v in full.passes.items() if not v}
    assert failing <= {"metric_lichnerowicz"}, sorted(failing)


def test_cli_checks_the_suite_budget_of_the_report_task(tmp_path,
                                                        monkeypatch, capsys):
    from ehglue import cli, suites
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(suites.BUDGET_SECONDS, "verify-eh", 0.0)
    code = cli.main(["verify", "eh", "--fast", "--out",
                     str(tmp_path / "eh.json"), "--cache-dir", str(tmp_path)])
    assert code == 3
    assert "suite 'verify-eh' exceeded its 0s budget" in capsys.readouterr().err


def test_flux_site_builds_no_background(tmp_path, monkeypatch,
                                        background32, cache_dir):
    # the single-site flux reads no lattice: on an empty cache directory it
    # writes nothing there and reports what it reports with a warm one
    from ehglue import cli
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    empty = tmp_path / "empty"
    empty.mkdir()
    payloads = []
    for name, cache in (("warm", cache_dir), ("empty", str(empty))):
        out = tmp_path / f"{name}.json"
        assert cli.main(["flux", "--site", "1,0,0,0", "--out", str(out),
                         "--cache-dir", cache]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"].pop("cache_dir") == cache
        assert payload["config"].pop("out") == str(out)
        payloads.append(payload)
    assert not list(empty.iterdir())
    assert payloads[0] == payloads[1]


def test_project_reports_the_coarse_sweep_estimate(cache_dir, background8,
                                                   background_calls):
    # without --fast the projection's budget is its distance to a coarse
    # sweep at half the radial points (--fast reports exactly 0)
    import hashlib

    from ehglue import suites
    from ehglue.glue import GlueParams
    from ehglue.obstruction import _shell_radii
    from ehglue.quadrature import s3_quadrature
    cfg = RunConfig(task="project", cutoff=8, vol_order=6, annulus_points=2,
                    outer_points=2, cache_dir=cache_dir)
    estimate = suites.run_project(cfg).budgets["projection"]
    assert np.isfinite(estimate) and estimate > 0.0
    ang = s3_quadrature(6, 1.0).nodes
    coarse = {hashlib.sha256((ang * rho).tobytes()).hexdigest()
              for rho, _ in _shell_radii(GlueParams(cfg.eps, cfg.delta, 8),
                                         1, 1)}
    assert coarse <= {digest for digest, _, _ in background_calls}


def test_cache_regeneration_bit_identical(tmp_path):
    from ehglue.lattice import BackgroundCache, BackgroundField
    cache_dir = tmp_path / "cache"
    cache = BackgroundCache(str(cache_dir))
    BackgroundField(4, degree=8, cache=cache)
    files = sorted(os.listdir(cache_dir))
    first = {f: (cache_dir / f).read_bytes() for f in files}
    for f in files:
        (cache_dir / f).unlink()
    BackgroundField(4, degree=8, cache=cache)
    second = {f: (cache_dir / f).read_bytes() for f in sorted(os.listdir(cache_dir))}
    assert first == second


def test_flow_timeseries_rows_match_the_flow_suite_csv(tmp_path,
                                                        monkeypatch):
    # the script reads the ω and the background of `eh-glue flow --csv`, so
    # the rows of the times both write are byte-identical
    from ehglue import suites
    cache = str(tmp_path / "cache")
    done = run_python([os.path.join(SCRIPTS, "flow_timeseries.py"),
                       "--decades", "2", "--out", str(tmp_path / "script.csv")],
                      {"EH_GLUE_CACHE_DIR": cache})
    assert done.returncode == 0, done.stderr
    monkeypatch.setattr(suites, "_backgrounds", {})
    suites.run_flow(RunConfig(task="flow", cutoff=16, t_max=-1e5,
                              ode_steps=1000, cache_dir=cache,
                              csv=str(tmp_path / "suite.csv")))

    def rows(name):
        lines = (tmp_path / name).read_bytes().splitlines()
        return lines[0], {line.split(b",")[0]: line for line in lines[1:]}

    head, script_rows = rows("script.csv")
    suite_head, suite_rows = rows("suite.csv")
    assert head == suite_head
    assert sorted(float(t) for t in script_rows) == [-1e5, -1e4]
    for t, line in script_rows.items():
        assert suite_rows[t] == line


def test_report_diff_flags_moved_numbers_and_flipped_gates(tmp_path):
    script = os.path.join(SCRIPTS, "report_diff.py")
    base = Report("demo", {"cutoff": 8})
    base.add("x", 1.0, expected=1.0, tolerance=0.1)
    base.add("y", [2.0, 3.0])
    base.add("w", float("nan"))
    moved = Report("demo", {"cutoff": 8})
    moved.add("x", 1.0 + 1e-9, expected=1.0, tolerance=0.1)
    moved.add("y", [2.0, 3.5])
    moved.add("w", 1.0)
    moved.require("z", False)
    paths = []
    for name, rep in (("a", base), ("b", moved)):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            fh.write(rep.to_json())

    def diff(*args):
        return subprocess.run([sys.executable, script, *args],
                              capture_output=True, text=True)

    same = diff(paths[0], paths[0])
    assert same.returncode == 0 and same.stdout == ""
    out = diff(*paths, "--rtol", "1e-6")
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert any(line.startswith("changed results.y[1]:") for line in lines)
    assert any(line.startswith("changed results.w:") for line in lines)
    assert not any("results.x:" in line for line in lines)
    assert "gate all_passed: True -> False" in lines
    assert "gate pass.z: absent -> False" in lines
    assert diff(*paths, "--rtol", "1e-12").stdout.count("results.x:") == 1
    # two directories: same-named reports are compared, strays listed
    dirs = [tmp_path / "before", tmp_path / "after"]
    for d, path in zip(dirs, paths):
        d.mkdir()
        shutil.copy(path, d / "demo.json")
    shutil.copy(paths[0], dirs[0] / "extra.json")
    (dirs[1] / "notes.log").write_text("not a report")
    assert diff(str(dirs[0]), str(dirs[0])).returncode == 0
    out = diff(*map(str, dirs), "--rtol", "1e-6")
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert any(line.startswith("changed demo.json:results.y[1]:")
               for line in lines)
    assert "gate demo.json:all_passed: True -> False" in lines
    assert "only in A: extra.json" in lines
    assert not any("notes.log" in line for line in lines)
