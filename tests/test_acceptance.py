"""Acceptance gate: the ten quantitative exit criteria.

Each test prints one PASS/FAIL line with the measured numbers and enforces
the stated tolerance.  Criterion 5 is known-red at its stated parameters:
the honest volume projection carries a genuine desk-scale correction that
no reading of the flux route cancels (the small-scale trend, also printed,
confirms both routes converge to the same constant); see the repository
notes for the full analysis.  Run with ``pytest -s`` to see the table.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from ehglue.curvature import curvature_at, div_trace, lichnerowicz
from ehglue.fields import eh_metric, kernel_mode
from ehglue.glue import GlueParams, GluedMetric, decay_scans
from ehglue.heat import (KernelQuery, decay_rate_scan, heat_kernel_minus,
                         heat_kernel_plus)
from ehglue.lattice import BackgroundField, omega_partial
from ehglue.obstruction import (distributional_check, flux_integral,
                                flux_single_site, projection_integrals)
from ehglue.quadrature import line_fit, radial_quadrature, s3_quadrature
from ehglue.flow import (ProxyPolicy, assumption_check, blowup_prediction,
                         curvature_peak, epsilon_derivative, epsilon_of_t,
                         modulation_residual, ode_integrate,
                         ricci_decay_proxy)

OMEGA_PAPER = 7.70


def report(num, label, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {label}: {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {num} exceeded its time budget"
    return ok


@pytest.fixture(scope="module")
def omega40():
    return omega_partial(40)


def test_criterion_01_obstruction_constant():
    t0 = time.monotonic()
    res = omega_partial(40)
    dt = time.monotonic() - t0
    ok = abs(res.extrapolated - OMEGA_PAPER) <= 0.05
    assert report(1, "obstruction constant",
                  ok, f"extrapolated {res.extrapolated:.6f} "
                      f"± {res.uncertainty:.1e} vs {OMEGA_PAPER}",
                  dt, 10.0)


def test_criterion_02_kernel_norm():
    t0 = time.monotonic()
    worst = 0.0
    for eps in (0.5, 1.0, 2.0):
        rule = radial_quadrature(0.0, np.inf, decay_power=16.0, scale=eps)
        val, est = rule.integrate(
            lambda r, e=eps: 4.0 * (e ** 4 / (e ** 4 + r ** 4)) ** 2
            * 2.0 * np.pi ** 2 * r ** 3)
        worst = max(worst, abs(val / (2 * np.pi ** 2 * eps ** 4) - 1.0))
    dt = time.monotonic() - t0
    assert report(2, "kernel-tensor norm", worst <= 1e-6,
                  f"max relative deviation {worst:.2e} from 2*pi^2*eps^4",
                  dt, 1.0)


def test_criterion_03_pointwise_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    d = rng.normal(size=(200, 4))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = d * np.exp(rng.uniform(np.log(0.3), np.log(5.0), size=(200, 1)))
    gj = eh_metric(1.0).jets(pts)
    curv = curvature_at(gj)
    det_dev = float(np.max(np.abs(np.linalg.det(gj.val) - 1.0)))
    ric = float(np.max(np.abs(curv.ricci)))
    worst_tr = worst_div = worst_lich = 0.0
    for i in (1, 2, 3):
        oj = kernel_mode(i, 1.0).jets(pts)
        div, tr, _ = div_trace(gj, oj, curv)
        worst_tr = max(worst_tr, float(np.max(np.abs(tr))))
        worst_div = max(worst_div, float(np.max(np.abs(div))))
        worst_lich = max(worst_lich,
                         float(np.max(np.abs(lichnerowicz(gj, oj, curv)))))
    dt = time.monotonic() - t0
    ok = (worst_tr <= 1e-13 and worst_div <= 1e-8 and worst_lich <= 1e-7
          and ric <= 1e-9 and det_dev <= 1e-12)
    assert report(3, "pointwise cap suite", ok,
                  f"tr {worst_tr:.1e}, div {worst_div:.1e}, "
                  f"lich {worst_lich:.1e}, ric {ric:.1e}, det {det_dev:.1e}",
                  dt, 30.0)


def test_criterion_04_flux_integral(background32, omega40):
    t0 = time.monotonic()
    params = GlueParams(0.1, 0.3, 32)
    full = flux_integral(params, s3_order=24, background=background32,
                         omega=omega40.extrapolated)
    rel = abs(full.value / full.predicted - 1.0)
    odd = flux_single_site((1, 0, 0, 0), 0.3, s3_order=24)
    rel_odd = abs(odd.value / odd.predicted - 1.0)
    even = flux_single_site((1, 1, 0, 0), 0.3, s3_order=24)
    dt = time.monotonic() - t0
    ok = (rel <= 0.02 and rel_odd <= 1e-3
          and abs(even.value) <= max(even.quad_estimate, 1e-10))
    assert report(4, "flux integral", ok,
                  f"full {full.value:.4e} vs {full.predicted:.4e} "
                  f"({100 * rel:.2f}%), odd-site {100 * rel_odd:.2e}%, "
                  f"even-site {even.value:.1e}",
                  dt, 300.0)


def test_criterion_05_cross_route(background32, omega40):
    """Known red: the honest volume projection at (0.1, 0.3) carries a
    genuine correction of relative size ~0.4 (it converges to the predicted
    constant as eps -> 0, which is printed as evidence), so the 3% gate and
    the 8 ± 0.3 exponent gate fail at the stated desk parameters."""
    t0 = time.monotonic()
    eps_list = [0.05, 0.07, 0.1]
    res = projection_integrals(eps_list, 0.3, background32, s3_order=10,
                               annulus_points=20, outer_points=24,
                               with_estimate=False)
    flux = flux_integral(GlueParams(0.1, 0.3, 32), s3_order=16,
                         background=background32,
                         omega=omega40.extrapolated)
    proj = res[-1].onto_obstruction
    rel = abs(proj / flux.value - 1.0)
    vals = np.array([r.onto_obstruction for r in res])
    pred = 32 * np.pi ** 2 * np.array(eps_list) ** 8 * omega40.extrapolated
    if np.all(vals > 0.0):
        slope, _ = line_fit(np.log(np.array(eps_list)), np.log(vals))
    else:
        slope = float("nan")
    dt = time.monotonic() - t0
    ok = rel <= 0.03 and abs(slope - 8.0) <= 0.3
    trend = ", ".join(f"eps={e}: proj/pred={v / p:.3f}"
                      for e, v, p in zip(eps_list, vals, pred))
    report(5, "cross-route projection", ok,
           f"proj {proj:.4e} vs flux {flux.value:.4e} ({100 * rel:.1f}%), "
           f"exponent {slope:.2f}; trend [{trend}]",
           dt, 600.0)
    assert ok, ("cross-route gate is unattainable at (eps, delta) = "
                "(0.1, 0.3): the projection's desk-scale correction is "
                "genuine (see README, Known red); the small-eps trend "
                "above shows both routes converge to the predicted value")


def test_criterion_06_decay_exponents(background32):
    t0 = time.monotonic()
    gm = GluedMetric(GlueParams(0.05, 0.25, 32), background32)
    scan, = decay_scans([(gm, "ricci")], (0.26, 0.29, 0.33, 0.37), s3_order=8)
    g1 = eh_metric(1.0)
    from ehglue.fields import farfield_tensor
    far = farfield_tensor()
    radii = np.array([10.0, 15.0, 25.0, 40.0])
    sups = []
    for r in radii:
        nodes = s3_quadrature(6, r).nodes
        gap = (g1.jets(nodes, order=0).val - np.eye(4)
               - 0.5 * far.jets(nodes, order=0).val)
        sups.append(float(np.max(np.sqrt(np.einsum("pij,pij->p", gap, gap)))))
    slope_rem, _ = line_fit(np.log(radii), np.log(np.array(sups)))
    dt = time.monotonic() - t0
    ok = (abs(scan.fitted_exponent + 10.0) <= 0.5
          and abs(slope_rem + 8.0) <= 0.3)
    assert report(6, "decay exponents", ok,
                  f"outer Ricci {scan.fitted_exponent:.2f} (target -10), "
                  f"cap remainder {slope_rem:.3f} (target -8)",
                  dt, 120.0)


def test_criterion_07_distributional_laplacian():
    t0 = time.monotonic()
    from ehglue.jets import coordinate_jets

    def u12(x):
        xj = coordinate_jets(x)
        return xj[0] * xj[1]

    def udd(x):
        xj = coordinate_jets(x)
        return xj[0] * xj[0] - xj[1] * xj[1]

    r1 = distributional_check(u12, 0, 1, "offdiag", 0.5)
    r1b = distributional_check(u12, 0, 1, "offdiag", 0.25)
    r2 = distributional_check(udd, 0, 1, "diagdiff", 0.5)
    dt = time.monotonic() - t0
    ok = (abs(r1.reconstructed - 1.0) <= 1e-6
          and abs(r2.reconstructed - 4.0) <= 1e-6
          and abs(r1.reconstructed - r1b.reconstructed) <= 1e-8)
    assert report(7, "distributional reconstruction", ok,
                  f"offdiag {r1.reconstructed:.10f}, "
                  f"diagdiff {r2.reconstructed:.10f}, "
                  f"delta-shift {abs(r1.reconstructed - r1b.reconstructed):.1e}",
                  dt, 30.0)


def test_criterion_08_heat_kernels():
    t0 = time.monotonic()
    x, x0 = (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 0.0)
    worst = 0.0
    for fn in (heat_kernel_plus, heat_kernel_minus):
        d = fn(KernelQuery(x, x0, 0.25, "direct"))
        u = fn(KernelQuery(x, x0, 0.25, "dual"))
        worst = max(worst, abs(d - u) / max(abs(d), 1e-300))
    target = -4 * np.pi ** 2
    times = np.linspace(0.3, 1.5, 7)
    rate_p = decay_rate_scan(False, times).rate
    rate_m = decay_rate_scan(True, times).rate
    dt = time.monotonic() - t0
    ok = (worst <= 1e-12 and abs(rate_p / target - 1.0) <= 0.05
          and abs(rate_m / target - 1.0) <= 0.05)
    assert report(8, "heat kernels", ok,
                  f"direct/dual {worst:.1e}, rates {rate_p:.3f}/{rate_m:.3f} "
                  f"vs {target:.3f}",
                  dt, 60.0)


def test_criterion_09_flow_dynamics(omega40):
    t0 = time.monotonic()
    omega = omega40.extrapolated
    eps0 = epsilon_of_t(-1e6, omega=omega)
    ts, es = ode_integrate(eps0, -1e6, -1e3, 100000, omega)
    idx = np.linspace(0, len(ts) - 1, 40).astype(int)
    exact = np.array([epsilon_of_t(t, omega=omega) for t in ts[idx]])
    rk_dev = float(np.max(np.abs(es[idx] / exact - 1.0)))

    ass = assumption_check(-np.logspace(3, 8, 60), omega=omega)

    eps_ref = epsilon_of_t(-1e6, omega=omega)
    resid = modulation_residual(-1e6, eps_ref,
                                epsilon_derivative(-1e6, omega=omega), omega)
    resid_ok = abs(resid) <= 1e-14 * 32 * np.pi ** 2 * omega * eps_ref ** 8

    peak = curvature_peak()
    tgrid = -np.logspace(4, 8, 9)
    ratios = np.array([blowup_prediction(t, peak, omega=omega)[0]
                       / np.sqrt(-t) for t in tgrid])
    ratio_spread = float(np.max(ratios) / np.min(ratios) - 1.0)
    c_val = blowup_prediction(-1e6, peak, omega=omega)[1]

    proxy = ricci_decay_proxy((-1e4, -1e5, -1e6),
                              ProxyPolicy(lattice_cutoff=16, omega=omega),
                              BackgroundField(16))
    dt = time.monotonic() - t0
    ok = (rk_dev <= 1e-9 and ass.all_ok and resid_ok
          and ratio_spread <= 0.01 and proxy.exponent <= -0.9
          and abs(c_val - peak * np.sqrt(32 * omega)) < 1e-12)
    assert report(9, "flow dynamics", ok,
                  f"rk4 {rk_dev:.1e}, assumption {ass.all_ok}, "
                  f"residual ok {resid_ok}, blowup spread {ratio_spread:.1e}, "
                  f"c = {c_val:.4f}, proxy exponent {proxy.exponent:.3f}",
                  dt, 60.0)


def test_criterion_10_determinism(tmp_path):
    import os
    t0 = time.monotonic()
    env_base = dict(os.environ)
    env_base["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env_base.get("PYTHONPATH", "")])
    identical = True
    for task, extra in (("omega", ["--cutoff", "12"]), ("heat", [])):
        out = tmp_path / f"{task}.json"
        blobs = []
        for threads in ("1", "4"):
            env = dict(env_base)
            env.update({"OMP_NUM_THREADS": threads,
                        "OPENBLAS_NUM_THREADS": threads})
            res = subprocess.run(
                [sys.executable, "-m", "ehglue.cli", task, *extra,
                 "--out", str(out), "--threads", threads],
                capture_output=True, text=True, env=env)
            assert res.returncode == 0, res.stderr
            blobs.append(out.read_bytes())
        identical &= blobs[0] == blobs[1]
    dt = time.monotonic() - t0
    assert report(10, "determinism across thread counts", identical,
                  "byte-identical reports for omega and heat suites",
                  dt, 120.0)
