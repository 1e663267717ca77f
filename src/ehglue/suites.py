"""Verification suites behind the CLI subcommands.

Each suite runs one module's quantitative checks at its reference
parameters, collects named results with error budgets, and sets pass flags.
The tolerances here are the acceptance tolerances, pinned once; suites never
loosen them at run time.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .config import RunConfig
from .curvature import (bianchi_residual, curvature_at, div_trace, fd_sym2jet,
                        lichnerowicz, lie_derivative_sym2)
from .fields import (eh_metric, farfield_tensor, kernel_mode,
                     map_collection, point_generators, symmetry_check,
                     vector_fields, alpha_forms, radial_vector)
from .glue import (GlueParams, GluedMetric, decay_scans, gap_tensor,
                   outer_metric, region_tag, sphere_sups)
from .heat import (KernelQuery, decay_rate_scan, heat_kernel_minus,
                   heat_kernel_plus, kernel_on_grid, semigroup_defect,
                   sup_deviation)
from .jets import DomainError
from .lattice import (BackgroundCache, BackgroundField, background_partial,
                      background_values, default_cache_dir, flux_term_exact,
                      interaction_weight, omega_partial)
from .obstruction import (MIN_FLUX_ORDER, correction_budget,
                          distributional_check, flux_integral,
                          flux_single_site, gauge_vector_sup,
                          projection_integrals, z_flux)
from .quadrature import line_fit, radial_quadrature, s3_quadrature
from .report import Report, write_csv
from .flow import (ProxyPolicy, assumption_check, blowup_prediction,
                   curvature_peak, epsilon_derivative, epsilon_of_t,
                   modulation_residual, ode_integrate, ricci_decay_proxy)
from .jets import coordinate_jets

OMEGA_PAPER = 7.70          # reported value of the lattice constant
_backgrounds: dict = {}

# wall-clock budget of one suite run in seconds, keyed by report task; the
# CLI exits 3 past it and the acceptance criteria assert it
BUDGET_SECONDS = {
    "omega": 10.0, "background": 300.0, "flux": 300.0, "zterm": 300.0,
    "project": 600.0, "dist-laplace": 30.0, "glue-scan": 120.0,
    "heat": 60.0, "flow": 60.0, "verify-eh": 30.0, "verify-glue": 300.0,
    "verify-all": 300.0,
}

# configuration defaults of a CLI task that differ from RunConfig's
TASK_DEFAULTS = {
    "omega": {"cutoff": 40},
    "flow": {"cutoff": 16},
    "dist-laplace": {"s3_order": 16},
}


def shared_background(cfg: RunConfig) -> BackgroundField:
    """One cache-backed field per (cutoff, degree, cache directory): the
    background of every suite and script."""
    directory = os.path.realpath(cfg.cache_dir or default_cache_dir())
    key = (cfg.cutoff, cfg.taylor_degree, directory)
    if key not in _backgrounds:
        _backgrounds[key] = BackgroundField(cfg.cutoff, cfg.taylor_degree,
                                            BackgroundCache(directory))
    return _backgrounds[key]


def reference_omega(cfg: RunConfig) -> float:
    return omega_partial(max(cfg.cutoff, 32)).extrapolated


def sample_points(n: int, r_lo: float = 0.3, r_hi: float = 5.0,
                  seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 4))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), size=(n, 1)))
    return d * r


# ---------------------------------------------------------------------------

def run_omega(cfg: RunConfig) -> Report:
    rep = Report("omega", cfg.echo())
    res = omega_partial(cfg.cutoff)
    rep.add("partial", res.partial, budget=float(abs(res.uncertainty)))
    rep.add("extrapolated", res.extrapolated, budget=res.uncertainty,
            expected=OMEGA_PAPER, tolerance=0.05)
    rep.add("fitted_tail_order", res.fitted_order,
            passed=res.fitted_order > 1.5)
    table = [[int(n), float(res.partials[n])]
             for n in range(4, cfg.cutoff + 1, max(1, cfg.cutoff // 8))]
    rep.results["partial_table"] = table
    rep.budgets["partial_table"] = "exact"
    # internal consistency: the same series through the per-site closed form
    sites = [(1, 0, 0, 0), (1, 1, 1, 0), (2, 1, 0, 0)]
    agree = all(abs(flux_term_exact(a)
                    - 64.0 * np.pi ** 2
                    * interaction_weight(a)) < 1e-12 for a in sites)
    rep.require("per_site_closed_form", agree)
    return rep


def run_background(cfg: RunConfig) -> Report:
    rep = Report("background", cfg.echo())
    x = np.array([0.25, 0.0, 0.0, 0.0])
    cutoffs = [4, 8, 16]
    vals = [background_values(x, n) for n in cutoffs]
    devs = [float(np.max(np.abs(vals[i + 1] - vals[i])))
            for i in range(len(cutoffs) - 1)]
    slope, _ = line_fit(np.log(np.array(cutoffs[:-1], dtype=float)),
                        np.log(np.array(devs)))
    rep.add("self_deviation_exponent", -slope, budget=0.3,
            passed=-slope >= 0.9)
    rep.results["self_deviations"] = devs

    # invariance defect of the partial sums under every generator
    defects = {}
    for n in (8, 16):
        pts = [x] + [m.apply(x) for m in map_collection()]
        vals_all = background_values(np.stack(pts), n)
        base = vals_all[0]
        worst = 0.0
        for m, v in zip(map_collection(), vals_all[1:]):
            lin = m.linear()
            pulled = lin.T @ v @ lin
            worst = max(worst, float(np.max(np.abs(pulled - base))))
        defects[n] = worst
    slope_inv, _ = line_fit(np.log(np.array([8.0, 16.0])),
                            np.log(np.array([defects[8], defects[16]])))
    rep.add("invariance_defect_exponent", -slope_inv, budget=0.3,
            passed=-slope_inv >= 0.9)
    rep.results["invariance_defects"] = [defects[8], defects[16]]

    # paired grouping reproduces the plain cube value
    plain = background_values(x, 8)
    paired = background_values(x, 8, paired=True)
    rep.add("paired_vs_plain", float(np.max(np.abs(plain - paired))),
            budget=1e-10, passed=float(np.max(np.abs(plain - paired))) < 1e-10)

    # accelerated field agrees with the direct sum
    pts = np.array([[0.25, 0.0, 0.0, 0.0], [0.1, 0.15, -0.05, 0.1]])
    direct = background_partial(pts, 8, order=1)
    accel = shared_background(replace(cfg, cutoff=8)).jets(pts, order=1)
    dev = max(float(np.max(np.abs(direct.val - accel.val))),
              float(np.max(np.abs(direct.d1 - accel.d1))))
    rep.add("accelerated_vs_direct", dev, budget=1e-8, passed=dev < 1e-8)
    return rep


def run_flux(cfg: RunConfig) -> Report:
    rep = Report("flux", cfg.echo())
    params = GlueParams(cfg.eps, cfg.delta, cfg.cutoff)
    if cfg.site:
        site = tuple(int(v) for v in cfg.site.split(","))
        single = flux_single_site(site, cfg.delta, cfg.s3_order)
        rep.add("value", single.value, budget=single.quad_estimate)
        rep.add("predicted", single.predicted)
        rep.require("matches_closed_form",
                    abs(single.value - single.predicted)
                    <= max(1e-3 * abs(single.predicted), 10 * single.quad_estimate))
        return rep

    full = flux_integral(params, cfg.s3_order, shared_background(cfg),
                         reference_omega(cfg))
    rel = abs(full.value / full.predicted - 1.0)
    rep.add("value", full.value, budget=full.quad_estimate)
    rep.add("predicted", full.predicted)
    rep.at_most("relative_deviation", rel, 0.02)
    rep.add("correction_budget", full.correction_bound)

    odd_site = flux_single_site((1, 0, 0, 0), cfg.delta, cfg.s3_order)
    rel_odd = abs(odd_site.value / odd_site.predicted - 1.0)
    rep.add("single_site_odd", odd_site.value, budget=odd_site.quad_estimate,
            passed=rel_odd <= 1e-3)
    even_site = flux_single_site((1, 1, 0, 0), cfg.delta, cfg.s3_order)
    rep.add("single_site_even", even_site.value,
            budget=even_site.quad_estimate,
            passed=abs(even_site.value) <= max(even_site.quad_estimate, 1e-10))
    return rep


def run_zterm(cfg: RunConfig) -> Report:
    rep = Report("zterm", cfg.echo())
    if cfg.s3_order < MIN_FLUX_ORDER:
        raise ValueError(f"zterm needs --s3-order >= {MIN_FLUX_ORDER}")
    bg = shared_background(cfg)
    params = GlueParams(cfg.eps, cfg.delta, cfg.cutoff)
    val, est = z_flux(params, cfg.s3_order, bg)
    bound = correction_budget(cfg.eps, cfg.delta)
    rep.add("value", val, budget=est, passed=abs(val) <= bound + est)
    rep.add("bound", bound)
    zero, _ = z_flux(params, 16, bg, zero_gap=True)
    rep.add("zero_gap", zero, passed=zero == 0.0)

    # pointwise gauge vector: the paper-level bound C eps^8 delta^-9 holds
    # with large margin (the candidate delta^-9 piece cancels identically;
    # what survives is the connection coupling to the neighbour background,
    # whose measured slope is much shallower), so the gate is the bound and
    # the fitted slope is reported as a diagnostic
    deltas = np.array([0.25, 0.3, 0.35])
    sups = np.array([gauge_vector_sup(GlueParams(cfg.eps, d, cfg.cutoff),
                                      12, bg) for d in deltas])
    bounds = 10.0 * cfg.eps ** 8 * deltas ** -9.0
    rep.require("gauge_sup_bounded", bool(np.all(sups <= bounds)))
    slope, _ = line_fit(np.log(deltas), np.log(sups))
    rep.add("gauge_sup_delta_exponent", slope)
    rep.results["gauge_sups"] = sups.tolist()
    rep.results["gauge_sup_margin"] = float(np.max(sups / bounds))
    return rep


def run_project(cfg: RunConfig) -> Report:
    """Cross-route comparison of the obstruction projection.

    The honest volume projection carries desk-scale corrections of relative
    order eps^4 delta^-10 which exceed the asymptotic tolerances at the
    reference parameters; the suite reports the measured values, the
    small-eps trend toward the predicted constant, and applies the stated
    3% / exponent-8 gates as specified.
    """
    rep = Report("project", cfg.echo())
    # the flux route runs 8 orders below the suite's sphere order
    if cfg.s3_order - 8 < MIN_FLUX_ORDER:
        raise ValueError(f"project needs --s3-order >= {MIN_FLUX_ORDER + 8}")
    bg = shared_background(cfg)
    omega = reference_omega(cfg)
    eps_list = [0.05, 0.07, cfg.eps]
    res = projection_integrals(eps_list, cfg.delta, bg,
                               s3_order=cfg.vol_order,
                               annulus_points=cfg.annulus_points,
                               outer_points=cfg.outer_points,
                               with_estimate=not cfg.fast)
    params = GlueParams(cfg.eps, cfg.delta, cfg.cutoff)
    flux = flux_integral(params, cfg.s3_order - 8, bg, omega)
    proj = res[-1]
    rel = abs(proj.onto_obstruction / flux.value - 1.0)
    rep.add("projection", proj.onto_obstruction, budget=proj.quad_estimate)
    rep.add("flux_route", flux.value, budget=flux.quad_estimate)
    rep.at_most("cross_route_deviation", rel, 0.03)
    vals = np.array([abs(r.onto_obstruction) for r in res])
    if np.all(np.array([r.onto_obstruction for r in res]) > 0.0):
        slope, _ = line_fit(np.log(np.array(eps_list)), np.log(vals))
    else:
        slope = float("nan")
    rep.add("eps_exponent", slope, budget=0.3,
            passed=bool(abs(slope - 8.0) <= 0.3))
    for e, r in zip(eps_list, res):
        rep.results[f"projection_eps_{e}"] = r.onto_obstruction
        rep.results[f"metric_projection_eps_{e}"] = r.onto_metric
    gbound = 10.0 * cfg.eps ** 8 * cfg.delta ** -6
    rep.add("metric_projection", proj.onto_metric, budget=gbound,
            passed=abs(proj.onto_metric) <= gbound)
    gvals = np.array([abs(r.onto_metric) for r in res])
    rep.require("metric_projection_vanishes_with_eps",
                bool(gvals[0] < gvals[-1]))
    rep.add("corner_bound", proj.corner_bound)
    rep.at_most("inner_residual", proj.inner_residual, 1e-8)
    return rep


def run_dist_laplace(cfg: RunConfig) -> Report:
    rep = Report("dist-laplace", cfg.echo())

    def u_offdiag(x):
        xj = coordinate_jets(x)
        return xj[0] * xj[1]

    def u_diagdiff(x):
        xj = coordinate_jets(x)
        return xj[0] * xj[0] - xj[1] * xj[1]

    for delta_label, delta in (("", 0.5), ("_half", 0.25)):
        r1 = distributional_check(u_offdiag, 0, 1, "offdiag", delta,
                                  s3_order=cfg.s3_order)
        rep.add(f"offdiag_reconstructed{delta_label}", r1.reconstructed,
                budget=r1.quad_estimate, expected=1.0, tolerance=1e-6)
        r2 = distributional_check(u_diagdiff, 0, 1, "diagdiff", delta,
                                  s3_order=cfg.s3_order)
        rep.add(f"diagdiff_reconstructed{delta_label}", r2.reconstructed,
                budget=r2.quad_estimate, expected=4.0, tolerance=1e-6)
    rep.require("delta_independent",
                abs(rep.results["offdiag_reconstructed"]
                    - rep.results["offdiag_reconstructed_half"]) <= 1e-8)
    return rep


def run_glue_scan(cfg: RunConfig) -> Report:
    rep = Report("glue-scan", cfg.echo())
    bg = shared_background(cfg)

    # outer Ricci decay at the reference scan parameters; the radii sit just
    # outside the neck and well inside the cell so the own-site decay law is
    # not contaminated by the neighbouring caps
    params = GlueParams(0.05, 0.25, cfg.cutoff)
    gm = GluedMetric(params, bg)
    # every sphere below is sampled by all of its metrics and fields at
    # once, so its background is evaluated once
    radii = (0.26, 0.29, 0.33, 0.37)
    scan, lscan = decay_scans([(gm, "ricci"), (gm, "lichnerowicz")], radii,
                              s3_order=8)
    rep.add("outer_ricci_exponent", scan.fitted_exponent, budget=0.5,
            expected=-10.0, tolerance=0.5)
    rep.results["outer_ricci_sups"] = scan.sup_values.tolist()
    rep.add("outer_lichnerowicz_exponent", lscan.fitted_exponent, budget=0.5,
            expected=-10.0, tolerance=0.5)

    inner, inner_l = sphere_sups([(gm, "ricci"), (gm, "lichnerowicz")], 0.1)
    rep.at_most("inner_ricci_residual", inner, 1e-8)
    rep.at_most("inner_lichnerowicz_residual", inner_l, 1e-7)

    # cap far-field remainder exponent; beyond r ~ 40 the remainder of the
    # unit-scale family falls under the double-precision floor of the
    # component subtraction, so the window stays below that
    g1 = eh_metric(1.0)
    far = farfield_tensor()
    rem_radii = np.array([10.0, 15.0, 25.0, 40.0])
    sups = []
    for r in rem_radii:
        nodes = s3_quadrature(6, r).nodes
        gap = (g1.jets(nodes, order=0).val - np.eye(4)
               - 0.5 * far.jets(nodes, order=0).val)
        sups.append(float(np.max(np.sqrt(np.einsum("pij,pij->p", gap, gap)))))
    slope, _ = line_fit(np.log(rem_radii), np.log(np.array(sups)))
    rep.add("cap_remainder_exponent", slope, budget=0.3,
            expected=-8.0, tolerance=0.3)

    # annulus ratio bounded across the reference grid
    epss, deltas = (0.02, 0.04), (0.2, 0.3)
    band_sups: dict[tuple, list] = {}
    for delta in deltas:
        pairs = [(GluedMetric(GlueParams(eps, delta, cfg.cutoff), bg), "ricci")
                 for eps in epss]
        for r in np.linspace(2.0 * delta / 3.0, 5.0 * delta / 6.0, 5):
            for eps, sup in zip(epss, sphere_sups(pairs, r)):
                band_sups.setdefault((eps, delta), []).append(sup)
    ratios = [max(band_sups[eps, delta]) / (eps ** 4 / delta ** 2)
              for eps in epss for delta in deltas]
    spread = max(ratios) / min(ratios)
    rep.at_most("annulus_ratio_spread", spread, 10.0)
    rep.results["annulus_ratios"] = ratios

    # branch mismatch inside the transition zone: size O(eps^4) and shrinking
    # at least quartically in eps (the own-cap remainder adds an eps^8 part)
    mismatches = []
    x = s3_quadrature(6, 0.7 * cfg.delta).nodes
    bgx = bg.jets(x, order=0)
    for eps in (0.05, cfg.eps):
        GlueParams(eps, cfg.delta, cfg.cutoff)      # raises unless they glue
        gap = gap_tensor(bgx, eps, eh_metric(eps).jets(x, order=0))
        mismatches.append(float(np.max(np.abs(gap.val))))
    slope_mm = np.log(mismatches[1] / mismatches[0]) / np.log(cfg.eps / 0.05)
    rep.add("branch_mismatch", mismatches[1])
    rep.add("branch_mismatch_prefactor", mismatches[1] / cfg.eps ** 4)
    rep.add("branch_mismatch_eps_exponent", float(slope_mm), budget=0.5,
            passed=slope_mm >= 3.5)
    return rep


def run_heat(cfg: RunConfig) -> Report:
    rep = Report("heat", cfg.echo())
    x, x0 = (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 0.0)
    for name, fn in (("plus", heat_kernel_plus), ("minus", heat_kernel_minus)):
        d = fn(KernelQuery(x, x0, 0.25, "direct"))
        u = fn(KernelQuery(x, x0, 0.25, "dual"))
        dev = abs(d - u) / max(abs(d), 1e-300)
        rep.at_most(f"{name}_direct_dual_agreement", dev, 1e-12)
    rep.at_most("plus_t1_deviation",
                abs(heat_kernel_plus(KernelQuery(x, x0, 1.0)) - 1.0), 1e-12)
    target = -4.0 * np.pi ** 2
    times = np.linspace(0.3, 1.5, 7)
    for name, signed in (("plus", False), ("minus", True)):
        rate = decay_rate_scan(signed, times)
        rel = abs(rate / target - 1.0)
        rep.add(f"{name}_decay_rate", rate, budget=0.05 * abs(target),
                passed=rel <= 0.05)
    sg = semigroup_defect(0.5, 0.5)
    rep.at_most("semigroup_defect", sg, 1e-6)
    # |alternating| <= plain pointwise on a grid
    gp = kernel_on_grid(9, 0.3, signed=False)
    gm_ = kernel_on_grid(9, 0.3, signed=True)
    rep.require("alternating_dominated", bool(np.all(np.abs(gm_) <= gp + 1e-15)))
    rep.require("positivity", bool(np.all(gp > 0.0)))
    # refinement stability of the supremum
    a, b = sup_deviation(0.3, False, 17), sup_deviation(0.3, False, 33)
    rep.at_most("sup_grid_refinement", abs(a / b - 1.0), 0.01)
    return rep


def run_flow(cfg: RunConfig) -> Report:
    rep = Report("flow", cfg.echo())
    omega = reference_omega(cfg)

    eps0 = epsilon_of_t(cfg.t_min, omega)
    ts, es = ode_integrate(eps0, cfg.t_min, cfg.t_max, cfg.ode_steps, omega)
    stride = max(1, cfg.ode_steps // 64)
    exact = np.array([epsilon_of_t(t, omega) for t in ts[::stride]])
    dev = float(np.max(np.abs(es[::stride] / exact - 1.0)))
    rep.at_most("rk4_vs_closed_form", dev, 1e-9)

    grid = -np.logspace(np.log10(-cfg.t_max), np.log10(-cfg.t_min), 60)
    ass = assumption_check(grid, omega)
    rep.require("assumption_clauses", ass.all_ok)
    rep.results["assumption_margins"] = ass.margins

    resid = modulation_residual(cfg.t_min, eps0,
                                epsilon_derivative(cfg.t_min, omega), omega)
    resid_floor = 1e-14 * 32.0 * np.pi ** 2 * omega * eps0 ** 8
    rep.add("closed_form_residual", resid, budget=resid_floor,
            passed=abs(resid) <= resid_floor)

    peak = curvature_peak()
    rep.add("curvature_peak", peak)
    tgrid = -np.logspace(4, 8, 9)
    ratios = np.array([blowup_prediction(t, peak, omega)[0]
                       / np.sqrt(-t) for t in tgrid])
    c_val = blowup_prediction(tgrid[0], peak, omega)[1]
    spread = float(np.max(ratios) / np.min(ratios) - 1.0)
    rep.at_most("blowup_ratio_spread", spread, 0.01)
    rep.add("blowup_constant", c_val,
            passed=abs(c_val - peak * np.sqrt(32.0 * omega)) < 1e-12)

    policy = ProxyPolicy(lattice_cutoff=min(cfg.cutoff, 16), omega=omega)
    # the proxy's background keeps its own cutoff and the default degree 12
    bg = shared_background(replace(cfg, cutoff=policy.lattice_cutoff,
                                   taylor_degree=12))
    proxy = ricci_decay_proxy((-1e4, -1e5, -1e6), policy, bg)
    rep.add("proxy_exponent", proxy.exponent, budget=0.1,
            passed=proxy.exponent <= -0.9)
    # times ascend toward -1e4, so decay toward t -> -inf means increasing
    # values along the stored grid
    rep.require("proxy_monotone", bool(np.all(np.diff(proxy.sup_ric) > 0.0)))
    kappa = 0.01
    scaled = proxy.sup_ric * (-proxy.times) ** (0.5 - kappa)
    rep.require("proxy_beats_theorem_rate", bool(np.all(np.diff(scaled) > 0.0)))
    rep.results["proxy_sup_ric"] = proxy.sup_ric.tolist()
    rep.results["proxy_times"] = proxy.times.tolist()

    if cfg.csv:
        rows = []
        for t, sup in zip(proxy.times, proxy.sup_ric):
            pred, _ = blowup_prediction(t, peak, omega)
            rows.append([float(t), float(epsilon_of_t(t, omega)),
                         float(pred), float(sup)])
        write_csv(cfg.csv, ["t", "epsilon", "pred_sup_rm", "ric_proxy"], rows)
    return rep


def run_verify_eh(cfg: RunConfig) -> Report:
    rep = Report("verify-eh", cfg.echo())
    n = 50 if cfg.fast else 200
    pts = sample_points(n)
    g = eh_metric(1.0)
    gj = g.jets(pts)
    curv = curvature_at(gj)

    det_dev = float(np.max(np.abs(np.linalg.det(gj.val) - 1.0)))
    rep.at_most("det_deviation", det_dev, 1e-12)
    ric = float(np.max(np.abs(curv.ricci)))
    rep.at_most("max_ricci", ric, 1e-9)

    for i in (1, 2, 3):
        oj = kernel_mode(i, 1.0).jets(pts)
        div, tr, _ = div_trace(gj, oj, curv)
        lich = lichnerowicz(gj, oj, curv)
        rep.at_most(f"mode{i}_trace", float(np.max(np.abs(tr))), 1e-13)
        rep.at_most(f"mode{i}_divergence", float(np.max(np.abs(div))), 1e-8)
        rep.at_most(f"mode{i}_lichnerowicz", float(np.max(np.abs(lich))),
                    1e-7)

    # metric kernel identity Δ_L g = 0 and FD cross-check of Ricci flatness
    lg = float(np.max(np.abs(lichnerowicz(gj, gj, curv))))
    rep.at_most("metric_lichnerowicz", lg, 1e-9)
    radii = np.linalg.norm(pts, axis=1)
    sub = pts[(radii > 0.7) & (radii < 2.0)][:10]
    fd = fd_sym2jet(lambda p: g.jets(p, order=0).val, sub, scale=0.5)
    fd_ric = float(np.max(np.abs(curvature_at(fd).ricci)))
    rep.at_most("fd_oracle_ricci", fd_ric, 1e-5)

    # scaling covariance: the eps-family is the dilation pull-back of the
    # unit-scale metric, which in Cartesian components reads
    # g_eps[ij](x) = g_1[ij](x/eps) (the eps^2 cancels the chart Jacobians)
    eps, scale_pts = 0.7, pts[:20]
    lhs = eh_metric(eps).jets(scale_pts, order=0).val
    rhs = eh_metric(1.0).jets(scale_pts / eps, order=0).val
    sc = float(np.max(np.abs(lhs - rhs)))
    rep.at_most("scaling_covariance", sc, 1e-13)

    # invariant curvature scaling |Rm_eps|^2(x) = eps^-4 |Rm_1|^2(x/eps)
    k_eps = curvature_at(eh_metric(eps).jets(scale_pts)).riemann_sq()
    k_one = curvature_at(eh_metric(1.0).jets(scale_pts / eps)).riemann_sq()
    ksc = float(np.max(np.abs(k_eps * eps ** 4 / k_one - 1.0)))
    rep.at_most("curvature_scaling", ksc, 1e-11)

    # kernel-norm radial integral: ∫ |mode|² dvol = 2π² eps⁴
    for eps in (0.5, 1.0, 2.0):
        rule = radial_quadrature(0.0, np.inf, decay_power=16.0, scale=eps)

        def integrand(r, eps=eps):
            return (4.0 * (eps ** 4 / (eps ** 4 + r ** 4)) ** 2
                    * 2.0 * np.pi ** 2 * r ** 3)

        val, est = rule.integrate(integrand)
        expect = 2.0 * np.pi ** 2 * eps ** 4
        rel = abs(val / expect - 1.0)
        rep.add(f"mode_norm_eps_{eps}", val, budget=est,
                passed=rel <= 1e-6)
    # the pointwise norm identity behind it
    oj = kernel_mode(1, 1.0).jets(pts[:20], order=0)
    ginv = curv.ginv[:20]
    sq = np.einsum("pik,pjl,pij,pkl->p", ginv, ginv, oj.val, oj.val,
                   optimize=False)
    r2 = np.einsum("pi,pi->p", pts[:20], pts[:20])
    expect = 4.0 * (1.0 / (1.0 + r2 ** 2)) ** 2
    norm_dev = float(np.max(np.abs(sq - expect)))
    rep.at_most("mode_pointwise_norm", norm_dev, 1e-12)

    # symmetry maps fix the cap metrics and far-field tensors
    sym_pts = sample_points(40, 0.5, 2.0, seed=11)
    worst = 0.0
    for fld in (eh_metric(1.0), eh_metric(1.0, reflected=True),
                farfield_tensor(), farfield_tensor(reflected=True)):
        for m in point_generators():
            worst = max(worst, symmetry_check(fld, m, sym_pts))
    rep.at_most("symmetry_invariance", worst, 1e-12)

    # frame duality and commutators
    frame_pts = sample_points(30, 0.4, 3.0, seed=13)
    alphas = alpha_forms(frame_pts)
    vees = vector_fields(frame_pts)
    dual_dev = 0.0
    for i in range(3):
        for j in range(3):
            val = sum(alphas[i][k].value * vees[j][k].value for k in range(4))
            dual_dev = max(dual_dev, float(np.max(np.abs(val - (i == j)))))
    rep.at_most("frame_duality", dual_dev, 1e-13)

    comm_dev = _commutator_deviation(frame_pts)
    rep.at_most("frame_commutators", comm_dev, 1e-12)

    # mode 1 equals the radial-Lie and eps-derivative definitions
    lie_dev = _mode1_lie_identity(pts[:20])
    rep.at_most("mode1_lie_identity", lie_dev, 1e-11)

    # contracted Bianchi via high-order differences of the exact Ricci;
    # on the Ricci-flat cap a wide stencil keeps roundoff of the ~1e-12
    # Ricci noise from dominating the difference quotient
    bi = bianchi_residual(lambda p: g.jets(p), sub[:5], scale=7.0)
    rep.at_most("bianchi_residual", float(np.max(bi)), 1e-9)
    return rep


def _commutator_deviation(pts: np.ndarray) -> float:
    vees = vector_fields(pts)
    # [V_a, V_b]^i = V_a^k ∂_k V_b^i - V_b^k ∂_k V_a^i, target -2 V_c
    out = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for i in range(4):
            lhs = sum(vees[a][k].value * vees[b][i].grad[..., k]
                      - vees[b][k].value * vees[a][i].grad[..., k]
                      for k in range(4))
            out = max(out, float(np.max(np.abs(lhs + 2.0 * vees[c][i].value))))
    return out


def _mode1_lie_identity(pts: np.ndarray) -> float:
    g = eh_metric(1.0)
    gj = g.jets(pts)
    euler = radial_vector(pts)
    v = np.stack([e.value for e in euler], axis=-1)
    dv = np.stack([e.grad for e in euler], axis=-2)
    lie = lie_derivative_sym2(gj, v, dv)
    lhs = gj.val - 0.5 * lie
    oj = kernel_mode(1, 1.0).jets(pts, order=0)
    return float(np.max(np.abs(lhs - oj.val)))


def run_verify_glue(cfg: RunConfig) -> Report:
    rep = Report("verify-glue", cfg.echo())
    bg = shared_background(cfg)
    params = GlueParams(cfg.eps, cfg.delta, cfg.cutoff)
    gm = GluedMetric(params, bg)

    # branch saturation: the blend formula reproduces each branch exactly
    x_low = s3_quadrature(4, 0.55 * params.delta).nodes
    dev_low = float(np.max(np.abs(gm.values(x_low)
                                  - eh_metric(params.eps).values(x_low))))
    rep.at_most("blend_saturates_inner", dev_low, 1e-15)
    x_high = s3_quadrature(4, 0.9 * params.delta).nodes
    outer = outer_metric(bg.jets(x_high, order=0), params.eps)
    dev_high = float(np.max(np.abs(gm.values(x_high) - outer.val)))
    rep.at_most("blend_saturates_outer", dev_high, 1e-15)

    # positive definiteness across regions
    radii = np.array([0.3, 0.6, 0.75, 0.9, 1.0]) * params.delta
    pd_ok = True
    for r in radii:
        vals = gm.values(s3_quadrature(5, r).nodes)
        pd_ok &= bool(np.all(np.linalg.eigvalsh(vals) > 0.0))
    rep.require("positive_definite", pd_ok)

    # invariance under the point generators, within the lattice tail
    sym_pts = sample_points(25, 0.4 * params.delta, 1.2 * params.delta,
                            seed=3)
    worst = 0.0
    for m in point_generators():
        lin = m.linear()
        here = gm.values(sym_pts)
        there = gm.values(sym_pts @ lin.T)
        pulled = np.einsum("ai,pab,bj->pij", lin, there, lin, optimize=False)
        worst = max(worst, float(np.max(np.abs(pulled - here))))
    tail_tol = 10.0 * params.eps ** 4 / cfg.cutoff
    rep.at_most("point_group_invariance", worst, tail_tol)

    # region dispatch is exact at the stated radii
    probe = np.array([[0.5 * params.delta, 0.0, 0.0, 0.0],
                      [params.delta, 0.0, 0.0, 0.0],
                      [0.75 * params.delta, 0.0, 0.0, 0.0]])
    tags = region_tag(probe, params)
    rep.require("region_dispatch", bool(tags[0] == 0 and tags[1] == 2
                                        and tags[2] == 1))

    # obstruction tensor: trace-free, equals mode 1 inside
    x_all = np.concatenate([x_low, x_high])
    obj = gm.obstruction_jets(x_all, order=0)
    gj = gm.jets(x_all, order=0)
    tr = np.einsum("pij,pij->p", np.linalg.inv(gj.val), obj.val,
                   optimize=False)
    rep.at_most("obstruction_trace", float(np.max(np.abs(tr))), 1e-12)
    inner_dev = float(np.max(np.abs(
        gm.obstruction_jets(x_low, order=0).val
        - kernel_mode(1, params.eps).values(x_low))))
    rep.at_most("obstruction_inner", inner_dev, 1e-12)

    # outer obstruction scales like eps^4 · background + O(eps^8)
    x_out = s3_quadrature(4, 1.5 * params.delta).nodes
    bgv = bg.jets(x_out, order=0).val
    devs = []
    for eps in (0.05, 0.1):
        p = GlueParams(eps, params.delta, cfg.cutoff)
        m = GluedMetric(p, bg)
        d = m.obstruction_jets(x_out, order=0).val - eps ** 4 * bgv
        devs.append(float(np.max(np.abs(d))))
    slope = np.log(devs[1] / devs[0]) / np.log(2.0)
    rep.add("outer_obstruction_eps_exponent", float(slope), budget=0.5,
            passed=abs(slope - 8.0) <= 0.5)

    # lattice-point evaluation is a domain error
    try:
        gm.values(np.array([[1.0, 0.0, 0.0, 0.0]]))
        guarded = False
    except DomainError:
        guarded = True
    rep.require("lattice_point_guard", guarded)
    return rep


def run_verify_all(cfg: RunConfig) -> Report:
    rep_eh = run_verify_eh(cfg)
    rep_glue = run_verify_glue(cfg)
    rep = Report("verify-all", cfg.echo())
    for sub in (rep_eh, rep_glue):
        for attr in ("results", "budgets", "passes"):
            getattr(rep, attr).update(
                (f"{sub.task}.{key}", value)
                for key, value in getattr(sub, attr).items())
    return rep


SUITES = {
    "omega": run_omega,
    "background": run_background,
    "flux": run_flux,
    "zterm": run_zterm,
    "project": run_project,
    "dist-laplace": run_dist_laplace,
    "glue-scan": run_glue_scan,
    "heat": run_heat,
    "flow": run_flow,
    "verify-eh": run_verify_eh,
    "verify-glue": run_verify_glue,
    "verify-all": run_verify_all,
}
