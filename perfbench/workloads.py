"""The four benchmark workloads: inputs from a seed, set-up, one iteration.

`make_inputs(name, seed)` runs in the driving process and needs only numpy.
The worker process loads those inputs and calls `setup` (the part timed as
``setup_s``) and then `iterate` repeatedly (each call timed as one
``wall_s`` sample).  `iterate` returns an `Outcome`: the pass flag of every
output check it made, the known-red gates as values next to their gates,
and a digest of what it computed, so that repeated iterations can be
checked for bit-identical results.

Known-red gates are red on the code this benchmark was written for (see
ROADMAP "Recent"); they are reported, never dropped, and do not count as
failed checks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("project-sweep", "lattice-cold", "cap-pointwise", "flow-heat")

# reduced volume quadrature for `project`: same code paths as the default
# 10/20/24 sweep at about a twentieth of the points
PROJECT_SIZES = dict(vol_order=6, annulus_points=4, outer_points=4, fast=True)
CROSS_CUTOFF = 4          # small cube for BackgroundField vs direct sums
CAP_POINTS = 8192
# cold far-table build and the direct sum checked against it; cutoff 24
# keeps three cold builds per run inside the benchmark's time budget
COLD_CUTOFF = 24
OMEGA_CUTOFF = 32         # as `reference_omega`


@dataclass
class Outcome:
    checks: dict = field(default_factory=dict)      # name -> bool
    known_red: dict = field(default_factory=dict)   # name -> {value, gate, ...}
    digest: str = ""


# names of every check an iteration makes; a raising iteration fails them all
CHECKS = {
    "project-sweep": ["project.metric_projection",
                      "project.metric_projection_vanishes_with_eps",
                      "project.inner_residual",
                      "cross.bg_jets_vs_direct_partial",
                      "cross.harmonic_background"],
    "lattice-cold": ["omega.extrapolated", "omega.fitted_tail_order",
                     "cross.omega_per_site_closed_form",
                     "cross.values_vs_far_table",
                     "cross.partial_vs_values",
                     "background.paired_vs_plain",
                     "background.self_deviation_exponent",
                     "cache.roundtrip_identical"],
    "cap-pointwise": ["eh.det_deviation", "eh.max_ricci",
                      "eh.order0_matches_order2",
                      *[f"eh.mode{i}_{k}" for i in (1, 2, 3)
                        for k in ("trace", "divergence", "lichnerowicz")],
                      "eh.mode1_order0_matches_order2",
                      "cross.fd_oracle_ricci", "cross.fd_oracle_riemann_sq"],
    "flow-heat": ["flow.rk4_vs_closed_form", "flow.assumption_clauses",
                  "flow.closed_form_residual", "flow.blowup_ratio_spread",
                  "flow.blowup_constant", "flow.proxy_exponent",
                  "flow.proxy_monotone", "flow.proxy_beats_theorem_rate",
                  "heat.plus_direct_dual_agreement",
                  "heat.minus_direct_dual_agreement",
                  "heat.plus_t1_deviation", "heat.plus_decay_rate",
                  "heat.minus_decay_rate", "heat.semigroup_defect",
                  "heat.alternating_dominated", "heat.positivity",
                  "heat.sup_grid_refinement",
                  "cross.heat_direct_vs_dual"],
}

# suite gates that are red today; see ROADMAP open item 4
KNOWN_RED = {
    "project-sweep": ("project.cross_route_deviation", "project.eps_exponent"),
    "cap-pointwise": ("eh.metric_lichnerowicz",),
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _directions(rng, n):
    d = rng.normal(size=(n, 4))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))


def make_inputs(name: str, seed: int) -> dict:
    """Every input the program receives, as plain arrays and numbers."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "project-sweep":
        return {"eps": float(rng.uniform(0.09, 0.11)),
                "delta": float(rng.uniform(0.28, 0.32)),
                "cross_points": _directions(rng, 2)
                * rng.uniform(0.05, 0.3, size=(2, 1)),
                "harmonic_points": _directions(rng, 16)
                * rng.uniform(0.05, 1.0, size=(16, 1))}
    if name == "lattice-cold":
        return {"values_point": _directions(rng, 1)[0]
                * rng.uniform(0.1, 0.3),
                "partial_points": _directions(rng, 2)
                * rng.uniform(0.05, 0.4, size=(2, 1)),
                "deviation_point": _directions(rng, 1)[0]
                * rng.uniform(0.1, 0.4)}
    if name == "cap-pointwise":
        # r in [0.3, 5], log-uniform, as `eh-glue verify eh` samples
        return {"points": _directions(rng, CAP_POINTS)
                * _log_uniform(rng, 0.3, 5.0, size=(CAP_POINTS, 1))}
    if name == "flow-heat":
        pts = rng.uniform(-0.5, 0.5, size=(4, 4))
        return {"t_min": -float(_log_uniform(rng, 5e5, 2e6)),
                "t_max": -float(_log_uniform(rng, 1e3, 5e3)),
                "heat_points": pts,
                "heat_times": rng.uniform(0.05, 1.0, size=4)}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if isinstance(a, str):
            h.update(a.encode())
        else:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


class ProjectSweep:
    """`suites.run_project` at reduced volume quadrature, warm cache."""

    def __init__(self, inputs: dict, cache_dir: str):
        from ehglue import lattice, suites
        from ehglue.config import RunConfig
        self.inp = inputs
        self.cfg = RunConfig(task="project", eps=inputs["eps"],
                             delta=inputs["delta"], cache_dir=cache_dir,
                             **PROJECT_SIZES)
        bg = suites.shared_background(self.cfg)
        cache = lattice.BackgroundCache(cache_dir)
        self.small = lattice.BackgroundField(CROSS_CUTOFF, cache=cache)
        # the derivative tables are built on first use; a ready field has them
        probe = np.array([[0.1, 0.05, 0.0, 0.02]])
        bg.jets(probe, order=2)
        self.small.jets(probe, order=1)
        self.bg = bg

    def iterate(self) -> Outcome:
        from ehglue import lattice, suites
        rep = suites.run_project(self.cfg)
        out = Outcome()
        for gate in ("metric_projection", "metric_projection_vanishes_with_eps",
                     "inner_residual"):
            out.checks[f"project.{gate}"] = rep.passes[gate]
        out.known_red["project.cross_route_deviation"] = {
            "value": rep.results["cross_route_deviation"], "gate": "<= 0.03",
            "passed": rep.passes["cross_route_deviation"]}
        out.known_red["project.eps_exponent"] = {
            "value": rep.results["eps_exponent"], "gate": "|x - 8| <= 0.3",
            "passed": rep.passes["eps_exponent"]}

        # BackgroundField (near sum + far Taylor table) against the direct
        # symmetric-cube sum over the same sites
        x = self.inp["cross_points"]
        acc = self.small.jets(x, order=1)
        direct = lattice.background_partial(x, CROSS_CUTOFF, order=1)
        dev = max(_max_abs(acc.val - direct.val), _max_abs(acc.d1 - direct.d1))
        out.checks["cross.bg_jets_vs_direct_partial"] = dev < 1e-8
        # every component of the background is harmonic, exactly preserved by
        # the truncated far expansion: trace of the Hessian vanishes
        hj = self.bg.jets(self.inp["harmonic_points"], order=2)
        lap = np.einsum("...ijkk->...ij", hj.d2)
        out.checks["cross.harmonic_background"] = (
            _max_abs(lap) <= 1e-9 * _max_abs(hj.d2))
        out.digest = _digest(rep.to_json(), acc.val, acc.d1, hj.d2)
        return out


class LatticeCold:
    """Far-table build into an empty cache, then direct site sums."""

    def __init__(self, inputs: dict, cache_dir: str):
        from ehglue import lattice, suites  # noqa: F401  (set-up imports)
        self.inp = inputs
        self.cache_dir = cache_dir
        self.bg = lattice.BackgroundField(
            COLD_CUTOFF, cache=lattice.BackgroundCache(cache_dir))

    def iterate(self) -> Outcome:
        from ehglue import lattice, suites
        from ehglue.quadrature import line_fit
        out = Outcome()
        res = lattice.omega_partial(OMEGA_CUTOFF)
        out.checks["omega.extrapolated"] = (
            abs(res.extrapolated - suites.OMEGA_PAPER) <= 0.05)
        out.checks["omega.fitted_tail_order"] = res.fitted_order > 1.5
        # per-site closed form, site by site, against the shell partial sums
        n = 3
        rng = np.arange(-n, n + 1)
        total = 0.0
        for a in np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"),
                          axis=-1).reshape(-1, 4):
            if np.any(a):
                total += lattice.flux_term_exact(a)
        total /= 64.0 * np.pi ** 2
        out.checks["cross.omega_per_site_closed_form"] = (
            abs(total - res.partials[n]) <= 1e-12 * abs(res.partials[n]))

        # lean direct sum over the whole cube against the far-table field;
        # the far part is ~1e-4 of the total here, and the deviation, mostly
        # the degree-12 truncation growing as (|x|/2)^13, stays below 1e-13
        # of the total over seeds 1-12
        xv = self.inp["values_point"]
        direct = lattice.background_values(xv, COLD_CUTOFF)
        fast = self.bg.jets(xv[None], order=0).val[0]
        out.checks["cross.values_vs_far_table"] = (
            _max_abs(direct - fast) <= 2e-12 * _max_abs(direct))

        xp = self.inp["partial_points"]
        part = lattice.background_partial(xp, 8, order=1)
        lean = lattice.background_values(xp, 8)
        paired = lattice.background_values(xp, 8, paired=True)
        out.checks["cross.partial_vs_values"] = (
            _max_abs(part.val - lean) <= 1e-12 * _max_abs(lean))
        out.checks["background.paired_vs_plain"] = _max_abs(lean - paired) < 1e-10

        xd = self.inp["deviation_point"]
        cutoffs = [4, 8, 16]
        vals = [lattice.background_values(xd, c) for c in cutoffs]
        devs = [_max_abs(vals[i + 1] - vals[i]) for i in range(2)]
        slope, _ = line_fit(np.log(np.array(cutoffs[:-1], dtype=float)),
                            np.log(np.array(devs)))
        out.checks["background.self_deviation_exponent"] = -slope >= 0.9

        # what set-up stored reads back bit-identically
        again = lattice.BackgroundField(
            COLD_CUTOFF, cache=lattice.BackgroundCache(self.cache_dir))
        probe = np.concatenate([xv[None], xp])
        out.checks["cache.roundtrip_identical"] = bool(np.array_equal(
            again.jets(probe, order=1).d1, self.bg.jets(probe, order=1).d1))
        out.digest = _digest(res.partials, direct, part.val, part.d1, paired,
                             *vals)
        return out


class CapPointwise:
    """Jets, curvature and the linearized operator on one cap, no lattice."""

    def __init__(self, inputs: dict, cache_dir: str):
        import ehglue.curvature  # noqa: F401  (imports are part of set-up)
        import ehglue.fields  # noqa: F401
        self.pts = inputs["points"]

    def iterate(self) -> Outcome:
        from ehglue.curvature import (curvature_at, div_trace, fd_sym2jet,
                                      lichnerowicz)
        from ehglue.fields import eh_metric, kernel_mode
        out = Outcome()
        pts = self.pts
        g = eh_metric(1.0)
        gj = g.jets(pts, order=2)
        g0 = g.jets(pts, order=0)
        curv = curvature_at(gj)
        out.checks["eh.det_deviation"] = (
            _max_abs(np.linalg.det(gj.val) - 1.0) <= 1e-12)
        out.checks["eh.max_ricci"] = _max_abs(curv.ricci) <= 1e-9
        out.checks["eh.order0_matches_order2"] = (
            _max_abs(g0.val - gj.val) <= 1e-13)
        parts = [gj.d2, curv.ricci]
        for i in (1, 2, 3):
            oj = kernel_mode(i, 1.0).jets(pts, order=2)
            div, tr, _ = div_trace(gj, oj, curv)
            lich = lichnerowicz(gj, oj, curv)
            out.checks[f"eh.mode{i}_trace"] = _max_abs(tr) <= 1e-13
            out.checks[f"eh.mode{i}_divergence"] = _max_abs(div) <= 1e-8
            out.checks[f"eh.mode{i}_lichnerowicz"] = _max_abs(lich) <= 1e-7
            parts.append(lich)
            if i == 1:
                o0 = kernel_mode(1, 1.0).jets(pts, order=0)
                out.checks["eh.mode1_order0_matches_order2"] = (
                    _max_abs(o0.val - oj.val) <= 1e-13)
        lg = _max_abs(lichnerowicz(gj, gj, curv))
        out.known_red["eh.metric_lichnerowicz"] = {
            "value": lg, "gate": "<= 1e-9", "passed": lg <= 1e-9}

        # finite-difference oracle on the first ten points with 0.7 < r < 2
        radii = np.linalg.norm(pts, axis=1)
        sub = pts[(radii > 0.7) & (radii < 2.0)][:10]
        fd = curvature_at(fd_sym2jet(lambda p: g.jets(p, order=0).val, sub,
                                     scale=0.5))
        exact = curvature_at(g.jets(sub, order=2))
        out.checks["cross.fd_oracle_ricci"] = _max_abs(fd.ricci) <= 1e-5
        out.checks["cross.fd_oracle_riemann_sq"] = (
            _max_abs(fd.riemann_sq() / exact.riemann_sq() - 1.0) <= 1e-5)
        out.digest = _digest(*parts)
        return out


class FlowHeat:
    """`suites.run_flow` plus `suites.run_heat` on a seeded t-range."""

    def __init__(self, inputs: dict, cache_dir: str):
        import ehglue.suites  # noqa: F401
        from ehglue.config import RunConfig
        self.inp = inputs
        self.cfg = RunConfig(task="flow", cutoff=16, t_min=inputs["t_min"],
                             t_max=inputs["t_max"], cache_dir=cache_dir)

    def iterate(self) -> Outcome:
        from ehglue import suites
        from ehglue.heat import KernelQuery, heat_kernel_minus, heat_kernel_plus
        out = Outcome()
        reports = [suites.run_flow(self.cfg), suites.run_heat(self.cfg)]
        for rep in reports:
            for gate, ok in rep.passes.items():
                out.checks[f"{rep.task}.{gate}"] = ok
        # direct lattice sum against its Poisson dual at seeded points; the
        # alternating kernel has zeros, so both are measured against the
        # plain kernel, which dominates it pointwise
        worst = 0.0
        x0 = (0.0, 0.0, 0.0, 0.0)
        for x, t in zip(self.inp["heat_points"], self.inp["heat_times"]):
            q = [KernelQuery(tuple(x), x0, float(t), m)
                 for m in ("direct", "dual")]
            scale = heat_kernel_plus(q[0])
            for fn in (heat_kernel_plus, heat_kernel_minus):
                worst = max(worst, abs(fn(q[0]) - fn(q[1])) / scale)
        out.checks["cross.heat_direct_vs_dual"] = worst <= 1e-12
        out.digest = _digest(*(r.to_json() for r in reports))
        return out


CLASSES = {"project-sweep": ProjectSweep, "lattice-cold": LatticeCold,
           "cap-pointwise": CapPointwise, "flow-heat": FlowHeat}
