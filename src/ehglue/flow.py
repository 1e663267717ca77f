"""Modulation dynamics of the instanton scale under Ricci flow.

To leading order the cap scale obeys eps' = 8·omega·eps^5 on t < 0, whose
ancient solution is eps(t) = (-32 omega t)^(-1/4), taken on t ≤ -LAMBDA.
The curvature maximum of the unit-scale cap metric, extrapolated to the
bolt, converts the scale into the curvature blow-up prediction
sup|Rm| ~ M eps(t)^-2 = M sqrt(32 omega) (-t)^(1/2), while the Ricci proxy
of the glued family decays like eps(t)^4 — strictly faster than the
(-t)^(-1/2+kappa) target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at
from .fields import eh_metric
from .glue import MAX_DELTA, GlueParams, GluedMetric, sphere_sups
from .lattice import OMEGA_REFERENCE, BackgroundField
from .quadrature import line_fit

LAMBDA = 1000.0             # the scale is defined for t <= -LAMBDA
HOELDER_ALPHA = 1e-4        # time-Hölder exponent of the admissibility check
PEAK_RADII = (0.2, 0.1, 0.05)   # axis radii extrapolated by curvature_peak
PROXY_FRACTIONS = (0.70, 0.75, 0.78, 0.82, 0.90, 1.05)  # proxy sphere radii / δ


def epsilon_of_t(t: float, omega: float = OMEGA_REFERENCE) -> float:
    """Closed-form scale: (-32 omega t)^(-1/4)."""
    if t > -LAMBDA:
        raise ValueError("need t <= -LAMBDA")
    radicand = -32.0 * omega * t
    if radicand <= 0.0:
        raise ValueError("radicand not positive; need omega > 0")
    return radicand ** -0.25


def epsilon_derivative(t: float, omega: float) -> float:
    return 0.25 * epsilon_of_t(t, omega) ** 5 * (32.0 * omega)


def modulation_residual(t: float, eps: float, deps: float,
                        omega: float) -> float:
    """4π² eps³ eps' - 32π² omega eps⁸ (the computable leading part)."""
    return 4.0 * np.pi ** 2 * eps ** 3 * deps \
        - 32.0 * np.pi ** 2 * omega * eps ** 8


@dataclass
class AssumptionReport:
    lower_ok: bool
    upper_ok: bool
    derivative_ok: bool
    hoelder_ok: bool
    margins: dict

    @property
    def all_ok(self) -> bool:
        return (self.lower_ok and self.upper_ok and self.derivative_ok
                and self.hoelder_ok)


def assumption_check(t_grid, omega: float) -> AssumptionReport:
    """Scale-function admissibility on a grid of times.

    Clauses: (-1000 t)^{-1/4} ≤ eps(t) ≤ (-t)^{-1/4}; |eps'| ≤ (-t)^{-5/4};
    and the time-Hölder bound |eps'(t) - eps'(t')| ≤
    |t-t'|^α (-t)^{-5/4} eps(t)^{-2α} with α = HOELDER_ALPHA, checked on
    the stencils |t-t'| ∈ {(-t)^{-1/2}, (-t)^{-1}} (the full two-parameter
    supremum is not computable; stencils are).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    eps = np.array([epsilon_of_t(t, omega) for t in t_grid])
    deps = np.array([epsilon_derivative(t, omega) for t in t_grid])
    lower = (-1000.0 * t_grid) ** -0.25
    upper = (-t_grid) ** -0.25
    dbound = (-t_grid) ** -1.25
    lower_ok = bool(np.all(lower <= eps))
    upper_ok = bool(np.all(eps <= upper))
    deriv_ok = bool(np.all(np.abs(deps) <= dbound))
    hoelder_ok = True
    worst = 0.0
    for t, e in zip(t_grid, eps):
        for dt in ((-t) ** -0.5, (-t) ** -1.0):
            dd = abs(epsilon_derivative(t - dt, omega)
                     - epsilon_derivative(t, omega))
            bound = (dt ** HOELDER_ALPHA * (-t) ** -1.25
                     * e ** (-2.0 * HOELDER_ALPHA))
            worst = max(worst, dd / bound)
            if dd > bound:
                hoelder_ok = False
    margins = {
        "lower": float(np.min(eps / lower)),
        "upper": float(np.max(eps / upper)),
        "derivative": float(np.max(np.abs(deps) / dbound)),
        "hoelder": worst,
    }
    return AssumptionReport(lower_ok, upper_ok, deriv_ok, hoelder_ok, margins)


def ode_integrate(eps0: float, t0: float, t1: float, steps: int,
                  omega: float = OMEGA_REFERENCE):
    """Classical fourth-order Runge-Kutta for eps' = 8 omega eps^5.

    Returns (times, trajectory).  Step-size sanity: the relative change per
    step must stay below 10%.
    """
    if eps0 <= 0.0 or not t0 < t1 or steps < 1:
        raise ValueError("need eps0 > 0, t0 < t1, steps >= 1")
    h = (t1 - t0) / steps
    c = 8.0 * omega
    half, sixth = 0.5 * h, h / 6.0
    es = [eps0]
    e = eps0
    for n in range(steps):
        k1 = c * e ** 5
        k2 = c * (e + half * k1) ** 5
        k3 = c * (e + half * k2) ** 5
        k4 = c * (e + h * k3) ** 5
        de = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if abs(de) > 0.1 * e:
            raise ValueError(f"step too large at t = {t0 + n * h:.3e}")
        e = e + de
        es.append(e)
    ts = np.concatenate(([t0], t0 + np.arange(1, steps + 1) * h))
    return ts, np.asarray(es, dtype=float)


# ---------------------------------------------------------------------------
# curvature blow-up
# ---------------------------------------------------------------------------

def curvature_peak() -> float:
    """max |Rm| of the unit-scale cap, Richardson-extrapolated to the bolt.

    |Rm|² on the axis grows monotonically toward the bolt; the three radii
    PEAK_RADII give two Richardson levels in the r^4 expansion parameter.
    """
    pts = np.zeros((len(PEAK_RADII), 4))
    pts[:, 0] = PEAK_RADII
    v0, v1, v2 = curvature_at(eh_metric(1.0).jets(pts)).riemann_sq().tolist()
    # nodes in h = r^4 with ratio 16: two-level Richardson
    r1 = v1 + (v1 - v0) / 15.0
    r2 = v2 + (v2 - v1) / 15.0
    ext = r2 + (r2 - r1) / 255.0
    return float(np.sqrt(ext))


def blowup_prediction(t: float, peak: float, omega: float):
    """(sup|Rm| prediction, rate constant c = peak · sqrt(32 omega))."""
    eps = epsilon_of_t(t, omega)
    return peak * eps ** -2, peak * np.sqrt(32.0 * omega)


# ---------------------------------------------------------------------------
# Ricci decay proxy
# ---------------------------------------------------------------------------

@dataclass
class ProxyPolicy:
    """How the flow builds glue parameters at desk scale.

    The schedule delta(t) = (-t)^(-1/400) approaches 1 from below for any
    reachable time, which exceeds the geometric bound delta <= MAX_DELTA of
    the piecewise construction (overlapping necks); the proxy therefore caps
    the neck radius there and tracks the eps(t)-driven decay, which
    dominates.  Once capped, δ is the same at every proxy time, so all times
    sample the same spheres frac·δ, frac in PROXY_FRACTIONS, and share their
    background evaluations.
    """

    lattice_cutoff: int
    s3_order: int = 6
    omega: float = OMEGA_REFERENCE

    def delta_of_t(self, t: float) -> float:
        return min((-t) ** (-1.0 / 400.0), MAX_DELTA)


@dataclass
class ProxyResult:
    times: np.ndarray
    sup_ric: np.ndarray
    deltas: np.ndarray
    exponent: float


def ricci_decay_proxy(times, policy: ProxyPolicy,
                      background: BackgroundField) -> ProxyResult:
    """sup|Ric| of the glued family on a deterministic sample, per time.

    The sample covers the cutoff transition band (where the residual peaks)
    and one outer sphere; the fitted exponent in (-t) comes out near -1,
    comfortably below the -1/2 + kappa target.  The work is grouped by
    δ(t): times with one δ sample the same spheres frac·δ and share their
    background evaluations.
    """
    times = np.asarray(sorted(times), dtype=float)
    epss = [epsilon_of_t(t, policy.omega) for t in times]
    dels = [policy.delta_of_t(t) for t in times]
    sups = np.empty(times.size)
    for delta in dict.fromkeys(dels):
        idx = [i for i, d in enumerate(dels) if d == delta]
        pairs = [(GluedMetric(GlueParams(epss[i], delta,
                                         policy.lattice_cutoff), background),
                  "ricci") for i in idx]
        sups[idx] = sphere_sups(pairs, [f * delta for f in PROXY_FRACTIONS],
                                policy.s3_order, folded=True).max(axis=0)
    slope, _ = line_fit(np.log(-times), np.log(sups))
    return ProxyResult(times, sups, np.asarray(dels), float(slope))
