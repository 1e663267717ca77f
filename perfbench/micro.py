"""Per-module micro timings at fixed sizes and a fixed seed.

Each timing is the median of `REPS` calls unless a single call already
takes seconds (far-table build, flux integral, decay proxy, reference
omega: one call each).  Costs are reported per point (us), per site (ns)
or per call; the polynomial kernel's operation and byte counts are computed
from the far table's shape, not measured.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from contextlib import contextmanager

import numpy as np

REPS = 3
SEED = 20260917
FIELD_CUTOFF = 12         # far-table build size for the micro field
MOMENTS_CUTOFF = 20
JET_POINTS = 512          # background and glued jets: about one shell of `project`
PT_POINTS = 1024          # cap fields and curvature
SITE_CUTOFF = 8           # direct background sums, one point
OMEGA_CUTOFF = 16
ODE_STEPS = 20000
POINT_CHUNK = 256         # points per BackgroundField.jets block at order 2


def _median_time(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@contextmanager
def _recording(owner, attr: str, sink: list):
    """Rebind owner.attr to a wrapper appending (args, seconds) to sink."""
    orig = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = orig(*args, **kwargs)
        sink.append((args, time.perf_counter() - t0))
        return out

    setattr(owner, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(owner, attr, orig)


def _shell(rng, n, lo, hi):
    d = rng.normal(size=(n, 4))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * np.exp(rng.uniform(np.log(lo), np.log(hi), size=(n, 1)))


def run(workdir: str) -> dict[str, tuple[float, str]]:
    from ehglue import (curvature, fields, flow, glue, heat, lattice,
                        obstruction, quadrature, suites)
    from ehglue.config import RunConfig

    rng = np.random.default_rng(SEED)
    m: dict[str, tuple[float, str]] = {}

    # -- lattice: far table, cache, background jets --------------------------
    cache_dir = tempfile.mkdtemp(prefix="micro-cache-", dir=workdir)
    cache = lattice.BackgroundCache(cache_dir)
    moments, stores = [], []
    with _recording(lattice, "lattice_moments", moments), \
            _recording(lattice.BackgroundCache, "store", stores):
        t0 = time.perf_counter()
        field = lattice.BackgroundField(FIELD_CUTOFF, cache=cache)
        m["lattice.far_table_build_s"] = (time.perf_counter() - t0, "s")
    header, table = stores[0][0][1], stores[0][0][2]
    m["lattice.cache_store_ms"] = (
        1e3 * statistics.median(s for _, s in stores), "ms")
    m["lattice.cache_load_ms"] = (
        1e3 * _median_time(lambda: cache.load(header), 5), "ms")
    requests, odd = moments[-1][0][2], moments[-1][0][3]
    m["lattice.lattice_moments_s"] = (_median_time(
        lambda: lattice.lattice_moments(MOMENTS_CUTOFF, 1, requests, odd)), "s")
    n_mono = int(np.asarray(table).shape[-1])
    m["lattice.poly_monomials"] = (n_mono, "count")
    rows = 3 * (1 + 4 + 16)          # three scalars x (value, grad, Hessian)
    m["lattice.poly_macs_per_pt"] = (rows * n_mono, "mac")
    # basis column written and read per point; coefficient rows streamed once
    # per point chunk; per parity at order 2
    m["lattice.poly_bytes_per_pt"] = (
        8 * n_mono * (2 + rows / POINT_CHUNK) + 8 * rows, "B")

    xj = _shell(rng, JET_POINTS, 0.05, 0.6)
    field.jets(xj[:1], order=2)      # derivative tables are built on first use
    # order 2 split per call: the near-site kernel and its compensated
    # reduction, as called from the lattice module, and the rest (the
    # far-Taylor polynomial); the median call gives both parts
    near: list = []
    calls = []
    with _recording(lattice, "farfield_jets", near), \
            _recording(lattice, "kahan_sum", near):
        for _ in range(REPS):
            near.clear()
            t0 = time.perf_counter()
            field.jets(xj, order=2)
            calls.append((time.perf_counter() - t0, sum(s for _, s in near)))
    t, near_s = sorted(calls)[len(calls) // 2]
    m["lattice.bg_jets_o2_us_per_pt"] = (1e6 * t / JET_POINTS, "us")
    m["lattice.bg_jets_o2_near_us_per_pt"] = (1e6 * near_s / JET_POINTS, "us")
    m["lattice.bg_jets_o2_poly_us_per_pt"] = (
        1e6 * (t - near_s) / JET_POINTS, "us")
    for order in (1, 0):
        t = _median_time(lambda: field.jets(xj, order=order))
        m[f"lattice.bg_jets_o{order}_us_per_pt"] = (1e6 * t / JET_POINTS, "us")

    sites = (2 * OMEGA_CUTOFF + 1) ** 4
    m["lattice.omega_partial_ns_per_site"] = (1e9 * _median_time(
        lambda: lattice.omega_partial(OMEGA_CUTOFF)) / sites, "ns")
    x1 = _shell(rng, 1, 0.1, 0.4)
    sites = (2 * SITE_CUTOFF + 1) ** 4
    m["lattice.background_values_ns_per_site"] = (1e9 * _median_time(
        lambda: lattice.background_values(x1[0], SITE_CUTOFF)) / sites, "ns")
    m["lattice.background_partial_ns_per_site"] = (1e9 * _median_time(
        lambda: lattice.background_partial(x1, SITE_CUTOFF, order=0))
        / sites, "ns")

    # -- fields and curvature ------------------------------------------------
    pts = _shell(rng, PT_POINTS, 0.3, 5.0)
    g = fields.eh_metric(1.0)
    mode = fields.kernel_mode(1, 1.0)
    for label, fn in (("eh_metric_o2", lambda: g.jets(pts, order=2)),
                      ("eh_metric_o0", lambda: g.jets(pts, order=0)),
                      ("kernel_mode_o2", lambda: mode.jets(pts, order=2)),
                      ("farfield_jets_o2",
                       lambda: fields.farfield_jets(pts, order=2))):
        m[f"fields.{label}_us_per_pt"] = (
            1e6 * _median_time(fn) / PT_POINTS, "us")
    gj, oj = g.jets(pts, order=2), mode.jets(pts, order=2)
    curv = curvature.curvature_at(gj)
    for label, fn in (("curvature_at", lambda: curvature.curvature_at(gj)),
                      ("div_trace", lambda: curvature.div_trace(gj, oj, curv)),
                      ("lichnerowicz",
                       lambda: curvature.lichnerowicz(gj, oj, curv))):
        m[f"curvature.{label}_us_per_pt"] = (
            1e6 * _median_time(fn) / PT_POINTS, "us")

    # -- glue and obstruction, with a precomputed background ----------------
    params = glue.GlueParams(0.1, 0.3, FIELD_CUTOFF)
    gm = glue.GluedMetric(params, field)
    xg = _shell(rng, JET_POINTS, 0.12, 0.6)
    bgj = field.jets(xg, order=2)
    ggj = gm.jets(xg, order=2, bg=bgj)
    m["glue.jets_o2_us_per_pt"] = (1e6 * _median_time(
        lambda: gm.jets(xg, order=2, bg=bgj)) / JET_POINTS, "us")
    m["glue.obstruction_jets_us_per_pt"] = (1e6 * _median_time(
        lambda: gm.obstruction_jets(xg, order=0, bg=bgj, g=ggj))
        / JET_POINTS, "us")
    m["obstruction.flux_integral_s"] = (_median_time(
        lambda: obstruction.flux_integral(params, 16, field), 1), "s")

    # -- quadrature, flow, heat, suites --------------------------------------
    m["quadrature.s3_quadrature_ms"] = (
        1e3 * _median_time(lambda: quadrature.s3_quadrature(24), 5), "ms")
    eps0 = flow.epsilon_of_t(-1e6)
    m["flow.ode_integrate_us_per_step"] = (1e6 * _median_time(
        lambda: flow.ode_integrate(eps0, -1e6, -1e3, ODE_STEPS)) / ODE_STEPS,
        "us")
    policy = flow.ProxyPolicy(lattice_cutoff=FIELD_CUTOFF, s3_order=4)
    m["flow.ricci_decay_proxy_s"] = (_median_time(
        lambda: flow.ricci_decay_proxy((-1e4, -1e5, -1e6), policy, field),
        1), "s")
    m["heat.kernel_on_grid_ms"] = (1e3 * _median_time(
        lambda: heat.kernel_on_grid(9, 0.3, signed=False)), "ms")
    m["suites.reference_omega_s"] = (_median_time(
        lambda: suites.reference_omega(RunConfig()), 1), "s")
    for name in os.listdir(cache_dir):
        os.remove(os.path.join(cache_dir, name))
    os.rmdir(cache_dir)
    return m
