import numpy as np
import pytest

from ehglue import flow
from ehglue.flow import (ProxyPolicy, assumption_check, blowup_prediction,
                         curvature_peak, epsilon_derivative, epsilon_of_t,
                         modulation_residual, ode_integrate,
                         ricci_decay_proxy)
from ehglue.glue import MAX_DELTA, GlueParams, GluedMetric, sphere_sups
from ehglue.lattice import OMEGA_REFERENCE as OMEGA
from ehglue.sym2 import POINT_BLOCK


def test_closed_form_value():
    eps = epsilon_of_t(-1e6, omega=7.70)
    assert eps == pytest.approx((32 * 7.70 * 1e6) ** -0.25, rel=1e-14)
    assert eps == pytest.approx(7.98e-3, rel=1e-3)
    assert (1000 * 1e6) ** -0.25 <= eps <= (1e6) ** -0.25


def test_closed_form_monotone_increasing():
    ts = -np.logspace(3.1, 7, 40)[::-1]        # increasing toward -Λ
    eps = np.array([epsilon_of_t(t, omega=OMEGA) for t in ts])
    assert np.all(np.diff(eps) > 0.0)


def test_state_and_weight_validation():
    with pytest.raises(ValueError):
        epsilon_of_t(-10.0)


def test_modulation_residual_closed_form_is_zero():
    for t in (-1e4, -1e6):
        eps = epsilon_of_t(t, omega=OMEGA)
        resid = modulation_residual(t, eps,
                                    epsilon_derivative(t, omega=OMEGA),
                                    OMEGA)
        term = 32 * np.pi ** 2 * OMEGA * eps ** 8
        assert abs(resid) <= 1e-14 * term


def test_modulation_residual_of_free_scale():
    # eps = (-t)^{-1/4}: residual = π²(1 - 32ω)(-t)^{-2} exactly
    ts = -np.logspace(4, 7, 8)
    resid = np.array([modulation_residual(
        t, (-t) ** -0.25, 0.25 * (-t) ** -1.25, OMEGA) for t in ts])
    expected = np.pi ** 2 * (1 - 32 * OMEGA) * (-ts) ** -2.0
    assert np.max(np.abs(resid / expected - 1.0)) < 1e-12
    slope = np.polyfit(np.log(-ts), np.log(-resid), 1)[0]
    assert slope == pytest.approx(-2.0, abs=1e-3)


def test_residual_vanishes_on_ode_solutions():
    eps = 0.01
    resid = modulation_residual(-1e5, eps, 8 * OMEGA * eps ** 5, OMEGA)
    assert abs(resid) <= 1e-14 * 32 * np.pi ** 2 * OMEGA * eps ** 8


def test_rk4_matches_closed_form():
    eps0 = epsilon_of_t(-1e6, omega=OMEGA)
    ts, es = ode_integrate(eps0, -1e6, -1e3, 100000, OMEGA)
    idx = np.linspace(0, len(ts) - 1, 50).astype(int)
    exact = np.array([epsilon_of_t(t, omega=OMEGA) for t in ts[idx]])
    assert np.max(np.abs(es[idx] / exact - 1.0)) < 1e-9


def _rk4_reference(eps0, t0, t1, steps, omega):
    """ode_integrate's loop with a right-hand-side closure and per-step
    array writes."""
    h = (t1 - t0) / steps

    def rhs(e):
        return 8.0 * omega * e ** 5

    ts, es = np.empty(steps + 1), np.empty(steps + 1)
    ts[0], es[0] = t0, eps0
    e = eps0
    for n in range(steps):
        k1 = rhs(e)
        k2 = rhs(e + 0.5 * h * k1)
        k3 = rhs(e + 0.5 * h * k2)
        k4 = rhs(e + h * k3)
        e = e + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ts[n + 1] = t0 + (n + 1) * h
        es[n + 1] = e
    return ts, es


def test_rk4_matches_the_reference_loop_bit_for_bit():
    eps0 = epsilon_of_t(-1e6, omega=OMEGA)
    for args in ((eps0, -1e6, -1e3, 100000, OMEGA),
                 (0.01, -1e5, -1e3, 100, 0.0)):
        ts, es = ode_integrate(*args)
        ref_ts, ref_es = _rk4_reference(*args)
        assert ts.tobytes() == ref_ts.tobytes()
        assert es.tobytes() == ref_es.tobytes()


def test_rk4_zero_rate_constant_trajectory():
    ts, es = ode_integrate(0.01, -1e5, -1e3, 100, omega=0.0)
    assert np.all(es == 0.01)


def test_rk4_derivative_within_assumption():
    d = epsilon_derivative(-1e6, omega=OMEGA)
    assert d == pytest.approx(8 * OMEGA * epsilon_of_t(-1e6, omega=OMEGA) ** 5,
                              rel=1e-13)
    assert abs(d) <= (1e6) ** -1.25


def test_assumption_holds_on_dense_grid():
    rep = assumption_check(-np.logspace(3, 8, 60), omega=OMEGA)
    assert rep.all_ok
    assert rep.margins["upper"] <= 1.0
    assert rep.margins["lower"] >= 1.0


def test_assumption_flags_bad_scale():
    # a tiny lattice constant puts the scale above the admissible ceiling
    rep = assumption_check(-np.logspace(3, 5, 10), omega=0.02)
    assert not rep.upper_ok


def test_curvature_peak_extrapolation():
    peak = curvature_peak()
    assert peak ** 2 == pytest.approx(384.0, abs=1e-6)
    # eps-scaling: peak of the eps-family is peak/eps²  (pointwise law
    # already covered in curvature tests)


def test_blowup_prediction_ratio_constant():
    peak = curvature_peak()
    ts = -np.logspace(4, 8, 9)
    ratios = np.array([blowup_prediction(t, peak, omega=OMEGA)[0]
                       / np.sqrt(-t) for t in ts])
    assert np.max(ratios) / np.min(ratios) - 1.0 < 1e-12
    _, c = blowup_prediction(-1e6, peak, omega=OMEGA)
    assert c == pytest.approx(peak * np.sqrt(32 * OMEGA), rel=1e-14)


def test_ricci_proxy_decay(background8, monkeypatch):
    monkeypatch.setattr(flow, "PROXY_FRACTIONS", (0.75, 0.8, 1.05))
    policy = ProxyPolicy(lattice_cutoff=8, s3_order=4, omega=OMEGA)
    proxy = ricci_decay_proxy((-1e4, -1e5, -1e6), policy,
                              background=background8)
    assert proxy.exponent <= -0.9
    assert np.all(np.diff(proxy.sup_ric) > 0.0)     # decays toward -inf
    scaled = proxy.sup_ric * (-proxy.times) ** 0.49
    assert np.all(np.diff(scaled) > 0.0)
    assert np.all(proxy.deltas <= 0.45)


def test_ricci_proxy_groups_its_times_by_delta(background8):
    # past t ≈ -5e138 the schedule δ(t) drops below MAX_DELTA; each time's
    # sup is the largest over its own spheres frac·δ(t)
    policy = ProxyPolicy(lattice_cutoff=8, s3_order=4, omega=OMEGA)
    proxy = ricci_decay_proxy((-1e4, -1e140, -1e5), policy, background8)
    assert proxy.deltas[0] < MAX_DELTA
    assert proxy.deltas[1] == proxy.deltas[2] == MAX_DELTA
    for t, delta, sup in zip(proxy.times, proxy.deltas, proxy.sup_ric):
        gm = GluedMetric(GlueParams(epsilon_of_t(t, OMEGA), delta, 8),
                         background8)
        table = sphere_sups([(gm, "ricci")],
                            [f * delta for f in flow.PROXY_FRACTIONS], 4,
                            folded=True)
        assert 0.0 < sup == table.max()


def test_flow_suite_decay_proxy_reads_the_cached_background(tmp_path,
                                                           monkeypatch):
    # with both cutoff-16 far tables in the cache, `flow` builds none
    from ehglue import lattice, suites
    from ehglue.config import RunConfig
    lattice.BackgroundField(16, cache=lattice.BackgroundCache(str(tmp_path)))

    def no_build(*args, **kwargs):
        raise AssertionError("far table rebuilt despite a stored entry")

    monkeypatch.setattr(lattice, "farfield_taylor", no_build)
    monkeypatch.setattr(suites, "_backgrounds", {})
    rep = suites.run_flow(RunConfig(task="flow", cutoff=16, t_max=-1e5,
                                    ode_steps=1000, cache_dir=str(tmp_path)))
    assert rep.passes["proxy_monotone"]


def test_shared_background_uses_each_cache_directory(tmp_path, monkeypatch):
    # a second cache directory in the same process gets its own tables
    from ehglue import suites
    from ehglue.config import RunConfig
    monkeypatch.setattr(suites, "_backgrounds", {})
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        suites.shared_background(RunConfig(cutoff=4, cache_dir=str(directory)))
        assert len(list(directory.glob("far-table-*.ehbg"))) == 2


def test_flow_suite_evaluates_each_sphere_background_once(tmp_path,
                                                          monkeypatch,
                                                          background_calls):
    # the capped δ makes every proxy time sample the same spheres, and
    # their 6 × 27 nodes form one batch
    from ehglue import suites
    from ehglue.config import RunConfig
    monkeypatch.setattr(suites, "_backgrounds", {})
    suites.run_flow(RunConfig(task="flow", cutoff=4, t_max=-1e5,
                              ode_steps=100, cache_dir=str(tmp_path)))
    assert len(flow.PROXY_FRACTIONS) * 27 <= POINT_BLOCK
    assert len(background_calls) == 1
