import hashlib

import numpy as np
import pytest

from ehglue.curvature import curvature_at, fd_sym2jet
from ehglue.fields import eh_metric, kernel_mode
from ehglue.flow import PROXY_FRACTIONS, ProxyPolicy, epsilon_of_t
from ehglue.glue import (DECAY_ORDER, MAX_DELTA, GlueParams, GluedMetric,
                         cutoff_jet, cutoff_scalar, decay_scans, outer_metric,
                         region_tag, remove_trace, sphere_sups)
from ehglue.jets import DomainError
from ehglue.obstruction import flux_integral, gauge_vector_sup, z_flux
from ehglue.quadrature import sphere_rule


@pytest.fixture(scope="module")
def glued8(background8):
    return GluedMetric(GlueParams(0.02, 0.3, 8), background8)


@pytest.mark.parametrize("entry", [
    GluedMetric,
    lambda params, bg: flux_integral(params, 16, bg),
    lambda params, bg: z_flux(params, 16, bg),
    lambda params, bg: gauge_vector_sup(params, 16, bg),
], ids=["GluedMetric", "flux_integral", "z_flux", "gauge_vector_sup"])
def test_glued_metric_rejects_a_background_of_another_cutoff(entry,
                                                             background8):
    with pytest.raises(ValueError, match="background cutoff 8"):
        entry(GlueParams(0.1, 0.3, 32), background8)


def test_params_validation():
    GlueParams(0.1, 0.3, 32)                # desk scale is allowed
    with pytest.raises(ValueError):
        GlueParams(-0.1, 0.3, 32)
    with pytest.raises(ValueError):
        GlueParams(0.2, 0.3, 32)            # cap exceeds half the neck
    with pytest.raises(ValueError):
        GlueParams(0.01, 0.5, 32)           # neck leaves the cell


def test_cutoff_saturation_and_monotonicity():
    v, d1, d2 = cutoff_scalar(np.array([0.5, 2.0 / 3.0]))
    assert np.all(v == 0.0) and np.all(d1 == 0.0) and np.all(d2 == 0.0)
    v, d1, d2 = cutoff_scalar(np.array([5.0 / 6.0, 0.9]))
    assert np.all(v == 1.0) and np.all(d1 == 0.0) and np.all(d2 == 0.0)
    # sample away from the extreme tails, where the step underflows to an
    # exact double-precision 0/1 (the transition is still strictly monotone
    # wherever its values are representable)
    s = np.linspace(2.0 / 3.0 + 5e-3, 5.0 / 6.0 - 5e-3, 100)
    v, d1, _ = cutoff_scalar(s)
    assert np.all((v > 0.0) & (v < 1.0))
    assert np.all(np.diff(v) > 0.0)
    assert np.all(d1 >= 0.0)


def test_cutoff_derivatives_match_finite_differences():
    s = np.linspace(0.62, 0.88, 40)
    v, d1, d2 = cutoff_scalar(s)
    h = 1e-6
    vp, _, _ = cutoff_scalar(s + h)
    vm, _, _ = cutoff_scalar(s - h)
    assert np.max(np.abs((vp - vm) / (2 * h) - d1)) < 1e-8
    assert np.max(np.abs((vp - 2 * v + vm) / h ** 2 - d2)) < 1e-3


def test_cutoff_jet_chain_rule():
    delta = 0.3
    x = np.array([[0.22, 0.03, -0.02, 0.01]])
    chi = cutoff_jet(x, delta, np.zeros(4))
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fp = cutoff_jet(x + e, delta, np.zeros(4)).value
        fm = cutoff_jet(x - e, delta, np.zeros(4)).value
        assert abs((fp - fm) / (2 * h) - chi.grad[0, k]) < 1e-6


def test_region_dispatch_exact():
    params = GlueParams(0.01, 0.3, 32)
    probe = np.array([[0.15, 0, 0, 0], [0.30, 0, 0, 0], [0.22, 0, 0, 0],
                      [1.0 + 0.1, 0.0, 0.0, 0.0]])
    tags = region_tag(probe, params)
    assert list(tags) == [0, 2, 1, 0]       # last: inner zone of a neighbour


@pytest.mark.parametrize("site", [(0, 0, 0, 0), (1, 0, 0, 0)],
                         ids=["even", "odd"])
def test_dispatch_boundaries_are_bitwise_branches(glued8, background8, site):
    # on r = δ/2 the glued metric is the cap of the site's parity and on
    # r = δ the outer branch, bit for bit, where region_tag says so; the
    # probes step along axes on which the site has no component, so their
    # distance to it is exactly the radius
    delta, eps = glued8.params.delta, glued8.params.eps
    site = np.asarray(site, dtype=float)
    cap = eh_metric(eps, reflected=bool(site.sum() % 2))
    axes = np.eye(4)[site == 0.0]
    steps = np.concatenate([axes, -axes])
    for radius, tag in ((0.5 * delta, 0), (delta, 2)):
        x = site + radius * steps
        assert np.all(region_tag(x, glued8.params) == tag)
        branch = (cap.values(x - site) if tag == 0 else
                  outer_metric(background8.jets(x, order=0), eps).val)
        assert glued8.values(x).tobytes() == branch.tobytes()


def test_inner_branch_matches_cap(glued8):
    x = sphere_rule(4, 0.1, False)[0]
    cap = eh_metric(glued8.params.eps).values(x)
    assert np.array_equal(glued8.values(x), cap)


def test_blend_saturates_on_both_sides(glued8, background8):
    delta = glued8.params.delta
    x_low = sphere_rule(4, 0.55 * delta, False)[0]     # below 2δ/3
    cap = eh_metric(glued8.params.eps).values(x_low)
    assert np.max(np.abs(glued8.values(x_low) - cap)) == 0.0
    x_high = sphere_rule(4, 0.9 * delta, False)[0]     # above 5δ/6
    outer = outer_metric(background8.jets(x_high, order=0),
                         glued8.params.eps).val
    assert np.max(np.abs(glued8.values(x_high) - outer)) == 0.0


def test_outer_branch_formula(glued8, background8):
    x = sphere_rule(4, 2.0 * glued8.params.delta, False)[0]
    bgv = background8.jets(x, order=0).val
    expected = np.eye(4) + 0.5 * glued8.params.eps ** 4 * bgv
    assert np.max(np.abs(glued8.values(x) - expected)) < 1e-15


def test_glued_jets_match_finite_differences(glued8):
    # transition band, where every term (cutoff included) is active
    x = sphere_rule(4, 0.75 * glued8.params.delta, False)[0][:8]
    fd = fd_sym2jet(lambda p: glued8.values(p), x, scale=0.05)
    exact = glued8.jets(x, order=2)
    assert np.max(np.abs(fd.d1 - exact.d1)) < 1e-7
    assert np.max(np.abs(fd.d2 - exact.d2)) < 1e-4


def test_neighbor_caps_are_reflected(glued8):
    # near an odd site the inner branch is the reflected cap
    site = np.array([1.0, 0.0, 0.0, 0.0])
    y = sphere_rule(4, 0.08, False)[0]
    vals = glued8.values(site + y)
    cap = eh_metric(glued8.params.eps, reflected=True).values(y)
    assert np.max(np.abs(vals - cap)) < 1e-15


def test_positive_definite_everywhere(glued8):
    for rho in (0.1, 0.2, 0.25, 0.29, 0.4, 0.9):
        vals = glued8.values(sphere_rule(5, rho, False)[0])
        assert np.all(np.linalg.eigvalsh(vals) > 0.0)


def test_obstruction_inner_is_mode1(glued8):
    x = sphere_rule(4, 0.4 * glued8.params.delta, False)[0]
    ob = glued8.obstruction_jets(x, order=0).val
    mode = kernel_mode(1, glued8.params.eps).values(x)
    assert np.max(np.abs(ob - mode)) < 1e-14


def test_obstruction_tracefree(glued8):
    x = np.concatenate([sphere_rule(4, r * glued8.params.delta, False)[0]
                        for r in (0.4, 0.75, 1.5)])
    ob = glued8.obstruction_jets(x, order=0).val
    g = glued8.values(x)
    tr = np.einsum("pij,pij->p", np.linalg.inv(g), ob)
    assert np.max(np.abs(tr)) < 1e-13


def test_obstruction_outer_eps_scaling(background8):
    x = sphere_rule(4, 0.45, False)[0]
    bgv = background8.jets(x, order=0).val
    devs = []
    for eps in (0.05, 0.1):
        gm = GluedMetric(GlueParams(eps, 0.3, 8), background8)
        d = gm.obstruction_jets(x, order=0).val - eps ** 4 * bgv
        devs.append(np.max(np.abs(d)))
    slope = np.log(devs[1] / devs[0]) / np.log(2.0)
    assert abs(slope - 8.0) < 0.5


def test_remove_trace_is_projection(background8, rng):
    gm = GluedMetric(GlueParams(0.05, 0.3, 8), background8)
    x = sphere_rule(4, 0.25, False)[0][:6]
    g = gm.jets(x, order=2)
    u = gm.jets(x, order=2)          # any symmetric jet works
    u.val = u.val + rng.normal(size=u.val.shape) * 0.01
    out = remove_trace(u, g)
    tr = np.einsum("pij,pij->p", np.linalg.inv(g.val), out.val)
    assert np.max(np.abs(tr)) < 1e-13


def test_lattice_point_rejected(glued8):
    with pytest.raises(DomainError):
        glued8.values(np.array([[1.0, 0.0, 0.0, 0.0]]))


def test_ricci_regions(background32):
    gm = GluedMetric(GlueParams(0.05, 0.25, 32), background32)
    assert sphere_sups([(gm, "ricci")], [0.1], folded=False)[0, 0] < 1e-8
    scan, = decay_scans([(gm, "ricci")], (0.26, 0.29, 0.33, 0.37))
    assert abs(scan.fitted_exponent + 10.0) < 0.5


def test_sphere_sup_rejects_unknown_field(glued8):
    with pytest.raises(ValueError):
        sphere_sups([(glued8, "ricc1")], [0.1], folded=False)
    with pytest.raises(ValueError):
        decay_scans([(glued8, "ricc1")], (0.26, 0.29))


def _sup_roundoff(sup: float, params: GlueParams, rho: float) -> float:
    """The roundoff of a sphere sup at |x| = rho: relative ε_mach/eps⁴
    beyond the cutoff band, where the norm is O(eps⁸) from an O(eps⁴)
    metric perturbation, plus absolute ε_mach·(|χ'|/δ + |χ''|/δ²) in the
    band, where the blend's derivatives add both O(1) branches times χ'
    and χ''."""
    delta = params.delta
    _, d1, d2 = cutoff_scalar(rho / delta)
    return np.finfo(float).eps * (sup / params.eps ** 4 + 4.0 * (
        abs(d1) / delta + abs(d2) / delta ** 2))


def test_folded_sphere_sups_match_the_full_rule(background8,
                                                background_calls):
    # the flow proxy's spheres at its three times and glue-scan's decay
    # radii with both fields: folding moves a sup by its roundoff only
    policy = ProxyPolicy(lattice_cutoff=8)
    proxy = [(GluedMetric(GlueParams(epsilon_of_t(t), MAX_DELTA, 8),
                          background8), "ricci") for t in (-1e4, -1e5, -1e6)]
    scan = GluedMetric(GlueParams(0.05, 0.25, 8), background8)
    spheres = [(proxy, frac * MAX_DELTA, policy.s3_order)
               for frac in PROXY_FRACTIONS]
    spheres += [([(scan, "ricci"), (scan, "lichnerowicz")], rho, DECAY_ORDER)
                for rho in (0.26, 0.29, 0.33, 0.37)]
    for pairs, rho, order in spheres:
        background_calls.clear()
        folded = sphere_sups(pairs, [rho], order, folded=True)[0]
        # one background evaluation, on the orbit representatives
        reps = sphere_rule(order, rho, True)[0]
        assert background_calls == [
            (hashlib.sha256(reps.tobytes()).hexdigest(), 2, False)]
        assert len(reps) == {6: 27, 8: 64}[order]     # 16 nodes per orbit
        full = sphere_sups(pairs, [rho], order, folded=False)[0]
        for (gm, _), a, b in zip(pairs, folded, full):
            assert abs(a - b) <= _sup_roundoff(b, gm.params, rho)


@pytest.mark.parametrize("folded", [True, False])
def test_sphere_sup_table_rows_are_single_sphere_sups(background8,
                                                      background_calls,
                                                      folded):
    # each row of the table has the bits of a one-radius call, and the
    # background is evaluated once per batch of spheres for all pairs
    gms = [GluedMetric(GlueParams(eps, 0.3, 8), background8)
           for eps in (0.02, 0.04)]
    pairs = [(gms[0], "ricci"), (gms[0], "lichnerowicz"), (gms[1], "ricci")]
    radii = (0.1, 0.21, 0.24, 0.33)
    table = sphere_sups(pairs, radii, folded=folded)
    assert table.shape == (len(radii), len(pairs))
    # folded, the four spheres of 27 nodes form one batch; full, each
    # sphere of 432 nodes is a batch of its own and 0.1 lies inside every δ/2
    assert len(background_calls) == (1 if folded else 3)
    for rho, row in zip(radii, table):
        assert row.tobytes() == sphere_sups(pairs, [rho],
                                            folded=folded)[0].tobytes()


def test_annulus_ricci_against_fd_oracle(background32):
    # the large annulus Ricci is real: confirmed by finite differences
    gm = GluedMetric(GlueParams(0.1, 0.3, 32), background32)
    x = np.array([[0.225, 0.0, 0.0, 0.0], [0.13, 0.11, 0.09, 0.07]])
    ric = curvature_at(gm.jets(x, order=2)).ricci
    fd_ric = curvature_at(fd_sym2jet(lambda p: gm.values(p), x,
                                     scale=0.05)).ricci
    assert np.max(np.abs(ric - fd_ric)) < 1e-4 * max(1.0, np.max(np.abs(ric)))


def test_glue_scan_evaluates_each_sphere_background_once(tmp_path,
                                                         monkeypatch,
                                                         background_calls):
    # one batch for the 4 decay spheres of 64 nodes, one per δ for the
    # 5 annulus band spheres of 27 nodes, and the mismatch sphere
    from ehglue import suites
    from ehglue.config import RunConfig
    monkeypatch.setattr(suites, "_backgrounds", {})
    suites.run_glue_scan(RunConfig(task="glue-scan", cutoff=4,
                                   cache_dir=str(tmp_path)))
    assert len(background_calls) == len(set(background_calls)) == 4


def test_obstruction_jets_evaluates_the_background_once(background8,
                                                        background_calls):
    gm = GluedMetric(GlueParams(0.02, 0.3, 8), background8)
    x = sphere_rule(4, 0.22, False)[0]
    assert np.all(region_tag(x, gm.params) == 1)
    ob = gm.obstruction_jets(x, 2)
    assert len(background_calls) == 1
    bg = background8.jets(x, order=2)
    ref = gm.obstruction_jets(x, 2, bg=bg, g=gm.jets(x, 2, bg=bg))
    for a, b in ((ob.val, ref.val), (ob.d1, ref.d1), (ob.d2, ref.d2)):
        assert np.array_equal(a, b)
