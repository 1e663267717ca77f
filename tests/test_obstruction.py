import numpy as np
import pytest

from ehglue import obstruction
from ehglue.curvature import christoffel, covariant_d1
from ehglue.fields import eh_metric, farfield_jets, kernel_mode, point_group
from ehglue.glue import GlueParams, GluedMetric
from ehglue.jets import DomainError, coordinate_jets
from ehglue.lattice import BackgroundField, flux_term_exact, parity_of
from ehglue.obstruction import (_corner_sample, _projection_densities,
                                _sphere_integral,
                                distributional_check, flux_integral,
                                flux_single_site, pairing_density,
                                projection_integrals, surface_geometry, z_flux)
from ehglue.quadrature import node_batches, sphere_rule


def u_offdiag(x):
    xj = coordinate_jets(x)
    return xj[0] * xj[1]


def u_diagdiff(x):
    xj = coordinate_jets(x)
    return xj[0] * xj[0] - xj[1] * xj[1]


def u_with_laplacian(x):
    # u = x1 x2 + |x|^2 exercises the interior integral (Δu = 8)
    xj = coordinate_jets(x)
    return xj[0] * xj[1] + sum(xj[i] * xj[i] for i in range(4))


def test_distributional_offdiag():
    res = distributional_check(u_offdiag, 0, 1, "offdiag", 0.5, 16)
    assert res.volume == 0.0
    assert res.surface == pytest.approx(np.pi ** 2 / 2, rel=1e-12)
    assert res.reconstructed == pytest.approx(1.0, abs=1e-10)


def test_distributional_diagdiff():
    res = distributional_check(u_diagdiff, 0, 1, "diagdiff", 0.5, 16)
    assert res.surface == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    assert res.reconstructed == pytest.approx(4.0, abs=1e-10)


def test_distributional_constant_function():
    def u_const(x):
        from ehglue.jets import Jet2
        return Jet2.constant(1.0, np.asarray(x).shape[:-1])

    res = distributional_check(u_const, 0, 1, "offdiag", 0.4, 16)
    assert abs(res.surface) < 1e-13
    assert abs(res.volume) < 1e-13


def test_distributional_with_interior_term():
    # Δu ≠ 0: the interior integral carries the harmonicity defect and the
    # reconstruction still returns D1 D2 u(0) = 1
    res = distributional_check(u_with_laplacian, 0, 1, "offdiag", 0.5, 16)
    assert res.reconstructed == pytest.approx(1.0, abs=1e-8)


def test_distributional_delta_independent():
    r1 = distributional_check(u_offdiag, 0, 1, "offdiag", 0.5, 16)
    r2 = distributional_check(u_offdiag, 0, 1, "offdiag", 0.25, 16)
    assert abs(r1.reconstructed - r2.reconstructed) < 1e-10


def test_dist_laplace_suite_computes_at_its_s3_order():
    # the suite reports its s3_order and must compute at it: two orders
    # echo and give different reconstructions (both pass their gates)
    from ehglue import suites
    from ehglue.config import RunConfig
    reps = [suites.run_dist_laplace(RunConfig(task="dist-laplace",
                                              s3_order=order))
            for order in (12, 16)]
    assert [r.config["s3_order"] for r in reps] == [12, 16]
    assert reps[0].results != reps[1].results
    assert all(r.all_passed for r in reps)


def test_surface_geometry_matches_closed_form():
    # cap-metric area factor on |x| = δ is (eps^4 + δ^4)^(1/4)/δ... squared
    eps, delta = 0.1, 0.3
    nodes = sphere_rule(8, delta, False)[0]
    gj = eh_metric(eps).jets(nodes, order=1)
    nu, area = surface_geometry(gj, np.linalg.inv(gj.val), nodes)
    w = np.sqrt(eps ** 4 + delta ** 4)
    assert np.max(np.abs(area - np.sqrt(w) / delta)) < 1e-13
    # unit normal: |nu|_g = 1
    norm = np.einsum("pij,pi,pj->p", gj.val, nu, nu)
    assert np.max(np.abs(norm - 1.0)) < 1e-13


def test_single_site_fluxes():
    odd = flux_single_site((1, 0, 0, 0), 0.3, s3_order=16)
    assert odd.value == pytest.approx(64 * np.pi ** 2, rel=1e-9)
    far_odd = flux_single_site((1, 1, 1, 0), 0.3, s3_order=16)
    assert far_odd.value == pytest.approx(-64 * np.pi ** 2 / 81, rel=1e-9)
    even = flux_single_site((1, 1, 0, 0), 0.3, s3_order=16)
    assert abs(even.value) < 1e-10
    with pytest.raises(DomainError):
        flux_single_site((0, 0, 0, 0), 0.3, 16)


def test_single_site_flux_delta_independent():
    a = flux_single_site((1, 0, 0, 0), 0.3, s3_order=16)
    b = flux_single_site((1, 0, 0, 0), 0.15, s3_order=16)
    assert abs(a.value - b.value) <= 10 * (a.quad_estimate + b.quad_estimate
                                           + 1e-11)


def test_flux_linearity(background8):
    # the full-mode value equals the sum of per-site contributions when the
    # gap is truncated to a small cube: same nodes, exact linearity
    from ehglue.lattice import near_sites
    from ehglue.quadrature import chunked_kahan_dot
    from ehglue.sym2 import Sym2Jet

    eps, delta = 0.1, 0.3
    nodes, weights = sphere_rule(12, delta, False)
    gj = eh_metric(eps).jets(nodes, order=1)
    ginv, gam = christoffel(gj)
    nu, area = surface_geometry(gj, ginv, nodes)
    mode = kernel_mode(1, eps).jets(nodes, order=1)
    dmode = covariant_d1(mode, gam)

    def flux_against(h):
        integrand = pairing_density(ginv, nu, mode.val, dmode, h.val,
                                    covariant_d1(h, gam))
        return chunked_kahan_dot(weights * area, integrand)

    def site_jets(a):
        return farfield_jets(nodes - a.astype(float),
                             reflected=bool(parity_of(a[None])[0]), order=1)

    evens = near_sites(1, False)
    sites = np.concatenate([evens[np.any(evens != 0, axis=-1)],
                            near_sites(1, True)])
    total_by_site = sum(flux_against(site_jets(a).scaled(0.5 * eps ** 4))
                        for a in sites)

    acc = Sym2Jet.zeros(nodes.shape[:-1], 1)
    for a in sites:
        acc = acc + site_jets(a)
    total_once = flux_against(acc.scaled(0.5 * eps ** 4))
    assert total_once == pytest.approx(total_by_site, rel=1e-10)


def test_cap_single_site_pairing_matches_exact_weight():
    # the cap-geometry pairing of mode 1 against one site's far field is
    # flux_term_exact(a)·eps^4 up to the site-independent factor the cap
    # metric makes at |x| = δ (measured 0.99999856); even sites vanish
    eps, delta = 0.01, 0.3

    def cap_site_flux(site):
        a = np.asarray(site)
        odd = bool(parity_of(a[None])[0])

        def density(nodes):
            gj = eh_metric(eps).jets(nodes, order=1)
            ginv, gam = christoffel(gj)
            nu, area = surface_geometry(gj, ginv, nodes)
            mode = kernel_mode(1, eps).jets(nodes, order=1)
            h = farfield_jets(nodes - a, reflected=odd, order=1)
            return pairing_density(ginv, nu, mode.val,
                                   covariant_d1(mode, gam), h.val,
                                   covariant_d1(h, gam)), area

        return _sphere_integral(density, delta, 16, 8, False)[0]

    odd_sites = [(1, 0, 0, 0), (1, 1, 1, 0), (2, 0, 1, 0), (3, 2, 1, 1)]
    odd_values = [cap_site_flux(a) for a in odd_sites]
    ratios = [v / (flux_term_exact(np.asarray(a)) * eps ** 4)
              for a, v in zip(odd_sites, odd_values)]
    assert max(ratios) - min(ratios) <= 1e-9
    assert all(abs(r - 1.0) <= 1e-5 for r in ratios)
    for a in ((1, 1, 0, 0), (2, 0, 0, 0), (2, 1, 1, 0)):
        assert abs(cap_site_flux(a)) <= 1e-12 * abs(odd_values[0])


@pytest.mark.parametrize("site", [(1, 0, 0), (1, 0, 0, 0, 0), (1.5, 0, 0, 0),
                                  ((1, 0), (0, 0))])
def test_single_site_flux_rejects_anything_but_four_integers(site):
    with pytest.raises(ValueError, match="site must be 4 integers"):
        flux_single_site(site, 0.3, 16)


def test_full_flux_against_lattice_constant(background32, omega32):
    params = GlueParams(0.1, 0.3, 32)
    rep = flux_integral(params, s3_order=16, background=background32,
                        omega=omega32.extrapolated)
    assert abs(rep.value / rep.predicted - 1.0) <= 0.02
    assert rep.quad_estimate < 1e-9


def test_flux_asymptotic_trend(background32, omega32):
    # the exact-gap variant converges to the same constant from below
    ratios = []
    for eps in (0.05, 0.02):
        params = GlueParams(eps, 0.3, 32)
        rep = flux_integral(params, s3_order=16, background=background32,
                            omega=omega32.partial, exact_gap=True)
        ratios.append(rep.value / rep.predicted)
    assert abs(ratios[-1] - 1.0) < 0.005
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_flux_order_precondition(background8):
    with pytest.raises(ValueError):
        flux_integral(GlueParams(0.1, 0.3, 8), s3_order=8,
                      background=background8)


def test_z_flux_bound_and_zero_gap(background32):
    params = GlueParams(0.1, 0.3, 32)
    val, est = z_flux(params, s3_order=16, background=background32)
    assert abs(val) <= 10.0 * params.eps ** 12 * params.delta ** -10 + est
    zero, _ = z_flux(params, s3_order=16, background=background32,
                     zero_gap=True)
    assert zero == 0.0


# ---------------------------------------------------------------------------
# point-group folding
# ---------------------------------------------------------------------------

def _stabilizer(nodes):
    """The point-group elements mapping the node set onto itself, by brute
    force over all pairs (independent of the fold's key matching)."""
    out = []
    for lin in point_group():
        image = nodes @ lin.T
        gap = np.max(np.abs(image[:, None, :] - nodes[None, :, :]), axis=-1)
        if np.max(np.min(gap, axis=1)) <= 1e-12:
            out.append(lin)
    return out


@pytest.mark.parametrize("where", ["band", "outer", "corner"])
def test_folded_tensors_are_point_group_invariant(background8, where):
    # the tensors behind every folded density pull back to themselves under
    # each stabilizer element of the sphere rule (at ρ = 0.24 in the active
    # band of δ = 0.3, and at ρ = 0.4), and under all of G on the corner
    # grid, whose points are the images of its 51 representatives
    if where == "corner":
        nodes = _corner_sample(True)[0]
        group = list(point_group())
    else:
        nodes = sphere_rule(6, {"band": 0.24, "outer": 0.4}[where], False)[0]
        group = _stabilizer(nodes)
        assert len(group) == 16
    gm = GluedMetric(GlueParams(0.1, 0.3, 8), background8)

    def tensors(x):
        return (background8.jets(x, order=0).val,
                background8.jets(x, order=0, exclude_origin=True).val,
                gm.values(x), gm.obstruction_jets(x, order=0).val)

    here = tensors(nodes)
    for lin in group:
        for base, moved in zip(here, tensors(nodes @ lin.T)):
            pulled = lin.T @ moved @ lin
            assert np.max(np.abs(pulled - base)) <= 1e-13 * np.max(np.abs(base))


def _unfolded(monkeypatch):
    """Run obstruction's folded paths on the full rules, every node with
    its own weight."""
    corner = obstruction._corner_sample
    monkeypatch.setattr(obstruction, "sphere_rule",
                        lambda order, radius, folded:
                        sphere_rule(order, radius, False))
    monkeypatch.setattr(obstruction, "_corner_sample",
                        lambda folded: corner(False))


def _counting_points(monkeypatch):
    counted = [0]
    jets = BackgroundField.jets

    def counting(self, x, order=2, exclude_origin=False):
        counted[0] += np.asarray(x).size // 4
        return jets(self, x, order, exclude_origin)

    monkeypatch.setattr(BackgroundField, "jets", counting)
    return counted


def test_folded_projection_matches_unfolded_oracle(background8, monkeypatch):
    counted = _counting_points(monkeypatch)

    def run():
        counted[0] = 0
        res = projection_integrals([0.1], 0.3, background8, s3_order=6,
                                   annulus_points=2, outer_points=2,
                                   with_estimate=True)[0]
        return res, counted[0]

    folded, n_folded = run()
    with monkeypatch.context() as m:
        _unfolded(m)
        full, n_full = run()
    # background points over 8 fine and 4 coarse shells and the corner grid:
    # 432 → 27 nodes per shell and 2,784 → 51 corner points
    assert n_full == 12 * 432 + 2784
    assert n_folded == 12 * 27 + 51
    for attr in ("onto_obstruction", "onto_metric", "corner_bound"):
        want = getattr(full, attr)
        assert abs(getattr(folded, attr) - want) <= 1e-9 * abs(want)
    assert (abs(folded.quad_estimate - full.quad_estimate)
            <= 1e-9 * abs(full.onto_obstruction))
    assert folded.inner_residual == full.inner_residual


@pytest.mark.parametrize("exact_gap", [False, True])
def test_folded_flux_matches_unfolded_oracle(background8, monkeypatch,
                                             exact_gap):
    params = GlueParams(0.1, 0.3, 8)
    folded = flux_integral(params, 16, background8, exact_gap=exact_gap)
    with monkeypatch.context() as m:
        _unfolded(m)
        full = flux_integral(params, 16, background8, exact_gap=exact_gap)
    assert abs(folded.value - full.value) <= 1e-9 * abs(full.value)
    assert (abs(folded.quad_estimate - full.quad_estimate)
            <= 1e-9 * abs(full.value))


def test_projection_densities_keep_their_bits_in_a_batch(background8):
    # shells in the inner, annulus (active band and collar) and outer
    # regions of δ = 0.3, stacked into one batch as projection_integrals
    # stacks them: every node's background jets and densities have the
    # bits of a per-shell evaluation
    shells = [sphere_rule(6, rho, True)[0] for rho in (0.12, 0.22, 0.27, 0.4)]
    (nodes, slices), = node_batches(shells)
    assert len(slices) == len(shells)
    bgj = background8.jets(nodes, order=2)
    for eps in (0.05, 0.07, 0.1):
        gm = GluedMetric(GlueParams(eps, 0.3, 8), background8)
        batch = _projection_densities(gm, nodes, bgj)
        for shell, sl in zip(shells, slices):
            own = _projection_densities(gm, shell,
                                        background8.jets(shell, order=2))
            for a, b in zip(batch, own):
                assert a[sl].tobytes() == b.tobytes()
