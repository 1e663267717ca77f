import numpy as np

from ehglue.curvature import (bianchi_residual, curvature_at, div_trace,
                              fd_sym2jet, gauge_vector_with_derivative,
                              lichnerowicz, lie_derivative_sym2)
from ehglue.fields import (alpha_forms, eh_metric, euclidean_metric,
                           kernel_mode, radial_vector, vector_fields)
from ehglue.sym2 import Sym2Jet


def conformal_flat_jets(x, a=0.3):
    """g = e^{2 a x1} δ, with Ricci diag(0, -2a², -2a², -2a²) e^{0}..."""
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    phi = a * x[..., 0]
    f = np.exp(2.0 * phi)
    out = Sym2Jet.zeros(shape, 2)
    eye = np.eye(4)
    out.val = f[..., None, None] * eye
    out.d1[..., 0] = 2.0 * a * f[..., None, None] * eye
    out.d2[..., 0, 0] = 4.0 * a * a * f[..., None, None] * eye
    return out


def test_flat_metric_curvature_vanishes(points):
    curv = curvature_at(euclidean_metric().jets(points))
    assert np.max(np.abs(curv.riemann)) == 0.0
    assert np.max(np.abs(curv.ricci)) == 0.0


def test_conformal_metric_ricci_sign_convention(rng):
    # textbook conformal transformation pins the sign convention
    a = 0.3
    x = rng.normal(size=(5, 4))
    curv = curvature_at(conformal_flat_jets(x, a))
    expected = np.broadcast_to(np.diag([0.0, -2 * a * a, -2 * a * a,
                                        -2 * a * a]), (5, 4, 4))
    assert np.max(np.abs(curv.ricci - expected)) < 1e-12


def test_instanton_is_ricci_flat(points):
    curv = curvature_at(eh_metric(1.0).jets(points))
    assert np.max(np.abs(curv.ricci)) < 1e-9


def test_riemann_symmetries_and_first_bianchi(points):
    rm = curvature_at(eh_metric(1.0).jets(points)).riemann
    scale = np.max(np.abs(rm))
    assert np.max(np.abs(rm + np.swapaxes(rm, -3, -4))) < 1e-10 * scale
    assert np.max(np.abs(rm + np.swapaxes(rm, -1, -2))) < 1e-10 * scale
    pair = np.einsum("pijkl->pklij", rm)
    assert np.max(np.abs(rm - pair)) < 1e-10 * scale
    cyc = rm + np.einsum("pijkl->piklj", rm) + np.einsum("pijkl->piljk", rm)
    assert np.max(np.abs(cyc)) < 1e-10 * scale


def test_contracted_bianchi(rng):
    from tests.conftest import sample_offorigin
    pts = sample_offorigin(rng, 4, 0.8, 1.6)
    g = eh_metric(1.0)
    resid = bianchi_residual(lambda p: g.jets(p), pts, scale=7.0)
    assert np.max(resid) < 1e-9


def test_curvature_norm_scaling(points):
    eps = 0.6
    k_eps = curvature_at(eh_metric(eps).jets(points)).riemann_sq()
    k_one = curvature_at(eh_metric(1.0).jets(points / eps)).riemann_sq()
    assert np.max(np.abs(k_eps * eps ** 4 / k_one - 1.0)) < 1e-11


def test_lichnerowicz_annihilates_kernel_modes(points):
    gj = eh_metric(1.0).jets(points)
    curv = curvature_at(gj)
    for i in (1, 2, 3):
        oj = kernel_mode(i, 1.0).jets(points)
        assert np.max(np.abs(lichnerowicz(gj, oj, curv))) < 1e-8


def test_lichnerowicz_annihilates_metric(points):
    gj = eh_metric(1.0).jets(points)
    assert np.max(np.abs(lichnerowicz(gj, gj))) < 1e-9


def test_lichnerowicz_flat_coordinate_case():
    x = np.array([[0.3, 1.2, -0.4, 0.8]])
    gj = euclidean_metric().jets(x)
    h = Sym2Jet.zeros((1,), 2)
    h.val[..., 1, 1] = x[..., 0] ** 2
    h.d1[..., 1, 1, 0] = 2.0 * x[..., 0]
    h.d2[..., 1, 1, 0, 0] = 2.0
    out = lichnerowicz(gj, h)
    expected = np.zeros((1, 4, 4))
    expected[..., 1, 1] = 2.0
    assert np.max(np.abs(out - expected)) < 1e-14


def test_divergence_and_trace(points):
    gj = eh_metric(1.0).jets(points)
    curv = curvature_at(gj)
    for i in (1, 2, 3):
        oj = kernel_mode(i, 1.0).jets(points)
        div, tr, _ = div_trace(gj, oj, curv)
        assert np.max(np.abs(div)) < 1e-9
        assert np.max(np.abs(tr)) < 1e-13
    div_g, tr_g, y_g = div_trace(gj, gj, curv)
    assert np.max(np.abs(div_g)) < 1e-12
    assert np.max(np.abs(tr_g - 4.0)) < 1e-13


def test_farfield_divergence_free_flat(points):
    from ehglue.fields import farfield_tensor
    gj = euclidean_metric().jets(points)
    tj = farfield_tensor().jets(points)
    div, tr, _ = div_trace(gj, tj)
    assert np.max(np.abs(div)) < 1e-11
    assert np.max(np.abs(tr)) < 1e-13


def test_lie_derivative_euler_field(points):
    gj = euclidean_metric().jets(points)
    euler = radial_vector(points)
    v = np.stack([e.value for e in euler], axis=-1)
    dv = np.stack([e.grad for e in euler], axis=-2)
    lie = lie_derivative_sym2(gj, v, dv)
    assert np.max(np.abs(lie - 2.0 * np.eye(4))) < 1e-14


def test_mode1_from_radial_lie_derivative(points):
    gj = eh_metric(1.0).jets(points)
    euler = radial_vector(points)
    v = np.stack([e.value for e in euler], axis=-1)
    dv = np.stack([e.grad for e in euler], axis=-2)
    lie = lie_derivative_sym2(gj, v, dv)
    o1 = kernel_mode(1, 1.0).values(points)
    assert np.max(np.abs(gj.val - 0.5 * lie - o1)) < 1e-12


def test_one_form_lie_relations(points):
    # derivative relation among the contact forms under the frame fields
    forms = alpha_forms(points)
    vees = vector_fields(points)
    for (a, b, c, sign) in ((0, 1, 2, -2.0), (1, 2, 0, -2.0), (2, 0, 1, -2.0)):
        alpha_val = np.stack([f.value for f in forms[b]], axis=-1)
        alpha_d1 = np.stack([f.grad for f in forms[b]], axis=-2)
        v = np.stack([e.value for e in vees[a]], axis=-1)
        dv = np.stack([e.grad for e in vees[a]], axis=-2)
        # (L_V α)_i = V^k ∂_k α_i + α_k ∂_i V^k, with alpha_d1[..., i, k] =
        # ∂_k α_i and dv[..., k, i] = ∂_i V^k
        lie = (np.einsum("...k,...ik->...i", v, alpha_d1)
               + np.einsum("...k,...ki->...i", alpha_val, dv))
        target = sign * np.stack([f.value for f in forms[c]], axis=-1)
        assert np.max(np.abs(lie - target)) < 1e-13


def test_fd_oracle_matches_jets(rng):
    from tests.conftest import sample_offorigin
    pts = sample_offorigin(rng, 5, 0.8, 1.5)
    g = eh_metric(1.0)
    fd = fd_sym2jet(lambda p: g.jets(p, order=0).val, pts, scale=0.5)
    exact = g.jets(pts)
    assert np.max(np.abs(fd.d1 - exact.d1)) < 1e-8
    assert np.max(np.abs(fd.d2 - exact.d2)) < 1e-5
    assert np.max(np.abs(curvature_at(fd).ricci)) < 1e-5


def test_gauged_linearization_matches_difference_quotient(rng):
    # -2 Ric_{g+sk} + 2 Ric_g + s(Δ_L k - L_Y g) = O(s²)
    from tests.conftest import sample_offorigin
    pts = sample_offorigin(rng, 6, 0.7, 1.3)
    gj = eh_metric(1.0).jets(pts)
    kj = kernel_mode(2, 1.0).jets(pts)
    curv = curvature_at(gj)
    lich = lichnerowicz(gj, kj, curv)
    y, dy = gauge_vector_with_derivative(gj, kj, curv)
    lie_g = lie_derivative_sym2(gj, y, dy)
    resid = []
    for s in (1e-3, 5e-4):
        ric_pert = curvature_at(gj + kj.scaled(s)).ricci
        r = (-2.0 * ric_pert + 2.0 * curv.ricci + s * (lich - lie_g))
        resid.append(np.max(np.abs(r)) / s ** 2)
    # quadratic scaling: the s-normalized residuals agree within 10%
    assert abs(resid[0] / resid[1] - 1.0) < 0.1
