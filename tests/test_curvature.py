import dataclasses

import numpy as np
import pytest

from ehglue import curvature
from ehglue.curvature import (bianchi_residual, christoffel, covariant_d1,
                              curvature_at, div_trace, fd_sym2jet, inverse_d1,
                              lichnerowicz, lie_derivative_sym2, trace_jet)
from ehglue.fields import (alpha_forms, eh_metric, euclidean_metric,
                           kernel_mode, radial_vector, vector_fields)
from ehglue.glue import GluedMetric, GlueParams
from ehglue.sym2 import Sym2Jet
from tests.conftest import sample_offorigin


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
    assert np.max(np.abs(lichnerowicz(gj, gj, curvature_at(gj)))) < 1e-9


def test_lichnerowicz_flat_coordinate_case():
    x = np.array([[0.3, 1.2, -0.4, 0.8]])
    gj = euclidean_metric().jets(x)
    h = Sym2Jet.zeros((1,), 2)
    h.val[..., 1, 1] = x[..., 0] ** 2
    h.d1[..., 1, 1, 0] = 2.0 * x[..., 0]
    h.d2[..., 1, 1, 0, 0] = 2.0
    out = lichnerowicz(gj, h, curvature_at(gj))
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
    div, tr, _ = div_trace(gj, tj, christoffel(gj))
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


def _gauge_vector_with_derivative(g, h, curv):
    """Y^m = g^{mj} [(div h)_j - ½ ∂_j tr h] and ∂Y (dy[..., m, l] = ∂_l Y^m)
    from order-2 jets of g and h."""
    ginv, gam, dgam = curv.ginv, curv.christoffel, curv.dgam
    tr = trace_jet(g, h, ginv, 2)
    dginv = inverse_d1(g, ginv)
    nabla1 = covariant_d1(h, gam)
    d_nabla1 = (h.d2                           # ∂_l ∇_k h_ij at [i, j, k, l]
                - np.einsum("...mkil,...mj->...ijkl", dgam, h.val)
                - np.einsum("...mki,...mjl->...ijkl", gam, h.d1)
                - np.einsum("...mkjl,...im->...ijkl", dgam, h.val)
                - np.einsum("...mkj,...iml->...ijkl", gam, h.d1))
    div = np.einsum("...ik,...kji->...j", ginv, nabla1)
    ddiv = (np.einsum("...ikl,...kji->...jl", dginv, nabla1)
            + np.einsum("...ik,...kjil->...jl", ginv, d_nabla1))
    w = div - 0.5 * tr.grad
    dw = ddiv - 0.5 * tr.hess
    y = np.einsum("...mj,...j->...m", ginv, w)
    dy = (np.einsum("...mjl,...j->...ml", dginv, w)
          + np.einsum("...mj,...jl->...ml", ginv, dw))
    return y, dy


def test_gauged_linearization_matches_difference_quotient(rng):
    # -2 Ric_{g+sk} + 2 Ric_g + s(Δ_L k - L_Y g) = O(s²)
    from tests.conftest import sample_offorigin
    pts = sample_offorigin(rng, 6, 0.7, 1.3)
    gj = eh_metric(1.0).jets(pts)
    kj = kernel_mode(2, 1.0).jets(pts)
    curv = curvature_at(gj)
    lich = lichnerowicz(gj, kj, curv)
    y, dy = _gauge_vector_with_derivative(gj, kj, curv)
    lie_g = lie_derivative_sym2(gj, y, dy)
    resid = []
    for s in (1e-3, 5e-4):
        ric_pert = curvature_at(gj + kj.scaled(s)).ricci
        r = (-2.0 * ric_pert + 2.0 * curv.ricci + s * (lich - lie_g))
        resid.append(np.max(np.abs(r)) / s ** 2)
    # quadratic scaling: the s-normalized residuals agree within 10%
    assert abs(resid[0] / resid[1] - 1.0) < 0.1


# ---------------------------------------------------------------------------
# the rewritten curvature path against the formulas it replaced
# ---------------------------------------------------------------------------

def _oracle_dgam(g, ginv):
    """∂_k Γ^m_ij by the product rule through an explicit ∂g^{-1}."""
    d1, d2 = g.d1, g.d2
    term = (np.einsum("...lji->...lij", d1) + d1
            - np.einsum("...ijl->...lij", d1))
    dterm = (np.einsum("...ljik->...lijk", d2) + d2
             - np.einsum("...ijlk->...lijk", d2))
    dginv = -np.einsum("...ma,...abk,...bn->...mnk", ginv, d1, ginv)
    return (0.5 * np.einsum("...mlk,...lij->...mijk", dginv, term)
            + 0.5 * np.einsum("...ml,...lijk->...mijk", ginv, dterm))


def _oracle_lichnerowicz(curv, h):
    """Δ_L h with ∇∇h formed in full, then contracted with g^{kl}."""
    gam, dgam, ginv = curv.christoffel, curv.dgam, curv.ginv
    nabla1 = (h.d1 - np.einsum("...mki,...mj->...ijk", gam, h.val)
              - np.einsum("...mkj,...im->...ijk", gam, h.val))
    d_nabla1 = (h.d2
                - np.einsum("...mkil,...mj->...ijkl", dgam, h.val)
                - np.einsum("...mki,...mjl->...ijkl", gam, h.d1)
                - np.einsum("...mkjl,...im->...ijkl", dgam, h.val)
                - np.einsum("...mkj,...iml->...ijkl", gam, h.d1))
    nabla2 = (d_nabla1
              - np.einsum("...mlk,...ijm->...ijkl", gam, nabla1)
              - np.einsum("...mli,...mjk->...ijkl", gam, nabla1)
              - np.einsum("...mlj,...imk->...ijkl", gam, nabla1))
    rough = np.einsum("...kl,...ijkl->...ij", ginv, nabla2)
    hup = np.einsum("...ka,...lb,...ab->...kl", ginv, ginv, h.val)
    sandwich = np.einsum("...ikjl,...kl->...ij", curv.riemann, hup)
    ric_i = np.einsum("...ia,...ak,...kj->...ij", curv.ricci, ginv, h.val)
    ric_j = np.einsum("...ja,...ak,...ik->...ij", curv.ricci, ginv, h.val)
    return rough + 2.0 * sandwich - ric_i - ric_j


def _generic_sym2(rng, n):
    """A random order-2 jet with the symmetries of a symmetric tensor
    field's jet, bit for bit."""
    val = rng.normal(size=(n, 4, 4))
    d1 = rng.normal(size=(n, 4, 4, 4))
    d2 = rng.normal(size=(n, 4, 4, 4, 4))
    d2 = d2 + np.swapaxes(d2, -1, -2)
    return Sym2Jet(val + np.swapaxes(val, -1, -2),
                   d1 + np.swapaxes(d1, -2, -3),
                   d2 + np.swapaxes(d2, -3, -4))


@pytest.fixture(params=["glued-annulus", "random-quadratic"])
def curved_metric_jets(request, background8):
    """Order-2 jets of two metrics that are not Ricci-flat: the glued
    metric in its annulus δ/2 < r < δ, and g = δ + A·x + ½ B:xx with
    random A and B at |x| ≤ 0.5."""
    rng = np.random.default_rng(31)
    if request.param == "glued-annulus":
        gm = GluedMetric(GlueParams(0.1, 0.3, 8), background8)
        return gm.jets(sample_offorigin(rng, 60, 0.16, 0.29), order=2)
    coef = _generic_sym2(rng, 1)
    a, b = 0.2 * coef.d1[0], 0.2 * coef.d2[0]
    x = sample_offorigin(rng, 60, 0.05, 0.5)
    bx = np.einsum("ijkl,pl->pijk", b, x)
    return Sym2Jet(np.eye(4) + np.einsum("ijk,pk->pij", a, x)
                   + 0.5 * np.einsum("pijk,pk->pij", bx, x),
                   a + bx, np.broadcast_to(b, (60, 4, 4, 4, 4)))


def test_christoffel_derivative_matches_inverse_derivative_oracle(
        curved_metric_jets):
    curv = curvature_at(curved_metric_jets)
    assert np.max(np.abs(curv.ricci)) > 1e-3
    oracle = _oracle_dgam(curved_metric_jets, curv.ginv)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(curv.dgam - oracle)) <= 1e-12 * scale


def test_lichnerowicz_matches_full_second_derivative_oracle(
        curved_metric_jets):
    gj = curved_metric_jets
    h = _generic_sym2(np.random.default_rng(32), gj.val.shape[0])
    curv = curvature_at(gj)
    got = lichnerowicz(gj, h, curv)
    oracle = _oracle_lichnerowicz(curv, h)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert got.tobytes() == np.swapaxes(got, -1, -2).tobytes()


def test_curvature_path_is_batch_independent():
    # every point's result has the same bits whatever batch it is in
    pts = sample_offorigin(np.random.default_rng(33), 300, 0.3, 5.0)
    gj, hj = eh_metric(1.0).jets(pts), kernel_mode(2, 1.0).jets(pts)

    def evaluate(g, h):
        curv = curvature_at(g)
        out = [getattr(curv, f.name) for f in dataclasses.fields(curv)]
        out += [*div_trace(g, h, curv), lichnerowicz(g, h, curv)]
        for order in (0, 1, 2):
            tr = trace_jet(g, h, curv.ginv, order)
            out += [a for a in (tr.value, tr.grad, tr.hess) if a is not None]
        return out

    full = evaluate(gj, hj)
    for start, n in ((0, 1), (123, 1), (299, 1), (40, 7), (43, 257)):
        part = slice(start, start + n)
        for got, want in zip(evaluate(gj[part], hj[part]), full):
            assert got.tobytes() == want[part].tobytes()


def test_curvature_path_keeps_bits_across_point_blocks():
    # blocked curvature, Δ_L and div/trace equal one whole-batch kernel call
    # in bits and layout (dgam and riemann are permuted views), and a
    # point's results do not depend on the block it falls in
    from tests.conftest import assert_seams_keep_bits, seam_points
    x = seam_points(23)
    flat = x.reshape(-1, 4)

    def evaluate(x):
        g, h = eh_metric(1.0).jets(x), kernel_mode(3, 1.0).jets(x)
        curv = curvature_at(g)
        out = [getattr(curv, f.name) for f in dataclasses.fields(curv)]
        out += curv.laplace_terms
        for held in (curv, (curv.ginv, curv.christoffel)):
            out += div_trace(g, h, held)
        return out + [lichnerowicz(g, h, curv)]

    whole = evaluate(x)
    assert_seams_keep_bits(whole, lambda sl: evaluate(flat[sl]))
    g, h = eh_metric(1.0).jets(x), kernel_mode(3, 1.0).jets(x)
    curv = curvature._curvature_at(g)
    terms = curvature._laplace_terms(curv)
    single = [getattr(curv, f.name) for f in dataclasses.fields(curv)]
    single += [*terms, *curvature._div_trace(g, h, curv)]
    single += [curvature._lichnerowicz(h, curv, terms)]
    blocked = whole[:12] + whole[-1:]
    for part, want in zip(blocked, single, strict=True):
        assert part.strides == want.strides
        assert part.tobytes() == want.tobytes()


def test_lichnerowicz_annihilates_metric_on_every_draw():
    # Δ_L g vanishes structurally; its roundoff stays far below the gate
    # for every draw, not only for the session's
    for seed in range(50):
        pts = sample_offorigin(np.random.default_rng(seed), 40, 0.3, 5.0)
        gj = eh_metric(1.0).jets(pts)
        lich = lichnerowicz(gj, gj, curvature_at(gj))
        assert np.max(np.abs(lich)) <= 1e-9, seed


def test_div_trace_reads_a_held_inverse_and_christoffels():
    # (g⁻¹, Γ) held by the caller, as christoffel forms them, or in a
    # CurvatureAt give the same bits
    x = np.array([[0.3, 0.1, -0.2, 0.25], [1.1, -0.4, 0.2, 0.7]])
    gj = eh_metric(0.5).jets(x, order=2)
    hj = kernel_mode(2, 0.5).jets(x, order=2)
    for a, b in zip(div_trace(gj, hj, christoffel(gj)),
                    div_trace(gj, hj, curvature_at(gj))):
        assert a.tobytes() == b.tobytes()
