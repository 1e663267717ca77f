"""Curvature of a metric given by exact jets, and operators on 2-tensors.

Index conventions (batched einsums, derivative indices last):

    Γ^m_{ij}            gam[..., m, i, j]
    ∂_k Γ^m_{ij}        dgam[..., m, i, j, k]
    R^ρ_{σμν} = ∂_μ Γ^ρ_{νσ} - ∂_ν Γ^ρ_{μσ} + Γ^ρ_{μλ}Γ^λ_{νσ} - Γ^ρ_{νλ}Γ^λ_{μσ}
    R_{ρσμν} = g_{ρλ} R^λ_{σμν},   Ric_{σν} = R^μ_{σμν}

(the sign choice making a round sphere's Ricci positive).  The Lichnerowicz
operator is the rough Laplacian plus curvature action,

    Δ_L h_ij = g^{kl} ∇_k ∇_l h_ij + 2 R_{ikjl} h^{kl} - Ric_i^k h_kj - Ric_j^k h_ik.

In this convention g^{kl} R_{ikjl} = Ric_ij, so Δ_L g = 0 holds structurally
for every metric; the overall sign is pinned by the requirement that Δ_L
annihilates the decaying kernel modes of the Ricci-flat instanton metric
(property-tested, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import DIM, Jet2
from .sym2 import Sym2Jet, inverse_metric

_E = dict(optimize=False)


@dataclass
class CurvatureAt:
    """Pointwise curvature data of a metric (batched)."""

    ginv: np.ndarray         # (..., 4, 4)
    christoffel: np.ndarray  # (..., m, i, j)
    dgam: np.ndarray         # (..., m, i, j, k) = ∂_k Γ^m_{ij}
    riemann: np.ndarray      # (0,4) tensor R_{ρσμν}
    ricci: np.ndarray        # (..., 4, 4)
    scalar: np.ndarray       # (...,)

    def riemann_sq(self) -> np.ndarray:
        """|Rm|^2 with all indices raised by the metric."""
        gi = self.ginv
        up = np.einsum("...abcd,...ai->...ibcd", self.riemann, gi, **_E)
        up = np.einsum("...ibcd,...bj->...ijcd", up, gi, **_E)
        up = np.einsum("...ijcd,...ck->...ijkd", up, gi, **_E)
        up = np.einsum("...ijkd,...dl->...ijkl", up, gi, **_E)
        return np.einsum("...ijkl,...ijkl->...", self.riemann, up, **_E)


def _gamma_term(d1: np.ndarray) -> np.ndarray:
    """term[..., l, i, j] = ∂_i g_{lj} + ∂_j g_{li} - ∂_l g_{ij}."""
    di_glj = np.einsum("...lji->...lij", d1, **_E)
    dj_gli = d1
    dl_gij = np.einsum("...ijl->...lij", d1, **_E)
    return di_glj + dj_gli - dl_gij


def christoffel(g: Sym2Jet) -> tuple[np.ndarray, np.ndarray]:
    """(g^{-1}, Γ) from a jet of order ≥ 1."""
    ginv = inverse_metric(g.val)
    gam = 0.5 * np.einsum("...ml,...lij->...mij", ginv, _gamma_term(g.d1), **_E)
    return ginv, gam


def inverse_d1(g: Sym2Jet, ginv: np.ndarray) -> np.ndarray:
    """∂_k g^{mn}, indexed [..., m, n, k]."""
    return -np.einsum("...ma,...abk,...bn->...mnk", ginv, g.d1, ginv, **_E)


def inverse_d2(g: Sym2Jet, ginv: np.ndarray, dginv: np.ndarray) -> np.ndarray:
    """∂_k ∂_l g^{mn}, indexed [..., m, n, k, l]."""
    return (-np.einsum("...mal,...abk,...bn->...mnkl", dginv, g.d1, ginv, **_E)
            - np.einsum("...ma,...abkl,...bn->...mnkl", ginv, g.d2, ginv, **_E)
            - np.einsum("...ma,...abk,...bnl->...mnkl", ginv, g.d1, dginv, **_E))


def trace_jet(g: Sym2Jet, h: Sym2Jet, ginv: np.ndarray, order: int):
    """(tr_g h = g^{ij} h_ij as a Jet2 to ``order``, ∂g^{-1} or None).

    Derivatives beyond ``order`` are None; g and h need jets of that order.
    """
    tr = Jet2(np.einsum("...ij,...ij->...", ginv, h.val, **_E), None, None)
    dginv = None
    if order >= 1:
        dginv = inverse_d1(g, ginv)
        tr.grad = (np.einsum("...ijk,...ij->...k", dginv, h.val, **_E)
                   + np.einsum("...ij,...ijk->...k", ginv, h.d1, **_E))
    if order >= 2:
        ddginv = inverse_d2(g, ginv, dginv)
        tr.hess = (np.einsum("...ijkl,...ij->...kl", ddginv, h.val, **_E)
                   + np.einsum("...ijk,...ijl->...kl", dginv, h.d1, **_E)
                   + np.einsum("...ijl,...ijk->...kl", dginv, h.d1, **_E)
                   + np.einsum("...ij,...ijkl->...kl", ginv, h.d2, **_E))
    return tr, dginv


def christoffel_derivative(g: Sym2Jet, ginv: np.ndarray) -> np.ndarray:
    """∂_k Γ^m_{ij} from an order-2 jet."""
    d2 = g.d2
    dterm = (np.einsum("...ljik->...lijk", d2, **_E)     # ∂_k ∂_i g_{lj}
             + d2                                         # ∂_k ∂_j g_{li}
             - np.einsum("...ijlk->...lijk", d2, **_E))  # ∂_k ∂_l g_{ij}
    dginv = inverse_d1(g, ginv)
    return (0.5 * np.einsum("...mlk,...lij->...mijk", dginv, _gamma_term(g.d1), **_E)
            + 0.5 * np.einsum("...ml,...lijk->...mijk", ginv, dterm, **_E))


def curvature_at(g: Sym2Jet) -> CurvatureAt:
    """Full curvature data from an order-2 metric jet."""
    ginv, gam = christoffel(g)
    dgam = christoffel_derivative(g, ginv)
    riem1 = (np.einsum("...rnsm->...rsmn", dgam, **_E)
             - np.einsum("...rmsn->...rsmn", dgam, **_E)
             + np.einsum("...rml,...lns->...rsmn", gam, gam, **_E)
             - np.einsum("...rnl,...lms->...rsmn", gam, gam, **_E))
    riemann = np.einsum("...rl,...lsmn->...rsmn", g.val, riem1, **_E)
    ricci = np.einsum("...msmn->...sn", riem1, **_E)
    scalar = np.einsum("...sn,...sn->...", ginv, ricci, **_E)
    return CurvatureAt(ginv, gam, dgam, riemann, ricci, scalar)


def covariant_d1(h: Sym2Jet, gam: np.ndarray) -> np.ndarray:
    """∇_k h_{ij}, indexed [..., i, j, k]."""
    return (h.d1
            - np.einsum("...mki,...mj->...ijk", gam, h.val, **_E)
            - np.einsum("...mkj,...im->...ijk", gam, h.val, **_E))


def _coord_d_of_covariant_d1(h: Sym2Jet, gam: np.ndarray,
                             dgam: np.ndarray) -> np.ndarray:
    """∂_l (∇_k h_{ij}), indexed [..., i, j, k, l] (coordinate derivative)."""
    return (h.d2
            - np.einsum("...mkil,...mj->...ijkl", dgam, h.val, **_E)
            - np.einsum("...mki,...mjl->...ijkl", gam, h.d1, **_E)
            - np.einsum("...mkjl,...im->...ijkl", dgam, h.val, **_E)
            - np.einsum("...mkj,...iml->...ijkl", gam, h.d1, **_E))


def covariant_d2(h: Sym2Jet, gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    """∇_l ∇_k h_{ij}, indexed [..., i, j, k, l]."""
    nabla1 = covariant_d1(h, gam)
    d_nabla1 = _coord_d_of_covariant_d1(h, gam, dgam)
    return (d_nabla1
            - np.einsum("...mlk,...ijm->...ijkl", gam, nabla1, **_E)
            - np.einsum("...mli,...mjk->...ijkl", gam, nabla1, **_E)
            - np.einsum("...mlj,...imk->...ijkl", gam, nabla1, **_E))


def lichnerowicz(g: Sym2Jet, h: Sym2Jet,
                 curv: CurvatureAt | None = None) -> np.ndarray:
    """Δ_L h at each point (pointwise components)."""
    if curv is None:
        curv = curvature_at(g)
    nabla2 = covariant_d2(h, curv.christoffel, curv.dgam)
    rough = np.einsum("...kl,...ijkl->...ij", curv.ginv, nabla2, **_E)
    hup = np.einsum("...ka,...lb,...ab->...kl", curv.ginv, curv.ginv, h.val, **_E)
    sandwich = np.einsum("...ikjl,...kl->...ij", curv.riemann, hup, **_E)
    ric_i = np.einsum("...ia,...ak,...kj->...ij", curv.ricci, curv.ginv, h.val, **_E)
    ric_j = np.einsum("...ja,...ak,...ik->...ij", curv.ricci, curv.ginv, h.val, **_E)
    return rough + 2.0 * sandwich - ric_i - ric_j


def div_trace(g: Sym2Jet, h: Sym2Jet, curv: CurvatureAt | None = None):
    """(divergence covector, trace scalar, gauge vector Y).

    (div h)_j = g^{ik} ∇_i h_{kj};  tr = g^{ij} h_{ij};
    Y^m = g^{mj} [(div h)_j - ½ ∂_j tr h].

    Only needs order-1 jets (Christoffels, not curvature).
    """
    if curv is not None:
        ginv, gam = curv.ginv, curv.christoffel
    else:
        ginv, gam = christoffel(g)
    nabla1 = covariant_d1(h, gam)
    div = np.einsum("...ik,...kji->...j", ginv, nabla1, **_E)
    tr, _ = trace_jet(g, h, ginv, 1)
    y_vec = np.einsum("...mj,...j->...m", ginv, div - 0.5 * tr.grad, **_E)
    return div, tr.value, y_vec


def gauge_vector_with_derivative(g: Sym2Jet, h: Sym2Jet,
                                 curv: CurvatureAt | None = None):
    """Y and ∂Y (dy[..., m, l] = ∂_l Y^m); needs order-2 jets of g and h."""
    if curv is None:
        curv = curvature_at(g)
    ginv, gam, dgam = curv.ginv, curv.christoffel, curv.dgam
    tr, dginv = trace_jet(g, h, ginv, 2)

    nabla1 = covariant_d1(h, gam)
    d_nabla1 = _coord_d_of_covariant_d1(h, gam, dgam)

    div = np.einsum("...ik,...kji->...j", ginv, nabla1, **_E)
    ddiv = (np.einsum("...ikl,...kji->...jl", dginv, nabla1, **_E)
            + np.einsum("...ik,...kjil->...jl", ginv, d_nabla1, **_E))

    w = div - 0.5 * tr.grad
    dw = ddiv - 0.5 * tr.hess
    y = np.einsum("...mj,...j->...m", ginv, w, **_E)
    dy = (np.einsum("...mjl,...j->...ml", dginv, w, **_E)
          + np.einsum("...mj,...jl->...ml", ginv, dw, **_E))
    return y, dy


def lie_derivative_sym2(u: Sym2Jet, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """(L_V u)_{ij} = V^k ∂_k u_{ij} + u_{kj} ∂_i V^k + u_{ik} ∂_j V^k.

    v is the vector value (..., 4); dv[..., k, i] = ∂_i V^k.
    """
    return (np.einsum("...k,...ijk->...ij", v, u.d1, **_E)
            + np.einsum("...kj,...ki->...ij", u.val, dv, **_E)
            + np.einsum("...ik,...kj->...ij", u.val, dv, **_E))


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def fd_sym2jet(values_fn, x: np.ndarray, scale: float = 1.0) -> Sym2Jet:
    """Order-2 jet of a tensor field from central differences of values only.

    Step sizes follow the usual optima: eps^(1/3)·scale for first
    derivatives but eps^(1/4)·scale for second derivatives (the cube-root
    step loses too much to roundoff in a Hessian).
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    eps = np.finfo(float).eps
    h1 = eps ** (1.0 / 3.0) * scale
    h2 = eps ** 0.25 * scale
    out = Sym2Jet.zeros(shape, 2)
    out.val = values_fn(x)
    eye = np.eye(DIM)
    for k in range(DIM):
        ek = eye[k]
        out.d1[..., :, :, k] = (values_fn(x + h1 * ek)
                                - values_fn(x - h1 * ek)) / (2.0 * h1)
        fp = values_fn(x + h2 * ek)
        fm = values_fn(x - h2 * ek)
        out.d2[..., :, :, k, k] = (fp - 2.0 * out.val + fm) / (h2 * h2)
        for l in range(k + 1, DIM):
            el = eye[l]
            mixed = (values_fn(x + h2 * (ek + el)) - values_fn(x + h2 * (ek - el))
                     - values_fn(x - h2 * (ek - el)) + values_fn(x - h2 * (ek + el))
                     ) / (4.0 * h2 * h2)
            out.d2[..., :, :, k, l] = mixed
            out.d2[..., :, :, l, k] = mixed
    return out


def bianchi_residual(jets_fn, x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """|div Ric - ½ ∇R| via five-point differences of pointwise curvature.

    ∂ Ric needs third metric derivatives, beyond the jet order, so the
    contracted Bianchi identity is checked with finite differences of the
    jet-exact Ricci field.
    """
    x = np.asarray(x, dtype=float)
    h = 3e-3 * scale
    eye = np.eye(DIM)

    def ric_and_scalar(pts):
        curv = curvature_at(jets_fn(pts))
        return curv.ricci, curv.scalar

    curv0 = curvature_at(jets_fn(x))
    dric = np.zeros(x.shape[:-1] + (DIM, DIM, DIM))
    dsc = np.zeros(x.shape[:-1] + (DIM,))
    for k in range(DIM):
        ek = eye[k]
        rp, sp = ric_and_scalar(x + h * ek)
        rm, sm = ric_and_scalar(x - h * ek)
        rp2, sp2 = ric_and_scalar(x + 2.0 * h * ek)
        rm2, sm2 = ric_and_scalar(x - 2.0 * h * ek)
        dric[..., k] = (8.0 * (rp - rm) - (rp2 - rm2)) / (12.0 * h)
        dsc[..., k] = (8.0 * (sp - sm) - (sp2 - sm2)) / (12.0 * h)
    ginv = curv0.ginv
    cov_dric = covariant_d1(Sym2Jet(curv0.ricci, dric), curv0.christoffel)
    div_ric = np.einsum("...ik,...kji->...j", ginv, cov_dric, **_E)
    resid = div_ric - 0.5 * dsc
    return np.sqrt(np.einsum("...j,...k,...jk->...", resid, resid, ginv, **_E))
