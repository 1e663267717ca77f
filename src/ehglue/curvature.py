"""Curvature of a metric given by exact jets, and operators on 2-tensors.

Index conventions (batched einsums, derivative indices last):

    Γ^m_{ij}            gam[..., m, i, j]
    ∂_k Γ^m_{ij}        dgam[..., m, i, j, k]
    R^ρ_{σμν} = ∂_μ Γ^ρ_{νσ} - ∂_ν Γ^ρ_{μσ} + Γ^ρ_{μλ}Γ^λ_{νσ} - Γ^ρ_{νλ}Γ^λ_{μσ}
    R_{ρσμν} = g_{ρλ} R^λ_{σμν},   Ric_{σν} = R^μ_{σμν}

(the sign choice making a round sphere's Ricci positive).  ∂Γ is formed with
∂g⁻¹ = -g⁻¹(∂g)g⁻¹ folded in, which rounds far less where g is ill-conditioned:

    ∂_k Γ^m_ij = g^{ml} (½(∂_k∂_i g_lj + ∂_k∂_j g_li - ∂_k∂_l g_ij) - ∂_k g_la Γ^a_ij).

The Lichnerowicz operator is the rough Laplacian plus curvature action,

    Δ_L h_ij = g^{kl} ∇_k ∇_l h_ij + 2 R_{ikjl} h^{kl} - Ric_i^k h_kj - Ric_j^k h_ik,

with the rough Laplacian contracted before any ∇∇h is formed:

    g^{kl} ∇_k ∇_l h_ij = g^{kl} ∂_k∂_l h_ij - γ^m ∇_m h_ij - S_ij - S_ji,
    S_ij = P^m_i h_mj + Q^{ml}_i (∂_l h_mj + ∇_l h_mj),
    P^m_i = g^{kl} ∂_l Γ^m_ki,  Q^{ml}_i = g^{kl} Γ^m_ki,  γ^m = Q^{ml}_l.

In this convention g^{kl} R_{ikjl} = Ric_ij, so Δ_L g = 0 holds structurally
for every metric; the overall sign is pinned by the requirement that Δ_L
annihilates the decaying kernel modes of the Ricci-flat instanton metric
(property-tested, not assumed).  Every einsum has at most two operands, at
optimize=False, laid out so that a point's result has the same bits in a
batch of any size.  :func:`curvature_at`, :func:`lichnerowicz` and
:func:`div_trace` run on blocks of ``sym2.POINT_BLOCK`` points
(:func:`ehglue.sym2.point_blocks`), so a point's result does not depend on
its batch or its block either, and ``dgam`` and ``riemann`` keep the
layouts stated on :class:`CurvatureAt`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .jets import DIM, Jet2
from .sym2 import Sym2Jet, inverse_metric, point_blocks, raised

_E = dict(optimize=False)


@dataclass
class CurvatureAt:
    """Pointwise curvature data of a metric (batched)."""

    ginv: np.ndarray         # (..., 4, 4)
    christoffel: np.ndarray  # (..., m, i, j)
    dgam: np.ndarray         # (..., m, i, j, k) = ∂_k Γ^m_{ij}, laid out m, k, i, j
    riemann: np.ndarray      # (0,4) tensor R_{ρσμν}, laid out ρ, μ, ν, σ
    ricci: np.ndarray        # (..., 4, 4)
    scalar: np.ndarray       # (...,)

    def riemann_sq(self) -> np.ndarray:
        """|Rm|^2 with all indices raised by the metric (contracted in the
        layout of ``riemann``; the index names are dummies)."""
        gi, rm = self.ginv, np.moveaxis(self.riemann, -3, -1)
        up = np.einsum("...abcd,...ai->...ibcd", rm, gi, **_E)
        up = np.einsum("...ibcd,...bj->...ijcd", up, gi, **_E)
        up = np.einsum("...ijcd,...ck->...ijkd", up, gi, **_E)
        up = np.einsum("...ijkd,...dl->...ijkl", up, gi, **_E)
        return np.einsum("...ijkl,...ijkl->...", rm, up, **_E)

    @functools.cached_property
    def laplace_terms(self) -> tuple:
        """The pieces of :func:`lichnerowicz` that depend on the metric
        alone, formed on first use and kept: one CurvatureAt serves Δ_L
        of any number of tensors."""
        return point_blocks(_laplace_terms, self.scalar.shape, self)


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
    """∂_k g^{mn} = -g^{ma} ∂_k g_ab g^{bn}, indexed [..., m, n, k]."""
    left = np.einsum("...ma,...abk->...mbk", ginv, g.d1, **_E)
    return -np.einsum("...mbk,...bn->...mnk", left, ginv, **_E)


def inverse_d2(g: Sym2Jet, ginv: np.ndarray, dginv: np.ndarray) -> np.ndarray:
    """∂_k ∂_l g^{mn}, indexed [..., m, n, k, l]."""
    left = np.einsum("...mal,...abk->...mbkl", dginv, g.d1, **_E)
    left += np.einsum("...ma,...abkl->...mbkl", ginv, g.d2, **_E)
    out = np.einsum("...mbkl,...bn->...mnkl", left, ginv, **_E)
    ginv_d1 = np.einsum("...ma,...abk->...mbk", ginv, g.d1, **_E)
    out += np.einsum("...mbk,...bnl->...mnkl", ginv_d1, dginv, **_E)
    return -out


def trace_jet(g: Sym2Jet, h: Sym2Jet, ginv: np.ndarray, order: int) -> Jet2:
    """tr_g h = g^{ij} h_ij as a Jet2 to ``order``, its gradient without
    ∂g^{-1}: g^{ij} ∂_k h_ij - h^{ab} ∂_k g_ab.

    Derivatives beyond ``order`` are None; g and h need jets of that order.
    """
    tr = Jet2(np.einsum("...ij,...ij->...", ginv, h.val, **_E), None, None)
    if order >= 1:
        tr.grad = (np.einsum("...ij,...ijk->...k", ginv, h.d1, **_E)
                   - np.einsum("...ab,...abk->...k", raised(ginv, h.val),
                               g.d1, **_E))
    if order >= 2:
        dginv = inverse_d1(g, ginv)
        tr.hess = (np.einsum("...ijkl,...ij->...kl",
                             inverse_d2(g, ginv, dginv), h.val, **_E)
                   + np.einsum("...ijk,...ijl->...kl", dginv, h.d1, **_E)
                   + np.einsum("...ijl,...ijk->...kl", dginv, h.d1, **_E)
                   + np.einsum("...ij,...ijkl->...kl", ginv, h.d2, **_E))
    return tr


def christoffel_derivative(g: Sym2Jet, ginv: np.ndarray,
                           gam: np.ndarray) -> np.ndarray:
    """∂_k Γ^m_{ij} from an order-2 jet and Γ, without ∂g^{-1}: a view
    indexed [..., m, i, j, k] of an array laid out [..., m, k, i, j]."""
    d2 = g.d2
    bracket = (np.einsum("...ljki->...lkij", d2, **_E)      # ∂_k ∂_i g_{lj}
               + np.einsum("...likj->...lkij", d2, **_E))   # ∂_k ∂_j g_{li}
    bracket -= np.einsum("...ijkl->...lkij", d2, **_E)     # ∂_k ∂_l g_{ij}
    bracket *= 0.5
    bracket -= np.einsum("...lak,...aij->...lkij", g.d1, gam, **_E)
    dgam = np.einsum("...ml,...lkij->...mkij", ginv, bracket, **_E)
    return np.moveaxis(dgam, -3, -1)


def curvature_at(g: Sym2Jet) -> CurvatureAt:
    """Full curvature data from an order-2 metric jet."""
    return point_blocks(_curvature_at, g.val.shape[:-2], g)


def _curvature_at(g: Sym2Jet) -> CurvatureAt:
    """:func:`curvature_at` on one block.

    R^r_{smn} = Y^r_{mns} - Y^r_{nms} with Y^r_{mns} = ∂_m Γ^r_{ns} +
    Γ^r_{ml} Γ^l_{ns}, laid out [..., r, m, n, s] like R_{rsmn}, which
    takes the memory of Y once R^r_{smn} is formed.
    """
    ginv, gam = christoffel(g)
    dgam = christoffel_derivative(g, ginv, gam)
    y = np.einsum("...rml,...lns->...rmns", gam, gam, **_E)
    y += np.einsum("...rnsm->...rmns", dgam, **_E)
    riem1 = y - np.swapaxes(y, -2, -3)
    ricci = np.einsum("...mmns->...sn", riem1, **_E)
    riemann = np.einsum("...rl,...lmns->...rmns", g.val, riem1, out=y, **_E)
    return CurvatureAt(ginv, gam, dgam, np.moveaxis(riemann, -1, -3), ricci,
                       np.einsum("...sn,...sn->...", ginv, ricci, **_E))


def covariant_d1(h: Sym2Jet, gam: np.ndarray) -> np.ndarray:
    """∇_k h_ij of a symmetric h at [..., i, j, k], symmetric bit for bit."""
    term = np.einsum("...mki,...mj->...ijk", gam, h.val, **_E)  # Γ^m_ki h_mj
    return h.d1 - (term + np.swapaxes(term, -2, -3))


def _laplace_terms(curv: CurvatureAt) -> tuple:
    """(Q, γ, P + Ric·g⁻¹) of the rough Laplacian and the curvature action."""
    ginv = curv.ginv
    # Q^{ml}_i laid out [i, m, l], so that Q·F sums over a contiguous (m, l)
    q = np.einsum("...kl,...mki->...iml", ginv, curv.christoffel, order="C",
                  **_E)
    gamma = np.einsum("...lml->...m", q, **_E)                     # γ^m
    p_ric = np.einsum("...lk,...mkil->...im", ginv, curv.dgam, **_E)
    p_ric += np.einsum("...ia,...am->...im", curv.ricci, ginv, **_E)
    return q, gamma, p_ric


def lichnerowicz(g: Sym2Jet, h: Sym2Jet, curv: CurvatureAt) -> np.ndarray:
    """Δ_L h at each point (pointwise components); symmetric bit for bit
    when the jets of h are.  ``curv`` is g's curvature, as
    :func:`curvature_at` returns it; its ``laplace_terms`` are reused."""
    return point_blocks(_lichnerowicz, g.val.shape[:-2], h, curv,
                        curv.laplace_terms)


def _lichnerowicz(h: Sym2Jet, curv: CurvatureAt, terms: tuple) -> np.ndarray:
    ginv, gam = curv.ginv, curv.christoffel
    q, gamma, p_ric = terms
    nabla1 = covariant_d1(h, gam)
    # Δ_L h = g^{kl}∂_k∂_l h - γ^m ∇_m h - E - Eᵀ with E = S + Ric·g⁻¹·h - W,
    # W_ij = R_{ikjl} h^{kl}; F = ∂h + ∇h is symmetric, so F_mjl reads as F_jml
    e = np.einsum("...im,...mj->...ij", p_ric, h.val, **_E)
    e += np.einsum("...iml,...jml->...ij", q, h.d1 + nabla1, **_E)
    e -= np.einsum("...ikjl,...lk->...ij", curv.riemann,
                   raised(ginv, h.val), **_E)
    out = np.einsum("...kl,...ijkl->...ij", ginv, h.d2, **_E)
    out -= np.einsum("...m,...ijm->...ij", gamma, nabla1, **_E)
    out -= e + np.swapaxes(e, -1, -2)
    return out


def div_trace(g: Sym2Jet, h: Sym2Jet, held: CurvatureAt | tuple):
    """(divergence covector, trace scalar, gauge vector Y).

    (div h)_j = g^{ik} ∇_i h_{kj};  tr = g^{ij} h_{ij};
    Y^m = g^{mj} [(div h)_j - ½ ∂_j tr h].

    Only needs order-1 jets (Christoffels, not curvature).  ``held`` is the
    caller's (g^{-1}, Γ) of g, as :func:`christoffel` returns them, or a
    CurvatureAt that holds them.
    """
    return point_blocks(_div_trace, g.val.shape[:-2], g, h, held)


def _div_trace(g: Sym2Jet, h: Sym2Jet, held):
    ginv, gam = ((held.ginv, held.christoffel)
                 if isinstance(held, CurvatureAt) else held)
    div = np.einsum("...ki,...jki->...j", ginv, covariant_d1(h, gam), **_E)
    tr = trace_jet(g, h, ginv, 1)
    y_vec = np.einsum("...mj,...j->...m", ginv, div - 0.5 * tr.grad, **_E)
    return div, tr.value, y_vec


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

def fd_sym2jet(values_fn, x: np.ndarray, scale: float) -> Sym2Jet:
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


def bianchi_residual(jets_fn, x: np.ndarray, scale: float) -> np.ndarray:
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
    div_ric = np.einsum("...ki,...jki->...j", ginv, cov_dric, **_E)
    resid = div_ric - 0.5 * dsc
    up = np.einsum("...jk,...k->...j", ginv, resid, **_E)
    return np.sqrt(np.einsum("...j,...j->...", resid, up, **_E))
