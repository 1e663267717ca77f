"""Closed-form geometric fields on R^4 \\ {0}.

Everything here is expressed in Cartesian components through three linear
frame vectors A^1, A^2, A^3 (the values of the standard contact vector
fields) and the radius:

    A^1 = (-x2,  x1, -x4,  x3)
    A^2 = (-x3,  x4,  x1, -x2)
    A^3 = (-x4, -x3,  x2,  x1)

together with x itself they form an orthogonal frame of common norm r, and
the associated one-forms A^k / r^2 each have Euclidean norm 1/r.  The
gravitational instanton metric with scale parameter eps is

    g = (x⊗x + A1⊗A1) / W + (A2⊗A2 + A3⊗A3) · W / r^4,   W = sqrt(eps^4 + r^4),

whose Cartesian component matrix has determinant one.  The reflected copy is
the pull-back under x1 ↦ -x1.  The far-field tensor is the leading r^-4
deviation of the eps-family from the flat metric, and the three kernel modes
are the decaying solutions of the linearized Einstein operator around g.
The metric and the modes, in both orientations, are short sums of terms
c·W^a·r^(2b)·C:xx with constant tensors C, and one closed-form kernel gives
their values and exact first and second derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import DIM, DomainError, Jet2, coordinate_jets, radius2_jet
from .sym2 import Sym2Jet

# frame matrices: A^k = J_k x
J1 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
J2 = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
J3 = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
FRAME = (J1, J2, J3)

REFLECTION = np.diag([-1.0, 1.0, 1.0, 1.0])


def _check_off_origin(x: np.ndarray, r_min: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    if np.any(r2 <= r_min * r_min):
        raise DomainError("field evaluated at (or too close to) a singular point")
    return x


@dataclass
class TensorField:
    """A pure map point ↦ symmetric 2-tensor with exact jets (Sym2Field).

    ``fn(x, order)`` returns a :class:`Sym2Jet`; ``r_min`` guards the
    coordinate singularity at the origin.
    """

    name: str
    fn: object
    r_min: float = 0.0

    def jets(self, x: np.ndarray, order: int = 2) -> Sym2Jet:
        x = _check_off_origin(x, self.r_min) if self.r_min >= 0.0 else np.asarray(x, float)
        return self.fn(x, order)

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.jets(x, order=0).val


def euclidean_metric() -> TensorField:
    def fn(x, order):
        shape = np.asarray(x).shape[:-1]
        out = Sym2Jet.zeros(shape, order)
        out.val[...] = np.eye(DIM)
        return out
    return TensorField("euclidean", fn, r_min=-1.0)


# ---------------------------------------------------------------------------
# instanton metric family
# ---------------------------------------------------------------------------

def _pair_form(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The constant C with C:xx = Ux ⊗ Vx + Vx ⊗ Ux, symmetric in (i, j)
    and in (a, b); (C:xx)_ij = C_ijab x_a x_b.  Entries are exact dyadics."""
    c = np.einsum("ia,jb->ijab", U, V)
    c = c + c.transpose(1, 0, 2, 3)
    return 0.5 * (c + c.transpose(0, 1, 3, 2))


_EYE = np.eye(DIM)
_FLAT = np.einsum("ij,ab->ijab", _EYE, _EYE)                    # s·δ
_RADIAL = 0.5 * (_pair_form(_EYE, _EYE) + _pair_form(J1, J1))   # x⊗x + A¹⊗A¹
_ANGULAR = 0.5 * (_pair_form(J2, J2) + _pair_form(J3, J3))      # A²⊗A² + A³⊗A³
_MIX2 = _pair_form(_EYE, J2) - _pair_form(J1, J3)               # x⊙A² − A¹⊙A³
_MIX3 = _pair_form(_EYE, J3) + _pair_form(J1, J2)               # x⊙A³ + A¹⊙A²
# R_ai R_bj R_ck R_dl C_abcd for the diagonal R = REFLECTION: a sign per entry
_REFLECTION_SIGNS = np.einsum("i,j,k,l->ijkl", *[np.diag(REFLECTION)] * 4)


def _field_terms(field, e4: float, reflected: bool) -> tuple:
    """Term table (c, a, b, C) of h = Σ c·W^a·s^b·C:xx for ``field``, "eh"
    or a mode index.  The reflected copy x1 ↦ -x1 conjugates each C by
    ``REFLECTION``, which only flips signs.

    The metric uses x⊗x + ΣA^k⊗A^k = s·δ to write g = s·δ/W + ε⁴(A²⊗A² +
    A³⊗A³)/(W s²): the deviation from the conformally flat part carries its
    ε⁴ explicitly instead of arising as the difference W/s² − 1/W, which
    cancels at large r.
    """
    terms = {"eh": ((1.0, -1, 0, _FLAT), (e4, -1, -2, _ANGULAR)),
             1: ((-e4, -3, 0, _RADIAL), (e4, -1, -2, _ANGULAR)),
             2: ((e4, -2, -1, _MIX2),),
             3: ((e4, -2, -1, _MIX3),)}[field]
    if not reflected:
        return terms
    return tuple((c, a, b, C * _REFLECTION_SIGNS) for c, a, b, C in terms)


def _quadratic_jets(x: np.ndarray, e4: float, terms, order: int) -> Sym2Jet:
    """Jets of h = Σ_t c_t·W^a_t·s^b_t·C_t:xx, s = |x|², W² = s² + e4.

    With f = c·W^a·s^b, f' = f·u (u = a s/W² + b/s) and
    f'' = f·(u² + a(W² − 2s²)/W⁴ − b/s²) its s-derivatives, Q = C:xx and
    (Cx)_ijk = C_ijkb x_b:

        ∂_k h     = Σ 2f' x_k Q + 2f (Cx)_k
        ∂_k∂_l h  = Σ (4f'' x_k x_l + 2f' δ_kl) Q
                      + 4f' (x_k (Cx)_l + x_l (Cx)_k) + 2f C_kl

    Only the orders up to ``order`` are formed.  Every piece pairs
    symmetric factors, so ``val`` is bitwise symmetric in (i, j) and ``d2``
    in (i, j) and in (k, l); ``val`` and ``d1`` do not depend on ``order``.
    """
    s = np.einsum("...i,...i->...", x, x)
    w2 = s * s + e4
    shape = x.shape[:-1]
    val = np.zeros(shape + (DIM, DIM))
    d1 = np.zeros(shape + (DIM,) * 3) if order >= 1 else None
    d2 = np.zeros(shape + (DIM,) * 4) if order >= 2 else None
    if order >= 2:
        xx = x[..., :, None] * x[..., None, :]
        k4 = np.zeros(shape + (DIM,) * 3)    # Σ 4f' Cx
    for c, a, b, C in terms:
        f = c * w2 ** (0.5 * a) * s ** float(b)
        cx = np.einsum("ijab,...b->...ija", C, x, optimize=False)
        q = np.einsum("...ija,...a->...ij", cx, x, optimize=False)
        val += f[..., None, None] * q
        if order == 0:
            continue
        u = a * s / w2 + b / s
        f1 = f * u
        d1 += ((2.0 * f1)[..., None, None] * q)[..., None] * x[..., None, None, :]
        d1 += (2.0 * f)[..., None, None, None] * cx
        if order == 1:
            continue
        f2 = f * (u * u + a * (w2 - 2.0 * s * s) / (w2 * w2) - b / (s * s))
        p = (4.0 * f2)[..., None, None] * xx
        p += (2.0 * f1)[..., None, None] * _EYE
        d2 += q[..., :, :, None, None] * p[..., None, None, :, :]
        d2 += (2.0 * f)[..., None, None, None, None] * C
        k4 += (4.0 * f1)[..., None, None, None] * cx
    if order >= 2:
        cross = k4[..., :, :, None, :] * x[..., None, None, :, None]
        cross += np.swapaxes(cross, -1, -2)   # numpy buffers the overlap
        d2 += cross
    return Sym2Jet(val, d1, d2)


def _instanton_field(name: str, field, eps: float,
                     reflected: bool) -> TensorField:
    e4 = eps ** 4
    terms = _field_terms(field, e4, reflected)

    def fn(x, order):
        return _quadratic_jets(x, e4, terms, order)

    return TensorField(name, fn, r_min=1e-6 * eps)


def eh_metric(eps: float, reflected: bool = False) -> TensorField:
    """The Ricci-flat instanton metric with scale eps (eps = 0: flat).

    Cartesian components carry exact second-order jets.  ``reflected`` gives
    the pull-back under x1 ↦ -x1 (the opposite orientation copy).
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return euclidean_metric()
    name = f"eh_hat(eps={eps})" if reflected else f"eh(eps={eps})"
    return _instanton_field(name, "eh", eps, reflected)


# ---------------------------------------------------------------------------
# far-field tensors (leading large-r deviation from flat, both orientations)
# ---------------------------------------------------------------------------

def farfield_scalars(reflected: bool) -> np.ndarray:
    """The far-field form table M, shape (3, 4, 4): M[c] is the matrix of
    the quadratic form n_c(y) = yᵀM[c]y of the numerators s, p, q.

    The far-field tensor is -Σ_c M[c]·n_c(y)/|y|^6, with
    s = y1²+y2²-y3²-y4², p = 2(y1 y3 ± y2 y4), q = 2(y1 y4 ∓ y2 y3).
    Every entry is 0 or ±1 and the three supports are disjoint.
    """
    m = np.zeros((3, 4, 4))
    m[0] = np.diag([1.0, 1.0, -1.0, -1.0])
    sgn = -1.0 if reflected else 1.0
    m[1, 0, 2] = m[1, 2, 0] = 1.0
    m[1, 1, 3] = m[1, 3, 1] = sgn
    m[2, 0, 3] = m[2, 3, 0] = 1.0
    m[2, 1, 2] = m[2, 2, 1] = -sgn
    return m


def farfield_numerators(y: np.ndarray, reflected: bool = False,
                        order: int = 1) -> tuple:
    """The numerators n_c(y) = yᵀM[c]y of :func:`farfield_scalars` in closed
    form, and above order 0 their gradients 2M[c]y, component axes first.

    Each row of M[c] has one nonzero entry ±1, so every gradient is a signed
    permutation of 2y.  Takes y component-first, (4, ...), and returns
    (values (3, ...), gradients (3, 4, ...) or ``None``).
    """
    sgn = -1.0 if reflected else 1.0
    y1, y2, y3, y4 = y
    n = np.empty((3,) + y.shape[1:])
    n[0] = y1 * y1 + y2 * y2 - y3 * y3 - y4 * y4
    n[1] = 2.0 * (y1 * y3 + sgn * (y2 * y4))
    n[2] = 2.0 * (y1 * y4 - sgn * (y2 * y3))
    if order == 0:
        return n, None
    scal = farfield_scalars(reflected)
    perm = np.abs(scal).argmax(axis=-1)                   # (3, 4)
    sign = np.take_along_axis(scal, perm[..., None], axis=-1)[..., 0]
    return n, (2.0 * y)[perm] * sign.reshape(sign.shape + (1,) * (y.ndim - 1))


def farfield_scalar_jets(y: np.ndarray, reflected: bool = False,
                         order: int = 2) -> tuple:
    """The three far-field scalars n_c(y)/ρ^6 at points y with exact jets.

    Returns (values (..., 3), gradients (..., 3, 4), Hessians (..., 3, 4, 4)),
    the derivatives ``None`` above ``order``.  The numerators come in closed
    form from :func:`farfield_numerators`, the derivatives from the explicit
    product rule; the work runs component-first, so every array operation
    spans the whole batch, and the results are views of that layout.  This
    is cheap enough to run over (points × lattice sites) batches.
    """
    y = np.asarray(y, dtype=float)
    yt = np.moveaxis(y, -1, 0)
    inv2 = 1.0 / np.einsum("...i,...i->...", y, y)
    inv6 = inv2 * inv2 * inv2
    n, dn = farfield_numerators(yt, reflected, min(order, 1))
    vals = np.moveaxis(n * inv6, 0, -1)
    if order == 0:
        return vals, None, None

    # ∂_k (n/ρ^6) = (∂_k n)/ρ^6 - 6 n y_k / ρ^8
    w8 = -6.0 * inv6 * inv2
    nw8 = n * w8
    grads = np.moveaxis(dn * inv6 + nw8[:, None] * yt, (0, 1), (-2, -1))
    if order == 1:
        return vals, grads, None

    # ∂_l ∂_k (n/ρ^6) = (∂²n)_{kl}/ρ^6 - 6[(∂_k n) y_l + (∂_l n) y_k + n δ_{kl}]/ρ^8
    #                   + 48 n y_k y_l / ρ^10,   with the constant ∂²n = 2M[c];
    # the y-dependent terms are u_k y_l + u_l y_k, u = -6 ∂n/ρ^8 + 24 n y/ρ^10
    u = dn * w8 + (n * (24.0 * inv6 * inv2 * inv2))[:, None] * yt
    hess = u[:, :, None] * yt
    hess += np.swapaxes(hess, 1, 2)   # numpy buffers the overlapping operand
    scal = farfield_scalars(reflected)
    c, p, q = np.nonzero(scal)
    hess[c, p, q] += np.multiply.outer(2.0 * scal[c, p, q], inv6)
    diag = np.arange(DIM)
    hess[:, diag, diag] += nw8[:, None]
    return vals, grads, np.moveaxis(hess, (0, 1, 2), (-3, -2, -1))


def farfield_expand(scalar_jets: tuple, reflected: bool) -> Sym2Jet:
    """Tensor jets -Σ_c M[c]·(c-th scalar) of the form table M of
    :func:`farfield_scalars` from the scalar jets present (values, then
    gradients and Hessians to the jet depth), laid out as
    :func:`farfield_scalar_jets` returns them.  Each entry of M is 0 or ±1
    with disjoint supports, so every component is exactly ± one scalar."""
    pat = farfield_scalars(reflected)
    return Sym2Jet(*(-np.einsum(spec, jet, pat, optimize=False)
                     for spec, jet in zip(("...n,nij->...ij",
                                           "...nk,nij->...ijk",
                                           "...nkl,nij->...ijkl"),
                                          scalar_jets)))


def farfield_jets(y: np.ndarray, reflected: bool = False, order: int = 2) -> Sym2Jet:
    """Far-field tensor at points y: components -n_c(y)/ρ^6 arranged by
    the form table of :func:`farfield_scalars`, with exact first and second
    derivatives."""
    return farfield_expand(farfield_scalar_jets(y, reflected, order)[:order + 1],
                           reflected)


def farfield_tensor(reflected: bool = False) -> TensorField:
    def fn(x, order):
        return farfield_jets(x, reflected=reflected, order=order)
    return TensorField("farfield_hat" if reflected else "farfield", fn, r_min=0.0)


# ---------------------------------------------------------------------------
# kernel modes of the linearized operator
# ---------------------------------------------------------------------------

def kernel_mode(i: int, eps: float, reflected: bool = False) -> TensorField:
    """The i-th decaying kernel tensor (i in {1, 2, 3}) at scale eps.

    Mode 1 equals half the eps-logarithmic derivative of the metric family;
    all three are trace-free, divergence-free, and annihilated by the
    Lichnerowicz operator of the matching metric (verified in tests, not
    assumed).
    """
    if i not in (1, 2, 3):
        raise ValueError("mode index must be 1, 2, or 3")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    name = f"mode{i}_hat(eps={eps})" if reflected else f"mode{i}(eps={eps})"
    return _instanton_field(name, i, eps, reflected)


# ---------------------------------------------------------------------------
# one-forms and frame vector fields
# ---------------------------------------------------------------------------

def alpha_forms(x: np.ndarray) -> list[list[Jet2]]:
    """The three contact one-forms; each has Euclidean norm 1/r.

    Returns three covectors with Jet2 components (A^k / r^2).
    """
    x = _check_off_origin(x, 0.0)
    inv_r2 = radius2_jet(x).reciprocal()
    return [[a * inv_r2 for a in ak] for ak in vector_fields(x)]


def vector_fields(x: np.ndarray) -> list[list[Jet2]]:
    """Frame vector fields V_1, V_2, V_3 (components A^k with jets)."""
    x = np.asarray(x, dtype=float)
    return [[Jet2.linear(x, J[i]) for i in range(DIM)] for J in FRAME]


def radial_vector(x: np.ndarray) -> list[Jet2]:
    """The Euler field r ∂/∂r, components x_i."""
    return coordinate_jets(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# symmetry maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryMap:
    """Affine map x ↦ lin·x + shift with signed-permutation linear part."""

    lin: tuple
    shift: tuple
    label: str = ""

    def linear(self) -> np.ndarray:
        return np.asarray(self.lin, dtype=float)

    def offset(self) -> np.ndarray:
        return np.asarray(self.shift, dtype=float)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.linear().T + self.offset()


def _lin_map(rows, label) -> SymmetryMap:
    return SymmetryMap(tuple(map(tuple, rows)), (0.0,) * 4, label)


def point_generators() -> list[SymmetryMap]:
    """The four linear generators fixing the instanton fields."""
    return [
        _lin_map([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "rot12"),
        _lin_map([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], "rot34"),
        _lin_map([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], "swap"),
        _lin_map([[0, 0, -1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 0]], "swapneg"),
    ]


def torus_generators() -> list[SymmetryMap]:
    """The eight affine generators of the periodic/reflection group."""
    maps = []
    eye = np.eye(4)
    for i in range(4):
        lin = eye.copy()
        lin[i, i] = -1.0
        shift = np.zeros(4)
        shift[i] = 1.0
        maps.append(SymmetryMap(tuple(map(tuple, lin)), tuple(shift), f"flip{i+1}"))
    for i in range(4):
        shift = np.zeros(4)
        shift[i] = 2.0
        maps.append(SymmetryMap(tuple(map(tuple, eye)), tuple(shift), f"shift{i+1}"))
    return maps


def map_collection() -> list[SymmetryMap]:
    return point_generators() + torus_generators()


def symmetry_check(field: TensorField, sym: SymmetryMap,
                   sample: np.ndarray) -> float:
    """max over the sample of |φ*h - h| in Euclidean component norm."""
    x = np.asarray(sample, dtype=float)
    lin = sym.linear()
    here = field.jets(x, order=0).val
    there = field.jets(sym.apply(x), order=0).val
    pulled = np.einsum("ai,...ab,bj->...ij", lin, there, lin, optimize=False)
    return float(np.max(np.sqrt(np.einsum("...ij,...ij->...",
                                          pulled - here, pulled - here))))
