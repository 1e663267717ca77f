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

That kernel runs on blocks of ``sym2.POINT_BLOCK`` points
(:func:`ehglue.sym2.point_blocks`).  A point's jets have the same bits in a
batch of any size and in any block, and the arrays keep the layout of one
whole-batch call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .jets import DIM, DomainError, Jet2, coordinate_jets, radius2_jet
from .sym2 import Sym2Jet, point_blocks

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

    fn: object
    r_min: float

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
    return TensorField(fn, r_min=-1.0)


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
    So each index pair i ≤ j, and k ≤ l of ``d2``, is formed once, in the
    order of :func:`hessian_pairs`, and mirrored at the end: the same bits
    as forming all sixteen.
    """
    pk, pl, mirror = hessian_pairs()
    n = pk.size
    s = np.einsum("...i,...i->...", x, x)
    w2 = s * s + e4
    shape = x.shape[:-1]
    val = np.zeros(shape + (n,))
    d1 = np.zeros(shape + (n, DIM)) if order >= 1 else None
    d2 = np.zeros(shape + (n, n)) if order >= 2 else None
    if order >= 2:
        xx = x[..., pk] * x[..., pl]
        k4 = np.zeros(shape + (n, DIM))    # Σ 4f' Cx
    for c, a, b, C in terms:
        C = C[pk, pl]
        f = c * w2 ** (0.5 * a) * s ** float(b)
        cx = np.einsum("pab,...b->...pa", C, x, optimize=False)
        q = np.einsum("...pa,...a->...p", cx, x, optimize=False)
        val += f[..., None] * q
        if order == 0:
            continue
        u = a * s / w2 + b / s
        f1 = f * u
        d1 += ((2.0 * f1)[..., None] * q)[..., None] * x[..., None, :]
        d1 += (2.0 * f)[..., None, None] * cx
        if order == 1:
            continue
        f2 = f * (u * u + a * (w2 - 2.0 * s * s) / (w2 * w2) - b / (s * s))
        p = (4.0 * f2)[..., None] * xx
        p += (2.0 * f1)[..., None] * _EYE[pk, pl]
        d2 += q[..., :, None] * p[..., None, :]
        d2 += (2.0 * f)[..., None, None] * C[:, pk, pl]
        k4 += (4.0 * f1)[..., None, None] * cx
    if order >= 2:
        d2 += k4[..., pl] * x[..., None, pk] + k4[..., pk] * x[..., None, pl]
        d2 = np.take(d2.reshape(shape + (n * n,)),
                     (n * mirror[:, :, None, None] + mirror).ravel(), axis=-1)
        d2 = d2.reshape(shape + (DIM,) * 4)
    return Sym2Jet(np.take(val, mirror, axis=-1),
                   None if d1 is None else np.take(d1, mirror, axis=-2), d2)


def _instanton_field(field, eps: float, reflected: bool) -> TensorField:
    e4 = eps ** 4
    terms = _field_terms(field, e4, reflected)

    def fn(x, order):
        return point_blocks(lambda p: _quadratic_jets(p, e4, terms, order),
                            x.shape[:-1], x)

    return TensorField(fn, r_min=1e-6 * eps)


def eh_metric(eps: float, reflected: bool = False) -> TensorField:
    """The Ricci-flat instanton metric with scale eps (eps = 0: flat).

    Cartesian components carry exact second-order jets.  ``reflected`` gives
    the pull-back under x1 ↦ -x1 (the opposite orientation copy).
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return euclidean_metric()
    return _instanton_field("eh", eps, reflected)


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


def farfield_numerators(y, reflected: bool) -> np.ndarray:
    """The numerators n_c(y) = yᵀM[c]y of :func:`farfield_scalars` in closed
    form, component axis first.

    Takes the four coordinates y component-first, as arrays that broadcast
    together (a (4, ...) array is four of them), and returns the values
    (3, ...) on their common shape.
    """
    sgn = -1.0 if reflected else 1.0
    y1, y2, y3, y4 = y
    shape = np.broadcast(*y).shape
    n = np.empty((3,) + shape)
    # each last operation writes into n; scaling by 2 is exact, so
    # (2y1)y3 + (2 sgn y2)y4 has the bits of 2(y1 y3 + sgn(y2 y4))
    np.subtract(y1 * y1 + y2 * y2 - y3 * y3, y4 * y4, out=n[0])
    y1, y2 = 2.0 * y1, (2.0 * sgn) * y2
    np.add(y1 * y3, y2 * y4, out=n[1])
    np.subtract(y1 * y4, y2 * y3, out=n[2])
    return n


@functools.cache
def _form_plan(reflected: bool) -> tuple:
    """The form table of :func:`farfield_scalars` as the kernels use it:
    per gradient row (c, k) the one p and factor of ∂_k n_c = 2M[c]_kp y_p
    (each row of M[c] has one nonzero entry ±1, so every gradient is a
    signed permutation of 2y),
    and per Hessian pair of :func:`hessian_pairs` its nonzero constants
    (c, 2M[c]_ij) of ∂²n; formed once, as plain numbers."""
    scal = farfield_scalars(reflected)
    perm = np.abs(scal).argmax(axis=-1)
    rows = tuple((c, k, int(perm[c, k]), 2.0 * float(scal[c, k, perm[c, k]]))
                 for c, k in np.ndindex(perm.shape))
    k, l, _ = hessian_pairs()
    consts = tuple(tuple((int(c), 2.0 * float(scal[c, i, j]))
                         for c in np.flatnonzero(scal[:, i, j]))
                   for i, j in zip(k, l))
    return rows, consts


@functools.cache
def hessian_pairs() -> tuple:
    """The ten Hessian entries (k, l) with k ≤ l, in ``np.triu_indices``
    order, and the (4, 4) map from an entry (k, l) or (l, k) to its pair;
    formed once, as read-only arrays."""
    k, l = np.triu_indices(DIM)
    mirror = np.empty((DIM, DIM), dtype=np.intp)
    mirror[k, l] = mirror[l, k] = np.arange(k.size)
    for a in (k, l, mirror):
        a.flags.writeable = False
    return k, l, mirror


def farfield_scalar_jets(y: np.ndarray, reflected: bool, order: int) -> tuple:
    """The three far-field scalars of :func:`farfield_coordinate_jets` at
    points y (..., 4), the jets component-first, (3, ...) and so on."""
    return farfield_coordinate_jets(
        np.ascontiguousarray(np.moveaxis(y, -1, 0), dtype=float),
        reflected, order)


def farfield_coordinate_jets(y, reflected: bool, order: int) -> tuple:
    """The three far-field scalars n_c(y)/ρ^6 with exact jets, at points
    given by their four coordinates y = (y1, y2, y3, y4), arrays that
    broadcast together.

    Returns component-first arrays on the common shape: values (3, ...),
    gradients (3, 4, ...) and the ten Hessian pairs (3, 10, ...) of
    :func:`hessian_pairs`, the derivatives ``None`` above ``order``;
    :func:`farfield_expand` mirrors the pairs.  The numerators come in
    closed form from :func:`farfield_numerators`, ρ² as
    (y1² + y3²) + (y2² + y4²), the derivatives from the explicit product
    rule, and every array operation spans the whole batch.  Coordinates
    broadcast from 1-D tables, y_i = x_i − a_i over a box of sites, form
    only the products that need the full box; laid out (point, site), each
    point's jets are contiguous rows.  Every operation is elementwise, so a
    point's jets have the same bits in any layout, and its values the same
    bits at every order.
    """
    y1, y2, y3, y4 = y
    rho2 = (y1 * y1 + y3 * y3) + (y2 * y2 + y4 * y4)
    inv2 = 1.0 / rho2
    inv6 = inv2 * inv2 * inv2
    n = farfield_numerators(y, reflected)
    vals = n * inv6
    if order == 0:
        return vals, None, None

    # ∂_k (n/ρ^6) = (∂_k n)/ρ^6 - 6 n y_k / ρ^8, each row ∂_k n_c = ±2y_p
    # of the form plan written straight into place (±2 scales exactly)
    rows = _form_plan(reflected)[0]
    w8 = -6.0 * inv6 * inv2
    nw8 = n * w8
    grads = np.empty((3, DIM) + n.shape[1:])
    for c, k, p, factor in rows:
        np.multiply(y[p] * factor, inv6, out=grads[c, k])
    for k in range(DIM):
        grads[:, k] += nw8 * y[k]
    if order == 1:
        return vals, grads, None

    # ∂_l ∂_k (n/ρ^6) = (∂²n)_{kl}/ρ^6 - 6[(∂_k n) y_l + (∂_l n) y_k + n δ_{kl}]/ρ^8
    #                   + 48 n y_k y_l / ρ^10,   with the constant ∂²n = 2M[c];
    # the y-dependent terms are u_k y_l + u_l y_k, u = -6 ∂n/ρ^8 + 24 n y/ρ^10
    u = np.empty_like(grads)
    for c, k, p, factor in rows:
        np.multiply(y[p] * factor, w8, out=u[c, k])
    n24 = n * (24.0 * inv6 * inv2 * inv2)
    for k in range(DIM):
        u[:, k] += n24 * y[k]
    k, l, _ = hessian_pairs()
    hess = np.empty((3, k.size) + n.shape[1:])
    for pair, (i, j) in enumerate(zip(k, l)):
        h = hess[:, pair]
        np.multiply(u[:, i], y[j], out=h)
        h += u[:, j] * y[i]
        for c, const in _form_plan(reflected)[1][pair]:
            h[c] += const * inv6
        if i == j:
            h += nw8
    return vals, grads, hess


def farfield_expand(scalar_jets: tuple, reflected: bool) -> Sym2Jet:
    """Tensor jets -Σ_c M[c]·(c-th scalar) of the form table M of
    :func:`farfield_scalars` from the scalar jets present (values, then
    gradients and Hessian pairs to the jet depth), laid out as
    :func:`farfield_scalar_jets` returns them; the tensors come point-first.
    Each entry of M is 0 or ±1 with disjoint supports, so every component
    is exactly ± one scalar, and each Hessian pair fills both (k, l) and
    (l, k)."""
    pat = farfield_scalars(reflected)
    jets = list(scalar_jets)
    if len(jets) > 2:
        jets[2] = jets[2][:, hessian_pairs()[2]]
    return Sym2Jet(*(-np.einsum(spec, jet, pat, optimize=False)
                     for spec, jet in zip(("n...,nij->...ij",
                                           "nk...,nij->...ijk",
                                           "nkl...,nij->...ijkl"),
                                          jets)))


def farfield_jets(y: np.ndarray, reflected: bool = False, order: int = 2) -> Sym2Jet:
    """Far-field tensor at points y: components -n_c(y)/ρ^6 arranged by
    the form table of :func:`farfield_scalars`, with exact first and second
    derivatives."""
    return farfield_expand(farfield_scalar_jets(y, reflected, order)[:order + 1],
                           reflected)


def farfield_tensor(reflected: bool = False) -> TensorField:
    def fn(x, order):
        return farfield_jets(x, reflected=reflected, order=order)
    return TensorField(fn, r_min=0.0)


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
    return _instanton_field(i, eps, reflected)


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

    def linear(self) -> np.ndarray:
        return np.asarray(self.lin, dtype=float)

    def offset(self) -> np.ndarray:
        return np.asarray(self.shift, dtype=float)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.linear().T + self.offset()

    def pull_back(self, values: np.ndarray) -> np.ndarray:
        """Lᵀ·h·L of tensor values h [..., 4, 4], L the linear part (exact:
        every entry is one signed entry of h)."""
        lin = self.linear()
        return lin.T @ values @ lin


def _lin_map(rows) -> SymmetryMap:
    return SymmetryMap(tuple(map(tuple, rows)), (0.0,) * 4)


def point_generators() -> list[SymmetryMap]:
    """The four linear generators fixing the instanton fields."""
    return [
        _lin_map([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        _lin_map([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
        _lin_map([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        _lin_map([[0, 0, -1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 0]]),
    ]


@functools.cache
def point_group() -> np.ndarray:
    """The 64 signed-permutation matrices [64, 4, 4] generated by
    :func:`point_generators`, the identity first and the rest in the order
    of a breadth-first closure under right multiplication by the generators;
    built once per process, read-only."""
    gens = [m.linear() for m in point_generators()]
    group, seen = [np.eye(DIM)], {np.eye(DIM).tobytes()}
    for elem in group:     # grows while it is walked
        for gen in gens:
            prod = elem @ gen + 0.0     # no -0.0 entries in the keys
            if prod.tobytes() not in seen:
                seen.add(prod.tobytes())
                group.append(prod)
    out = np.stack(group)
    out.flags.writeable = False
    return out


def torus_generators() -> list[SymmetryMap]:
    """The eight affine generators of the periodic/reflection group."""
    maps = []
    eye = np.eye(4)
    for i in range(4):
        lin = eye.copy()
        lin[i, i] = -1.0
        shift = np.zeros(4)
        shift[i] = 1.0
        maps.append(SymmetryMap(tuple(map(tuple, lin)), tuple(shift)))
    for i in range(4):
        shift = np.zeros(4)
        shift[i] = 2.0
        maps.append(SymmetryMap(tuple(map(tuple, eye)), tuple(shift)))
    return maps


def map_collection() -> list[SymmetryMap]:
    return point_generators() + torus_generators()


def symmetry_check(field: TensorField, sym: SymmetryMap,
                   sample: np.ndarray) -> float:
    """max over the sample of |φ*h - h| in Euclidean component norm."""
    x = np.asarray(sample, dtype=float)
    here = field.jets(x, order=0).val
    pulled = sym.pull_back(field.jets(sym.apply(x), order=0).val)
    return float(np.max(np.sqrt(np.einsum("...ij,...ij->...",
                                          pulled - here, pulled - here))))
