"""Second-order jet arithmetic in four Cartesian coordinates.

A :class:`Jet2` carries a scalar value together with its gradient and Hessian
with respect to the four coordinates, propagated exactly through arithmetic.
Jets carry the scalar pieces that are composed at run time: the gluing
cutoff, the frame vector fields and one-forms, and the obstruction kernels.
The instanton fields and the far-field tensor have closed-form derivatives
of their own (see :mod:`ehglue.fields`).  Either way metric derivatives (and
hence curvature) are exact to roundoff; finite differences are kept only as
a cross-check oracle (see :mod:`ehglue.curvature`).

Jets are batched: ``value`` has an arbitrary leading shape ``S``, ``grad``
has shape ``S + (4,)`` and ``hess`` has shape ``S + (4, 4)``.  The Hessian is
symmetric by construction; every operation below only ever adds symmetric
pieces (``sym_outer`` pairs commute in floating point), so symmetry holds
bitwise, not just to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 4


class DomainError(ValueError):
    """Evaluation requested at a point outside a field's validity region."""


def sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ⊗ b + b ⊗ a on the last axis.  Bitwise symmetric."""
    return a[..., :, None] * b[..., None, :] + b[..., :, None] * a[..., None, :]


@dataclass
class Jet2:
    """Truncated second-order Taylor data of a scalar function of x ∈ R^4."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(c, shape) -> "Jet2":
        v = np.broadcast_to(np.asarray(c, dtype=float), shape).copy()
        return Jet2(v, np.zeros(shape + (DIM,)), np.zeros(shape + (DIM, DIM)))

    @staticmethod
    def coordinate(x: np.ndarray, i: int) -> "Jet2":
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        g = np.zeros(shape + (DIM,))
        g[..., i] = 1.0
        return Jet2(x[..., i].copy(), g, np.zeros(shape + (DIM, DIM)))

    @staticmethod
    def linear(x: np.ndarray, coeffs) -> "Jet2":
        """Jet of x ↦ Σ coeffs_i x_i for constant coefficients."""
        x = np.asarray(x, dtype=float)
        c = np.asarray(coeffs, dtype=float)
        shape = x.shape[:-1]
        g = np.broadcast_to(c, shape + (DIM,)).copy()
        return Jet2(x @ c, g, np.zeros(shape + (DIM, DIM)))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad,
                        self.hess + other.hess)
        return Jet2(self.value + other, self.grad.copy(), self.hess.copy())

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.grad - other.grad,
                        self.hess - other.hess)
        return Jet2(self.value - other, self.grad.copy(), self.hess.copy())

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            v1, v2 = self.value, other.value
            hess = (v1[..., None, None] * other.hess
                    + v2[..., None, None] * self.hess
                    + sym_outer(self.grad, other.grad))
            return Jet2(v1 * v2,
                        v1[..., None] * other.grad + v2[..., None] * self.grad,
                        hess)
        c = np.asarray(other, dtype=float)
        return Jet2(self.value * c, self.grad * c[..., None],
                    self.hess * c[..., None, None])

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.value
        inv = 1.0 / v
        inv2 = inv * inv
        grad = -self.grad * inv2[..., None]
        hess = (-self.hess * inv2[..., None, None]
                + sym_outer(self.grad, self.grad) * (inv2 * inv)[..., None, None])
        return Jet2(inv, grad, hess)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self):
        s = np.sqrt(self.value)
        half_inv_s = 0.5 / s
        grad = self.grad * half_inv_s[..., None]
        hess = (self.hess * half_inv_s[..., None, None]
                - sym_outer(self.grad, self.grad)
                * (0.125 / (self.value * s))[..., None, None])
        return Jet2(s, grad, hess)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Jet2 powers take integer exponents")
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Jet2.constant(1.0, self.value.shape)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def copy(self):
        return Jet2(self.value.copy(), self.grad.copy(), self.hess.copy())


def coordinate_jets(x: np.ndarray) -> list[Jet2]:
    return [Jet2.coordinate(x, i) for i in range(DIM)]


def radius2_jet(x: np.ndarray) -> Jet2:
    """Jet of |x|^2: gradient 2x, Hessian 2I."""
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1]
    hess = np.broadcast_to(2.0 * np.eye(DIM), shape + (DIM, DIM)).copy()
    return Jet2(np.einsum("...i,...i->...", x, x), 2.0 * x, hess)


def jet_radius(x: np.ndarray) -> Jet2:
    """Jet of the radial coordinate r = |x|.

    Value |x|, gradient x/|x|, Hessian (I - x⊗x/|x|^2)/|x|; raises
    :class:`DomainError` at the origin, where r is singular.
    """
    r2 = radius2_jet(x)
    if np.any(r2.value <= 0.0):
        raise DomainError("radial coordinate evaluated at the origin")
    return r2.sqrt()
