"""Symmetric (0,2)-tensor values and their coordinate jets.

``Sym2Jet`` stores a batch of symmetric tensors with first and second
coordinate derivatives:

    val[..., i, j]          h_ij
    d1[..., i, j, k]        ∂_k h_ij
    d2[..., i, j, k, l]     ∂_k ∂_l h_ij

``d1``/``d2`` may be ``None`` when a caller only needs lower jet depth (the
background lattice sums are much cheaper at value+gradient level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import DIM, Jet2


@dataclass
class Sym2Jet:
    val: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None

    @property
    def order(self) -> int:
        return 0 if self.d1 is None else (1 if self.d2 is None else 2)

    @staticmethod
    def zeros(shape, order: int = 2) -> "Sym2Jet":
        return Sym2Jet(
            np.zeros(shape + (DIM, DIM)),
            np.zeros(shape + (DIM, DIM, DIM)) if order >= 1 else None,
            np.zeros(shape + (DIM, DIM, DIM, DIM)) if order >= 2 else None,
        )

    def __add__(self, other: "Sym2Jet") -> "Sym2Jet":
        order = min(self.order, other.order)
        return Sym2Jet(
            self.val + other.val,
            self.d1 + other.d1 if order >= 1 else None,
            self.d2 + other.d2 if order >= 2 else None,
        )

    def __sub__(self, other: "Sym2Jet") -> "Sym2Jet":
        order = min(self.order, other.order)
        return Sym2Jet(
            self.val - other.val,
            self.d1 - other.d1 if order >= 1 else None,
            self.d2 - other.d2 if order >= 2 else None,
        )

    def scaled(self, c: float) -> "Sym2Jet":
        return Sym2Jet(
            c * self.val,
            c * self.d1 if self.d1 is not None else None,
            c * self.d2 if self.d2 is not None else None,
        )

    def scaled_by_jet(self, s: Jet2) -> "Sym2Jet":
        """Product s(x) · h(x) with exact jets (s a scalar jet)."""
        v = s.value
        val = v[..., None, None] * self.val
        d1 = d2 = None
        if self.order >= 1:
            d1 = (v[..., None, None, None] * self.d1
                  + s.grad[..., None, None, :] * self.val[..., :, :, None])
        if self.order >= 2:
            cross = (s.grad[..., None, None, :, None]
                     * self.d1[..., :, :, None, :])
            d2 = (v[..., None, None, None, None] * self.d2
                  + cross + np.swapaxes(cross, -1, -2)
                  + s.hess[..., None, None, :, :] * self.val[..., :, :, None, None])
        return Sym2Jet(val, d1, d2)


def pair(ginv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g^{ik} g^{jl} a_ij b_kl for an already inverted metric ginv."""
    return np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, a, b,
                     optimize=False)


class SingularMetricError(np.linalg.LinAlgError):
    pass


def inverse_metric(g: np.ndarray) -> np.ndarray:
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(g)
        raise SingularMetricError(
            f"metric inversion failed (condition number {np.max(cond):.3e})"
        ) from exc
    if not np.all(np.isfinite(ginv)):
        cond = np.linalg.cond(g)
        raise SingularMetricError(
            f"metric inverse not finite (condition number {np.max(cond):.3e})")
    return ginv
