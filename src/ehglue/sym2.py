"""Symmetric (0,2)-tensor values and their coordinate jets.

``Sym2Jet`` stores a batch of symmetric tensors with first and second
coordinate derivatives:

    val[..., i, j]          h_ij
    d1[..., i, j, k]        ∂_k h_ij
    d2[..., i, j, k, l]     ∂_k ∂_l h_ij

``d1``/``d2`` may be ``None`` when a caller only needs lower jet depth (the
background lattice sums are much cheaper at value+gradient level).  The
depth is this class's business: indexed reads and writes, truncation and
the arithmetic below act on the parts present, so callers never test it.

:func:`point_blocks` runs the pointwise geometry kernels (instanton jets,
background jets, curvature, Δ_L, divergence and trace) on POINT_BLOCK
points at a time, so that their temporaries stay in cache.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .jets import DIM, Jet2

POINT_BLOCK = 256         # points per block of point_blocks


@dataclass
class Sym2Jet:
    val: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None

    @property
    def order(self) -> int:
        return 0 if self.d1 is None else (1 if self.d2 is None else 2)

    @property
    def parts(self) -> tuple:
        """(val, d1, d2) to the jet depth: the arrays that are present."""
        return (self.val, self.d1, self.d2)[:self.order + 1]

    @staticmethod
    def zeros(shape, order: int = 2) -> "Sym2Jet":
        return Sym2Jet(*(np.zeros(shape + (DIM,) * (2 + k))
                         for k in range(order + 1)))

    def __getitem__(self, index) -> "Sym2Jet":
        return Sym2Jet(*(a[index] for a in self.parts))

    def __setitem__(self, index, jet: "Sym2Jet"):
        """self[index] = jet, to the jet depth of self."""
        if jet.order < self.order:
            raise ValueError(f"cannot write an order-{jet.order} jet into "
                             f"an order-{self.order} one")
        for a, b in zip(self.parts, jet.parts):
            a[index] = b

    def truncated(self, order: int) -> "Sym2Jet":
        """The same arrays, to jet depth at most ``order``."""
        return Sym2Jet(*self.parts[:order + 1])

    def __add__(self, other: "Sym2Jet") -> "Sym2Jet":
        return Sym2Jet(*(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other: "Sym2Jet") -> "Sym2Jet":
        return Sym2Jet(*(a - b for a, b in zip(self.parts, other.parts)))

    def scaled(self, c: float) -> "Sym2Jet":
        return Sym2Jet(*(c * a for a in self.parts))

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


def _tree(fn, obj, *more):
    """fn over the arrays of obj, an array, None, or a tuple or dataclass of
    them, paired leaf by leaf with the like-built ``more``; the result is
    built like obj."""
    if obj is None:
        return None
    if isinstance(obj, tuple):
        return tuple(_tree(fn, *parts) for parts in zip(obj, *more))
    if dataclasses.is_dataclass(obj):
        return type(obj)(*(_tree(fn, *(getattr(o, f.name) for o in (obj, *more)))
                           for f in dataclasses.fields(obj)))
    return fn(obj, *more)


def _empty_laid_out_like(block: np.ndarray, n: int) -> np.ndarray:
    """An empty (n, ...) array with the axis order in memory of ``block``:
    einsum sums in stride order, so a stitched result keeps the layout
    that a single call would have returned."""
    order = np.argsort([-s for s in block.strides], kind="stable")
    shape = (n,) + block.shape[1:]
    buf = np.empty([shape[k] for k in order], dtype=block.dtype)
    return buf.transpose(np.argsort(order))


def point_blocks(kernel, shape: tuple, *args):
    """kernel(*args) for a batch of points of leading shape ``shape``, run
    on POINT_BLOCK points at a time.

    Every array in args (arrays, tuples and dataclasses of arrays, or None)
    leads with ``shape``; kernel returns the same kinds, each array leading
    with its argument's batch.  A batch of at most POINT_BLOCK points goes
    to the kernel as it is.  A larger one is flattened and sliced, and each
    block's results are written into arrays laid out in memory like the
    first block's, then reshaped to ``shape``.  For a kernel whose
    per-point bits do not depend on its batch, the result has the bits and
    the strides of one whole-batch call.
    """
    n = math.prod(shape)
    if n <= POINT_BLOCK:
        return kernel(*args)
    lead = len(shape)
    flat = _tree(lambda a: a.reshape((n,) + a.shape[lead:]), args)
    out = None

    def put(dst, src):
        dst[sl] = src

    for lo in range(0, n, POINT_BLOCK):
        sl = slice(lo, lo + POINT_BLOCK)
        part = kernel(*_tree(lambda a: a[sl], flat))
        if out is None:
            out = _tree(lambda a: _empty_laid_out_like(a, n), part)
        _tree(put, out, part)
    return _tree(lambda a: a.reshape(shape + a.shape[1:]), out)


def raised(ginv: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a^{kl} = g^{ik} g^{jl} a_ij for an already inverted metric ginv."""
    left = np.einsum("...ik,...ij->...kj", ginv, a, optimize=False)
    return np.einsum("...kj,...jl->...kl", left, ginv, optimize=False)


def pair(ginv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g^{ik} g^{jl} a_ij b_kl for an already inverted metric ginv."""
    return np.einsum("...kl,...kl->...", raised(ginv, a), b, optimize=False)


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
