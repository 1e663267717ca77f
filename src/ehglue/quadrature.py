"""Quadrature for S^3 surface integrals and radial integrals: rules are
plain (nodes, weights) arrays, integrals are functions.

The S^3 rule (:func:`s3_quadrature`) is a hyperspherical product rule on the
unit sphere: Gauss rules in the cosines of the two polar angles (with the
sin^2 ψ and sin θ measure factors folded into the weights, i.e.
Gauss-Gegenbauer and Gauss-Legendre) and a uniform periodic rule in the
azimuth.  This integrates every polynomial of degree ≤ order exactly up to
roundoff, and the total weight is the exact surface measure 2π².  Every
caller takes its nodes from :func:`sphere_rule`, which caches the unit rule,
full or folded by the point group, and scales it to the radius ρ (total
weight 2π²ρ³).  Sweeps over many spheres stack consecutive node sets into
batches of at most ``sym2.POINT_BLOCK`` points (:func:`node_batches`), so
each batch costs one evaluation of the fields.

:func:`radial_integral` integrates over composite Gauss panels plus an
analytic power-law tail, for integrands that decay like r^(3-p) (a field
decaying like r^(-p) against the r^3 volume factor).

All reductions go through compensated (Kahan) accumulation in a fixed
deterministic order, so results are independent of chunking and threading.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import point_group
from .sym2 import POINT_BLOCK

KAHAN_CHUNK = 1 << 18       # terms per pairwise np.sum in a chunked sum
PANEL_POINTS = 32           # Gauss points per radial panel (coarse: half)
TAIL_DOUBLINGS = 40         # geometric panels of an infinite radial range


# ---------------------------------------------------------------------------
# compensated summation
# ---------------------------------------------------------------------------

class KahanAccumulator:
    """Streaming compensated sum; works elementwise on arrays."""

    def __init__(self, shape=()):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, term):
        term = np.asarray(term, dtype=float)
        y = term - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t
        return self

    def result(self):
        return self.total if self.total.ndim else float(self.total)


def kahan_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Compensated sum along one axis, iterating in index order."""
    values = np.asarray(values, dtype=float)
    values = np.moveaxis(values, axis, 0)
    acc = KahanAccumulator(values.shape[1:])
    for row in values:
        acc.add(row)
    return acc.total


def chunked_kahan_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Deterministic Σ a_i b_i: pairwise np.sum per chunk, Kahan across chunks."""
    acc = KahanAccumulator()
    for lo in range(0, a.shape[0], KAHAN_CHUNK):
        acc.add(np.sum(a[lo:lo + KAHAN_CHUNK] * b[lo:lo + KAHAN_CHUNK]))
    return acc.result()


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def _chebyshev2(n: int):
    """Gauss rule for weight sqrt(1-u^2) on [-1, 1]."""
    k = np.arange(1, n + 1, dtype=float)
    theta = k * np.pi / (n + 1)
    return np.cos(theta), (np.pi / (n + 1)) * np.sin(theta) ** 2


def s3_quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the product rule on the unit 3-sphere.

    order columns of Gauss nodes in each polar cosine and 2*order uniform
    azimuth points; node count 2*order^3.  Exact (to roundoff) for
    polynomials of degree ≤ order; total weight 2π².
    """
    if order < 4:
        raise ValueError("s3_quadrature needs order >= 4")
    u1, w1 = _chebyshev2(order)           # u1 = cos ψ, weight carries sin²ψ
    u2, w2 = np.polynomial.legendre.leggauss(order)   # u2 = cos θ
    nphi = 2 * order
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = 2.0 * np.pi / nphi

    U1, U2, PHI = np.meshgrid(u1, u2, phi, indexing="ij")
    S1 = np.sqrt(1.0 - U1 ** 2)
    S2 = np.sqrt(1.0 - U2 ** 2)
    nodes = np.stack([
        U1,
        S1 * U2,
        S1 * S2 * np.cos(PHI),
        S1 * S2 * np.sin(PHI),
    ], axis=-1).reshape(-1, 4)
    W = (w1[:, None, None] * w2[None, :, None]
         * np.full((1, 1, nphi), wphi))
    return nodes, W.reshape(-1)


FOLD_KEY = 1e-9         # node coordinates are matched on a grid this fine
FOLD_MATCH = 1e-12      # largest mismatch of a matched node image


def _orbit_labels(nodes: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Per node, the lowest node index of its orbit under the elements of
    group that map the node set onto itself (its stabilizer).

    Coordinates are rounded to integer keys on a grid FOLD_KEY·ρ (ρ the
    largest node norm), which a signed permutation maps exactly; an element
    joins when the sorted image keys equal the sorted node keys (a
    bijection) and every matched image lies within FOLD_MATCH·ρ of its node.
    Orbits are the connected classes of the joined elements' node maps, so
    they are those of the subgroup the stabilizer generates.
    """
    scale = float(np.max(np.sqrt(np.einsum("ij,ij->i", nodes, nodes))))
    keys = np.rint(nodes / (FOLD_KEY * scale)).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    columns = np.sort(keys, axis=0)
    maps = []
    for lin in group:
        perm, sign = np.nonzero(lin)[1], lin.sum(axis=1).astype(np.int64)
        # each image column must hold the values of its node column
        if not all(np.array_equal(columns[:, j], columns[::s, p] * s)
                   for j, (p, s) in enumerate(zip(perm, sign))):
            continue
        image = keys[:, perm] * sign            # the keys of nodes @ lin.T
        img_order = np.lexsort(image.T[::-1])
        if not np.array_equal(image[img_order], sorted_keys):
            continue
        to = np.empty_like(order)
        to[img_order] = order                   # node i maps onto node to[i]
        mismatch = np.max(np.abs(nodes[:, perm] * sign - nodes[to]))
        if mismatch > FOLD_MATCH * scale:
            continue
        maps.append(to)
    label = np.arange(nodes.shape[0])
    while True:
        new = label.copy()
        for to in maps:
            np.minimum.at(new, to, label)
            np.minimum(new, new[to], out=new)
        if np.array_equal(new, label):
            return label
        label = new


def fold_rule(nodes: np.ndarray, weights: np.ndarray,
              group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(representatives, orbit weights) of a rule folded by the stabilizer
    in group (signed-permutation matrices [k, 4, 4]) of its node set.

    A representative is the lowest-index node of its orbit, bit for bit,
    and representatives keep the node order; an orbit's weight is the sum
    of its members' weights, added in index order.  Σ w f over the rule
    equals Σ (orbit weight)·f(representative) for every integrand f that
    the group leaves invariant.
    """
    label = _orbit_labels(nodes, group)
    reps, size = np.unique(label, return_counts=True)
    members = np.argsort(label, kind="stable")   # by orbit, index order
    start = np.cumsum(size) - size
    total = weights[members[start]]
    for k in range(1, int(np.max(size))):
        more = size > k
        total[more] += weights[members[start[more] + k]]
    return nodes[reps], total


def frozen_rule(nodes: np.ndarray, weights: np.ndarray, folded: bool):
    """(nodes, weights), or their fold by ``fields.point_group()``
    (:func:`fold_rule`), made read-only."""
    if folded:
        nodes, weights = fold_rule(nodes, weights, point_group())
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _unit_rule(order: int, folded: bool) -> tuple[np.ndarray, np.ndarray]:
    """s3_quadrature(order), full or folded as in :func:`frozen_rule`;
    built once per process."""
    return frozen_rule(*s3_quadrature(order), folded)


def sphere_rule(order: int, radius: float, folded: bool):
    """The one source of S³ nodes: (nodes, weights) of the unit rule
    s3_quadrature(order), or, folded, its orbit representatives and orbit
    weights (:func:`fold_rule`), scaled to the radius; the weights then
    approximate the Euclidean surface measure of |x| = radius.  Fold only
    integrands that the point group leaves invariant."""
    if radius <= 0.0:
        raise ValueError("sphere_rule needs radius > 0")
    nodes, weights = _unit_rule(order, folded)
    return nodes * radius, weights * radius ** 3


def node_batches(node_sets):
    """Consecutive node sets [n_i, 4] stacked into batches of at most
    ``POINT_BLOCK`` points, a larger set forming a batch of its own: yields
    (stacked nodes, one slice into them per set of the batch), the sets in
    order.  A batch fits one block of ``sym2.point_blocks``, so a sweep
    evaluates each batch in one call per field without holding more than a
    block's (or one set's) temporaries; a pointwise kernel gives every node
    the bits of a per-set call.
    """
    batch, size = [], 0
    for nodes in node_sets:
        if batch and size + nodes.shape[0] > POINT_BLOCK:
            yield _stacked(batch)
            batch, size = [], 0
        batch.append(nodes)
        size += nodes.shape[0]
    if batch:
        yield _stacked(batch)


def _stacked(batch: list):
    """(the node sets of batch concatenated, each set's slice)."""
    ends = np.cumsum([nodes.shape[0] for nodes in batch]).tolist()
    slices = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
    return (batch[0] if len(batch) == 1 else np.concatenate(batch)), slices


def gauss_panel(a: float, b: float, n: int):
    """The n-point Gauss-Legendre rule on [a, b]: (nodes, weights)."""
    u, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * u, half * w


def radial_integral(f, a: float, b: float, decay_power: float,
                    scale: float) -> tuple[float, float]:
    """(∫_a^b f(r) dr, error estimate) by composite Gauss panels: eight
    equal panels of [a, b], or for b = np.inf a first panel of length
    max(scale, a + scale) - a and TAIL_DOUBLINGS geometric ones.

    For infinite b the integrand must behave like C r^(3-p) with
    p = decay_power > 4 (a field of decay r^(-p) times the r^3 measure);
    beyond the last panel the tail is added analytically and its own error
    is estimated from one doubling further out.
    """
    if a < 0.0:
        raise ValueError("radial_integral needs a >= 0")
    infinite = np.isinf(b)
    if infinite and decay_power <= 4.0:
        raise ValueError("non-integrable tail: decay power must exceed 4 "
                         "for an infinite upper limit")
    edges = [a]
    if infinite:
        r = max(scale, a + scale)
        edges.append(r)
        for _ in range(TAIL_DOUBLINGS):
            r *= 2.0
            edges.append(r)
    else:
        n_panels = 8
        edges.extend(a + (b - a) * (k + 1) / n_panels for k in range(n_panels))
    # fine and coarse rules share one node list; the coarse rule (half the
    # Gauss points per panel) carries zero fine-weights and vice versa, so a
    # single integrand evaluation yields both values and an error estimate.
    nodes, weights, coarse = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs, ws = gauss_panel(lo, hi, PANEL_POINTS)
        xc, wc = gauss_panel(lo, hi, PANEL_POINTS // 2)
        nodes.extend([xs, xc])
        weights.extend([ws, np.zeros_like(wc)])
        coarse.extend([np.zeros_like(ws), wc])
    fx = np.asarray(f(np.concatenate(nodes)), dtype=float)
    val = chunked_kahan_dot(np.concatenate(weights), fx)
    est = abs(val - chunked_kahan_dot(np.concatenate(coarse), fx))
    if infinite:
        # f ≈ C r^(3-p) beyond the last node: ∫_R^∞ f = f(R) R / (p-4).
        r0 = edges[-1]
        tail = float(f(np.array([r0]))[0]) * r0 / (decay_power - 4.0)
        # empirical tail error: re-estimate from one doubling further out
        mid_nodes, mid_w = gauss_panel(r0, 2.0 * r0, PANEL_POINTS)
        mid = chunked_kahan_dot(mid_w, np.asarray(f(mid_nodes), dtype=float))
        tail2 = (float(f(np.array([2.0 * r0]))[0]) * 2.0 * r0
                 / (decay_power - 4.0))
        val += tail
        est += abs(tail - (mid + tail2))
    return val, est


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept with explicit deterministic sums."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    sx, sy = kahan_sum(x, 0), kahan_sum(y, 0)
    sxx = kahan_sum(x * x, 0)
    sxy = kahan_sum(x * y, 0)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return float(slope), float(intercept)
