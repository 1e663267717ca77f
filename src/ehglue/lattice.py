"""Checkerboard lattice sums.

Two parity classes of the integer lattice carry the two orientations of the
far-field tensor: the plain kernel on even sites and the reflected kernel on
odd sites.  The conditionally convergent background field is defined through
symmetric cube partial sums max|a_i| ≤ N; this module provides

* the scalar obstruction constant as cube partial sums, folded onto a
  fundamental domain of the weight's symmetry group, with Richardson
  extrapolation at the measured convergence order,
* the exact closed-form single-site flux weights,
* direct background partial sums with jets to order 2, each parity class
  of the cube summed as eight dense sub-boxes broadcast from 1-D
  coordinate tables, plain or with each site's term added to those of the
  other members of its four-element orbit, whose leading terms cancel, and
* an accelerated background field splitting the sum into an exact near part
  and a far part represented by its exact Taylor polynomial about the
  origin.

The far Taylor trick: each translated kernel component is harmonic,
trace-free and divergence-free away from its site, and a degree-K Taylor
truncation of a convergent sum of such functions keeps all three properties
exactly (truncation commutes with the constant-coefficient operators).  The
Taylor coefficients reduce to lattice moment sums Σ a^β |a|^{-e}, which by
hyperoctahedral symmetry of the far site set vanish unless every entry of β
is even and can be folded onto the nonnegative orthant, where they are
also invariant under permutations of β.  So one product pass per sorted β
over the kept far sites of that orthant, binned by the exact integer |a|²,
gives every moment of that β as a short sum over the bins.  The expansion
of |x-a|^{-6} in ⟨x,a⟩ and |x|²|a|² comes from the Gegenbauer recurrence

    k T_k = 2(k+2) A T_{k-1} - (k+4) B T_{k-2},   T_0 = 1, T_1 = 6A,

with A = ⟨x,a⟩, B = |x|²|a|², giving the exact degree-k coefficients
1/|x-a|^6 = Σ_k T_k / |a|^{6+2k}.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

# perfbench/micro.py times lattice.farfield_jets and lattice.kahan_sum by
# rebinding them here; only kahan_sum is called here (the near-site
# reduction), so its near-site split counts the reduction alone
from .fields import (farfield_coordinate_jets, farfield_expand,
                     farfield_jets, farfield_scalar_jets, farfield_scalars,
                     hessian_pairs)
from .jets import DIM, DomainError
from .quadrature import KahanAccumulator, kahan_sum
from .report import atomic_write
from .sym2 import Sym2Jet, point_blocks

# ---------------------------------------------------------------------------
# site enumeration
# ---------------------------------------------------------------------------

def parity_of(sites: np.ndarray) -> np.ndarray:
    return (sites.sum(axis=-1) & 1).astype(bool)   # True = odd


def near_sites(n0: int, odd: bool) -> np.ndarray:
    """One parity class of the cube max|a_i| ≤ n0 as an (m, 4) int array,
    in lexicographic order."""
    rng = np.arange(-n0, n0 + 1)
    cube = np.stack(np.meshgrid(*(rng,) * DIM, indexing="ij"),
                    axis=-1).reshape(-1, DIM)
    return cube[parity_of(cube) == odd]


def parity_boxes(cutoff: int, odd: bool):
    """Yield one parity class of the cube max|a_i| ≤ cutoff as eight dense
    sub-boxes, each as its four 1-D coordinate tables: per axis the even or
    the odd values of [−cutoff, cutoff], with an odd count of odd axes for
    the odd class and an even count for the even one.

    Each table runs from the ends inward, −N, N, −(N − 1), N − 1, …, 0, so
    that in a box's lexicographic order the sites nearest the origin come
    last.  Near the origin their terms are the largest, and a pairwise sum
    rounds a large term's partial sums less often when it enters last
    (measured against long double: see the tests).
    """
    ends_in = np.stack([-np.arange(cutoff, 0, -1), np.arange(cutoff, 0, -1)],
                       axis=-1).ravel()
    rng = np.append(ends_in, 0)
    split = (rng[rng % 2 == 0], rng[rng % 2 == 1])
    for axes in product((0, 1), repeat=DIM):
        if sum(axes) % 2 == odd:
            yield tuple(split[p] for p in axes)


# ---------------------------------------------------------------------------
# scalar obstruction constant
# ---------------------------------------------------------------------------

def interaction_weight(sites: np.ndarray) -> np.ndarray:
    """|a|^{-10} (|a|^4 - 6 (a1²+a2²)(a3²+a4²)), zero weight at the origin."""
    a = np.asarray(sites, dtype=float)
    r2 = np.einsum("...i,...i->...", a, a)
    front = a[..., 0] ** 2 + a[..., 1] ** 2
    back = a[..., 2] ** 2 + a[..., 3] ** 2
    safe = np.where(r2 > 0.0, r2, 1.0)
    return np.where(r2 > 0.0, (r2 * r2 - 6.0 * front * back) / safe ** 5, 0.0)


def flux_term_exact(a) -> float:
    """Exact single-site flux: 0 for even sites, 64π²·weight for odd ones."""
    a = np.asarray(a, dtype=np.int64)
    if not np.any(a):
        raise DomainError("single-site flux undefined at the origin")
    if (int(a.sum()) & 1) == 0:
        return 0.0
    return float(64.0 * np.pi ** 2 * interaction_weight(a))


OMEGA_REFERENCE = 7.7036      # omega_partial(40).extrapolated to 5 digits


@dataclass
class OmegaResult:
    cutoff: int
    partials: np.ndarray          # cumulative cube partial sums, index = n
    extrapolated: float
    uncertainty: float
    fitted_order: float

    @property
    def partial(self) -> float:
        return float(self.partials[self.cutoff])


def omega_partial(cutoff: int) -> OmegaResult:
    """Cube partial sums of the obstruction constant over odd sites.

    Terms decay like |a|^{-6} so the series converges absolutely; the cube
    partial sums are extrapolated by Richardson at the convergence order
    measured from the three partials at cutoff/4, cutoff/2, cutoff (the
    observed cube-tail order is close to 2).  The sum runs over the
    fundamental domain of :func:`omega_domain`, each site weighted by its
    orbit size, and each shell is summed pairwise in enumeration order.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    sites, orbit = omega_domain(cutoff)
    shell = sites.max(axis=-1)
    by_shell = np.argsort(shell, kind="stable")
    term = (orbit * interaction_weight(sites))[by_shell]
    bounds = np.searchsorted(shell[by_shell], np.arange(cutoff + 2))
    partials = np.cumsum([np.sum(term[lo:hi])
                          for lo, hi in zip(bounds[:-1], bounds[1:])])
    ext, unc, order = _richardson(partials, cutoff)
    return OmegaResult(cutoff, partials, ext, unc, order)


def omega_domain(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd sites of a fundamental domain of the cube max|a_i| ≤ cutoff under
    the order-128 symmetry group of :func:`interaction_weight`, with the
    size of each site's orbit.

    The group is generated by the 2^4 sign flips, the swaps within {1, 2}
    and within {3, 4}, and the exchange of those two pairs; parity and the
    shell max|a_i| are invariant.  The domain is 0 ≤ a1 ≤ a2, 0 ≤ a3 ≤ a4,
    (a1, a2) ≤ (a3, a4) lexicographically, enumerated in that order.  An
    orbit has 2^#nonzero · (1+[a1≠a2]) · (1+[a3≠a4]) · (1+[pairs differ])
    sites, a power of two, so weighting a term by it is exact.
    """
    pairs = np.stack(np.triu_indices(cutoff + 1), axis=-1)   # lexicographic
    i, j = np.triu_indices(pairs.shape[0])
    sites = np.concatenate([pairs[i], pairs[j]], axis=-1)
    sites = sites[parity_of(sites)]
    orbit = (2.0 ** np.count_nonzero(sites, axis=-1)
             * (1 + (sites[:, 0] != sites[:, 1]))
             * (1 + (sites[:, 2] != sites[:, 3]))
             * (1 + np.any(sites[:, :2] != sites[:, 2:], axis=-1)))
    return sites, orbit


def _richardson(partials: np.ndarray, n: int):
    if n < 8:
        return float(partials[n]), float(abs(partials[n] - partials[n // 2])), 0.0
    n1, n2 = n // 4, n // 2
    p1, p2, p3 = partials[n1], partials[n2], partials[n]
    d1, d2 = p2 - p1, p3 - p2
    if d2 == 0.0 or d1 / d2 <= 1.05:
        return float(p3), float(3.0 * abs(d2)), 0.0
    order = np.log2(d1 / d2) / np.log2(n2 / n1)
    corr = d2 / ((n / n2) ** order - 1.0)
    # model spread against the fixed cubic-tail fit
    corr3 = d2 / ((n / n2) ** 3 - 1.0)
    unc = max(abs(corr - corr3), 0.1 * abs(corr))
    return float(p3 + corr), float(unc), float(order)


# ---------------------------------------------------------------------------
# direct background partial sums
# ---------------------------------------------------------------------------

PAIR_MAPS = {
    # orbit generator per kernel: iterating it twice gives a ↦ -a, so the
    # four-element orbits {a, m a, -a, -m a} tile each parity class
    False: np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]),
    True: np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
}


# pairs of points × sites per direct-sum block; bounds the order-2 temporaries
DIRECT_BLOCK = 1 << 15


def _lattice_point_guard(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    frac = x - np.rint(x)
    if np.any(np.einsum("...i,...i->...", frac, frac) < 1e-24):
        raise DomainError("background sum evaluated at a lattice point")
    return x


def background_partial(x: np.ndarray, cutoff: int, order: int = 0,
                       paired: bool = False) -> Sym2Jet:
    """Direct symmetric-cube partial sum of the translated far-field tensors:
    the plain kernel on even sites plus the reflected one on odd sites.

    ``paired`` adds, site by site, the terms of the four members a, ma, −a,
    −ma of its orbit under the cancellation map m, so that the leading
    terms cancel before any sum over sites, which makes the shell
    contributions absolutely summable.  Every orbit is then visited once
    from each of its members, so the total is scaled by ¼ (exact); the
    value differs from the plain one only by rounding.
    The three far-field scalar jets are summed over the sites and expanded
    through the form table once per parity at the end.  Deterministic: the
    blocks of :func:`_site_blocks` in a fixed order, a pairwise sum over
    each block's sites and compensated accumulation across blocks.  The
    blocks do not depend on ``order``, and the kernel forms the values
    alike at every order, so the values have the same bits at every order.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    x = _lattice_point_guard(x)
    flat = x.reshape(-1, DIM)
    parts = []
    for is_odd in (False, True):
        acc = [KahanAccumulator(lead + flat.shape[:1]) for lead in
               ((3,), (3, DIM), (3, hessian_pairs()[0].size))[:order + 1]]
        for block in _site_blocks(flat, cutoff, is_odd, paired):
            jets = [farfield_coordinate_jets(y, is_odd, order) for y in block]
            for k, a in enumerate(acc):
                terms = [j[k] for j in jets]
                if paired:        # the pairs (a, ma) and (−a, −ma) first
                    terms[0] += terms[1]
                    terms[2] += terms[3]
                    terms[0] += terms[2]
                # each block's sites are the trailing axes of a fresh array:
                # np.sum reduces them pairwise
                a.add(terms[0].reshape(a.total.shape + (-1,)).sum(axis=-1))
        scale = 0.25 if paired else 1.0
        totals = (scale * a.total.reshape(a.total.shape[:-1] + x.shape[:-1])
                  for a in acc)
        parts.append(farfield_expand(tuple(totals), is_odd))
    return parts[0] + parts[1]


def background_values(x, cutoff: int, paired: bool = False) -> np.ndarray:
    """Value-only :func:`background_partial` at one point (4,) or a batch."""
    return background_partial(x, cutoff, 0, paired).val


def _site_blocks(x: np.ndarray, cutoff: int, odd: bool, paired: bool):
    """Yield, block by block, the coordinates y_i = x_i − b_i at points
    x (P, 4) over one parity class of the cube, component-first: a list of
    one 4-tuple, the block's sites b = a, or when ``paired`` of four, the
    images b = a, ma, −a, −ma under the map m of ``PAIR_MAPS``.

    Each sub-box of :func:`parity_boxes` is sliced by :func:`_box_slices`
    into blocks of at most ``DIRECT_BLOCK`` point-site pairs over all
    images (one site at least), with coordinates broadcast from the 1-D
    tables as (P, n1, 1, 1, 1) … (P, 1, 1, 1, n4): no site is listed.  The
    images are signed permutations, (g a)_i = ±a_p for one axis p per i,
    so each image's y_i broadcasts from the table of axis p with its sign,
    and every image lays its sites out by a.
    """
    maps = [np.eye(DIM, dtype=np.int64)]
    if paired:
        maps += [PAIR_MAPS[odd], -maps[0], -PAIR_MAPS[odd]]
    rows = [[(p, g[i, p]) for i, p in enumerate(np.abs(g).argmax(axis=1))]
            for g in maps]
    budget = max(1, DIRECT_BLOCK // (x.shape[0] * len(maps)))
    xs = x.T.reshape((DIM, -1) + (1,) * DIM)
    for box in parity_boxes(cutoff, odd):
        for tables in _box_slices(box, budget):
            cols = [t.reshape((-1,) + (1,) * (DIM - 1 - i))
                    for i, t in enumerate(tables)]
            yield [tuple(xs[i] - sign * cols[p] for i, (p, sign) in
                         enumerate(row)) for row in rows]


def _box_slices(tables: tuple, budget: int):
    """Split the box spanned by 1-D ``tables`` into boxes of at most
    ``budget`` sites (one site at least), in lexicographic order: slices of
    the first axis, or, where one value of it spans more, that value with
    the slices of the rest.

    The slices of an axis differ in length by one at most.  Blocks of
    near-equal size let the allocator reuse the kernel's temporaries: a
    short remainder after each full block had their pages faulted in
    afresh (243,000 minor faults against 1,400 in one cutoff-32 sum, which
    took twice as long).
    """
    inner = math.prod(t.size for t in tables[1:])
    if inner > budget and len(tables) > 1:
        for i in range(tables[0].size):
            for rest in _box_slices(tables[1:], budget):
                yield (tables[0][i:i + 1],) + rest
        return
    n = tables[0].size
    chunks = -(-n // max(1, budget // inner))
    for c in range(chunks):
        yield (tables[0][c * n // chunks:(c + 1) * n // chunks],) + tables[1:]


# ---------------------------------------------------------------------------
# far-field Taylor table
# ---------------------------------------------------------------------------

def gegenbauer_terms(kmax: int) -> list[dict[tuple[int, int], Fraction]]:
    """T_k as {(power of A, power of B): coefficient}, exact rationals."""
    terms = [{(0, 0): Fraction(1)}, {(1, 0): Fraction(6)}]
    for k in range(2, kmax + 1):
        new: dict[tuple[int, int], Fraction] = {}
        for (pa, pb), c in terms[k - 1].items():
            key = (pa + 1, pb)
            new[key] = new.get(key, Fraction(0)) + Fraction(2 * (k + 2), k) * c
        for (pa, pb), c in terms[k - 2].items():
            key = (pa, pb + 1)
            new[key] = new.get(key, Fraction(0)) - Fraction(k + 4, k) * c
        terms.append(new)
    return terms


def _multi_indices(total: int) -> list[tuple[int, int, int, int]]:
    out = []
    for i in range(total + 1):
        for j in range(total - i + 1):
            for k in range(total - i - j + 1):
                out.append((i, j, k, total - i - j - k))
    return out


@functools.cache
def monomial_table(degree: int) -> tuple:
    """The one numbering of the monomials x^μ of total degree ≤ ``degree``:
    ordered by total degree, then lexicographically.

    Returns (exponents (n_mono, 4), place, column): the monomial x^μ sits in
    column ``column[μ @ place]``, and ``column`` is -1 at codes of no
    monomial.  Far tables, the cache payload and :class:`_PolyJet` all use
    this layout; built once per degree, read-only.
    """
    exps = np.array([mu for total in range(degree + 1)
                     for mu in _multi_indices(total)], dtype=np.int64)
    place = (degree + 1) ** np.arange(DIM - 1, -1, -1)
    column = np.full((degree + 1) ** DIM, -1, dtype=np.int64)
    column[exps @ place] = np.arange(exps.shape[0])
    for a in (exps, place, column):
        a.flags.writeable = False
    return exps, place, column


def _multinomial(total: int, beta) -> float:
    from math import factorial
    num = factorial(total)
    for b in beta:
        num //= factorial(b)
    return float(num)


def far_orthant(cutoff: int, n0: int, odd: bool) -> np.ndarray:
    """The far sites n0 < max|a_i| ≤ cutoff of one parity in the nonnegative
    orthant, as a (4, sites) array in lexicographic order.

    They are the nonzero entries of a boolean mask broadcast from per-axis
    parity and shell flags, so no site outside them is ever listed.
    """
    n = np.arange(cutoff + 1)
    parity, far = np.array(False), np.array(False)
    for i in range(DIM):
        axis = n.reshape((-1,) + (1,) * (DIM - 1 - i))
        parity = parity ^ (axis & 1 == 1)
        far = far | (axis > n0)
    return np.array(np.nonzero((parity == odd) & far))


def lattice_moments(cutoff: int, n0: int, requests: set[tuple[tuple, int]],
                    odd: bool) -> dict[tuple[tuple, int], float]:
    """Σ over far sites (n0 < max|a_i| ≤ cutoff, given parity) of a^β |a|^{-e}.

    β must have all entries even (odd moments vanish by symmetry); the sum
    folds onto the nonnegative orthant with weight 2^(#nonzero coords).
    That folded site set and its weights are invariant under permutations
    of the coordinates, so M(σβ, e) = M(β, e): every request is served by
    its sorted b = β/2.  One pass per sorted b forms weight·Π a_i^{2b_i}
    over the kept sites of :func:`far_orthant`, each factor gathered from
    an (N+1)-entry table when it is used, and bins it by the exact integer
    r² = |a|² (``np.bincount`` adds each bin's terms in site order).  Each
    moment of that b is then the pairwise sum over the bins r² = 1 … 4N² of
    bin / (r²)^{e/2}.  Every term is positive, so each bin and each moment
    keeps a relative error of a few roundoff units (measured: at most
    6.2e-16 against long-double sums at cutoffs 8 and 12).
    """
    out: dict[tuple[tuple, int], float] = {}
    canonical, exponents = {}, {}
    for beta, e in requests:
        if any(b & 1 for b in beta):
            out[(beta, e)] = 0.0
        else:
            assert e % 2 == 0 and e > 0
            half = tuple(sorted(b // 2 for b in beta))
            canonical[(beta, e)] = (half, e)
            exponents.setdefault(half, set()).add(e)
    a = far_orthant(cutoff, n0, odd)
    r2 = np.einsum("is,is->s", a, a)
    weight = 2.0 ** np.count_nonzero(a, axis=0)
    squares = np.arange(cutoff + 1, dtype=float) ** 2
    bin_r2 = np.arange(1, 4 * cutoff * cutoff + 1, dtype=float)
    bin_r_e = {e: bin_r2 ** (e // 2) for e in set().union(*exponents.values())}
    term, factor = np.empty_like(weight), np.empty_like(weight)
    moment = {}
    for half in exponents:
        np.copyto(term, weight)
        for coord, b in zip(a, half):
            if b:
                # every index lies in the table: "clip" only skips the check
                np.take(squares ** b, coord, out=factor, mode="clip")
                term *= factor
        bins = np.bincount(r2, weights=term, minlength=bin_r2.size + 1)[1:]
        for e in exponents[half]:
            moment[(half, e)] = float(np.sum(bins / bin_r_e[e]))
    out.update((request, moment[key]) for request, key in canonical.items())
    return out


@functools.cache
def _taylor_plan(degree: int) -> tuple:
    """The Gegenbauer/multinomial assembly plan up to a degree, as arrays.

    Row r stands for one term w · A^m B^j of T_k expanded by the multinomial
    theorem, in the order (k, Gegenbauer term, β, ν); returns (k, e, β, ν, w)
    with e = 6 + 2k - 2j and w = coeff · c_β · c_ν.  The three numerator
    parts and both parities reuse one plan, built once per degree, read-only.
    """
    ks, es, betas, nus, ws = [], [], [], [], []
    geg = gegenbauer_terms(degree)
    for k in range(degree + 1):
        for (m, j), coeff in geg[k].items():
            assert m + 2 * j == k
            beta = np.asarray(_multi_indices(m))
            nu = np.asarray(_multi_indices(j))
            c_beta = np.array([_multinomial(m, b) for b in beta])
            c_nu = np.array([_multinomial(j, n) for n in nu])
            betas.append(np.repeat(beta, len(nu), axis=0))
            nus.append(np.tile(nu, (len(beta), 1)))
            ws.append(float(coeff) * np.repeat(c_beta, len(nu))
                      * np.tile(c_nu, len(beta)))
            ks.append(np.full(len(beta) * len(nu), k))
            es.append(np.full(len(beta) * len(nu), 6 + 2 * k - 2 * j))
    plan = tuple(np.concatenate(a) for a in (ks, es, betas, nus, ws))
    for a in plan:
        a.flags.writeable = False
    return plan


def farfield_taylor(cutoff: int, n0: int, degree: int, odd: bool):
    """Exact Taylor coefficients (about 0, degree ≤ K) of the three scalar
    far sums Σ_far n_c(x-a)/|x-a|^6 for one parity class.

    Each plan row meets each nonzero entry n_pq of each M_c in three
    branches: the moment a^(β+e_p+e_q) into x^(β+2ν) with weight w·n_pq,
    a^(β+e_q) into x^(β+2ν+e_p) with -2w·n_pq (when k+1 ≤ K), and a^β into
    x^(β+2ν+e_p+e_q) with w·n_pq (when k+2 ≤ K); a branch whose moment
    index has an odd entry vanishes.  Every coefficient is Kahan-summed over
    its contributions in plan order, straight into its column of
    :func:`monomial_table`.

    Returns the coefficients (3, n_mono), the far table's cache payload.
    """
    k, e, beta, nu, w = _taylor_plan(degree)
    scal = farfield_scalars(reflected=odd)
    eye = np.eye(DIM, dtype=np.int64)
    # the nonzero entries (c, p, q) of the three matrices, row-major per c,
    # and per entry the moment and monomial shifts of the three branches
    c, p, q = np.nonzero(scal)
    moment_shift = np.stack([eye[p] + eye[q], eye[q], 0 * eye[q]], axis=1)
    mono_shift = np.stack([0 * eye[p], eye[p], eye[p] + eye[q]], axis=1)
    bits = 1 << np.arange(DIM)
    # contributions in plan order (plan row, matrix entry, branch); a moment
    # index is all even when β and the shift have the same odd entries
    row, entry, branch = np.nonzero(
        ((beta % 2) @ bits)[:, None, None] == (moment_shift % 2) @ bits)
    keep = k[row] + branch <= degree
    row, entry, branch = row[keep], entry[keep], branch[keep]
    radix = 2 * degree + 7            # exceeds every index entry and every e
    b = beta[row] + moment_shift[entry, branch]
    _, first, key_of = np.unique(
        np.column_stack([b, e[row]]) @ radix ** np.arange(DIM, -1, -1),
        return_index=True, return_inverse=True)
    requests = [(tuple(b[i].tolist()), int(e[row[i]])) for i in first]
    del b                             # free it while the moments are summed
    moments = lattice_moments(cutoff, n0, set(requests), odd)
    scale = w[row] * np.array([1.0, -2.0, 1.0])[branch] * scal[c, p, q][entry]
    value = scale * np.array([moments[r] for r in requests])[key_of]
    mu = beta[row] + 2 * nu[row] + mono_shift[entry, branch]

    exps, place, column = monomial_table(degree)
    n_mono = exps.shape[0]
    target = c[entry] * n_mono + column[mu @ place]

    # round r adds the r-th contribution of every target, as a per-target
    # Kahan accumulation in plan order would
    by_target = np.argsort(target, kind="stable")
    counts = np.bincount(target, minlength=3 * n_mono)
    nth = np.empty_like(target)
    nth[by_target] = np.arange(target.size) - np.repeat(
        np.cumsum(counts) - counts, counts)
    by_round = np.argsort(nth, kind="stable")
    edges = np.searchsorted(nth[by_round], np.arange(nth.max() + 2))
    total = np.zeros(3 * n_mono)
    comp = np.zeros(3 * n_mono)
    for lo, hi in zip(edges[:-1], edges[1:]):
        idx = target[by_round[lo:hi]]
        y = value[by_round[lo:hi]] - comp[idx]
        t = total[idx] + y
        comp[idx] = (t - total[idx]) - y
        total[idx] = t
    return total.reshape(3, n_mono)


# ---------------------------------------------------------------------------
# polynomial evaluation with jets
# ---------------------------------------------------------------------------

class _PolyJet:
    """Evaluate scalar polynomials of degree ≤ ``degree`` with jets, their
    coefficients (n_poly, n_mono) laid out by :func:`monomial_table`.

    The derivative tables ∂_d (c x^mu) = c mu_d x^(mu - e_d) live on the
    same monomial space, the Hessian's as its ten pairs d ≤ e.  Each table
    row is a sum over its nonzero coefficients in column order, the sum the
    full row gives, since a zero term leaves a sum in that order unchanged.
    Rows with the same nonzero columns form a group, contracted over those
    columns alone against a basis x^mu = ((x1^a x2^b) x3^c) x4^d gathered
    from a table of the (a, b, c) products, multiplied in the order of the
    four-way product.
    """

    def __init__(self, degree: int, coeffs: np.ndarray):
        exps, place, column = monomial_table(degree)
        self.exps = exps
        self.coeffs = coeffs
        self.degree = degree
        # the table holds every monomial up to its degree, so mu - e_d has
        # a column
        code = exps @ place

        def derived(table):           # (..., n_mono) -> (..., 4, n_mono)
            out = np.zeros(table.shape[:-1] + (4, table.shape[-1]))
            for d in range(4):
                src = np.flatnonzero(exps[:, d])
                out[..., d, column[code[src] - place[d]]] = (
                    exps[src, d] * table[..., src])
            return out

        k, l, _ = hessian_pairs()
        grads = derived(coeffs)
        _, first, triple = np.unique(exps[:, :3] @ place[1:],
                                     return_index=True, return_inverse=True)
        self._triples = exps[first, :3].T
        self._plans = [self._plan(table, triple, exps[:, 3])
                       for table in (coeffs, grads, derived(grads)[:, k, l])]

    @staticmethod
    def _plan(table: np.ndarray, triple: np.ndarray, x4: np.ndarray):
        """One order's contraction plan: the row shape, the rows sorted by
        group, and per group of rows with equal nonzero columns its row
        slice, its columns as (a, b, c) triple and x4 power, and its
        coefficients.

        The groups' coefficients are column blocks of one (columns, rows)
        array, never contiguous along the summed columns, so numpy sums each
        output in column order at any point count (a dot product of two
        contiguous operands would be split into vector lanes).
        """
        flat = table.reshape(-1, table.shape[-1])
        members: dict[bytes, list] = {}
        for row, mask in enumerate(flat != 0):
            members.setdefault(mask.tobytes(), []).append(row)
        cols = [np.flatnonzero(np.frombuffer(mask, dtype=bool))
                for mask in members]
        coef = np.zeros((sum(c.size for c in cols), flat.shape[0]))
        groups, lo, m = [], 0, 0
        for rows, c in zip(members.values(), cols):
            r = slice(lo, lo + len(rows))
            block = coef[m:m + c.size, r]
            block[...] = flat[np.ix_(rows, c)].T
            if c.size:                  # identically zero rows stay zero
                groups.append((r, triple[c], x4[c], block))
            lo, m = r.stop, m + c.size
        by_group = np.concatenate(list(members.values()))
        return table.shape[:-1], by_group, groups

    def jets(self, x: np.ndarray, order: int = 2) -> tuple:
        """Component-first jets at points x (P, 4), as
        :func:`farfield_scalar_jets` lays them out: values (n_poly, P),
        gradients (n_poly, 4, P) and Hessian pairs (n_poly, 10, P), the
        derivatives ``None`` above ``order``."""
        xt = np.asarray(x, dtype=float).T
        n_pts = xt.shape[1]
        pw = np.ones((DIM, self.degree + 1, n_pts))
        for g in range(1, self.degree + 1):
            pw[:, g] = pw[:, g - 1] * xt
        a, b, c = self._triples
        prefix = pw[0, a]
        prefix *= pw[1, b]
        prefix *= pw[2, c]
        out = [None, None, None]
        for k, (shape, by_group, groups) in enumerate(self._plans[:order + 1]):
            rows = np.zeros((by_group.size, n_pts))
            for r, triple, x4, coef in groups:
                basis = prefix[triple]
                basis *= pw[3, x4]
                np.einsum("mp,mg->gp", basis, coef, out=rows[r],
                          optimize=False)
            ordered = np.empty_like(rows)
            ordered[by_group] = rows
            out[k] = ordered.reshape(shape + (n_pts,))
        return tuple(out)


# ---------------------------------------------------------------------------
# accelerated background field
# ---------------------------------------------------------------------------

NEAR_SHELL = 1            # sites with max|a_i| ≤ NEAR_SHELL are summed directly
TAYLOR_DEGREE = 12        # the far table's degree K (see the bound below)
# The far Taylor series converges for |x| below the nearest far site, at
# distance NEAR_SHELL + 1 = 2.  Its degree-k terms grow with the Gegenbauer
# factor C_k^(3)(1) = binom(k + 5, 5) of the |x - a|^-6 expansion, so the
# degree-K remainder of the value is ≲ binom(K + 6, 5)·(|x|/2)^(K+1) of the
# far sum, and each derivative loses about a factor K/|x| more: at degree 12
# (binom(18, 5) = 8568) 1.3e-4 at |x| = 0.5, 0.18 at the corner grid's 0.875
# and 1 at |x| = 1.  This guard keeps the series convergent; it states no
# accuracy.
MAX_RADIUS = 0.6 * (NEAR_SHELL + 1)

@dataclass
class BackgroundCache:
    """Versioned on-disk store for background data.

    File layout: magic line, a JSON header (format version, grid spec, N,
    parity, payload shape, sha256 checksum), then the payload as little-
    endian 8-byte reals in row-major order.
    """

    directory: str

    MAGIC = b"EHBG1\n"

    def path_for(self, header: dict) -> str:
        key = hashlib.sha256(
            json.dumps(header, sort_keys=True).encode()).hexdigest()[:32]
        return os.path.join(self.directory, f"{header['kind']}-{key}.ehbg")

    def load(self, header: dict) -> np.ndarray | None:
        """The stored payload, or None when the entry is missing or damaged
        (bad magic, undecodable or incomplete header, checksum or size
        mismatch); a damaged entry is rebuilt like a missing one."""
        path = self.path_for(header)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            magic = fh.read(len(self.MAGIC))
            if magic != self.MAGIC:
                return None
            line = fh.readline()
            payload = fh.read()
        try:
            meta = json.loads(line.decode())
            if hashlib.sha256(payload).hexdigest() != meta["checksum"]:
                return None
            arr = np.frombuffer(payload, dtype="<f8").reshape(meta["shape"])
        except (ValueError, KeyError, TypeError):
            return None
        return arr.copy()

    def store(self, header: dict, payload: np.ndarray) -> str:
        data = np.ascontiguousarray(payload, dtype="<f8")
        meta = dict(header)
        meta["shape"] = list(data.shape)
        meta["checksum"] = hashlib.sha256(data.tobytes()).hexdigest()
        path = self.path_for(header)
        atomic_write(path, self.MAGIC
                     + (json.dumps(meta, sort_keys=True) + "\n").encode()
                     + data.tobytes())
        return path


# the far table's algorithm version, part of its cache key: bump it whenever
# the bits that farfield_taylor returns change, so that no table stored by
# an older build is loaded in place of a fresh one
FAR_TABLE_VERSION = 3


def far_table_header(cutoff: int, odd: bool) -> dict:
    """The cache key of one parity's far table (files are named by it)."""
    return {"kind": "far-table", "version": FAR_TABLE_VERSION, "n": cutoff,
            "n0": NEAR_SHELL, "degree": TAYLOR_DEGREE,
            "parity": "odd" if odd else "even", "grid": "taylor-origin"}


def default_cache_dir() -> str:
    return os.environ.get(
        "EH_GLUE_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "eh-glue"))


class BackgroundField:
    """Combined checkerboard background with exact jets.

    Near sites (max|a_i| ≤ NEAR_SHELL) are summed directly; the remaining
    cube max|a_i| ≤ cutoff enters through its exact degree-K Taylor
    polynomial about the origin (K = TAYLOR_DEGREE), which converges for
    |x| below the nearest far site, at NEAR_SHELL + 1.  The truncation error
    is ≲ binom(K + 6, 5)·(|x|/(NEAR_SHELL + 1))^(K + 1) of the far sum (the
    Gegenbauer growth of the expansion; see MAX_RADIUS), and structurally
    harmless: the truncated tail stays harmonic, trace-free and
    divergence-free.  Jets are available for |x| ≤ MAX_RADIUS.
    """

    def __init__(self, cutoff: int, cache: BackgroundCache | None = None):
        if cutoff <= NEAR_SHELL:
            raise ValueError(f"need cutoff > {NEAR_SHELL}")
        self.cutoff = cutoff
        self.cache = cache
        self._near = {odd: near_sites(NEAR_SHELL, odd)
                      for odd in (False, True)}
        self._poly = {odd: _PolyJet(TAYLOR_DEGREE,
                                    self._load_or_build_far(odd))
                      for odd in (False, True)}

    # -- far table ---------------------------------------------------------

    def _load_or_build_far(self, odd: bool) -> np.ndarray:
        """One parity's far table: the stored one, else built and stored."""
        header = far_table_header(self.cutoff, odd)
        table = None if self.cache is None else self.cache.load(header)
        if table is None:
            table = farfield_taylor(self.cutoff, NEAR_SHELL, TAYLOR_DEGREE,
                                    odd)
            if self.cache is not None:
                self.cache.store(header, table)
        return table

    # -- evaluation ---------------------------------------------------------

    def jets(self, x: np.ndarray, order: int = 2,
             exclude_origin: bool = False) -> Sym2Jet:
        """Background jets at x: both parity classes, summed."""
        x = _lattice_point_guard(x)
        shape = x.shape[:-1]
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        if np.any(r > MAX_RADIUS):
            raise DomainError(
                f"background expansion used beyond |x| = {MAX_RADIUS:.3f}")
        flat = x.reshape(-1, 4)
        out = point_blocks(lambda p: self._eval_block(p, order, exclude_origin),
                           flat.shape[:1], flat)
        return Sym2Jet(*(a.reshape(shape + a.shape[1:]) for a in out.parts))

    def _eval_block(self, x: np.ndarray, order: int,
                    exclude_origin: bool) -> Sym2Jet:
        """Both parities at points x (P, 4), added in place onto zeros."""
        out = Sym2Jet.zeros(x.shape[:1], order)
        for odd in (False, True):
            for a, b in zip(out.parts,
                            self._eval_parity(x, odd, order, exclude_origin).parts):
                a += b
        return out

    def _eval_parity(self, x: np.ndarray, odd: bool, order: int,
                     exclude_origin: bool) -> Sym2Jet:
        """Near-site scalar jets summed in site order plus the far
        polynomial's, expanded through the form table once per point."""
        sites = self._near[odd]
        if exclude_origin and not odd:
            sites = sites[np.any(sites != 0, axis=-1)]
        # (component, site, point) layout: each site's jets are one row
        near = farfield_scalar_jets(x - sites[:, None, :].astype(float),
                                    reflected=odd, order=order)
        far = self._poly[odd].jets(x, order)
        return farfield_expand(tuple(
            kahan_sum(n, axis=-2) + f for n, f in zip(near[:order + 1], far)),
            reflected=odd)
