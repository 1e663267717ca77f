"""Checkerboard lattice sums.

Two parity classes of the integer lattice carry the two orientations of the
far-field tensor: the plain kernel on even sites and the reflected kernel on
odd sites.  The conditionally convergent background field is defined through
symmetric cube partial sums max|a_i| ≤ N; this module provides

* the scalar obstruction constant as cube partial sums, folded onto a
  fundamental domain of the weight's symmetry group, with Richardson
  extrapolation at the measured convergence order,
* the exact closed-form single-site flux weights,
* direct (site-by-site) background partial sums, optionally grouped into
  four-element orbits whose leading terms cancel, and
* an accelerated background field splitting the sum into an exact near part
  and a far part represented by its exact Taylor polynomial about the
  origin.

The far Taylor trick: each translated kernel component is harmonic,
trace-free and divergence-free away from its site, and a degree-K Taylor
truncation of a convergent sum of such functions keeps all three properties
exactly (truncation commutes with the constant-coefficient operators).  The
Taylor coefficients reduce to lattice moment sums Σ a^β |a|^{-e}, which by
hyperoctahedral symmetry of the far site set vanish unless every entry of β
is even and can be folded onto the nonnegative orthant.  The expansion of
|x-a|^{-6} in ⟨x,a⟩ and |x|²|a|² comes from the Gegenbauer recurrence

    k T_k = 2(k+2) A T_{k-1} - (k+4) B T_{k-2},   T_0 = 1, T_1 = 6A,

with A = ⟨x,a⟩, B = |x|²|a|², giving the exact degree-k coefficients
1/|x-a|^6 = Σ_k T_k / |a|^{6+2k}.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# perfbench/micro.py rebinds lattice.farfield_jets and lattice.kahan_sum
from .fields import (farfield_expand, farfield_jets, farfield_scalar_jets,
                     farfield_scalars)
from .jets import DIM, DomainError
from .quadrature import KAHAN_CHUNK, KahanAccumulator, kahan_sum
from .report import atomic_write
from .sym2 import Sym2Jet

# ---------------------------------------------------------------------------
# site enumeration
# ---------------------------------------------------------------------------

def slab_sites(cutoff: int):
    """Yield the cube max|a_i| ≤ cutoff as (m, 4) int arrays, a1-major order."""
    rng = np.arange(-cutoff, cutoff + 1)
    A2, A3, A4 = np.meshgrid(rng, rng, rng, indexing="ij")
    rest = np.stack([A2.ravel(), A3.ravel(), A4.ravel()], axis=-1)
    for a1 in rng:
        out = np.empty((rest.shape[0], 4), dtype=np.int64)
        out[:, 0] = a1
        out[:, 1:] = rest
        yield out


def parity_slabs(cutoff: int, odd: bool):
    """Yield the sites of one parity class of the cube max|a_i| ≤ cutoff as
    (m, 4) int arrays, one slab a1 = const at a time, each in
    :func:`slab_sites` order.  The last three coordinates are split by
    parity once, and the parity of a site is that of a1 plus theirs."""
    rng = np.arange(-cutoff, cutoff + 1)
    rest = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    rest_odd = parity_of(rest)
    split = {p: rest[rest_odd == p] for p in (False, True)}
    for a1 in rng:
        tail = split[bool(a1 & 1) != odd]
        out = np.empty((tail.shape[0], 4), dtype=np.int64)
        out[:, 0] = a1
        out[:, 1:] = tail
        yield out


def parity_of(sites: np.ndarray) -> np.ndarray:
    return (sites.sum(axis=-1) & 1).astype(bool)   # True = odd


def near_sites(n0: int, odd: bool) -> np.ndarray:
    """One parity class of the cube max|a_i| ≤ n0, in slab_sites order."""
    return np.concatenate(list(parity_slabs(n0, odd)))


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

    ``paired`` groups each site with its orbit under the cancellation map
    before accumulating, which makes the shell contributions absolutely
    summable; the value differs only by rounding.
    The three far-field scalar jets are summed over the sites and expanded
    through the form table once per parity at the end.  Deterministic: fixed
    slab-major enumeration per parity, a pairwise sum along each block's
    site axis and compensated accumulation across blocks and slabs.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    x = _lattice_point_guard(x)
    site_axis = x.ndim - 1
    block = max(1, DIRECT_BLOCK // max(1, x.size // DIM))
    parts = []
    for is_odd in (False, True):
        acc = [KahanAccumulator(x.shape[:-1] + (3,) + (DIM,) * k)
               for k in range(order + 1)]
        for part in parity_slabs(cutoff, is_odd):
            if paired:
                part = _orbit_fold(part, is_odd)
            for lo in range(0, part.shape[0], block):
                jets = farfield_scalar_jets(
                    x[..., None, :] - part[lo:lo + block], is_odd, order)
                for a, jet in zip(acc, jets):
                    # contiguous site axis: np.sum reduces it pairwise
                    a.add(np.moveaxis(jet, site_axis, -1).copy().sum(axis=-1))
        parts.append(farfield_expand(tuple(a.total for a in acc), is_odd))
    return parts[0] + parts[1]


def background_values(x, cutoff: int, paired: bool = False) -> np.ndarray:
    """Value-only :func:`background_partial` at one point (4,) or a batch."""
    return background_partial(x, cutoff, 0, paired).val


def _orbit_fold(sites: np.ndarray, odd: bool) -> np.ndarray:
    """Replace sites by full orbits listed representative-first, so that the
    four members of an orbit are adjacent and their leading terms cancel
    inside one accumulation group.  Keeps each orbit exactly once (the
    lexicographic minimum is the representative)."""
    if sites.size == 0:
        return sites
    nonzero = np.any(sites != 0, axis=-1)
    origin = sites[~nonzero]        # fixed point of the orbit map: emit once
    sites = sites[nonzero]
    m = PAIR_MAPS[odd]
    if sites.size == 0:
        return origin
    imgs = np.stack([sites, sites @ m.T, -sites, -(sites @ m.T)], axis=1)
    span = int(np.abs(sites).max())
    base = 2 * span + 1
    enc = ((imgs[..., 0] * base + imgs[..., 1]) * base
           + imgs[..., 2]) * base + imgs[..., 3]
    keep = enc[:, 0] == enc.min(axis=1)
    reps = sites[keep]
    orbit = np.stack([reps, reps @ m.T, -reps, -(reps @ m.T)], axis=1)
    return np.concatenate([origin, orbit.reshape(-1, 4)])


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


def lattice_moments(cutoff: int, n0: int, requests: set[tuple[tuple, int]],
                    odd: bool) -> dict[tuple[tuple, int], float]:
    """Σ over far sites (n0 < max|a_i| ≤ cutoff, given parity) of a^β |a|^{-e}.

    β must have all entries even (odd moments vanish by symmetry); the sum
    folds onto the nonnegative orthant with weight 2^(#nonzero coords).
    """
    rng = np.arange(0, cutoff + 1)
    a = np.stack([g.ravel() for g in np.meshgrid(rng, rng, rng, rng,
                                                 indexing="ij")],
                 axis=-1).astype(np.int64)
    keep = (a.max(axis=-1) > n0) & (parity_of(a) == odd)
    a = a[keep]
    weight = 2.0 ** (a != 0).sum(axis=-1)
    r2 = np.einsum("ij,ij->i", a, a).astype(float)
    sq = (a.astype(float)) ** 2

    max_half = max((sum(beta) for beta, _ in requests), default=0) // 2
    pw = [[np.ones(a.shape[0])] for _ in range(4)]
    for i in range(4):
        for g in range(1, max_half + 1):
            pw[i].append(pw[i][g - 1] * sq[:, i])

    inv_r2 = 1.0 / r2

    # requests sorted by (e, β/2) share prefixes of the product
    # weight·|a|^{-e}·a1^β1·a2^β2·a3^β3·a4^β4: level 0 holds weight·|a|^{-e},
    # level i+1 level i times a_i^β_i (level i itself when β_i = 0), each
    # level in its own reusable buffer and rebuilt only when its prefix
    # changes, with the multiplications of a from-scratch product
    out: dict[tuple[tuple, int], float] = {}
    live = []
    for beta, e in requests:
        if any(b & 1 for b in beta):
            out[(beta, e)] = 0.0
        else:
            assert e % 2 == 0 and e > 0
            live.append(((e,) + tuple(b // 2 for b in beta), beta))
    buffers = [np.empty(a.shape[0]) for _ in range(5)]
    levels: list = [None] * 5
    prefix = (None,) * 5
    for key, beta in sorted(live):
        first = next(i for i in range(5) if key[i] != prefix[i])
        for lvl in range(first, 5):
            if lvl == 0:
                levels[0] = np.multiply(weight, inv_r2 ** (key[0] // 2),
                                        out=buffers[0])
            elif key[lvl]:
                levels[lvl] = np.multiply(levels[lvl - 1],
                                          pw[lvl - 1][key[lvl]],
                                          out=buffers[lvl])
            else:
                levels[lvl] = levels[lvl - 1]
        prefix = key
        acc = KahanAccumulator()
        for lo in range(0, a.shape[0], KAHAN_CHUNK):
            acc.add(np.sum(levels[4][lo:lo + KAHAN_CHUNK]))
        out[(beta, key[0])] = acc.result()
    return out


def _taylor_plan(degree: int) -> tuple:
    """The Gegenbauer/multinomial assembly plan up to a degree, as arrays.

    Row r stands for one term w · A^m B^j of T_k expanded by the multinomial
    theorem, in the order (k, Gegenbauer term, β, ν); returns (k, e, β, ν, w)
    with e = 6 + 2k - 2j and w = coeff · c_β · c_ν.  The three numerator
    parts reuse one plan.
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
    return tuple(np.concatenate(a) for a in (ks, es, betas, nus, ws))


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
    same monomial space; each order keeps only the monomial columns where
    its table has a nonzero entry, and gathers its basis from a power table.
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

        self.tables = []              # per order: (exponents, coefficients)
        table = coeffs
        for _ in range(3):
            cols = np.flatnonzero(np.any(table.reshape(-1, table.shape[-1]),
                                         axis=0))
            self.tables.append((exps[cols], table[..., cols]))
            table = derived(table)

    def evaluate(self, x: np.ndarray, order: int = 2):
        """Returns (values, grads, hesses) stacked per polynomial."""
        x = np.asarray(x, dtype=float)
        pw = np.ones(x.shape[:-1] + (4, self.degree + 1))
        for g in range(1, self.degree + 1):
            pw[..., g] = pw[..., g - 1] * x
        out = [None, None, None]
        for k, spec in enumerate(("...m,pm->...p", "...m,pdm->...pd",
                                  "...m,pdem->...pde")[:order + 1]):
            exps, table = self.tables[k]
            basis = (pw[..., 0, exps[:, 0]] * pw[..., 1, exps[:, 1]]
                     * pw[..., 2, exps[:, 2]] * pw[..., 3, exps[:, 3]])
            out[k] = np.einsum(spec, basis, table, optimize=False)
        return tuple(out)


# ---------------------------------------------------------------------------
# accelerated background field
# ---------------------------------------------------------------------------

POINT_BLOCK_O2 = 256      # points per BackgroundField.jets block at order 2
POINT_BLOCK = 4096        # points per block at orders 0 and 1
NEAR_SHELL = 1            # sites with max|a_i| ≤ NEAR_SHELL are summed directly
MAX_RADIUS = 0.6 * (NEAR_SHELL + 1)  # far Taylor error ≲ 0.6^(degree+1)

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


def far_table_header(cutoff: int, degree: int, odd: bool) -> dict:
    """The cache key of one parity's far table (files are named by it)."""
    return {"kind": "far-table", "version": 1, "n": cutoff,
            "n0": NEAR_SHELL, "degree": degree,
            "parity": "odd" if odd else "even", "grid": "taylor-origin"}


def default_cache_dir() -> str:
    return os.environ.get(
        "EH_GLUE_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "eh-glue"))


class BackgroundField:
    """Combined checkerboard background with exact jets.

    Near sites (max|a_i| ≤ NEAR_SHELL) are summed directly; the remaining
    cube max|a_i| ≤ cutoff enters through its exact degree-``degree`` Taylor
    polynomial about the origin, valid for |x| below the nearest far site
    (truncation error ~ (|x|/(NEAR_SHELL+1))^(degree+1), and structurally
    harmless: the truncated tail stays harmonic, trace-free and
    divergence-free).  Jets are available for |x| ≤ MAX_RADIUS.
    """

    def __init__(self, cutoff: int = 32, degree: int = 12,
                 cache: BackgroundCache | None = None):
        if cutoff <= NEAR_SHELL:
            raise ValueError(f"need cutoff > {NEAR_SHELL}")
        self.cutoff = cutoff
        self.degree = degree
        self.cache = cache
        self._near = {odd: near_sites(NEAR_SHELL, odd)
                      for odd in (False, True)}
        self._poly = {odd: _PolyJet(degree, self._load_or_build_far(odd))
                      for odd in (False, True)}

    # -- far table ---------------------------------------------------------

    def _load_or_build_far(self, odd: bool) -> np.ndarray:
        """One parity's far table: the stored one, else built and stored."""
        header = far_table_header(self.cutoff, self.degree, odd)
        table = None if self.cache is None else self.cache.load(header)
        if table is None:
            table = farfield_taylor(self.cutoff, NEAR_SHELL, self.degree, odd)
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
        block = POINT_BLOCK_O2 if order >= 2 else POINT_BLOCK
        flat = x.reshape(-1, 4)
        out = Sym2Jet.zeros(flat.shape[:1], order)
        for odd in (False, True):
            for lo in range(0, flat.shape[0], block):
                sl = slice(lo, lo + block)
                jets = self._eval_parity(flat[sl], odd, order, exclude_origin)
                # in place, through views: no block-sized temporaries
                for a, b in zip(out[sl].parts, jets.parts):
                    a += b
        return Sym2Jet(*(a.reshape(shape + a.shape[1:]) for a in out.parts))

    def _eval_parity(self, x: np.ndarray, odd: bool, order: int,
                     exclude_origin: bool) -> Sym2Jet:
        """Near-site scalar jets summed in site order plus the far
        polynomial's, expanded through the form table once per point."""
        sites = self._near[odd]
        if exclude_origin and not odd:
            sites = sites[np.any(sites != 0, axis=-1)]
        near = farfield_scalar_jets(x[:, None, :] - sites.astype(float),
                                    reflected=odd, order=order)
        far = self._poly[odd].evaluate(x, order)
        return farfield_expand(tuple(
            kahan_sum(n, axis=1) + f for n, f in zip(near[:order + 1], far)),
            reflected=odd)
