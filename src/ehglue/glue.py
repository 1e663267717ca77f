"""The glued metric: instanton caps on a checkerboard lattice background.

On the fundamental cube the metric is the instanton metric inside radius
δ/2, the flat metric plus half eps^4 times the background sum outside
radius δ, and a smooth cutoff blend in between.  Extended over all of R^4
minus the lattice, the cap at an odd site is the reflected instanton; the
evaluation below dispatches on the nearest lattice site, so fields can be
sampled anywhere the background expansion is valid.

The obstruction tensor is the trace-free part (with respect to the glued
metric) of half the eps-logarithmic derivative of the glued family; inside
radius δ/2 it coincides with the first kernel mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at, lichnerowicz, trace_jet
from .fields import eh_metric, kernel_mode
from .jets import DIM, DomainError, Jet2, jet_radius
from .lattice import BackgroundField, parity_of
from .quadrature import line_fit, node_batches, sphere_rule
from .sym2 import Sym2Jet, inverse_metric, pair

MAX_DELTA = 0.45        # the largest neck radius inside the unit cell
DECAY_ORDER = 8         # S³ order of the decay scans' sphere sups


@dataclass(frozen=True)
class GlueParams:
    """Scales of the gluing: cap scale eps, neck radius delta, lattice cutoff.

    Geometric well-definedness is enforced: the caps must sit well inside
    their necks (eps ≤ delta/2) and the neck must stay inside the unit cell
    (delta ≤ MAX_DELTA).
    """

    eps: float
    delta: float
    lattice_cutoff: int

    def __post_init__(self):
        if self.eps <= 0.0 or self.delta <= 0.0:
            raise ValueError("eps and delta must be positive")
        if self.eps > 0.5 * self.delta:
            raise ValueError("cap does not fit its neck: need eps <= delta/2")
        if self.delta > MAX_DELTA:
            raise ValueError("neck leaves the unit cell: "
                             f"need delta <= {MAX_DELTA}")


def _nearest_site(x: np.ndarray):
    """(x, nearest lattice site, offset from it, its length) per point."""
    x = np.asarray(x, dtype=float)
    site = np.rint(x)
    y = x - site
    return x, site, y, np.sqrt(np.einsum("...i,...i->...", y, y))


def _regions(r: np.ndarray, delta: float):
    """The (inner r ≤ δ/2, annulus, outer r ≥ δ) masks of the distances r
    from the nearest site: the dispatch of :class:`GluedMetric`."""
    inner = r <= 0.5 * delta
    outer = r >= delta
    return inner, ~inner & ~outer, outer


def region_tag(x: np.ndarray, params: GlueParams) -> np.ndarray:
    """0 = inner (r ≤ δ/2), 1 = annulus, 2 = outer (r ≥ δ), per point,
    measured from the nearest lattice site, as the glued metric
    dispatches."""
    inner, _, outer = _regions(_nearest_site(x)[3], params.delta)
    return np.where(inner, 0, np.where(outer, 2, 1))


# ---------------------------------------------------------------------------
# cutoff function
# ---------------------------------------------------------------------------

def _bump(u: np.ndarray):
    """exp(-1/u) for u > 0 (else 0), with first and second derivatives.

    Below u = 1e-8 the value underflows to an exact double-precision zero,
    so flooring the denominator there changes nothing but avoids overflow
    warnings.
    """
    pos = u > 0.0
    safe = np.where(pos, np.maximum(u, 1e-8), 1.0)
    v = np.where(pos, np.exp(-1.0 / safe), 0.0)
    d1 = np.where(pos, v / safe ** 2, 0.0)
    d2 = np.where(pos, v * (1.0 - 2.0 * safe) / safe ** 4, 0.0)
    return v, d1, d2


def cutoff_scalar(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smooth monotone step: exactly 0 for s ≤ 2/3, exactly 1 for s ≥ 5/6.

    Built from the standard two-sided bump B(u)/(B(u)+B(1-u)) with
    u = 6(s - 2/3); returns (value, d/ds, d²/ds²).
    """
    s = np.asarray(s, dtype=float)
    u = 6.0 * (s - 2.0 / 3.0)
    b, db, ddb = _bump(u)
    c, dc, ddc = _bump(1.0 - u)
    den = b + c
    den = np.where(den > 0.0, den, 1.0)
    val = np.where(u >= 1.0, 1.0, np.where(u <= 0.0, 0.0, b / den))
    num_d = db * c + b * dc
    d1 = np.where((u > 0.0) & (u < 1.0), num_d / den ** 2, 0.0) * 6.0
    dd = (ddb * c - b * ddc) / den ** 2 - 2.0 * num_d * (db - dc) / den ** 3
    d2 = np.where((u > 0.0) & (u < 1.0), dd, 0.0) * 36.0
    return val, d1, d2


def cutoff_jet(x: np.ndarray, delta: float, center: np.ndarray) -> Jet2:
    """χ(|x - center|/δ) as a 4-variable jet."""
    y = np.asarray(x, dtype=float) - center
    r = jet_radius(y)
    val, d1, d2 = cutoff_scalar(r.value / delta)
    grad = (d1 / delta)[..., None] * r.grad
    hess = ((d1 / delta)[..., None, None] * r.hess
            + (d2 / delta ** 2)[..., None, None]
            * r.grad[..., :, None] * r.grad[..., None, :])
    return Jet2(val, grad, hess)


# ---------------------------------------------------------------------------
# glued metric and obstruction tensor
# ---------------------------------------------------------------------------

def outer_metric(bg: Sym2Jet, eps: float) -> Sym2Jet:
    """The outer branch I + ½ eps⁴ · (background) of the glued metric."""
    out = bg.scaled(0.5 * eps ** 4)
    out.val = out.val + np.eye(DIM)
    return out


def gap_tensor(bg: Sym2Jet, eps: float, cap: Sym2Jet) -> Sym2Jet:
    """The gap (outer branch) - (cap metric) from the background jets bg
    and the cap jets, to the lower of their jet orders."""
    return outer_metric(bg, eps) - cap


def check_cutoff(params: GlueParams, background: BackgroundField):
    """Raise ValueError unless the background sums the params' lattice."""
    if background.cutoff != params.lattice_cutoff:
        raise ValueError(f"background cutoff {background.cutoff} != "
                         f"lattice_cutoff {params.lattice_cutoff}")


def background_beyond(background: BackgroundField, x: np.ndarray,
                      radius: float, order: int) -> Sym2Jet | None:
    """Background jets, in one evaluation, at the points of x farther than
    ``radius`` from their nearest site (zeros at the others); None when
    there are no such points.  A point's jets do not depend on the batch
    it is evaluated in, so they are the same bits as a per-region call."""
    x, _, _, r = _nearest_site(x)
    need = r > radius
    if not np.any(need):
        return None
    if np.all(need):
        return background.jets(x, order=order)
    out = Sym2Jet.zeros(x.shape[:-1], order)
    out[need] = background.jets(x[need], order=order)
    return out


def _per_parity(fields: dict, y: np.ndarray, odd: np.ndarray,
                order: int) -> Sym2Jet:
    """fields[odd] evaluated at the offsets y from each point's site."""
    out = Sym2Jet.zeros(y.shape[:-1], order)
    for is_odd in (False, True):
        m = odd == is_odd
        if np.any(m):
            out[m] = fields[is_odd].jets(y[m], order)
    return out


class GluedMetric:
    """Piecewise field with exact jets, valid on the background's domain."""

    def __init__(self, params: GlueParams, background: BackgroundField):
        check_cutoff(params, background)
        self.params = params
        self.background = background
        self._cap = {False: eh_metric(params.eps),
                     True: eh_metric(params.eps, reflected=True)}
        self._mode1 = {False: kernel_mode(1, params.eps),
                       True: kernel_mode(1, params.eps, reflected=True)}

    def _piecewise(self, x: np.ndarray, order: int, bg: Sym2Jet | None,
                   caps: dict, far) -> Sym2Jet:
        """caps[parity of the nearest site] within δ/2 of it, far(background
        jets) beyond δ, and the cutoff blend of the two in between.

        ``bg``, when given, holds the background jets at every point of x
        beyond δ/2 of its site; otherwise they are evaluated here, once.
        """
        x, site, y, r = _nearest_site(x)
        if np.any(r < 1e-6 * self.params.eps):
            raise DomainError("glued metric evaluated at a lattice point")
        if bg is None:
            bg = background_beyond(self.background, x, 0.5 * self.params.delta,
                                   order)
        odd = parity_of(site.astype(np.int64))
        delta = self.params.delta
        out = Sym2Jet.zeros(x.shape[:-1], order)
        inner_m, ann_m, outer_m = _regions(r, delta)

        def cap_at(mask):
            return _per_parity(caps, y[mask], odd[mask], order)

        def far_at(mask):
            return far(bg.truncated(order)[mask])

        if np.any(inner_m):
            out[inner_m] = cap_at(inner_m)
        if np.any(outer_m):
            out[outer_m] = far_at(outer_m)
        if np.any(ann_m):
            cap = cap_at(ann_m)
            far_jets = far_at(ann_m)
            chi = cutoff_jet(x[ann_m], delta, site[ann_m])
            one_minus = Jet2(1.0 - chi.value, -chi.grad, -chi.hess)
            out[ann_m] = (cap.scaled_by_jet(one_minus)
                          + far_jets.scaled_by_jet(chi))
        return out

    # -- public -------------------------------------------------------------

    def jets(self, x: np.ndarray, order: int = 2,
             bg: Sym2Jet | None = None) -> Sym2Jet:
        return self._piecewise(x, order, bg, self._cap,
                               lambda b: outer_metric(b, self.params.eps))

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.jets(x, order=0).val

    def obstruction_jets(self, x: np.ndarray, order: int = 2,
                         bg: Sym2Jet | None = None,
                         g: Sym2Jet | None = None) -> Sym2Jet:
        """Trace-free part w.r.t. the glued metric of ½ eps ∂_eps(glued).

        Without ``bg`` the background is evaluated once and serves both
        the mode and, without ``g``, the glued metric."""
        if bg is None:
            bg = background_beyond(self.background, x, 0.5 * self.params.delta,
                                   order)
        u = self._piecewise(x, order, bg, self._mode1,
                            lambda b: b.scaled(self.params.eps ** 4))
        if g is None:
            g = self.jets(x, order=order, bg=bg)
        return remove_trace(u, g)


def remove_trace(u: Sym2Jet, g: Sym2Jet) -> Sym2Jet:
    """u - ¼ (tr_g u) g with jets (order limited by the inputs)."""
    g = g.truncated(u.order)
    tr = trace_jet(g, u, inverse_metric(g.val), g.order)
    quarter = Jet2(*(None if a is None else 0.25 * a
                     for a in (tr.value, tr.grad, tr.hess)))
    return u - g.scaled_by_jet(quarter)


# ---------------------------------------------------------------------------
# decay scans
# ---------------------------------------------------------------------------

@dataclass
class DecayScan:
    sup_values: np.ndarray
    fitted_exponent: float


def sphere_sups(pairs, radii, s3_order: int = 6, *,
                folded: bool) -> np.ndarray:
    """Sups [radius, pair] over the spheres |x| = rho of the glued-metric
    norm of Ric (field "ricci") or of Δ_L applied to the obstruction tensor
    (field "lichnerowicz"), one column per (glued metric, field) pair: the
    table that every decay, band and proxy scan reduces.

    The nodes are those of ``sphere_rule(s3_order, rho, folded)``: the full
    S³ rule, or one node per orbit of the point group's stabilizer of the
    rule.  Both norms are invariant under the point group, so a folded sup
    is the full-rule sup up to roundoff; the flow proxy, :func:`decay_scans`
    and glue-scan's annulus band fold.  Do not fold where the sup is itself
    roundoff, as for glue-scan's inner residual: roundoff is not point-group
    invariant, and folded, the inner Lichnerowicz residual reads 18% lower.

    The spheres run in batches of consecutive spheres of at most
    ``sym2.POINT_BLOCK`` nodes (:func:`node_batches`).  The background does
    not depend on eps or δ: it is evaluated once per batch, at the nodes
    where some pair's metric reaches beyond δ/2, and serves every pair;
    consecutive pairs of one metric share its jets and curvature, one
    evaluation per batch, so at most one metric's jets over one batch are
    alive at a time.  Each row's sup is taken over its sphere's slice, and
    the point kernels give a node the same bits in any batch, so a row
    equals a one-radius call.
    """
    pairs = list(pairs)
    if any(f not in ("ricci", "lichnerowicz") for _, f in pairs):
        raise ValueError("field must be 'ricci' or 'lichnerowicz'")
    if len({id(gm.background) for gm, _ in pairs}) != 1:
        raise ValueError("the pairs of one sphere sup share one background")
    reach = min(0.5 * gm.params.delta for gm, _ in pairs)
    table = np.empty((len(radii), len(pairs)))
    rows = iter(table)
    for nodes, slices in node_batches([sphere_rule(s3_order, rho, folded)[0]
                                       for rho in radii]):
        bg = background_beyond(pairs[0][0].background, nodes, reach, 2)
        batch_rows = [next(rows) for _ in slices]
        last = None
        for col, (glued, field) in enumerate(pairs):
            if glued is not last:
                g = curv = vals = None      # one metric's jets alive at a time
                g = glued.jets(nodes, order=2, bg=bg)
                curv, last = curvature_at(g), glued
            if field == "ricci":
                vals = curv.ricci
            else:
                vals = lichnerowicz(g, glued.obstruction_jets(
                    nodes, order=2, bg=bg, g=g), curv)
            norms = pair(curv.ginv, vals, vals)
            for row, sl in zip(batch_rows, slices):
                row[col] = np.sqrt(np.max(norms[sl]))
    return table


def decay_scans(pairs, radii) -> list[DecayScan]:
    """Sups over spheres of |Ric| or |Δ_L obstruction| at order DECAY_ORDER
    per (glued metric, field) pair, each with a log-log fit; the background
    is evaluated once per batch of spheres for all pairs.  Needs two radii
    or more.

    The sups run on the folded rule (:func:`sphere_sups`): a decay scan
    fits sups far above their roundoff, and the fold moves them by that
    roundoff only."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2:
        raise ValueError("decay scan needs at least two radii")
    scans = []
    for col in sphere_sups(pairs, radii, DECAY_ORDER, folded=True).T:
        slope, _ = line_fit(np.log(radii), np.log(np.maximum(col, 1e-300)))
        scans.append(DecayScan(col, slope))
    return scans
