"""Obstruction integrals: boundary fluxes and volume projections.

The central quantity is the pairing flux through the sphere |x| = δ between
the first kernel mode and the gap h = (glued metric) - (cap metric): its
value is 32π² eps^8 times the lattice obstruction constant, up to a
correction budget of order eps^12 δ^-10.  The same number is reached through
the volume projection of the Ricci tensor onto the extended obstruction
tensor, giving an independent cross-route check, and the projection onto the
metric itself stays at order eps^8 δ^-6.

Every pairing flux, cap or single-site, integrates one kernel,
:func:`pairing_density` ⟨m, ∇_ν h⟩ - ⟨h, ∇_ν m⟩, and every surface integral
on |x| = δ, each flux and the distributional check's boundary term, goes
through one sphere-integral driver, whose quadrature estimate is the
distance to the value at a coarser order the caller picks.

The cap flux and the projections integrate scalars of tensors that the
point group fixes, so they run on folded rules: one node per orbit with the
orbit's summed weight.

Surface geometry is taken with respect to the cap metric as the measure
dμ in the pairing demands: the area element against the Euclidean one is
sqrt(det g · g^{-1}(n,n)) for Euclidean unit normal n, and the unit normal
is the normalized metric gradient of the radius.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .curvature import christoffel, covariant_d1, curvature_at, div_trace
from .fields import eh_metric, farfield_jets, kernel_mode
from .glue import GlueParams, GluedMetric, check_cutoff, gap_tensor
from .jets import DIM, DomainError, Jet2, coordinate_jets, radius2_jet
from .lattice import (OMEGA_REFERENCE, BackgroundField, flux_term_exact,
                      parity_of)
from .quadrature import (KahanAccumulator, chunked_kahan_dot, frozen_rule,
                         gauss_panel, kahan_sum, node_batches, sphere_rule)
from .sym2 import Sym2Jet, pair

_E = dict(optimize=False)
MIN_FLUX_ORDER = 16     # lowest sphere order of a flux; its estimate runs at 8
RADIAL_LEVELS = 48      # most halvings of the distributional check's radius
RADIAL_POINTS = 16      # Gauss points per halving panel
CORNER_POINTS = 8       # corner midpoint grid points per axis


def correction_budget(eps: float, delta: float) -> float:
    """The flux's O(eps^12 delta^-10) correction budget, 10 eps^12 delta^-10."""
    return 10.0 * eps ** 12 * delta ** -10


def _sphere_integral(density, delta: float, s3_order: int, coarse_order: int,
                     folded: bool) -> tuple[float, float]:
    """(∫ integrand · area dS on |x| = δ, its distance to the value at
    coarse_order), with (integrand, area) = density(nodes) and dS the
    Euclidean sphere rule, full or folded as in :func:`sphere_rule`."""
    def value_on(order):
        nodes, weights = sphere_rule(order, delta, folded)
        integrand, area = density(nodes)
        return chunked_kahan_dot(weights * area, integrand)

    fine = value_on(s3_order)
    return fine, abs(fine - value_on(coarse_order))


# ---------------------------------------------------------------------------
# surface geometry helpers
# ---------------------------------------------------------------------------

def surface_geometry(gj: Sym2Jet, ginv: np.ndarray, nodes: np.ndarray):
    """(unit normal vector ν, area factor J) of the sphere through nodes
    for the metric jets gj, whose inverse ginv the caller holds.

    n is the Euclidean unit normal x/|x|; with respect to the metric g the
    outward unit normal is g^{-1} n / |n|_{g^{-1}} and the induced area
    element is sqrt(det g · g^{-1}(n,n)) times the Euclidean one.
    """
    r = np.sqrt(np.einsum("...i,...i->...", nodes, nodes))
    n = nodes / r[..., None]
    gnn = np.einsum("...ij,...i,...j->...", ginv, n, n, **_E)
    nu = np.einsum("...ij,...j->...i", ginv, n, **_E) / np.sqrt(gnn)[..., None]
    return nu, np.sqrt(np.linalg.det(gj.val) * gnn)


def pairing_density(ginv: np.ndarray, nu: np.ndarray, m: np.ndarray,
                    dm: np.ndarray, h: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """⟨m, ∇_ν h⟩ - ⟨h, ∇_ν m⟩ per node, paired by ginv; dm and dh are
    the derivatives [..., i, j, k] of m and h, covariant for a curved metric
    and plain for the Euclidean one (ginv = I)."""
    dnu_h = np.einsum("...k,...ijk->...ij", nu, dh, **_E)
    dnu_m = np.einsum("...k,...ijk->...ij", nu, dm, **_E)
    return pair(ginv, m, dnu_h) - pair(ginv, h, dnu_m)


# ---------------------------------------------------------------------------
# distributional Laplacian reconstruction
# ---------------------------------------------------------------------------

def offdiag_kernel_jet(x: np.ndarray, i: int, j: int, form: str) -> Jet2:
    """x_i x_j / r^6 (offdiag) or (x_i² - x_j²)/r^6 (diagdiff), with jets."""
    xj = coordinate_jets(x)
    inv_r6 = radius2_jet(x).reciprocal() ** 3
    if form == "offdiag":
        return xj[i] * xj[j] * inv_r6
    if form == "diagdiff":
        return (xj[i] * xj[i] - xj[j] * xj[j]) * inv_r6
    raise ValueError("form must be 'offdiag' or 'diagdiff'")


@dataclass
class DistributionalResult:
    surface: float
    volume: float
    reconstructed: float
    quad_estimate: float


def distributional_check(u_jet_fn, i: int, j: int, form: str, delta: float,
                         s3_order: int) -> DistributionalResult:
    """Quadrature check of the half-π² second-derivative reconstruction.

    Evaluates the boundary integral ∫ [v ∂_ν u - u ∂_ν v] dμ on |x| = δ and
    the interior integral ∫ Δu · v over the punctured ball, then solves for
    the second derivative combination at the origin (factor 2/π²).  The
    interior integrand is only conditionally integrable radially; the
    angular rule is applied first (which kills the divergent mean), on
    geometrically shrinking panels toward the origin.
    """
    if i == j:
        raise ValueError("indices must differ")
    coarse_order = max(8, s3_order - 6)

    def density(nodes):
        n = nodes / delta
        uj = u_jet_fn(nodes)
        vj = offdiag_kernel_jet(nodes, i, j, form)
        du = np.einsum("...k,...k->...", uj.grad, n, **_E)
        dv = np.einsum("...k,...k->...", vj.grad, n, **_E)
        return vj.value * du - uj.value * dv, 1.0

    surf, est = _sphere_integral(density, delta, s3_order, coarse_order, False)

    vol_acc = KahanAccumulator()
    hi = delta
    ang_nodes, ang_weights = sphere_rule(coarse_order, 1.0, False)
    last_panel = 0.0
    for level in range(RADIAL_LEVELS):
        lo = hi * 0.5
        panel = KahanAccumulator()
        for rr, ww in zip(*gauss_panel(lo, hi, RADIAL_POINTS)):
            nodes = ang_nodes * rr
            uj = u_jet_fn(nodes)
            lap = np.einsum("...kk->...", uj.hess, **_E)
            vj = offdiag_kernel_jet(nodes, i, j, form)
            shell = chunked_kahan_dot(ang_weights * rr ** 3, lap * vj.value)
            panel.add(ww * shell)
        vol_acc.add(panel.result())
        last_panel = abs(panel.result())
        hi = lo
        if last_panel < 1e-17 and level > 8:
            break
    vol = vol_acc.result()
    est += last_panel
    reconstructed = (surf - vol) * 2.0 / np.pi ** 2
    return DistributionalResult(surf, vol, reconstructed, est)


# ---------------------------------------------------------------------------
# flux integrals
# ---------------------------------------------------------------------------

@dataclass
class FluxReport:
    value: float
    predicted: float
    correction_bound: float
    quad_estimate: float


def flux_integral(params: GlueParams, s3_order: int,
                  background: BackgroundField,
                  omega: float = OMEGA_REFERENCE,
                  exact_gap: bool = False) -> FluxReport:
    """Boundary pairing flux on |x| = δ against the predicted lattice value.

    The gap tensor is the outer background with the origin site excluded,
    scaled by eps^4/2 (the origin's kernel cancels against the cap's own
    far field to the order retained); derivatives, pairing, normal and
    measure all use the cap metric.  ``exact_gap`` instead subtracts the
    full cap metric from the outer expression — at desk scale that variant
    carries a shift (exact - leading) of about -79 eps^12 delta^-10, far
    beyond the nominal correction budget, which is why the leading gap is
    the default (the asymptotic limits agree; see the cross-route suite).
    Measured at δ = 0.3 and cutoff 32, the shift over eps^12 delta^-10
    reads -78.93, -78.84 and -78.47 at eps = 0.05, 0.07 and 0.1, the same
    to four digits at sphere orders 16, 24 and 32; scripts/flux_scaling.py
    prints it.

    Both variants integrate scalars of tensors that the point group leaves
    invariant, so they run on one node per orbit of the sphere rule (16:1
    at even orders) with the orbit's summed weight.
    """
    check_cutoff(params, background)
    if s3_order < MIN_FLUX_ORDER:
        raise ValueError(f"flux_integral needs s3_order >= {MIN_FLUX_ORDER}")
    eps = params.eps

    def density(nodes):
        gj = eh_metric(eps).jets(nodes, order=1)
        ginv, gam = christoffel(gj)
        nu, area = surface_geometry(gj, ginv, nodes)
        if exact_gap:
            hbar = gap_tensor(background.jets(nodes, order=1), eps, gj)
        else:
            hbar = background.jets(nodes, order=1, exclude_origin=True)
            hbar = hbar.scaled(0.5 * eps ** 4)
        mode = kernel_mode(1, eps).jets(nodes, order=1)
        return pairing_density(ginv, nu, mode.val, covariant_d1(mode, gam),
                               hbar.val, covariant_d1(hbar, gam)), area

    fine, est = _sphere_integral(density, params.delta, s3_order,
                                 max(8, s3_order - 8), True)
    predicted = 32.0 * np.pi ** 2 * eps ** 8 * omega
    return FluxReport(fine, predicted,
                      correction_budget(eps, params.delta), est)


def flux_single_site(site, delta: float, s3_order: int) -> FluxReport:
    """Euclidean pairing flux of the plain kernel against one translate.

    Odd sites pair the reflected kernel and give 64π² times the interaction
    weight; even sites pair the plain kernel and give zero.  One site's
    field is not point-group invariant, so the full sphere rule is used.
    """
    site = np.asarray(site)
    if site.shape != (DIM,) or site.dtype.kind not in "iu":
        raise ValueError(f"site must be {DIM} integers, got {site.tolist()}")
    if not np.any(site):
        raise DomainError("site must be nonzero")
    odd = bool(parity_of(site[None])[0])

    def density(nodes):
        center = farfield_jets(nodes, reflected=False, order=1)
        moved = farfield_jets(nodes - site.astype(float), reflected=odd, order=1)
        return pairing_density(np.eye(DIM), nodes / delta, center.val,
                               center.d1, moved.val, moved.d1), 1.0

    fine, est = _sphere_integral(density, delta, s3_order,
                                 max(8, s3_order - 8), False)
    return FluxReport(fine, flux_term_exact(site), 0.0, est)


def z_flux(params: GlueParams, s3_order: int, background: BackgroundField,
           zero_gap: bool = False) -> tuple[float, float]:
    """∫ 2 o(Z, ν) dμ on |x| = δ, Z the gauge vector of the gap.

    Returns (value, quadrature estimate).  With ``zero_gap`` the gap tensor
    is replaced by zero (the integral is then exactly zero).
    """
    check_cutoff(params, background)
    if s3_order < MIN_FLUX_ORDER:
        raise ValueError(f"z_flux needs s3_order >= {MIN_FLUX_ORDER}")
    eps = params.eps

    def density(nodes):
        gj = eh_metric(eps).jets(nodes, order=1)
        ginv, gam = christoffel(gj)
        nu, area = surface_geometry(gj, ginv, nodes)
        if zero_gap:
            hbar = Sym2Jet.zeros(nodes.shape[:-1], 1)
        else:
            hbar = gap_tensor(background.jets(nodes, order=1), eps, gj)
        _, _, z_vec = div_trace(gj, hbar, (ginv, gam))
        mode = kernel_mode(1, eps).jets(nodes, order=0)
        return 2.0 * np.einsum("...ij,...i,...j->...", mode.val, z_vec, nu,
                               **_E), area

    # the value is a roundoff-level difference, which folding would move
    return _sphere_integral(density, params.delta, s3_order,
                            max(8, s3_order - 8), False)


def gauge_vector_sup(params: GlueParams, s3_order: int,
                     background: BackgroundField) -> float:
    """sup over |x| = δ of |Z| in the cap metric."""
    check_cutoff(params, background)
    nodes = sphere_rule(s3_order, params.delta, False)[0]
    eps = params.eps
    gj = eh_metric(eps).jets(nodes, order=1)
    _, _, z_vec = div_trace(gj, gap_tensor(background.jets(nodes, order=1),
                                           eps, gj), christoffel(gj))
    sq = np.einsum("...ij,...i,...j->...", gj.val, z_vec, z_vec, **_E)
    return float(np.sqrt(np.max(sq)))


# ---------------------------------------------------------------------------
# volume projections
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    onto_obstruction: float
    onto_metric: float
    quad_estimate: float
    corner_bound: float
    inner_residual: float


def _shell_radii(params: GlueParams, annulus_points: int, outer_points: int):
    """Radial Gauss shells covering the regions where Ric can be nonzero.

    Below 2δ/3 the blend is exactly the cap (zero Ricci, skipped; the
    residual there is reported separately), so the annulus points
    concentrate on the active band [2δ/3, 5δ/6] where the cutoff varies --
    its integrand has sharp radial structure from the cutoff's second
    derivative -- plus the saturated collar [5δ/6, δ].
    """
    d = params.delta
    shells = []
    for (lo, hi, n) in ((2.0 * d / 3.0, 5.0 * d / 6.0, 2 * annulus_points),
                        (5.0 * d / 6.0, d, annulus_points),
                        (d, 0.5, outer_points)):
        shells.extend(zip(*gauss_panel(lo, hi, n)))
    return shells


@functools.cache
def _corner_sample(folded: bool):
    """Deterministic midpoint grid on the cube minus the inscribed ball:
    (points, cell weights), or folded by the point group, (orbit
    representatives, orbit weights); built once per process, read-only.

    The grid's coordinates are dyadic, so a signed permutation maps it onto
    itself exactly; under the point group its 2,784 points form 51 orbits,
    and each orbit weight is its size times the cell volume, exactly.
    """
    c = (np.arange(CORNER_POINTS) + 0.5) / CORNER_POINTS - 0.5
    grids = np.meshgrid(c, c, c, c, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    pts = pts[np.einsum("ij,ij->i", pts, pts) > 0.25]
    return frozen_rule(pts, np.full(pts.shape[0], (1.0 / CORNER_POINTS) ** 4),
                       folded)


def _projection_densities(gm: GluedMetric, nodes: np.ndarray, bgj: Sym2Jet):
    """(-2⟨o, Ric⟩ dvol, -2R dvol) per node of one glued metric, from the
    background jets bgj at the nodes."""
    gj = gm.jets(nodes, order=2, bg=bgj)
    curv = curvature_at(gj)
    ob = gm.obstruction_jets(nodes, order=0, bg=bgj, g=gj)
    dens = np.sqrt(np.linalg.det(gj.val))
    return (-2.0 * pair(curv.ginv, ob.val, curv.ricci) * dens,
            -2.0 * curv.scalar * dens)


def projection_integrals(eps_list, delta: float, background: BackgroundField,
                         s3_order: int, annulus_points: int,
                         outer_points: int,
                         with_estimate: bool) -> list[ProjectionResult]:
    """-2 ∫ ⟨obstruction, Ric⟩ and -2 ∫ ⟨g, Ric⟩ over the punctured cube.

    The shells run in batches of consecutive shells of at most
    ``sym2.POINT_BLOCK`` nodes (:func:`node_batches`), so at most one
    batch's jets are alive at a time.  Each batch takes one background-jet
    evaluation, shared by all requested eps values (the background does not
    depend on eps), and one density evaluation per eps; each shell's dot
    product runs over its slice and adds into the accumulators in radial
    order, as a per-shell sweep would.  The integrand vanishes inside
    radius δ/2 where the metric is the exact Ricci-flat cap; the region
    outside the inscribed ball is covered by a deterministic midpoint grid
    and its analytic bound is reported separately.  Both densities are
    scalars of point-group invariant tensors, so every shell runs on one
    node per orbit of the sphere rule (16:1 at even orders) and the corner
    grid on one point per orbit (51 of 2,784), each with its orbit's summed
    weight; the inner residual, a sup, stays on a full sphere rule.
    """
    metrics = [GluedMetric(GlueParams(e, delta, background.cutoff),
                           background) for e in eps_list]

    def sweep(order, ann_n, out_n):
        shells = _shell_radii(metrics[0].params, ann_n, out_n)
        acc_o = [KahanAccumulator() for _ in eps_list]
        acc_g = [KahanAccumulator() for _ in eps_list]
        ang_nodes, ang_weights = sphere_rule(order, 1.0, True)
        shell_weights = iter([ang_weights * rho ** 3 * w_r
                              for rho, w_r in shells])
        for nodes, slices in node_batches([ang_nodes * rho
                                           for rho, _ in shells]):
            bgj = background.jets(nodes, order=2)
            dens = [_projection_densities(gm, nodes, bgj) for gm in metrics]
            for sl in slices:
                weights = next(shell_weights)
                for idx, (dens_o, dens_g) in enumerate(dens):
                    acc_o[idx].add(chunked_kahan_dot(weights, dens_o[sl]))
                    acc_g[idx].add(chunked_kahan_dot(weights, dens_g[sl]))
        return [a.result() for a in acc_o], [a.result() for a in acc_g]

    fine_o, fine_g = sweep(s3_order, annulus_points, outer_points)
    coarse_o, coarse_g = (sweep(max(6, s3_order - 2), annulus_points // 2,
                                outer_points // 2)
                          if with_estimate else (fine_o, fine_g))

    # corner region (|x| > 1/2 inside the cube): midpoint rule + bound
    pts, cell_weights = _corner_sample(True)
    bgj_corner = background.jets(pts, order=2)
    results = []
    for idx, gm in enumerate(metrics):
        dens_o, dens_g = _projection_densities(gm, pts, bgj_corner)
        corner_o = float(kahan_sum(cell_weights * dens_o, 0))
        corner_g = float(kahan_sum(cell_weights * dens_g, 0))
        corner_bound = 2.0 * abs(corner_o)

        # inner residual: the cap is Ricci flat, sample one inner sphere
        inner_nodes = sphere_rule(6, 0.3 * delta, False)[0]
        inner_curv = curvature_at(gm.jets(inner_nodes, order=2))
        inner_res = float(np.max(np.abs(inner_curv.ricci)))

        results.append(ProjectionResult(
            onto_obstruction=fine_o[idx] + corner_o,
            onto_metric=fine_g[idx] + corner_g,
            quad_estimate=abs(fine_o[idx] - coarse_o[idx]),
            corner_bound=corner_bound,
            inner_residual=inner_res,
        ))
    return results
