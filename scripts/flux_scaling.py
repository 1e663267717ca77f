#!/usr/bin/env python3
"""Scale study of the boundary flux and the volume projection.

For a grid of cap scales at fixed neck radius, prints both routes to the
obstruction number against the predicted 32 pi^2 eps^8 omega, exhibiting the
convergence of their ratios to one as the scale shrinks and the size of the
genuine desk-scale corrections at the larger scales.  The projection runs at
`eh-glue project`'s default sizes and the fluxes at its flux-route order 16;
the last column is the exact-gap flux's shift over the leading one in units
of eps^12 delta^-10.
"""

import argparse

import numpy as np

from ehglue import suites
from ehglue.config import RunConfig
from ehglue.glue import GlueParams
from ehglue.obstruction import flux_integral, projection_integrals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--delta", type=float, default=0.3)
    ap.add_argument("--cutoff", type=int, default=32)
    ap.add_argument("--eps", type=float, nargs="+",
                    default=(0.02, 0.05, 0.07, 0.1))
    args = ap.parse_args()

    # far tables come from the lattice cache ($EH_GLUE_CACHE_DIR), as in the CLI
    cfg = RunConfig(cutoff=args.cutoff)
    bg = suites.shared_background(cfg)
    omega = suites.reference_omega(cfg)
    print(f"omega = {omega:.6f}, delta = {args.delta}")

    res = projection_integrals(list(args.eps), args.delta, bg, cfg.vol_order,
                               cfg.annulus_points, cfg.outer_points,
                               with_estimate=False)
    print(f"{'eps':>6} {'predicted':>12} {'flux/pred':>10} "
          f"{'exact-gap/pred':>14} {'proj/pred':>10} {'shift/e12d-10':>13}")
    for eps, r in zip(args.eps, res):
        params = GlueParams(eps, args.delta, args.cutoff)
        pred = 32.0 * np.pi ** 2 * eps ** 8 * omega
        lead = flux_integral(params, 16, bg, omega)
        exact = flux_integral(params, 16, bg, omega, exact_gap=True)
        shift = (exact.value - lead.value) / (eps ** 12 * args.delta ** -10)
        print(f"{eps:>6} {pred:>12.4e} {lead.value / pred:>10.5f} "
              f"{exact.value / pred:>14.5f} "
              f"{r.onto_obstruction / pred:>10.5f} {shift:>13.2f}")


if __name__ == "__main__":
    main()
