#!/usr/bin/env python3
"""Time series of the modulation dynamics: scale, blow-up prediction, proxy.

Writes the CSV schema t,epsilon,pred_sup_rm,ric_proxy over a dyadic grid of
ancient times and prints the fitted decay exponents.
"""

import argparse

import numpy as np

from ehglue.flow import (ProxyPolicy, blowup_prediction, curvature_peak,
                         epsilon_of_t, ricci_decay_proxy)
from ehglue.lattice import (BackgroundCache, BackgroundField,
                            default_cache_dir, omega_partial)
from ehglue.report import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="flow_timeseries.csv")
    ap.add_argument("--decades", type=int, default=3)
    args = ap.parse_args()

    omega = omega_partial(40).extrapolated
    peak = curvature_peak()
    times = [-(10.0 ** k) for k in range(4, 4 + args.decades)]
    # far tables come from the lattice cache ($EH_GLUE_CACHE_DIR), as in the CLI
    policy = ProxyPolicy(omega=omega)
    bg = BackgroundField(policy.lattice_cutoff,
                         cache=BackgroundCache(default_cache_dir()))
    proxy = ricci_decay_proxy(times, policy, background=bg)

    rows = []
    for t, sup in zip(proxy.times, proxy.sup_ric):
        pred, c = blowup_prediction(t, peak, omega=omega)
        rows.append([float(t), float(epsilon_of_t(t, omega=omega)),
                     float(pred), float(sup)])
    write_csv(args.out, ["t", "epsilon", "pred_sup_rm", "ric_proxy"], rows)
    print(f"wrote {args.out}")
    print(f"curvature blow-up constant c = {peak * np.sqrt(32 * omega):.4f}")
    print(f"proxy decay exponent        = {proxy.exponent:.4f}")


if __name__ == "__main__":
    main()
