#!/usr/bin/env python3
"""Time series of the modulation dynamics: scale, blow-up prediction, proxy.

Writes the CSV schema t,epsilon,pred_sup_rm,ric_proxy over a dyadic grid of
ancient times and prints the fitted decay exponents.  The rows use the ω and
the cutoff-16 background of ``eh-glue flow --csv``.
"""

import argparse

import numpy as np

from ehglue import suites
from ehglue.config import RunConfig
from ehglue.flow import (ProxyPolicy, blowup_prediction, curvature_peak,
                         epsilon_of_t, ricci_decay_proxy)
from ehglue.report import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="flow_timeseries.csv")
    ap.add_argument("--decades", type=int, default=3)
    args = ap.parse_args()

    # far tables come from the lattice cache ($EH_GLUE_CACHE_DIR), as in the CLI
    cfg = RunConfig(task="flow", cutoff=16)
    omega = suites.reference_omega(cfg)
    peak = curvature_peak()
    times = [-(10.0 ** k) for k in range(4, 4 + args.decades)]
    policy = ProxyPolicy(lattice_cutoff=cfg.cutoff, omega=omega)
    proxy = ricci_decay_proxy(times, policy, suites.shared_background(cfg))

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
