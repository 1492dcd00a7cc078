#!/usr/bin/env python3
"""Sampling study of the k-variation Hurst estimator.

For each H and series length, simulates trajectories with a random
linear drift (the drift never matters: the filter annihilates it),
estimates H from each, and compares the empirical dispersion with the
asymptotic prediction sqrt(A(H,k,gamma)) / (k sqrt(n) log n).

Example:
    python scripts/hurst_study.py --replications 200
"""

import argparse
import sys

import numpy as np

from fracmix import EffectsLaw, RngStream, SamplingGrid, as_filter, estimate_h, simulate_panel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=float, default=2.0)
    parser.add_argument("--filter", type=as_filter, default="diff2")
    args = parser.parse_args(argv)

    law = EffectsLaw(-2.0, 1.0)
    print(f"{'H':>5} {'n':>6} | {'mean':>8} {'bias':>9} | {'emp sd':>9} {'asym sd':>9}")
    for h in (0.15, 0.5, 0.85):
        for log2n in (10, 12, 14):
            n = 2**log2n
            grid = SamplingGrid.uniform(n, 1.0)
            hs = np.empty(args.replications)
            asym = 0.0
            for r in range(args.replications):
                stream = RngStream(args.seed + int(100 * h), log2n * 10_000 + r)
                panel = simulate_panel(1, grid, h, law, stream, noise="fast")
                est = estimate_h(panel.y[0], 1.0, args.k, args.filter)
                hs[r] = est.h_hat
                asym = est.asym_std
            print(
                f"{h:>5.2f} {n:>6d} | {hs.mean():>8.5f} {hs.mean() - h:>9.2e} | "
                f"{hs.std():>9.3e} {asym:>9.3e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
