#!/usr/bin/env python3
"""Entanglement-entropy growth for several field gradients.

A stronger gradient entangles spin with motion faster, so the entropy
reaches its ln(2) ceiling sooner: the gradient sets the quality of the
spin measurement the magnet performs.  At silver scale the effect is
violent -- the momentum kick alone makes the spin components orthogonal
within nanoseconds, long before they separate in position -- so the
default window is the first 10 ns of the transit, where the onset is
actually resolved.  Pass --duration 5.3e-5 to see the (fully saturated)
full transit instead.

    python scripts/entropy_sweep.py --betas 250,500,1000,2000
                                    --out results/entropy_sweep.csv
"""

from __future__ import annotations

import argparse
import math
import os

import numpy as np

from sgsim import GradientSegment, Scenario, SpinQN, default_silver_config, entropy_timeline
from sgsim.harness import SILVER_GRID


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        description="Entropy-vs-time curves for a range of field gradients")
    ap.add_argument("--betas", default="250,500,1000,2000",
                    help="comma-separated gradients in T/m")
    ap.add_argument("--duration", type=float, default=1.0e-8,
                    help="window in seconds (default 10 ns, the onset regime)")
    ap.add_argument("--samples", type=int, default=65)
    ap.add_argument("--out", default="results/entropy_sweep.csv")
    args = ap.parse_args(argv)

    betas = [float(b) for b in args.betas.split(",")]
    cfg = default_silver_config()  # each schedule's segment carries its own beta
    spin = SpinQN.parse("1/2")
    coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)

    columns = []
    for beta in betas:
        sc = Scenario(cfg=cfg, spin=spin, initial_coeffs=coeffs,
                      segments=(GradientSegment(beta, args.duration),),
                      grid=SILVER_GRID, outputs=())
        timeline = entropy_timeline(sc, args.samples)
        columns.append(timeline[:, 1])
        idx = int(np.searchsorted(timeline[:, 1], 0.5 * math.log(2.0)))
        half = (f"reaches ln(2)/2 at t = {timeline[idx, 0]:.3e} s"
                if idx < len(timeline) else "never reaches ln(2)/2")
        print(f"beta {beta:7.1f} T/m: entropy {timeline[-1, 1]:.6f} nats "
              f"at t = {args.duration:.1e} s, {half}")

    table = np.column_stack([timeline[:, 0]] + columns)
    header = "t_s," + ",".join(f"entropy_beta_{beta:g}" for beta in betas)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    np.savetxt(args.out, table, delimiter=",", header=header, comments="",
               fmt="%.14e")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
