#!/usr/bin/env python3
"""Print every metric of sgsim's benchmark in one go.

    python3 bench/report.py [--seed 1] [--seconds 25]

For every workload it makes one untraced run, whose end-to-end metrics
(setup_s, op_p50_s, op_tail_s, ops_per_s, peak_rss_mb and fail_ratio)
it prints by name and unit, and one traced run, whose per-layer metrics
it prints with the base of every ratio and the tracing overhead.  Then it
times the Tier-1 test suite once and prints that wall time as a figure
that nothing gates on.  Run it from the repository root; it exits 1 if
any output check failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

import run


def tier1_figure(root: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    summary = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return f"tier1 wall time (figure, not gated): {wall:.2f} s; {summary}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="all benchmark metrics, every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not run.checkout_ok(root):
        return 2
    ok = True
    for i, workload in enumerate(run.WORKLOADS):
        for trace in (False, True):
            res = run.execute(root, workload, args.seed, args.seconds, trace)
            run.print_human(res, show_provenance=i == 0 and not trace)
            ok = ok and res["correct"]
    print(tier1_figure(root))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
