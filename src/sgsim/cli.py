"""Command-line front end.

    sge run <config.json> [--out DIR]        closed-form run, report + density CSV
    sge compare <config.json>                closed form vs split-step L2 errors
    sge entropy <config.json> [--samples N]  entanglement entropy timeline (CSV)
    sge interfere <config.json> --T SEC      +b/-b/+b recombination, reference errors
    sge bch-check [--n N] [--spin S]         factored propagator vs expm

Every gate and its tolerance comes from sgsim.harness.

Exit codes: 0 all requested checks pass, 1 a tolerance check failed,
2 invalid input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import TextIO

import numpy as np

from . import harness
from .config import SpinQN
from .harness import BCH_TOL


def _write_csv(fh: TextIO, header: str, rows: np.ndarray) -> None:
    """The one CSV format of every subcommand: a header, then 15 significant digits."""
    line = ",".join(["{:.14e}"] * rows.shape[1]) + "\n"
    fh.write(header + "\n")
    fh.writelines(line.format(*row) for row in rows.tolist())


def _print_report(rep: harness.Report) -> None:
    print(f"transit_time_s    {rep.transit_time_s:.6e}")
    for label, dz in rep.deflection_m.items():
        print(f"deflection_m[{label}] {dz:+.6e}")
    sep = "unresolved" if rep.peak_separation_m is None else f"{rep.peak_separation_m:.6e}"
    print(f"peak_separation_m {sep}")
    print(f"entropy_nats      {rep.entropy_nats:.6e}")
    for name, value, _ in rep.reference_rows():
        print(f"{name:<17} {value:.6e}")


def _print_rows(rows: list[tuple[str, float, float]], line: str) -> int:
    """Print (name, value, tolerance) rows with the format `line`, which may
    also use {verdict}; exit code 0 if every row passes, else 1."""
    ok = True
    for name, value, tol in rows:
        passed = value <= tol
        ok = ok and passed
        print(line.format(name=name, value=value, tol=tol, verdict="ok" if passed else "FAIL"))
    return 0 if ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    sc = harness.load_scenario(args.config)
    if "density" not in sc.outputs:
        sc = dataclasses.replace(sc, outputs=sc.outputs + ("density",))
    rep = harness.run(sc)
    _print_report(rep)

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            json.dump(rep.json_dict(), fh, indent=2)
            fh.write("\n")
        for name, header, rows in (("density_z.csv", "z_m,p_per_m", rep.density),
                                   ("entropy_timeline.csv", "t_s,entropy_nats",
                                    rep.entropy_timeline)):
            if rows is not None:
                with open(os.path.join(args.out, name), "w") as fh:
                    _write_csv(fh, header, rows)

    return 0 if all(value <= tol for _, value, tol in rep.reference_rows()) else 1


def cmd_compare(args: argparse.Namespace) -> int:
    errors = harness.oracle_density_error(harness.load_scenario(args.config))
    return _print_rows(errors.rows(), "{name} {value:.6e} (tolerance {tol:.1e})")


def cmd_entropy(args: argparse.Namespace) -> int:
    sc = harness.load_scenario(args.config)
    _write_csv(sys.stdout, "t_s,entropy_nats", harness.entropy_timeline(sc, args.samples))
    return 0


def cmd_interfere(args: argparse.Namespace) -> int:
    rows = harness.interferometer_check(harness.load_scenario(args.config), args.T)
    return _print_rows(rows, "{name:<15} {value:.3e} ({verdict}, tolerance {tol:.1e})")


def cmd_bch_check(args: argparse.Namespace) -> int:
    spins = [SpinQN(1), SpinQN(2)] if args.spin is None else [SpinQN.parse(args.spin)]
    ok = True
    for spin in spins:
        check = harness.bch_check(spin, n=args.n)
        passed = check.state_error <= BCH_TOL
        ok = ok and passed
        print(f"spin {spin.label(spin.s).lstrip('+')}: state_error {check.state_error:.3e} "
              f"({'ok' if passed else 'FAIL'}, tolerance {BCH_TOL:.1e}); "
              f"raw operator_error {check.operator_error:.3e} "
              f"(periodic-seam artifact, not gated)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sge",
                                     description="Spin-z beam splitter simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="closed-form run with report")
    p.add_argument("config")
    p.add_argument("--out", help="directory for report.json and density_z.csv")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="closed form vs split-step density and spinor errors")
    p.add_argument("config")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("entropy", help="entanglement entropy timeline as CSV")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=harness.TIMELINE_SAMPLES)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("interfere", help="gradient-flip recombination and reference errors")
    p.add_argument("config")
    p.add_argument("--T", type=float, required=True,
                   help="first-leg duration in seconds (legs are T, 2T, T)")
    p.set_defaults(func=cmd_interfere)

    p = sub.add_parser("bch-check", help="factored propagator vs dense expm")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--spin", help="spin as 1/2, 1, 3/2, ... (default: both 1/2 and 1)")
    p.set_defaults(func=cmd_bch_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
