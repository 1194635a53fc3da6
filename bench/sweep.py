"""closed-form-sweep workload: seeded random scenarios solved in process.

The generator draws scenario documents in sgsim's JSON format from a
seeded random.Random; the program only ever sees the generated scenarios,
parsed by `harness.scenario_from_dict` outside the timed region.  One
operation is `harness.run(sc)` (density output) followed by
`harness.entropy_timeline(sc, 33)`.

Run as a script it is the workload's worker process:

    python bench/sweep.py --seed 1 --seconds 10 --trace 0 --result OUT.json

It imports sgsim, warms up on scenarios from a separate stream, runs
operations one after another until --seconds have passed, checks every
output and writes the per-operation record to OUT.json.  With --trace 1
operations alternate between traced and untraced, so the untraced half
gives the reference for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time

from checks import (STOCK, STOCK_TRANSIT_S, Physics, check_density, check_report,
                    check_timeline)

TIMELINE_SAMPLES = 33
GRID_N = 4096
WARMUP_OPS = 16
TWICE_S_RANGE = (1, 7)  # spin 1/2 .. 7/2
SEGMENTS_RANGE = (1, 2, 3)
EQUAL_SHARE = 0.25  # share of draws with equal coefficients
BETA_FRACTION = (0.1, 1.0)  # |beta| as a fraction of the stock gradient
DURATION_FRACTION = (0.1, 1.0)  # schedule length as a fraction of the stock transit
FLIP_SHARE = 0.5  # share of 3-segment schedules that are +b/-b/+b flips
MAX_FAILURE_NOTES = 20

PARAMETER_RANGES = {
    "twice_s": list(TWICE_S_RANGE),
    "equal_coefficient_share": EQUAL_SHARE,
    "abs_beta_tesla_per_m": [BETA_FRACTION[0] * STOCK["beta_tesla_per_m"],
                             BETA_FRACTION[1] * STOCK["beta_tesla_per_m"]],
    "total_duration_s": [DURATION_FRACTION[0] * STOCK_TRANSIT_S,
                         DURATION_FRACTION[1] * STOCK_TRANSIT_S],
    "segments": list(SEGMENTS_RANGE),
    "blocks": "each (twice_s, segments) pair once per shuffled block of 21",
    "flip_share_of_3_segment": FLIP_SHARE,
    "grid_n": GRID_N,
    "grid_window": "every final beam +- 12 final widths",
}


def scenario_stream(rng: random.Random):
    """Scenario documents in shuffled blocks that hold every (spin, number
    of segments) pair once.  Those two set an operation's cost, so every run
    sees the same mix of costs whatever its seed, and the median does not
    depend on which mix a seed happened to draw."""
    strata = [(twice_s, nseg) for twice_s in range(TWICE_S_RANGE[0], TWICE_S_RANGE[1] + 1)
              for nseg in SEGMENTS_RANGE]
    while True:
        block = strata[:]
        rng.shuffle(block)
        for twice_s, nseg in block:
            yield draw_scenario(rng, twice_s, nseg)


def draw_scenario(rng: random.Random, twice_s: int, nseg: int) -> dict:
    """One scenario document; the grid window covers every beam."""
    d = twice_s + 1
    if rng.random() < EQUAL_SHARE:
        coeffs = [[1.0, 0.0]] * d
    else:
        coeffs = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(d)]

    def beta():
        return rng.choice((-1.0, 1.0)) * rng.uniform(*BETA_FRACTION) * STOCK["beta_tesla_per_m"]

    total = rng.uniform(*DURATION_FRACTION) * STOCK_TRANSIT_S
    if nseg == 3 and rng.random() < FLIP_SHARE:
        b = beta()
        segments = [(b, total / 4), (-b, total / 2), (b, total / 4)]
    else:
        cuts = [0.0, *sorted(rng.random() for _ in range(nseg - 1)), 1.0]
        segments = [(beta(), (hi - lo) * total) for lo, hi in zip(cuts, cuts[1:])]
    doc = {**STOCK, "twice_s": twice_s, "coeffs": coeffs,
           "segments": [{"beta_tesla_per_m": b, "duration_s": t} for b, t in segments],
           "outputs": ["density"]}
    z_min, z_max = Physics(doc).window()
    doc["grid"] = {"z_min_m": z_min, "z_max_m": z_max, "n": GRID_N}
    return doc


def check_op(phys: Physics, rep, timeline) -> list[str]:
    fails = check_report(phys, rep.json_dict())
    fails += check_density(rep.density.tolist())
    fails += check_timeline(phys, timeline.tolist(), TIMELINE_SAMPLES)
    return fails


def run_op(harness, doc: dict, tracer=None) -> tuple[float, list[str]]:
    """Parse, solve (timed, and traced under an `op` span when a tracer is
    given) and check one scenario."""
    phys = Physics(doc)
    t0 = time.perf_counter()
    try:
        sc = harness.scenario_from_dict(doc)
        with tracer.span("op") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            rep = harness.run(sc)
            timeline = harness.entropy_timeline(sc, TIMELINE_SAMPLES)
            latency = time.perf_counter() - t0
    except Exception as exc:  # any exception is a failed operation, never a crash
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    try:
        return latency, check_op(phys, rep, timeline)
    except Exception as exc:  # malformed output fails the operation, not the run
        return latency, [f"output check raised {type(exc).__name__}: {exc}"]


def run_sweep(seed: int, seconds: float, trace: bool, harness=None) -> dict:
    """The timed closed loop; returns the per-operation record."""
    if harness is None:
        import sgsim.harness as harness
    warm = scenario_stream(random.Random(f"warmup-{seed}"))
    for _ in range(WARMUP_OPS):
        run_op(harness, next(warm))

    tracer = None
    if trace:
        from tracer import Tracer, summarize
        tracer = Tracer()
        tracer.prepare()

    stream = scenario_stream(random.Random(seed))
    ops, notes, spans_out = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not ops or time.perf_counter() < deadline:
        doc = next(stream)
        traced = trace and len(ops) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
            try:
                latency, fails = run_op(harness, doc, tracer)
            finally:
                tracer.uninstall()
        else:
            latency, fails = run_op(harness, doc)
        op = {"latency": latency, "ok": not fails, "d": doc["twice_s"] + 1, "traced": traced}
        if traced and tracer.spans:
            op["summary"] = summarize(tracer.spans, tracer.counts)
            spans_out.append({"op": len(ops), "spans": tracer.spans, "counts": tracer.counts})
        if fails and len(notes) < MAX_FAILURE_NOTES:
            notes.append(f"op {len(ops)} (2s={doc['twice_s']}): {'; '.join(fails[:3])}")
        ops.append(op)
    return {"ops": ops, "span_s": time.perf_counter() - start, "failure_notes": notes,
            "spans": spans_out, "parameter_ranges": PARAMETER_RANGES}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    record = run_sweep(args.seed, args.seconds, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
