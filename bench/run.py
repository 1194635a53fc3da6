#!/usr/bin/env python3
"""sgsim's benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it drives the program in
`src/` from outside, through cold `python -m sgsim.cli` processes or, for
the in-process sweep, through `sgsim.harness`.  Every workload is a closed
loop: one client runs operations one after another until --seconds have
passed (CLI workloads finish the cycle of commands they are in), and every
operation's output is checked.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  Details, bases and provenance of each
run are also written to bench/.work/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, NamedTuple

import checks
from checks import Physics
from tracer import layer_metrics, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, ".work")
TRACER_PY = os.path.join(BENCH_DIR, "tracer.py")
SWEEP_PY = os.path.join(BENCH_DIR, "sweep.py")

WORKLOADS = ("silver-reference", "cli-quick", "closed-form-sweep")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# A single operation that runs this long has hung; it is killed and failed.
OP_TIMEOUT_S = 60.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SILVER_CONFIG = "configs/silver.json"
SILVER_GRID = {"z_min_m": -6e-4, "z_max_m": 6e-4, "n": 4096}
# The spin-1 `compare` gets 8192/3 steps so that both silver-reference
# commands do the same split-step work (steps x components = 8192) and the
# operation latencies form one mode, which keeps their median steady.
SPIN1_COMPARE_STEPS = 2731
SETUP_CODE = ("import time, sgsim, sgsim.harness as h; "
              f"h.load_scenario({SILVER_CONFIG!r}); "
              "t = time.perf_counter(); print(repr(t)); print(sgsim.__file__)")

ORACLE_LINE = re.compile(r"^oracle_l2_error\s+(\S+)", re.M)

perf = time.perf_counter


class Bench:
    """Paths and the child-process environment of one run."""

    def __init__(self, root: str, tag: str):
        self.root = os.path.abspath(root)
        self.work = os.path.join(WORK_DIR, tag)
        self.out = os.path.join(self.work, "out")
        self.python = sys.executable
        self.nproc = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in BLAS_VARS:  # BLAS threads never exceed nproc
            value = env.get(var, "")
            if not (value.isdigit() and 1 <= int(value) <= self.nproc):
                env[var] = str(self.nproc)
        self.env = env
        os.makedirs(self.out, exist_ok=True)

    def spawn(self, argv: list[str], name: str, timeout: float = OP_TIMEOUT_S) -> dict:
        """Run one child to completion; wall time from fork to reap, its own
        rusage (so peak RSS is this child's), stdout and stderr as text."""
        out_path = os.path.join(self.work, f"{name}.stdout")
        err_path = os.path.join(self.work, f"{name}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = perf()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"t0": t0, "t1": t1, "latency": t1 - t0, "rc": proc.returncode,
                "rss_kb": usage.ru_maxrss, "stdout": stdout, "stderr": stderr}


# ---------------------------------------------------------------------------
# CLI workloads

class Command(NamedTuple):
    label: str
    args: list[str]
    check: Callable[[str, str], list[str]]  # (stdout, out dir) -> failures


def _read(path: str) -> tuple[str, list[str]]:
    try:
        with open(path) as fh:
            return fh.read(), []
    except OSError as exc:
        return "", [f"cannot read {os.path.basename(path)}: {exc}"]


def _check_run_outputs(phys: Physics, out: str, stock_silver: bool, want_oracle: bool,
                       timeline_samples: int | None) -> list[str]:
    text, fails = _read(os.path.join(out, "report.json"))
    if fails:
        return fails
    rep, fails = checks.parse_report_json(text)
    if fails:
        return fails
    fails = checks.check_report(phys, rep, stock_silver=stock_silver)
    if want_oracle and "oracle_l2_error" not in rep:
        fails.append("report.json lacks oracle_l2_error")
    text, more = _read(os.path.join(out, "density_z.csv"))
    rows, more2 = checks.read_csv(text, "z_m,p_per_m") if not more else ([], more)
    fails += more2 or checks.check_density(rows)
    if timeline_samples:
        text, more = _read(os.path.join(out, "entropy_timeline.csv"))
        rows, more2 = checks.read_csv(text, "t_s,entropy_nats") if not more else ([], more)
        fails += more2 or checks.check_timeline(phys, rows, timeline_samples)
    return fails


def _write_doc(bench: Bench, name: str, doc: dict) -> str:
    path = os.path.join(bench.work, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return os.path.relpath(path, bench.root)


def cli_commands(bench: Bench, workload: str) -> list[Command]:
    """The command cycle of a CLI workload."""
    with open(os.path.join(bench.root, SILVER_CONFIG)) as fh:
        silver_doc = json.load(fh)
    silver = Physics(silver_doc)
    out = os.path.relpath(bench.out, bench.root)

    def spin1(outputs, **extra):
        return {**checks.STOCK, "twice_s": 2, "coeffs": [1, 1, 1], "grid": SILVER_GRID,
                "outputs": outputs, **extra}

    if workload == "silver-reference":
        compare_doc = spin1(["density"], oracle_steps=SPIN1_COMPARE_STEPS)
        compare_path = _write_doc(bench, "silver_spin1_compare.json", compare_doc)
        return [
            Command("run-silver", ["run", SILVER_CONFIG, "--out", out],
                    lambda so, od: _check_run_outputs(silver, od, True, True, None)),
            Command("compare-spin1", ["compare", compare_path],
                    lambda so, od: checks.check_compare_stdout(so)),
        ]
    if workload == "cli-quick":
        quick_doc = spin1(["density", "entropy-timeline"])
        quick_path = _write_doc(bench, "silver_spin1_quick.json", quick_doc)
        quick = Physics(quick_doc)

        def entropy_check(stdout, _):
            rows, fails = checks.read_csv(stdout, "t_s,entropy_nats")
            return fails or checks.check_timeline(silver, rows, 33)

        return [
            Command("run-spin1", ["run", quick_path, "--out", out],
                    lambda so, od: _check_run_outputs(quick, od, False, False, 33)),
            Command("entropy-silver", ["entropy", SILVER_CONFIG, "--samples", "33"], entropy_check),
            Command("bch-check", ["bch-check"], lambda so, od: checks.check_bch_stdout(so)),
        ]
    raise ValueError(f"not a CLI workload: {workload}")


def cli_op(bench: Bench, cmd: Command, traced: bool, index: int, spans_log: list) -> dict:
    shutil.rmtree(bench.out, ignore_errors=True)
    os.makedirs(bench.out)
    spans_path = os.path.join(bench.work, "spans.json")
    if traced:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        argv = [bench.python, TRACER_PY, spans_path, "--", *cmd.args]
    else:
        argv = [bench.python, "-m", "sgsim.cli", *cmd.args]
    res = bench.spawn(argv, "op")
    fails = []
    if res["rc"] != 0:
        tail = (res["stderr"].strip() or res["stdout"].strip())[-300:]
        fails.append(f"exit code {res['rc']}: {tail}")
    else:
        try:
            fails += cmd.check(res["stdout"], bench.out)
        except Exception as exc:  # malformed output fails the operation, not the run
            fails.append(f"output check raised {type(exc).__name__}: {exc}")
    child = None
    if traced:
        try:
            with open(spans_path) as fh:
                child = json.load(fh)
        except (OSError, ValueError) as exc:
            fails.append(f"traced process left no spans: {exc}")
    out_bytes = len(res["stdout"].encode()) + sum(
        os.path.getsize(os.path.join(bench.out, f)) for f in os.listdir(bench.out))
    op = {"cmd": cmd.label, "latency": res["latency"], "t0": res["t0"], "t1": res["t1"],
          "ok": not fails, "fails": fails, "rss_kb": res["rss_kb"], "traced": traced,
          "out_bytes": out_bytes}
    oracle = ORACLE_LINE.search(res["stdout"])
    if oracle:  # recorded as a figure; the gate is the check's 1e-4
        op["oracle_l2_error"] = float(oracle.group(1))
    if child is not None:
        # the parent's view of the process is the root span of the operation
        spans = [["op", res["t0"], res["t1"], -1, None]] + [
            [name, a, b, p + 1 if p >= 0 else 0, bases] for name, a, b, p, bases in child["spans"]]
        op["summary"] = summarize(spans, child["counts"])
        spans_log.append({"op": index, "cmd": cmd.label, "spans": spans, "counts": child["counts"]})
    return op


def run_cli(bench: Bench, commands: list[Command], seconds: float, trace: bool) -> dict:
    """Whole cycles of the command list until --seconds have passed; traced
    runs alternate each traced command with its untraced twin."""
    ops, spans_log = [], []
    deadline = perf() + seconds
    while not ops or perf() < deadline:
        for cmd in commands:
            for traced in ((True, False) if trace else (False,)):
                ops.append(cli_op(bench, cmd, traced, len(ops), spans_log))
    span = ops[-1]["t1"] - ops[0]["t0"]
    return {"ops": ops, "span_s": span, "spans": spans_log,
            "peak_rss_kb": max(o["rss_kb"] for o in ops)}


# ---------------------------------------------------------------------------
# closed-form-sweep

def run_sweep(bench: Bench, seed: int, seconds: float, trace: bool) -> dict:
    result = os.path.join(bench.work, "sweep.json")
    res = bench.spawn([bench.python, SWEEP_PY, "--seed", str(seed), "--seconds", repr(seconds),
                       "--trace", str(int(trace)), "--result", result], "sweep",
                      timeout=seconds + OP_TIMEOUT_S)
    if res["rc"] != 0:
        raise RuntimeError(f"sweep worker exited with {res['rc']}: {res['stderr'][-2000:]}")
    with open(result) as fh:
        record = json.load(fh)
    record["peak_rss_kb"] = res["rss_kb"]
    return record


# ---------------------------------------------------------------------------
# statistics and metrics

def tail_latency(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it: the
    (n-10)-th smallest of n.  Up to 21 samples that percentile is not above
    the median, so the median is reported and carries no tail information;
    with ten or fewer no percentile has ten beyond it, and the maximum of
    those few samples is reported."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n} ops: no tail figure, no percentile has 10 samples beyond it"
    if n <= 21:
        return statistics.median(xs), (f"p50 of {n} ops: no tail figure, p{100.0 * (n - 10) / n:.1f} "
                                       "(the last with 10 samples beyond it) is not above the median")
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops, 10 samples beyond it"


def end_to_end(record: dict, setup: list[float]) -> dict:
    ops = [o for o in record["ops"] if not o["traced"]]
    lat = [o["latency"] for o in ops]
    tail, tail_note = tail_latency(lat)
    rows = [
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} cold starts: import sgsim + load_scenario"),
        ("op_p50_s", statistics.median(lat), "s", f"median of {len(lat)} ops"),
        ("op_tail_s", tail, "s", tail_note),
        ("ops_per_s", len(ops) / sum(lat), "1/s",
         f"{len(ops)} ops in {sum(lat):.3f} s of summed op latency"),
        ("peak_rss_mb", record["peak_rss_kb"] / 1024.0, "MB",
         "max ru_maxrss over workload processes"),
    ]
    return {name: {"value": v, "unit": unit, "base": base} for name, v, unit, base in rows}


def measure_setup(bench: Bench) -> list[float]:
    """Cold interpreter to parsed Scenario, after one unmeasured start that
    fills the .pyc cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = bench.spawn([bench.python, "-c", SETUP_CODE], "setup")
        lines = res["stdout"].split()
        if res["rc"] != 0 or len(lines) != 2:
            raise RuntimeError(f"setup failed ({res['rc']}): {res['stderr'][-2000:]}")
        src = os.path.join(bench.root, "src") + os.sep
        if not os.path.abspath(lines[1]).startswith(src):
            raise RuntimeError(f"sgsim was imported from {lines[1]}, not from {src}")
        if i:
            times.append(float(lines[0]) - res["t0"])
    return times


def import_metrics(bench: Bench) -> dict:
    """Cold-process import figures from `python -X importtime -c "import
    sgsim"`: the cumulative time of the sgsim and scipy.signal lines, and
    the summed self time of every scipy.linalg module (scipy.linalg has no
    line of its own when scipy.signal pulls it in).  A module sgsim no
    longer imports reads 0.  import.python_s is the wall time of
    `python -c pass`."""
    floor, figures = [], {"sgsim": [], "scipy_signal": [], "scipy_linalg": []}
    for _ in range(IMPORT_REPEATS):
        floor.append(bench.spawn([bench.python, "-c", "pass"], "import")["latency"])
        res = bench.spawn([bench.python, "-X", "importtime", "-c", "import sgsim"], "import")
        cumulative, linalg_self = {}, 0
        for line in res["stderr"].splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            cumulative.setdefault(name, int(parts[1]))
            if name == "scipy.linalg" or name.startswith("scipy.linalg."):
                linalg_self += int(parts[0])
        figures["sgsim"].append(cumulative.get("sgsim", 0) * 1e-6)
        figures["scipy_signal"].append(cumulative.get("scipy.signal", 0) * 1e-6)
        figures["scipy_linalg"].append(linalg_self * 1e-6)
    note = f"median of {IMPORT_REPEATS} cold processes"
    out = {"import.python_s": (statistics.median(floor), f"{note}, wall time of python -c pass"),
           "import.sgsim_s": (statistics.median(figures["sgsim"]), f"{note}, cumulative"),
           "import.scipy_signal_s": (statistics.median(figures["scipy_signal"]),
                                     f"{note}, cumulative within import sgsim"),
           "import.scipy_linalg_s": (statistics.median(figures["scipy_linalg"]),
                                     f"{note}, self time of scipy.linalg.* within import sgsim")}
    return {k: {"value": v, "unit": "s", "base": b} for k, (v, b) in out.items()}


def trace_metrics(bench: Bench, record: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run plus its tracing overhead, and the
    consistency problems of its spans (none expected)."""
    traced = [o for o in record["ops"] if o["traced"]]
    plain = [o for o in record["ops"] if not o["traced"]]
    summaries = [o["summary"] for o in traced if "summary" in o]
    metrics = import_metrics(bench)
    metrics.update(layer_metrics(summaries))
    t50 = statistics.median(o["latency"] for o in traced)
    u50 = statistics.median(o["latency"] for o in plain)
    metrics["trace.overhead_s"] = {
        "value": t50 - u50, "unit": "s",
        "base": f"traced op_p50 {t50:.6g} s ({len(traced)} ops) - untraced {u50:.6g} s ({len(plain)} ops)"}
    metrics["trace.traced_ops"] = {"value": float(len(traced)), "unit": "count",
                                   "base": "operations the per-layer figures average over"}
    out_bytes = [o.get("out_bytes", 0) for o in traced]
    metrics["cli.output_bytes"] = {"value": sum(out_bytes) / len(traced), "unit": "B",
                                   "base": f"stdout + files written, mean of {len(traced)} ops"}
    problems = []
    for i, s in enumerate(summaries):
        if not s["nested"]:
            problems.append(f"traced op {i}: a child span lies outside its parent")
        if not s["disjoint"]:
            problems.append(f"traced op {i}: two spans under one parent overlap or are out of order")
        if s["min_self"] < 0:
            problems.append(f"traced op {i}: negative self time {s['min_self']:.3g} s")
    return metrics, problems


# ---------------------------------------------------------------------------
# provenance

def provenance(bench: Bench, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    git_sha = None
    if os.path.exists(os.path.join(bench.root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                              text=True, check=False)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "configs"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(bench.root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, bench.root).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": bench.nproc, "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "blas_env_children": {v: bench.env[v] for v in BLAS_VARS},
        "blas_env_inherited": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha, "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------

def execute(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (the result line is a
    subset of it)."""
    bench = Bench(root, f"{workload}-seed{seed}-trace{int(trace)}-pid{os.getpid()}")
    try:
        prov = provenance(bench, workload, seed, seconds, trace)
        setup = [] if trace else measure_setup(bench)
        if workload == "closed-form-sweep":
            record = run_sweep(bench, seed, seconds, trace)
            ds = [o["d"] for o in record["ops"]]
            record["spin_share"] = {f"d={d}": ds.count(d) / len(ds) for d in sorted(set(ds))}
        else:
            record = run_cli(bench, cli_commands(bench, workload), seconds, trace)
            record["failure_notes"] = [f"op {i} {o['cmd']}: {'; '.join(o['fails'][:3])}"
                                       for i, o in enumerate(record["ops"]) if o["fails"]][:20]
        ops = record["ops"]
        failed = sum(not o["ok"] for o in ops)
        # the benchmark's own work between operations: drawing, writing and
        # checking inputs and outputs; no metric includes it
        record["bench_overhead_share"] = 1.0 - sum(o["latency"] for o in ops) / record["span_s"]
        problems = []
        if trace:
            metrics, problems = trace_metrics(bench, record)
        else:
            metrics = end_to_end(record, setup)
        spans = record.pop("spans", [])
        for o in ops:
            o.pop("summary", None)
        out = {"correct": failed == 0 and not problems, "attempted": len(ops), "failed": failed,
               "fail_ratio": failed / len(ops), "metrics": metrics, "provenance": prov,
               "setup_s_samples": setup, "problems": problems, "record": record}
        results = os.path.join(WORK_DIR, "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w") as fh:
            json.dump(out, fh, indent=1)
        if trace:  # spans are kept in memory and written once the run has ended
            with open(stem + "-spans.jsonl", "w") as fh:
                for entry in spans:
                    fh.write(json.dumps(entry) + "\n")
        return out
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def checkout_ok(root: str) -> bool:
    """The benchmark builds nothing: it needs the program's source tree."""
    missing = [p for p in ("src/sgsim/__init__.py", "src/sgsim/cli.py", SILVER_CONFIG)
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the root of an sgsim checkout; missing {', '.join(missing)}",
              file=sys.stderr)
    return not missing


def print_human(res: dict, show_provenance: bool = True) -> None:
    prov = res["provenance"]
    if show_provenance:
        print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"== {prov['workload']} seed={prov['seed']} trace={int(prov['trace'])}: "
          f"{res['attempted']} ops, {res['failed']} failed")
    record = res["record"]
    if "spin_share" in record:
        print("  spin share " + json.dumps(record["spin_share"]))
        print("  parameter ranges " + json.dumps(record["parameter_ranges"]))
    rows = [("fail_ratio", res["fail_ratio"], "ratio", f"{res['failed']} failed / {res['attempted']} attempted"),
            ("bench_overhead_share", record["bench_overhead_share"], "ratio",
             "share of the run spent between operations, in the benchmark's own code")]
    rows += [(name, m["value"], m["unit"], m["base"]) for name, m in res["metrics"].items()]
    for name, value, unit, base in rows:
        print(f"  {name:<56} {value:<14.6g} {unit:<6} {base}")
    oracle = [f"{o['cmd']} {o['oracle_l2_error']:.3e}" for o in record["ops"] if "oracle_l2_error" in o]
    if oracle:
        print("  oracle_l2_error (figure, not gated): " + ", ".join(oracle[:4]))
    for note in record.get("failure_notes", []) + res["problems"]:
        print(f"  FAIL {note}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="sgsim benchmark: one workload, one timed run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not checkout_ok(root):
        return 2
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    res = execute(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(res)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
