"""Smoke tests of the benchmark itself, each at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _small_silver_commands(bench):
    """silver-reference's two commands on the order-one
    configs/scaled_small.json (n = 256, 256 steps) instead of silver."""
    with open(os.path.join(ROOT, "configs/scaled_small.json")) as fh:
        small = json.load(fh)
    compare = os.path.join(bench.work, "small_spin1_compare.json")
    with open(compare, "w") as fh:
        json.dump({**small, "twice_s": 2, "coeffs": [1, 1, 1]}, fh)
    phys = checks.Physics(small)
    return [
        run.Command("run-small", ["run", "configs/scaled_small.json", "--out", bench.out],
                    lambda so, od: run._check_run_outputs(phys, od, False, True, None)),
        run.Command("compare-spin1", ["compare", compare],
                    lambda so, od: checks.check_compare_stdout(so)),
    ]


@pytest.fixture
def tiny(monkeypatch):
    """One measured cold start, and silver-reference at an order-one size."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    full = run.cli_commands
    monkeypatch.setattr(run, "cli_commands", lambda bench, workload: (
        _small_silver_commands(bench) if workload == "silver-reference" else full(bench, workload)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_completes_with_every_metric(tiny, workload, trace):
    res = run.execute(ROOT, workload, seed=3, seconds=0.3, trace=trace)
    assert res["attempted"] >= 1
    assert res["failed"] == 0, res["record"].get("failure_notes")
    assert res["correct"] and not res["problems"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_spans_nest_and_siblings_are_disjoint():
    run.execute(ROOT, "cli-quick", seed=4, seconds=0.1, trace=True)
    path = os.path.join(run.WORK_DIR, "results", "cli-quick-seed4-trace1-spans.jsonl")
    with open(path) as fh:
        ops = [json.loads(line) for line in fh]
    assert ops
    for op in ops:
        spans = op["spans"]
        assert spans[0][0] == "op" and spans[0][3] == -1
        last_end = {}
        for name, start, end, parent, _ in spans[1:]:
            p = spans[parent]
            assert p[1] <= start <= end <= p[2], (name, p[0])
            assert last_end.get(parent, start) <= start, (name, "overlaps its previous sibling")
            last_end[parent] = end
        s = tracer.summarize(spans, op["counts"])
        assert s["nested"] and s["disjoint"] and s["min_self"] >= 0
        assert {"import.sgsim", "cli.main"} <= set(s["names"])


def test_tracer_rebinds_every_imported_name():
    import sgsim.harness
    import sgsim.oracle
    orig = sgsim.oracle.split_step_evolve
    t = tracer.Tracer()
    t.prepare()
    t.install()
    try:
        assert sgsim.harness.split_step_evolve is not orig
        assert sgsim.harness.split_step_evolve is sgsim.oracle.split_step_evolve
        sgsim.config.Grid(0.0, 1.0, 8).z
        assert t.counts[tracer.GRID_AXIS] == 1
    finally:
        t.uninstall()
    assert sgsim.harness.split_step_evolve is orig
    assert "z" in vars(sgsim.config.Grid) and isinstance(vars(sgsim.config.Grid)["z"], property)


class _ShiftedCentroids:
    """sgsim.harness with every reported centroid moved by 1 nm."""

    def __init__(self):
        import sgsim.harness
        self._h = sgsim.harness

    def __getattr__(self, name):
        return getattr(self._h, name)

    def run(self, sc):
        rep = self._h.run(sc)
        return dataclasses.replace(
            rep, deflection_m={k: v + 1e-9 for k, v in rep.deflection_m.items()})


def test_wrong_sweep_output_counts_as_failure():
    record = sweep.run_sweep(seed=5, seconds=0.05, trace=False, harness=_ShiftedCentroids())
    assert record["ops"] and not any(o["ok"] for o in record["ops"])
    assert "centroid" in record["failure_notes"][0]


def test_wrong_cli_output_counts_as_failure():
    bench = run.Bench(ROOT, "test-wrong-output")
    try:
        doc = {**checks.STOCK, "twice_s": 1, "coeffs": [1, 1]}
        path = os.path.join(bench.work, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        # the check expects a 1% weaker gradient than the program is given
        expected = checks.Physics({**doc, "beta_tesla_per_m": 990.0})
        cmd = run.Command("run", ["run", path, "--out", bench.out],
                          lambda so, od: run._check_run_outputs(expected, od, False, False, None))
        record = run.run_cli(bench, [cmd], seconds=0.0, trace=False)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert [o["ok"] for o in record["ops"]] == [False]
    assert any("centroid" in f for f in record["ops"][0]["fails"])


def test_summarize_flags_overlapping_siblings():
    spans = [["op", 0.0, 10.0, -1, None], ["a", 1.0, 5.0, 0, None], ["b", 4.0, 6.0, 0, None]]
    s = tracer.summarize(spans, {})
    assert s["nested"] and not s["disjoint"]


def test_checks_reject_out_of_tolerance_figures():
    assert checks.check_bch_stdout("spin 1/2: state_error 2.0e-03 (ok)\nspin 2/2: state_error 1e-8\n")
    assert checks.check_compare_stdout("oracle_l2_error 3.0e-02 (tolerance 1e-4)\n")
    assert checks.check_density([(0.0, 0.5), (1.0, 0.5), (2.0, 0.5)])
    assert checks.check_finite({"a": [1.0, float("nan")]})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-quick", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
