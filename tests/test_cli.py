"""End-to-end tests of the `sge` command line: exit codes, report files,
CSV formats, and the check subcommands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import warnings

import pytest

from sgsim import cli, harness
from sgsim.cli import main

from helpers import evolve_segments_b0_off

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Order-one profile so the oracle-backed subcommands stay fast.
SCALED_DOC = {
    "twice_s": 1,
    "coeffs": [1, 1],
    "mass_kg": 1.0,
    "g_factor": 1.0,
    "bohr_magneton_j_per_t": 1.0,
    "hbar_js": 1.0,
    "b0_tesla": 1.0,
    "beta_tesla_per_m": 0.5,
    "v0_m_per_s": 1.0,
    "sigma_x_m": 1.0,
    "sigma_y_m": 1.0,
    "sigma_z_m": 1.0,
    "magnet_length_m": 1.0,
    "segments": [{"beta_tesla_per_m": 0.5, "duration_s": 2.0}],
    "grid": {"z_min_m": -16.0, "z_max_m": 16.0, "n": 256},
    "oracle_steps": 256,
}

SILVER_DOC = {"twice_s": 1, "coeffs": [1, 1]}

FLOAT_14 = re.compile(r"-?\d\.\d{14}e[+-]\d+$")


def write_doc(tmp_path, doc, name="case.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_prints_report(tmp_path, capsys):
    code = main(["run", write_doc(tmp_path, SILVER_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "transit_time_s" in out
    assert "deflection_m[+1/2]" in out
    assert "deflection_m[-1/2]" in out
    assert "peak_separation_m" in out
    assert "entropy_nats" in out


def test_run_writes_report_and_density(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(["run", write_doc(tmp_path, SILVER_DOC), "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0

    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) >= {"transit_time_s", "deflection_m",
                           "peak_separation_m", "entropy_nats"}
    assert abs(report["entropy_nats"] - math.log(2.0)) <= 1e-9
    assert report["deflection_m"]["+1/2"] < 0 < report["deflection_m"]["-1/2"]

    lines = (out_dir / "density_z.csv").read_text().splitlines()
    assert lines[0] == "z_m,p_per_m"
    assert len(lines) == 1 + 4096  # header + one row per grid point
    for field in lines[1].split(","):
        assert FLOAT_14.match(field), field


def test_run_with_entropy_timeline_writes_csv(tmp_path, capsys):
    doc = dict(SCALED_DOC, outputs=["density", "entropy-timeline"])
    out_dir = tmp_path / "results"
    code = main(["run", write_doc(tmp_path, doc), "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    lines = (out_dir / "entropy_timeline.csv").read_text().splitlines()
    assert lines[0] == "t_s,entropy_nats"
    assert len(lines) > 2


def test_run_forces_density_output_and_gates_on_oracle(tmp_path, capsys):
    doc = dict(SCALED_DOC, outputs=["compare-table"])
    out_dir = tmp_path / "results"
    code = main(["run", write_doc(tmp_path, doc), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle_l2_error" in out
    assert (out_dir / "density_z.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["oracle_l2_error"] <= 1e-4


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_passes_at_default_tolerance(tmp_path, capsys):
    code = main(["compare", write_doc(tmp_path, SCALED_DOC)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("oracle_l2_error ")
    assert out[1].startswith("oracle_spinor_error ") and "(tolerance 1.0e-06)" in out[1]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_spinor_error_gates_run_and_compare(tmp_path, capsys, monkeypatch, command):
    # the timeline takes the same seam, with its time column
    doc = {**SILVER_DOC, "outputs": ["compare-table", "entropy-timeline"]}
    monkeypatch.setattr(harness, "evolve_segments", evolve_segments_b0_off)
    code = main([command, write_doc(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 1
    density = float(re.search(r"^oracle_l2_error\s+(\S+)", out, re.M).group(1))
    spinor = float(re.search(r"^oracle_spinor_error\s+(\S+)", out, re.M).group(1))
    assert density <= 1e-10 and spinor > 1e-6


def test_compare_fails_on_a_density_error_above_the_gate(tmp_path, capsys, monkeypatch):
    # a closed form with the mass off by 1% deflects the beams 1% short
    evolve_segments = harness.evolve_segments
    monkeypatch.setattr(harness, "evolve_segments", lambda st, segments, cfg: evolve_segments(
        st, segments, dataclasses.replace(cfg, mass=cfg.mass * 1.01)))
    code = main(["compare", write_doc(tmp_path, SCALED_DOC)])
    out = capsys.readouterr().out
    assert code == 1
    density = re.search(r"^oracle_l2_error (\S+) \(tolerance 1.0e-04\)$", out, re.M).group(1)
    assert float(density) > harness.DENSITY_TOL


@pytest.mark.parametrize("argv", [["compare", "case.json"], ["bch-check"]])
def test_tolerance_option_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_prints_timeline_csv(tmp_path, capsys):
    code = main(["entropy", write_doc(tmp_path, SCALED_DOC), "--samples", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "t_s,entropy_nats"
    assert len(out) == 6
    t0, s0 = out[1].split(",")
    assert float(t0) == 0.0 and float(s0) == 0.0
    values = [float(line.split(",")[1]) for line in out[1:]]
    assert values[-1] > 0.0  # beams have begun separating


@pytest.mark.parametrize("samples", [33, 4097])
def test_entropy_prints_what_run_writes_to_its_csv(tmp_path, capsys, samples):
    """sge entropy and the CSV files of sge run share one writer: same header,
    same digits, byte for byte."""
    sc = harness.load_scenario(os.path.join(ROOT, "configs", "silver.json"))
    code = main(["entropy", os.path.join(ROOT, "configs", "silver.json"),
                 "--samples", str(samples)])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "timeline.csv"
    with open(path, "w") as fh:
        cli._write_csv(fh, "t_s,entropy_nats", harness.entropy_timeline(sc, samples))
    assert out == path.read_text()
    lines = out.splitlines()
    assert len(lines) == samples + 1
    assert all(FLOAT_14.match(field) for line in lines[1:] for field in line.split(","))


def test_entropy_rejects_single_sample(tmp_path, capsys):
    code = main(["entropy", write_doc(tmp_path, SCALED_DOC), "--samples", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# interfere
# ---------------------------------------------------------------------------


def test_interfere_recombination_checks_pass(tmp_path, capsys):
    code = main(["interfere", write_doc(tmp_path, SCALED_DOC), "--T", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("ok") == 4
    assert "FAIL" not in out
    assert "net_kick_rel" in out
    assert "entropy_nats" in out
    assert "oracle_l2_error" in out
    assert "oracle_spinor_error" in out


def test_interfere_fails_on_a_phase_the_density_misses(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "evolve_segments", evolve_segments_b0_off)
    code = main(["interfere", write_doc(tmp_path, SILVER_DOC), "--T", "1.3e-5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split()[0] for line in out if "FAIL" in line] == ["oracle_spinor_error"]


@pytest.mark.parametrize("beta, T", [(0.0, "0.5"), (0.5, "0")])
def test_interfere_without_beam_split_exits_2(tmp_path, capsys, beta, T):
    doc = {**SCALED_DOC, "beta_tesla_per_m": beta}
    code = main(["interfere", write_doc(tmp_path, doc), "--T", T])
    err = capsys.readouterr().err
    assert code == 2
    assert "no beam split" in err


@pytest.mark.parametrize("T", ["1e308", "inf", "nan", "-1e-5"])
def test_interfere_bad_leg_duration_exits_2_naming_T(tmp_path, capsys, T):
    code = main(["interfere", write_doc(tmp_path, SCALED_DOC), f"--T={T}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "leg T must be finite and >= 0" in err


def test_interfere_requires_leg_duration(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["interfere", write_doc(tmp_path, SCALED_DOC)])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bch-check
# ---------------------------------------------------------------------------


def test_bch_check_single_spin(capsys):
    code = main(["bch-check", "--spin", "1/2", "--n", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("state_error") == 1
    assert "ok" in out and "FAIL" not in out
    assert "periodic-seam artifact" in out


def test_bch_check_defaults_to_both_stock_spins(capsys):
    code = main(["bch-check", "--n", "64"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 2
    assert out[0].startswith("spin 1/2:")
    assert out[1].startswith("spin 1:")


def test_bch_check_rejects_bad_spin(capsys):
    for spin in ("banana", "0.5", "1/3", "-1", ""):  # an empty spin is not a missing one
        code = main(["bch-check", "--spin", spin])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: spin must be written as 1/2, 1, 3/2, ..., got {spin!r}" in err


def test_bch_check_runs_spin_three_halves_on_256_points(capsys):
    code = main(["bch-check", "--spin", "3/2", "--n", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("spin 3/2:") and "FAIL" not in out


def test_bch_check_rejects_oversized_matrix_before_building_it(capsys):
    code = main(["bch-check", "--spin", "2000", "--n", "256"])
    err = capsys.readouterr().err
    assert code == 2
    assert "dense check capped" in err


# ---------------------------------------------------------------------------
# invalid input handling
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_2(capsys):
    code = main(["run", "/nonexistent/case.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["run", str(path)])
    assert code == 2
    capsys.readouterr()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code = main(["run", write_doc(tmp_path, {"twice_s": 1, "coeffs": [1, 0],
                                             "betaa": 2.0})])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown config keys" in err


def test_nan_coefficient_exits_2_naming_the_coefficients(tmp_path, capsys):
    path = write_doc(tmp_path, {"twice_s": 1, "coeffs": [math.nan, 1]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "coefficients must be finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def run_recording_warnings(argv: list[str]) -> tuple[int, list]:
    """main(argv) and the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


# each segment alone is finite; the drift's flight times the kick the first
# one gave overflows the packet phase
KICK_THEN_DRIFT = {**SCALED_DOC, "segments": [{"beta_tesla_per_m": 1e150, "duration_s": 1.0},
                                              {"beta_tesla_per_m": 0.0, "duration_s": 1e10}]}


@pytest.mark.parametrize("doc, message", [
    ({**SILVER_DOC, "segments": [{"beta_tesla_per_m": 1000.0, "duration_s": 1e300}]},
     "segments[0]: duration_s 1e+300 overflows the closed form: q must be finite, "
     "got [-inf  inf]"),
    (KICK_THEN_DRIFT,
     "segments[1]: duration_s 10000000000.0 overflows the closed form: phase must be finite, "
     "got [nan nan]"),
])
def test_a_schedule_that_overflows_the_closed_form_exits_2_naming_the_segment(
        tmp_path, capsys, doc, message):
    code, warned = run_recording_warnings(["run", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
    assert not warned


def test_entropy_names_the_segment_that_overflows_the_closed_form(tmp_path, capsys):
    # the timeline walks its 33 sample times at once: the message names the
    # drift, and evolve's message holds the phases of every sample
    code, warned = run_recording_warnings(["entropy", write_doc(tmp_path, KICK_THEN_DRIFT)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not warned
    assert err.startswith("error: segments[1]: duration_s 10000000000.0 overflows the closed "
                          "form: phase must be finite, got [[0. ")


@pytest.mark.parametrize("command", ["run", "entropy", "compare"])
def test_a_schedule_whose_total_duration_overflows_exits_2_naming_the_segment(
        tmp_path, capsys, command):
    # each drift alone is finite, and so is the closed form at a tiny g
    # factor; their sum, which the timeline and the reference read, is not
    doc = {**SILVER_DOC, "g_factor": 1e-20,
           "segments": [{"beta_tesla_per_m": 0.0, "duration_s": 1.5e308}] * 2}
    code, warned = run_recording_warnings([command, write_doc(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not warned
    assert err == ("error: segments[1]: duration_s 1.5e+308 overflows the schedule's total "
                   "duration\n")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("key, value", [("b0_tesla", 1e300), ("hbar_js", 1.0546e-180)])
def test_a_reference_that_leaves_the_floats_exits_2_naming_the_segment(
        tmp_path, capsys, command, key, value):
    # the closed form is finite; the split-step's field phase (b0) or
    # kinetic phase (hbar) is not
    doc = {**SILVER_DOC, key: value, "outputs": ["density", "compare-table"]}
    code, warned = run_recording_warnings([command, write_doc(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not warned
    assert err == ("error: segments[0]: duration_s 5.303030303030304e-05 overflows the "
                   "split-step reference with steps = 1\n")


def test_a_beam_too_wide_for_the_density_exits_2_naming_the_component(tmp_path, capsys):
    # two finite drifts whose flight spreads s2 to 1e308 i: the position
    # variance |s2|^2 / Re s2 overflows
    doc = {**SCALED_DOC, "hbar_js": 2.0,
           "segments": [{"beta_tesla_per_m": 0.0, "duration_s": 5e307}] * 2}
    code, warned = run_recording_warnings(["run", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2 and not warned
    assert err == ("error: component m=+1/2 has a position variance that overflows: its "
                   "closed-form s2 is 1+1e+308j m^2\n")


@pytest.mark.parametrize("coeffs, message", [
    ([math.inf, 1], "coefficients must be finite"),
    ([0, [0.0, -0.0]], "coefficients must be finite and not all zero"),
    ([], "coefficients must be finite and not all zero")])
def test_bad_coefficients_exit_2(tmp_path, capsys, coeffs, message):
    code = main(["run", write_doc(tmp_path, {"twice_s": 1, "coeffs": coeffs})])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("coeffs, unit", [([1e300, 1e300], [1, 1]),
                                          ([1e-200, 1e-200], [1, 1]),
                                          ([1e200, [0, 1e200]], [1, [0, 1]])])
def test_run_output_does_not_depend_on_the_coefficient_scale(tmp_path, capsys, coeffs, unit):
    written = []
    for name, c in (("scaled", coeffs), ("unit", unit)):
        out_dir = tmp_path / name
        code = main(["run", write_doc(tmp_path, dict(SILVER_DOC, coeffs=c), f"{name}.json"),
                     "--out", str(out_dir)])
        assert code == 0
        written.append([capsys.readouterr().out] + [
            (out_dir / f).read_bytes() for f in ("report.json", "density_z.csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("key, value", [("twice_s", 1.5), ("twice_s", True),
                                        ("oracle_steps", 2.7)])
def test_non_integral_integer_key_exits_2_naming_the_key(tmp_path, capsys, key, value):
    code = main(["run", write_doc(tmp_path, {**SILVER_DOC, key: value})])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be an integer" in err


@pytest.mark.parametrize("key, value", [("beta_tesla_per_m", True), ("b0_tesla", None),
                                        ("mass_kg", "1.79e-25")])
def test_non_numeric_float_key_exits_2_naming_the_key(tmp_path, capsys, key, value):
    code = main(["run", write_doc(tmp_path, {**SILVER_DOC, key: value})])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be a number" in err


@pytest.mark.parametrize("key, doc", [("grid.n", {"grid": {"n": 1 << 40}}),
                                      ("oracle_steps", {"oracle_steps": 10**12})])
def test_huge_integer_key_exits_2_naming_the_key(tmp_path, capsys, key, doc):
    code = main(["run", write_doc(tmp_path, {**SILVER_DOC, **doc})])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{key} must be <= {1 << 20}" in err


def test_bch_check_output_is_gone(tmp_path, capsys):
    code = main(["run", write_doc(tmp_path, {**SILVER_DOC, "outputs": ["bch-check"]})])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown output 'bch-check'" in err


@pytest.mark.parametrize("bounds", [(-math.inf, 6e-4), (-6e-4, math.nan), (-1e308, 1e308)])
def test_non_finite_grid_bounds_exit_2(tmp_path, capsys, bounds):
    doc = {**SILVER_DOC, "grid": {"z_min_m": bounds[0], "z_max_m": bounds[1]}}
    code = main(["run", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "grid bounds must be finite with a finite span" in err
    assert "outside the density window" not in err


@pytest.mark.parametrize("sigma_z", [1e200, 1e-200])  # sigma_z^2 overflows, underflows to 0
def test_a_sigma_z_whose_square_leaves_the_floats_exits_2_naming_it(tmp_path, capsys, sigma_z):
    code = main(["run", write_doc(tmp_path, {**SCALED_DOC, "sigma_z_m": sigma_z})])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: sigma_z_m must have a positive finite square, got {sigma_z!r}\n"


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("v0", [0.0, -1.0])
def test_a_beam_speed_at_or_below_0_exits_2_naming_it(tmp_path, capsys, command, v0):
    # the schedule is explicit, so nothing before the report reads v0
    code = main([command, write_doc(tmp_path, {**SCALED_DOC, "v0_m_per_s": v0})])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: v0_m_per_s must be positive and finite, got {v0!r}\n"


@pytest.mark.parametrize("key, value, message", [
    ("mass_kg", -1.0, "mass_kg must be positive and finite, got -1.0"),
    ("sigma_z_m", -0.05, "sigma_z_m must be positive and finite, got -0.05"),
    ("hbar_js", 0.0, "hbar_js must be positive and finite, got 0.0"),
    ("b0_tesla", 1e999, "b0_tesla must be finite"),
])
def test_a_bad_physics_value_exits_2_naming_its_key(tmp_path, capsys, key, value, message):
    code = main(["run", write_doc(tmp_path, {**SCALED_DOC, key: value})])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_names_the_component_a_screen_drift_leaves_outside_the_window(tmp_path, capsys):
    # the stock magnet, then 1 m of free flight at 660 m/s: both beams leave
    # the stock +-6e-4 m window
    doc = {**SILVER_DOC, "segments": [
        {"beta_tesla_per_m": 1000.0, "duration_s": 0.035 / 660.0},
        {"beta_tesla_per_m": 0.0, "duration_s": 1.515e-3}]}
    code = main(["run", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "component m=+1/2 lies outside the density window [-0.0006, 0.0006] m" in err
    assert "centroid is -0.00423532 m and its width 1.5e-05 m" in err


def test_run_ignores_a_weightless_component_at_the_window_edge(tmp_path, capsys):
    # m = -1/2 carries no weight; its beam reaches past z_max, the weighted
    # m = +1/2 one does not, so the density and the reference both run
    doc = {**SILVER_DOC, "coeffs": [1, 0], "outputs": ["density", "compare-table"],
           "grid": {"z_min_m": -6e-4, "z_max_m": 1.5e-4, "n": 4096}}
    code = main(["run", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    l2 = float(re.search(r"^oracle_l2_error\s+(\S+)$", captured.out, re.M).group(1))
    assert l2 <= 1e-9


def test_run_leak_names_the_weighted_component(tmp_path, capsys):
    # both beams touch the window edge; only m = -1/2 carries weight
    doc = {**SILVER_DOC, "coeffs": [0, 1],
           "grid": {"z_min_m": -6e-4, "z_max_m": -1.2e-4, "n": 4096}}
    code = main(["run", write_doc(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "component m=-1/2 touches the grid boundary in the density window" in err


def test_run_passes_on_the_silver_screen_config(tmp_path, capsys):
    # the same drift in a +-6e-3 m window, with the split-step reference
    out_dir = tmp_path / "results"
    code = main(["run", os.path.join(ROOT, "configs", "silver_screen.json"),
                 "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle_spinor_error" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["oracle_l2_error"] <= 1e-9 and report["oracle_spinor_error"] <= 1e-7


def test_entropy_rejects_huge_sample_count(tmp_path, capsys):
    code = main(["entropy", write_doc(tmp_path, SCALED_DOC), "--samples", str(10**12)])
    err = capsys.readouterr().err
    assert code == 2
    assert "samples must be <=" in err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# help text
# ---------------------------------------------------------------------------


def test_module_usage_lists_exactly_the_parser_commands_and_options():
    # one "sge <command> ..." line per subcommand; an option is in brackets
    # exactly when it is not required, and <...> marks a positional argument
    usage = {}
    for line in cli.__doc__.splitlines():
        if line.strip().startswith("sge "):
            _, command, *args = re.split(r"\s{2,}", line.strip())[0].split()
            usage[command] = " ".join(args)
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(usage) == set(sub.choices)
    for command, subparser in sub.choices.items():
        text = usage[command]
        options = {opt: (f"[{opt} " in text) for opt in re.findall(r"--[\w-]+", text)}
        positionals = re.findall(r"<(\w+)[^>]*>", text)
        want_options, want_positionals = {}, []
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                [opt] = action.option_strings
                want_options[opt] = not action.required
            else:
                want_positionals.append(action.dest)
        assert options == want_options, command
        assert positionals == want_positionals, command
