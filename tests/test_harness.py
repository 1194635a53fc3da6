"""Tests for scenario assembly, stock configs, reports, the entropy
timeline, the factorization check, and JSON scenario parsing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sgsim import (
    GradientSegment,
    Grid,
    OracleErrors,
    Report,
    Scenario,
    SpinQN,
    bch_check,
    default_silver_config,
    entropy_timeline,
    evolve_segments,
    gaussian_hybrid,
    harness,
    interferometer_check,
    interferometer_segments,
    load_scenario,
    oracle_density_error,
    run,
    scaled_config,
    scenario_from_dict,
)
from sgsim.harness import (DENSITY_TOL, GRID_N_LIMIT, ORACLE_STEPS_LIMIT, SILVER_GRID,
                           SILVER_ORACLE_STEPS, SPINOR_TOL, TWICE_S_LIMIT)

from helpers import evolve_segments_b0_off
from sgsim.propagator import unit_coeffs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HALF = SpinQN.parse("1/2")


def silver_scenario(**overrides) -> Scenario:
    cfg = default_silver_config()
    kwargs = dict(
        cfg=cfg,
        spin=HALF,
        initial_coeffs=np.array([1.0, 1.0]) / math.sqrt(2.0),
        segments=(GradientSegment(cfg.beta, cfg.transit_time),),
        grid=SILVER_GRID,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def scaled_scenario(**overrides) -> Scenario:
    cfg = scaled_config()
    kwargs = dict(
        cfg=cfg,
        spin=HALF,
        initial_coeffs=np.array([1.0, 1.0]) / math.sqrt(2.0),
        segments=(GradientSegment(cfg.beta, 2.0),),
        grid=Grid(z_min=-16.0, z_max=16.0, n=256),
        oracle_steps=64,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# ---------------------------------------------------------------------------
# Stock configurations
# ---------------------------------------------------------------------------


def test_silver_config_values():
    cfg = default_silver_config()
    assert cfg.mass == 1.79e-25
    assert cfg.g_factor == 2.0
    assert cfg.b0 == 0.1
    assert cfg.beta == 1000.0
    assert cfg.v0 == 660.0
    assert cfg.sigma_z == 1.5e-5
    assert cfg.magnet_length == 0.035
    assert abs(cfg.transit_time - 0.035 / 660.0) <= 1e-20
    # gamma = -g mu_B / hbar, about -1.76e11 rad/(s T) for g = 2
    assert abs(cfg.gamma + 2.0 * 9.2740100783e-24 / 1.054571817e-34) <= 1e3


def test_scaled_config_is_order_one():
    cfg = scaled_config()
    assert cfg.hbar == 1.0 and cfg.mass == 1.0
    assert cfg.gamma == -1.0
    assert cfg.beta == 0.5


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_with_beta_rejects_a_non_finite_gradient(beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        default_silver_config().with_beta(beta)


def test_with_beta_carries_every_other_field():
    cfg = default_silver_config()
    new = cfg.with_beta(-250.0)
    assert new.beta == -250.0 and cfg.beta == 1000.0
    assert new == dataclasses.replace(cfg, beta=-250.0)  # same class, every field equal
    with pytest.raises(dataclasses.FrozenInstanceError):
        new.beta = 1.0


def test_interferometer_segments_shape():
    segs = interferometer_segments(0.5, 1.0)
    assert [seg.beta for seg in segs] == [0.5, -0.5, 0.5]
    assert [seg.duration for seg in segs] == [1.0, 2.0, 1.0]
    assert sum(seg.beta * seg.duration for seg in segs) == 0.0


def test_interferometer_check_recombines_the_beams():
    rows = interferometer_check(scaled_scenario(oracle_steps=256), 0.5)
    assert [name for name, _, _ in rows] == ["net_kick_rel", "entropy_nats",
                                             "oracle_l2_error", "oracle_spinor_error"]
    assert all(value <= tol for _, value, tol in rows), rows


@pytest.mark.parametrize("T", [1e308, math.inf, math.nan, -1e-5, -math.inf])
def test_interferometer_check_rejects_a_bad_leg_duration(T):
    # 1e308 is finite, but its middle leg 2T overflows
    with pytest.raises(ValueError, match=r"leg T must be finite and >= 0 with 2T finite"):
        interferometer_check(scaled_scenario(), T)


@pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0])
def test_segment_duration_must_be_finite_and_non_negative(duration):
    with pytest.raises(ValueError, match="duration must be finite and >= 0"):
        GradientSegment(1.0, duration)


def test_scenario_from_dict_rejects_an_infinite_segment_duration(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"twice_s": 1, "coeffs": [1, 0], '
                    '"segments": [{"beta_tesla_per_m": 1.0, "duration_s": Infinity}]}')
    with pytest.raises(ValueError, match="duration must be finite and >= 0, got inf"):
        load_scenario(str(path))


def test_scenario_from_dict_admits_a_300_m_drift_to_the_screen():
    # silver_screen's magnet, then 300 m of flight at 660 m/s, in a window
    # and grid at the parse caps' scale
    doc = {"twice_s": 1, "coeffs": [1, 1], "segments": [
        {"beta_tesla_per_m": 1000.0, "duration_s": 0.035 / 660.0},
        {"beta_tesla_per_m": 0.0, "duration_s": 300.0 / 660.0}],
        "grid": {"z_min_m": -1.5, "z_max_m": 1.5, "n": 1 << 20}}
    assert scenario_from_dict(doc).total_duration == pytest.approx(300.035 / 660.0)


def test_interferometer_check_gates_the_phases_the_density_misses(monkeypatch):
    # a closed form whose only error is its Larmor phases: every row but the
    # spinor one passes
    monkeypatch.setattr(harness, "evolve_segments", evolve_segments_b0_off)
    sc = silver_scenario()
    rows = {name: (value, tol) for name, value, tol in
            interferometer_check(sc, sc.cfg.transit_time / 4)}
    spinor, tol = rows.pop("oracle_spinor_error")
    assert tol == SPINOR_TOL and spinor > tol
    assert rows["oracle_l2_error"] == (pytest.approx(0.0, abs=1e-10), DENSITY_TOL)
    assert all(value <= tol for value, tol in rows.values()), rows


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


def test_scenario_rejects_wrong_coeff_count():
    with pytest.raises(ValueError, match="coefficients"):
        silver_scenario(initial_coeffs=np.array([1.0, 0.0, 0.0]))


def test_scenario_rejects_coeffs_that_are_not_an_array():
    with pytest.raises(ValueError, match=r"initial_coeffs must be an array of 2 coefficients, "
                                         r"got \[1, 0\]"):
        silver_scenario(initial_coeffs=[1, 0])


def test_the_scale_check_bounds_each_segments_phase_increment():
    # evolve reduces the stored phase mod 2 pi, so a schedule whose phase
    # overflows only when summed over its segments is admitted and runs
    segments = (GradientSegment(1e150, 1.0),) + (GradientSegment(0.0, 1e8),) * 20
    sc = scaled_scenario(segments=segments)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = evolve_segments(gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg), list(segments),
                             sc.cfg)
    assert (np.abs(st.z.phase) < 2.0 * math.pi).all()
    # the kick times the centroid shift, 2e308, overflows the packet phase:
    # the scenario is built, and its walk names the segment
    sc = scaled_scenario(cfg=scaled_config(b0=1e308), segments=(GradientSegment(4e154, 1.0),))
    st0 = gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg)
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")
        evolve_segments(st0, list(sc.segments), sc.cfg)
    assert str(err.value) == ("segments[0]: duration_s 1.0 overflows the closed form: phase must "
                              "be finite, got [nan nan]")


@pytest.mark.parametrize("make", [
    # -+5.43e153 T/m over 53 us each: the kicks cancel, and the packet phase
    # is finite, though a bound built from |beta| overflows
    lambda: silver_scenario(spin=SpinQN(2), initial_coeffs=np.ones(3) / math.sqrt(3.0),
                            segments=(GradientSegment(-5.43e153, 5.3e-5),
                                      GradientSegment(5.43e153, 5.3e-5))),
    # at m = +1/2 the Larmor and u2c phases (-8.75e307) and the kick times
    # the shift (1.125e308) differ in sign: their sum of sizes overflows,
    # their signed sum does not
    lambda: scaled_scenario(cfg=scaled_config(b0=1e308), segments=(GradientSegment(3e154, 1.0),)),
], ids=["silver-flip", "scaled-larmor"])
def test_a_schedule_whose_signed_update_is_finite_is_admitted(make):
    sc = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = evolve_segments(gaussian_hybrid(sc.spin, sc.initial_coeffs, sc.cfg),
                             list(sc.segments), sc.cfg)
        assert np.isfinite(st.z.q + st.z.k + st.z.s2 + st.z.phase).all()
        # the beams land far outside the window, which the density names
        with pytest.raises(ValueError, match=r"^component m=\+1(/2)? lies outside the density"):
            run(sc)


def test_the_closed_form_walk_names_the_first_segment_whose_update_overflows():
    """Seeded extreme schedules: evolve_segments returns a finite state, or
    raises naming segments[k] for the first prefix segments[:k+1] whose walk
    is not finite, with no numpy warning either way."""
    rng = np.random.default_rng(2027)
    outcomes = set()
    for _ in range(200):
        cfg = scaled_config() if rng.random() < 0.5 else default_silver_config()
        spin = SpinQN(int(rng.integers(1, 8)))
        scales = 10.0 ** rng.uniform(0.0, 120.0, size=(rng.integers(1, 4), 2))
        segments = [GradientSegment(cfg.beta * rng.choice([-1.0, 1.0]) * beta_scale,
                                    cfg.transit_time * duration_scale)
                    for beta_scale, duration_scale in scales]
        st0 = gaussian_hybrid(spin, np.ones(spin.dim), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = None
            for k in range(len(segments)):
                try:
                    evolve_segments(st0, segments[:k + 1], cfg)
                except ValueError:
                    first = k
                    break
            if first is None:
                z = evolve_segments(st0, segments, cfg).z
                assert np.isfinite(z.q + z.k + z.s2 + z.phase).all()
            else:
                with pytest.raises(ValueError) as err:
                    evolve_segments(st0, segments, cfg)
                assert str(err.value).startswith(
                    f"segments[{first}]: duration_s {segments[first].duration!r} overflows the "
                    f"closed form: ")
        outcomes.add(first)
    assert outcomes == {None, 0, 1, 2}  # every outcome is drawn


def test_scenario_rejects_unnormalized_coeffs():
    with pytest.raises(ValueError, match="normalized"):
        silver_scenario(initial_coeffs=np.array([1.0, 1.0]))


def test_scenario_rejects_nan_coeffs():
    with pytest.raises(ValueError, match="normalized"):
        silver_scenario(initial_coeffs=np.array([math.nan, 1.0]))


def test_scenario_rejects_bad_oracle_steps():
    with pytest.raises(ValueError, match="oracle_steps"):
        silver_scenario(oracle_steps=0)


def test_scenario_rejects_unknown_output():
    with pytest.raises(ValueError, match="unknown output"):
        silver_scenario(outputs=("density", "spectrogram"))


def test_scenario_total_duration():
    sc = silver_scenario(segments=(GradientSegment(1.0, 2.0),
                                   GradientSegment(-1.0, 3.0)))
    assert sc.total_duration == 5.0


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def test_report_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        Report(transit_time_s=1.0, deflection_m={"+1/2": math.nan},
               peak_separation_m=None, entropy_nats=0.0)


def test_report_json_dict_keys():
    rep = Report(transit_time_s=1.0, deflection_m={"+1/2": 0.1, "-1/2": -0.1},
                 peak_separation_m=0.2, entropy_nats=0.5)
    doc = rep.json_dict()
    assert set(doc) == {"transit_time_s", "deflection_m",
                        "peak_separation_m", "entropy_nats"}
    assert rep.reference_rows() == []
    rep2 = Report(transit_time_s=1.0, deflection_m={"+1/2": 0.1},
                  peak_separation_m=None, entropy_nats=0.5,
                  reference=OracleErrors(1e-9, 2e-9))
    doc2 = rep2.json_dict()
    assert set(doc2) == {"transit_time_s", "deflection_m", "peak_separation_m",
                         "entropy_nats", "oracle_l2_error", "oracle_spinor_error"}
    assert doc2["oracle_l2_error"] == 1e-9
    assert doc2["oracle_spinor_error"] == 2e-9
    assert doc2["peak_separation_m"] is None
    assert rep2.reference_rows() == [("oracle_l2_error", 1e-9, DENSITY_TOL),
                                     ("oracle_spinor_error", 2e-9, SPINOR_TOL)]


# ---------------------------------------------------------------------------
# run() end to end
# ---------------------------------------------------------------------------


def test_run_silver_beam_splits_as_measured():
    rep = run(silver_scenario())
    assert abs(rep.transit_time_s - 0.035 / 660.0) <= 1e-20
    d_up = rep.deflection_m["+1/2"]
    d_dn = rep.deflection_m["-1/2"]
    # gamma < 0: the m = +1/2 component is pushed to negative z.
    assert d_up < 0 < d_dn
    assert abs(d_up + 7.285053650982594e-5) <= 1e-18
    assert abs(d_up + d_dn) <= 1e-18
    assert rep.peak_separation_m is not None
    assert abs(rep.peak_separation_m - 2 * d_dn) <= 2 * SILVER_GRID.dz
    assert abs(rep.entropy_nats - math.log(2.0)) <= 1e-9
    assert rep.density is not None and rep.density.shape == (SILVER_GRID.n, 2)
    assert np.array_equal(rep.density[:, 0], SILVER_GRID.z)
    assert abs(np.sum(rep.density[:, 1]) * SILVER_GRID.dz - 1.0) <= 1e-8


def test_run_only_computes_requested_outputs():
    rep = run(scaled_scenario(outputs=()))
    assert rep.density is None
    assert rep.reference is None
    assert rep.entropy_timeline is None


def test_run_with_zero_duration_schedule():
    rep = run(scaled_scenario(segments=()))
    assert rep.entropy_nats <= 1e-12
    for value in rep.deflection_m.values():
        assert abs(value) <= 1e-15


def test_run_ignores_a_weightless_component_past_the_window_edge():
    # m = -1/2 has coefficient 0 and its beam reaches past z_max = 1.5e-4 m
    sc = silver_scenario(initial_coeffs=np.array([1.0, 0.0]), outputs=("density", "compare-table"),
                         grid=Grid(z_min=-6e-4, z_max=1.5e-4, n=4096))
    rep = run(sc)
    assert rep.reference.density <= 1e-9
    assert abs(np.sum(rep.density[:, 1]) * sc.grid.dz - 1.0) <= 1e-8


def test_run_is_deterministic():
    sc1 = scaled_scenario()
    sc2 = scaled_scenario()
    rep1, rep2 = run(sc1), run(sc2)
    assert rep1.json_dict() == rep2.json_dict()
    assert np.array_equal(rep1.density, rep2.density)


def test_silver_oracle_error_is_tiny():
    err = oracle_density_error(silver_scenario())
    assert err.density <= 1e-9


@pytest.mark.parametrize("steps", [8, 220])
def test_silver_reference_is_exact_at_few_steps(steps):
    # Each kinetic step runs in a frame at its mid-step kick, so the field
    # does not alias even where half a step's kick exceeds the grid band
    # (below ~220 steps here).  One step is the default, tested above.
    err = oracle_density_error(silver_scenario(oracle_steps=steps))
    assert err.density <= 1e-10


def test_oracle_errors_come_from_one_split_step_run(monkeypatch):
    calls = []
    stepper = harness.split_step_evolve
    monkeypatch.setattr(harness, "split_step_evolve",
                        lambda *args: calls.append(args[2]) or stepper(*args))
    sc = silver_scenario(segments=(GradientSegment(1000.0, 2e-5), GradientSegment(-500.0, 4e-5)),
                         oracle_steps=9)
    errs = oracle_density_error(sc)
    assert isinstance(errs, OracleErrors)
    assert calls == [3, 6]
    assert errs.density <= 1e-10 and errs.spinor <= 1e-9
    assert errs == oracle_density_error(sc)
    assert calls == [3, 6, 3, 6]


def test_spinor_error_sees_a_phase_the_density_misses(monkeypatch):
    monkeypatch.setattr(harness, "evolve_segments", evolve_segments_b0_off)
    errs = oracle_density_error(silver_scenario())
    assert errs.density <= 1e-10
    assert errs.spinor > SPINOR_TOL


def test_silver_screen_config_reference_matches():
    # the magnet, then 1 m of free flight: the beams end 8.5 mm apart
    sc = load_scenario(os.path.join(ROOT, "configs", "silver_screen.json"))
    assert [seg.beta for seg in sc.segments] == [1000.0, 0.0]
    rep = run(sc)
    assert abs(rep.peak_separation_m - 8.471e-3) <= 1e-6
    assert rep.reference.density <= 1e-9
    assert rep.reference.spinor <= 1e-7


def test_run_compare_table_attaches_oracle_error():
    rep = run(scaled_scenario(outputs=("compare-table",), oracle_steps=512))
    assert rep.reference is not None
    assert rep.reference.density <= 1e-4
    assert rep.reference.spinor <= 1e-12


# ---------------------------------------------------------------------------
# Entropy timeline
# ---------------------------------------------------------------------------


def test_entropy_timeline_rejects_single_sample():
    with pytest.raises(ValueError, match="samples"):
        entropy_timeline(silver_scenario(), samples=1)


def test_entropy_timeline_shape_and_endpoints():
    sc = silver_scenario()
    timeline = entropy_timeline(sc, samples=9)
    assert timeline.shape == (9, 2)
    assert np.allclose(timeline[:, 0], np.linspace(0.0, sc.total_duration, 9))
    assert timeline[0, 1] <= 1e-12
    assert abs(timeline[-1, 1] - math.log(2.0)) <= 1e-9


def test_entropy_timeline_is_monotone_during_splitting():
    timeline = entropy_timeline(silver_scenario(), samples=9)
    diffs = np.diff(timeline[:, 1])
    assert np.all(diffs >= -1e-12)


def test_entropy_timeline_spans_multiple_segments():
    cfg = scaled_config()
    sc = scaled_scenario(segments=interferometer_segments(cfg.beta, 0.5))
    timeline = entropy_timeline(sc, samples=5)
    assert timeline[-1, 0] == 2.0  # 4T with T = 0.5
    # The interferometer re-merges the beams: entropy returns near zero.
    assert timeline[-1, 1] <= 1e-6
    assert timeline[2, 1] > timeline[-1, 1]  # entangled in the middle


def test_entropy_timeline_ends_at_the_state_run_reports():
    """The last sample is evolved by every segment's full duration, as in
    evolve_segments, so a recombining spin-1/2 flip ends bitwise at run()'s
    entropy, 0 here; a zero-duration segment anywhere evolves every sample by
    0 and leaves the timeline bitwise unchanged."""
    beta, leg = 144.11615872917628, 1.0659556989250333e-05
    segments = (GradientSegment(beta, leg), GradientSegment(-beta, 2.1319113978500666e-05),
                GradientSegment(beta, leg))
    coeffs = unit_coeffs([-2.5660684433696055 + 0.15916344149115969j,
                          -0.6259661219478335 - 0.6454387049055018j])
    sc = silver_scenario(initial_coeffs=coeffs, segments=segments)
    timeline = entropy_timeline(sc, 33)
    assert timeline[-1, 1] == run(sc).entropy_nats
    for i in range(len(segments) + 1):
        padded = segments[:i] + (GradientSegment(-beta, 0.0),) + segments[i:]
        got = entropy_timeline(dataclasses.replace(sc, segments=padded), 33)
        assert got.tobytes() == timeline.tobytes()


# ---------------------------------------------------------------------------
# Factorization check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spin_str", ["1/2", "1"])
def test_bch_check_state_error_is_small(spin_str):
    chk = bch_check(SpinQN.parse(spin_str))
    assert chk.state_error <= 1e-6


def test_bch_check_operator_error_shows_seam_artifact():
    chk = bch_check(HALF)
    # Entrywise matrix difference is dominated by periodic-seam columns and
    # stays order one even when every physical probe agrees.
    assert chk.operator_error > 0.1
    assert chk.state_error < 1e-3 * chk.operator_error


# ---------------------------------------------------------------------------
# JSON scenarios
# ---------------------------------------------------------------------------


def test_scenario_from_dict_minimal_defaults():
    sc = scenario_from_dict({"twice_s": 1, "coeffs": [1, 1]})
    assert sc.spin.dim == 2
    assert np.allclose(np.abs(sc.initial_coeffs), 1 / math.sqrt(2))
    assert sc.cfg.beta == 1000.0
    assert len(sc.segments) == 1
    assert sc.segments[0].beta == sc.cfg.beta
    assert abs(sc.segments[0].duration - sc.cfg.transit_time) <= 1e-20
    assert sc.grid.n == SILVER_GRID.n
    assert sc.oracle_steps == SILVER_ORACLE_STEPS
    assert sc.outputs == ("density",)


def test_scenario_from_dict_full_document():
    doc = {
        "twice_s": 2,
        "coeffs": [[0.0, 1.0], 0.0, [1.0, 0.0]],
        "beta_tesla_per_m": 500.0,
        "b0_tesla": 0.2,
        "segments": [
            {"beta_tesla_per_m": 500.0, "duration_s": 1e-5},
            {"beta_tesla_per_m": -500.0, "duration_s": 2e-5},
        ],
        "grid": {"z_min_m": -1e-3, "z_max_m": 1e-3, "n": 1024},
        "oracle_steps": 2048,
        "outputs": ["density", "compare-table"],
    }
    sc = scenario_from_dict(doc)
    assert sc.spin.dim == 3
    assert abs(sc.initial_coeffs[0] - 1j / math.sqrt(2)) <= 1e-15
    assert sc.initial_coeffs[1] == 0.0
    assert sc.cfg.beta == 500.0 and sc.cfg.b0 == 0.2
    assert [seg.beta for seg in sc.segments] == [500.0, -500.0]
    assert sc.grid.n == 1024 and sc.grid.z_min == -1e-3
    assert sc.oracle_steps == 2048
    assert sc.outputs == ("density", "compare-table")


def test_scenario_from_dict_rejects_unknown_keys():
    """Typos fail at every level of the document, naming the key."""
    seg = {"beta_tesla_per_m": 1.0, "duration_s": 1e-5}
    for extra, match in [({"betaa": 1.0}, r"unknown config keys: \['betaa'\]"),
                         ({"grid": {"N": 128}}, r"unknown grid keys: \['N'\]"),
                         ({"grid": [128]}, "grid must be a JSON object"),
                         ({"segments": [seg, {**seg, "durration_s": 2e-5}]},
                          r"unknown segment keys: \['durration_s'\]"),
                         ({"outputs": "density"}, "outputs must be a list"),
                         ({"coeffs": 5}, "coeffs must be a list"),
                         ({"segments": 5}, "segments must be a list"),
                         ({"segments": [seg, {"beta_tesla_per_m": 1.0}]},
                          r"segments\[1\] requires duration_s"),
                         ({"segments": [{}]},
                          r"segments\[0\] requires beta_tesla_per_m and duration_s")]:
        with pytest.raises(ValueError, match=match):
            scenario_from_dict({"twice_s": 1, "coeffs": [1, 0], **extra})


def test_scenario_from_dict_requires_spin_and_coeffs():
    with pytest.raises(ValueError, match="twice_s and coeffs"):
        scenario_from_dict({"coeffs": [1, 0]})
    with pytest.raises(ValueError, match="twice_s and coeffs"):
        scenario_from_dict({"twice_s": 1})


def test_scenario_from_dict_rejects_bad_coefficient():
    with pytest.raises(ValueError, match="coefficient"):
        scenario_from_dict({"twice_s": 1, "coeffs": ["one", 0]})
    for bad in (True, [1.0, False], [1.0, "2"], None, 10**400):
        with pytest.raises(ValueError, match=r"coeffs\[1\]: coefficient"):
            scenario_from_dict({"twice_s": 1, "coeffs": [1, bad]})
    with pytest.raises(ValueError, match="zero"):
        scenario_from_dict({"twice_s": 1, "coeffs": [0, 0]})
    for bad in (math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="finite"):
            scenario_from_dict({"twice_s": 1, "coeffs": [bad, 1]})


@pytest.mark.parametrize("key, value", [
    ("twice_s", 1.5),
    ("twice_s", True),
    ("twice_s", "1"),
    ("grid.n", 4096.9),
    ("grid.n", True),
    ("oracle_steps", 2.7),
    ("oracle_steps", False),
    ("oracle_steps", math.inf),
    ("grid.n", 10**400),
])
def test_scenario_from_dict_rejects_non_integral_integer_keys(key, value):
    doc = {"twice_s": 1, "coeffs": [1, 1]}
    if key == "grid.n":
        doc["grid"] = {"n": value}
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("beta_tesla_per_m", True),
    ("mass_kg", "1.79e-25"),
    ("b0_tesla", None),
    ("sigma_z_m", [1.5e-5]),
    ("v0_m_per_s", 10**400),
    ("grid.z_min_m", "-6e-4"),
    ("grid.z_max_m", False),
    ("segments[0].duration_s", "1e-5"),
    ("segments[0].beta_tesla_per_m", None),
])
def test_scenario_from_dict_rejects_non_numeric_float_keys(key, value):
    doc = {"twice_s": 1, "coeffs": [1, 1]}
    if key.startswith("grid."):
        doc["grid"] = {key[5:]: value}
    elif key.startswith("segments[0]."):
        doc["segments"] = [{"beta_tesla_per_m": 1.0, "duration_s": 1e-5, key[12:]: value}]
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=re.escape(f"{key} must be a number")):
        scenario_from_dict(doc)


def _doc_with(key: str, value) -> dict:
    doc = {"twice_s": 1, "coeffs": [1, 1]}
    if key == "grid.n":
        doc["grid"] = {"z_min_m": -1e-3, "z_max_m": 1e-3, "n": value}
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize("key, cap, huge", [("grid.n", GRID_N_LIMIT, 1 << 40),
                                            ("oracle_steps", ORACLE_STEPS_LIMIT, 10**12)])
def test_scenario_from_dict_caps_integer_keys_before_allocating(key, cap, huge):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{key} must be <= {cap}")):
            scenario_from_dict(_doc_with(key, huge))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    sc = scenario_from_dict(_doc_with(key, cap))  # parsing allocates nothing
    assert (sc.grid.n if key == "grid.n" else sc.oracle_steps) == cap


def test_scenario_from_dict_caps_twice_s_before_allocating():
    doc = {"twice_s": 1023, "coeffs": [1] * 1024, "outputs": ["density", "entropy-timeline"]}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"twice_s must be <= {TWICE_S_LIMIT}")):
            scenario_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    sc = scenario_from_dict({"twice_s": TWICE_S_LIMIT, "coeffs": [1] * (TWICE_S_LIMIT + 1)})
    assert sc.spin.dim == 8


def test_scenario_from_dict_accepts_integral_floats():
    sc = scenario_from_dict({"twice_s": 2.0, "coeffs": [1, 0, 1], "grid": {"n": 1024.0},
                             "oracle_steps": 64.0})
    assert (sc.spin.twice_s, sc.grid.n, sc.oracle_steps) == (2, 1024, 64)
    assert all(type(v) is int for v in (sc.spin.twice_s, sc.grid.n, sc.oracle_steps))


def test_scenario_from_dict_rejects_non_object_root():
    with pytest.raises(ValueError, match="JSON object"):
        scenario_from_dict([1, 2, 3])


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "twice_s": 1,
        "coeffs": [1, 1],
        "outputs": ["density"],
    }))
    sc = load_scenario(str(path))
    assert sc.spin.dim == 2
    assert sc.outputs == ("density",)


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

NO_SCIPY_CHILD = """
import sys
import sgsim
from sgsim import SpinQN, harness

def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

assert not loaded("numpy.fft", "numpy.random", "scipy"), loaded("numpy.fft", "numpy.random", "scipy")
sc = harness.load_scenario("configs/scaled_small.json")
assert "compare-table" in sc.outputs
assert harness.run(sc).reference.density <= 1e-12
assert not loaded("scipy", "numpy.ma"), loaded("scipy", "numpy.ma")[:5]
assert harness.bch_check(SpinQN(1)).state_error <= 1e-6
assert not loaded("scipy"), loaded("scipy")[:5]
"""


def test_import_and_split_step_run_load_no_scipy():
    """scipy is a test-only dependency: the import, a reference run and
    the dense check in a fresh interpreter must not load it.  The import
    loads neither numpy.fft nor numpy.random either, and the run (256
    split steps, on a sub-grid) does not load numpy.ma."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
