"""The batched split-step solver against the per-component loop it replaced.

Both are the same Strang scheme; the batched one rounds each frame advance
to whole grid wavenumbers, so the stored arrays and frames differ while the
lab fields agree to rounding.  Tolerances were fixed before the batched
solver was written: relative L2 1e-12 on the order-one grid, 1e-8 at silver
scale, where the phases are ~1e9 times larger.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sgsim import (GradientSegment, Grid, SampledSpinor, Scenario, SpinQN, boost,
                   default_silver_config, evolve, from_gaussian, gaussian_hybrid, harness,
                   oracle, oracle_density_error, sample, sample_state, scaled_config,
                   spinor_l2_distance, split_step_evolve, strang_phase)
from sgsim.harness import SILVER_GRID
from sgsim.oracle import _strang_steps

from helpers import loop_split_step_evolve

SCALED_GRID = Grid(-16.0, 16.0, 256)
# Component left all zero in each spin case (None: every component is live).
ZERO_COMPONENT = {1: None, 2: 0, 3: 2}


def random_spinor(twice_s: int, seed: int, all_live: bool = False) -> SampledSpinor:
    """Random packets and coefficients, stored in a random nonzero frame;
    unless all_live, the component ZERO_COMPONENT names is all zero."""
    rng = np.random.default_rng(seed)
    s = SpinQN(twice_s)
    frame_k = rng.uniform(0.5, 4.0, s.dim) * rng.choice([-1.0, 1.0], s.dim)
    coeffs = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
    zero = ZERO_COMPONENT[twice_s]
    if zero is not None and not all_live:
        coeffs[zero] = 0.0
    coeffs /= np.linalg.norm(coeffs)
    comps = np.array([
        c * sample(boost(from_gaussian(rng.uniform(0.9, 1.1), rng.uniform(-2.0, 2.0),
                                       rng.uniform(-0.5, 0.5)), -f), SCALED_GRID)
        for c, f in zip(coeffs, frame_k)])
    return SampledSpinor(SCALED_GRID, s, comps, frame_k)


def assert_frames_close(got: SampledSpinor, want: SampledSpinor, calls: int = 1) -> None:
    """Each solver call moves a live frame by less than half a grid
    wavenumber; zero components keep their frame and stay zero."""
    dk = 2.0 * math.pi / got.grid.length
    live = want.components.any(axis=1)
    assert np.all(np.abs(got.frame_k - want.frame_k)[live] < calls * dk / 2 + 1e-9 * dk)
    np.testing.assert_array_equal(got.frame_k[~live], want.frame_k[~live])
    assert not got.components[~live].any()


@pytest.mark.parametrize("steps", [1, 3, 32, 256, 2048])
@pytest.mark.parametrize("twice_s", [1, 2, 3])
def test_batched_matches_loop_on_scaled_grid(twice_s, steps):
    psi = random_spinor(twice_s, seed=10 * twice_s + steps)
    cfg = scaled_config()
    got = split_step_evolve(psi, 1.0, steps, cfg)
    want = loop_split_step_evolve(psi, 1.0, steps, cfg)
    assert spinor_l2_distance(got, want) <= 1e-12
    assert_frames_close(got, want)


def test_batched_matches_loop_at_silver_scale():
    cfg = default_silver_config()
    st0 = gaussian_hybrid(SpinQN(1), np.array([1.0, 1.0]) / math.sqrt(2.0), cfg)
    psi = sample_state(st0, SILVER_GRID)
    got = split_step_evolve(psi, cfg.transit_time, 256, cfg)
    want = loop_split_step_evolve(psi, cfg.transit_time, 256, cfg)
    assert spinor_l2_distance(got, want) <= 1e-8
    assert_frames_close(got, want)


def test_a_kick_of_an_odd_number_of_grid_wavenumbers_per_step():
    """The mid-step frames p_j = round((j + 1/2) x) then land on ties, which
    round to even, so p_j moves by x - 1 and x + 1 in turn, never by x."""
    grid = Grid(-16.0 * math.pi, 16.0 * math.pi, 512)  # dk = 1/16 exactly
    cfg = scaled_config()
    psi = sample_state(gaussian_hybrid(SpinQN(1), np.array([0.6, 0.8]), cfg), grid)
    dk = 2.0 * math.pi / grid.length
    assert cfg.gamma * cfg.beta * 0.5 * 0.25 / dk == -1.0  # x for m = +1/2, tau = 1/4
    got = split_step_evolve(psi, 1.0, 4, cfg)
    want = loop_split_step_evolve(psi, 1.0, 4, cfg)
    assert spinor_l2_distance(got, want) <= 1e-12
    assert_frames_close(got, want)


def count_exp_entries(monkeypatch) -> list:
    """Entries of each complex np.exp result from now on, one per call."""
    sizes, exp = [], np.exp

    def counting(*args, **kwargs):
        out = exp(*args, **kwargs)
        if np.iscomplexobj(out):
            sizes.append(np.size(out))
        return out

    monkeypatch.setattr(np, "exp", counting)
    return sizes


def test_kinetic_factors_cost_few_complex_exps(monkeypatch):
    """A spin-1 silver run of 2731 steps at n = 4096 evaluates its kinetic
    factors from a few exact tables, not one exp per point and step."""
    cfg = default_silver_config()
    psi = sample_state(gaussian_hybrid(SpinQN(2), np.ones(3) / math.sqrt(3.0), cfg), SILVER_GRID)
    sizes = count_exp_entries(monkeypatch)
    split_step_evolve(psi, cfg.transit_time, 2731, cfg)
    assert sum(sizes) < 10**6


def run_schedule_both_ways(sc: Scenario, monkeypatch) -> tuple:
    """oracle_density_error of sc with the batched solver and with the loop;
    returns both final spinors and both errors."""
    states = []

    def recording(stepper):
        return lambda *args: states.append(stepper(*args)) or states[-1]

    monkeypatch.setattr(harness, "split_step_evolve", recording(split_step_evolve))
    got_err = oracle_density_error(sc)
    monkeypatch.setattr(harness, "split_step_evolve", recording(loop_split_step_evolve))
    want_err = oracle_density_error(sc)
    assert len(states) == 4
    return states[1], states[3], got_err, want_err  # the final state of each run


def test_two_segment_schedule_carries_the_frame(monkeypatch):
    sc = Scenario(cfg=scaled_config(), spin=SpinQN(2),
                  initial_coeffs=np.array([0.6, 0.0, 0.8j]),
                  segments=(GradientSegment(0.5, 0.4), GradientSegment(-0.3, 0.6)),
                  grid=SCALED_GRID, oracle_steps=64, outputs=())
    got, want, got_err, want_err = run_schedule_both_ways(sc, monkeypatch)
    assert spinor_l2_distance(got, want) <= 1e-12
    assert_frames_close(got, want, calls=2)
    assert got_err.density <= 1e-12 and want_err.density <= 1e-12


# ---------------------------------------------------------------------------
# Force-free rows (gamma beta m = 0) take one step whatever the budget.

def record_ffts(monkeypatch) -> list:
    """(rows, length) of each forward FFT from now on, one entry per call."""
    calls, fft = [], np.fft.fft

    def counting(a, *args, **kwargs):
        calls.append((len(a) if np.ndim(a) == 2 else 1, np.shape(a)[-1]))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return calls


@pytest.mark.parametrize("steps", [1, 4, 64])
def test_only_force_carrying_rows_take_every_step(monkeypatch, steps):
    # spin 1 in the lab frame, whose rows' spectra fit on 128 of the 256 points:
    # m = +1 and -1 take the steps, past one step on that sub-grid and as one
    # batch; m = 0 takes one step at the full n
    cfg = scaled_config()
    psi = sample_state(gaussian_hybrid(SpinQN(2), np.ones(3), cfg), SCALED_GRID)
    calls = record_ffts(monkeypatch)
    split_step_evolve(psi, 1.0, steps, cfg)
    n = SCALED_GRID.n
    if steps == 1:
        assert calls == [(2, n), (1, n)]
    else:
        # the band of m = +-1, then m = 0's one step
        assert [rows for rows, length in calls if length == n] == [2, 1]
        # the steps of m = +-1 and the transform that brings them back
        assert [(rows, length) for rows, length in calls if length < n] \
            == [(2, n // 2)] * (steps + 1)


@pytest.mark.parametrize("twice_s", [1, 2, 3])
def test_a_force_free_call_transforms_each_live_row_once(monkeypatch, twice_s):
    psi = random_spinor(twice_s, seed=5)
    calls = record_ffts(monkeypatch)
    split_step_evolve(psi, 1.0, 64, scaled_config(beta=0.0))
    assert calls == [(int(psi.components.any(axis=1).sum()), SCALED_GRID.n)]


@pytest.mark.parametrize("twice_s, beta", [(2, 0.5), (2, 0.0), (3, 0.0)])
def test_collapsed_rows_match_the_loop(twice_s, beta):
    # every component live, m = 0 included; the loop takes every step on every row
    psi = random_spinor(twice_s, seed=7 * twice_s, all_live=True)
    cfg = scaled_config(beta=beta)
    got = split_step_evolve(psi, 1.0, 64, cfg)
    want = loop_split_step_evolve(psi, 1.0, 64, cfg)
    assert spinor_l2_distance(got, want) <= 1e-12
    assert_frames_close(got, want)


def test_a_drift_segment_matches_the_loop(monkeypatch):
    sc = Scenario(cfg=scaled_config(), spin=SpinQN(2),
                  initial_coeffs=np.array([0.6, 0.48, 0.64j]),
                  segments=(GradientSegment(0.5, 0.4), GradientSegment(0.0, 0.6)),
                  grid=SCALED_GRID, oracle_steps=64, outputs=())
    got, want, got_err, want_err = run_schedule_both_ways(sc, monkeypatch)
    assert spinor_l2_distance(got, want) <= 1e-12
    assert_frames_close(got, want, calls=2)
    assert got_err.density <= 1e-12 and want_err.density <= 1e-12
    assert got_err.spinor <= 1e-12


@pytest.mark.parametrize("twice_s, beta", [(2, 0.5), (2, 0.0), (3, 0.0)])
def test_many_steps_of_a_force_free_row_equal_one(twice_s, beta):
    """The collapse is exact: N Strang steps of a row with a constant
    potential equal one step of the whole length, to rounding."""
    psi = random_spinor(twice_s, seed=11, all_live=True)
    cfg = scaled_config(beta=beta)
    m = psi.s.m_values()
    free = cfg.gamma * cfg.beta * m == 0
    args = psi.frame_k[free], m[free], psi.grid, 1.0
    one, frame_one = _strang_steps(psi.components[free], *args, 1, cfg)
    many, frame_many = _strang_steps(psi.components[free], *args, 256, cfg)
    np.testing.assert_array_equal(frame_one, psi.frame_k[free])
    np.testing.assert_array_equal(frame_many, psi.frame_k[free])
    assert np.linalg.norm(many - one) <= 1e-12 * np.linalg.norm(one)
    # and split_step_evolve gives those rows their one-step result at any budget
    np.testing.assert_array_equal(split_step_evolve(psi, 1.0, 256, cfg).components[free], one)


# ---------------------------------------------------------------------------
# Many-step rows run on the coarsest sub-grid over the same window that
# holds their spectrum; the reference is _strang_steps on the full grid.

def full_grid_steps(psi: SampledSpinor, t: float, steps: int, cfg,
                    rows: np.ndarray | None = None) -> tuple:
    """Indices of the force-carrying rows of psi (or `rows`), and those rows
    stepped by _strang_steps on psi.grid itself with their frames."""
    m = psi.s.m_values()
    if rows is None:
        rows = np.flatnonzero(cfg.gamma * cfg.beta * m != 0)
    return rows, *_strang_steps(psi.components[rows], psi.frame_k[rows], m[rows],
                                psi.grid, t, steps, cfg)


def assert_full_grid_result(got: SampledSpinor, psi: SampledSpinor, t: float, steps: int,
                            cfg) -> None:
    rows, want, frame = full_grid_steps(psi, t, steps, cfg)
    np.testing.assert_array_equal(got.components[rows], want)
    np.testing.assert_array_equal(got.frame_k[rows], frame)


def silver_beam(twice_s: int) -> tuple:
    cfg = default_silver_config()
    st0 = gaussian_hybrid(SpinQN(twice_s), np.ones(twice_s + 1), cfg)
    return cfg, st0, sample_state(st0, SILVER_GRID)


@pytest.mark.parametrize("twice_s, steps", [(1, 2), (1, 8), (1, 220), (2, 2), (2, 8),
                                            (2, 220), (2, 2731), (3, 2), (3, 8), (3, 220)])
def test_sub_grid_matches_the_full_grid_at_silver_scale(twice_s, steps):
    cfg, st0, psi = silver_beam(twice_s)
    t = cfg.transit_time
    got = split_step_evolve(psi, t, steps, cfg)
    rows, want, frame = full_grid_steps(psi, t, steps, cfg)
    assert np.linalg.norm(got.components[rows] - want) <= 1e-10 * np.linalg.norm(want)
    np.testing.assert_array_equal(got.frame_k[rows], frame)
    # with the Strang phase removed, it is still the closed form
    exact = sample_state(evolve(st0, t, cfg), SILVER_GRID, frame_k=got.frame_k)
    phase = strang_phase(psi.s.m_values(), t, steps, cfg)
    unphased = SampledSpinor(SILVER_GRID, psi.s, got.components * np.exp(-1j * phase)[:, None],
                             got.frame_k)
    assert spinor_l2_distance(unphased, exact) <= 1e-9


def test_sub_grid_matches_the_full_grid_at_spin_7_2_on_a_wide_grid(monkeypatch):
    """At n = 2^14 every row steps on 512 points.  Rows are independent, so
    the costly full-grid reference is taken for m = 7/2 and m = 1/2 only."""
    cfg = scaled_config()
    grid = Grid(-64.0, 64.0, 2**14)
    psi = sample_state(gaussian_hybrid(SpinQN(7), np.ones(8), cfg), grid)
    calls = record_ffts(monkeypatch)
    got = split_step_evolve(psi, 1.0, 1024, cfg)
    assert calls[1] == (8, 512)
    rows, want, frame = full_grid_steps(psi, 1.0, 1024, cfg, rows=np.array([0, 3]))
    assert np.linalg.norm(got.components[rows] - want) <= 1e-10 * np.linalg.norm(want)
    np.testing.assert_array_equal(got.frame_k[rows], frame)


def test_one_step_and_a_row_that_fills_the_band_are_the_full_grid_bitwise():
    cfg, _, psi = silver_beam(2)
    assert_full_grid_result(split_step_evolve(psi, cfg.transit_time, 1, cfg),
                            psi, cfg.transit_time, 1, cfg)
    # sigma = 2 dz: the spectrum reaches past a quarter of the band (and the
    # packet spreads fast, hence the short time)
    cfg = scaled_config(sigma=2.0 * SCALED_GRID.dz)
    psi = sample_state(gaussian_hybrid(SpinQN(1), np.ones(2), cfg), SCALED_GRID)
    assert_full_grid_result(split_step_evolve(psi, 0.25, 64, cfg), psi, 0.25, 64, cfg)


def test_a_tripped_end_guard_restores_the_full_grid_result(monkeypatch):
    cfg, _, psi = silver_beam(2)
    monkeypatch.setattr(oracle, "SPECTRAL_LEAK_TOL", 0.0)
    calls = record_ffts(monkeypatch)
    got = split_step_evolve(psi, cfg.transit_time, 8, cfg)
    assert (2, 512) in calls  # the rows did step on the sub-grid first
    assert_full_grid_result(got, psi, cfg.transit_time, 8, cfg)


def test_rows_on_different_sub_grids_decouple(monkeypatch):
    cfg = scaled_config()
    packets = [from_gaussian(1.0, z0=-0.5), from_gaussian(0.25, z0=0.5)]
    coeffs = np.array([0.6, 0.8])

    def evolved(c: np.ndarray) -> SampledSpinor:
        comps = np.array([ci * sample(p, SCALED_GRID) for ci, p in zip(c, packets)])
        return split_step_evolve(SampledSpinor(SCALED_GRID, SpinQN(1), comps, np.zeros(2)),
                                 0.25, 32, cfg)

    calls = record_ffts(monkeypatch)
    joint = evolved(coeffs)
    assert {length for _, length in calls} == {128, SCALED_GRID.n}
    for i in range(2):
        solo = evolved(np.where(np.arange(2) == i, coeffs, 0.0))
        np.testing.assert_array_equal(joint.components[i], solo.components[i])
        np.testing.assert_array_equal(joint.frame_k[i], solo.frame_k[i])


def test_a_many_step_silver_run_transforms_a_quarter_of_the_full_grid_points(monkeypatch):
    """Spin 1 at 220 steps: the full grid takes 2 * 220 * 4096 + 4096 points
    of forward FFT, the m = +-1 rows 220 steps each and m = 0 one."""
    cfg, _, psi = silver_beam(2)
    calls = record_ffts(monkeypatch)
    split_step_evolve(psi, cfg.transit_time, 220, cfg)
    n = SILVER_GRID.n
    assert sum(rows * length for rows, length in calls) <= (2 * 220 * n + n) / 4
