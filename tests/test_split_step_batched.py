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
                   default_silver_config, from_gaussian, gaussian_hybrid, harness,
                   oracle_density_error, sample, sample_state, scaled_config,
                   spinor_l2_distance, split_step_evolve)
from sgsim.harness import SILVER_GRID

from helpers import loop_split_step_evolve

SCALED_GRID = Grid(-16.0, 16.0, 256)
# Component left all zero in each spin case (None: every component is live).
ZERO_COMPONENT = {1: None, 2: 0, 3: 2}


def random_spinor(twice_s: int, seed: int) -> SampledSpinor:
    """Random packets and coefficients, stored in a random nonzero frame."""
    rng = np.random.default_rng(seed)
    s = SpinQN(twice_s)
    frame_k = rng.uniform(0.5, 4.0, s.dim) * rng.choice([-1.0, 1.0], s.dim)
    coeffs = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
    zero = ZERO_COMPONENT[twice_s]
    if zero is not None:
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


@pytest.mark.parametrize("steps", [1, 3, 32, 256])
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


def test_two_segment_schedule_carries_the_frame(monkeypatch):
    sc = Scenario(cfg=scaled_config(), spin=SpinQN(2),
                  initial_coeffs=np.array([0.6, 0.0, 0.8j]),
                  segments=(GradientSegment(0.5, 0.4), GradientSegment(-0.3, 0.6)),
                  grid=SCALED_GRID, oracle_steps=64, outputs=())
    states = []

    def recording(stepper):
        return lambda *args: states.append(stepper(*args)) or states[-1]

    monkeypatch.setattr(harness, "split_step_evolve", recording(split_step_evolve))
    got_err = oracle_density_error(sc)
    monkeypatch.setattr(harness, "split_step_evolve", recording(loop_split_step_evolve))
    want_err = oracle_density_error(sc)
    assert len(states) == 4
    got, want = states[1], states[3]  # the final state of each run
    assert spinor_l2_distance(got, want) <= 1e-12
    assert_frames_close(got, want, calls=2)
    assert got_err.density <= 1e-12 and want_err.density <= 1e-12
