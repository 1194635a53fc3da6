"""States that evolve derives from valid states skip the checks that hold
by construction (shape, Re s2 > 0, and the unit norm of the coefficients,
which they pass through unchanged) and keep the one an exact update can
break (finiteness).  These tests pin that the derived states are
the ones the full constructor would build, that a failure still raises the
full constructor's message, that long chains of updates leave the
coefficients bit-identical, that a closed-form operation runs the full
checks once per entry point, and that spin_rdm is the pairwise overlap of
the scalar packets.
"""

from __future__ import annotations

import numpy as np
import pytest

from sgsim import (CentredPacket, GradientSegment, Grid, HybridState, Scenario, SpinQN,
                   default_silver_config, entropy_timeline, evolve, gaussian_hybrid, harness,
                   scaled_config, spin_rdm)
from sgsim.wavepacket import overlap

FIELDS = ("q", "k", "s2", "phase")


def full_rebuild(st: HybridState) -> HybridState:
    """The state the full constructor builds from copies of st's arrays."""
    return HybridState(st.s, st.coeffs.copy(),
                       CentredPacket(*(getattr(st.z, f).copy() for f in FIELDS)))


def assert_bitwise_equal(a: HybridState, b: HybridState) -> None:
    assert type(a) is type(b) is HybridState and type(a.z) is type(b.z) is CentredPacket
    assert a.s == b.s
    for x, y in [(a.coeffs, b.coeffs), *((getattr(a.z, f), getattr(b.z, f)) for f in FIELDS)]:
        assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def random_state(twice_s: int, cfg) -> HybridState:
    rng = np.random.default_rng(twice_s)
    d = twice_s + 1
    return gaussian_hybrid(SpinQN(twice_s), rng.normal(size=d) + 1j * rng.normal(size=d), cfg)


@pytest.mark.parametrize("cfg", [scaled_config(), default_silver_config()],
                         ids=["scaled", "silver"])
@pytest.mark.parametrize("twice_s", [1, 4, 7])
def test_evolve_gives_what_the_full_constructor_builds(cfg, twice_s):
    st0 = random_state(twice_s, cfg)
    t = cfg.transit_time
    one = evolve(st0, t, cfg)
    assert one.coeffs is st0.coeffs
    assert_bitwise_equal(one, full_rebuild(one))
    batch = evolve(one, np.array([[0.0], [0.25 * t], [t]]), cfg.with_beta(-cfg.beta))
    assert batch.coeffs is st0.coeffs and batch.z.q.shape == (3, twice_s + 1)
    assert_bitwise_equal(batch, full_rebuild(batch))


@pytest.mark.parametrize("t, message", [
    (1e308, "q must be finite, got [-inf  inf]"),
    (np.array([[1.0], [1e308]]), "q must be finite, got [[-0.125  0.125]\n [  -inf    inf]]"),
])
def test_an_overflowing_evolve_raises_the_full_constructors_message(t, message):
    cfg = scaled_config()
    st = gaussian_hybrid(SpinQN(1), np.ones(2), cfg)
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        evolve(st, t, cfg)
    assert str(err.value) == message


@pytest.mark.parametrize("cfg, step", [(scaled_config(), 1e-3),
                                       (default_silver_config(), 2.5e-9)],
                         ids=["scaled", "silver"])
def test_chained_evolves_keep_the_coefficients_and_re_s2(cfg, step):
    """6e4 chained updates leave the coefficients and Re s2 bit-identical.
    When evolve turned the coefficients by exp(i theta) each step, |c|
    rounded by an ulp or so a step, and the silver chain left the norm
    tolerance at step 21 776."""
    st = random_state(7, cfg)
    coeffs, re_s2 = st.coeffs.tobytes(), st.z.s2.real.tobytes()
    for i in range(60_000):
        st = evolve(st, step, cfg.with_beta(cfg.beta if i % 2 else -cfg.beta))
    assert st.coeffs.tobytes() == coeffs
    assert st.z.s2.real.tobytes() == re_s2


def test_an_operation_runs_the_full_checks_once_per_entry_point(monkeypatch):
    """One run plus one 33-sample timeline of a 3-segment spin-7/2 schedule
    builds its initial state twice (gaussian_hybrid, the entry point), and
    every later state is derived."""
    counts = {HybridState: 0, CentredPacket: 0}
    for cls in counts:
        original = cls.__post_init__

        def counted(self, original=original, cls=cls):
            counts[cls] += 1
            original(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    cfg = default_silver_config()
    third = cfg.transit_time / 3
    sc = Scenario(cfg=cfg, spin=SpinQN(7), initial_coeffs=np.full(8, 8**-0.5),
                  segments=(GradientSegment(cfg.beta, third), GradientSegment(-cfg.beta, third),
                            GradientSegment(cfg.beta, third)),
                  grid=Grid(-6e-4, 6e-4, 4096))
    harness.run(sc)
    entropy_timeline(sc, 33)
    assert counts == {HybridState: 2, CentredPacket: 2}


@pytest.mark.parametrize("twice_s", [1, 3, 7])
def test_spin_rdm_is_the_symmetrized_overlap_of_scalar_packets(twice_s):
    cfg = default_silver_config()
    times = np.linspace(0.0, cfg.transit_time, 5)[:, None]
    st = evolve(random_state(twice_s, cfg), times, cfg)
    got = spin_rdm(st).matrix
    for row in range(len(times)):
        one = HybridState(st.s, st.coeffs, st.z[row])
        c, packets = one.coeffs, one.z_packets
        raw = np.array([[c[m] * np.conj(c[n]) * overlap(packets[n], packets[m])
                         for n in range(st.s.dim)] for m in range(st.s.dim)])
        want = (raw + raw.conj().T) / 2.0
        assert np.abs(got[row] - want).max() <= 1e-15 * np.abs(want).max()
