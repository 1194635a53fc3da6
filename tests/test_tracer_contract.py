"""The names that bench/tracer.py wraps must exist in sgsim, the arguments
it reads by position must sit at those positions, and a traced closed-form
operation must record the spans the per-layer figures read.  A renamed
function or a reordered parameter would otherwise leave its figures at 0,
or wrong, without an error.  The tracer is loaded from its file, as the
benchmark runs it.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from sgsim import (GradientSegment, Grid, Scenario, SpinQN, default_silver_config,
                   from_gaussian, gaussian_hybrid, harness, sample_state, scaled_config)

TRACER_PY = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("sgsim_bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    tracer.Tracer().prepare()  # raises AttributeError on a missing name
    for table in (tracer.SPANNED, tracer.COUNTED):
        for modname, names in table.items():
            home = sys.modules[f"sgsim.{modname}"]
            for name in names:
                assert callable(getattr(home, name)), f"sgsim.{modname}.{name}"


def test_positional_reads_match_the_signatures():
    """Each bases extractor gets the same figures from a positional call,
    laid out by the function's own signature, as from a keyword call.  This
    pins split_step_evolve(psi, t, steps, cfg), position_density_z(_, grid),
    entropy_timeline(_, samples) and the other positions the tracer reads."""
    tracer = load_tracer()
    cfg, grid = scaled_config(), Grid(-16.0, 16.0, 64)
    st = gaussian_hybrid(SpinQN(2), np.ones(3) / np.sqrt(3.0), cfg)
    # distinct values, so that two swapped parameters change the figures
    values = {"psi": sample_state(st, grid), "t": 0.5, "steps": 7, "cfg": cfg, "st": st,
              "grid": grid, "samples": 9, "p": from_gaussian(1.0)}
    read = [(mod, name, bases_of) for mod, table in tracer.SPANNED.items()
            for name, bases_of in table.items() if bases_of is not None]
    assert {f"{mod}.{name}" for mod, name, _ in read} >= {
        "oracle.split_step_evolve", "observables.position_density_z",
        "harness.entropy_timeline"}
    for mod, name, bases_of in read:
        params = inspect.signature(getattr(sys.modules[f"sgsim.{mod}"], name)).parameters
        kwargs = {p: values.get(p) for p in params}
        args = tuple(kwargs.values())
        assert bases_of(args, {}) == bases_of((), kwargs), f"{mod}.{name}"


def test_traced_run_records_the_closed_form_spans():
    tracer = load_tracer()
    cfg = default_silver_config()
    sc = Scenario(cfg=cfg, spin=SpinQN(2), initial_coeffs=np.ones(3) / np.sqrt(3.0),
                  segments=(GradientSegment(cfg.beta, cfg.transit_time / 2),
                            GradientSegment(-cfg.beta, cfg.transit_time / 2)),
                  grid=Grid(-6e-4, 6e-4, 4096))
    t = tracer.Tracer()
    t.prepare()
    t.install()
    try:
        with t.span("op"):
            harness.run(sc)
            harness.entropy_timeline(sc, 9)
    finally:
        t.uninstall()
    summary = tracer.summarize(t.spans, t.counts)
    assert summary["nested"] and summary["disjoint"]
    names = summary["names"]
    for name in ("propagator.evolve", "observables.position_density_z",
                 "observables.spin_rdm", "harness.run", "harness.entropy_timeline"):
        assert names.get(name, {}).get("calls", 0) > 0, name
    assert summary["evolve_in_timeline"] == 2
    assert names["observables.position_density_z"]["bases"]["point_component"] == 3 * 4096
    # the wrappers are gone again
    assert harness.spin_rdm is sys.modules["sgsim.observables"].spin_rdm
    assert not hasattr(harness.spin_rdm, "__wrapped__")
