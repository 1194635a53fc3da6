"""Span tracing of sgsim's public functions, installed from outside the
program.

A Tracer wraps each function named in SPANNED and COUNTED and rebinds the
wrapper under every name that holds the original in any loaded sgsim.*
module, because the modules import each other's names (harness calls
`split_step_evolve` through its own global, not through `oracle`).  Spans
are kept in memory as [name, start, end, parent index, bases] and written
out when the run ends.  A layer's self time is its span duration minus the
time its child spans cover.  summarize() checks that children lie inside
their parent and that siblings are disjoint and in order; given both, the
self times of one operation add up to its root span by construction.

Run as a script, this file is the traced form of one CLI operation:

    python bench/tracer.py SPANS.json -- run configs/silver.json --out DIR

imports sgsim under an `import.sgsim` span, installs the tracer, calls
`sgsim.cli.main(argv)` in process under a `cli.main` span, writes the spans
to SPANS.json and exits with main's return code.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

perf = time.perf_counter


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _split_step_bases(args, kwargs):
    psi, steps = _arg(args, kwargs, 0, "psi"), _arg(args, kwargs, 2, "steps")
    n, d = psi.grid.n, psi.s.dim
    busy = int(psi.components.any(axis=1).sum())  # all-zero components are skipped
    ffts = 2 * steps * busy
    return {"steps": steps, "step_point_component": steps * n * d, "ffts": ffts,
            # each FFT reads and writes one n-point complex128 array
            "fft_bytes": ffts * 2 * 16 * n}


def _points(args, kwargs):
    grid = _arg(args, kwargs, 1, "grid")
    return {"point": grid.n if hasattr(grid, "n") else len(grid)}


# module -> {function: bases extractor or None}; each call records a span.
SPANNED = {
    "harness": {
        "load_scenario": None,
        "run": None,
        "entropy_timeline": lambda a, k: {"sample": _arg(a, k, 1, "samples")},
        "oracle_density_error": None,
        "bch_check": None,
    },
    "propagator": {
        "evolve": lambda a, k: {"component": _arg(a, k, 0, "st").s.dim},
        "sample_state": None,
        "dense_factored_matrix": None,
    },
    "wavepacket": {"sample": _points},
    "observables": {
        "position_density_z": lambda a, k: {
            "point_component": _arg(a, k, 1, "grid").n * _arg(a, k, 0, "st").s.dim},
        "spin_rdm": lambda a, k: {"d": _arg(a, k, 0, "st").s.dim},
        "entanglement_entropy": None,
        "peak_separation": None,
    },
    "oracle": {
        "split_step_evolve": _split_step_bases,
        "matrix_exponential": None,
        "dense_hamiltonian": None,
    },
}
# Small, hot functions: a call count only, no span.
COUNTED = {
    "wavepacket": ("translate", "boost", "free_evolve", "norm", "normalized", "overlap"),
    "oracle": ("check_boundary_leak",),
}
# Grid.z and Grid.k rebuild their array on every access.
GRID_AXIS = "config.grid_axis"


class Tracer:
    """Collects spans and counts for one operation at a time (reset() starts
    the next).  prepare() must run after sgsim is imported; install() and
    uninstall() then only swap attributes, so toggling is cheap.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], {}, []

    @contextmanager
    def span(self, name: str, bases: dict | None = None):
        idx = len(self.spans)
        rec = [name, perf(), 0.0, self._stack[-1] if self._stack else -1, bases]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = perf()
            self._stack.pop()

    def _spanned(self, name, fn, bases_of):
        def wrapper(*args, **kwargs):
            with self.span(name, bases_of(args, kwargs) if bases_of else None):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            counts = self.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def prepare(self) -> None:
        """Plan every rebinding: each module attribute that holds a traced
        original gets that original's wrapper."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "sgsim" or n.startswith("sgsim."))]
        wrappers = {}
        for modname, table in SPANNED.items():
            home = sys.modules[f"sgsim.{modname}"]
            for fname, bases_of in table.items():
                orig = getattr(home, fname)
                wrappers[id(orig)] = (orig, self._spanned(f"{modname}.{fname}", orig, bases_of))
        for modname, names in COUNTED.items():
            home = sys.modules[f"sgsim.{modname}"]
            for fname in names:
                orig = getattr(home, fname)
                wrappers[id(orig)] = (orig, self._counted(f"{modname}.{fname}", orig))
        self._swaps = []
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._swaps.append((mod, attr, val, wrappers[id(val)][1]))
        grid = sys.modules["sgsim.config"].Grid
        for axis in ("z", "k"):
            prop = grid.__dict__[axis]
            self._swaps.append((grid, axis, prop, property(self._counted(GRID_AXIS, prop.fget))))

    def install(self) -> None:
        for obj, attr, _, wrapped in self._swaps:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in self._swaps:
            setattr(obj, attr, orig)


def summarize(spans: list[list], counts: dict[str, int]) -> dict:
    """Reduce one operation's spans (spans[0] is the root) to per-name
    calls, inclusive time, self time and summed bases, and check that every
    child lies inside its parent, that the children of each parent are
    disjoint and in order, and that every self time is >= 0.
    """
    child_time = [0.0] * len(spans)
    in_timeline = [False] * len(spans)
    last_end: dict[int, float] = {}  # parent -> end of its latest child so far
    nested, disjoint = True, True
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            nested = nested and p[1] <= start <= end <= p[2]
            disjoint = disjoint and last_end.get(parent, start) <= start
            last_end[parent] = end
            child_time[parent] += end - start
            in_timeline[i] = in_timeline[parent] or p[0] == "harness.entropy_timeline"
    names: dict[str, dict] = {}
    min_self, evolve_in_timeline = float("inf"), 0
    for i, (name, start, end, parent, bases) in enumerate(spans):
        self_t = (end - start) - child_time[i]
        min_self = min(min_self, self_t)
        keys = [name]
        if name == "observables.spin_rdm":
            keys.append(f"{name}.d{bases['d']}")
        if name == "propagator.evolve" and in_timeline[i]:
            evolve_in_timeline += 1
        for key in keys:
            agg = names.setdefault(key, {"calls": 0, "incl": 0.0, "self": 0.0, "bases": {}})
            agg["calls"] += 1
            agg["incl"] += end - start
            agg["self"] += self_t
            for b, v in (bases or {}).items():
                agg["bases"][b] = agg["bases"].get(b, 0) + v
    return {"min_self": min_self, "nested": nested, "disjoint": disjoint, "names": names,
            "counts": dict(counts), "evolve_in_timeline": evolve_in_timeline}


# (metric, unit, kind, span or counter name, base)
#   mean:      inclusive seconds per call
#   self:      self seconds per call
#   per_op:    calls per operation
#   count:     counter value per operation
#   ratio:     inclusive time per unit of the named base (unit gives the scale)
#   base_op:   summed base per operation
LAYER_TABLE = [
    ("op.self_s", "s", "self", "op", None),
    ("harness.load_scenario.s", "s", "mean", "harness.load_scenario", None),
    ("harness.run.calls", "count", "per_op", "harness.run", None),
    ("harness.run.self_s", "s", "self", "harness.run", None),
    ("harness.entropy_timeline.s_per_sample", "s", "ratio", "harness.entropy_timeline", "sample"),
    ("harness.entropy_timeline.evolve_calls", "count", "timeline_evolves", "harness.entropy_timeline", None),
    ("harness.oracle_density_error.s", "s", "mean", "harness.oracle_density_error", None),
    ("harness.bch_check.s", "s", "mean", "harness.bch_check", None),
    ("propagator.evolve.calls", "count", "per_op", "propagator.evolve", None),
    ("propagator.evolve.s_per_component", "s", "ratio", "propagator.evolve", "component"),
    ("propagator.sample_state.s", "s", "mean", "propagator.sample_state", None),
    ("propagator.dense_factored_matrix.s", "s", "mean", "propagator.dense_factored_matrix", None),
    *[(f"wavepacket.{f}.calls", "count", "count", f"wavepacket.{f}", None)
      for f in COUNTED["wavepacket"]],
    ("wavepacket.sample.calls", "count", "per_op", "wavepacket.sample", None),
    ("wavepacket.sample.ns_per_point", "ns", "ratio", "wavepacket.sample", "point"),
    ("config.grid_axis.calls", "count", "count", GRID_AXIS, None),
    ("observables.position_density_z.ns_per_point_component", "ns", "ratio",
     "observables.position_density_z", "point_component"),
    *[(f"observables.spin_rdm.s.d{d}", "s", "mean", f"observables.spin_rdm.d{d}", None)
      for d in range(2, 9)],
    ("observables.entanglement_entropy.s", "s", "mean", "observables.entanglement_entropy", None),
    ("observables.peak_separation.s", "s", "mean", "observables.peak_separation", None),
    ("oracle.split_step_evolve.s", "s", "mean", "oracle.split_step_evolve", None),
    ("oracle.split_step_evolve.ns_per_step_point_component", "ns", "ratio",
     "oracle.split_step_evolve", "step_point_component"),
    ("oracle.split_step_evolve.steps", "count", "base_op", "oracle.split_step_evolve", "steps"),
    ("oracle.split_step_evolve.ffts_computed", "count", "base_op", "oracle.split_step_evolve", "ffts"),
    ("oracle.split_step_evolve.bytes_computed", "B", "base_op", "oracle.split_step_evolve", "fft_bytes"),
    ("oracle.matrix_exponential.s", "s", "mean", "oracle.matrix_exponential", None),
    ("oracle.dense_hamiltonian.s", "s", "mean", "oracle.dense_hamiltonian", None),
    ("oracle.check_boundary_leak.calls", "count", "count", "oracle.check_boundary_leak", None),
    ("cli.main.self_s", "s", "self", "cli.main", None),
]
_SCALE = {"s": 1.0, "ns": 1e9}


def layer_metrics(summaries: list[dict]) -> dict[str, dict]:
    """Per-layer metrics over the traced operations of a run, each with the
    base it is a ratio of.  A layer the workload never reaches reports 0.
    """
    n_ops = max(len(summaries), 1)
    calls, incl, selft, bases, counts = {}, {}, {}, {}, {}
    timeline_evolves = 0
    for s in summaries:
        timeline_evolves += s["evolve_in_timeline"]
        for name, agg in s["names"].items():
            calls[name] = calls.get(name, 0) + agg["calls"]
            incl[name] = incl.get(name, 0.0) + agg["incl"]
            selft[name] = selft.get(name, 0.0) + agg["self"]
            for b, v in agg["bases"].items():
                bases[(name, b)] = bases.get((name, b), 0) + v
        for name, v in s["counts"].items():
            counts[name] = counts.get(name, 0) + v

    out = {}
    for metric, unit, kind, name, base in LAYER_TABLE:
        c = calls.get(name, 0)
        if kind == "mean":
            value, note = (incl.get(name, 0.0) / c if c else 0.0), f"{c} calls"
        elif kind == "self":
            value, note = (selft.get(name, 0.0) / c if c else 0.0), f"{c} calls"
        elif kind == "per_op":
            value, note = c / n_ops, f"{c} calls / {n_ops} ops"
        elif kind == "count":
            v = counts.get(name, 0)
            value, note = v / n_ops, f"{v} calls / {n_ops} ops"
        elif kind == "timeline_evolves":
            value = timeline_evolves / c if c else 0.0
            note = f"{timeline_evolves} evolve calls / {c} timelines"
        elif kind == "ratio":
            b = bases.get((name, base), 0)
            value = incl.get(name, 0.0) * _SCALE[unit] / b if b else 0.0
            note = f"{incl.get(name, 0.0):.6g} s / {b} {base.replace('_', '·')}s over {c} calls"
        elif kind == "base_op":
            b = bases.get((name, base), 0)
            value, note = b / n_ops, f"{b} {base} / {n_ops} ops"
            if base in ("ffts", "fft_bytes"):
                note += ", computed from arguments and array sizes"
        else:
            raise ValueError(kind)
        out[metric] = {"value": float(value), "unit": unit, "base": note}
    return out


def _cli_child(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <sge arguments>")
    tracer = Tracer()
    rc = 1
    try:
        with tracer.span("import.sgsim"):
            import sgsim.cli
        tracer.prepare()
        tracer.install()
        with tracer.span("cli.main"):
            rc = sgsim.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1:]))
