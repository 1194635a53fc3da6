"""sgsim stores and takes its packets in one form, the centred one.  The
exponent form exp(a z^2 + b z + c) lives in sgsim.wavepacket alone, as the
view the tests read: no other module of src/sgsim imports QuadExpPacket,
norm or normalized, and src/ defines no converter `centred` from that form
(tests/helpers.py holds it).  The fused evolve is the only closed-form
propagator in src/: the four factors applied one at a time and the
semiclassical kinematics are the tests' specification, in tests/helpers.py.
The timeline is evolve_segments at its sample times, so src/ defines no
join_times and no HybridState.at to stitch batched states together, and
harness neither imports nor calls evolve: evolve_segments is the one
closed-form walk over a schedule.
Like test_unused_imports, this scans the syntax trees itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
EXPONENT_NAMES = {"QuadExpPacket", "norm", "normalized"}
SPECIFICATION_NAMES = {"apply_u2c", "apply_u2b", "apply_u2a", "apply_u1", "semiclassical",
                       "SemiclassicalKinematics"}
STITCHING_NAMES = {"join_times", "HybridState.at"}
WALKED = "evolve"


def imported_exponent_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each exponent-form name a `from ... import` brings in."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in EXPONENT_NAMES)


def defined_names(source: str) -> set[str]:
    """Every function, class and assigned name, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def method_names(source: str) -> set[str]:
    """Class.method of each function defined directly in a class body."""
    return {f"{node.name}.{item.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)}


def uses_of(name: str, source: str) -> list[tuple[int, str]]:
    """(line, how) of each import of name and each call of it, by its bare
    name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, "import") for alias in node.names
                      if alias.name.rpartition(".")[2] == name]
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.append((node.lineno, "call"))
    return sorted(found)


def test_scan_finds_exponent_imports_and_definitions():
    source = ("from .wavepacket import (CentredPacket, QuadExpPacket, boost,\n"
              "                         normalized)\n"
              "from numpy.linalg import norm as l2\n"
              "def centred(p):\n    q = p\n    return q\n")
    assert imported_exponent_names(source) == [(1, "QuadExpPacket"), (1, "normalized"),
                                                (3, "norm")]
    assert defined_names(source) == {"centred", "q"}
    assert method_names("class A:\n    def at(self):\n        def f(): pass\n") == {"A.at"}


def test_scan_finds_imports_and_calls_of_evolve():
    source = ("from .propagator import (evolve,\n"
              "                         evolve_segments)\n"
              "import sgsim.propagator.evolve\n"
              "st = evolve_segments(st, segs, cfg)\n"
              "st = propagator.evolve(st, t, cfg)\n"
              "f = evolve\n"
              "st = evolve(st, t, cfg)\n")
    assert uses_of(WALKED, source) == [(1, "import"), (3, "import"), (5, "call"), (7, "call")]


def test_only_wavepacket_touches_the_exponent_form():
    modules = sorted((SRC / "sgsim").glob("*.py"))
    assert "wavepacket.py" in {p.name for p in modules}
    found = [f"{p.name}:{line}: {name}" for p in modules if p.name != "wavepacket.py"
             for line, name in imported_exponent_names(p.read_text())]
    assert not found, found


def test_src_defines_no_centred_converter():
    found = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py"))
             if "centred" in defined_names(p.read_text())]
    assert not found, found


def test_src_defines_no_single_factor_or_semiclassical_yardstick():
    found = [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.rglob("*.py"))
             for name in sorted(SPECIFICATION_NAMES & defined_names(p.read_text()))]
    assert not found, found


def test_src_defines_no_state_stitching():
    found = [f"{p.relative_to(SRC)}: {name}" for p in sorted(SRC.rglob("*.py"))
             for name in sorted(STITCHING_NAMES & (defined_names(p.read_text())
                                                   | method_names(p.read_text())))]
    assert not found, found


def test_harness_walks_schedules_through_evolve_segments_only():
    source = (SRC / "sgsim" / "harness.py").read_text()
    assert "evolve_segments(" in source
    found = [f"harness.py:{line}: {how} of {WALKED}" for line, how in uses_of(WALKED, source)]
    assert not found, found
