"""sgsim stores and takes its packets in one form, the centred one.  The
exponent form exp(a z^2 + b z + c) lives in sgsim.wavepacket alone, as the
view the tests read: no other module of src/sgsim imports QuadExpPacket,
norm or normalized, and src/ defines no converter `centred` from that form
(tests/helpers.py holds it).  The fused evolve is the only closed-form
propagator in src/: the four factors applied one at a time and the
semiclassical kinematics are the tests' specification, in tests/helpers.py.
The timeline is a fold of evolve over the segments, so src/ defines no
join_times and no HybridState.at to stitch batched states together.
Like test_unused_imports, this scans the syntax trees itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
EXPONENT_NAMES = {"QuadExpPacket", "norm", "normalized"}
SPECIFICATION_NAMES = {"apply_u2c", "apply_u2b", "apply_u2a", "apply_u1", "semiclassical",
                       "SemiclassicalKinematics"}
STITCHING_NAMES = {"join_times", "HybridState.at"}


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


def test_scan_finds_exponent_imports_and_definitions():
    source = ("from .wavepacket import (CentredPacket, QuadExpPacket, boost,\n"
              "                         normalized)\n"
              "from numpy.linalg import norm as l2\n"
              "def centred(p):\n    q = p\n    return q\n")
    assert imported_exponent_names(source) == [(1, "QuadExpPacket"), (1, "normalized"),
                                                (3, "norm")]
    assert defined_names(source) == {"centred", "q"}
    assert method_names("class A:\n    def at(self):\n        def f(): pass\n") == {"A.at"}


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
