"""No module in src/, scripts/ or tests/ imports a name it never uses.  No linter is
a dependency, so this scans the syntax trees itself.  Package __init__
files are exempt: their imports are the public API they re-export."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport numpy as np\nfrom math import pi, tau\n"
              "import scipy.linalg\n"
              "print(sys.argv, np.pi, tau, scipy.linalg)\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


def test_no_unused_imports_in_src_and_tests():
    files = [p for d in ("src", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert {p.parent.name for p in files} >= {"sgsim", "scripts", "tests"}
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p.read_text())]
    assert not found, found
