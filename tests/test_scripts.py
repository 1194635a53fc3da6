"""Smoke test of the example script in scripts/, loaded from its file."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

ENTROPY_SWEEP_PY = Path(__file__).resolve().parents[1] / "scripts" / "entropy_sweep.py"


def test_entropy_sweep_writes_one_bounded_column_per_gradient(tmp_path):
    spec = importlib.util.spec_from_file_location("entropy_sweep", ENTROPY_SWEEP_PY)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "e.csv"
    script.main(["--betas", "500,1000", "--samples", "5", "--out", str(out)])
    header, *rows = out.read_text().splitlines()
    assert header == "t_s,entropy_beta_500,entropy_beta_1000"
    assert len(rows) == 5
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert table.shape == (5, 3)
    np.testing.assert_allclose(table[:, 0], np.linspace(0.0, 1.0e-8, 5), rtol=1e-14)
    entropy = table[:, 1:]
    assert (entropy >= 0.0).all() and (entropy <= math.log(2.0)).all()
