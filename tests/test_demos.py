"""Every demo script runs to completion, with RuntimeWarnings as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

import gbmtails

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the directory gbmtails was imported from, so the demos use the same package
PACKAGE_ROOT = str(pathlib.Path(gbmtails.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    # the working directory is tmp_path: the plotting demos write PNGs there
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT, "MPLBACKEND": "Agg"}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
