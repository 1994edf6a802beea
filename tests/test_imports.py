"""What each command imports, and the package's lazily resolved public names.

Each command runs in a fresh interpreter, so ``sys.modules`` shows exactly
what it imported. A stray eager import would leave every output unchanged
and only slow start-up, which nothing else here would notice.
"""

import json
import os
import subprocess
import sys

import pytest

import gbmtails

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gbmtails.__file__)))

# Runs one CLI argument list and prints the sorted module names it imported
# as the last line of stdout.
_MODULES_AFTER = """
import contextlib, io, json, sys
from gbmtails.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

_SAMPLERS = {"gbmtails.agents", "gbmtails.fitting", "gbmtails.killing", "gbmtails.rng",
             "gbmtails.sde"}
_POOL = "concurrent.futures.process"


def modules_after(tmp_path, *argv) -> set:
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@pytest.mark.parametrize("argv", [
    ("solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"),
    ("limits", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"),
    ("figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min", "0.1", "--alpha-max", "0.5"),
])
def test_exponent_commands_import_no_sampler_fitter_or_pool(tmp_path, argv):
    modules = modules_after(tmp_path, *argv)
    assert "gbmtails.dpareto" in modules
    assert modules & (_SAMPLERS | {_POOL}) == set()


def test_fit_imports_no_sampler_or_agents(tmp_path):
    (tmp_path / "v.csv").write_text("value\n" + "".join(f"{1.5 ** i}\n" for i in range(20)))
    modules = modules_after(tmp_path, "fit", "v.csv")
    assert "gbmtails.fitting" in modules
    assert modules & {"gbmtails.agents", "gbmtails.killing", "gbmtails.rng",
                      "gbmtails.sde"} == set()


def test_simulate_imports_the_pool_only_when_it_shards(tmp_path):
    simulate = ("simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2",
                "--nu", "0.01", "--n", "1000", "--out", "k.csv")
    modules = modules_after(tmp_path, *simulate, "--workers", "1")
    assert "gbmtails.killing" in modules
    assert modules & {_POOL, "gbmtails.fitting", "gbmtails.dpareto", "gbmtails.agents"} == set()
    assert _POOL in modules_after(tmp_path, *simulate, "--workers", "2")


def test_every_public_name_resolves_and_star_import_binds_it():
    for name in gbmtails.__all__:
        assert getattr(gbmtails, name) is not None
    namespace = {}
    exec("from gbmtails import *", namespace)
    assert set(gbmtails.__all__) <= set(namespace)
    assert gbmtails.run_hia is gbmtails.agents.run_hia
    assert gbmtails.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    assert set(gbmtails.__all__) <= set(dir(gbmtails))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gbmtails.no_such_name
    assert not hasattr(gbmtails, "ALL_MODELS")  # a module's name, not the package's
    from gbmtails import cli

    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
