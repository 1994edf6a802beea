"""The benchmark tracer's wrapper targets exist in the package, and a wrapper
set on ``gbmtails.cli`` is what the command using it calls.

perfbench/tracing.py replaces the names listed in its ``WRAPS`` table with
timed wrappers and reports a missing one as an incorrect run. The table is
read with ``ast``, so nothing under perfbench/ is imported or written here.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrap_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            # (module, attribute, ...): the first two fields are string literals
            return [tuple(ast.literal_eval(f) for f in e.elts[:2]) for e in node.value.elts]
    raise AssertionError(f"no WRAPS table in {TRACING}")


def test_every_wrapped_name_resolves():
    targets = wrap_targets()
    assert ("gbmtails.fitting", "fit_dpareto_mle") in targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


# In a fresh interpreter, replaces each named gbmtails.cli attribute with a
# counting wrapper before any command runs, as the tracer does, then runs each
# CLI argument list and prints {command: [wrapped names it called]}. Every
# sweep here sees two usable CPUs, so it runs in the pool.
_COUNT_CALLS = """
import contextlib, functools, io, json, sys
import gbmtails.cli as cli
cli._usable_cpus = lambda: 2
targets, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])
called = set()
def counting(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return wrapper
for name in targets:
    setattr(cli, name, counting(name, getattr(cli, name)))
import gbmtails.agents as agents  # wrapped by the tracer too; a pooled sweep pickles it
agents.run_hia = counting("agents.run_hia", agents.run_hia)
calls = {}
for label, argv in commands.items():
    called.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    calls[label] = sorted(called)
print(json.dumps(calls))
"""

# The command that must call each wrapped gbmtails.cli name.
_KILLED = ["simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
           "--n", "1000", "--seed", "3"]
_COMMANDS = {
    "solve": ["solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01", "--out", "s.json"],
    "limits": ["limits", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"],
    "figure1": ["figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min", "0.1",
                "--alpha-max", "0.5", "--points", "5"],
    "killed": [*_KILLED, "--out", "k.csv"],
    "killed_sharded": [*_KILLED, "--workers", "2", "--out", "k2.csv"],
    "gbm": ["simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.2", "--t", "1",
            "--n", "1000", "--out", "g.csv"],
    "fit": ["fit", "g.csv"],
    "hia": ["hia", "--agents", "20", "--steps", "5"],
    "sweep_pooled": ["sweep", "--points", "3", "--seeds", "1", "--agents", "20", "--steps", "5",
                     "--out", "sw.csv"],
}
_CALLED_BY = {
    "solve_exponents_canonical": "solve",
    "dumps": "solve",
    "atomic_write_text": "solve",
    "sha256_file": "solve",
    "limit_table": "limits",
    "exponent_curves": "figure1",
    "sample_killed_batch": "killed",
    "write_batch_csv_fh": "killed",
    "ProcessPoolExecutor": "killed_sharded",
    "sample_terminal_levels": "gbm",
    "write_sample_csv_fh": "gbm",
    "read_sample_csv": "fit",
    "compare_models": "fit",
    "run_hia": "hia",
}


def test_wrappers_set_on_cli_before_a_command_are_what_it_calls(tmp_path):
    """The tracer wraps names on gbmtails.cli before any command has imported
    their modules; each executor must still call the wrapper."""
    targets = [attr for module_name, attr in wrap_targets() if module_name == "gbmtails.cli"]
    assert sorted(targets) == sorted(_CALLED_BY)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_CALLS, json.dumps(targets), json.dumps(_COMMANDS)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert [t for t in targets if t not in calls[_CALLED_BY[t]]] == []
    assert "ProcessPoolExecutor" in calls["sweep_pooled"]  # the sweep's pool is the same one
    assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "k2.csv").read_bytes()


def test_batch_csv_writer_leaves_its_handle_at_the_bytes_written(tmp_path, monkeypatch):
    """The tracer counts ``killing.csv_bytes`` as ``fh.tell()`` after
    ``write_batch_csv_fh``. On ``simulate`` and on ``replay``, which hashes
    the CSV in memory, that must be the size of the CSV on disk."""
    import gbmtails.cli as cli

    told = []
    write = cli.write_batch_csv_fh

    def recording(fh, batch):
        write(fh, batch)
        told.append(fh.tell())

    monkeypatch.setattr(cli, "write_batch_csv_fh", recording)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*_KILLED, "--out", "k.csv"]) == 0
        assert cli.main(["replay", "k.csv.manifest.json"]) == 0
    size = (tmp_path / "k.csv").stat().st_size
    assert told == [size, size]


def test_every_stream_a_batch_sampler_draws_is_counted_at_block_take(tmp_path, monkeypatch):
    """The tracer counts ``rng.streams_keyed`` as the ``n`` of each wrapped
    ``StreamUniformBlock.take`` call, so the batch samplers must draw every
    stream through that method."""
    import gbmtails.cli as cli
    from gbmtails.rng import StreamUniformBlock

    counted = []
    take = StreamUniformBlock.take

    def counting(self, start, n):
        counted.append(n)
        return take(self, start, n)

    monkeypatch.setattr(StreamUniformBlock, "take", counting)
    monkeypatch.chdir(tmp_path)
    for argv in ([*_KILLED, "--workers", "1", "--out", "k.csv"], _COMMANDS["gbm"]):
        counted.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert sum(counted) == 1000, argv
