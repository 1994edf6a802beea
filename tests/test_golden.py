"""Golden digests: sha256 of small CLI runs, pinned across refactors.

The digests were produced by the row-at-a-time implementation that the
vectorised RNG block, chunked CSV writers and loadtxt fit reader replaced
(the gbm ``fit`` and ``sweep`` digests by the line-by-line one-column reader
and scipy's ``spearmanr``, before the shared loadtxt sample reader and the
numpy Spearman; the ``*_past_read_ahead`` digests by one
``substream(i).uniform()`` call per agent per step, before the 64-step
blocks and before the agents' keys were derived in bulk and drawn in one
broadcast Philox pass; the 100k-point ``figure1`` digest, the benchmark's pin, by the
per-point exponent solver, before the shared array body; the ``solve``
digests by the report built field by field, before ``asdict``; the
degenerate ``fit`` digests by the lognormal fit's point-mass sentinel, before
every estimator raised). The killed and gbm ``fit`` digests, the ``hia`` stdout
digests and the ``sweep`` CSV digests were produced by the closed-form double-Pareto MLE,
and the earlier ones by the golden-section search over the plug-in profile.
Any change to them is a change to the program's output bytes.
"""

import hashlib
import importlib
import json
import pkgutil

import pytest

import gbmtails
from gbmtails.cli import main

KILLED = ("simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.5",
          "--nu", "0.01", "--n", "3000")
KILLED_SEED_7 = "02fcb99f3db241c205f95b1ac75c1043238e30406a73538c2440ddda8b75eed3"


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_killed(tmp_path, capsys, workers):
    out = tmp_path / "k.csv"
    assert main([*KILLED, "--seed", "7", "--workers", workers, "--out", str(out)]) == 0
    assert _sha(out) == KILLED_SEED_7


def test_simulate_killed_top_seed(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert main([*KILLED, "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert _sha(out) == "390bc208a807b109aa84b6992d25baa17169d15ae6171964a4eb8b00e953ee3e"


def test_simulate_gbm(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5", "--t", "10",
                 "--n", "3000", "--seed", "7", "--out", str(out)]) == 0
    assert _sha(out) == "02edf62faa94d1b9f5af938ab4680bcf929183bdb93cadaca8cc2af9af7b6446"


def test_fit_killed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names its input path
    assert main([*KILLED, "--seed", "7", "--out", "k1.csv"]) == 0
    capsys.readouterr()
    assert main(["fit", "k1.csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "bcb22f1c98a30d72b628eec03330f89c3476222799b9954c9bf563e7e1f1f299"


def test_fit_gbm(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names its input path
    assert main(["simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5", "--t", "10",
                 "--n", "3000", "--seed", "7", "--out", "g1.csv"]) == 0
    capsys.readouterr()
    assert main(["fit", "g1.csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "5d07f9ba798d7364fc0329d6e6386963cff75248dc99c23336bf2231ebc4dcf0"


@pytest.mark.parametrize("rows,digest", [
    (["2.0"] * 12,  # a point mass: every model is listed under errors
     "7d3bcc364837ba4a39ffc310b64d9a9f7dd193d94bd6b93acdab7a3c91fbe6f0"),
    ([repr(1e300 * (1 + k * 2.3e-16)) for k in range(39)],  # distinct values, equal logs
     "3870f5f52e60d2051a87c02a6bfb6ffd0c11f8a7f70ed2b0c891d0f93fc3601d"),
])
def test_fit_degenerate(tmp_path, capsys, monkeypatch, rows, digest):
    monkeypatch.chdir(tmp_path)  # the report names its input path
    (tmp_path / "d.csv").write_text("value\n" + "".join(f"{row}\n" for row in rows))
    assert main(["fit", "d.csv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _in_7_row_blocks(monkeypatch) -> None:
    """Set every module's BLOCK_ROWS to 7, so an n = 3000 run crosses many
    block edges; forked pool workers inherit it."""
    patched = set()
    for info in pkgutil.iter_modules(gbmtails.__path__):
        module = importlib.import_module(f"gbmtails.{info.name}")
        if hasattr(module, "BLOCK_ROWS"):
            monkeypatch.setattr(module, "BLOCK_ROWS", 7)
            patched.add(info.name)
    assert patched >= {"agents", "fitting", "rng", "serialization"}


# The same digests with every pass over a sample in 7-row blocks.
@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_killed_in_7_row_blocks(tmp_path, capsys, monkeypatch, workers):
    _in_7_row_blocks(monkeypatch)
    test_simulate_killed(tmp_path, capsys, workers)


def test_simulate_gbm_in_7_row_blocks(tmp_path, capsys, monkeypatch):
    _in_7_row_blocks(monkeypatch)
    test_simulate_gbm(tmp_path, capsys)


def test_simulate_killed_in_7_row_jobs(tmp_path, capsys, monkeypatch):
    """--workers 2 with 7-row pool jobs: 429 jobs, the last one short, whose
    parts are written in job order; replay of the manifest reproduces."""
    from gbmtails import cli

    jobs = []
    process_map = cli._process_map

    def recording(fn, los, his, **kwargs):
        jobs.append(list(zip(los, his)))
        return process_map(fn, los, his, **kwargs)

    monkeypatch.setattr(cli, "_JOB_ROWS", 7)
    monkeypatch.setattr(cli, "_process_map", recording)
    test_simulate_killed(tmp_path, capsys, "2")
    assert len(jobs[0]) == 429 and jobs[0][:2] == [(0, 7), (7, 14)]
    assert jobs[0][-1] == (2996, 3000)
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "k.csv.manifest.json")]) == 0
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    assert len(jobs) == 2


def test_fit_killed_in_7_row_blocks(tmp_path, capsys, monkeypatch):
    _in_7_row_blocks(monkeypatch)
    test_fit_killed(tmp_path, capsys, monkeypatch)


def test_fit_gbm_in_7_row_blocks(tmp_path, capsys, monkeypatch):
    _in_7_row_blocks(monkeypatch)
    test_fit_gbm(tmp_path, capsys, monkeypatch)


def test_hia(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert main(["hia", "--agents", "50", "--steps", "20", "--seed", "3", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "aa0dc588e7a52622ede50e2b52e49a6fbb3220eb3bddeeeeb83196d48cddb73b"
    assert stdout == "eae1f61e183e49f08e11de1327ecf7d110e04ed0ea5116647b9f3d0efe3fc196"


def test_hia_past_read_ahead(tmp_path, capsys):
    # 151 draws per agent substream: past two 64-step blocks
    out = tmp_path / "h.csv"
    assert main(["hia", "--agents", "30", "--steps", "150", "--seed", "3", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "9d9229a34c7f816532d1f222fb2ed5731984c157aa66fc48b338f5a48bdaf71c"
    assert stdout == "0f7304271f6e2709453dbfb5959dfb7266b90c87132e91e4d70a4c9d9763c092"


def test_hia_in_7_row_blocks(tmp_path, capsys, monkeypatch):
    _in_7_row_blocks(monkeypatch)
    test_hia(tmp_path, capsys)


def test_hia_past_read_ahead_in_7_row_blocks(tmp_path, capsys, monkeypatch):
    _in_7_row_blocks(monkeypatch)
    test_hia_past_read_ahead(tmp_path, capsys)


def test_figure1(capsys):
    assert main(["figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min", "0.05",
                 "--alpha-max", "2", "--points", "200"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "7fb7bcae20326deb8fbbfc030a3d73a4556311176ac569e1d74e5861889e4955"


@pytest.mark.parametrize("args,digest", [
    (("--r", "0.05", "--alpha", "0.2", "--nu", "0.01", "--convention", "both"),
     "d83e722f516ae579e50d8fa89f10eb2a87dccb6b2daad82c8a9e0a36024a5b45"),
    (("--r", "0.05", "--alpha", "0.2", "--nu", "0.01", "--convention", "canonical"),
     "0422ddb4a57a33f18616247ce12602cdbbab1008ea750c1b8bf5ae3e4263acbc"),
    (("--r", "0.05", "--alpha", "0.2", "--nu", "0.01", "--convention", "signed"),
     "fb8750164f0363ae18a328210695d6b5a9f0b47f9c048f0577c4b63e8e36c0ad"),
    (("--r", "0.5", "--alpha", "1.0", "--nu", "0.02"),  # the critical volatility
     "b2852ce2451e3ed3c797422d6d7651ffcbc7cdf6e474ee5b125b33381bb32353"),
])
def test_solve(capsys, args, digest):
    assert main(["solve", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_figure1_full_grid(capsys):
    # the benchmark's grid: it holds gaps whose C-pow square differs from x * x
    assert main(["figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min", "0.05",
                 "--alpha-max", "2", "--points", "100000"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "9a16c9119d2529ae3c2a3f03a350e0f249e98136399a895544e7f79387f63102"


SWEEP = ("sweep", "--vary", "noise_std", "--min", "0.1", "--max", "0.5",
         "--points", "3", "--seeds", "2", "--agents", "40", "--steps", "15", "--seed", "5")
SWEEP_CSV = "4265c0d5c30d292f61a4d910f8821dee44f894115f3275fd2ed4a64da0f9ad1e"
SWEEP_STDOUT = "638e4e42be58e8d6b721346a044715f36dfd189642bb986340247efc4385b910"


def test_sweep(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main([*SWEEP, "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == SWEEP_CSV
    assert stdout == SWEEP_STDOUT


def test_sweep_in_a_process_pool(tmp_path, capsys, monkeypatch):
    """With 2 usable CPUs the runs go to processes; bytes, stdout and manifest keep."""
    from gbmtails import cli

    serial = tmp_path / "serial.csv"
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main([*SWEEP, "--out", str(serial)]) == 0
    capsys.readouterr()
    pools = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "sw.csv"
    assert main([*SWEEP, "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert pools == [2]
    assert _sha(out) == _sha(serial) == SWEEP_CSV
    assert stdout == SWEEP_STDOUT
    manifest = json.loads((tmp_path / "sw.csv.manifest.json").read_text())
    serial_manifest = json.loads((tmp_path / "serial.csv.manifest.json").read_text())
    assert manifest.keys() == serial_manifest.keys()
    assert {**manifest["params"], "out": None} == {**serial_manifest["params"], "out": None}
    assert manifest["clamped"] == serial_manifest["clamped"]
    assert main(["replay", str(tmp_path / "sw.csv.manifest.json")]) == 0
    assert json.loads(capsys.readouterr().out)["reproduced"] is True
    assert pools == [2, 2]


def test_sweep_past_read_ahead(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--vary", "noise_std", "--min", "0.1", "--max", "0.5",
                 "--points", "3", "--seeds", "2", "--agents", "40", "--steps", "100",
                 "--seed", "5", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "f6292ddf1b6c4ac66b15831e7f690ee2ca5f9344c0d7d555334635d885cd5ce6"
    assert stdout == "638e4e42be58e8d6b721346a044715f36dfd189642bb986340247efc4385b910"
