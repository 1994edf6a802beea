"""Golden digests: sha256 of small CLI runs, pinned across refactors.

The digests were produced by the row-at-a-time implementation that the
vectorised RNG block, chunked CSV writers and loadtxt fit reader replaced
(the gbm ``fit`` and ``sweep`` digests by the line-by-line one-column reader
and scipy's ``spearmanr``, before the shared loadtxt sample reader and the
numpy Spearman; the ``*_past_read_ahead`` digests by one
``substream(i).uniform()`` call per agent per step, before the 64-step
blocks; the 100k-point ``figure1`` digest, the benchmark's pin, by the
per-point exponent solver, before the shared array body; the ``solve``
digests by the report built field by field, before ``asdict``); any change
to them is a change to the program's output bytes.
"""

import hashlib

import pytest

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
    assert digest == "963aa255f01fb15fa4ad74a2847cf712947e3f6db8ad064a8b6759a081b6913a"


def test_fit_gbm(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names its input path
    assert main(["simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5", "--t", "10",
                 "--n", "3000", "--seed", "7", "--out", "g1.csv"]) == 0
    capsys.readouterr()
    assert main(["fit", "g1.csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "27f82032a2fc6859b37ff26e421a3407ddc59b185a02695edaa6dd74e861ddd3"


def test_hia(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert main(["hia", "--agents", "50", "--steps", "20", "--seed", "3", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "aa0dc588e7a52622ede50e2b52e49a6fbb3220eb3bddeeeeb83196d48cddb73b"
    assert stdout == "36ba5e4707c6d5984cbec407780726c753d8e41de16121d24c8e35aead3582fe"


def test_hia_past_read_ahead(tmp_path, capsys):
    # 151 draws per agent substream: past two 64-step blocks
    out = tmp_path / "h.csv"
    assert main(["hia", "--agents", "30", "--steps", "150", "--seed", "3", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "9d9229a34c7f816532d1f222fb2ed5731984c157aa66fc48b338f5a48bdaf71c"
    assert stdout == "e46f72c82cdbb92a002be11d673490efd9cc698b3247e71bd9b35e8eead4a583"


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


def test_sweep(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--vary", "noise_std", "--min", "0.1", "--max", "0.5",
                 "--points", "3", "--seeds", "2", "--agents", "40", "--steps", "15",
                 "--seed", "5", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "4d8048fafc95fb4abde8edfab1bb9dfb38b933aec15c481fd6ccbd7684423a55"
    assert stdout == "638e4e42be58e8d6b721346a044715f36dfd189642bb986340247efc4385b910"


def test_sweep_past_read_ahead(tmp_path, capsys):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--vary", "noise_std", "--min", "0.1", "--max", "0.5",
                 "--points", "3", "--seeds", "2", "--agents", "40", "--steps", "100",
                 "--seed", "5", "--out", str(out)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert _sha(out) == "5d36ecc2eb94c00f7c668d00b5b535d1524bbbb129415e132380053cc18c44da"
    assert stdout == "638e4e42be58e8d6b721346a044715f36dfd189642bb986340247efc4385b910"
