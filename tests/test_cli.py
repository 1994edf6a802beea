import gc
import importlib
import json
import math
import os
import pathlib
import platform
import re
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import gbmtails
from gbmtails.agents import HiaParams, run_hia, run_sweep, sweep_csv_text
from gbmtails.cli import COMMANDS, build_parser, main
from gbmtails.fitting import SampleCsvError, read_sample_csv
from gbmtails.serialization import sha256_file


def _libc() -> dict:
    """The ``libc`` entry a manifest written here records, or none."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return {}
    return {"libc": libc} if libc else {}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_reference_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["m1_canonical"] == pytest.approx(0.280776, abs=1e-6)
        assert doc["m2_canonical"] == pytest.approx(1.780776, abs=1e-6)
        assert doc["regime"] == "QuasiStochastic"
        assert doc["vieta_product_residual"] <= 1e-12

    def test_critical_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--r", "0.5", "--alpha", "1.0", "--nu", "0.02"
        )
        doc = json.loads(out)
        assert doc["regime"] == "Critical"
        assert doc["m1_canonical"] == pytest.approx(0.2, rel=1e-10)
        assert doc["m2_canonical"] == pytest.approx(0.2, rel=1e-10)

    @pytest.mark.parametrize("r,alpha", [("0.05", "1e100"), ("1e300", "0.2")])
    def test_unrepresentable_exponents_exit_2(self, capsys, r, alpha):
        code, out, err = run_cli(capsys, "solve", "--r", r, "--alpha", alpha, "--nu", "0.01")
        assert code == 2
        assert out == ""
        assert "not finite and positive" in err

    def test_degenerate_volatility_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--r", "0.05", "--alpha", "0", "--nu", "0.01"
        )
        assert code == 2
        assert "degenerate" in err

    def test_missing_option_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2")
        assert code == 2
        assert "--nu" in err

    def test_artifact_and_manifest_modes_follow_umask(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        old = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2",
                                 "--nu", "0.01", "--out", str(out))
        finally:
            os.umask(old)
        assert code == 0
        assert os.stat(out).st_mode & 0o777 == 0o644
        assert os.stat(f"{out}.manifest.json").st_mode & 0o777 == 0o644

    def test_convention_filter(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
            "--convention", "canonical",
        )
        doc = json.loads(out)
        assert "m1_canonical" in doc and "m1_signed" not in doc


class TestRegimeAndLimits:
    def test_regime(self, capsys):
        code, out, _ = run_cli(capsys, "regime", "--r", "0.5", "--alpha", "0.9")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"alpha_star": 1.0, "regime": "QuasiStochastic"}

    def test_limits_csv_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "limits", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "limit_id,evaluated,stated,deviation,sign_agrees"
        assert len(lines) == 13
        row = dict(zip(("id", "ev", "st", "dev", "sgn"),
                       lines[1].split(",")))
        assert row["id"] == "nu_to_zero_m1"
        assert float(row["st"]) == pytest.approx(1.5, rel=1e-12)

    def test_limits_with_an_infinite_limit_evaluated_at_zero(self, capsys):
        # the nu -> inf m2 proxy evaluates to exactly 0.0 here: the furthest
        # miss of an infinite limit, not a division by zero
        code, out, _ = run_cli(
            capsys, "limits", "--r", "1e6", "--alpha", "1e-8", "--nu", "0.01"
        )
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().split("\n")[1:]}
        assert rows["nu_to_inf_m2"][1:4] == ["0", "-inf", "inf"]


class TestFigure1:
    def test_csv_artifact_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, out, _ = run_cli(
            capsys, "figure1", "--r", "0.05", "--nu", "0.01",
            "--alpha-min", "0.05", "--alpha-max", "2", "--points", "200",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "alpha,m1_signed,m2_signed,m1_canonical,m2_canonical"
        assert len(lines) == 201
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(rows[:, 3] > 0) and np.all(rows[:, 4] > 0)
        manifest = json.loads((tmp_path / "fig.csv.manifest.json").read_text())
        assert manifest["command"] == "figure1"
        assert manifest["outputs"][0]["sha256"] == sha256_file(out_path)

    def test_grid_point_on_critical_volatility_is_nudged(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        alpha_star = math.sqrt(0.1)
        code, _, _ = run_cli(
            capsys, "figure1", "--r", "0.05", "--nu", "0.01",
            "--alpha-min", str(alpha_star), "--alpha-max", "2", "--points", "3",
            "--out", str(out_path),
        )
        assert code == 0


class TestSimulate:
    def test_deterministic_digests(self, capsys, tmp_path):
        args = ("simulate", "--mode", "killed", "--x0", "1", "--r", "0.05",
                "--alpha", "0.2", "--nu", "0.01", "--n", "1000", "--seed", "7")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert sha256_file(a) == sha256_file(b)

    def test_gbm_deterministic_limit(self, capsys, tmp_path):
        out_path = tmp_path / "gbm.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--mode", "gbm", "--x0", "1", "--r", "0.1",
            "--alpha", "0", "--t", "1", "--n", "1", "--seed", "0",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "value"
        assert float(lines[1]) == pytest.approx(math.e**0.1, rel=1e-12)

    def test_missing_output_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--mode", "gbm", "--r", "0.1", "--alpha", "0",
            "--t", "1", "--n", "1", "--out", str(tmp_path / "nope" / "x.csv"),
        )
        assert code == 2
        assert "directory" in err

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path):
        args = ("simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2",
                "--nu", "0.01", "--n", "5000", "--seed", "3")
        w1, w4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert run_cli(capsys, *args, "--workers", "1", "--out", str(w1))[0] == 0
        assert run_cli(capsys, *args, "--workers", "4", "--out", str(w4))[0] == 0
        assert sha256_file(w1) == sha256_file(w4)

    def test_pool_processes_stop_at_the_cpu_count(self, capsys, tmp_path, monkeypatch):
        from gbmtails import cli

        asked = []

        class InlinePool:  # records the process count and runs each shard here
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        # two usable CPUs on a larger host: the affinity mask decides
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        args = ("simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2",
                "--nu", "0.01", "--seed", "3")
        w1, w64 = tmp_path / "w1.csv", tmp_path / "w64.csv"
        assert run_cli(capsys, *args, "--n", "1000", "--workers", "1", "--out", str(w1))[0] == 0
        assert run_cli(capsys, *args, "--n", "1000", "--workers", "64", "--out", str(w64))[0] == 0
        assert asked == [2]
        assert sha256_file(w1) == sha256_file(w64)
        # fewer rows than 4 per worker still shard: 3 shards of at most 2 rows
        s1, s4 = tmp_path / "s1.csv", tmp_path / "s4.csv"
        assert run_cli(capsys, *args, "--n", "5", "--workers", "1", "--out", str(s1))[0] == 0
        assert run_cli(capsys, *args, "--n", "5", "--workers", "4", "--out", str(s4))[0] == 0
        assert asked == [2, 2]
        assert sha256_file(s1) == sha256_file(s4)

    def test_simulate_on_one_cpu_starts_no_pool(self, capsys, tmp_path, monkeypatch):
        from gbmtails import cli

        def no_pool(*args, **kwargs):
            raise AssertionError("simulate --workers 2 on one usable CPU started a pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        args = ("simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2",
                "--nu", "0.01", "--n", "5000", "--seed", "3")
        w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run_cli(capsys, *args, "--workers", "1", "--out", str(w1))[0] == 0
        assert run_cli(capsys, *args, "--workers", "2", "--out", str(w2))[0] == 0
        assert sha256_file(w1) == sha256_file(w2)

    def test_usable_cpus_fall_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        from gbmtails import cli

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_requires_mode_specific_options(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--mode", "killed", "--r", "0.05",
            "--alpha", "0.2", "--n", "10", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "--nu" in err

    @pytest.mark.parametrize("extra,named", [
        (("--mode", "killed", "--nu", "0.01", "--workers", "0"), "workers"),
        (("--mode", "killed", "--nu", "0.01", "--workers", "-5"), "workers"),
        (("--mode", "gbm", "--t", "1", "--workers", "0"), "workers"),
        (("--mode", "killed", "--nu", "0.01", "--t", "1"), "--t"),
        (("--mode", "gbm", "--t", "1", "--nu", "0.01"), "--nu"),
        (("--mode", "gbm", "--t", "1", "--workers", "2"), "--workers"),
    ])
    def test_rejects_options_it_cannot_honour(self, capsys, tmp_path, extra, named):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "simulate", "--r", "0.05", "--alpha", "0.2",
                               "--n", "10", *extra, "--out", str(out_path))
        assert code == 2
        assert named in err
        assert not out_path.exists()

    @pytest.mark.parametrize("args", [
        ("--mode", "killed", "--r", "1", "--alpha", "0.5", "--nu", "0.01", "--workers", "1"),
        ("--mode", "killed", "--r", "1", "--alpha", "0.5", "--nu", "0.01", "--workers", "2"),
        ("--mode", "killed", "--r", "0.05", "--alpha", "1e200", "--nu", "0.01"),
        ("--mode", "gbm", "--r", "100", "--alpha", "0.5", "--t", "10"),
        ("--mode", "gbm", "--r", "-100", "--alpha", "0.5", "--t", "10"),
    ])
    def test_levels_outside_float64_exit_2(self, capsys, tmp_path, args):
        code, out, err = run_cli(capsys, "simulate", "--n", "1000", "--seed", "3", *args,
                                 "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert out == ""
        assert "do not fit in float64" in err and "Warning" not in err
        assert os.listdir(tmp_path) == []

    def test_empty_output_path_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--mode", "gbm", "--r", "0.05",
                               "--alpha", "0.2", "--t", "1", "--n", "10", "--out", "")
        assert code == 2
        assert "--out" in err


class TestFit:
    def make_killed_csv(self, capsys, tmp_path, n=20_000):
        out_path = tmp_path / "killed.csv"
        run_cli(capsys, "simulate", "--mode", "killed", "--r", "0.05",
                "--alpha", "0.2", "--nu", "0.01", "--n", str(n), "--seed", "11",
                "--out", str(out_path))
        return out_path

    def test_fit_killed_output_prefers_double_pareto(self, capsys, tmp_path):
        csv = self.make_killed_csv(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "fit", str(csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["preferred"] == "double_pareto"

    def test_fit_refuses_to_overwrite_its_input(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        csv = self.make_killed_csv(capsys, tmp_path, n=200)
        before = csv.read_bytes(), (tmp_path / "killed.csv.manifest.json").read_bytes()
        for out_path in ("killed.csv", "./killed.csv", str(csv)):
            code, out, err = run_cli(capsys, "fit", "killed.csv", "--out", out_path)
            assert code == 2 and out == "" and out_path in err and "'killed.csv'" in err
        assert (csv.read_bytes(), (tmp_path / "killed.csv.manifest.json").read_bytes()) == before

    def test_fit_gbm_output_prefers_lognormal(self, capsys, tmp_path):
        csv = tmp_path / "gbm.csv"
        run_cli(capsys, "simulate", "--mode", "gbm", "--r", "0.05", "--alpha",
                "0.2", "--t", "10", "--n", "20000", "--seed", "5",
                "--out", str(csv))
        code, out, _ = run_cli(capsys, "fit", str(csv))
        assert code == 0
        assert json.loads(out)["preferred"] == "lognormal"

    def test_fit_rejects_negative_value_naming_line(self, capsys, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("value\n1.0\n2.0\n-3.5\n4.0\n")
        code, _, err = run_cli(capsys, "fit", str(csv))
        assert code == 2
        assert "line 4" in err

    def test_fit_missing_file_exits_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "fit", str(tmp_path / "missing.csv"))
        assert code == 3

    def test_fit_model_subset_and_hill_override(self, capsys, tmp_path):
        csv = self.make_killed_csv(capsys, tmp_path, n=2000)
        code, out, _ = run_cli(
            capsys, "fit", str(csv), "--models", "lognormal,pareto_tail",
            "--hill-k", "150",
        )
        assert code == 0
        doc = json.loads(out)
        assert [m["model"] for m in doc["models"]] == ["lognormal", "pareto_tail"]
        tail = doc["models"][1]
        assert tail["parameters"]["hill_k"] == 150

    @pytest.mark.parametrize("flags,named", [
        (("--hill-k", "-3"), "--hill-k must be >= 2"),
        (("--hill-k", "1"), "--hill-k must be >= 2"),
        (("--hill-k", "5", "--models", "lognormal"), "--hill-k applies only to"),
        (("--models", ""), "--models must name"),
        (("--models", "lognormal,lognormal"), "--models must name"),
        (("--models", "lognormal,"), "--models must name"),
        (("--models", "weibull"), "--models must name"),
    ])
    def test_fit_rejects_options_it_cannot_honour_before_reading(self, capsys, tmp_path,
                                                                  flags, named):
        # the input does not exist: an option error must come first, as exit 2
        code, out, err = run_cli(capsys, "fit", str(tmp_path / "missing.csv"), *flags)
        assert code == 2
        assert out == ""
        assert named in err

    def test_fit_hill_k_not_below_n_stays_a_per_model_error(self, capsys, tmp_path):
        csv = tmp_path / "v.csv"
        csv.write_text("value\n" + "".join(f"{1.5 ** i}\n" for i in range(20)))
        code, out, _ = run_cli(capsys, "fit", str(csv), "--hill-k", "20")
        assert code == 0
        doc = json.loads(out)
        assert "2 <= k < n" in doc["errors"]["pareto_tail"]
        # log-equispaced values: the double-Pareto likelihood peaks at a one-sided limit
        assert "one tail has no data" in doc["errors"]["double_pareto"]
        assert [m["model"] for m in doc["models"]] == ["lognormal"]

    def test_fit_replay_rejects_recorded_options_it_cannot_honour(self, capsys, tmp_path,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.csv").write_text("value\n" + "".join(f"{1.5 ** i}\n" for i in range(20)))
        assert run_cli(capsys, "fit", "v.csv", "--out", "f.json")[0] == 0
        manifest = tmp_path / "f.json.manifest.json"
        doc = json.loads(manifest.read_text())
        for params, named in [({"models": ""}, "--models"), ({"hill_k": -3}, "--hill-k")]:
            manifest.write_text(json.dumps({**doc, "params": {**doc["params"], **params}}))
            code, out, err = run_cli(capsys, "replay", str(manifest))
            assert code == 2
            assert out == ""
            assert named in err

    def test_help_model_names_are_fittings(self):
        from gbmtails import cli, fitting

        assert cli._MODELS == fitting.ALL_MODELS


class TestHiaAndSweep:
    def test_hia_json_and_artifact(self, capsys, tmp_path):
        sizes = tmp_path / "sizes.csv"
        code, out, _ = run_cli(
            capsys, "hia", "--agents", "300", "--steps", "80", "--seed", "2",
            "--out", str(sizes),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["effective_alpha"] > 0
        assert doc["fit"]["preferred"] in ("double_pareto", "lognormal", "pareto_tail")
        lines = sizes.read_text().strip().split("\n")
        assert lines[0] == "value" and len(lines) == 301

    def test_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--vary", "noise_std", "--min", "0.1", "--max", "0.6",
            "--points", "3", "--seeds", "1", "--agents", "250", "--steps", "120",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert "spearman_rho" in doc
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("noise_std,coupling,")
        assert len(lines) == 4

    def test_process_map_gives_the_serial_sweep(self):
        from gbmtails import cli

        base = HiaParams(n_agents=40, noise_std=1.0, coupling_in=0.1, coupling_out=0.1,
                         steps=30, floor=0.2)
        # three runs, so two processes get unequal shares
        serial = run_sweep(base, "noise_std", [0.6, 0.8, 1.0], 1, 23)
        pooled = run_sweep(base, "noise_std", [0.6, 0.8, 1.0], 1, 23, map=cli._process_map)
        assert serial.clamped > 0 and not math.isnan(serial.spearman_rho)
        assert pooled == serial
        assert sweep_csv_text(pooled) == sweep_csv_text(serial)

    @pytest.mark.parametrize("cap, pools, most", [({}, 1, 4), ({"processes": 1}, 0, 0)],
                             ids=["cpus", "one"])
    def test_process_map_keeps_two_jobs_a_process_unread(self, monkeypatch, cap, pools, most):
        """Results come in job order, and a job is submitted only while fewer
        than two per process are waiting to be read; one process builds no
        pool and runs the jobs here."""
        from gbmtails import cli

        count = {"pools": 0, "submitted": 0, "read": 0, "most": 0}

        class RecordingPool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers):
                count["pools"] += 1
                super().__init__(max_workers)

            def submit(self, fn, *args):
                count["submitted"] += 1
                count["most"] = max(count["most"], count["submitted"] - count["read"])
                return super().submit(fn, *args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        results = []
        for result in cli._process_map(abs, range(-20, 0), **cap):
            count["read"] += 1
            results.append(result)
        assert results == list(range(20, 0, -1))
        assert count["pools"] == pools and count["most"] == most
        assert count["submitted"] == 20 * pools

    def test_sweep_on_one_cpu_starts_no_pool(self, capsys, tmp_path, monkeypatch):
        from gbmtails import cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep on one usable CPU started a pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        args = ["sweep", "--points", "3", "--seeds", "2", "--agents", "40", "--steps", "15"]
        assert run_cli(capsys, *args, "--out", str(tmp_path / "one_cpu.csv"))[0] == 0

    @pytest.mark.parametrize("command", [
        ["hia", "--agents", "40", "--steps", "30"],
        ["sweep", "--vary", "coupling_out", "--min", "0.1", "--max", "0.3", "--points", "2",
         "--seeds", "2", "--agents", "40", "--steps", "30"],
    ], ids=["hia", "sweep"])
    def test_manifest_records_floor_clamps_and_replay_ignores_them(self, capsys, tmp_path,
                                                                    command):
        out_path = tmp_path / "out.csv"
        args = [*command, "--noise-std", "1.0", "--floor", "0.2", "--seed", "19"]
        code, out, _ = run_cli(capsys, *args, "--out", str(out_path))
        assert code == 0
        manifest_path = tmp_path / "out.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        hia = HiaParams(n_agents=40, noise_std=1.0, coupling_in=0.1, coupling_out=0.1,
                        floor=0.2, steps=30)
        if command[0] == "hia":
            expected = run_hia(hia, 19)[0].clamped
        else:
            expected = sum(run_hia(replace(hia, coupling_out=v), 19 + 100000 * i + rep)[0].clamped
                           for i, v in enumerate([0.1, 0.3]) for rep in range(2))
        assert manifest["clamped"] == expected > 0
        # stdout and output bytes are those of a run without the field
        assert "clamped" not in out and "clamped" not in out_path.read_text()
        code, out, _ = run_cli(capsys, "replay", str(manifest_path))
        assert code == 0 and json.loads(out)["reproduced"] is True
        manifest["clamped"] = expected + 1  # not an output: the digests decide
        manifest_path.write_text(json.dumps(manifest))
        assert run_cli(capsys, "replay", str(manifest_path))[0] == 0


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    @pytest.mark.parametrize("mode", [("killed", "--nu", "0.01"), ("gbm", "--t", "1")])
    def test_seed_outside_64_bits_exits_2(self, capsys, tmp_path, seed, mode):
        out_path = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, "simulate", "--mode", *mode, "--r", "0.05",
                               "--alpha", "0.2", "--n", "10", "--seed", seed,
                               "--out", str(out_path))
        assert code == 2
        assert "seed" in err
        assert not out_path.exists()

    def test_hia_seed_outside_64_bits_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "hia", "--agents", "20", "--steps", "2", "--seed", "-1")
        assert code == 2
        assert "seed" in err

    def test_sweep_whose_run_seeds_pass_64_bits_exits_2(self, capsys, tmp_path):
        # point 1's run seed would be 2**64 - 1 + 100000; the error names the seed given
        out_path = tmp_path / "sw.csv"
        code, _, err = run_cli(capsys, "sweep", "--points", "2", "--seeds", "1", "--agents",
                               "20", "--steps", "2", "--seed", str(2**64 - 1),
                               "--out", str(out_path))
        assert code == 2
        assert f"master seed {2**64 - 1} puts run seeds past 2**64 - 1" in err
        assert not out_path.exists()


class TestKilledFitInput:
    """Killed-batch CSVs read by ``fit``: the loadtxt fast path and the
    line-numbered validator must accept and reject the same files."""

    HEADER = "kill_time,state\n"

    def load(self, tmp_path, body):
        path = tmp_path / "k.csv"
        path.write_text(self.HEADER + body)
        return read_sample_csv(str(path))

    def test_plain_rows(self, tmp_path):
        assert self.load(tmp_path, "1,2.5\n3,4.5\n").values.tolist() == [2.5, 4.5]

    def test_single_row(self, tmp_path):
        assert self.load(tmp_path, "1,2.5\n").values.tolist() == [2.5]

    def test_hash_in_field_is_malformed(self, tmp_path):
        with pytest.raises(SampleCsvError, match="line 2: malformed row") as exc:
            self.load(tmp_path, "1,2.5#x\n3,4.5\n")
        assert exc.value.lines == [2]

    def test_third_field_is_ignored(self, tmp_path):
        assert self.load(tmp_path, "1,2.5,9\n3,4.5\n").values.tolist() == [2.5, 4.5]

    def test_blank_lines_are_skipped(self, tmp_path):
        assert self.load(tmp_path, "\n1,2.5\n\n   \n3,4.5\n\n").values.tolist() == [2.5, 4.5]

    def test_underscore_digits_follow_python_float(self, tmp_path):
        assert self.load(tmp_path, "1,1_0\n3,4.5\n").values.tolist() == [10.0, 4.5]

    def test_header_only_has_no_rows(self, tmp_path):
        with pytest.raises(SampleCsvError, match="no data rows"):
            self.load(tmp_path, "")

    @pytest.mark.parametrize("state", ["0", "-2", "inf", "nan", "1e-400"])
    def test_non_positive_or_non_finite_state_names_line(self, tmp_path, state):
        with pytest.raises(SampleCsvError, match=f"line 3: invalid state value {state}") as exc:
            self.load(tmp_path, f"1,2.5\n1,{state}\n")
        assert exc.value.lines == [3]

    def test_missing_state_field_is_malformed(self, tmp_path):
        with pytest.raises(SampleCsvError, match="line 2: malformed row '1'"):
            self.load(tmp_path, "1\n3,4.5\n")

    def test_values_match_python_float(self, tmp_path):
        values = [5e-324, 2.2250738585072014e-308, 0.1, 1e308, 7.0]
        got = self.load(tmp_path, "".join("1,%r\n" % v for v in values)).values
        assert got.tobytes() == np.array(values).tobytes()


class TestValueFitInput:
    """One-column sample CSVs read by ``fit``: the same edge cases as the
    killed schema, with the outcomes of the line-by-line reader."""

    def load(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        return read_sample_csv(str(path))

    @pytest.mark.parametrize(
        "body, values",
        [
            ("1.5\n2.5\n", [1.5, 2.5]),
            ("1.5\n", [1.5]),
            ("1_0\n2\n", [10.0, 2.0]),
            ("\n1\n\n   \n2\n\n", [1.0, 2.0]),
            ("1\r\n2\r\n", [1.0, 2.0]),
            (" 1.5 \n+2\n", [1.5, 2.0]),
        ],
    )
    def test_accepted(self, tmp_path, body, values):
        assert self.load(tmp_path, "value\n" + body).values.tolist() == values

    @pytest.mark.parametrize(
        "body, lines",
        [
            ("1,2\n", [2]),  # loadtxt reads a single 2-field row as 1-d
            ("1,2\n3,4\n", [2, 3]),
            ("1.5\n1,2\n", [3]),
            ("#\n1\n", [2]),
            ("1#x\n2\n", [2]),
            ("1e-400\n2\n", [2]),
            ("1.5\n0\n", [3]),
            ("1.5\n-2\n", [3]),
            ("1.5\ninf\n", [3]),
            ("1.5\nnan\n", [3]),
            ("1.5\n2.5\udce9\n", [3]),  # an undecodable byte
        ],
    )
    def test_rejected_rows_are_named(self, tmp_path, body, lines):
        with pytest.raises(SampleCsvError) as exc:
            self.load(tmp_path, "value\n" + body)
        assert exc.value.lines == lines
        assert f"line {lines[0]}:" in str(exc.value)

    def test_header_only_has_no_rows(self, tmp_path):
        with pytest.raises(SampleCsvError, match="no data rows") as exc:
            self.load(tmp_path, "value\n")
        assert exc.value.lines == []

    @pytest.mark.parametrize("header", ["values", "", "value,", "kill_time,state,x"])
    def test_wrong_header_is_line_1(self, tmp_path, header):
        with pytest.raises(SampleCsvError, match="expected header") as exc:
            self.load(tmp_path, header + "\n1.0\n")
        assert exc.value.lines == [1]

    def test_values_match_python_float(self, tmp_path):
        values = [5e-324, 2.2250738585072014e-308, 0.1, 1e308, 7.0]
        got = self.load(tmp_path, "value\n" + "".join("%r\n" % v for v in values)).values
        assert got.tobytes() == np.array(values).tobytes()


class TestConfigAndReplay:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"r": 0.05, "alpha": 0.2, "nu": 0.01}))
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0
        assert json.loads(out)["regime"] == "QuasiStochastic"
        code, out, _ = run_cli(
            capsys, "solve", "--config", str(config), "--alpha", "0.5"
        )
        assert json.loads(out)["regime"] == "Stochastic"

    def test_config_rejects_unknown_keys(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"r": 0.05, "alpah": 0.5, "nu": 0.01}))
        code, out, err = run_cli(capsys, "solve", "--config", str(config), "--alpha", "0.2")
        assert code == 2
        assert out == ""
        assert "alpah" in err

    @pytest.mark.parametrize("command,config,named", [
        ("solve", {"convention": "bogus", "r": 0.05, "alpha": 0.2, "nu": 0.01}, "convention"),
        ("solve", {"r": True, "alpha": 0.2, "nu": 0.01}, "r must be"),
        ("solve", {"r": None, "alpha": 0.2, "nu": 0.01}, "r must be"),
        ("solve", {"out": 5, "r": 0.05, "alpha": 0.2, "nu": 0.01}, "out must be"),
        ("hia", {"steps": 2.7, "agents": 20}, "steps must be"),
    ])
    def test_config_values_are_checked_against_the_option(self, capsys, tmp_path,
                                                           command, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert "config file" in err and named in err

    def test_config_values_equal_to_flags_give_the_same_bytes(self, capsys, tmp_path,
                                                                monkeypatch):
        common = ("simulate", "--mode", "killed", "--alpha", "0.5", "--nu", "2",
                  "--seed", "3", "--out", "k.csv")
        (tmp_path / "flags").mkdir()
        (tmp_path / "config").mkdir()
        monkeypatch.chdir(tmp_path / "flags")
        code, flag_out, _ = run_cli(capsys, *common, "--r", "1", "--n", "1000")
        assert code == 0
        monkeypatch.chdir(tmp_path / "config")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"r": 1, "n": 1000.0}))
        code, config_out, _ = run_cli(capsys, *common, "--config", str(config_path))
        assert code == 0
        assert config_out == flag_out
        for name in ("k.csv", "k.csv.manifest.json"):
            assert (tmp_path / "config" / name).read_bytes() == (
                tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize("params,named", [
        ({"alpha": 0.2, "nu": 0.01, "convention": "both", "out": "s.json"}, "--r"),
        ("r=0.05", "params"),
    ])
    def test_replay_checks_manifest_params(self, capsys, tmp_path, params, named):
        out_path = tmp_path / "s.json"
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", str(out_path))
        manifest_path = tmp_path / "s.json.manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["params"] = params
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 2 and out == "" and named in err

    @pytest.mark.parametrize("outputs", [
        "s.json", [], [{"path": "s.json"}], [{"path": 5, "sha256": "0" * 64}], ["s.json"],
    ])
    def test_replay_rejects_malformed_outputs(self, capsys, tmp_path, outputs):
        out_path = tmp_path / "s.json"
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", str(out_path))
        manifest_path = tmp_path / "s.json.manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["outputs"] = outputs
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 2 and out == "" and "outputs" in err

    def test_replay_rejects_a_manifest_not_named_after_its_output(self, capsys, tmp_path,
                                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", "s.json")
        os.rename("s.json.manifest.json", "renamed.manifest.json")
        code, out, err = run_cli(capsys, "replay", "renamed.manifest.json")
        assert code == 2 and out == "" and "renamed.manifest.json" in err

    def test_replay_from_the_output_directory(self, capsys, tmp_path, monkeypatch):
        """--out had a directory part: the run's directory is above the manifest's."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m").mkdir()
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", "m/s.json")
        run_cli(capsys, "simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5",
                "--t", "10", "--n", "200", "--seed", "4", "--out", "m/g.csv")
        assert run_cli(capsys, "fit", "m/g.csv", "--out", "m/f.json")[0] == 0
        monkeypatch.chdir(tmp_path / "m")
        for manifest, recorded in (("s.json.manifest.json", "m/s.json"),
                                   ("f.json.manifest.json", "m/f.json")):
            code, out, _ = run_cli(capsys, "replay", manifest)
            assert code == 0
            assert [o["path"] for o in json.loads(out)["outputs"]] == [recorded]

    def test_replay_from_the_parent_directory(self, capsys, tmp_path, monkeypatch):
        run_dir = tmp_path / "m"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", "s.json")
        run_cli(capsys, "simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5",
                "--t", "10", "--n", "200", "--seed", "4", "--out", "g.csv")
        assert run_cli(capsys, "fit", "g.csv", "--out", "f.json")[0] == 0
        fit_bytes = (run_dir / "f.json").read_bytes()
        monkeypatch.chdir(tmp_path)
        for manifest, recorded in (("m/s.json.manifest.json", "s.json"),
                                   ("m/f.json.manifest.json", "f.json")):
            code, out, _ = run_cli(capsys, "replay", manifest)
            assert code == 0
            assert [o["path"] for o in json.loads(out)["outputs"]] == [recorded]
        assert (run_dir / "f.json").read_bytes() == fit_bytes
        assert os.getcwd() == str(tmp_path)

    def test_replay_of_an_absolute_output_runs_in_the_recorded_directory(
            self, capsys, tmp_path, monkeypatch):
        """fit's relative input resolves against the run's directory, not the
        manifest's, when --out was absolute."""
        (tmp_path / "a").mkdir()
        (tmp_path / "t3").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        run_cli(capsys, "simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5",
                "--t", "10", "--n", "200", "--seed", "4", "--out", "g.csv")
        out_path = str(tmp_path / "t3" / "f.json")
        assert run_cli(capsys, "fit", "g.csv", "--out", out_path)[0] == 0
        manifest_path = tmp_path / "t3" / "f.json.manifest.json"
        doc = json.loads(manifest_path.read_text())
        assert doc["run_dir"] == str(tmp_path / "a")
        monkeypatch.chdir(tmp_path / "t3")
        code, out, _ = run_cli(capsys, "replay", "f.json.manifest.json")
        assert code == 0
        assert [o["path"] for o in json.loads(out)["outputs"]] == [out_path]
        assert os.getcwd() == str(tmp_path / "t3")
        for run_dir in ("a", None, 5):
            doc["run_dir"] = run_dir
            manifest_path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "replay", "f.json.manifest.json")
            assert code == 2 and out == "" and "run_dir" in err
        del doc["run_dir"]
        manifest_path.write_text(json.dumps(doc))
        assert run_cli(capsys, "replay", "f.json.manifest.json")[0] == 2

    def test_replay_of_an_output_above_the_run_directory(self, capsys, tmp_path, monkeypatch):
        """--out ../g.csv: the manifest records run_dir, and replays from either directory."""
        (tmp_path / "m").mkdir()
        monkeypatch.chdir(tmp_path / "m")
        run_cli(capsys, "simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5",
                "--t", "10", "--n", "200", "--seed", "4", "--out", "g.csv")
        assert run_cli(capsys, "fit", "g.csv", "--out", "../f.json")[0] == 0
        doc = json.loads((tmp_path / "f.json.manifest.json").read_text())
        assert doc["run_dir"] == str(tmp_path / "m")
        for where, manifest in ((tmp_path / "m", "../f.json.manifest.json"),
                                (tmp_path, "f.json.manifest.json")):
            monkeypatch.chdir(where)
            code, out, _ = run_cli(capsys, "replay", manifest)
            assert code == 0 and json.loads(out)["reproduced"] is True
            assert os.getcwd() == str(where)
        os.rename(tmp_path / "f.json.manifest.json", tmp_path / "m" / "f.json.manifest.json")
        code, out, err = run_cli(capsys, "replay", "m/f.json.manifest.json")
        assert code == 2 and out == "" and "m/f.json.manifest.json" in err

    def test_replay_names_a_changed_input(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        gbm = ("simulate", "--mode", "gbm", "--r", "0.05", "--alpha", "0.5", "--t", "10",
               "--n", "200", "--out", "g.csv")
        run_cli(capsys, *gbm, "--seed", "4")
        assert run_cli(capsys, "fit", "g.csv", "--out", "f.json")[0] == 0
        doc = json.loads((tmp_path / "f.json.manifest.json").read_text())
        assert doc["inputs"] == [{"path": "g.csv", "sha256": sha256_file("g.csv")}]
        run_cli(capsys, *gbm, "--seed", "5")
        code, out, err = run_cli(capsys, "replay", "f.json.manifest.json")
        assert code == 2 and out == "" and "'g.csv'" in err
        os.remove("g.csv")
        assert run_cli(capsys, "replay", "f.json.manifest.json")[:2] == (3, "")
        for inputs in ("g.csv", [{"path": "g.csv"}], None):
            (tmp_path / "f.json.manifest.json").write_text(json.dumps({**doc, "inputs": inputs}))
            code, out, err = run_cli(capsys, "replay", "f.json.manifest.json")
            assert code == 2 and out == "" and "inputs" in err
        # a manifest written before inputs were recorded replays as it did
        del doc["inputs"]
        (tmp_path / "f.json.manifest.json").write_text(json.dumps(doc))
        run_cli(capsys, *gbm, "--seed", "5")
        assert run_cli(capsys, "replay", "f.json.manifest.json")[0] == 4
        run_cli(capsys, *gbm, "--seed", "4")
        assert run_cli(capsys, "replay", "f.json.manifest.json")[0] == 0

    def test_replay_of_fit_hashes_its_input_once(self, capsys, tmp_path, monkeypatch):
        from gbmtails import cli

        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.5",
                "--nu", "0.01", "--n", "200", "--seed", "4", "--out", "k.csv")
        assert run_cli(capsys, "fit", "k.csv", "--out", "f.json")[0] == 0
        hashed = []

        def counting(path):
            hashed.append(str(path))
            return sha256_file(path)

        monkeypatch.setattr(cli, "sha256_file", counting)
        code, out, _ = run_cli(capsys, "replay", "f.json.manifest.json")
        assert code == 0 and json.loads(out)["reproduced"] is True
        assert hashed == ["k.csv", "f.json"]

    def test_manifest_of_a_relative_output_records_no_directory(self, capsys, tmp_path,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", "s.json")
        doc = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert sorted(doc) == ["command", "libraries", "outputs", "params", "seed", "version"]

    def test_replay_warns_of_each_differing_library_and_decides_by_digests(self, capsys,
                                                                          tmp_path):
        out_path = tmp_path / "s.json"
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", str(out_path))
        manifest_path = tmp_path / "s.json.manifest.json"
        doc = json.loads(manifest_path.read_text())
        simd = " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
        recorded = {"python": platform.python_version(), "numpy": np.__version__,
                    "numpy_simd": simd, **_libc()}
        assert doc["libraries"] == recorded
        assert run_cli(capsys, "replay", str(manifest_path))[::2] == (0, "")
        doc["libraries"]["numpy"] = "1.0.0"
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 0 and json.loads(out)["reproduced"] is True
        assert err.count("warning:") == 1 and "numpy 1.0.0" in err
        doc["libraries"] = {**doc["libraries"], "numpy": np.__version__, "numpy_simd": "X86_V2"}
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 0 and json.loads(out)["reproduced"] is True
        assert err.count("warning:") == 1 and "numpy_simd X86_V2, this replay uses" in err
        del doc["libraries"]
        manifest_path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 0 and err.count("warning:") == len(recorded)
        doc["libraries"] = ["numpy"]
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 2 and out == "" and "libraries" in err

    def test_numpy_without_show_config_mode_records_no_kernels(self, capsys, tmp_path,
                                                               monkeypatch):
        monkeypatch.setattr(np, "show_config", lambda: None)  # numpy 1.24's signature
        out_path = tmp_path / "s.json"
        assert run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                       "--out", str(out_path))[0] == 0
        doc = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert doc["libraries"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, **_libc()}

    def test_replay_warns_of_a_differing_libc_and_decides_by_digests(self, capsys, tmp_path):
        if not _libc():
            pytest.skip("os.confstr cannot name the C library here")
        out_path = tmp_path / "h.csv"
        run_cli(capsys, "hia", "--agents", "50", "--steps", "20", "--seed", "3",
                "--out", str(out_path))
        manifest_path = tmp_path / "h.csv.manifest.json"
        doc = json.loads(manifest_path.read_text())
        assert doc["libraries"]["libc"] == os.confstr("CS_GNU_LIBC_VERSION")
        doc["libraries"]["libc"] = "glibc 1.0"
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 0 and json.loads(out)["reproduced"] is True
        assert err.count("warning:") == 1 and "libc glibc 1.0, this replay uses libc" in err

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_a_c_library_confstr_cannot_name_is_not_recorded(self, capsys, tmp_path,
                                                            monkeypatch, error):
        def confstr(name):
            raise error(name)

        monkeypatch.setattr(os, "confstr", confstr)
        assert run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                       "--out", str(tmp_path / "s.json"))[0] == 0
        doc = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert "libc" not in doc["libraries"]

    def test_replay_warns_of_a_recorded_library_this_host_cannot_name(self, capsys, tmp_path,
                                                                      monkeypatch):
        run_cli(capsys, "solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01",
                "--out", str(tmp_path / "s.json"))
        manifest_path = tmp_path / "s.json.manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["libraries"]["libc"] = "glibc 2.36"
        manifest_path.write_text(json.dumps(doc))

        def confstr(name):
            raise ValueError(name)

        monkeypatch.setattr(os, "confstr", confstr)
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 0 and json.loads(out)["reproduced"] is True
        assert err.count("warning:") == 1
        assert "the run recorded libc glibc 2.36, this replay uses libc unknown" in err
        doc["libraries"]["libc"] = 236  # not a version string
        manifest_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 2 and out == "" and "version strings" in err

    def test_replay_reproduces_artifacts(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        run_cli(capsys, "figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min",
                "0.05", "--alpha-max", "2", "--points", "50", "--out", str(out_path))
        manifest = str(out_path) + ".manifest.json"
        out_path.unlink()  # replay must report it, not regenerate it
        code, out, err = run_cli(capsys, "replay", manifest)
        assert code == 4
        doc = json.loads(out)
        assert doc["reproduced"] is True
        assert doc["regenerated_mismatched_paths"] == []
        assert doc["on_disk_mismatched_paths"] == [str(out_path)]
        assert not out_path.exists()

    def test_replay_never_repairs_artifact_or_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        run_cli(capsys, "figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min",
                "0.05", "--alpha-max", "2", "--points", "10", "--out", str(out_path))
        manifest_path = tmp_path / "fig.csv.manifest.json"
        out_path.write_text("tampered\n")
        manifest_bytes = manifest_path.read_bytes()
        for _ in range(2):  # a failed replay must not make the next one pass
            code, out, _ = run_cli(capsys, "replay", str(manifest_path))
            assert code == 4
            assert json.loads(out)["on_disk_mismatched_paths"] == [str(out_path)]
            assert out_path.read_text() == "tampered\n"
            assert manifest_path.read_bytes() == manifest_bytes
            assert sorted(os.listdir(tmp_path)) == ["fig.csv", "fig.csv.manifest.json"]

    def test_replay_of_simulation_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "k.csv"
        run_cli(capsys, "simulate", "--mode", "killed", "--r", "0.05",
                "--alpha", "0.2", "--nu", "0.01", "--n", "500", "--seed", "9",
                "--out", str(out_path))
        digest = sha256_file(out_path)
        code, out, _ = run_cli(capsys, "replay", str(out_path) + ".manifest.json")
        assert code == 0
        assert sha256_file(out_path) == digest

    def test_replay_writes_nothing(self, capsys, tmp_path, monkeypatch):
        """Replay hashes what it regenerates in memory: it needs no temp
        directory and leaves the run directory as it was."""
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "simulate", "--mode", "killed", "--r", "0.05",
                             "--alpha", "0.2", "--nu", "0.01", "--n", "2000", "--seed", "9",
                             "--out", "k.csv")
        assert code == 0

        def listing():
            return sorted((e.name, e.stat().st_size, e.stat().st_mtime_ns)
                          for e in os.scandir(tmp_path))

        before = listing()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        code, out, err = run_cli(capsys, "replay", "k.csv.manifest.json")
        assert code == 0, err
        assert json.loads(out)["reproduced"] is True
        assert listing() == before

    def test_replay_detects_mismatch(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        run_cli(capsys, "figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min",
                "0.05", "--alpha-max", "2", "--points", "10", "--out", str(out_path))
        manifest_path = tmp_path / "fig.csv.manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["outputs"][0]["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(doc))
        manifest_bytes = manifest_path.read_bytes()
        code, out, err = run_cli(capsys, "replay", str(manifest_path))
        assert code == 4
        assert "replay" in err
        reply = json.loads(out)
        assert reply["regenerated_mismatched_paths"] == [str(out_path)]
        assert reply["on_disk_mismatched_paths"] == [str(out_path)]
        assert manifest_path.read_bytes() == manifest_bytes


def _stdout_env(unbuffered: bool) -> dict:
    """This environment with ``PYTHONUNBUFFERED`` set to 1, or removed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestEntryPoint:
    @pytest.mark.parametrize("command", [*COMMANDS, "replay"])
    def test_help_renders(self, command):
        proc = subprocess.run(
            [sys.executable, "-m", "gbmtails", command, "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: gbmtails " + command)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gbmtails", "solve", "--r", "0.05",
             "--alpha", "0.2", "--nu", "0.01"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["regime"] == "QuasiStochastic"

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gbmtails", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("argv", [
        ["solve", "--r", "abc", "--alpha", "0.2", "--nu", "0.01"],  # argparse usage
        ["solve", "--r", "0.05", "--alpha", "1e100", "--nu", "0.01"],  # ValueError
    ], ids=["usage", "value_error"])
    def test_module_validation_failures_exit_2(self, argv):
        proc = subprocess.run([sys.executable, "-m", "gbmtails", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_module_stdout_is_the_out_file(self, tmp_path, unbuffered):
        """Freezing the heap at exit loses none of a large buffered stdout."""
        env = _stdout_env(unbuffered)
        argv = [sys.executable, "-m", "gbmtails", "figure1", "--r", "0.05", "--nu", "0.01",
                "--alpha-min", "0.05", "--alpha-max", "2", "--points", "20000"]
        proc = subprocess.run(argv, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "f.csv"
        assert subprocess.run([*argv, "--out", str(out)], env=env).returncode == 0
        assert len(proc.stdout) > 100_000
        assert proc.stdout == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stdout_that_cannot_be_written_exits_3(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "gbmtails", "solve", "--r", "0.05", "--alpha", "0.2",
                 "--nu", "0.01"],
                env=_stdout_env(unbuffered), stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == ["error: [Errno 28] No space left on device"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--version"], ["solve", "--help"]], ids=["version", "help"])
    def test_argparse_text_that_cannot_be_written_exits_3(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "gbmtails", *argv],
                                  env=_stdout_env(unbuffered), stdout=full,
                                  stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == ["error: [Errno 28] No space left on device"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"], ["--version"],
    ], ids=["solve", "version"])
    def test_main_in_process_leaves_the_collector_as_it_was(self, capsys, argv):
        frozen = gc.get_freeze_count()
        try:
            assert main(argv) == 0
        except SystemExit as exc:  # --version exits from argparse
            assert exc.code == 0
        capsys.readouterr()
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
    def test_installed_script_is_the_module_entry(self):
        import tomllib

        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gbmtails"]
        assert target == "gbmtails.__main__:run"
        module, name = target.split(":")
        assert callable(getattr(importlib.import_module(module), name))


# Runs CLI argument lists in one interpreter in which any import of scipy
# fails, and prints their exit codes as the last line of stdout.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from gbmtails.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:  # --version exits from argparse
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_commands_run_and_write_the_same_bytes_without_scipy(capsys, tmp_path, monkeypatch):
    """scipy is a test dependency only: no command imports it."""
    simulate = ["simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2",
                "--nu", "0.01", "--n", "2000", "--seed", "11", "--out", "k.csv"]
    commands = [
        ["--version"],
        ["solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"],
        simulate,
        ["fit", "k.csv", "--out", "f.json"],
        ["hia", "--agents", "50", "--steps", "20", "--out", "h.csv"],
    ]
    (tmp_path / "bare").mkdir()
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(gbmtails.__file__)))}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(commands)],
                          cwd=tmp_path / "bare", env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands), proc.stderr
    (tmp_path / "normal").mkdir()
    monkeypatch.chdir(tmp_path / "normal")
    for argv in commands[2:]:
        assert run_cli(capsys, *argv)[0] == 0
    for name in ("k.csv", "f.json", "h.csv"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


@pytest.mark.parametrize("name", ["é.csv", b"x\xe9.csv"], ids=["non_ascii", "not_utf8"])
def test_artifacts_are_utf8_whatever_the_locale(tmp_path, name):
    """``fit`` writes its JSON and manifest as the same bytes under an ASCII
    locale as in UTF-8 mode, and records the input path as the bytes it was
    given, even when they are not UTF-8. What is written under either locale
    is read under both: a ``--config`` naming the input and a non-ASCII
    ``--out`` runs, and every manifest replays."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gbmtails.__file__)))
    values = np.exp(np.random.default_rng(0).standard_normal(200))
    runs = {"ascii": (["-X", "utf8=0"], {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}),
            "utf8": (["-X", "utf8"], {})}  # interpreter flags and environment

    def gbmtails_under(label, run_dir, *argv):
        flags, env = runs[label]
        return subprocess.run(
            [sys.executable, *flags, "-m", "gbmtails", *argv],
            cwd=run_dir, env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True,
        )

    written = {}
    for label in runs:
        run_dir = tmp_path / label
        run_dir.mkdir()
        with open(os.path.join(os.fsencode(run_dir), os.fsencode(name)), "wb") as fh:
            fh.write(b"value\n" + b"".join(b"%.17g\n" % v for v in values))
        proc = gbmtails_under(label, run_dir, "fit", name, "--out", "f.json")
        assert proc.returncode == 0, proc.stderr
        written[label] = [(run_dir / f).read_bytes() for f in ("f.json", "f.json.manifest.json")]
    assert written["ascii"] == written["utf8"]
    report, manifest = written["utf8"]
    assert b'"source": "%s"' % os.fsencode(name) in report
    assert b'"input": "%s"' % os.fsencode(name) in manifest

    # f.json's bytes are the same under either locale, so one ö.json stands for both
    (tmp_path / "ascii" / "c.json").write_bytes(
        b'{"input": "%s", "out": "%s"}' % (os.fsencode(name), "ö.json".encode()))
    proc = gbmtails_under("ascii", tmp_path / "ascii", "fit", "--config", "c.json")
    assert proc.returncode == 0, proc.stderr
    replays = [(made, "f.json.manifest.json") for made in runs] + [("ascii", "ö.json.manifest.json")]
    for made, manifest_name in replays:
        for label in runs:
            proc = gbmtails_under(label, tmp_path / made, "replay", manifest_name)
            assert proc.returncode == 0, (made, manifest_name, label, proc.stderr)
            assert b'"reproduced": true' in proc.stdout


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def readme_cli_examples() -> list[list[str]]:
    """Each ``gbmtails ...`` line of README's bash blocks, continuations joined and
    ``#`` comments dropped, as its argument list."""
    with open(README) as fh:
        blocks = re.findall(r"^```bash\n(.*?)^```", fh.read(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    words = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in words if argv[:1] == ["gbmtails"]]


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    assert len(examples) == 9
    parser = build_parser()
    for argv in examples:
        assert parser.parse_args(argv).command == argv[0]
