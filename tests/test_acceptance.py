"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they complete.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import kstest

from gbmtails.agents import HiaParams, run_hia, run_sweep
from gbmtails.cli import _process_map
from gbmtails.cli import main as cli_main
from gbmtails.dpareto import (
    ALPHA_HUGE,
    ALPHA_TINY,
    DoubleParetoDist,
    dpareto_cdf,
    dpareto_quantile,
    exponent_curves,
    killed_state_dist,
    limit_table,
    solve_exponents_canonical,
)
from gbmtails.fitting import SampleSet, compare_models, fit_dpareto_mle, hill_estimator
from gbmtails.killing import KillSchedule, sample_killed_batch
from gbmtails.rng import RngStream
from gbmtails.sde import GbmParams, sample_terminal_log_batch, terminal_log_law
from gbmtails.serialization import sha256_file


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_exponent_solver():
    with criterion(1, "exponent solver vs independent root finder"):
        start = time.perf_counter()
        sol = solve_exponents_canonical(0.05, 0.2, 0.01)
        roots = np.roots([0.02, 0.03, -0.01])
        assert sol.m1_canonical == pytest.approx(float(max(roots)), rel=1e-10)
        assert sol.m2_canonical == pytest.approx(float(-min(roots)), rel=1e-10)

        rng = RngStream(2026, 0)
        for _ in range(1000):
            r = 1e-3 + rng.uniform()
            alpha = 1e-2 + 3.0 * rng.uniform()
            nu = 1e-4 + rng.uniform()
            s = solve_exponents_canonical(r, alpha, nu)
            prod_res, diff_res = s.vieta_residuals(r, alpha, nu)
            assert prod_res <= 1e-12 and diff_res <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"solver sweep took {elapsed:.2f}s"


def test_criterion_2_limit_magnitudes():
    with criterion(2, "closed-form limit magnitudes"):
        start = time.perf_counter()
        report = limit_table(0.05, 0.2, 0.01)
        assert abs(abs(report.by_id("nu_to_zero_m1").evaluated) - 1.5) <= 1e-3
        assert abs(abs(report.by_id("alpha_to_inf_m1").evaluated) - 1.0) <= 1e-3
        target = math.sqrt(0.01 / 0.05)
        for rid in (
            "alpha_to_crit_above_m1",
            "alpha_to_crit_below_m1",
            "alpha_to_crit_above_m2",
            "alpha_to_crit_below_m2",
        ):
            assert abs(abs(report.by_id(rid).evaluated) - target) <= 1e-3
        # sign flags are recorded for every row, not asserted
        assert all(rec.sign_agrees in (True, False) for rec in report.records)
        assert len(report.records) == 12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"limit table took {elapsed:.2f}s"


def test_criterion_3_monte_carlo_matches_closed_form():
    with criterion(3, "killed-state sampler vs analytic CDF (3 regimes)"):
        alpha_star = math.sqrt(2 * 0.05)
        cases = [
            ("quasi-stochastic", 0.2, 1101),
            ("near-critical", alpha_star + 1e-3, 1202),
            ("stochastic", 0.5, 1303),
        ]
        schedule = KillSchedule(0.01)
        for label, alpha, seed in cases:
            start = time.perf_counter()
            params = GbmParams(x0=1.0, r=0.05, alpha=alpha)
            batch = sample_killed_batch(params, schedule, 1_000_000, master_seed=seed)
            dist = killed_state_dist(params, schedule)
            x = np.sort(batch[:, 1])
            model = dpareto_cdf(dist, x)
            grid = np.arange(1, x.size + 1) / x.size
            d = max(np.max(grid - model), np.max(model - (grid - 1.0 / x.size)))
            elapsed = time.perf_counter() - start
            assert d <= 0.005, f"{label}: KS distance {d:.5f}"
            assert elapsed < 30.0, f"{label}: took {elapsed:.1f}s"


def test_criterion_4_lognormal_branch():
    with criterion(4, "fixed-horizon lognormal branch"):
        params = GbmParams(x0=1.0, r=0.05, alpha=0.2)
        law = terminal_log_law(params, 10.0)
        logs = sample_terminal_log_batch(params, 10.0, 100_000, master_seed=51)
        assert kstest(logs, "norm", args=(law.mean, law.std)).pvalue >= 0.01
        report = compare_models(SampleSet(np.exp(logs)))
        assert report.preferred == "lognormal"


def test_criterion_5_unit_exponent_boundary():
    with criterion(5, "unit exponent at matched sampling and growth rates"):
        rng = RngStream(71, 0)
        for _ in range(100):
            r = 1e-3 + rng.uniform()
            alpha = 1e-2 + 2.0 * rng.uniform()
            sol = solve_exponents_canonical(r, alpha, nu=r)
            assert sol.m1_canonical == pytest.approx(1.0, rel=1e-10)
        for _ in range(1000):
            r = 1e-3 + rng.uniform()
            alpha = 1e-2 + 2.0 * rng.uniform()
            nu = 1e-4 + rng.uniform()
            sol = solve_exponents_canonical(r, alpha, nu)
            if nu < r:
                assert sol.m1_canonical < 1.0
            elif nu > r:
                assert sol.m1_canonical > 1.0


def test_criterion_6_estimator_recovery():
    with criterion(6, "estimator recovery on synthetic data"):
        truth = DoubleParetoDist(center=1.0, m1=1.5, m2=0.8)
        u = np.clip(RngStream(88, 0).uniforms(100_000), 1e-15, 1 - 1e-15)
        samples = SampleSet(dpareto_quantile(truth, u))
        center, m1, m2, _ = fit_dpareto_mle(samples)
        assert abs(center - 1.0) < 0.05
        assert abs(m1 - 1.5) / 1.5 < 0.05
        assert abs(m2 - 0.8) / 0.8 < 0.05

        u2 = RngStream(80, 0).uniforms(100_000)
        pareto = SampleSet((1.0 - u2) ** (-1.0 / 1.5))
        assert abs(hill_estimator(pareto, 1000) - 1.5) < 0.1


def test_criterion_7_exponent_curve_reconstruction():
    with criterion(7, "exponent curves match limits and flip at critical volatility"):
        report = limit_table(0.05, 0.2, 0.01)
        rows = exponent_curves(0.05, 0.01, np.array([ALPHA_TINY, ALPHA_HUGE]))
        assert abs(abs(rows[0, 2]) - abs(report.by_id("alpha_to_zero_m2").evaluated)) <= 1e-3
        assert abs(abs(rows[1, 1]) - abs(report.by_id("alpha_to_inf_m1").evaluated)) <= 1e-3
        assert abs(abs(rows[1, 2]) - abs(report.by_id("alpha_to_inf_m2").evaluated)) <= 1e-3

        alpha_star = math.sqrt(0.1)
        grid = np.concatenate(
            [np.linspace(0.05, alpha_star * (1 - 1e-9) - 1e-12, 101),
             np.linspace(alpha_star * (1 + 1e-9) + 1e-12, 2.0, 101)]
        )
        rows = exponent_curves(0.05, 0.01, grid)
        gap = rows[:, 4] - rows[:, 3]
        signs = np.sign(gap)
        flips = np.flatnonzero(np.diff(signs) != 0)
        assert flips.size == 1
        assert rows[flips[0], 0] < alpha_star < rows[flips[0] + 1, 0]


def test_criterion_8_agent_sweep():
    with criterion(8, "agent sweep: fitted exponent tracks injected noise"):
        start = time.perf_counter()
        base = HiaParams(
            n_agents=2000, noise_std=0.3, drift=0.0, coupling_in=0.1,
            coupling_out=0.1, steps=600, floor=1e-6,
        )
        result = run_sweep(
            base, "noise_std", np.linspace(0.05, 0.8, 8), n_seeds=5, master_seed=7,
            map=_process_map,
        )
        assert abs(result.spearman_rho) >= 0.8, f"rho={result.spearman_rho:.3f}"

        control = HiaParams(
            n_agents=2000, noise_std=0.3, drift=0.0, coupling_in=0.0,
            coupling_out=0.0, steps=600, floor=1e-6,
        )
        _, _, report = run_hia(control, seed=3)
        assert report.preferred == "lognormal"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"


def test_criterion_9_manifest_reproducibility(tmp_path, capsys):
    with criterion(9, "manifest replay and worker independence"):
        out = {
            "solve": tmp_path / "solve.json",
            "regime": tmp_path / "regime.json",
            "limits": tmp_path / "limits.csv",
            "figure1": tmp_path / "figure1.csv",
            "simulate": tmp_path / "killed.csv",
            "fit": tmp_path / "fit.json",
            "hia": tmp_path / "hia.csv",
            "sweep": tmp_path / "sweep.csv",
        }
        commands = {
            "solve": ["solve", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"],
            "regime": ["regime", "--r", "0.05", "--alpha", "0.2"],
            "limits": ["limits", "--r", "0.05", "--alpha", "0.2", "--nu", "0.01"],
            "figure1": ["figure1", "--r", "0.05", "--nu", "0.01", "--alpha-min",
                        "0.05", "--alpha-max", "2", "--points", "60"],
            "simulate": ["simulate", "--mode", "killed", "--r", "0.05",
                         "--alpha", "0.2", "--nu", "0.01", "--n", "4000",
                         "--seed", "7"],
            "fit": None,  # built after simulate so it can read the CSV
            "hia": ["hia", "--agents", "200", "--steps", "60", "--seed", "2"],
            "sweep": ["sweep", "--vary", "noise_std", "--min", "0.1", "--max",
                      "0.5", "--points", "3", "--seeds", "1", "--agents", "200",
                      "--steps", "60"],
        }
        commands["fit"] = ["fit", str(out["simulate"])]

        digests = {}
        for name in ("solve", "regime", "limits", "figure1", "simulate", "fit",
                     "hia", "sweep"):
            argv = commands[name] + ["--out", str(out[name])]
            assert cli_main(argv) == 0, f"{name} failed"
            digests[name] = sha256_file(out[name])
        capsys.readouterr()

        for name, path in out.items():
            manifest = str(path) + ".manifest.json"
            assert cli_main(["replay", manifest]) == 0, f"replay {name} failed"
            reply = json.loads(capsys.readouterr().out)
            assert reply["reproduced"] is True
            assert sha256_file(path) == digests[name]

        # worker independence of the heavy sampler
        w1, w4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        base = ["simulate", "--mode", "killed", "--r", "0.05", "--alpha", "0.2",
                "--nu", "0.01", "--n", "20000", "--seed", "3"]
        assert cli_main(base + ["--workers", "1", "--out", str(w1)]) == 0
        assert cli_main(base + ["--workers", "4", "--out", str(w4)]) == 0
        capsys.readouterr()
        assert sha256_file(w1) == sha256_file(w4)
