import io
import math

import numpy as np
import pytest
from scipy.stats import kstest

from gbmtails.dpareto import dpareto_cdf, killed_state_dist, solve_exponents_canonical
from gbmtails.fitting import SampleSet, hill_estimator
from gbmtails.killing import (
    KilledSample,
    KillSchedule,
    _killed_rows,
    kill_time_from_uniform,
    killed_rows_range,
    killed_rows_text,
    sample_kill_time,
    sample_killed_batch,
    sample_killed_state,
    write_batch_csv,
)
from gbmtails.rng import RngStream, normals_from_uniforms
from gbmtails.sde import GbmParams, terminal_log_law
from gbmtails.serialization import write_float_rows

from conftest import QUASI, SCHEDULE


class TestKillSchedule:
    def test_validation(self):
        for nu in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                KillSchedule(nu=nu)

    def test_killed_sample_validation(self):
        with pytest.raises(ValueError):
            KilledSample(kill_time=-1.0, state=1.0)
        with pytest.raises(ValueError):
            KilledSample(kill_time=0.0, state=0.0)


class TestKillTime:
    def test_inverse_cdf_boundary(self):
        assert kill_time_from_uniform(0.0, KillSchedule(0.5)) == 0.0

    def test_inverse_cdf_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kill_time_from_uniform(1.0, KillSchedule(0.5))
        with pytest.raises(ValueError):
            kill_time_from_uniform(-0.1, KillSchedule(0.5))

    def test_median(self):
        assert kill_time_from_uniform(0.5, KillSchedule(0.5)) == pytest.approx(
            math.log(2) / 0.5, rel=1e-15
        )

    def test_sample_matches_inverse_cdf(self):
        schedule = KillSchedule(0.5)
        u = RngStream(3, 0).uniform()
        assert sample_kill_time(schedule, RngStream(3, 0)) == kill_time_from_uniform(
            u, schedule
        )

    def test_monte_carlo_mean_and_median(self):
        schedule = KillSchedule(0.5)
        batch = sample_killed_batch(QUASI, schedule, 1_000_000, master_seed=12)
        times = batch[:, 0]
        assert abs(times.mean() - 2.0) < 3 * (2.0 / 1000)
        frac_below_median = np.mean(times < math.log(2) / 0.5)
        assert abs(frac_below_median - 0.5) < 3 * math.sqrt(0.25 / 1e6)


class TestKilledState:
    def test_deterministic_replay(self):
        a = sample_killed_state(QUASI, SCHEDULE, RngStream(9, 4))
        b = sample_killed_state(QUASI, SCHEDULE, RngStream(9, 4))
        assert (a.kill_time, a.state) == (b.kill_time, b.state)

    def test_batch_of_one_equals_stream_zero(self):
        batch = sample_killed_batch(QUASI, SCHEDULE, 1, master_seed=31)
        single = sample_killed_state(QUASI, SCHEDULE, RngStream(31, 0))
        assert batch[0, 0] == single.kill_time and batch[0, 1] == single.state

    def test_batch_rows_replay_per_sample_streams(self):
        batch = sample_killed_batch(QUASI, SCHEDULE, 64, master_seed=31)
        for i in range(64):
            s = sample_killed_state(QUASI, SCHEDULE, RngStream(31, i))
            assert batch[i, 0] == s.kill_time and batch[i, 1] == s.state

    def test_worker_count_independence(self):
        # the --workers pool writes killed_rows_text parts of the rows in order;
        # 2500 divides n, the other sizes leave a short last part
        n = 10_000
        base = sample_killed_batch(QUASI, SCHEDULE, n, master_seed=7)
        fh = io.BytesIO()
        write_float_rows(fh, base)
        for size in (-(-n // 4), -(-n // 3), -(-n // 7), n - 1):
            shards = [
                killed_rows_range(QUASI, SCHEDULE, 7, lo, min(lo + size, n))
                for lo in range(0, n, size)
            ]
            assert np.concatenate(shards, axis=0).tobytes() == base.tobytes(), size
            parts = [
                killed_rows_text(QUASI, SCHEDULE, 7, lo, min(lo + size, n))
                for lo in range(0, n, size)
            ]
            assert b"".join(parts) == fh.getvalue(), size

    def test_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_killed_batch(QUASI, SCHEDULE, 0, master_seed=1)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_batch_rejects_a_state_that_overflows(self, shards):
        # row 148 of seed 3 overflows float64; the other 999 rows do not. One shard
        # is the whole batch; with two, the first shard (rows 0..499) holds row 148
        params, n = GbmParams(1.0, 1.0, 0.5), 1000
        with pytest.raises(ValueError, match=r"x0=1\.0, r=1\.0, alpha=0\.5"):
            if shards == 1:
                sample_killed_batch(params, SCHEDULE, n, 3)
            else:
                size = -(-n // shards)
                for lo in range(0, n, size):
                    killed_rows_range(params, SCHEDULE, 3, lo, min(lo + size, n))

    def test_state_rejects_overflow(self):
        params = GbmParams(1.0, 1.0, 0.5)
        sample_killed_state(params, SCHEDULE, RngStream(3, 147))
        with pytest.raises(ValueError, match="do not fit in float64"):
            sample_killed_state(params, SCHEDULE, RngStream(3, 148))

    def test_rows_equal_the_inline_formula(self):
        # the kernel's formulas as written before they moved into sde
        gen = np.random.default_rng(11)
        for _ in range(50):
            params = GbmParams(x0=math.exp(gen.uniform(-5, 5)), r=gen.uniform(-1, 1),
                               alpha=gen.choice([0.0, gen.uniform(0, 2)]))
            schedule = KillSchedule(nu=gen.uniform(0.5, 5))
            u = gen.random((200, 2))
            u[0, 0] = u[1, 1] = 0.0  # a zero horizon and the floored shock
            t = kill_time_from_uniform(u[:, 0], schedule)
            std = np.sqrt(params.alpha * params.alpha * t)
            log_state = (math.log(params.x0) + params.log_drift * t
                         + std * normals_from_uniforms(u[:, 1]))
            expected = np.empty_like(u)
            expected[:, 0] = t
            expected[:, 1] = np.exp(log_state)
            assert _killed_rows(params, schedule, u).tobytes() == expected.tobytes()

    def test_small_volatility_limit_is_pure_pareto(self):
        # as alpha -> 0 the state is x0 * exp(r T): upper tail exponent nu/r
        params = GbmParams(x0=1.0, r=0.05, alpha=1e-6)
        batch = sample_killed_batch(params, KillSchedule(0.01), 100_000, master_seed=404)
        est = hill_estimator(SampleSet(batch[:, 1]), k=1000)
        assert est == pytest.approx(0.2, abs=0.02)


class TestMarginalLaw:
    def test_ks_against_closed_form(self, quasi_batch):
        dist = killed_state_dist(QUASI, SCHEDULE)
        x = np.sort(quasi_batch[:100_000, 1])
        cdf = dpareto_cdf(dist, x)
        grid = np.arange(1, x.size + 1) / x.size
        d = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / x.size)))
        assert d <= 0.006

    def test_fraction_above_center(self, quasi_batch):
        sol = solve_exponents_canonical(QUASI.r, QUASI.alpha, SCHEDULE.nu)
        p_above = sol.m2_canonical / (sol.m1_canonical + sol.m2_canonical)
        frac = np.mean(quasi_batch[:, 1] > QUASI.x0)
        se = math.sqrt(p_above * (1 - p_above) / quasi_batch.shape[0])
        assert abs(frac - p_above) < 3 * se

    def test_conditional_lognormality(self):
        # given T in [t, t+eps], log-states follow the fixed-horizon law at t
        params = GbmParams(x0=1.0, r=0.05, alpha=0.5)
        schedule = KillSchedule(2.0)
        batch = sample_killed_batch(params, schedule, 1_000_000, master_seed=55)
        mask = (batch[:, 0] >= 0.3) & (batch[:, 0] < 0.31)
        assert mask.sum() >= 10_000
        law = terminal_log_law(params, 0.3)
        p = kstest(np.log(batch[mask, 1]), "norm", args=(law.mean, law.std)).pvalue
        assert p >= 0.01

    def test_mean_converges_iff_upper_exponent_above_one(self, quasi_batch):
        # nu > r: m1 > 1, running means settle
        schedule = KillSchedule(0.2)
        sol = solve_exponents_canonical(QUASI.r, QUASI.alpha, schedule.nu)
        assert sol.m1_canonical > 1
        states = sample_killed_batch(QUASI, schedule, 200_000, master_seed=66)[:, 1]
        first, second = states[:100_000].mean(), states[100_000:].mean()
        assert abs(second / first - 1.0) < 0.1
        # nu < r: m1 < 1, running means trend upward without settling
        sol_div = solve_exponents_canonical(QUASI.r, QUASI.alpha, SCHEDULE.nu)
        assert sol_div.m1_canonical < 1
        states = quasi_batch[:, 1]
        prefix_means = [states[:n].mean() for n in (10_000, 100_000, 1_000_000)]
        assert prefix_means[0] < prefix_means[1] < prefix_means[2]
        assert prefix_means[2] / prefix_means[0] > 5


class TestBatchCsv:
    def test_round_trip_is_exact(self, tmp_path):
        batch = sample_killed_batch(QUASI, SCHEDULE, 200, master_seed=5)
        path = tmp_path / "batch.csv"
        write_batch_csv(path, batch)
        text = path.read_text()
        assert text.startswith("kill_time,state\n")
        again = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(batch, again)
