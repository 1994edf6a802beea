import math

import numpy as np
import pytest
from scipy.stats import kstest

from gbmtails.rng import RngStream, StreamUniformBlock, normals_from_uniforms
from gbmtails.sde import (
    GbmParams,
    SamplePath,
    euler_path,
    sample_terminal_levels,
    sample_terminal_log,
    sample_terminal_log_batch,
    terminal_log_law,
)

PARAMS = GbmParams(x0=1.0, r=0.05, alpha=0.2)


class TestGbmParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            GbmParams(x0=0.0, r=0.05, alpha=0.2)
        with pytest.raises(ValueError):
            GbmParams(x0=-1.0, r=0.05, alpha=0.2)
        with pytest.raises(ValueError):
            GbmParams(x0=1.0, r=0.05, alpha=-0.1)
        with pytest.raises(ValueError):
            GbmParams(x0=1.0, r=math.inf, alpha=0.2)
        with pytest.raises(ValueError):
            GbmParams(x0=math.nan, r=0.0, alpha=0.2)

    def test_alpha_zero_allowed(self):
        assert GbmParams(x0=1.0, r=0.05, alpha=0.0).log_drift == 0.05


class TestTerminalLogLaw:
    def test_zero_horizon_forces_initial_state(self):
        law = terminal_log_law(PARAMS, 0.0)
        assert law.mean == 0.0 and law.variance == 0.0

    def test_direct_substitution(self):
        law = terminal_log_law(PARAMS, 10.0)
        assert law.mean == pytest.approx(0.3, abs=1e-12)
        assert law.variance == pytest.approx(0.4, abs=1e-12)

    def test_zero_drift_and_noise(self):
        law = terminal_log_law(GbmParams(x0=math.e, r=0.0, alpha=0.0), 7.0)
        assert law.mean == 1.0 and law.variance == 0.0

    def test_rejects_bad_horizon(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                terminal_log_law(PARAMS, t)


class TestExactSampler:
    def test_zero_volatility_is_deterministic(self):
        p = GbmParams(x0=2.0, r=0.07, alpha=0.0)
        for seed in (0, 1, 99):
            draw = sample_terminal_log(p, 3.0, RngStream(seed, 0))
            assert draw == math.log(2.0) + 0.07 * 3.0

    def test_determinism(self):
        a = sample_terminal_log(PARAMS, 10.0, RngStream(8, 5))
        b = sample_terminal_log(PARAMS, 10.0, RngStream(8, 5))
        assert a == b

    def test_monte_carlo_moments(self):
        draws = sample_terminal_log_batch(PARAMS, 10.0, 1_000_000, master_seed=51)
        assert abs(draws.mean() - 0.3) < 3 * math.sqrt(0.4) / 1000
        assert abs(draws.var() - 0.4) < 3 * 0.4 * math.sqrt(2 / 1e6)

    def test_batch_rows_replay_per_stream_sampler(self):
        batch = sample_terminal_log_batch(PARAMS, 10.0, 64, master_seed=51)
        for i in range(64):
            assert batch[i] == sample_terminal_log(PARAMS, 10.0, RngStream(51, i))

    def test_terminal_levels_are_exp_of_logs(self):
        logs = sample_terminal_log_batch(PARAMS, 2.0, 100, master_seed=3)
        levels = sample_terminal_levels(PARAMS, 2.0, 100, master_seed=3)
        assert np.array_equal(levels, np.exp(logs))

    @pytest.mark.parametrize("r", [100.0, -100.0])
    def test_levels_outside_float64_are_rejected(self, r):
        params = GbmParams(x0=1.0, r=r, alpha=0.5)
        assert np.all(np.isfinite(sample_terminal_log_batch(params, 10.0, 100, master_seed=7)))
        with pytest.raises(ValueError, match=f"x0=1.0, r={r!r}, alpha=0.5"):
            sample_terminal_levels(params, 10.0, 100, master_seed=7)

    def test_logs_equal_the_closed_form_law(self):
        # the batch formula as written before it moved into terminal_log_from_normals
        gen = np.random.default_rng(13)
        for seed in range(50):
            params = GbmParams(x0=math.exp(gen.uniform(-5, 5)), r=gen.uniform(-1, 1),
                               alpha=gen.choice([0.0, gen.uniform(0, 2)]))
            t = gen.choice([0.0, gen.uniform(0, 50)])
            law = terminal_log_law(params, t)
            u = StreamUniformBlock(seed, width=1).take(0, 200)[:, 0]
            expected = law.mean + law.std * normals_from_uniforms(u)
            assert sample_terminal_log_batch(params, t, 200, seed).tobytes() == expected.tobytes()

    def test_distribution_ks(self):
        law = terminal_log_law(PARAMS, 10.0)
        draws = sample_terminal_log_batch(PARAMS, 10.0, 100_000, master_seed=51)
        assert kstest(draws, "norm", args=(law.mean, law.std)).pvalue >= 0.01

    def test_scale_equivariance(self):
        # additivity of ln x0: same stream, scaled start, identical noise
        c = 3.7
        for seed in range(5):
            base = sample_terminal_log(PARAMS, 10.0, RngStream(seed, 0))
            scaled = sample_terminal_log(
                GbmParams(x0=c * PARAMS.x0, r=PARAMS.r, alpha=PARAMS.alpha),
                10.0,
                RngStream(seed, 0),
            )
            assert scaled == pytest.approx(base + math.log(c), abs=1e-12)
            assert math.exp(scaled) == pytest.approx(c * math.exp(base), rel=1e-12)

    def test_markov_consistency(self):
        t1, t2 = 0.7, 1.8
        rng = RngStream(42, 0)
        out = np.empty(100_000)
        for i in range(out.size):
            stage = sample_terminal_log(PARAMS, t1, rng)
            out[i] = sample_terminal_log(
                GbmParams(x0=math.exp(stage), r=PARAMS.r, alpha=PARAMS.alpha), t2, rng
            )
        law = terminal_log_law(PARAMS, t1 + t2)
        assert kstest(out, "norm", args=(law.mean, law.std)).pvalue >= 0.01


class TestEulerPath:
    def test_deterministic_ode_limit(self):
        path = euler_path(GbmParams(1.0, 0.1, 0.0), 1.0, 100_000, RngStream(0, 0))
        assert abs(path.values[-1] - math.e**0.1) < 1e-4

    def test_single_step_zero_volatility(self):
        p = GbmParams(x0=2.5, r=0.3, alpha=0.0)
        path = euler_path(p, 2.0, 1, RngStream(0, 0))
        assert path.values[-1] == 2.5 * (1.0 + 0.3 * 2.0)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            euler_path(PARAMS, 1.0, 0, RngStream(0, 0))
        with pytest.raises(ValueError):
            euler_path(PARAMS, 0.0, 10, RngStream(0, 0))

    def test_path_shape_and_invariants(self):
        path = euler_path(PARAMS, 2.0, 16, RngStream(5, 0))
        assert path.times.size == 17
        assert path.times[0] == 0.0 and path.times[-1] == 2.0
        assert np.all(np.diff(path.times) > 0)
        assert np.all(path.values > 0)
        assert path.values[0] == PARAMS.x0

    def test_positivity_clamp_counts_rejections(self):
        # coarse steps with alpha*sqrt(dt) = 1.5 reject often
        path = euler_path(GbmParams(1.0, 0.05, 3.0), 1.0, 4, RngStream(0, 0))
        assert path.resampled >= 1
        assert np.all(path.values > 0)

    def test_strong_convergence_order_one_half(self):
        # RMS error against the exact solution driven by the same increments
        # should halve when the step count quadruples
        params = GbmParams(x0=1.0, r=0.05, alpha=0.4)
        t = 1.0

        def rms_error(n_steps, seed, n_paths=2000):
            errs = np.empty(n_paths)
            dt = t / n_steps
            for i in range(n_paths):
                path = euler_path(params, t, n_steps, RngStream(seed, i))
                assert path.resampled == 0
                z = RngStream(seed, i).normals(n_steps)
                exact = math.exp(
                    math.log(params.x0)
                    + params.log_drift * t
                    + params.alpha * math.sqrt(dt) * z.sum()
                )
                errs[i] = path.values[-1] - exact
            return math.sqrt(np.mean(errs**2))

        ratio = rms_error(50, 77) / rms_error(200, 78)
        assert 1.3 <= ratio <= 3.0


class TestSamplePath:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePath(times=np.array([0.0, 1.0]), values=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            SamplePath(times=np.array([0.5, 1.0]), values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SamplePath(times=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))
