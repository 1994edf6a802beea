import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import lognorm, spearmanr

from gbmtails.dpareto import (DoubleParetoDist, dpareto_pdf, dpareto_quantile,
                              solve_exponents_canonical)
from gbmtails.fitting import (
    ALL_MODELS,
    DegenerateInputError,
    OneSidedDataError,
    SampleCsvError,
    SampleSet,
    compare_models,
    default_hill_k,
    fit_dpareto_mle,
    fit_lognormal,
    hill_estimator,
    loglog_histogram,
    read_sample_csv,
    write_sample_csv,
)
from gbmtails.killing import sample_killed_batch
from gbmtails.rng import RngStream
from gbmtails.sde import GbmParams, sample_terminal_levels, terminal_log_law

from conftest import QUASI, SCHEDULE


def pareto_samples(n: int, exponent: float, seed: int) -> np.ndarray:
    u = RngStream(seed, 0).uniforms(n)
    return (1.0 - u) ** (-1.0 / exponent)


def dpareto_samples(dist: DoubleParetoDist, n: int, seed: int, stream: int = 0) -> np.ndarray:
    u = np.clip(RngStream(seed, stream).uniforms(n), 1e-15, 1.0 - 1e-15)
    return dpareto_quantile(dist, u)


class TestSampleSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([]))
        with pytest.raises(ValueError):
            SampleSet(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            SampleSet(np.array([1.0, math.nan]))

    def test_sorted_and_logs_are_cached_over_read_only_values(self):
        raw = np.array([3.0, 1.0, 2.0])
        samples = SampleSet(raw)
        assert samples.sorted is samples.sorted and samples.logs is samples.logs
        assert samples.sorted.tolist() == [1.0, 2.0, 3.0]
        assert samples.logs.tobytes() == np.log(np.array([1.0, 2.0, 3.0])).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            samples.values[0] = 5.0
        assert raw.flags.writeable  # the caller's array is not frozen

    def test_csv_round_trip(self, tmp_path):
        samples = SampleSet(np.array([1.5, 2.25, 0.125]), source="unit")
        path = tmp_path / "s.csv"
        write_sample_csv(path, samples)
        again = read_sample_csv(path)
        assert np.array_equal(again.values, samples.values)

    def test_csv_rejects_bad_rows_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n-3.0\nnan\n2.0\nbogus\n")
        with pytest.raises(SampleCsvError) as err:
            read_sample_csv(path)
        assert err.value.lines == [3, 4, 6]
        assert "line 3" in str(err.value)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("values\n1.0\n")
        with pytest.raises(SampleCsvError):
            read_sample_csv(path)

    def test_csv_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("value\n")
        with pytest.raises(SampleCsvError):
            read_sample_csv(path)


class TestHill:
    def test_synthetic_pareto(self):
        samples = SampleSet(pareto_samples(100_000, 1.5, seed=80))
        assert abs(hill_estimator(samples, 1000) - 1.5) < 0.1

    def test_killed_gbm_upper_tail(self, quasi_batch):
        sol = solve_exponents_canonical(QUASI.r, QUASI.alpha, SCHEDULE.nu)
        est = hill_estimator(SampleSet(quasi_batch[:, 1]), 10_000)
        assert abs(est - sol.m1_canonical) / sol.m1_canonical < 0.15

    def test_degenerate_ties(self):
        with pytest.raises(DegenerateInputError):
            hill_estimator(SampleSet(np.full(100, 3.0)), 10)

    def test_distinct_values_with_equal_logs_are_degenerate(self):
        # the denominator is a difference of equal logs, positive only by rounding
        x = 1e300 * (1.0 + np.arange(1, 40) * 2.3e-16)
        for k in (2, 10, 38):
            with pytest.raises(DegenerateInputError, match="zero log-spacings"):
                hill_estimator(SampleSet(x), k)

    @staticmethod
    def tied_tail(v: float) -> SampleSet:
        """11 copies of v above 50 smaller values: k = 10 sees only ties."""
        return SampleSet(np.concatenate([v * np.linspace(0.1, 0.9, 50), np.full(11, v)]))

    @pytest.mark.parametrize("v", [1.0, 3.0, 0.1, 1e300])
    def test_tied_upper_tail(self, v):
        with pytest.raises(DegenerateInputError, match="tied order statistics"):
            hill_estimator(self.tied_tail(v), 10)

    def test_tie_where_numpy_and_libm_logs_differ(self):
        # the sample's logs are numpy's; a tie judged against libm's log of the
        # threshold was missed where numpy's log rounds above it
        v = np.exp(40.0 * RngStream(23, 0).uniforms(200_000) - 20.0)
        differ = [float(x) for x in v[np.log(v) != np.fromiter(map(math.log, v), float)]][:20]
        if not differ:
            pytest.skip("numpy's log matches libm's on every sampled value")
        for x in differ:
            samples = self.tied_tail(x)
            with pytest.raises(DegenerateInputError, match="tied order statistics"):
                hill_estimator(samples, 10)
            assert "pareto_tail" in compare_models(samples, hill_k=10).errors

    def test_k_range(self):
        samples = SampleSet(np.arange(1.0, 11.0))
        for k in (0, 1, 10, 11):
            with pytest.raises(ValueError):
                hill_estimator(samples, k)

    @pytest.mark.parametrize("count", [2.9, 3.0, np.float64(2.5), True])
    def test_non_integral_counts_are_rejected(self, count):
        # a count is never truncated or coerced: 2.9 must not fit k = 2, nor True k = 1
        samples = SampleSet(np.arange(1.0, 20.0))
        with pytest.raises(TypeError, match="^k must be an integer"):
            hill_estimator(samples, count)
        with pytest.raises(TypeError, match="^bins_per_decade must be an integer"):
            loglog_histogram(samples, count)
        # the caller's error, not a fit's: it is raised, not recorded per model
        with pytest.raises(TypeError, match="^k must be an integer"):
            compare_models(samples, hill_k=count)

    def test_numpy_integer_counts(self):
        samples = SampleSet(np.arange(1.0, 20.0))
        assert hill_estimator(samples, np.int64(2)) == hill_estimator(samples, 2)
        tail = compare_models(samples, hill_k=np.int32(2)).fit_for("pareto_tail")
        assert tail.parameters["hill_k"] == 2.0
        assert (loglog_histogram(samples, np.int64(3)).tobytes()
                == loglog_histogram(samples, 3).tobytes())

    def test_default_k(self):
        assert default_hill_k(500) == 10
        assert default_hill_k(100_000) == 1000


class TestLognormal:
    def test_closed_form_moments(self):
        mu, sigma, ll = fit_lognormal(SampleSet(np.array([1.0, math.e**2, math.e**4])))
        assert mu == pytest.approx(2.0, rel=1e-14)
        assert sigma == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-14)
        assert math.isfinite(ll)

    def test_monte_carlo_recovery(self):
        law = terminal_log_law(QUASI, 10.0)
        levels = sample_terminal_levels(QUASI, 10.0, 100_000, master_seed=51)
        mu, sigma, _ = fit_lognormal(SampleSet(levels))
        assert abs(mu - law.mean) < 3 * law.std / math.sqrt(1e5)
        assert abs(sigma - law.std) < 3 * law.std / math.sqrt(2e5)

    def test_degenerate_zero_variance(self):
        with pytest.raises(DegenerateInputError, match="point-mass"):
            fit_lognormal(SampleSet(np.full(5, 2.0)))

    def test_distinct_values_with_equal_logs_are_a_point_mass(self):
        x = 1e300 * (1.0 + np.arange(1, 40) * 2.3e-16)
        with pytest.raises(DegenerateInputError, match="point-mass"):
            fit_lognormal(SampleSet(x))
        report = compare_models(SampleSet(x))
        assert report.fits == () and report.preferred is None
        assert sorted(report.errors) == sorted(ALL_MODELS)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_lognormal(SampleSet(np.array([1.0])))


class TestDoubleParetoFit:
    def test_recovers_synthetic_parameters(self):
        truth = DoubleParetoDist(center=1.0, m1=1.5, m2=0.8)
        samples = SampleSet(dpareto_samples(truth, 100_000, seed=88))
        center, m1, m2, ll = fit_dpareto_mle(samples)
        assert abs(center - truth.center) / truth.center < 0.05
        assert abs(m1 - truth.m1) / truth.m1 < 0.05
        assert abs(m2 - truth.m2) / truth.m2 < 0.05
        assert math.isfinite(ll)

    def test_log_equispaced_five_points_are_one_sided(self):
        # the best interior centres, 0.5 and 2, score (1 + sqrt(6)) sqrt(ln 2)
        # (ll -7.5025); the limit c -> 0.25 scores sqrt(H) = sqrt(10 ln 2),
        # lower, and reaches ll -6.633: no interior fit is the supremum
        x = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        with pytest.raises(OneSidedDataError):
            fit_dpareto_mle(SampleSet(x))

    def test_pareto_sample_is_one_sided_and_prefers_pareto_tail(self):
        # the best interior centre sits next to the minimum with a huge m2
        # (103,310, ll -63684.405); the limit c -> min(x) reaches -63683.483
        x = (1.0 - RngStream(80, 0).uniforms(50_000)) ** (-1.0 / 1.5)
        with pytest.raises(OneSidedDataError):
            fit_dpareto_mle(SampleSet(x))
        report = compare_models(SampleSet(x))
        assert "double_pareto" in report.errors
        assert report.preferred == "pareto_tail"

    def test_symmetric_data_exact_center_and_equal_rates(self):
        # symmetric in logs about 1 and peaked there: the middle value scores
        # 2 sqrt(9 ln 2), below its neighbours and the edges (sqrt(42 ln 2)),
        # so the centre is exactly 1 and H = L = 9 ln 2 give m1 = m2 = n / (2H)
        x = 2.0 ** np.array([-6, -2, -1, 0, 1, 2, 6])
        center, m1, m2, ll = fit_dpareto_mle(SampleSet(x))
        assert center == 1.0 and m1 == m2
        assert m1 == pytest.approx(7 / (2 * 9 * math.log(2.0)), rel=1e-14)
        assert fit_dpareto_mle(SampleSet(1.0 / x)) == (center, m1, m2, ll)
        at_fit = float(np.sum(np.log(dpareto_pdf(DoubleParetoDist(center, m1, m2), x))))
        assert ll == pytest.approx(at_fit, rel=1e-12)

    def test_one_sided_error_when_no_two_sided_candidate(self):
        with pytest.raises(OneSidedDataError):
            fit_dpareto_mle(SampleSet(np.array([1.0, 1.0, 1.0, 2.0, 2.0])))

    def test_distinct_values_with_equal_logs_are_degenerate(self):
        # 39 distinct values whose float64 logs all coincide: every side sum
        # of log distances is zero, so no rate can be estimated
        x = 1e300 * (1.0 + np.arange(1, 40) * 2.3e-16)
        assert np.unique(x).size == 39 and np.unique(np.log(x)).size == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="equal float64 logs"):
                fit_dpareto_mle(SampleSet(x))
            report = compare_models(SampleSet(x))
        assert "equal float64 logs" in report.errors["double_pareto"]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fit_dpareto_mle(SampleSet(np.array([1.0, 2.0])))
        with pytest.raises(ValueError):
            fit_dpareto_mle(SampleSet(np.full(10, 1.0)))

    def test_consistency_in_sample_size(self):
        truth = DoubleParetoDist(center=1.0, m1=1.5, m2=0.8)
        med_errs = []
        for n in (1000, 10_000, 100_000):
            errs = []
            for seed in range(20):
                samples = SampleSet(dpareto_samples(truth, n, seed=seed, stream=7))
                _, m1, _, _ = fit_dpareto_mle(samples)
                errs.append(abs(m1 - truth.m1))
            med_errs.append(np.median(errs))
        assert med_errs[0] > med_errs[1] > med_errs[2]


def _reference_fit_dpareto_mle(samples):
    """The closed-form MLE scored at every distinct value, masked to the
    interior ones: no blocks and no search."""
    x = np.sort(samples.values)
    n = x.size
    if n < 3:
        raise ValueError("double-Pareto fit needs n >= 3")
    if x[0] == x[-1]:
        raise ValueError("double-Pareto fit needs at least 2 distinct values")
    logs = np.log(x)
    prefix = np.cumsum(logs)
    total = prefix[-1]

    uniq, first = np.unique(x, return_index=True)
    right = np.append(first[1:], n)
    log_u = np.log(uniq)
    n_lo = first.astype(float)
    n_hi = (n - right).astype(float)
    sum_lo = np.where(first > 0, prefix[first - 1], 0.0)
    sum_hi = total - prefix[right - 1]
    s_lo = n_lo * log_u - sum_lo
    s_hi = sum_hi - n_hi * log_u
    valid = (n_lo >= 1) & (n_hi >= 1)
    if not np.any(valid):
        raise OneSidedDataError(
            "no candidate center has data on both sides; fit the pareto_tail model"
        )
    if np.any(s_lo[valid] <= 0.0) or np.any(s_hi[valid] <= 0.0):
        raise DegenerateInputError(
            "distinct values with equal float64 logs leave a candidate center "
            "no log distance on one side"
        )

    score = np.full(uniq.size, np.inf)
    score[valid] = np.sqrt(s_lo[valid]) + np.sqrt(s_hi[valid])
    low = float(np.min(score))
    if min(math.sqrt(s_hi[0]), math.sqrt(s_lo[-1])) <= low:  # the limits L = 0 and H = 0
        raise OneSidedDataError(
            "the likelihood is highest with the center at the smallest or largest value, "
            "where one tail has no data; fit the pareto_tail model"
        )
    tied = np.flatnonzero(score <= low + 64.0 * np.spacing(low))
    best = int(tied[np.argmin(np.abs(n_lo[tied] - n_hi[tied]))])

    center = float(uniq[best])
    log_c = float(log_u[best])
    below = logs[x < center]
    above = logs[x > center]
    lo = below.size * log_c - float(np.sum(below))
    hi = float(np.sum(above)) - above.size * log_c
    root = math.sqrt(hi * lo)
    ll = n * math.log(n) - 2 * n * math.log(math.sqrt(hi) + math.sqrt(lo)) - n - total
    return center, n / (hi + root), n / (lo + root), float(ll)


def _outcome(fit, x):
    """A fit's result as exact float bits, or its exception type and message."""
    try:
        return [v.hex() for v in fit(SampleSet(x))]
    except ValueError as exc:
        return [type(exc), str(exc)]


def _reference_families():
    truth = DoubleParetoDist(center=1.0, m1=1.5, m2=0.8)
    for n in (3, 4, 5, 7, 10, 31, 100, 400):
        base = dpareto_samples(truth, n, seed=n)
        families = {
            "dpareto": base,
            "tied": np.round(base, 1) + 0.1,
            "small_integers": 1.0 + np.floor(RngStream(n, 1).uniforms(n) * 4.0),
            "log_equispaced": np.exp(np.linspace(-3.0, 3.0, n)),
            "powers_of_two": 2.0 ** (np.arange(n) - n // 2),
            "mirrored": np.concatenate([base, 1.0 / base]),
            "pareto": pareto_samples(n, 1.5, seed=n),
        }
        for name, x in families.items():
            for scale in (1.0, 1e100, 1e-100):
                yield f"{name}-n{n}-x{scale:g}", x * scale
    yield "symmetric", np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    yield "two_values", np.array([1.0, 1.0, 1.0, 2.0, 2.0])
    yield "n2", np.array([1.0, 2.0])
    yield "point_mass", np.full(10, 1.0)


def _killed_sample(seed: int) -> np.ndarray:
    return sample_killed_batch(QUASI, SCHEDULE, 20_000, master_seed=seed)[:, 1]


def _dpareto_loglik(x, center, m1, m2) -> float:
    return float(np.sum(np.log(dpareto_pdf(DoubleParetoDist(center, m1, m2), x))))


class TestDoubleParetoLikelihood:
    """The fit is the likelihood's maximum, checked against a general optimiser."""

    @pytest.mark.parametrize("family,seed", [
        ("killed", 1), ("killed", 2), ("killed", 3), ("dpareto", 4), ("dpareto", 88),
    ])
    def test_no_point_nelder_mead_reaches_beats_the_fit(self, family, seed):
        if family == "killed":
            x = _killed_sample(seed)
        else:
            x = dpareto_samples(DoubleParetoDist(center=1.0, m1=1.5, m2=0.8), 2000, seed=seed)
        center, m1, m2, ll = fit_dpareto_mle(SampleSet(x))
        assert ll == pytest.approx(_dpareto_loglik(x, center, m1, m2), rel=1e-12, abs=0)
        reached = []

        def negative_loglik(p):
            reached.append(_dpareto_loglik(x, *np.exp(p)))
            return -reached[-1]

        for start in ([math.log(center), math.log(m1), math.log(m2)], [0.0, 0.0, 0.0]):
            minimize(negative_loglik, start, method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-10, "maxfev": 4000})
        assert max(reached) <= ll + 1e-9 * abs(ll)


class TestDoubleParetoReference:
    """The fitter returns the reference's bits, or raises its exception."""

    def test_small_sample_families(self):
        for label, x in _reference_families():
            assert _outcome(fit_dpareto_mle, x) == _outcome(_reference_fit_dpareto_mle, x), label

    def test_large_killed_sample(self, quasi_batch):
        x = quasi_batch[:200_000, 1]
        assert _outcome(fit_dpareto_mle, x) == _outcome(_reference_fit_dpareto_mle, x)


class TestInvariances:
    def test_scale_equivariance(self):
        truth = DoubleParetoDist(center=1.0, m1=1.5, m2=0.8)
        x = dpareto_samples(truth, 20_000, seed=88)
        c0, m10, m20, _ = fit_dpareto_mle(SampleSet(x))
        h0 = hill_estimator(SampleSet(x), 200)
        mu0, s0, _ = fit_lognormal(SampleSet(x))
        for scale in (7.25, 1e-3, 3137.5):
            scaled = SampleSet(x * scale)
            c, m1, m2, _ = fit_dpareto_mle(scaled)
            assert abs(c / (c0 * scale) - 1) < 1e-10
            assert abs(m1 - m10) / m10 < 1e-10
            assert abs(m2 - m20) / m20 < 1e-10
            assert abs(hill_estimator(scaled, 200) - h0) / h0 < 1e-10
            mu, s, _ = fit_lognormal(scaled)
            assert abs(mu - mu0 - math.log(scale)) < 1e-10
            assert abs(s - s0) / s0 < 1e-10

    def test_permutation_invariance_is_byte_exact(self):
        truth = DoubleParetoDist(center=1.0, m1=1.5, m2=0.8)
        x = dpareto_samples(truth, 5000, seed=88)
        shuffled = np.random.default_rng(4).permutation(x)
        assert fit_dpareto_mle(SampleSet(shuffled)) == fit_dpareto_mle(SampleSet(x))
        assert hill_estimator(SampleSet(shuffled), 100) == hill_estimator(SampleSet(x), 100)
        assert fit_lognormal(SampleSet(shuffled)) == fit_lognormal(SampleSet(x))
        assert compare_models(SampleSet(shuffled)) == compare_models(SampleSet(x))
        assert (loglog_histogram(SampleSet(shuffled), 8).tobytes()
                == loglog_histogram(SampleSet(x), 8).tobytes())


class TestCompareModels:
    def test_killed_data_prefers_double_pareto(self, quasi_batch):
        report = compare_models(SampleSet(quasi_batch[:100_000, 1]))
        assert report.preferred == "double_pareto"
        assert not report.errors

    def test_fixed_horizon_data_prefers_lognormal(self):
        levels = sample_terminal_levels(QUASI, 10.0, 100_000, master_seed=51)
        report = compare_models(SampleSet(levels))
        assert report.preferred == "lognormal"

    def test_pure_pareto_rejects_lognormal(self):
        # one-sided power data: either power-law model may win (the
        # double-Pareto can mimic a pure Pareto with a steep lower branch),
        # but lognormal must lose
        report = compare_models(SampleSet(pareto_samples(50_000, 1.5, seed=80)))
        assert report.preferred in ("double_pareto", "pareto_tail")
        ln_fit = report.fit_for("lognormal")
        assert all(
            f.aic < ln_fit.aic for f in report.fits if f.model != "lognormal"
        )

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            compare_models(SampleSet(np.arange(1.0, 6.0)))

    def test_errors_propagate_per_model(self):
        report = compare_models(SampleSet(np.full(12, 3.0)))
        assert report.preferred is None
        assert set(report.errors) == {"double_pareto", "lognormal", "pareto_tail"}
        assert report.fits == ()

    def test_aic_and_ks_invariants(self, quasi_batch):
        report = compare_models(SampleSet(quasi_batch[:20_000, 1]))
        k_params = {"double_pareto": 3, "lognormal": 2, "pareto_tail": 2}
        for fit in report.fits:
            assert fit.aic == pytest.approx(
                2 * k_params[fit.model] - 2 * fit.log_likelihood, rel=1e-12
            )
            assert 0.0 <= fit.ks_statistic <= 1.0
        best = min(report.fits, key=lambda f: f.aic)
        assert report.preferred == best.model

    @pytest.mark.parametrize("family", ["killed", "fixed_horizon"])
    def test_log_likelihood_is_the_models_at_its_parameters(self, family):
        if family == "killed":
            x = _killed_sample(1)
        else:
            x = sample_terminal_levels(QUASI, 10.0, 20_000, master_seed=51)
        report = compare_models(SampleSet(x))
        dp = report.fit_for("double_pareto")
        assert dp.log_likelihood == pytest.approx(
            _dpareto_loglik(x, **dp.parameters), rel=1e-12, abs=0)
        ln = report.fit_for("lognormal")
        mu, sigma = ln.parameters["mu"], ln.parameters["sigma"]
        assert ln.log_likelihood == pytest.approx(
            float(np.sum(lognorm.logpdf(x, sigma, scale=math.exp(mu)))), rel=1e-12, abs=0)
        # pareto_tail is the known exception: it scores a Hill exponent under an
        # xmin that is the sample minimum (ROADMAP item 9), so it is not checked

    def test_model_subset_and_k_override(self, quasi_batch):
        samples = SampleSet(quasi_batch[:5000, 1])
        report = compare_models(samples, models=("lognormal",))
        assert [f.model for f in report.fits] == ["lognormal"]
        full = compare_models(samples, hill_k=2000)
        tail = full.fit_for("pareto_tail")
        assert tail.parameters["hill_k"] == 2000

    def test_sorts_and_logs_the_sample_once(self, monkeypatch, quasi_batch):
        samples = SampleSet(quasi_batch[:5000, 1])
        calls = {"sort": 0, "log": 0}

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls[name] += np.size(a) == len(samples)
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "sort", counted("sort", np.sort))
        monkeypatch.setattr(np, "log", counted("log", np.log))
        report = compare_models(samples)
        assert not report.errors
        assert calls == {"sort": 1, "log": 1}
        loglog_histogram(samples, 8)
        assert calls["sort"] == 1

    def test_memory_beyond_the_sample_stays_under_five_arrays(self, quasi_batch):
        # the fit keeps prefix, starts and ll at sample length and runs every
        # other pass in blocks; unblocked, 11 such arrays were live at once
        samples = SampleSet(quasi_batch[:200_000, 1])
        samples.sorted, samples.logs  # cached before the measurement
        tracemalloc.start()
        try:
            report = compare_models(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.errors
        assert peak < 5 * samples.values.nbytes

    def test_report_json_dict_is_stable(self, quasi_batch):
        samples = SampleSet(quasi_batch[:2000, 1], source="x")
        a = compare_models(samples).to_json_dict()
        b = compare_models(samples).to_json_dict()
        assert a == b
        assert a["preferred"] == "double_pareto"


# The edges loglog_histogram(., 4) makes for a sample whose minimum is 1.
_QUARTER_DECADES = 10.0 ** (np.arange(13) / 4)


class TestLogLogHistogram:
    def test_single_value(self):
        table = loglog_histogram(SampleSet(np.full(7, 4.2)), bins_per_decade=5)
        assert table.shape[0] == 1
        center, density = table[0]
        width = 4.2 * (10 ** (1 / 5) - 1)
        assert density == pytest.approx(1.0 / width, rel=1e-12)

    @pytest.mark.parametrize("x", [
        np.concatenate([_QUARTER_DECADES[[0, 0, 1]], [2.0], _QUARTER_DECADES[[2, 2]], [4.0, 5.0]]),
        _QUARTER_DECADES,  # the largest value is the last edge
        np.full(5, 3.0),
    ], ids=["interior-edges", "last-edge", "lo-equals-hi"])
    def test_counts_equal_numpy_histogram(self, x):
        bins_per_decade = 4
        table = loglog_histogram(SampleSet(x), bins_per_decade)
        lo, hi = x.min(), x.max()
        if lo == hi:
            edges = np.array([lo, lo * 10.0 ** (1.0 / bins_per_decade)])
        else:
            n_bins = max(1, int(math.ceil(math.log10(hi / lo) * bins_per_decade - 1e-12)))
            edges = lo * 10.0 ** (np.arange(n_bins + 1) / bins_per_decade)
            edges[-1] = max(edges[-1], hi)
        counts, _ = np.histogram(x, bins=edges)
        density = counts / (x.size * np.diff(edges))
        assert table[:, 1].tobytes() == density[counts > 0].tobytes()

    def test_total_mass(self):
        x = pareto_samples(100_000, 1.5, seed=80)
        table = loglog_histogram(SampleSet(x), bins_per_decade=8)
        # recover widths from geometric centers: width = center * (g - 1/g)
        g = 10 ** (1 / 16)
        widths = table[:, 0] * (g - 1.0 / g)
        assert np.sum(table[:, 1] * widths) == pytest.approx(1.0, abs=1e-12)

    def test_pareto_slope(self):
        x = pareto_samples(1_000_000, 1.5, seed=66)
        table = loglog_histogram(SampleSet(x), bins_per_decade=8)
        centers, density = table[:, 0], table[:, 1]
        mask = (centers >= 10.0) & (centers <= 1000.0)
        slope = np.polyfit(np.log(centers[mask]), np.log(density[mask]), 1)[0]
        assert slope == pytest.approx(-2.5, abs=0.15)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            loglog_histogram(SampleSet(np.array([1.0, 2.0])), 0)


class TestRegimeNarrative:
    def test_fitted_exponent_tracks_volatility(self):
        # sweep alpha across the critical volatility; fitted m1 must be
        # rank-monotone (decreasing) in alpha
        alphas = np.linspace(0.1, 0.55, 8)
        fitted = []
        for i, alpha in enumerate(alphas):
            params = GbmParams(x0=1.0, r=0.05, alpha=float(alpha))
            batch = sample_killed_batch(params, SCHEDULE, 100_000, master_seed=900 + i)
            _, m1, _, _ = fit_dpareto_mle(SampleSet(batch[:, 1]))
            fitted.append(m1)
        rho = spearmanr(alphas, fitted).statistic
        assert abs(rho) >= 0.9
