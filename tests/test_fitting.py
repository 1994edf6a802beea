import math
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from gbmtails.dpareto import DoubleParetoDist, dpareto_quantile, solve_exponents_canonical
from gbmtails.fitting import (
    ALL_MODELS,
    DegenerateInputError,
    OneSidedDataError,
    SampleCsvError,
    SampleSet,
    _golden_max,
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

    def test_k_range(self):
        samples = SampleSet(np.arange(1.0, 11.0))
        for k in (0, 1, 10, 11):
            with pytest.raises(ValueError):
                hill_estimator(samples, k)

    @pytest.mark.parametrize("count", [2.9, 3.0, np.float64(2.5)])
    def test_non_integral_counts_are_rejected(self, count):
        # a count is never truncated: 2.9 must not fit k = 2
        samples = SampleSet(np.arange(1.0, 20.0))
        with pytest.raises(ValueError, match="k must be an integer"):
            hill_estimator(samples, count)
        with pytest.raises(ValueError, match="bins_per_decade must be an integer"):
            loglog_histogram(samples, count)
        report = compare_models(samples, hill_k=count)
        assert "k must be an integer" in report.errors["pareto_tail"]

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
        mu, sigma, ll = fit_lognormal(SampleSet(np.full(5, 2.0)))
        assert mu == math.log(2.0) and sigma == 0.0 and math.isinf(ll)

    def test_distinct_values_with_equal_logs_are_a_point_mass(self):
        x = 1e300 * (1.0 + np.arange(1, 40) * 2.3e-16)
        mu, sigma, ll = fit_lognormal(SampleSet(x))
        assert mu == math.log(x[0]) and sigma == 0.0 and math.isinf(ll)
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

    def test_symmetric_data_exact_center_and_equal_rates(self):
        center, m1, m2, _ = fit_dpareto_mle(
            SampleSet(np.array([0.25, 0.5, 1.0, 2.0, 4.0]))
        )
        assert center == 1.0
        assert m1 == m2

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
    """The fitter as it was before its candidates became the interior
    distinct values: every distinct value, masked to the admissible ones."""
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

    ll = np.full(uniq.size, -np.inf)
    m1 = n_hi[valid] / s_hi[valid]
    m2 = n_lo[valid] / s_lo[valid]
    ll[valid] = (
        n * (np.log(m1) + np.log(m2) - np.log(m1 + m2) - log_u[valid])
        - n_lo[valid]
        - n_hi[valid]
        + (s_lo[valid] - s_hi[valid])
    )
    ll_max = float(np.max(ll))
    tied = np.flatnonzero(ll >= ll_max - 64.0 * np.spacing(max(1.0, abs(ll_max))))
    best = int(tied[np.argmin(np.abs(n_lo[tied] - n_hi[tied]))])

    def profile(c):
        left = int(np.searchsorted(x, c, side="left"))
        rgt = int(np.searchsorted(x, c, side="right"))
        k_lo, k_hi = left, n - rgt
        if k_lo < 1 or k_hi < 1:
            return -math.inf
        log_c = math.log(c)
        lo = k_lo * log_c - prefix[left - 1]
        hi = (total - prefix[rgt - 1]) - k_hi * log_c
        mm1 = k_hi / hi
        mm2 = k_lo / lo
        return (
            n * (math.log(mm1) + math.log(mm2) - math.log(mm1 + mm2) - log_c)
            - k_lo
            - k_hi
            + (lo - hi)
        )

    center = float(uniq[best])
    lo_edge = float(uniq[best - 1]) if best > 0 else center
    hi_edge = float(uniq[best + 1]) if best < uniq.size - 1 else center
    if hi_edge > lo_edge:
        theta = _golden_max(
            lambda th: profile(center * math.exp(th)),
            math.log(lo_edge / center),
            math.log(hi_edge / center),
        )
        refined = center * math.exp(theta)
        if profile(refined) > ll[best]:
            center = float(refined)

    log_c = math.log(center)
    below = logs[x < center]
    above = logs[x > center]
    s_lo_c = below.size * log_c - float(np.sum(below))
    s_hi_c = float(np.sum(above)) - above.size * log_c
    m1_hat = above.size / s_hi_c
    m2_hat = below.size / s_lo_c
    return float(center), float(m1_hat), float(m2_hat), float(profile(center))


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
