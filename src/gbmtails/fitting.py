"""Tail-exponent estimation and heavy-tail model comparison.

A fitted curve is never reported alone: too many families fit the same
material equally well, so every fit here comes with competitors
(double-Pareto, lognormal, upper-tail Pareto), their likelihoods, AIC and
a KS statistic against the fitted CDF. The KS statistic is reported
without a p-value on purpose: parameters were estimated from the same
data, which invalidates the standard tables.

Each sample is sorted and logged once, by ``SampleSet``; every estimator
reads those arrays, so results are byte-identical under permutation.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._ndtr import ndtr
from .dpareto import DoubleParetoDist, dpareto_cdf
from .serialization import BATCH_CSV_HEADER, SAMPLE_CSV_HEADER, atomic_write, write_sample_csv_fh

MODEL_DOUBLE_PARETO = "double_pareto"
MODEL_LOGNORMAL = "lognormal"
MODEL_PARETO_TAIL = "pareto_tail"
ALL_MODELS = (MODEL_DOUBLE_PARETO, MODEL_LOGNORMAL, MODEL_PARETO_TAIL)

_MODEL_N_PARAMS = {MODEL_DOUBLE_PARETO: 3, MODEL_LOGNORMAL: 2, MODEL_PARETO_TAIL: 2}


class DegenerateInputError(ValueError):
    """Sample has no usable spread for the requested estimator."""


class OneSidedDataError(ValueError):
    """Profile likelihood peaks with all data on one side of the center."""


class SampleCsvError(ValueError):
    """CSV rows violating the sample schema; offending line numbers attached."""

    def __init__(self, message: str, lines: list[int]):
        super().__init__(message)
        self.lines = lines


@dataclass(frozen=True)
class SampleSet:
    """Strictly positive observations plus a provenance label."""

    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if np.any(~np.isfinite(values)) or np.any(values <= 0):
            raise ValueError("values must be finite and strictly positive")
        values.flags.writeable = False  # a view, so the caches below cannot go stale
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    @cached_property
    def sorted(self) -> np.ndarray:
        """The values in ascending order, computed on first use and kept."""
        return np.sort(self.values)

    @cached_property
    def logs(self) -> np.ndarray:
        """``np.log`` of ``sorted``, elementwise, computed on first use and kept."""
        return np.log(self.sorted)


# Header of each sample CSV schema -> (field holding the value, what it is
# called in error messages). None means the whole line; not field 0, because
# loadtxt with usecols=0 would accept a "1,2" row.
_SAMPLE_COLUMNS = {SAMPLE_CSV_HEADER: (None, "sample"), BATCH_CSV_HEADER: (1, "state")}


def read_sample_csv(path, source: str | None = None) -> SampleSet:
    """Load a one-column sample CSV or the state column of a killed-batch CSV.

    The rows are first parsed by ``np.loadtxt``; that result is kept only
    when it is one column of finite positive values. Any other outcome
    falls through to the line-by-line validator, which decides what is
    accepted and names the offending lines.
    """
    source = source if source is not None else str(path)
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header not in _SAMPLE_COLUMNS:
            raise SampleCsvError(
                f"expected header {SAMPLE_CSV_HEADER!r} or {BATCH_CSV_HEADER!r}, got {header!r}",
                [1],
            )
        column, label = _SAMPLE_COLUMNS[header]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file warns; the validator reports it
                values = np.loadtxt(fh, delimiter=",", usecols=column, comments=None, ndmin=2)
        except ValueError:
            values = np.empty((0, 0))
    if values.size and values.shape[1] == 1 and np.all(np.isfinite(values) & (values > 0)):
        return SampleSet(values[:, 0], source=source)

    bad: list[tuple[int, str]] = []
    rows: list[float] = []
    with open(path, "r") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            try:
                field = text if column is None else text.split(",")[column]
                v = float(field)
            except (IndexError, ValueError):
                bad.append((lineno, f"malformed row {text!r}"))
                continue
            if not math.isfinite(v) or v <= 0:
                bad.append((lineno, f"invalid {label} value {field}"))
            else:
                rows.append(v)
    if bad:
        shown = "; ".join(f"line {ln}: {why}" for ln, why in bad[:20])
        more = "" if len(bad) <= 20 else f" (+{len(bad) - 20} more)"
        raise SampleCsvError(f"invalid rows: {shown}{more}", [ln for ln, _ in bad])
    if not rows:
        raise SampleCsvError("CSV contains no data rows", [])
    return SampleSet(np.array(rows), source=source)


def write_sample_csv(path, samples: SampleSet) -> None:
    """Write a SampleSet in the one-column ``value`` schema, one '%.17g' row per value."""
    atomic_write(path, lambda fh: write_sample_csv_fh(fh, samples.values))


# ---------------------------------------------------------------------------
# Individual estimators
# ---------------------------------------------------------------------------


def default_hill_k(n: int) -> int:
    """Default order-statistic count: max(10, n // 100). No automatic tuning."""
    return max(10, int(n) // 100)


def hill_estimator(samples: SampleSet, k: int) -> float:
    """Upper-tail exponent from the k largest order statistics.

    k / sum_{i=1..k} ln(x_(n-i+1) / x_(n-k)): the reciprocal mean log
    excess over the (k+1)-th largest value.
    """
    x = samples.sorted
    n = x.size
    if not isinstance(k, numbers.Integral):  # int(2.9) would fit k = 2
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    if not (2 <= k < n):
        raise ValueError(f"k must satisfy 2 <= k < n = {n}, got {k}")
    top = samples.logs[n - k :]
    threshold = math.log(x[n - k - 1])
    denom = float(np.sum(top) - k * threshold)
    # equal logs can leave a positive denominator made of rounding alone
    if denom <= 0.0 or top[-1] == threshold:
        raise DegenerateInputError(
            "zero log-spacings in the upper tail (tied order statistics)"
        )
    return k / denom


def fit_lognormal(samples: SampleSet) -> tuple[float, float, float]:
    """Closed-form lognormal MLE: (mu_hat, sigma_hat, log_likelihood).

    sigma_hat is the population standard deviation of the logs. A zero
    sigma_hat marks a degenerate point-mass fit and is flagged with an
    infinite log-likelihood.
    """
    x, logs = samples.sorted, samples.logs
    n = x.size
    if n < 2:
        raise ValueError("lognormal fit needs n >= 2")
    mu = float(np.mean(logs))
    if logs[0] == logs[-1]:  # point mass in float64 logs; rounding can hide it in the moments
        return math.log(x[0]), 0.0, math.inf
    sigma = float(math.sqrt(np.mean((logs - mu) ** 2)))
    if sigma == 0.0:
        return mu, 0.0, math.inf
    return mu, sigma, _lognormal_loglik(logs, mu, sigma)


def _lognormal_loglik(logs: np.ndarray, mu: float, sigma: float) -> float:
    n = logs.size
    return float(
        -np.sum(logs)
        - n * math.log(sigma)
        - 0.5 * n * math.log(2.0 * math.pi)
        - float(np.sum((logs - mu) ** 2)) / (2.0 * sigma * sigma)
    )


def fit_dpareto_mle(samples: SampleSet) -> tuple[float, float, float, float]:
    """Profile-likelihood double-Pareto fit: (center, m1, m2, loglik).

    For a fixed center c the tail rates are the reciprocal mean log
    distances on each side, m1 = n_above / sum(ln(x/c) above) and
    m2 = n_below / sum(ln(c/x) below), with points tied to the center
    carrying no distance and counted on neither side. The candidate centers
    are the interior distinct values (every distinct value but the smallest
    and the largest, exactly those with data strictly on both sides). The
    best candidate is refined by golden section between its neighbours; the
    profile is piecewise smooth with kinks at the data points, so the
    candidate itself is kept when the kink is the peak.

    Raises OneSidedDataError when there are fewer than 3 distinct values
    (no candidate has data on both sides): the data wants a one-sided power
    law, so fit the pareto_tail model instead. Raises DegenerateInputError
    when distinct values share a float64 log, leaving a candidate no
    log distance on one side.
    """
    x, logs = samples.sorted, samples.logs
    n = x.size
    if n < 3:
        raise ValueError("double-Pareto fit needs n >= 3")
    if x[0] == x[-1]:
        raise ValueError("double-Pareto fit needs at least 2 distinct values")
    prefix = np.cumsum(logs)
    total = prefix[-1]

    # first index of every distinct value but the smallest; a candidate's
    # points span [first, right), so first points lie below it, n - right above
    starts = np.flatnonzero(x[1:] != x[:-1]) + 1
    if starts.size < 2:
        raise OneSidedDataError(
            "no candidate center has data on both sides; fit the pareto_tail model"
        )
    first, right = starts[:-1], starts[1:]
    log_u = logs[first]
    n_hi = n - right
    s_lo = first * log_u - prefix[first - 1]
    s_hi = (total - prefix[right - 1]) - n_hi * log_u
    if np.any(s_lo <= 0.0) or np.any(s_hi <= 0.0):
        raise DegenerateInputError(
            "distinct values with equal float64 logs leave a candidate center "
            "no log distance on one side"
        )
    ll = _profile_loglik(n, first, n_hi, s_lo, s_hi, log_u, np.log)
    # the profile can be exactly flat (log-equispaced data); break ulp-level
    # ties toward the most balanced split so symmetric samples keep their
    # center, without disturbing genuinely distinct candidates
    ll_max = float(np.max(ll))
    tied = np.flatnonzero(ll >= ll_max - 64.0 * np.spacing(max(1.0, abs(ll_max))))
    best = int(tied[np.argmin(np.abs(first[tied] - n_hi[tied]))])

    def split(c: float) -> tuple[int, int]:
        """Number of points below c, and index of the first point above it."""
        return int(np.searchsorted(x, c, side="left")), int(np.searchsorted(x, c, side="right"))

    def profile(c: float) -> float:
        left, rgt = split(c)
        if left < 1 or rgt >= n:
            return -math.inf
        log_c = math.log(c)
        lo = left * log_c - prefix[left - 1]
        hi = (total - prefix[rgt - 1]) - (n - rgt) * log_c
        return _profile_loglik(n, left, n - rgt, lo, hi, log_c, math.log)

    # refine between the neighbours of the best candidate; golden section
    # runs in log-ratio coordinates so its iterates commute with rescaling
    center = float(x[first[best]])
    theta = _golden_max(
        lambda th: profile(center * math.exp(th)),
        math.log(float(x[first[best] - 1]) / center),
        math.log(float(x[right[best]]) / center),
    )
    refined = center * math.exp(theta)
    if profile(refined) > ll[best]:
        center = float(refined)

    # final side sums computed directly (not via prefix differences) so
    # exactly mirrored samples give byte-equal rates
    left, rgt = split(center)
    log_c = math.log(center)
    below, above = logs[:left], logs[rgt:]
    s_lo_c = below.size * log_c - float(np.sum(below))
    s_hi_c = float(np.sum(above)) - above.size * log_c
    m1_hat = above.size / s_hi_c
    m2_hat = below.size / s_lo_c
    return float(center), float(m1_hat), float(m2_hat), float(profile(center))


def _profile_loglik(n, k_lo, k_hi, lo, hi, log_c, log):
    """Log-likelihood at center exp(log_c) with both rates profiled out, for
    k_lo points below (log-distance sum lo) and k_hi above (sum hi). profile()
    passes math.log, not np.log, which rounds a few inputs differently."""
    m1 = k_hi / hi
    m2 = k_lo / lo
    return n * (log(m1) + log(m2) - log(m1 + m2) - log_c) - k_lo - k_hi + (lo - hi)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if (b - a) <= max(tol, 1e-12 * max(abs(a), abs(b))):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return c if fc >= fd else d


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelFit:
    model: str
    parameters: dict
    log_likelihood: float
    aic: float
    ks_statistic: float


@dataclass(frozen=True)
class FitReport:
    """Per-model fits, failures, and the AIC-preferred model id."""

    n: int
    source: str
    fits: tuple[ModelFit, ...]
    errors: dict
    preferred: str | None

    def fit_for(self, model: str) -> ModelFit:
        for f in self.fits:
            if f.model == model:
                return f
        raise KeyError(model)

    def to_json_dict(self) -> dict:
        """Every field, with ``fits`` under the key ``models``."""
        doc = asdict(self)
        doc["models"] = doc.pop("fits")
        return doc


def _ks_statistic(model_cdf: np.ndarray) -> float:
    """KS distance of the model CDF, evaluated at the sorted sample, from the ECDF."""
    n = model_cdf.size
    grid = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(grid - model_cdf))
    d_minus = float(np.max(model_cdf - (grid - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def compare_models(
    samples: SampleSet,
    models: tuple[str, ...] = ALL_MODELS,
    hill_k: int | None = None,
) -> FitReport:
    """Fit the requested models and rank them by AIC.

    Per-model failures (degenerate spread, one-sided data, ...) are
    recorded under ``errors`` while the remaining models are still
    reported. Fits are independent of each other and of evaluation order.
    """
    n = len(samples)
    if n < 10:
        raise ValueError(f"model comparison needs n >= 10, got {n}")
    unknown = set(models) - set(ALL_MODELS)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    fits: list[ModelFit] = []
    errors: dict[str, str] = {}

    for model in ALL_MODELS:
        if model not in models:
            continue
        try:
            fits.append(_fit_one(model, samples, hill_k))
        except (ValueError, ArithmeticError) as exc:
            errors[model] = str(exc)

    preferred = None
    if fits:
        preferred = min(fits, key=lambda f: f.aic).model
    return FitReport(
        n=n, source=samples.source, fits=tuple(fits), errors=errors, preferred=preferred
    )


def _fit_one(model: str, samples: SampleSet, hill_k) -> ModelFit:
    x = samples.sorted
    n = x.size
    if model == MODEL_DOUBLE_PARETO:
        center, m1, m2, ll = fit_dpareto_mle(samples)
        dist = DoubleParetoDist(center=center, m1=m1, m2=m2)
        ks = _ks_statistic(dpareto_cdf(dist, x))
        params = {"center": center, "m1": m1, "m2": m2}
    elif model == MODEL_LOGNORMAL:
        mu, sigma, ll = fit_lognormal(samples)
        if sigma == 0.0:
            raise DegenerateInputError("zero log-variance: point-mass lognormal fit")
        ks = _ks_statistic(ndtr((samples.logs - mu) / sigma))
        params = {"mu": mu, "sigma": sigma}
    elif model == MODEL_PARETO_TAIL:
        k = default_hill_k(n) if hill_k is None else hill_k
        exponent = hill_estimator(samples, k)
        xmin = float(x[0])
        ll = float(
            n * math.log(exponent)
            + n * exponent * math.log(xmin)
            - (exponent + 1.0) * np.sum(samples.logs)
        )
        ks = _ks_statistic(1.0 - (xmin / x) ** exponent)
        params = {"exponent": exponent, "xmin": xmin, "hill_k": float(k)}
    else:  # pragma: no cover
        raise ValueError(f"unknown model {model!r}")
    aic = 2.0 * _MODEL_N_PARAMS[model] - 2.0 * ll
    return ModelFit(
        model=model, parameters=params, log_likelihood=float(ll), aic=float(aic),
        ks_statistic=float(ks),
    )


# ---------------------------------------------------------------------------
# Log-log histogram diagnostics
# ---------------------------------------------------------------------------


def loglog_histogram(samples: SampleSet, bins_per_decade: int) -> np.ndarray:
    """Logarithmically binned density estimate, rows (bin_center, density).

    Bins span [min, max] with ``bins_per_decade`` bins per factor of ten;
    density is count / (n * linear bin width), so density * width sums to
    one. Empty bins are omitted; bin centers are geometric midpoints.
    """
    if not isinstance(bins_per_decade, numbers.Integral) or bins_per_decade < 1:
        raise ValueError(f"bins_per_decade must be an integer >= 1, got {bins_per_decade!r}")
    bins_per_decade = int(bins_per_decade)
    x = samples.sorted
    n = x.size
    lo, hi = float(x[0]), float(x[-1])
    if lo == hi:
        edges = np.array([lo, lo * 10.0 ** (1.0 / bins_per_decade)])
    else:
        n_bins = max(1, int(math.ceil(math.log10(hi / lo) * bins_per_decade - 1e-12)))
        edges = lo * 10.0 ** (np.arange(n_bins + 1) / bins_per_decade)
        edges[-1] = max(edges[-1], hi)
    # np.histogram's counts without its re-sort: bins [e_k, e_k+1), the last one closed
    counts = np.diff(np.append(np.searchsorted(x, edges[:-1], side="left"), n))
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    density = counts / (n * widths)
    keep = counts > 0
    return np.column_stack([centers[keep], density[keep]])
