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
from .serialization import (BATCH_CSV_HEADER, BLOCK_ROWS, SAMPLE_CSV_HEADER, atomic_write,
                            open_text, write_sample_csv_fh)

MODEL_DOUBLE_PARETO = "double_pareto"
MODEL_LOGNORMAL = "lognormal"
MODEL_PARETO_TAIL = "pareto_tail"
ALL_MODELS = (MODEL_DOUBLE_PARETO, MODEL_LOGNORMAL, MODEL_PARETO_TAIL)

_MODEL_N_PARAMS = {MODEL_DOUBLE_PARETO: 3, MODEL_LOGNORMAL: 2, MODEL_PARETO_TAIL: 2}


class DegenerateInputError(ValueError):
    """Sample has no usable spread for the requested estimator."""


class OneSidedDataError(ValueError):
    """No candidate center has data strictly on both sides."""


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


def read_sample_csv(path) -> SampleSet:
    """Load a one-column sample CSV or the state column of a killed-batch CSV.

    The rows are first parsed by ``np.loadtxt``, kept only when they make one
    column of finite positive values; else the line-by-line validator decides
    what is accepted and names the offending lines. A killed batch's
    ``kill_time`` and any third field are never parsed (see the ROADMAP item
    "A strict sample-CSV reader"). The sample's source is ``str(path)``.
    """
    with open_text(path) as fh:
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
            if values.shape[1] == 1:
                return SampleSet(values[:, 0], source=str(path))
        except ValueError:  # a row loadtxt cannot parse, or a value SampleSet refuses
            pass
        bad, rows = [], []  # (line, why) pairs and accepted values
        fh.seek(0)  # rewind: the line-numbered validator rereads every row
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
    return SampleSet(np.array(rows), source=str(path))


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
    # int(2.9) would fit k = 2, and True would fit k = 1
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    k = int(k)
    if not (2 <= k < n):
        raise ValueError(f"k must satisfy 2 <= k < n = {n}, got {k}")
    top = samples.logs[n - k :]
    threshold = math.log(x[n - k - 1])
    denom = float(np.sum(top) - k * threshold)
    # judge ties on the summed logs: libm's log of an equal threshold can round
    # below numpy's; the denominator keeps libm's, which sets untied fits' bits
    if denom <= 0.0 or top[-1] == samples.logs[n - k - 1]:
        raise DegenerateInputError(
            "zero log-spacings in the upper tail (tied order statistics)"
        )
    return k / denom


def fit_lognormal(samples: SampleSet) -> tuple[float, float, float]:
    """Closed-form lognormal MLE: (mu_hat, sigma_hat, log_likelihood).

    sigma_hat is the population standard deviation of the logs. Raises
    DegenerateInputError when all logs are equal, as distinct values' logs
    can be; otherwise sigma_hat is positive.
    """
    logs = samples.logs
    if logs.size < 2:
        raise ValueError("lognormal fit needs n >= 2")
    if logs[0] == logs[-1]:  # rounding can hide a point mass in the moments
        raise DegenerateInputError("zero log-variance: point-mass lognormal fit")
    mu = float(np.mean(logs))
    sigma = float(math.sqrt(np.mean((logs - mu) ** 2)))
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
    """Closed-form double-Pareto MLE: (center, m1, m2, loglik).

    In logs the double-Pareto is asymmetric-Laplace, whose joint MLE has a
    closed form (Kotz, Kozubowski and Podgorski, "Maximum likelihood
    estimation of asymmetric Laplace parameters", Ann. Inst. Statist. Math.
    54, 2002). For a center c let H = sum(ln(x/c)) over the points above c
    and L = sum(ln(c/x)) over those below; points tied to the center carry
    no distance. The center minimises sqrt(H) + sqrt(L), and then

        m1 = n / (H + sqrt(H L)),    m2 = n / (L + sqrt(H L)),
        loglik = n ln n - 2n ln(sqrt(H) + sqrt(L)) - n - sum(ln x).

    Between two data values sqrt(H) + sqrt(L) is concave in ln c, so its
    minimum is a data value. The candidate centers are the interior distinct
    values (every distinct value but the smallest and the largest, exactly
    those with data strictly on both sides). Scores within 64 ulps of the
    minimum tie, and the tie goes to the most balanced split, then to the
    lowest center.

    Raises OneSidedDataError when there are fewer than 3 distinct values
    (no candidate has data on both sides): the data wants a one-sided power
    law, so fit the pareto_tail model instead. Raises DegenerateInputError
    when distinct values share a float64 log, leaving a candidate no
    log distance on one side.

    The scores run BLOCK_ROWS candidates at a time, each block checked for
    equal logs first; elementwise work has the same bits in any block.
    ``prefix`` is one whole cumsum: a blocked ``np.cumsum(block) + carry``
    rounds differently (prepending the carry to ``np.add.accumulate`` would
    not). ``starts`` and ``score`` stay full length, so the tie window over
    the global minimum and the tie-break see every candidate.
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
    score = np.empty(first.size)
    for a in range(0, score.size, BLOCK_ROWS):
        block = slice(a, a + BLOCK_ROWS)
        k_lo = first[block]
        log_u = logs[k_lo]
        s_lo = k_lo * log_u - prefix[k_lo - 1]
        s_hi = (total - prefix[right[block] - 1]) - (n - right[block]) * log_u
        if np.any(s_lo <= 0.0) or np.any(s_hi <= 0.0):
            raise DegenerateInputError(
                "distinct values with equal float64 logs leave a candidate center "
                "no log distance on one side"
            )
        score[block] = np.sqrt(s_lo) + np.sqrt(s_hi)
    # symmetric samples tie in pairs; ulp-level ties go to the most balanced
    # split, then the lowest center, without disturbing distinct candidates
    low = float(np.min(score))
    tied = np.flatnonzero(score <= low + 64.0 * np.spacing(low))
    best = int(tied[np.argmin(np.abs(first[tied] - (n - right[tied])))])

    # final side sums computed directly (not via prefix differences) so
    # exactly mirrored samples give byte-equal rates
    left = int(first[best])
    log_c = float(logs[left])
    below, above = logs[:left], logs[right[best]:]
    s_lo_c = below.size * log_c - float(np.sum(below))
    s_hi_c = float(np.sum(above)) - above.size * log_c
    root = math.sqrt(s_hi_c * s_lo_c)
    ll = n * math.log(n) - 2 * n * math.log(math.sqrt(s_hi_c) + math.sqrt(s_lo_c)) - n - total
    return float(x[left]), n / (s_hi_c + root), n / (s_lo_c + root), float(ll)


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


def _ks_statistic(cdf, x: np.ndarray) -> float:
    """KS distance of the model CDF ``cdf`` from the ECDF of the sorted sample ``x``.

    ``cdf`` is called on BLOCK_ROWS values at a time and the ECDF grid is
    built per block, so no temporary is sample-length; a running maximum
    is exact, so the distance has the same bits in any block.
    """
    n, d = x.size, 0.0
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        model_cdf = cdf(x[lo:hi])
        grid = np.arange(lo + 1, hi + 1, dtype=float) / n
        d = max(d, float(np.max(grid - model_cdf)), float(np.max(model_cdf - (grid - 1.0 / n))))
    return d


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
        ks = _ks_statistic(lambda v: dpareto_cdf(dist, v), x)
        params = {"center": center, "m1": m1, "m2": m2}
    elif model == MODEL_LOGNORMAL:
        mu, sigma, ll = fit_lognormal(samples)
        ks = _ks_statistic(lambda logs: ndtr((logs - mu) / sigma), samples.logs)
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
        ks = _ks_statistic(lambda v: 1.0 - (xmin / v) ** exponent, x)
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
    if (isinstance(bins_per_decade, bool) or not isinstance(bins_per_decade, numbers.Integral)
            or bins_per_decade < 1):
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
