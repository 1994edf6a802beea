"""Closed-form double-Pareto analytics and tail-exponent solvers.

The log of a GBM state observed at an Exp(nu) horizon is asymmetric
Laplace, so the state itself is double-Pareto: density ~ x**(m2-1) below
the center and ~ x**(-m1-1) above it. The tail rates (m1, m2) are the
positive and negated-negative roots of the characteristic quadratic

    (alpha**2 / 2) s**2 + mu s - nu = 0,      mu = r - alpha**2 / 2,

the points where the moment generating function of the log-state,
exp(s ln c) * m1 m2 / ((m1 - s)(m2 + s)), has its poles. This module keeps
two conventions side by side:

* canonical: both rates positive (m1 upper tail, m2 lower tail); the only
  convention under which the density is a normalizable probability model.
* signed: the textbook closed forms
  (mu/alpha**2) * (1 +- sqrt(1 + 8 nu alpha**2 / (2r - alpha**2)**2)),
  roots of the sign-flipped quadratic. Their signs flip across the
  critical volatility and their commonly tabulated one-sided limits are
  internally inconsistent; ``limit_table`` verifies magnitudes and records
  sign agreement instead of guessing intent.

The critical volatility alpha_star = sqrt(2 r) is where the log-drift mu
vanishes; below it the upper tail is the heavier one (quasi-stochastic
regime), above it the lower tail is (stochastic regime).
Scalars and curves share one numpy body (``_roots``), bit-equal to the
scalar forms because it squares with C ``pow``, as Python's float ``**``.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._checks import _positive_array, _real
from .serialization import write_float_rows, write_text

if TYPE_CHECKING:  # annotations only: solving exponents needs no sampler
    from .killing import KillSchedule
    from .sde import GbmParams

# Fixed proxy extremes used by limit_table, chosen once so reports are
# reproducible without user-tuned epsilons.
NU_TINY = 1e-10
NU_HUGE = 1e10
ALPHA_TINY = 1e-6
ALPHA_HUGE = 1e3
CRIT_REL_OFFSET = 1e-6

# Relative half-width of the band classified as Critical.
CRITICAL_BAND = 1e-12
# Relative half-width that exponent-curve grids keep from alpha_star.
CURVE_EXCLUSION_BAND = 1e-9


class Regime(str, enum.Enum):
    QUASI_STOCHASTIC = "QuasiStochastic"
    CRITICAL = "Critical"
    STOCHASTIC = "Stochastic"


def classify_regime(r: float, alpha: float) -> tuple[float, Regime]:
    """Critical volatility sqrt(2 r) and which side of it alpha falls on.

    Rejects r <= 0, where the critical volatility is undefined.
    """
    r, alpha = _real("r", r, 0.0, strict=True), _real("alpha", alpha, 0.0)
    alpha_star = math.sqrt(2.0 * r)
    if abs(alpha - alpha_star) <= CRITICAL_BAND * alpha_star:
        return alpha_star, Regime.CRITICAL
    if alpha < alpha_star:
        return alpha_star, Regime.QUASI_STOCHASTIC
    return alpha_star, Regime.STOCHASTIC


@dataclass(frozen=True)
class ExponentSolution:
    """Tail exponents in both conventions plus regime metadata."""

    m1_canonical: float
    m2_canonical: float
    m1_signed: float
    m2_signed: float
    mu: float
    alpha_star: float
    regime: Regime

    def vieta_residuals(self, r: float, alpha: float, nu: float) -> tuple[float, float]:
        """Machine-precision residuals of the root identities.

        Product identity m1*m2 = 2 nu / alpha**2 (relative) and difference
        identity m2 - m1 = 2 mu / alpha** 2 (normalized by the root gap
        m1 + m2, which stays meaningful when mu ~ 0).
        """
        a2 = alpha * alpha
        prod = abs(self.m1_canonical * self.m2_canonical * a2 / (2.0 * nu) - 1.0)
        diff = abs((self.m2_canonical - self.m1_canonical) - 2.0 * self.mu / a2) / (
            self.m1_canonical + self.m2_canonical
        )
        return prod, diff


def _roots(r, alpha, nu):
    """(m1, m2, m1_signed, m2_signed, mu) for scalar or array ``alpha``/``nu``.

    ``np.float_power`` is C ``pow``; numpy's ``x ** 2`` multiplies, which
    differs in the last bit for some gaps. Both ``np.where`` sides are computed.
    """
    r, alpha, nu = (np.asarray(v, dtype=float) for v in (r, alpha, nu))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        half_a2 = 0.5 * alpha * alpha
        mu = r - half_a2
        disc = np.sqrt(mu * mu + 2.0 * (alpha * alpha) * nu)
        q = -0.5 * (mu + np.where(mu >= 0, 1.0, -1.0) * disc)
        root_big = q / half_a2
        root_small = -nu / q
        upper = root_big > 0
        m1 = np.where(upper, root_big, root_small)
        m2 = np.where(upper, -root_small, -root_big)
        a2 = alpha * alpha
        lead = (r - 0.5 * a2) / a2
        root = np.sqrt(1.0 + 8.0 * nu * a2 / np.float_power(2.0 * r - a2, 2.0))
        critical = a2 == 2.0 * r
        lim = np.sqrt(nu / r)
        m1_signed = np.where(critical, lim, lead * (1.0 + root))
        m2_signed = np.where(critical, -lim, lead * (1.0 - root))
    return m1, m2, m1_signed, m2_signed, mu


def _representable_roots(r, alpha, nu):
    """``_roots``, rejecting an alpha whose canonical exponents overflow or vanish."""
    roots = _roots(r, alpha, nu)
    ok = np.ravel(np.isfinite(roots[0]) & np.isfinite(roots[1]) & (roots[0] > 0) & (roots[1] > 0))
    if not ok.all():
        bad = float(np.ravel(alpha)[np.argmin(ok)])
        raise ValueError(f"tail exponents at r={r!r}, alpha={bad!r}, nu={nu!r} "
                         "are not finite and positive in floating point")
    return roots


def solve_exponents_canonical(r: float, alpha: float, nu: float) -> ExponentSolution:
    """Positive tail rates from the characteristic quadratic, cancellation-free.

    The larger-magnitude root comes from the sign-safe quadratic formula,
    the other from the Vieta product, so no accuracy is lost when
    nu << mu**2 / alpha**2. alpha = 0 is rejected: the quadratic
    degenerates (see ``limit_table`` for the alpha -> 0 behavior). So are
    inputs whose exponents overflow or vanish (also in ``solve_exponents_signed``
    and ``exponent_curves``).
    """
    r = _real("r", r, 0.0, strict=True)
    alpha = _real("alpha", alpha, 0.0, strict=True)
    nu = _real("nu", nu, 0.0, strict=True)
    m1, m2, m1_signed, m2_signed, mu = (float(v) for v in _representable_roots(r, alpha, nu))
    alpha_star, regime = classify_regime(r, alpha)
    return ExponentSolution(m1, m2, m1_signed, m2_signed, mu, alpha_star, regime)


def solve_exponents_signed(r: float, alpha: float, nu: float) -> tuple[float, float]:
    """The textbook closed forms, evaluated exactly as printed.

    m1,2 = ((r - alpha^2/2)/alpha^2) * (1 +- sqrt(1 + 8 nu alpha^2 / (2r - alpha^2)^2)).

    Signs carry the convention's quirks deliberately: for mu > 0 this pair
    is (m2_canonical, -m1_canonical); for mu < 0 it is
    (-m1_canonical, m2_canonical). At alpha**2 == 2 r exactly, where the
    printed expression divides by zero, the limiting branch
    (+sqrt(nu/r), -sqrt(nu/r)) is returned. Shares ``exponent_curves``' body.
    """
    r = _real("r", r)
    alpha = _real("alpha", alpha, 0.0, strict=True)
    nu = _real("nu", nu, 0.0, strict=True)
    _, _, m1_signed, m2_signed, _ = _representable_roots(r, alpha, nu)
    return float(m1_signed), float(m2_signed)


# ---------------------------------------------------------------------------
# Double-Pareto distribution in levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleParetoDist:
    """Power-law tails on both sides of ``center``: m1 above, m2 below.

    Each field is stored as a finite ``float`` > 0, so a float32 rate
    evaluates the law in float64.
    """

    center: float
    m1: float
    m2: float

    def __post_init__(self):
        for name in ("center", "m1", "m2"):
            object.__setattr__(self, name, _real(name, getattr(self, name), 0.0, strict=True))

    @property
    def split(self) -> float:
        """Probability mass below the center, m1 / (m1 + m2)."""
        return self.m1 / (self.m1 + self.m2)


def killed_state_dist(params: GbmParams, schedule: KillSchedule) -> DoubleParetoDist:
    """Analytic marginal law of the killed state: centered at x0, canonical rates."""
    sol = solve_exponents_canonical(params.r, params.alpha, schedule.nu)
    return DoubleParetoDist(center=params.x0, m1=sol.m1_canonical, m2=sol.m2_canonical)


def _two_sided(values, lower, below, above):
    """``below`` where ``lower`` holds, else ``above``; a scalar runs as a one-element array."""
    flat, lower = np.atleast_1d(values), np.atleast_1d(lower)
    out = np.empty_like(flat)
    out[lower] = below(flat[lower])
    out[~lower] = above(flat[~lower])
    return float(out[0]) if np.ndim(values) == 0 else out


def dpareto_pdf(dist: DoubleParetoDist, x):
    """Density: C (x/c)^(m2-1) below c, C (x/c)^(-m1-1) above, C = m1 m2 / ((m1+m2) c).

    The 1/c factor is the Jacobian that makes the piecewise power form
    integrate to one. Continuous at the center. Scalar or array ``x``.
    """
    c, m1, m2 = dist.center, dist.m1, dist.m2
    norm = m1 * m2 / ((m1 + m2) * c)
    ratio = _positive_array("levels", x) / c
    return _two_sided(ratio, ratio <= 1.0, lambda r: norm * r ** (m2 - 1.0),
                      lambda r: norm * r ** (-m1 - 1.0))


def dpareto_cdf(dist: DoubleParetoDist, x):
    """Closed-form CDF; equals m1/(m1+m2) at the center."""
    m1, m2 = dist.m1, dist.m2
    ratio = _positive_array("levels", x) / dist.center
    # 1 - k r^-m1 bit for bit, 1.0 added last so numpy reuses the temporary array
    return _two_sided(ratio, ratio <= 1.0, lambda r: (m1 / (m1 + m2)) * r ** m2,
                      lambda r: -(m2 / (m1 + m2)) * r ** (-m1) + 1.0)


def dpareto_quantile(dist: DoubleParetoDist, p):
    """Exact inverse of the CDF on (0, 1); the split mass maps to c * 1.0 ** (1/m2) = c."""
    p = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(p)) or np.any((p <= 0) | (p >= 1)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    c, m1, m2, split = dist.center, dist.m1, dist.m2, dist.split
    return _two_sided(p, p <= split, lambda q: c * (q / split) ** (1.0 / m2),
                      lambda q: c * ((1.0 - q) * (m1 + m2) / m2) ** (-1.0 / m1))


def dpareto_log_mgf(dist: DoubleParetoDist, s: float) -> float:
    """Moment generating function of ln(state), finite only on (-m2, m1)."""
    s = _real("s", s)
    if not (-dist.m2 < s < dist.m1):
        raise ValueError(
            f"s={s!r} outside the convergence strip (-{dist.m2}, {dist.m1})"
        )
    return math.exp(s * math.log(dist.center)) * dist.m1 * dist.m2 / (
        (dist.m1 - s) * (dist.m2 + s)
    )


# ---------------------------------------------------------------------------
# Limit verification and exponent-vs-volatility curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitRecord:
    """One extreme-parameter check of the signed closed forms.

    ``deviation`` compares magnitudes: | |evaluated| - |stated| | when the
    stated limit is finite, |1/evaluated| when it is infinite (zero means
    the divergence is confirmed; inf, the furthest miss, when evaluated is
    0). ``sign_agrees`` records whether direct evaluation matches the
    tabulated sign; a stated value of zero agrees with anything.
    """

    limit_id: str
    evaluated: float
    stated: float
    deviation: float
    sign_agrees: bool


@dataclass(frozen=True)
class LimitReport:
    r: float
    alpha: float
    nu: float
    records: tuple[LimitRecord, ...]

    def by_id(self, limit_id: str) -> LimitRecord:
        for rec in self.records:
            if rec.limit_id == limit_id:
                return rec
        raise KeyError(limit_id)


def _limit_record(limit_id: str, evaluated: float, stated: float) -> LimitRecord:
    if math.isinf(stated):
        deviation = abs(1.0 / evaluated) if evaluated != 0.0 else math.inf
    else:
        deviation = abs(abs(evaluated) - abs(stated))
    if stated == 0.0:
        agrees = True
    else:
        agrees = (evaluated > 0) == (stated > 0)
    return LimitRecord(limit_id, evaluated, stated, deviation, agrees)


def limit_table(r: float, alpha: float, nu: float) -> LimitReport:
    """Evaluate the signed closed forms at fixed proxy extremes, in one array call.

    Twelve records: each of (m1, m2) as nu -> 0, nu -> inf, alpha -> 0,
    alpha -> critical from either side, and alpha -> inf, compared against
    the tabulated limiting values. Magnitudes are the trustworthy content;
    the tabulated signs around the critical volatility disagree with
    direct evaluation (they appear side-swapped), so signs are only
    recorded, never corrected.
    """
    r = _real("r", r, 0.0, strict=True)
    alpha = _real("alpha", alpha, 0.0, strict=True)
    nu = _real("nu", nu, 0.0, strict=True)
    alpha_star = math.sqrt(2.0 * r)
    sqrt_nur = math.sqrt(nu / r)
    alphas = [alpha, alpha, ALPHA_TINY, alpha_star * (1.0 + CRIT_REL_OFFSET),
              alpha_star * (1.0 - CRIT_REL_OFFSET), ALPHA_HUGE]
    _, _, m1, m2, _ = _roots(r, alphas, [NU_TINY, NU_HUGE, nu, nu, nu, nu])
    nu0, nuinf, a0, crit_above, crit_below, ainf = zip(m1.tolist(), m2.tolist())
    records = (
        _limit_record("nu_to_zero_m1", nu0[0], (2.0 * r - alpha * alpha) / (alpha * alpha)),
        _limit_record("nu_to_zero_m2", nu0[1], 0.0),
        _limit_record("nu_to_inf_m1", nuinf[0], math.inf),
        _limit_record("nu_to_inf_m2", nuinf[1], -math.inf),
        _limit_record("alpha_to_zero_m1", a0[0], math.inf),
        _limit_record("alpha_to_zero_m2", a0[1], -nu / r),
        _limit_record("alpha_to_crit_above_m1", crit_above[0], sqrt_nur),
        _limit_record("alpha_to_crit_below_m1", crit_below[0], -sqrt_nur),
        _limit_record("alpha_to_crit_above_m2", crit_above[1], -sqrt_nur),
        _limit_record("alpha_to_crit_below_m2", crit_below[1], sqrt_nur),
        _limit_record("alpha_to_inf_m1", ainf[0], -1.0),
        _limit_record("alpha_to_inf_m2", ainf[1], 0.0),
    )
    return LimitReport(r=r, alpha=alpha, nu=nu, records=records)


LIMIT_CSV_HEADER = "limit_id,evaluated,stated,deviation,sign_agrees"

EXPONENT_CURVE_CSV_HEADER = "alpha,m1_signed,m2_signed,m1_canonical,m2_canonical"


def limit_csv_text(report: LimitReport) -> str:
    lines = [LIMIT_CSV_HEADER]
    for rec in report.records:
        lines.append(
            "%s,%.17g,%.17g,%.17g,%s"
            % (rec.limit_id, rec.evaluated, rec.stated, rec.deviation,
               "true" if rec.sign_agrees else "false")
        )
    return "\n".join(lines) + "\n"


def exponent_curves(r: float, nu: float, alpha_grid) -> np.ndarray:
    """Rows (alpha, m1_signed, m2_signed, m1_canonical, m2_canonical).

    For plotting exponents as a function of volatility. Grid points within
    the relative ``CURVE_EXCLUSION_BAND`` of the critical volatility are
    rejected (the signed forms blow up there). Each row is bit-equal to
    the scalar solvers at that alpha (one shared body).
    """
    r = _real("r", r, 0.0, strict=True)
    nu = _real("nu", nu, 0.0, strict=True)
    grid = _positive_array("alpha grid values", alpha_grid)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("alpha_grid must be a non-empty 1-d array")
    alpha_star = math.sqrt(2.0 * r)
    if np.any(np.abs(grid - alpha_star) <= CURVE_EXCLUSION_BAND * alpha_star):
        raise ValueError(
            f"alpha grid must exclude the critical volatility {alpha_star!r} "
            f"(relative band {CURVE_EXCLUSION_BAND!r})"
        )
    m1, m2, m1_signed, m2_signed, _ = _representable_roots(r, grid, nu)
    return np.column_stack((grid, m1_signed, m2_signed, m1, m2))


def exponent_curves_csv_text(rows: np.ndarray) -> str:
    fh = io.BytesIO()
    write_text(fh, EXPONENT_CURVE_CSV_HEADER + "\n")
    write_float_rows(fh, rows)
    return fh.getvalue().decode("ascii")  # figure1 prints it as well as writing it
