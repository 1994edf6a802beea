"""The normal CDF and its inverse: Cephes ``ndtr`` and ``ndtri`` in numpy.

Ported from Cephes (S. L. Moshier, *Methods and Programs for Mathematical
Functions*, 1989), the code behind ``scipy.special.ndtr`` and ``ndtri``,
keeping its coefficients, branch thresholds and operation order, so the
results are bit-equal to scipy's. numpy's add, multiply, divide and sqrt
round exactly as C does, but its SIMD ``log`` and ``exp`` differ from the C
library's on a few inputs in 10^4, so every ``log`` and ``exp`` is the C
library's: ``math.log`` for a scalar, and for an array the real part of
numpy's complex ``log`` or ``exp`` (``_array_log``, ``_array_exp``), which
loops in C over the C library's ``clog`` or ``cexp``. On a real argument
those equal ``log`` and ``exp`` on the domains the port uses, and the
helpers refuse any other input rather than change a bit.
"""

from __future__ import annotations

import math

import numpy as np

# ndtri: P0/Q0 for exp(-2) < y < 1 - exp(-2), on y - 0.5.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# ndtri tails, in z = 1/x with x = sqrt(-2 log y): P1/Q1 for 2 <= x < 8,
# P2/Q2 for 8 <= x <= 64.
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
# erf on |x| <= 1, in x**2.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc: P/Q for 1 <= x < 8, R/S for x >= 8.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_DBL_MIN = 2.2250738585072014e-308  # smallest normal float64


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, on a float or elementwise on an array x."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """As ``_polevl`` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _array_log(a: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of each element of a 1-d array, for elements >= 2
    or in [DBL_MIN, 0.5); ``ValueError`` on any other.

    numpy's complex ``log`` calls ``clog``. On ``x + 0i`` glibc's ``clog`` is
    ``log(hypot(x, 0)) = log(x)``, but it takes ``log1p`` on [0.5, 2) and
    rescales a subnormal ``x`` first, which changes bits; musl's is
    ``log(cabs(z))``. A negative ``x`` would give ``log|x|``, not nan.
    """
    if not ((a >= 2.0) | ((a >= _DBL_MIN) & (a < 0.5))).all():
        raise ValueError("_array_log takes elements >= 2 or in [DBL_MIN, 0.5), where clog is log")
    z = a.astype(np.complex128)
    return np.log(z, out=z).real


def _array_exp(a: np.ndarray) -> np.ndarray:
    """The C library's ``exp`` of each element of a 1-d array, for elements <= 708;
    ``ValueError`` on any larger.

    numpy's complex ``exp`` calls ``cexp``, which glibc computes on ``x + 0i``
    as ``exp(x) * cos(0) = exp(x)`` unless ``x`` exceeds 709, where it
    rescales to avoid overflow.
    """
    if (a > 708.0).any():
        raise ValueError("_array_exp takes elements <= 708, where cexp is exp")
    z = a.astype(np.complex128)
    return np.exp(z, out=z).real


def _ndtri_mid(y):
    """ndtri for exp(-2) < y < 1 - exp(-2)."""
    y = y - 0.5
    y2 = y * y
    return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI


def _ndtri_tail(x, log, p, q):
    """-ndtri(y) for y <= exp(-2), from x = sqrt(-2 log y) >= 2; ``log`` is the C
    library's (``math.log`` or ``_array_log``), a parameter so that a test can
    substitute numpy's."""
    z = 1.0 / x
    return x - log(x) / x - z * _polevl(z, p) / _p1evl(z, q)


def _ndtri_tails(y: np.ndarray) -> np.ndarray:
    """-ndtri(y) for a 1-d array DBL_MIN <= y <= exp(-2)."""
    x = np.sqrt(-2.0 * _array_log(y))
    far = x >= 8.0  # y < exp(-32): rare, so P1/Q1 runs on all and is overwritten
    out = _ndtri_tail(x, _array_log, _P1, _Q1)
    if far.any():
        out[far] = _ndtri_tail(x[far], _array_log, _P2, _Q2)
    return out


def _ndtri_float(y: float) -> float:
    """ndtri of one float: the array body's branches taken with ``if``, on the same helpers."""
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    upper = y > 1.0 - _EXP_M2
    t = 1.0 - y if upper else y
    if t > _EXP_M2:
        return _ndtri_mid(t)
    x = math.sqrt(-2.0 * math.log(t))
    x = _ndtri_tail(x, math.log, *((_P1, _Q1) if x < 8.0 else (_P2, _Q2)))
    return x if upper else -x


def ndtri(y):
    """Inverse of the standard normal CDF, bit-equal to ``scipy.special.ndtri``.

    A scalar (a Python or numpy float, or a 0-d array) gives a Python float
    from ``_ndtri_float``; an array gives a float64 array of its shape.
    ``ndtri(0) = -inf``, ``ndtri(1) = inf``; outside [0, 1] the result is nan
    (a nan's sign bit may differ from scipy's).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        return _ndtri_float(float(y))
    # the edges, nan, values outside (0, 1) and subnormals, whose log
    # _array_log refuses, take the scalar path
    regular = (y >= _DBL_MIN) & (y < 1.0)
    if not regular.all():
        out = np.empty_like(y)
        out[regular] = ndtri(y[regular])
        out[~regular] = [_ndtri_float(v) for v in y[~regular].tolist()]
        return out
    # y > 1 - exp(-2) gives 1 - y < exp(-2) exactly, so only tails are flipped
    upper = y > 1.0 - _EXP_M2
    t = np.where(upper, 1.0 - y, y)
    out = _ndtri_mid(t)  # P0/Q0 everywhere is cheaper than selecting; tails overwrite
    tail = np.flatnonzero(t <= _EXP_M2)
    if tail.size:
        x = _ndtri_tails(np.take(t, tail))
        np.put(out, tail, np.where(np.take(upper, tail), x, -x))
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """erf for |x| <= 1; odd by construction, as Cephes's erf(-x) = -erf(x)."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_rational(x: np.ndarray, p, q) -> np.ndarray:
    return _array_exp(-x * x) * _polevl(x, p) / _p1evl(x, q)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc for x >= sqrt(1/2); 0 where exp(-x**2) would underflow."""
    return np.piecewise(
        x,
        [x < 1.0, (x >= 1.0) & (x < 8.0), -x * x < -_MAXLOG],
        [lambda v: 1.0 - _erf(v), lambda v: _erfc_rational(v, _P, _Q), 0.0,
         lambda v: _erfc_rational(v, _R, _S)],
    )


def ndtr(a) -> np.ndarray:
    """Standard normal CDF of a float64 array, bit-equal to ``scipy.special.ndtr``.

    A nan gives a nan, whose sign bit may differ from scipy's.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    near = z < _SQRT1_2
    out = np.empty_like(x)
    out[near] = 0.5 + 0.5 * _erf(x[near])
    far = 0.5 * _erfc(z[~near])
    out[~near] = np.where(x[~near] > 0.0, 1.0 - far, far)
    return out
