"""The package's Cephes ``ndtri``/``ndtr`` port against ``scipy.special``, bit for bit.

Every output byte of the samplers rests on ``ndtri``, so equality here is
exact: float64 bit patterns, not a tolerance. The inputs cover each Cephes
branch and the values on both sides of each branch threshold.
"""

import math

import numpy as np
import pytest
from scipy import special

from gbmtails import _ndtr
from gbmtails._ndtr import _EXP_M2, ndtr, ndtri

U_FLOOR = 2.0**-53
K = np.arange(1, 2_000_001, dtype=float)


def libm(fn, a):
    """``fn`` (``math.log`` or ``math.exp``, the C library's) of each element of a 1-d array."""
    return np.fromiter(map(fn, a.tolist()), float, a.size)


def assert_bits_equal(inputs, got, want):
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (
        f"{bad.size} of {got.size} differ; inputs {inputs.ravel()[bad[:5]].tolist()}")


@pytest.fixture(scope="module")
def uniforms():
    return np.maximum(np.random.default_rng(20_240_917).random(1_000_000), U_FLOOR)


def test_ndtri_random_uniforms(uniforms):
    assert_bits_equal(uniforms, ndtri(uniforms), special.ndtri(uniforms))


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_ndtri_multiples_of_the_uniform_spacing(side):
    # k * 2**-53 reaches exp(-32), where the tail switches from P1/Q1 to P2/Q2
    y = K * U_FLOOR if side == "lower" else 1.0 - K * U_FLOOR
    t = np.minimum(y, 1.0 - y)
    x = np.sqrt(-2.0 * np.log(t))
    assert (x >= 8.0).any() and (x < 8.0).any()
    assert_bits_equal(y, ndtri(y), special.ndtri(y))


@pytest.mark.parametrize("edge", [_EXP_M2, 1.0 - _EXP_M2])
def test_ndtri_around_the_central_branch_edges(edge):
    y = edge + np.arange(-200_000, 200_001) * np.spacing(edge)
    assert (y < edge).any() and (y > edge).any()
    assert_bits_equal(y, ndtri(y), special.ndtri(y))


@pytest.fixture(scope="module")
def log_sensitive(uniforms):
    """Uniforms whose tail logs, log(t) and log(x) with t = min(u, 1 - u) and
    x = sqrt(-2 log t), numpy's own ``log`` rounds differently from the C
    library's; empty where numpy's ``log`` is the C library's."""
    t = np.minimum(uniforms, 1.0 - uniforms)
    tail = (t <= _EXP_M2) & (t > math.exp(-32.0))  # the P1/Q1 tail
    u, t = uniforms[tail], t[tail]
    log_t = libm(math.log, t)
    x = np.sqrt(-2.0 * log_t)
    return {"log(y)": u[np.log(t) != log_t], "log(x)": u[np.log(x) != libm(math.log, x)]}


@pytest.mark.parametrize("swapped", ["log(y)", "log(x)"])
def test_numpy_log_in_either_tail_log_would_fail(log_sensitive, swapped):
    """Both tail logs must be the C library's: with numpy's ``log`` in either
    one, some of these inputs give tail values that differ from scipy's."""
    u = log_sensitive[swapped]
    if u.size == 0:
        pytest.skip("numpy's log equals the C library's on this platform")
    t = np.minimum(u, 1.0 - u)
    if swapped == "log(y)":
        got = _ndtr._ndtri_tail(np.sqrt(-2.0 * np.log(t)), _ndtr._array_log, _ndtr._P1, _ndtr._Q1)
    else:
        got = _ndtr._ndtri_tail(np.sqrt(-2.0 * _ndtr._array_log(t)), np.log, _ndtr._P1, _ndtr._Q1)
    assert (got != -special.ndtri(t)).any()


@pytest.fixture(scope="module")
def tail_domain():
    """What the array tails pass ``_array_log``: y <= exp(-2) on the 2**-53
    grid of the uniforms (random, and the smallest multiples), exp(-2) and
    its lower neighbour, each with its x = sqrt(-2 log y); x from 8, where
    P2/Q2 starts, to 8.58, past x at y = 2**-53; and exp(-2)'s upper
    neighbour, a y the central branch keeps."""
    rng = np.random.default_rng(20_261_020)
    grid = rng.integers(1, int(_EXP_M2 / U_FLOOR) + 1, 1_000_000) * U_FLOOR
    y = np.concatenate([grid, K[:100_000] * U_FLOOR, [np.nextafter(_EXP_M2, 0.0), _EXP_M2]])
    x = np.sqrt(-2.0 * libm(math.log, y))
    assert x.min() == 2.0 and x.max() < 8.58
    return np.concatenate([y, x, np.linspace(8.0, 8.58, 100_001),
                           [np.nextafter(_EXP_M2, 1.0)]])


def test_array_log_is_the_c_librarys_on_the_tail_domain(tail_domain):
    assert_bits_equal(tail_domain, _ndtr._array_log(tail_domain), libm(math.log, tail_domain))


def test_array_exp_is_the_c_librarys_on_the_erfc_domain():
    # _erfc_rational takes exp(-a**2) for 1 <= a and -a**2 >= -_MAXLOG
    rng = np.random.default_rng(20_261_021)
    a = np.concatenate([-rng.uniform(1.0, _ndtr._MAXLOG, 1_000_000),
                        -np.linspace(1.0, 8.0, 100_001) ** 2,
                        [-1.0, -64.0, -_ndtr._MAXLOG, 0.0, 700.0, 708.0]])
    assert_bits_equal(a, _ndtr._array_exp(a), libm(math.exp, a))


@pytest.mark.parametrize("bad", [0.5, 1.0, np.nextafter(2.0, 0.0), np.nextafter(0.5, 1.0),
                                 2.0**-1074, np.nextafter(_ndtr._DBL_MIN, 0.0), 0.0, -3.0,
                                 math.nan])
def test_array_log_refuses_where_clog_is_not_log(bad):
    with pytest.raises(ValueError, match="clog is log"):
        _ndtr._array_log(np.array([3.0, bad, 0.1]))


@pytest.mark.parametrize("bad", [np.nextafter(708.0, 709.0), 709.0, 710.0, math.inf])
def test_array_exp_refuses_above_708(bad):
    with pytest.raises(ValueError, match="cexp is exp"):
        _ndtr._array_exp(np.array([-1.0, bad]))


def test_complex_log_is_not_libm_log_on_the_refused_band():
    """Why ``_array_log`` refuses [0.5, 2): glibc's ``clog`` takes ``log1p``
    there, and some of its bits differ from ``log``'s."""
    a = np.random.default_rng(20_261_022).uniform(0.5, 2.0, 200_000)
    differ = np.log(a.astype(np.complex128)).real != libm(math.log, a)
    if not differ.any():
        pytest.skip("the C library's clog equals its log on [0.5, 2) here")
    assert 0 < differ.sum() < a.size


def test_ndtri_of_subnormals_takes_the_scalar_path(monkeypatch):
    y = np.array([2.0**-1074, 1e-310, np.nextafter(_ndtr._DBL_MIN, 0.0), _ndtr._DBL_MIN, 0.3])
    want = special.ndtri(y)
    assert_bits_equal(y, ndtri(y), want)
    seen = []
    monkeypatch.setattr(_ndtr, "_ndtri_tails", lambda t: seen.append(t) or -special.ndtri(t))
    ndtri(y)
    assert [t.tolist() for t in seen] == [[_ndtr._DBL_MIN]]


def test_ndtri_of_scalars_and_2d_blocks(uniforms, log_sensitive):
    assert ndtri(0.5) == 0.0 and type(ndtri(0.5)) is float
    # a scalar takes _ndtri_float's branches; check it in each branch: both
    # tails, P2/Q2, the centre, and the inputs that tell the C library's log
    # from numpy's
    picks = np.concatenate([uniforms[:2_000], K[:100] * U_FLOOR, 1.0 - K[:100] * U_FLOOR,
                            *log_sensitive.values()])
    for v in picks.tolist():
        want = special.ndtri(v)
        for arg in (v, np.float64(v), np.array(v)):
            got = ndtri(arg)
            assert type(got) is float and np.float64(got).tobytes() == want.tobytes(), v
    block = uniforms[:64 * 50].reshape(50, 64)
    assert_bits_equal(block, ndtri(block), special.ndtri(block))


def test_scalar_path_equals_the_array_kernel(uniforms):
    """``_ndtri_float`` repeats the array body's branch choice with ``if``; on
    every branch, edge and neighbour the two give the same bits."""
    edges = [0.0, 1.0, U_FLOOR, 2.0**-1074, np.nextafter(1.0, 0.0), math.exp(-32.0),
             -0.1, 1.1, math.nan]
    for e in (_EXP_M2, 1.0 - _EXP_M2):
        edges += [np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)]
    y = np.concatenate([uniforms[:100_000], np.exp(-np.linspace(0.0, 700.0, 50_001)),
                        1.0 - np.exp(-np.linspace(0.0, 36.0, 50_001)), edges])
    scalar = np.array([ndtri(v) for v in y.tolist()])
    assert_bits_equal(y, scalar, ndtri(y))


def test_scalars_do_not_run_the_array_tails(monkeypatch):
    def array_tails(y):
        raise AssertionError("a scalar ran the array tails")

    monkeypatch.setattr(_ndtr, "_ndtri_tails", array_tails)
    for v in (0.3, 0.01):
        assert np.float64(ndtri(v)).tobytes() == special.ndtri(v).tobytes()


def test_ndtri_outside_the_open_interval():
    y = np.array([0.0, 1.0, -0.5, 1.5, np.nan, -np.inf, np.inf, 0.3])
    got, want = ndtri(y), special.ndtri(y)
    assert np.array_equal(got, want, equal_nan=True)
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    assert all(math.isnan(ndtri(v)) for v in (-0.5, 1.5, math.nan))
    assert ndtri(np.empty((0, 64))).shape == (0, 64)


@pytest.fixture(scope="module")
def ndtr_inputs():
    rng = np.random.default_rng(20_240_918)
    s = 8.0 / math.sqrt(0.5)
    under = math.sqrt(2.0 * _ndtr._MAXLOG)
    return {
        "normals": rng.standard_normal(500_000),
        "uniform(-40, 40)": rng.uniform(-40.0, 40.0, 500_000),
        # crosses |a| = 1 (erf to erfc) and |a| = sqrt(2) (1 - erf to P/Q)
        "grid": np.linspace(-1.5, 1.5, 600_001),
        # P/Q to R/S at |a| = 8 / sqrt(1/2), and exp(-a**2 / 2) underflowing to 0
        "edges": np.concatenate([
            [s, -s, np.nextafter(s, 0), -np.nextafter(s, 0),
             38.5, -38.5, 40.0, -40.0, 0.0, -0.0, np.inf, -np.inf],
            np.linspace(under - 0.01, under + 0.01, 2_001),
            np.linspace(-under - 0.01, -under + 0.01, 2_001),
        ]),
    }


@pytest.mark.parametrize("name", ["normals", "uniform(-40, 40)", "grid", "edges"])
def test_ndtr(ndtr_inputs, name):
    a = ndtr_inputs[name]
    assert_bits_equal(a, ndtr(a), special.ndtr(a))


def test_ndtr_of_nan():
    assert np.isnan(ndtr(np.array([np.nan]))).all()
