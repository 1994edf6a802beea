"""One rule for the numbers the library is given (``gbmtails._checks``).

Every entry point that takes a real parameter refuses a bool and a string
with a ``TypeError`` naming the field, and keeps an int or a float32 as the
Python float it equals, so a float32 input computes in float64.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gbmtails._checks import _integer, _positive_array, _real
from gbmtails.agents import HiaParams, run_hia
from gbmtails.dpareto import (DoubleParetoDist, classify_regime, dpareto_cdf,
                              solve_exponents_canonical)
from gbmtails.killing import KilledSample, KillSchedule
from gbmtails.sde import GbmParams, terminal_log_law

PARAMS = GbmParams(x0=1.0, r=0.05, alpha=0.2)

# name -> (build from the value, the field it sets, the results that must be
# Python floats, an int and a float32 the field accepts; None: no int does)
ENTRY_POINTS = {
    "GbmParams.x0": (lambda v: GbmParams(x0=v, r=0.05, alpha=0.2), "x0",
                     lambda o: [o.x0], 2, np.float32(0.3)),
    "GbmParams.r": (lambda v: GbmParams(x0=1.0, r=v, alpha=0.2), "r",
                    lambda o: [o.r], -1, np.float32(0.05)),
    "GbmParams.alpha": (lambda v: GbmParams(x0=1.0, r=0.05, alpha=v), "alpha",
                        lambda o: [o.alpha], 0, np.float32(0.2)),
    "KillSchedule.nu": (lambda v: KillSchedule(nu=v), "nu", lambda o: [o.nu], 1,
                        np.float32(0.01)),
    "KilledSample.kill_time": (lambda v: KilledSample(kill_time=v, state=1.0), "kill_time",
                               lambda o: [o.kill_time], 3, np.float32(0.7)),
    "KilledSample.state": (lambda v: KilledSample(kill_time=0.0, state=v), "state",
                           lambda o: [o.state], 3, np.float32(0.7)),
    "DoubleParetoDist.center": (lambda v: DoubleParetoDist(center=v, m1=1.5, m2=0.8), "center",
                                lambda o: [o.center], 2, np.float32(1.1)),
    "DoubleParetoDist.m1": (lambda v: DoubleParetoDist(center=1.0, m1=v, m2=0.8), "m1",
                            lambda o: [o.m1, o.split], 2, np.float32(1.1)),
    "DoubleParetoDist.m2": (lambda v: DoubleParetoDist(center=1.0, m1=1.5, m2=v), "m2",
                            lambda o: [o.m2, o.split], 2, np.float32(1.1)),
    "HiaParams.noise_std": (lambda v: HiaParams(n_agents=10, noise_std=v), "noise_std",
                            lambda o: [o.noise_std], 1, np.float32(0.3)),
    "HiaParams.drift": (lambda v: HiaParams(n_agents=10, noise_std=0.3, drift=v), "drift",
                        lambda o: [o.drift], -1, np.float32(0.1)),
    "HiaParams.coupling_in": (lambda v: HiaParams(n_agents=10, noise_std=0.3, coupling_in=v),
                              "coupling_in", lambda o: [o.coupling_in], 1, np.float32(0.1)),
    "HiaParams.coupling_out": (lambda v: HiaParams(n_agents=10, noise_std=0.3, coupling_out=v),
                               "coupling_out", lambda o: [o.coupling_out], 1, np.float32(0.1)),
    "HiaParams.floor": (lambda v: HiaParams(n_agents=10, noise_std=0.3, floor=v), "floor",
                        lambda o: [o.floor], None, np.float32(1e-6)),
    "solve_exponents_canonical.r": (lambda v: solve_exponents_canonical(v, 0.2, 0.01), "r",
                                    lambda o: [o.m1_canonical, o.m2_canonical, o.mu],
                                    1, np.float32(0.05)),
    "solve_exponents_canonical.alpha": (lambda v: solve_exponents_canonical(0.05, v, 0.01),
                                        "alpha", lambda o: [o.m1_canonical, o.mu],
                                        1, np.float32(0.2)),
    "solve_exponents_canonical.nu": (lambda v: solve_exponents_canonical(0.05, 0.2, v), "nu",
                                     lambda o: [o.m1_canonical, o.m2_canonical],
                                     1, np.float32(0.01)),
    "classify_regime.r": (lambda v: classify_regime(v, 0.2), "r", lambda o: [o[0]],
                          1, np.float32(0.05)),
    "classify_regime.alpha": (lambda v: classify_regime(0.05, v), "alpha", lambda o: [o[0]],
                              1, np.float32(0.2)),
    "terminal_log_law.t": (lambda v: terminal_log_law(PARAMS, v), "t",
                           lambda o: [o.mean, o.variance], 10, np.float32(0.3)),
}


@pytest.mark.parametrize("bad", [True, "0.3"], ids=["bool", "numeric_string"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bools_and_strings_are_refused_naming_the_field(entry, bad):
    build, field, _, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"^{field} must be a real number"):
        build(bad)


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{type(value).__name__}")
    for entry, (*_, int_value, f32_value) in ENTRY_POINTS.items()
    for value in (int_value, f32_value) if value is not None
])
def test_ints_and_float32s_become_the_floats_they_equal(entry, value):
    build, _, floats, _, _ = ENTRY_POINTS[entry]
    result = build(value)
    assert all(type(v) is float for v in floats(result))
    assert result == build(float(value))


def test_a_float32_rate_gives_the_float64_law_bit_for_bit():
    x = np.array([0.5, 2.0, 10.0])
    narrow = dpareto_cdf(DoubleParetoDist(1.0, np.float32(1.5), 0.8), x)
    assert narrow.tobytes() == dpareto_cdf(DoubleParetoDist(1.0, 1.5, 0.8), x).tobytes()


def test_a_float32_coupling_gives_the_float64_run_bit_for_bit():
    def sizes(coupling):
        params = HiaParams(n_agents=200, noise_std=0.3, coupling_in=coupling, steps=50)
        return run_hia(params, seed=3)[0].sizes.tobytes()

    assert sizes(np.float32(0.125)) == sizes(0.125)


class TestRule:
    def test_integer(self):
        assert _integer("n", np.int64(3), 1) == 3 and type(_integer("n", np.int64(3))) is int
        assert _integer("n", -5) == -5
        for bad in (True, 2.0, "2", None):
            with pytest.raises(TypeError, match="^n must be an integer"):
                _integer("n", bad)
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            _integer("n", 0, 1)

    def test_real(self):
        assert _real("x", Fraction(1, 4), 0.0, strict=True) == 0.25
        assert _real("x", 0, 0.0) == 0.0 and type(_real("x", 0, 0.0)) is float
        for bad in (True, np.bool_(True), "1", None, np.array(1.0), 1j):
            with pytest.raises(TypeError, match="^x must be a real number"):
                _real("x", bad)
        for bad in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValueError, match="^x must be a finite number"):
                _real("x", bad)
        with pytest.raises(ValueError, match=r"^x must be a finite number >= 0, got -1\.0$"):
            _real("x", -1, 0.0)
        with pytest.raises(ValueError, match=r"^x must be a finite number > 0, got 0\.0$"):
            _real("x", 0.0, 0.0, strict=True)

    def test_positive_array(self):
        out = _positive_array("v", [1, np.float32(2.5)])
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.5]
        for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="^v must be finite and strictly positive$"):
                _positive_array("v", bad)
