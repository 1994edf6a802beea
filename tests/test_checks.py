"""One rule for the numbers the library is given (``gbmtails._checks``).

Every entry point that takes a real parameter refuses a bool and a string
with a ``TypeError`` naming the field, and keeps an int or a float32 as the
Python float it equals, so a float32 input computes in float64. Every entry
point that takes an array refuses a bool or a string array the same way,
refuses a NaN with a ``ValueError``, and computes an int or a float32 array
as the float64 array it equals.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gbmtails
from gbmtails._checks import _integer, _real, _real_array
from gbmtails.agents import HiaParams, Population, init_population, run_hia, step_population
from gbmtails.dpareto import (DoubleParetoDist, classify_regime, dpareto_cdf, dpareto_pdf,
                              dpareto_quantile, exponent_curves, solve_exponents_canonical)
from gbmtails.fitting import SampleSet
from gbmtails.killing import KilledSample, KillSchedule, kill_time_from_uniform
from gbmtails.sde import GbmParams, SamplePath, terminal_log_law

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


DIST = DoubleParetoDist(1.0, 1.5, 0.8)
AGENTS = HiaParams(n_agents=3, noise_std=0.3)

# name -> (build from the array, the argument it sets, the result as one
# array, a float64 array every float32 holds exactly, an int array it
# accepts; None: no int array is accepted)
ARRAY_ENTRY_POINTS = {
    "SampleSet.values": (SampleSet, "values", lambda o: o.values,
                         [0.5, 2.0, 3.0], [1, 2, 3]),
    "Population.sizes": (Population, "sizes", lambda o: o.sizes, [0.5, 2.0, 3.0], [1, 2, 3]),
    "SamplePath.times": (lambda v: SamplePath(times=v, values=np.ones(3)), "times",
                         lambda o: o.times, [0.0, 0.5, 2.0], [0, 1, 2]),
    "SamplePath.values": (lambda v: SamplePath(times=np.arange(3.0), values=v), "values",
                          lambda o: o.values, [0.5, 2.0, 3.0], [1, 2, 3]),
    "dpareto_pdf.levels": (lambda v: dpareto_pdf(DIST, v), "levels", lambda o: o,
                           [0.5, 2.0, 10.0], [1, 2, 10]),
    "dpareto_cdf.levels": (lambda v: dpareto_cdf(DIST, v), "levels", lambda o: o,
                           [0.5, 2.0, 10.0], [1, 2, 10]),
    "dpareto_quantile.probabilities": (lambda v: dpareto_quantile(DIST, v), "probabilities",
                                       lambda o: o, [0.25, 0.5, 0.75], None),
    "exponent_curves.alpha_grid": (lambda v: exponent_curves(0.05, 0.01, v), "alpha grid values",
                                   lambda o: o, [0.125, 0.5, 2.0], [1, 2, 3]),
    "kill_time_from_uniform.u": (lambda v: kill_time_from_uniform(v, KillSchedule(nu=0.01)), "u",
                                 lambda o: o, [0.0, 0.25, 0.5], [0, 0, 0]),
    "init_population.shocks": (lambda v: init_population(AGENTS, v), "shocks",
                               lambda o: o.sizes, [-1.0, 0.0, 2.5], [-1, 0, 2]),
    "step_population.shocks": (lambda v: step_population(Population(np.arange(1.0, 4.0)),
                                                         AGENTS, v), "shocks",
                               lambda o: o.sizes, [-1.0, 0.0, 2.5], [-1, 0, 2]),
}


@pytest.mark.parametrize("dtype", [bool, str], ids=["bool", "numeric_string"])
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_bool_and_string_arrays_are_refused_naming_the_argument(entry, dtype):
    build, name, _, values, _ = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be real numbers, got dtype"):
        build(np.array(values).astype(dtype))


@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_a_nan_is_refused_naming_the_argument(entry):
    build, name, _, values, _ = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite numbers"):
        build(np.array(values[:-1] + [math.nan]))


@pytest.mark.parametrize("entry,narrow", [
    pytest.param(entry, narrow, id=f"{entry}-{narrow.dtype}")
    for entry, (*_, values, ints) in ARRAY_ENTRY_POINTS.items()
    for narrow in [np.array(values, np.float32)] + ([np.array(ints)] if ints else [])
])
def test_int_and_float32_arrays_give_the_float64_results_bit_for_bit(entry, narrow):
    build, _, result, _, _ = ARRAY_ENTRY_POINTS[entry]
    wide = np.asarray(result(build(narrow.astype(np.float64))))
    assert wide.dtype == np.float64
    assert np.asarray(result(build(narrow))).tobytes() == wide.tobytes()


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

    def test_real_array(self):
        out = _real_array("v", [1, np.float32(2.5)], 0.0, strict=True)
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.5]
        wide = np.arange(4.0)[::2]
        assert _real_array("v", wide, 0.0) is wide  # float64 is never copied
        assert _real_array("v", np.uint64(2**63)).tolist() == 2.0**63
        assert _real_array("v", [-1e300, 0]).tolist() == [-1e300, 0.0]
        for bad in ([True], ["1"], [1, None], [Fraction(1, 2)], [1j], "1", None):
            with pytest.raises(TypeError, match="^v must be real numbers, got dtype"):
                _real_array("v", bad)
        for bad in ([1.0, 0.0], [1.0, -2.0], [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="^v must be finite numbers > 0$"):
                _real_array("v", bad, 0.0, strict=True)
        with pytest.raises(ValueError, match="^v must be finite numbers >= 0$"):
            _real_array("v", [0.0, -0.5], 0.0)
        with pytest.raises(ValueError, match="^v must be finite numbers$"):
            _real_array("v", [-math.inf])


def test_only_checks_decides_what_a_number_is():
    """The numeric rule lives in ``_checks``: no other module imports ``numbers``,
    and only the JSON rules (``cli``'s parameters, ``serialization``'s encoder)
    ask whether a value is a bool."""
    importers, bool_tests = set(), set()
    for path in sorted(Path(gbmtails.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                importers.add(path.stem)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                bool_tests.add(path.stem)
    assert importers == {"_checks"}
    assert "_checks" in bool_tests and bool_tests <= {"_checks", "cli", "serialization"}
