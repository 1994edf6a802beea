"""Killed geometric Brownian motion and double-Pareto tail analytics.

Simulate GBM exactly, observe it at an exponentially distributed random
horizon, work with the resulting double-Pareto law in closed form, solve
and classify its tail exponents, and fit/compare heavy-tail models on
simulated or external samples.

Each public name imports its module on first use (PEP 562), so importing
the package, or running one CLI command, loads only what is used.
"""

import importlib

__version__ = "0.1.0"

# Module of each public name, in ``__all__`` order.
_EXPORTS = {
    "rng": ("RngStream",),
    "sde": (
        "GbmParams", "LogTerminalLaw", "SamplePath", "terminal_log_law", "sample_terminal_log",
        "sample_terminal_log_batch", "sample_terminal_levels", "euler_path",
    ),
    "killing": (
        "KillSchedule", "KilledSample", "kill_time_from_uniform", "sample_kill_time",
        "sample_killed_state", "sample_killed_batch", "write_batch_csv",
    ),
    "dpareto": (
        "Regime", "ExponentSolution", "DoubleParetoDist", "classify_regime",
        "solve_exponents_canonical", "solve_exponents_signed", "killed_state_dist",
        "dpareto_pdf", "dpareto_cdf", "dpareto_quantile", "dpareto_log_mgf",
        "LimitRecord", "LimitReport", "limit_table", "exponent_curves",
    ),
    "fitting": (
        "SampleSet", "FitReport", "DegenerateInputError", "OneSidedDataError", "SampleCsvError",
        "hill_estimator", "fit_lognormal", "fit_dpareto_mle", "compare_models", "default_hill_k",
        "loglog_histogram", "read_sample_csv", "write_sample_csv",
    ),
    "agents": (
        "HiaParams", "Population", "init_population", "step_population", "run_hia", "run_sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
