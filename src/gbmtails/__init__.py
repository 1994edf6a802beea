"""Killed geometric Brownian motion and double-Pareto tail analytics.

Simulate GBM exactly, observe it at an exponentially distributed random
horizon, work with the resulting double-Pareto law in closed form, solve
and classify its tail exponents, and fit/compare heavy-tail models on
simulated or external samples.
"""

__version__ = "0.1.0"

from .agents import HiaParams, Population, init_population, run_hia, run_sweep, step_population
from .dpareto import (
    DoubleParetoDist,
    ExponentSolution,
    LimitRecord,
    LimitReport,
    Regime,
    classify_regime,
    dpareto_cdf,
    dpareto_log_mgf,
    dpareto_pdf,
    dpareto_quantile,
    exponent_curves,
    killed_state_dist,
    limit_table,
    solve_exponents_canonical,
    solve_exponents_signed,
)
from .fitting import (
    DegenerateInputError,
    FitReport,
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
from .killing import (
    KillSchedule,
    KilledSample,
    kill_time_from_uniform,
    sample_kill_time,
    sample_killed_batch,
    sample_killed_state,
    write_batch_csv,
)
from .rng import RngStream
from .sde import (
    GbmParams,
    LogTerminalLaw,
    SamplePath,
    euler_path,
    sample_terminal_levels,
    sample_terminal_log,
    sample_terminal_log_batch,
    terminal_log_law,
)

__all__ = [
    "__version__",
    "RngStream",
    "GbmParams",
    "LogTerminalLaw",
    "SamplePath",
    "terminal_log_law",
    "sample_terminal_log",
    "sample_terminal_log_batch",
    "sample_terminal_levels",
    "euler_path",
    "KillSchedule",
    "KilledSample",
    "kill_time_from_uniform",
    "sample_kill_time",
    "sample_killed_state",
    "sample_killed_batch",
    "write_batch_csv",
    "Regime",
    "ExponentSolution",
    "DoubleParetoDist",
    "classify_regime",
    "solve_exponents_canonical",
    "solve_exponents_signed",
    "killed_state_dist",
    "dpareto_pdf",
    "dpareto_cdf",
    "dpareto_quantile",
    "dpareto_log_mgf",
    "LimitRecord",
    "LimitReport",
    "limit_table",
    "exponent_curves",
    "SampleSet",
    "FitReport",
    "DegenerateInputError",
    "OneSidedDataError",
    "SampleCsvError",
    "hill_estimator",
    "fit_lognormal",
    "fit_dpareto_mle",
    "compare_models",
    "default_hill_k",
    "loglog_histogram",
    "read_sample_csv",
    "write_sample_csv",
    "HiaParams",
    "Population",
    "init_population",
    "step_population",
    "run_hia",
    "run_sweep",
]
