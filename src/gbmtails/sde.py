"""Geometric Brownian motion: exact terminal-law sampling and Euler paths.

The process is dX = r X dt + alpha X dB (Ito interpretation). Its log is
Brownian with drift, so the terminal value at a fixed horizon has a
closed-form lognormal law. Every exact draw, at a fixed horizon here or at
a random one in ``killing``, goes through :func:`terminal_log_from_normals`
and, in levels, :func:`levels_from_logs`, which rejects a level outside
float64 (``inf`` or ``0``); ``sample_terminal_log_batch`` gives the logs.
The Euler discretization exists for validation, not production sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _integer, _real, _real_array
from .rng import RngStream, StreamUniformBlock, normals_from_uniforms


@dataclass(frozen=True)
class GbmParams:
    """Process parameters: initial level, drift per unit time, volatility per sqrt(time).

    Each is stored as a finite ``float`` (``_checks._real``): x0 > 0, alpha >= 0.
    """

    x0: float
    r: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "x0", _real("x0", self.x0, 0.0, strict=True))
        object.__setattr__(self, "r", _real("r", self.r))
        object.__setattr__(self, "alpha", _real("alpha", self.alpha, 0.0))

    @property
    def log_drift(self) -> float:
        """Drift of the log process, r - alpha**2 / 2."""
        return self.r - 0.5 * self.alpha * self.alpha


@dataclass(frozen=True)
class LogTerminalLaw:
    """Normal law of ln X_t at a fixed horizon: a finite ``float`` mean and variance >= 0."""

    mean: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", _real("mean", self.mean))
        object.__setattr__(self, "variance", _real("variance", self.variance, 0.0))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class SamplePath:
    """Discretized trajectory. ``resampled`` counts positivity-rejected increments.

    ``times`` must be finite and rise strictly from 0, ``values`` finite and > 0.
    """

    times: np.ndarray
    values: np.ndarray
    resampled: int = 0

    def __post_init__(self):
        times = _real_array("times", self.times)
        values = _real_array("values", self.values, 0.0, strict=True)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def terminal_log_law(params: GbmParams, t: float) -> LogTerminalLaw:
    """Closed-form law of ln X_t: Normal(ln x0 + (r - alpha^2/2) t, alpha^2 t)."""
    t = _real("t", t, 0.0)
    mean = math.log(params.x0) + params.log_drift * t
    variance = params.alpha * params.alpha * t
    return LogTerminalLaw(mean=mean, variance=variance)


def terminal_log_from_normals(params: GbmParams, t, z):
    """ln x0 + (r - alpha^2/2) t + alpha sqrt(t) z: the exact ln X_t given the shock ``z``.

    ``t`` and ``z`` are scalars or arrays of one shape; ``t`` is not checked.
    """
    return math.log(params.x0) + params.log_drift * t + np.sqrt(params.alpha * params.alpha * t) * z


def levels_from_logs(params: GbmParams, logs) -> np.ndarray:
    """exp of sampled log levels; ValueError if one is inf, 0 or NaN in float64."""
    with np.errstate(over="ignore"):
        levels = np.exp(logs)
    if not np.all((levels > 0) & (levels < np.inf)):
        raise ValueError(
            f"GBM levels at x0={params.x0!r}, r={params.r!r}, alpha={params.alpha!r} "
            "do not fit in float64: a level is inf, 0 or NaN"
        )
    return levels


def sample_terminal_log(params: GbmParams, t: float, rng: RngStream) -> float:
    """Exact draw of ln X_t (no discretization error)."""
    t = _real("t", t, 0.0)
    terminal_log_law(params, t)  # rejects a law that is not finite
    return float(terminal_log_from_normals(params, t, rng.normal()))


def sample_terminal_log_batch(
    params: GbmParams, t: float, n: int, master_seed: int
) -> np.ndarray:
    """n exact draws of ln X_t; draw i comes from stream ``i`` of ``master_seed``.

    Output is a pure function of (params, t, n, master_seed) and therefore
    independent of how callers shard the work.
    """
    n, t = _integer("n", n, 1), _real("t", t, 0.0)
    terminal_log_law(params, t)  # rejects a law that is not finite
    return StreamUniformBlock(master_seed, width=1).rows(
        lambda u: terminal_log_from_normals(params, t, normals_from_uniforms(u[:, 0])),
        0, n, np.empty(n))


def sample_terminal_levels(
    params: GbmParams, t: float, n: int, master_seed: int
) -> np.ndarray:
    """n exact draws of X_t in levels; ValueError if one is inf or 0 in float64."""
    return levels_from_logs(params, sample_terminal_log_batch(params, t, n, master_seed))


def euler_path(params: GbmParams, t: float, n_steps: int, rng: RngStream) -> SamplePath:
    """Explicit Euler discretization X_{k+1} = X_k (1 + r dt + alpha sqrt(dt) Z_k).

    The multiplicative update can go non-positive when alpha*sqrt(dt) is
    large; such increments are rejected and redrawn (counted in
    ``SamplePath.resampled``), which preserves positivity at the cost of a
    small, vanishing-with-dt truncation of the Gaussian left tail.
    Increments are drawn as one block per path; redraws happen afterwards
    in step order, so paths with zero rejections consume exactly
    ``n_steps`` normals.
    """
    t, n_steps = _real("t", t, 0.0, strict=True), _integer("n_steps", n_steps, 1)
    dt = t / n_steps
    drift = 1.0 + params.r * dt
    vol = params.alpha * math.sqrt(dt)
    if vol == 0.0 and drift <= 0.0:
        raise ValueError(
            "step size too coarse: 1 + r*dt <= 0 with zero volatility cannot stay positive"
        )
    growth = drift + vol * rng.normals(n_steps)
    resampled = 0
    for k in np.flatnonzero(growth <= 0.0):
        g = growth[k]
        while g <= 0.0:
            g = drift + vol * rng.normal()
            resampled += 1
        growth[k] = g
    values = np.empty(n_steps + 1)
    values[0] = params.x0
    np.cumprod(growth, out=values[1:])
    values[1:] *= params.x0
    times = np.linspace(0.0, t, n_steps + 1)
    return SamplePath(times=times, values=values, resampled=resampled)
