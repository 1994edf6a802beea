"""GBM observed at an exponentially distributed random horizon.

Drawing the horizon T ~ Exp(nu) and then the exact GBM value at T yields a
state whose marginal law is double-Pareto: power tails on both sides of
the initial level. Sampling is exact (horizon first, then the closed-form
terminal draw); no path discretization is ever involved.

``nu = 0`` (never observed) is rejected: the limit is plain lognormal GBM
and callers wanting it should sample the fixed-horizon law directly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, StreamUniformBlock, _integer, normals_from_uniforms
from .sde import GbmParams, levels_from_logs, terminal_log_from_normals
from .serialization import BATCH_CSV_HEADER, atomic_write, write_float_rows, write_text


@dataclass(frozen=True)
class KillSchedule:
    """Exponential observation-horizon rate; mean horizon is 1/nu."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu) or nu <= 0:
            raise ValueError(f"nu must be finite and strictly positive, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class KilledSample:
    """One (horizon, state) observation."""

    kill_time: float
    state: float

    def __post_init__(self):
        if not (self.kill_time >= 0):
            raise ValueError("kill_time must be non-negative")
        if not (self.state > 0):
            raise ValueError("state must be strictly positive")


def kill_time_from_uniform(u, schedule: KillSchedule):
    """Inverse CDF of the exponential horizon; maps u=0 to exactly 0.

    Accepts scalars or arrays in [0, 1).
    """
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise ValueError("uniform input must lie in [0, 1)")
    out = -np.log1p(-u) / schedule.nu
    return float(out) if out.ndim == 0 else out


def sample_kill_time(schedule: KillSchedule, rng: RngStream) -> float:
    """Exponential horizon draw with mean 1/nu."""
    return kill_time_from_uniform(rng.uniform(), schedule)


def _killed_rows(params: GbmParams, schedule: KillSchedule, u: np.ndarray) -> np.ndarray:
    """Map uniform pairs (shape (n, 2)) to (kill_time, state) rows.

    One shared kernel keeps the scalar sampler and the batch sampler
    byte-identical: the first uniform becomes the horizon, the second the
    normal shock of the exact terminal draw at that horizon. A state that
    is inf, 0 or NaN in float64 raises ValueError.
    """
    t = kill_time_from_uniform(u[:, 0], schedule)
    # alpha * alpha * t can overflow and give NaN; levels_from_logs rejects both
    with np.errstate(over="ignore", invalid="ignore"):
        log_state = terminal_log_from_normals(params, t, normals_from_uniforms(u[:, 1]))
    return np.column_stack((t, levels_from_logs(params, log_state)))


def sample_killed_state(
    params: GbmParams, schedule: KillSchedule, rng: RngStream
) -> KilledSample:
    """Draw T, then the exact GBM state at T.

    Consumes exactly two uniforms from the stream: the first for the
    horizon, the second (through the inverse normal CDF) for the state.
    """
    row = _killed_rows(params, schedule, rng.uniforms(2).reshape(1, 2))
    return KilledSample(kill_time=float(row[0, 0]), state=float(row[0, 1]))


def killed_rows_range(
    params: GbmParams, schedule: KillSchedule, master_seed: int, lo: int, hi: int
) -> np.ndarray:
    """Rows lo..hi-1 of the batch keyed by ``master_seed``.

    Row i is a pure function of (params, schedule, master_seed, i), which is
    what makes sharding across workers reassemble byte-identically, and
    blocking too (``StreamUniformBlock.rows``).
    """
    return StreamUniformBlock(master_seed, 2).rows(
        lambda u: _killed_rows(params, schedule, u), lo, hi, np.empty((hi - lo, 2)))


def killed_rows_text(
    params: GbmParams, schedule: KillSchedule, master_seed: int, lo: int, hi: int
) -> bytes:
    """Rows lo..hi-1 as the batch CSV holds them: a pool job's part of the file."""
    fh = io.BytesIO()
    write_float_rows(fh, killed_rows_range(params, schedule, master_seed, lo, hi))
    return fh.getvalue()


def sample_killed_batch(
    params: GbmParams,
    schedule: KillSchedule,
    n: int,
    master_seed: int,
) -> np.ndarray:
    """n independent (kill_time, state) rows; row i replays stream ``i``.

    Returns an array of shape (n, 2), columns (kill_time, state), computed
    as one range; it is byte-identical to any sharding of the range into
    ``killed_rows_range`` calls.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return killed_rows_range(params, schedule, master_seed, 0, n)


def write_batch_csv_fh(fh, batch: np.ndarray) -> None:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != 2:
        raise ValueError("batch must have shape (n, 2)")
    write_text(fh, BATCH_CSV_HEADER + "\n")
    write_float_rows(fh, batch)


def write_batch_csv(path, batch: np.ndarray) -> None:
    """Serialize a killed batch as CSV with header ``kill_time,state``."""
    atomic_write(path, lambda fh: write_batch_csv_fh(fh, batch))
