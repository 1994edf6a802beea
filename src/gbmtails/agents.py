"""Mean-field interacting-agents size dynamics.

Each agent's size grows multiplicatively with a lognormal shock and
interacts with the population only through the mean size: a redistribution
term ``coupling_in * mean`` feeds every agent, a competition term
``coupling_out * mean * size`` drains proportionally to own size:

    w_i  <-  exp(drift + noise_std * Z_i) * w_i
             + coupling_in * wbar - coupling_out * wbar * w_i

Updates are synchronous: the mean is taken from the pre-update snapshot,
so the result does not depend on agent evaluation order. Agent i's k-th
shock (the initial size is shock 0) is the inverse-CDF normal of draw k of
substream i of the master stream, so exchanging two agents exchanges their
whole shock histories and the update commutes with relabeling. ``run_hia``
builds no stream object per agent: it derives every agent's Philox key in
one pass, and ``_shocks`` draws the schedule 64 steps at a time, each window
one step-major block from ``rng._uniforms``, the fill the batch samplers use
too; ``init_population`` and ``step_population`` take their shocks as
arguments. Sizes are clamped at a positive floor instead of killing agents,
which keeps the population fixed and the fitted tail exponents comparable
across a sweep.

With both couplings at zero every agent is an independent discrete-time
GBM and the size distribution stays lognormal; with positive couplings the
stationary distribution grows a power-law upper tail whose exponent falls
as the shock scale rises. ``run_hia`` measures that shock scale
operationally (the spread of realized one-step log growth rates) and fits
competing tail models to the final sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fitting import (
    MODEL_DOUBLE_PARETO,
    MODEL_PARETO_TAIL,
    FitReport,
    SampleSet,
    compare_models,
)
from ._checks import _integer, _positive_array, _real
from .rng import _child_keys, _uniforms, normals_from_uniforms
from .serialization import BLOCK_ROWS

# Steps of shocks in one window; a multiple of 4, so a window from draw 0 on
# starts on a Philox block.
_BLOCK = 64


@dataclass(frozen=True)
class HiaParams:
    """Simulation settings: at least 2 agents and 1 step, every real a finite ``float``.

    noise_std and the couplings are >= 0, and 0 < floor < 1.
    """

    n_agents: int
    noise_std: float
    drift: float = 0.0
    coupling_in: float = 0.0
    coupling_out: float = 0.0
    steps: int = 1
    floor: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "n_agents", _integer("n_agents", self.n_agents, 2))
        object.__setattr__(self, "steps", _integer("steps", self.steps, 1))
        for name, low in (("noise_std", 0.0), ("drift", -math.inf), ("coupling_in", 0.0),
                          ("coupling_out", 0.0)):
            object.__setattr__(self, name, _real(name, getattr(self, name), low))
        object.__setattr__(self, "floor", _real("floor", self.floor, 0.0, strict=True))
        if self.floor >= 1:
            raise ValueError("floor must satisfy 0 < floor < 1 (below the typical initial size)")


@dataclass(frozen=True)
class Population:
    """Agent sizes after ``step`` updates. ``clamped`` counts the agent
    updates, initial draw included, that were raised to the floor.

    ``sizes`` is a non-empty 1-d array of finite positive values and
    ``step`` an int >= 0."""

    sizes: np.ndarray
    step: int = 0
    clamped: int = 0

    def __post_init__(self):
        sizes = _positive_array("sizes", self.sizes)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("sizes must be a non-empty 1-d array")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "step", _integer("step", self.step, 0))


def _stable_mean(sizes: np.ndarray) -> float:
    # summed in sorted order so the mean is invariant under agent permutation
    return float(np.sum(np.sort(sizes)) / sizes.size)


def _clamp(sizes: np.ndarray, floor: float) -> int:
    """Raise sizes below ``floor`` to it in place; returns how many were raised."""
    clamped = int(np.count_nonzero(sizes < floor))
    np.maximum(sizes, floor, out=sizes)
    return clamped


def _checked_shocks(params: HiaParams, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (params.n_agents,):
        raise ValueError(f"shocks must have shape ({params.n_agents},), got {z.shape}")
    return z


def init_population(params: HiaParams, z) -> Population:
    """Lognormal initial sizes exp(noise_std * z), one normal per agent, clamped at the floor."""
    sizes = np.exp(params.noise_std * _checked_shocks(params, z))
    clamped = _clamp(sizes, params.floor)
    return Population(sizes=sizes, step=0, clamped=clamped)


def _update_sizes(sizes: np.ndarray, growth: np.ndarray, params: HiaParams) -> np.ndarray:
    """Synchronous update core, before the floor: equivariant under joint
    permutation of sizes and growth factors (the mean is order-independent
    by sorted summation), which is what makes agents exchangeable."""
    wbar = _stable_mean(sizes)
    return growth * sizes + params.coupling_in * wbar - params.coupling_out * wbar * sizes


def step_population(pop: Population, params: HiaParams, z) -> Population:
    """One synchronous update of every agent with shocks ``z``; mean taken before the update."""
    sizes = pop.sizes
    if sizes.size != params.n_agents:
        raise ValueError("population size does not match params.n_agents")
    z = _checked_shocks(params, z)
    growth = np.exp(params.drift + params.noise_std * z)
    new_sizes = _update_sizes(sizes, growth, params)
    clamped = _clamp(new_sizes, params.floor)
    return Population(sizes=new_sizes, step=pop.step + 1, clamped=pop.clamped + clamped)


def _shocks(keys: tuple, count: int, start: int = 0):
    """Yield shocks start..start+count-1 of the agents whose Philox keys are ``keys``.

    Shock k of agent i is the normal of draw k of the stream keyed
    ``(keys[0][i], keys[1][i])``. Each window of 64 steps is one step-major
    block of uniforms from ``_uniforms``; its rows become normals in place,
    BLOCK_ROWS values at a time, and are yielded.
    """
    for lo in range(start, start + count, _BLOCK):
        z = _uniforms(*keys, lo, min(lo + _BLOCK, start + count))
        flat = z.reshape(-1)  # a view: the rows are C-contiguous
        for a in range(0, flat.size, BLOCK_ROWS):
            flat[a:a + BLOCK_ROWS] = normals_from_uniforms(flat[a:a + BLOCK_ROWS])
        yield from z


def run_hia(params: HiaParams, seed: int) -> tuple[Population, float, FitReport]:
    """Full simulation: returns (final population, effective_alpha, FitReport).

    ``effective_alpha`` is the realized internal shock scale: the standard
    deviation of per-agent one-step log growth rates over the final 10% of
    steps. The FitReport compares tail models on the final sizes, so the
    population must have at least 10 agents.
    """
    n_agents = _integer("n_agents", params.n_agents, 10)  # for the model comparison
    shocks = _shocks(_child_keys(seed, 0, n_agents), params.steps + 1)
    pop = init_population(params, next(shocks))
    window = max(1, params.steps // 10)
    window_start = params.steps - window
    rates = np.empty(window * n_agents)
    log_growth = rates.reshape(window, n_agents)
    for k in range(params.steps):
        prev = pop.sizes
        pop = step_population(pop, params, next(shocks))
        if k >= window_start:
            np.log(pop.sizes / prev, out=log_growth[k - window_start])
    effective_alpha = float(np.std(rates))
    report = compare_models(
        SampleSet(pop.sizes, source=f"hia(seed={seed}, noise_std={params.noise_std})")
    )
    return pop, effective_alpha, report


@dataclass(frozen=True)
class SweepPoint:
    noise_std: float
    coupling: float  # coupling_out when that is the varied field, else coupling_in
    effective_alpha: float
    m1_hat: float
    preferred_model: str


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    spearman_rho: float
    varied: str
    clamped: int  # Population.clamped summed over every run


def _fitted_m1(report: FitReport) -> float:
    """Tail exponent used in sweep summaries: double-Pareto m1, else Hill."""
    for fit in report.fits:
        if fit.model == MODEL_DOUBLE_PARETO:
            return fit.parameters["m1"]
    for fit in report.fits:
        if fit.model == MODEL_PARETO_TAIL:
            return fit.parameters["exponent"]
    return math.nan


_SEED_STRIDE = 100000  # run seeds of consecutive sweep points lie this far apart


def run_sweep(
    base: HiaParams,
    vary: str,
    values,
    n_seeds: int,
    master_seed: int,
    map=map,
) -> SweepResult:
    """Sweep one parameter, averaging each point over ``n_seeds`` replicate runs.

    Returns per-point means of effective_alpha and fitted m1 plus the
    Spearman rank correlation between the varied values and mean m1. Run
    seeds are ``master_seed + 100000 * point_index + replicate``, so more
    than 100000 seeds, or a master seed that puts the last run seed past
    2**64 - 1, is rejected before any run: either would alias runs. The runs
    are independent and go to ``map(run_hia, params_list, seeds)``: serial by
    default; the ``sweep`` command passes its process map, which runs them here
    on one usable CPU. A map that returns results in order gives the same result.
    """
    if vary not in ("noise_std", "coupling_in", "coupling_out"):
        raise ValueError(f"cannot vary {vary!r}")
    values = [_real(vary, v) for v in values]
    if len(values) < 2:
        raise ValueError("sweep needs at least 2 points")
    n_seeds = _integer("n_seeds", n_seeds, 1)
    if n_seeds > _SEED_STRIDE:
        raise ValueError(f"n_seeds must be <= {_SEED_STRIDE}, got {n_seeds}")
    max_seed = 2**64 - 1 - _SEED_STRIDE * (len(values) - 1) - (n_seeds - 1)
    if master_seed > max_seed:
        raise ValueError(f"master seed {master_seed} puts run seeds past 2**64 - 1; "
                         f"{len(values)} points x {n_seeds} seeds allow at most {max_seed}")

    grid = [replace(base, **{vary: v}) for v in values]
    runs = list(map(
        run_hia,
        [params for params in grid for _ in range(n_seeds)],
        [master_seed + _SEED_STRIDE * pi + rep
         for pi in range(len(grid)) for rep in range(n_seeds)],
    ))
    points = []
    for pi, params in enumerate(grid):
        replicates = runs[pi * n_seeds:(pi + 1) * n_seeds]
        m1s = [_fitted_m1(report) for _, _, report in replicates]
        points.append(
            SweepPoint(
                noise_std=params.noise_std,
                coupling=params.coupling_out if vary == "coupling_out" else params.coupling_in,
                effective_alpha=float(np.mean([eff_alpha for _, eff_alpha, _ in replicates])),
                # no model fits a zero-noise point; nanmean of all-NaN would warn
                m1_hat=math.nan if all(math.isnan(m) for m in m1s) else float(np.nanmean(m1s)),
                preferred_model=_modal([report.preferred for _, _, report in replicates
                                        if report.preferred is not None]),
            )
        )
    varied_values = np.array(values)
    m1_means = np.array([p.m1_hat for p in points])
    rho = spearmanr(varied_values, m1_means)
    clamped = sum(pop.clamped for pop, _, _ in runs)
    return SweepResult(points=tuple(points), spearman_rho=rho, varied=vary, clamped=clamped)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearmanr(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of the average ranks.

    NaN when either input contains NaN or is constant.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any() or np.ptp(x) == 0 or np.ptp(y) == 0:
        return math.nan
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def _modal(labels: list[str]) -> str:
    """Most frequent label, alphabetically first among ties; "none" if empty."""
    return max(sorted(set(labels)), key=labels.count) if labels else "none"


SWEEP_CSV_HEADER = "noise_std,coupling,effective_alpha,m1_hat,preferred_model,spearman_rho"


def sweep_csv_text(result: SweepResult) -> str:
    lines = [SWEEP_CSV_HEADER]
    for p in result.points:
        lines.append(
            "%.17g,%.17g,%.17g,%.17g,%s,%.17g"
            % (p.noise_std, p.coupling, p.effective_alpha, p.m1_hat,
               p.preferred_model, result.spearman_rho)
        )
    return "\n".join(lines) + "\n"
