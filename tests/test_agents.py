import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.stats import kstest

from gbmtails import agents, rng
from gbmtails.agents import (
    HiaParams,
    Population,
    _modal,
    _shocks,
    _update_sizes,
    init_population,
    run_hia,
    run_sweep,
    spearmanr,
    step_population,
    sweep_csv_text,
)
from gbmtails.fitting import SampleSet, compare_models
from gbmtails.rng import RngStream, _child_keys, normals_from_uniforms
from gbmtails.sde import GbmParams, terminal_log_law
from gbmtails.serialization import BLOCK_ROWS, dumps


def children(seed: int, n: int) -> list[RngStream]:
    """Substreams 0..n-1 of the master stream ``(seed, 0)``, each built once."""
    master = RngStream(seed, 0)
    return [master.substream(i) for i in range(n)]


def per_child_shocks(streams: list[RngStream]) -> np.ndarray:
    """The next shock of each agent: one ``uniform()`` of its child stream each."""
    return normals_from_uniforms(np.array([child.uniform() for child in streams]))


def reference_run_hia(p: HiaParams, seed: int):
    """run_hia written out with one ``substream(i).uniform()`` per agent per
    step; returns (sizes, effective_alpha, report, floor clamp count)."""
    streams = children(seed, p.n_agents)

    def normals():
        return per_child_shocks(streams)

    def clamp(x):
        return np.maximum(x, p.floor), int(np.sum(x < p.floor))

    sizes, clamped = clamp(np.exp(p.noise_std * normals()))
    window_start = p.steps - max(1, p.steps // 10)
    log_growth = []
    for k in range(p.steps):
        growth = np.exp(p.drift + p.noise_std * normals())
        wbar = float(np.sum(np.sort(sizes)) / sizes.size)
        new, c = clamp(growth * sizes + p.coupling_in * wbar - p.coupling_out * wbar * sizes)
        clamped += c
        if k >= window_start:
            log_growth.append(np.log(new / sizes))
        sizes = new
    report = compare_models(
        SampleSet(sizes, source=f"hia(seed={seed}, noise_std={p.noise_std})"))
    return sizes, float(np.std(np.concatenate(log_growth))), report, clamped


def shocks(p: HiaParams, seed: int):
    """run_hia's shock generator: init shock, then one per step."""
    return _shocks(_child_keys(seed, 0, p.n_agents), p.steps + 1)


@pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("n", [5, 1, 300])  # 300 x 64 values: two transforms a block
def test_shocks_equal_per_child_draws(n, count):
    keys = _child_keys(31, 4, n)
    got = list(_shocks(keys, count))
    assert len(got) == count and all(z.shape == (n,) for z in got)
    draws = np.array([RngStream(31, 4).substream(i).uniforms(2 * count) for i in range(n)])
    expected = normals_from_uniforms(draws[:, :count]).T
    assert np.array(got).tobytes() == np.ascontiguousarray(expected).tobytes()
    # nothing is skipped or read twice: continuing from count gives draws count onward
    after = np.array(list(_shocks(keys, count, start=count)))
    expected = normals_from_uniforms(draws[:, count:]).T
    assert after.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_shocks_in_7_row_blocks_equal_one_pass(monkeypatch):
    """Chunks of 7 counters x agents, agents split mid-block, and transforms of
    7 values give the same shocks."""
    keys = _child_keys(8, 0, 30)
    whole = np.array(list(_shocks(keys, 70, start=3)))
    monkeypatch.setattr(rng, "BLOCK_ROWS", 7)
    monkeypatch.setattr(agents, "BLOCK_ROWS", 7)
    assert np.array(list(_shocks(keys, 70, start=3))).tobytes() == whole.tobytes()


def test_shocks_transform_at_most_block_rows_values(monkeypatch):
    """600 agents x 64 steps exceed BLOCK_ROWS; each transform stays within it."""
    sizes = []

    def recording(u):
        sizes.append(np.size(u))
        return normals_from_uniforms(u)

    monkeypatch.setattr(agents, "normals_from_uniforms", recording)
    got = list(_shocks(_child_keys(8, 0, 600), 70))
    assert len(got) == 70 and sum(sizes) == 600 * 70
    assert 600 * 64 > BLOCK_ROWS and max(sizes) <= BLOCK_ROWS


def test_shocks_hold_one_block_a_window():
    """A 64-step window of 20,000 agents holds its step-major block and no
    second block of uniforms or transposed normals beside it."""
    n, width = 20000, 64
    keys = _child_keys(8, 0, n)  # built before tracing: not the window's to count
    tracemalloc.start()
    try:
        for _ in _shocks(keys, width):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * width * n * 8


def params(**overrides) -> HiaParams:
    base = dict(
        n_agents=100, noise_std=0.3, drift=0.0, coupling_in=0.1,
        coupling_out=0.1, steps=5, floor=1e-6,
    )
    base.update(overrides)
    return HiaParams(**base)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(n_agents=1)
        with pytest.raises(ValueError):
            params(noise_std=-0.1)
        with pytest.raises(ValueError):
            params(coupling_in=-1.0)
        with pytest.raises(ValueError):
            params(steps=0)
        with pytest.raises(ValueError):
            params(floor=0.0)
        with pytest.raises(ValueError):
            params(floor=1.5)

    def test_population_validation(self):
        with pytest.raises(ValueError):
            Population(sizes=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Population(sizes=np.array([]))


class TestInit:
    def test_zero_noise_gives_unit_sizes(self):
        p = params(noise_std=0.0)
        pop = init_population(p, next(shocks(p, 1)))
        assert np.all(pop.sizes == 1.0)
        assert pop.step == 0

    def test_log_moments(self):
        p = params(n_agents=10_000, noise_std=1.0)
        pop = init_population(p, next(shocks(p, 3)))
        assert abs(np.mean(np.log(pop.sizes))) < 3 * (1.0 / 100)

    def test_determinism(self):
        p = params()
        a = init_population(p, next(shocks(p, 9)))
        b = init_population(p, next(shocks(p, 9)))
        assert a.sizes.tobytes() == b.sizes.tobytes()

    def test_floor_clamp(self):
        p = params(n_agents=5000, noise_std=5.0, floor=0.5)
        pop = init_population(p, next(shocks(p, 2)))
        assert np.all(pop.sizes >= 0.5)


@pytest.mark.parametrize("z", [0.5, np.zeros(3), np.zeros((4, 1))], ids=["scalar", "n-1", "n-by-1"])
def test_shocks_of_the_wrong_shape_are_rejected(z):
    p = params(n_agents=4)
    with pytest.raises(ValueError, match="shape"):
        init_population(p, z)
    with pytest.raises(ValueError, match="shape"):
        step_population(Population(sizes=np.ones(4)), p, z)


class TestClampCount:
    def test_zero_noise_without_clamping_counts_zero(self):
        p = params(noise_std=0.0, steps=10)
        z = shocks(p, 1)
        pop = init_population(p, next(z))
        for _ in range(p.steps):
            pop = step_population(pop, p, next(z))
        assert pop.clamped == 0

    def test_count_matches_hand_stepped_loop(self):
        p = params(n_agents=200, noise_std=5.0, floor=0.5, steps=12)
        streams = children(6, p.n_agents)
        pop = init_population(p, per_child_shocks(streams))
        for _ in range(p.steps):
            pop = step_population(pop, p, per_child_shocks(streams))
        *_, expected = reference_run_hia(p, seed=6)
        assert pop.clamped > 0
        assert pop.clamped == expected


class TestStep:
    def test_decoupled_deterministic_growth(self):
        p = params(noise_std=0.0, coupling_in=0.0, coupling_out=0.0, drift=0.07)
        z = shocks(p, 4)
        pop = init_population(p, next(z))
        stepped = step_population(pop, p, next(z))
        assert np.array_equal(stepped.sizes, pop.sizes * math.exp(0.07))
        assert stepped.step == 1

    def test_uses_pre_update_mean(self):
        # with pure competition the update must be linear in the old sizes
        p = params(n_agents=3, noise_std=0.0, drift=0.0, coupling_in=0.0,
                   coupling_out=0.5)
        pop = Population(sizes=np.array([1.0, 2.0, 3.0]))
        out = step_population(pop, p, next(shocks(p, 0)))
        wbar = 2.0
        expected = np.maximum(pop.sizes - 0.5 * wbar * pop.sizes, p.floor)
        assert np.allclose(out.sizes, expected, rtol=1e-15)

    def test_exchangeability_of_update_core(self):
        rng = RngStream(11, 0)
        sizes = np.exp(rng.normals(40))
        growth = np.exp(0.2 * rng.normals(40))
        p = params(n_agents=40)
        perm = np.random.default_rng(1).permutation(40)
        direct = _update_sizes(sizes, growth, p)[perm]
        permuted = _update_sizes(sizes[perm], growth[perm], p)
        assert direct.tobytes() == permuted.tobytes()

    def test_floor_never_violated(self):
        p = params(n_agents=500, noise_std=1.0, coupling_out=2.0, floor=1e-3, steps=30)
        z = shocks(p, 5)
        pop = init_population(p, next(z))
        for _ in range(30):
            pop = step_population(pop, p, next(z))
            assert np.all(pop.sizes >= p.floor)

    def test_decoupled_marginal_matches_exact_gbm_law(self):
        # with couplings off, log sizes after k steps follow the fixed-horizon
        # law with matched per-step drift and volatility
        k, noise, drift = 50, 0.3, 0.01
        p = params(n_agents=10_000, noise_std=noise, drift=drift,
                   coupling_in=0.0, coupling_out=0.0, steps=k)
        z = shocks(p, 123)
        pop = init_population(p, next(z))
        for _ in range(k):
            pop = step_population(pop, p, next(z))
        r_matched = noise**2 / 2 + k * drift / (k + 1)
        law = terminal_log_law(GbmParams(x0=1.0, r=r_matched, alpha=noise), k + 1)
        p_value = kstest(np.log(pop.sizes), "norm", args=(law.mean, law.std)).pvalue
        assert p_value >= 0.01


class TestRunHia:
    def test_single_step_is_init_plus_step(self):
        p = params(n_agents=50, steps=1)
        pop, _, _ = run_hia(p, seed=21)
        streams = children(21, p.n_agents)
        pop0 = init_population(p, per_child_shocks(streams))
        manual = step_population(pop0, p, per_child_shocks(streams))
        assert pop.sizes.tobytes() == manual.sizes.tobytes()

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    def test_equals_per_agent_per_step_draws(self, steps):
        # a floor high enough that some agents are clamped (asserted below)
        p = params(n_agents=30, noise_std=1.0, coupling_out=0.3, floor=0.2, steps=steps)
        pop, effective_alpha, report = run_hia(p, seed=19)
        sizes, ref_alpha, ref_report, clamped = reference_run_hia(p, seed=19)
        assert clamped > 0
        assert pop.clamped == clamped
        assert pop.sizes.tobytes() == sizes.tobytes()
        assert np.float64(effective_alpha).tobytes() == np.float64(ref_alpha).tobytes()
        assert dumps(report.to_json_dict()) == dumps(ref_report.to_json_dict())

    def test_builds_no_stream_object(self, monkeypatch):
        """The agents' draws come from keys derived in bulk, not one stream per agent."""
        def refuse(*args):
            raise AssertionError("run_hia built a stream object")

        for name in ("__init__", "substream"):
            monkeypatch.setattr(RngStream, name, refuse)
        run_hia(params(n_agents=40, steps=70), seed=19)

    def test_fit_report_bytes_are_reproducible(self):
        p = params(n_agents=300, steps=60)
        _, ea1, rep1 = run_hia(p, seed=8)
        _, ea2, rep2 = run_hia(p, seed=8)
        assert ea1 == ea2
        assert dumps(rep1.to_json_dict()) == dumps(rep2.to_json_dict())

    def test_effective_alpha_tracks_injected_noise_when_decoupled(self):
        p = params(n_agents=2000, noise_std=0.3, coupling_in=0.0,
                   coupling_out=0.0, steps=100)
        _, effective_alpha, report = run_hia(p, seed=3)
        assert abs(effective_alpha - 0.3) < 0.02
        assert report.preferred == "lognormal"

    def test_coupled_run_grows_heavy_tail(self):
        p = params(n_agents=2000, noise_std=0.5, steps=600)
        _, _, report = run_hia(p, seed=14)
        assert report.preferred in ("double_pareto", "pareto_tail")

    def test_needs_enough_agents_for_model_comparison(self):
        with pytest.raises(ValueError):
            run_hia(params(n_agents=5), seed=0)


class TestSweep:
    def test_small_sweep_shape_and_csv(self):
        base = params(n_agents=250, steps=120)
        result = run_sweep(base, "noise_std", [0.1, 0.3, 0.6], n_seeds=2, master_seed=5)
        assert len(result.points) == 3
        assert result.varied == "noise_std"
        assert -1.0 <= result.spearman_rho <= 1.0
        text = sweep_csv_text(result)
        lines = text.strip().split("\n")
        assert lines[0] == "noise_std,coupling,effective_alpha,m1_hat,preferred_model,spearman_rho"
        assert len(lines) == 4

    @pytest.mark.parametrize("vary", ["coupling_in", "coupling_out"])
    def test_coupling_column_records_the_varied_coupling(self, vary):
        base = params(n_agents=40, steps=3, coupling_in=0.05, coupling_out=0.02)
        result = run_sweep(base, vary, [0.1, 0.2], n_seeds=1, master_seed=1)
        assert [p.coupling for p in result.points] == [0.1, 0.2]

    def test_zero_noise_point_has_no_fit_and_no_warning(self):
        # every agent stays equal at zero noise, so no model fits any replicate;
        # tier-1 turns a RuntimeWarning (nanmean of all-NaN) into an error
        result = run_sweep(params(n_agents=40, steps=5), "noise_std", [0.0, 0.3],
                           n_seeds=2, master_seed=3)
        zero, noisy = result.points
        assert math.isnan(zero.m1_hat) and zero.preferred_model == "none"
        assert noisy.preferred_model != "none"

    def test_rejects_bad_requests(self):
        base = params()
        with pytest.raises(ValueError):
            run_sweep(base, "floor", [0.1, 0.2], 1, 0)
        with pytest.raises(ValueError):
            run_sweep(base, "noise_std", [0.1], 1, 0)
        with pytest.raises(ValueError):
            run_sweep(base, "noise_std", [0.1, 0.2], 0, 0)

    def test_rejects_seed_layouts_that_alias_before_any_run(self):
        base = params(n_agents=40, steps=3)
        top = 2**64 - 1 - 100000 - 1  # the largest master seed for 2 points x 2 seeds
        calls = []

        def recording(fn, params_list, seeds):
            calls.append(seeds)
            return map(fn, params_list, seeds)

        run_sweep(base, "noise_std", [0.1, 0.2], 2, top, map=recording)
        assert calls == [[top, top + 1, top + 100000, 2**64 - 1]]
        with pytest.raises(ValueError, match=f"master seed {top + 1} .* at most {top}$"):
            run_sweep(base, "noise_std", [0.1, 0.2], 2, top + 1, map=recording)
        # replicate 100000 of point 0 would rerun replicate 0 of point 1
        with pytest.raises(ValueError, match="n_seeds must be <= 100000, got 100001"):
            run_sweep(base, "noise_std", [0.1, 0.2], 100_001, 0, map=recording)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed,error", [(True, TypeError), (-1, ValueError), (1.0, TypeError)])
    def test_checks_its_master_seed_before_any_run(self, seed, error):
        # True would run as seed 1, and -1 fail only inside the first run
        def no_runs(*args):
            raise AssertionError("map was called")

        with pytest.raises(error, match="^master_seed must"):
            run_sweep(params(n_agents=40, steps=3), "noise_std", [0.1, 0.2], 1, seed, map=no_runs)


def reference_modal(labels):
    """The sweep's modal model written out as a counting loop."""
    if not labels:
        return "none"
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    return next(lab for lab in sorted(counts) if counts[lab] == best)


def test_modal_breaks_ties_alphabetically_like_the_counting_loop():
    models = ("double_pareto", "lognormal", "pareto_tail")
    for length in range(7):
        for labels in itertools.product(models, repeat=length):
            assert _modal(list(labels)) == reference_modal(list(labels)), labels
    assert _modal(["pareto_tail", "lognormal"]) == "lognormal"


class TestSpearman:
    def test_bit_equal_to_scipy(self):
        rng = np.random.default_rng(20)
        for trial in range(2000):
            n = int(rng.integers(2, 12))
            if trial % 3 == 0:
                x, y = rng.standard_normal(n), rng.standard_normal(n)
            elif trial % 3 == 1:  # heavy ties
                x, y = rng.integers(0, 3, n).astype(float), rng.integers(0, 4, n).astype(float)
            else:
                x = rng.standard_normal(n)
                y = x[rng.permutation(n)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns on constant input
                expected = stats.spearmanr(x, y).statistic
            got = spearmanr(x, y)
            if math.isnan(expected):
                assert math.isnan(got)
            else:
                assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (x, y)

    @pytest.mark.parametrize("x, y", [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, math.nan], [1.0, 2.0, 3.0])])
    def test_constant_or_nan_input_is_nan(self, x, y):
        assert math.isnan(spearmanr(x, y))
        assert math.isnan(spearmanr(y, x))
