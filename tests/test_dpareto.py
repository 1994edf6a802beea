import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gbmtails.dpareto import (
    ALPHA_HUGE,
    ALPHA_TINY,
    DoubleParetoDist,
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
from gbmtails.killing import KillSchedule, kill_time_from_uniform
from gbmtails.rng import RngStream
from gbmtails.sde import GbmParams

rates = st.floats(min_value=1e-4, max_value=10.0)
vols = st.floats(min_value=1e-3, max_value=30.0)
freqs = st.floats(min_value=1e-8, max_value=10.0)


class TestCanonicalSolver:
    def test_reference_case_against_independent_root_finder(self):
        sol = solve_exponents_canonical(0.05, 0.2, 0.01)
        roots = np.roots([0.02, 0.03, -0.01])
        m1_ref, m2_ref = max(roots), -min(roots)
        assert sol.m1_canonical == pytest.approx(m1_ref, rel=1e-10)
        assert sol.m2_canonical == pytest.approx(m2_ref, rel=1e-10)
        assert sol.m1_canonical == pytest.approx(0.28077640640441515, rel=1e-12)
        assert sol.m2_canonical == pytest.approx(1.7807764064044149, rel=1e-12)
        assert sol.regime is Regime.QUASI_STOCHASTIC

    def test_symmetric_case_at_critical_volatility(self):
        sol = solve_exponents_canonical(0.5, 1.0, 0.02)
        assert sol.m1_canonical == pytest.approx(0.2, rel=1e-12)
        assert sol.m2_canonical == pytest.approx(0.2, rel=1e-12)
        assert sol.regime is Regime.CRITICAL

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            solve_exponents_canonical(0.05, 0.0, 0.01)
        with pytest.raises(ValueError):
            solve_exponents_canonical(0.05, 0.2, 0.0)
        with pytest.raises(ValueError):
            solve_exponents_canonical(0.0, 0.2, 0.01)

    @settings(max_examples=200, deadline=None)
    @given(r=rates, alpha=vols, nu=freqs)
    def test_vieta_identities(self, r, alpha, nu):
        sol = solve_exponents_canonical(r, alpha, nu)
        prod_res, diff_res = sol.vieta_residuals(r, alpha, nu)
        assert prod_res <= 1e-12
        assert diff_res <= 1e-12
        assert sol.m1_canonical > 0 and sol.m2_canonical > 0

    @settings(max_examples=100, deadline=None)
    @given(r=rates, alpha=vols, nu=freqs)
    def test_regime_matches_tail_skew(self, r, alpha, nu):
        sol = solve_exponents_canonical(r, alpha, nu)
        if sol.regime is Regime.QUASI_STOCHASTIC:
            assert sol.m2_canonical > sol.m1_canonical
        elif sol.regime is Regime.STOCHASTIC:
            assert sol.m1_canonical > sol.m2_canonical

    @settings(max_examples=100, deadline=None)
    @given(r=rates, alpha=vols)
    def test_unit_exponent_when_rates_match(self, r, alpha):
        # sampling rate equal to growth rate pins the upper exponent at 1
        sol = solve_exponents_canonical(r, alpha, nu=r)
        assert sol.m1_canonical == pytest.approx(1.0, rel=1e-10)

    def test_exponent_side_of_unit_boundary(self):
        rng = RngStream(13, 0)
        for _ in range(1000):
            r = 1e-3 + rng.uniform()
            alpha = 1e-2 + 2 * rng.uniform()
            nu = 1e-3 + rng.uniform()
            sol = solve_exponents_canonical(r, alpha, nu)
            if nu < r:
                assert sol.m1_canonical < 1
            elif nu > r:
                assert sol.m1_canonical > 1

    def test_monotone_in_observation_rate(self):
        nus = np.linspace(1e-4, 2.0, 400)
        m1s = [solve_exponents_canonical(0.05, 0.3, nu).m1_canonical for nu in nus]
        assert np.all(np.diff(m1s) > 0)


class TestUnrepresentableExponents:
    """Inputs whose canonical exponents overflow or vanish are rejected, not returned."""

    @pytest.mark.parametrize("r,alpha,nu", [(0.05, 1e100, 0.01), (1e300, 0.2, 0.01)])
    def test_canonical_solver_rejects(self, r, alpha, nu):
        with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}")):
            solve_exponents_canonical(r, alpha, nu)

    def test_signed_solver_rejects(self):
        with pytest.raises(ValueError, match="alpha=1e[+]100"):
            solve_exponents_signed(0.05, 1e100, 0.01)

    def test_curves_reject_grid_naming_the_point(self):
        with pytest.raises(ValueError, match="alpha=1e[+]100"):
            exponent_curves(0.05, 0.01, [0.1, 0.5, 1e100])


class TestSignedSolver:
    def test_relation_to_canonical_positive_drift(self):
        r, alpha, nu = 0.05, 0.2, 0.01  # mu > 0
        sol = solve_exponents_canonical(r, alpha, nu)
        assert sol.m1_signed == pytest.approx(sol.m2_canonical, rel=1e-12)
        assert sol.m2_signed == pytest.approx(-sol.m1_canonical, rel=1e-12)

    def test_relation_to_canonical_negative_drift(self):
        r, alpha, nu = 0.05, 0.5, 0.01  # mu < 0
        sol = solve_exponents_canonical(r, alpha, nu)
        assert sol.m1_signed == pytest.approx(-sol.m1_canonical, rel=1e-12)
        assert sol.m2_signed == pytest.approx(sol.m2_canonical, rel=1e-12)

    def test_exact_critical_branch(self):
        # alpha^2 == 2 r holds exactly in floats for alpha=1, r=0.5
        m1, m2 = solve_exponents_signed(0.5, 1.0, 0.02)
        assert m1 == math.sqrt(0.04) and m2 == -math.sqrt(0.04)

    def test_vanishing_observation_rate(self):
        m1, _ = solve_exponents_signed(0.05, 0.2, 1e-10)
        assert abs(m1 - 1.5) < 1e-4

    def test_huge_volatility(self):
        m1, m2 = solve_exponents_signed(0.05, 1e3, 0.01)
        assert abs(m1 - (-1.0)) < 1e-3
        assert abs(m2) < 1e-3


class TestRegime:
    def test_examples(self):
        assert classify_regime(0.5, 0.9) == (1.0, Regime.QUASI_STOCHASTIC)
        assert classify_regime(0.5, 1.1) == (1.0, Regime.STOCHASTIC)
        assert classify_regime(0.5, 1.0) == (1.0, Regime.CRITICAL)

    def test_rejects_nonpositive_growth(self):
        for r in (0.0, -0.1):
            with pytest.raises(ValueError):
                classify_regime(r, 0.5)

    def test_alpha_zero_is_quasi_stochastic(self):
        assert classify_regime(0.5, 0.0)[1] is Regime.QUASI_STOCHASTIC


DIST = DoubleParetoDist(center=1.0, m1=1.0, m2=2.0)


class TestDensity:
    def test_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                DoubleParetoDist(center=bad, m1=1.0, m2=1.0)
        with pytest.raises(ValueError):
            dpareto_pdf(DIST, 0.0)
        with pytest.raises(ValueError):
            dpareto_cdf(DIST, -0.5)

    def test_pdf_hand_values(self):
        assert dpareto_pdf(DIST, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert dpareto_pdf(DIST, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert dpareto_pdf(DIST, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_pdf_continuous_at_center(self):
        c, m1, m2 = DIST.center, DIST.m1, DIST.m2
        norm = m1 * m2 / ((m1 + m2) * c)
        left = norm * (c / c) ** (m2 - 1.0)
        right = norm * (c / c) ** (-m1 - 1.0)
        assert left == pytest.approx(right, rel=1e-12)

    def test_cdf_hand_values(self):
        sym = DoubleParetoDist(center=2.0, m1=1.5, m2=1.5)
        assert dpareto_cdf(sym, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert dpareto_cdf(DIST, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert dpareto_cdf(DIST, 1e300) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_hand_values(self):
        assert dpareto_quantile(DIST, DIST.split) == DIST.center
        assert dpareto_quantile(DIST, 5.0 / 6.0) == pytest.approx(4.0, rel=1e-12)

    def test_quantile_round_trip(self):
        p = RngStream(21, 0).uniforms(1000)
        p = np.clip(p, 1e-12, 1 - 1e-12)
        x = dpareto_quantile(DIST, p)
        assert np.max(np.abs(dpareto_cdf(DIST, x) - p)) <= 1e-10

    def test_quantile_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                dpareto_quantile(DIST, p)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(min_value=1e-3, max_value=1e3),
        m1=st.floats(min_value=0.05, max_value=20.0),
        m2=st.floats(min_value=0.05, max_value=20.0),
        p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    )
    def test_quantile_cdf_inverse_property(self, c, m1, m2, p):
        d = DoubleParetoDist(center=c, m1=m1, m2=m2)
        assert dpareto_cdf(d, dpareto_quantile(d, p)) == pytest.approx(p, abs=1e-10)

    def test_cdf_monotone(self):
        x = np.geomspace(1e-6, 1e6, 5000)
        f = dpareto_cdf(DIST, x)
        assert np.all(np.diff(f) >= 0)

    @pytest.mark.parametrize(
        "dist",
        [DIST, DoubleParetoDist(2.0, 0.4, 0.3), DoubleParetoDist(0.5, 3.0, 0.9)],
    )
    def test_normalization_by_quadrature(self, dist):
        hi = dpareto_quantile(dist, 1 - 1e-10)
        lower = quad(
            lambda x: dpareto_pdf(dist, x), 0.0, dist.center,
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )[0]
        upper = quad(
            lambda u: dpareto_pdf(dist, math.exp(u)) * math.exp(u),
            math.log(dist.center), math.log(hi),
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )[0]
        assert abs(lower + upper - 1.0) <= 1e-9


LAWS = [DIST, DoubleParetoDist(1.0, 1.5, 0.8),
        DoubleParetoDist(3.5, 0.28077640640441515, 1.7807764064044149),
        DoubleParetoDist(2e-3, 12.0, 0.05), DoubleParetoDist(7e2, 0.07, 9.0)]


def _and_neighbours(v: float) -> list[float]:
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: f"c={d.center:g},m1={d.m1:g},m2={d.m2:g}")
def test_a_scalar_gets_the_bits_of_its_array_element(dist):
    c, m1, m2, split = dist.center, dist.m1, dist.m2, dist.split
    p = np.random.default_rng(1).uniform(0.001, 0.999, 1_000)
    p = np.concatenate([p, _and_neighbours(split)])
    x = np.concatenate([c * np.exp(np.random.default_rng(2).normal(0.0, 3.0, 1_000)),
                        _and_neighbours(c)])
    ratio, norm = x / c, m1 * m2 / ((m1 + m2) * c)
    schedule = KillSchedule(nu=m1)  # any rate: the kill time is here for its scalar rule
    # each side's formula over the whole array, picked by np.where: evaluating
    # a side on its own elements must not change their bits
    cases = {
        dpareto_pdf: (x, np.where(ratio <= 1.0, norm * ratio ** (m2 - 1.0),
                                  norm * ratio ** (-m1 - 1.0))),
        dpareto_cdf: (x, np.where(ratio <= 1.0, (m1 / (m1 + m2)) * ratio ** m2,
                                  1.0 - (m2 / (m1 + m2)) * ratio ** (-m1))),
        dpareto_quantile: (p, np.where(p < split, c * (p / split) ** (1.0 / m2), np.where(
            p == split, c, c * ((1.0 - p) * (m1 + m2) / m2) ** (-1.0 / m1)))),
        lambda _, u: kill_time_from_uniform(u, schedule): (p, -np.log1p(-p) / m1),
    }
    for fn, (args, want) in cases.items():
        got = fn(dist, args)
        assert got.tobytes() == want.tobytes()
        for v, element in zip(args.tolist(), got):
            for arg in (v, np.float64(v), np.array(v)):
                one = fn(dist, arg)
                assert type(one) is float, (fn, arg)
                assert np.float64(one).tobytes() == element.tobytes(), (fn, v)
    assert dpareto_quantile(dist, split) == c


class TestLogMgf:
    def test_normalization_at_zero(self):
        assert dpareto_log_mgf(DIST, 0.0) == 1.0

    def test_hand_value(self):
        assert dpareto_log_mgf(DIST, 0.5) == pytest.approx(1.6, rel=1e-14)

    def test_domain_errors_at_poles(self):
        with pytest.raises(ValueError):
            dpareto_log_mgf(DIST, DIST.m1)
        with pytest.raises(ValueError):
            dpareto_log_mgf(DIST, -DIST.m2)

    def test_matches_log_space_quadrature(self):
        d = DIST
        xi0 = math.log(d.center)
        k = d.m1 * d.m2 / (d.m1 + d.m2)
        for s in (-d.m2 / 2, 0.0, d.m1 / 2):
            lower = quad(
                lambda xi: k * math.exp(s * xi + d.m2 * (xi - xi0)),
                -np.inf, xi0, epsabs=1e-12,
            )[0]
            upper = quad(
                lambda xi: k * math.exp(s * xi - d.m1 * (xi - xi0)),
                xi0, np.inf, epsabs=1e-12,
            )[0]
            assert abs(lower + upper - dpareto_log_mgf(d, s)) <= 1e-6


class TestLimitTable:
    def test_has_twelve_records_with_unique_ids(self):
        report = limit_table(0.05, 0.2, 0.01)
        assert len(report.records) == 12
        assert len({rec.limit_id for rec in report.records}) == 12

    def test_vanishing_observation_rate_magnitude(self):
        rec = limit_table(0.05, 0.2, 0.01).by_id("nu_to_zero_m1")
        assert rec.stated == pytest.approx(1.5, rel=1e-12)
        assert rec.deviation <= 1e-3
        assert rec.sign_agrees

    def test_small_volatility_magnitude(self):
        rec = limit_table(0.05, 0.2, 0.01).by_id("alpha_to_zero_m2")
        assert rec.stated == pytest.approx(-0.2, rel=1e-12)
        assert rec.deviation <= 1e-3
        assert rec.sign_agrees

    def test_critical_magnitudes_and_swapped_signs(self):
        report = limit_table(0.05, 0.2, 0.01)
        target = math.sqrt(0.01 / 0.05)
        for rid in (
            "alpha_to_crit_above_m1",
            "alpha_to_crit_below_m1",
            "alpha_to_crit_above_m2",
            "alpha_to_crit_below_m2",
        ):
            rec = report.by_id(rid)
            assert abs(rec.stated) == pytest.approx(target, rel=1e-12)
            assert rec.deviation <= 1e-3
            # direct evaluation contradicts the tabulated one-sided signs
            assert not rec.sign_agrees

    def test_huge_volatility_records(self):
        report = limit_table(0.05, 0.2, 0.01)
        rec1 = report.by_id("alpha_to_inf_m1")
        assert rec1.stated == -1.0 and rec1.deviation <= 1e-3 and rec1.sign_agrees
        rec2 = report.by_id("alpha_to_inf_m2")
        assert rec2.stated == 0.0 and rec2.deviation <= 1e-3 and rec2.sign_agrees

    def test_divergent_records(self):
        report = limit_table(0.05, 0.2, 0.01)
        for rid, sign in (("nu_to_inf_m1", 1), ("nu_to_inf_m2", -1), ("alpha_to_zero_m1", 1)):
            rec = report.by_id(rid)
            assert math.isinf(rec.stated)
            assert rec.deviation <= 1e-3
            assert (rec.evaluated > 0) == (sign > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            limit_table(0.0, 0.2, 0.01)
        with pytest.raises(ValueError):
            limit_table(0.05, 0.2, -1.0)


def reference_row(r, alpha, nu):
    """One figure1 row as the per-point solver computed it: Python floats, ``**``."""
    half_a2 = 0.5 * alpha * alpha
    mu = r - half_a2
    disc = math.sqrt(mu * mu + 2.0 * (alpha * alpha) * nu)
    sign_mu = 1.0 if mu >= 0 else -1.0
    q = -0.5 * (mu + sign_mu * disc)
    root_big = q / half_a2
    root_small = -nu / q
    if root_big > 0:
        m1, m2 = root_big, -root_small
    else:
        m1, m2 = root_small, -root_big
    a2 = alpha * alpha
    if a2 == 2.0 * r:
        lim = math.sqrt(nu / r)
        return alpha, lim, -lim, m1, m2
    lead = (r - 0.5 * a2) / a2
    root = math.sqrt(1.0 + 8.0 * nu * a2 / (2.0 * r - a2) ** 2)
    return alpha, lead * (1.0 + root), lead * (1.0 - root), m1, m2


def assert_curves_match_reference(r, nu, grid):
    gaps = [2.0 * r - a * a for a in grid.tolist()]
    # the grid must hold gaps where C pow and a plain multiply disagree,
    # or a squared-by-multiplying body would pass unnoticed
    assert sum(g ** 2 != g * g for g in gaps) > 0
    want = np.array([reference_row(r, a, nu) for a in grid.tolist()])
    assert exponent_curves(r, nu, grid).tobytes() == want.tobytes()


class TestExponentCurves:
    def test_bit_equal_to_per_point_solve_on_figure1_grid(self):
        assert_curves_match_reference(0.05, 0.01, np.linspace(0.05, 2.0, 100_000))

    @pytest.mark.parametrize("r,nu", [(0.05, 0.01), (0.5, 2.0), (1e-3, 1e-5), (3.0, 0.2)])
    def test_bit_equal_to_per_point_solve_on_log_grid(self, r, nu):
        alpha_star = math.sqrt(2.0 * r)
        grid = np.geomspace(1e-3, 30.0, 20_000)
        grid = grid[np.abs(grid - alpha_star) > 1e-8 * alpha_star]
        assert_curves_match_reference(r, nu, grid)
        for a in grid[::500].tolist():
            sol = solve_exponents_canonical(r, a, nu)
            got = (a, sol.m1_signed, sol.m2_signed, sol.m1_canonical, sol.m2_canonical)
            assert np.array(got).tobytes() == np.array(reference_row(r, a, nu)).tobytes()

    def test_canonical_columns_positive(self):
        rows = exponent_curves(0.05, 0.01, np.linspace(0.05, 2.0, 100))
        assert np.all(rows[:, 3] > 0) and np.all(rows[:, 4] > 0)

    def test_skew_flips_exactly_at_critical_volatility(self):
        alpha_star = math.sqrt(0.1)
        grid = np.concatenate(
            [np.linspace(0.05, alpha_star * (1 - 1e-6), 50),
             np.linspace(alpha_star * (1 + 1e-6), 2.0, 50)]
        )
        rows = exponent_curves(0.05, 0.01, grid)
        gap = rows[:, 4] - rows[:, 3]  # m2_canonical - m1_canonical
        below = rows[:, 0] < alpha_star
        assert np.all(gap[below] > 0)
        assert np.all(gap[~below] < 0)

    def test_endpoints_match_limit_magnitudes(self):
        report = limit_table(0.05, 0.2, 0.01)
        rows = exponent_curves(0.05, 0.01, np.array([ALPHA_TINY, ALPHA_HUGE]))
        assert abs(abs(rows[0, 2]) - abs(report.by_id("alpha_to_zero_m2").stated)) <= 1e-3
        assert abs(abs(rows[1, 1]) - 1.0) <= 1e-3
        assert abs(rows[1, 2]) <= 1e-3

    def test_rejects_grid_touching_critical_volatility(self):
        alpha_star = math.sqrt(0.1)
        with pytest.raises(ValueError):
            exponent_curves(0.05, 0.01, np.array([0.1, alpha_star, 0.5]))
        with pytest.raises(ValueError):
            exponent_curves(0.05, 0.01, np.array([-0.1, 0.5]))


class TestKilledStateDist:
    def test_centered_at_initial_level_with_canonical_rates(self):
        params = GbmParams(x0=3.5, r=0.05, alpha=0.2)
        dist = killed_state_dist(params, KillSchedule(0.01))
        sol = solve_exponents_canonical(0.05, 0.2, 0.01)
        assert dist.center == 3.5
        assert dist.m1 == sol.m1_canonical and dist.m2 == sol.m2_canonical
