"""Tests for worst-case quantile/coverage formulas and robust thresholds."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpconformal import (
    InfeasibleLevelError,
    LPParams,
    ScoreSample,
    ThresholdResult,
    adjusted_beta,
    coverage_lower_bound,
    lp_threshold,
    prediction_set,
    quantile,
    robust_threshold,
    tv_threshold,
    winf_threshold,
    worst_case_coverage,
    worst_case_quantile,
)
from lpconformal.core import snapped_ceil


class TestWorstCaseQuantile:
    def test_ten_point_sample(self):
        # Order-statistic oracle: level 0.9 over 10 atoms is the 9th value.
        s = ScoreSample(np.arange(1, 11) / 10)
        res = worst_case_quantile(s, 0.8, LPParams(0.05, 0.1))
        assert res.threshold == pytest.approx(0.95)
        assert res.level_used == pytest.approx(0.9)

    def test_zero_params_collapse_to_quantile(self):
        rng = np.random.default_rng(0)
        s = ScoreSample(rng.normal(size=37))
        for beta in (0.1, 0.5, 0.93):
            assert worst_case_quantile(s, beta, LPParams(0, 0)).threshold == quantile(s, beta)

    def test_overflow_is_unbounded(self):
        s = ScoreSample([1.0, 2.0])
        res = worst_case_quantile(s, 0.95, LPParams(0.0, 0.1))
        assert res.is_unbounded
        assert res.level_used == pytest.approx(1.05)

    def test_boundary_level_one_is_finite(self):
        s = ScoreSample([1.0, 2.0, 5.0])
        res = worst_case_quantile(s, 0.6, LPParams(0.25, 0.4))
        assert res.threshold == pytest.approx(5.25)

    def test_monotone_in_beta_rho_epsilon(self):
        rng = np.random.default_rng(1)
        s = ScoreSample(rng.normal(size=50))
        by_beta = [worst_case_quantile(s, b, LPParams(0.1, 0.1)).threshold
                   for b in (0.2, 0.4, 0.6, 0.8)]
        assert all(a <= b for a, b in zip(by_beta, by_beta[1:]))
        by_rho = [worst_case_quantile(s, 0.5, LPParams(0.1, r)).threshold
                  for r in (0.0, 0.1, 0.3, 0.5)]
        assert all(a <= b for a, b in zip(by_rho, by_rho[1:]))
        by_eps = [worst_case_quantile(s, 0.5, LPParams(e, 0.1)).threshold
                  for e in (0.0, 0.2, 0.7)]
        assert all(a <= b for a, b in zip(by_eps, by_eps[1:]))


class TestWorstCaseCoverage:
    def test_reduces_to_cdf(self):
        s = ScoreSample([1, 2, 3, 4])
        assert worst_case_coverage(s, 2.0, LPParams(0, 0)) == 0.5

    def test_shifted_and_discounted(self):
        s = ScoreSample([1, 2, 3, 4])
        assert worst_case_coverage(s, 2.5, LPParams(0.5, 0.25)) == pytest.approx(0.25)

    def test_clamped_at_zero(self):
        s = ScoreSample([1, 2, 3, 4])
        assert worst_case_coverage(s, 0.0, LPParams(1.0, 0.5)) == 0.0

    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_shift_past_the_largest_double_covers_nothing(self, rho):
        # q - epsilon overflows to -inf, below every score.
        s = ScoreSample([0.0, 1.0, 2.0])
        assert worst_case_coverage(s, -1.7e308, LPParams(1e308, rho)) == 0.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        s = ScoreSample(rng.normal(size=20))
        for _ in range(50):
            q = float(rng.uniform(-4, 4))
            params = LPParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            c = worst_case_coverage(s, q, params)
            assert 0.0 <= c <= 1.0

    def test_monotone_in_q_and_params(self):
        rng = np.random.default_rng(3)
        s = ScoreSample(rng.normal(size=30))
        qs = np.linspace(-2, 2, 9)
        covs = [worst_case_coverage(s, q, LPParams(0.2, 0.1)) for q in qs]
        assert all(a <= b for a, b in zip(covs, covs[1:]))
        for q in (-0.5, 0.5):
            base = worst_case_coverage(s, q, LPParams(0.1, 0.05))
            assert worst_case_coverage(s, q, LPParams(0.3, 0.05)) <= base
            assert worst_case_coverage(s, q, LPParams(0.1, 0.2)) <= base

    def test_duality_with_worst_case_quantile(self):
        # With epsilon = 0 the round trip is float-exact: the worst-case
        # coverage at the worst-case beta-quantile is at least beta.
        rng = np.random.default_rng(4)
        for _ in range(30):
            s = ScoreSample(rng.normal(size=int(rng.integers(5, 60))))
            beta = float(rng.uniform(0.05, 0.7))
            rho = float(rng.uniform(0, 1 - beta))
            params = LPParams(0.0, rho)
            res = worst_case_quantile(s, beta, params)
            assert worst_case_coverage(s, res.threshold, params) >= beta - 1e-12

    def test_duality_with_exact_epsilon_round_trip(self):
        # Integer scores with eps 0.5: (q + eps) - eps reproduces q exactly,
        # so the full composition holds with a positive local radius too (up
        # to one rounding of the final cdf - rho subtraction).
        rng = np.random.default_rng(14)
        s = ScoreSample(rng.integers(-20, 20, size=40).astype(float))
        params = LPParams(0.5, 0.2)
        for beta in (0.1, 0.4, 0.7):
            res = worst_case_quantile(s, beta, params)
            assert worst_case_coverage(s, res.threshold, params) >= beta - 1e-12


class TestRobustThreshold:
    def test_zero_params(self):
        rng = np.random.default_rng(5)
        s = ScoreSample(rng.normal(size=25))
        res = robust_threshold(s, 0.1, LPParams(0, 0))
        assert res.threshold == quantile(s, 0.9)

    def test_hundred_point_sample(self):
        s = ScoreSample(np.arange(1, 101) / 100)
        res = robust_threshold(s, 0.1, LPParams(0.02, 0.05))
        assert res.threshold == pytest.approx(0.97)
        assert res.level_used == pytest.approx(0.95)
        assert res.coverage_bound == pytest.approx(
            coverage_lower_bound(100, 0.1, 0.05)
        )

    def test_remark_regime_unbounded(self):
        s = ScoreSample([1.0, 2.0, 3.0])
        res = robust_threshold(s, 0.05, LPParams(0.0, 0.95))
        assert res.is_unbounded
        assert res.coverage_bound is not None


class TestCoverageLowerBound:
    def test_pinned_arithmetic(self):
        # ceil(1000 * 0.95) = 950 despite the float product landing above it.
        assert coverage_lower_bound(1000, 0.1, 0.05) == pytest.approx(
            950 / 1001 - 0.05, abs=1e-12
        )
        assert coverage_lower_bound(1000, 0.1, 0.0) == pytest.approx(900 / 1001, abs=1e-12)
        assert coverage_lower_bound(1, 0.5, 0.0) == pytest.approx(0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coverage_lower_bound(0, 0.1, 0.0)
        with pytest.raises(ValueError):
            coverage_lower_bound(10, 0.1, 1.0)


class TestAdjustedBeta:
    def test_pinned_values(self):
        assert adjusted_beta(1000, 0.1, 0.05) == pytest.approx(0.09805, abs=1e-12)
        assert adjusted_beta(10**6, 0.1, 0.0) == pytest.approx(0.0999981, abs=1e-12)

    def test_infeasible_small_n(self):
        with pytest.raises(InfeasibleLevelError):
            adjusted_beta(10, 0.1, 0.05)

    def test_feasible_result_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(20, 5000))
            alpha = float(rng.uniform(0.01, 0.4))
            rho = float(rng.uniform(0, 0.3))
            try:
                beta = adjusted_beta(n, alpha, rho)
            except InfeasibleLevelError:
                continue
            assert 0.0 < beta < 1.0


class TestSpecialCaseThresholds:
    def test_tv_pinned_level(self):
        # level 1 - (0.05 * 1001 - 2) / 1000 = 0.95195 -> order statistic 952.
        s = ScoreSample(np.arange(1, 1001, dtype=float))
        res = tv_threshold(s, 0.1, 0.05)
        assert res.level_used == pytest.approx(0.95195)
        assert res.threshold == 952.0

    def test_tv_matches_adjusted_composition(self):
        s = ScoreSample(np.arange(1, 1001, dtype=float))
        beta = adjusted_beta(1000, 0.1, 0.05)
        composed = worst_case_quantile(s, 1.0 - beta, LPParams(0.0, 0.05))
        assert tv_threshold(s, 0.1, 0.05).threshold == composed.threshold

    def test_tv_approaches_conformal_level_for_large_n(self):
        res = tv_threshold(ScoreSample(np.arange(100000.0)), 0.1, 0.0)
        assert res.level_used == pytest.approx(0.9, abs=1e-3)

    def test_winf_pinned_level(self):
        # level 1 - (0.1 * 1001 - 2) / 1000 = 0.9019 -> order statistic 902.
        s = ScoreSample(np.arange(1, 1001, dtype=float))
        res = winf_threshold(s, 0.1, 0.3)
        assert res.level_used == pytest.approx(0.9019)
        assert res.threshold == 902.0 + 0.3

    def test_winf_zero_epsilon_equals_tv_zero_rho(self):
        s = ScoreSample(np.arange(1, 101, dtype=float))
        assert winf_threshold(s, 0.1, 0.0).threshold == tv_threshold(s, 0.1, 0.0).threshold

    def test_winf_additivity_in_epsilon(self):
        s = ScoreSample(np.arange(1, 101, dtype=float))
        base = winf_threshold(s, 0.1, 0.0).threshold
        for eps in (0.1, 0.7, 3.0):
            assert winf_threshold(s, 0.1, eps).threshold == base + eps

    def test_infeasible_levels_raise(self):
        s = ScoreSample(np.arange(1, 11, dtype=float))
        with pytest.raises(InfeasibleLevelError):
            tv_threshold(s, 0.1, 0.0)  # (0.1)(11) < 2 -> level above one
        with pytest.raises(InfeasibleLevelError):
            winf_threshold(s, 0.1, 0.5)

    def test_consistency_over_random_feasible_triples(self):
        # Identity check: the direct level formulas select the same order
        # statistic as the robust threshold at the adjusted miscoverage.
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 300:
            n = int(rng.integers(30, 3000))
            alpha = float(rng.uniform(0.02, 0.4))
            rho = float(rng.uniform(0.0, alpha))
            try:
                beta = adjusted_beta(n, alpha, rho)
            except InfeasibleLevelError:
                continue
            if rho > beta:
                continue
            s = ScoreSample(rng.normal(size=n))
            eps = float(rng.uniform(0, 1))
            tv = tv_threshold(s, alpha, rho)
            composed_tv = worst_case_quantile(s, 1.0 - beta, LPParams(0.0, rho))
            assert tv.threshold == composed_tv.threshold
            beta0 = adjusted_beta(n, alpha, 0.0)
            wf = winf_threshold(s, alpha, eps)
            composed_wf = worst_case_quantile(s, 1.0 - beta0, LPParams(eps, 0.0))
            assert wf.threshold == composed_wf.threshold
            checked += 1


class TestPredictionSet:
    def test_direct_comparison(self):
        from lpconformal import ThresholdResult

        ps = prediction_set([0.2, 0.9, 0.4], ThresholdResult(0.5, 0.9))
        assert ps.member_labels == {0, 2}

    def test_unbounded_includes_all(self):
        from lpconformal import ThresholdResult

        ps = prediction_set([0.2, 0.9, 0.4], ThresholdResult(None, 1.0))
        assert ps.member_labels == {0, 1, 2}
        assert ps.threshold is None

    def test_threshold_below_minimum_is_empty(self):
        from lpconformal import ThresholdResult

        ps = prediction_set([0.2, 0.9, 0.4], ThresholdResult(0.1, 0.5))
        assert ps.member_labels == frozenset()


class TestLpThreshold:
    def test_tv_winf_select_closed_form_order_statistics(self):
        # The paper's closed-form levels pick the same order statistic, with
        # the same coverage bound, as the adjusted rule at epsilon = 0 / rho = 0.
        def bound_at(n, level, rho):
            return max(0.0, min(1.0, snapped_ceil(n * level) / (n + 1) - rho))

        rng = np.random.default_rng(31)
        checked = 0
        while checked < 500:
            n = int(rng.integers(30, 3000))
            alpha = float(rng.uniform(0.02, 0.4))
            rho = float(rng.uniform(0.0, alpha))
            eps = float(rng.uniform(0.0, 1.0))
            tv_level = 1.0 - ((alpha - rho) * (n + 1) - 2.0) / n
            wf_level = 1.0 - (alpha * (n + 1) - 2.0) / n
            if tv_level > 1.0 or wf_level > 1.0:
                continue
            raw = rng.integers(0, 20, size=n) * 0.1 if checked % 2 else rng.normal(size=n)
            s = ScoreSample(raw)
            tv = tv_threshold(s, alpha, rho)
            assert tv.threshold == quantile(s, tv_level)
            assert tv.coverage_bound == bound_at(n, tv_level, rho)
            wf = winf_threshold(s, alpha, eps)
            assert wf.threshold == quantile(s, wf_level) + eps
            assert wf.coverage_bound == bound_at(n, wf_level, 0.0)
            checked += 1

    def test_tv_unbounded_when_rho_exceeds_adjusted_beta(self):
        s = ScoreSample(np.arange(1, 101, dtype=float))
        assert adjusted_beta(100, 0.1, 0.09) < 0.09
        res = tv_threshold(s, 0.1, 0.09)
        assert res.is_unbounded and res.coverage_bound is None
        assert res == lp_threshold(s, 0.1, LPParams(0.0, 0.09))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=300),
        st.floats(0.01, 0.6),
        st.floats(0.0, 2.0),
        st.floats(0.0, 0.6),
    )
    def test_bound_certifies_one_minus_alpha(self, scores, alpha, eps, rho):
        s = ScoreSample(scores)
        try:
            res = lp_threshold(s, alpha, LPParams(eps, rho))
        except InfeasibleLevelError:
            return
        if res.is_unbounded:
            assert res.coverage_bound is None
        else:
            assert res.coverage_bound >= 1.0 - alpha


class TestOverflowingThreshold:
    """A threshold past the largest double is the unbounded regime, not infinity."""

    HUGE = ScoreSample(np.linspace(1.6e308, 1.7e308, 50))

    def test_non_finite_threshold_is_stored_as_unbounded(self):
        for value in (np.inf, -np.inf, np.nan):
            res = ThresholdResult(threshold=value, level_used=0.9)
            assert res.threshold is None and res.is_unbounded
        assert ThresholdResult(threshold=1e308, level_used=0.9).threshold == 1e308

    def test_worst_case_quantile_keeps_its_in_range_level(self):
        res = worst_case_quantile(self.HUGE, 0.9, LPParams(1e308, 0.0))
        assert res.is_unbounded
        assert res.level_used == 0.9

    def test_lp_and_winf_drop_the_coverage_bound(self):
        for res in (
            lp_threshold(self.HUGE, 0.1, LPParams(1e308, 0.05)),
            winf_threshold(self.HUGE, 0.1, 1e308),
        ):
            assert res.is_unbounded and res.coverage_bound is None
        finite = lp_threshold(self.HUGE, 0.1, LPParams(1e300, 0.05))
        assert not finite.is_unbounded and finite.coverage_bound >= 0.9

    def test_numpy_radius_overflows_without_warning(self):
        huge = ScoreSample(np.linspace(1.6e308, 1.7e308, 400))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lp_threshold(huge, 0.1, LPParams(np.float64(1e308), 0.0))
        assert res.is_unbounded and res.coverage_bound is None

    def test_numpy_radius_gives_a_float_threshold(self):
        s = ScoreSample(np.arange(1, 101) / 100)
        res = lp_threshold(s, 0.1, LPParams(np.float64(0.25), 0.0))
        assert type(res.threshold) is float
        assert res.threshold == lp_threshold(s, 0.1, LPParams(0.25, 0.0)).threshold
