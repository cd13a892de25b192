"""Tests for empirical quantiles, CDFs, and the conformal quantile."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpconformal import (
    LPParams,
    MethodSpec,
    ScoreSample,
    adjusted_beta,
    cdf,
    conformal_quantile,
    coverage_lower_bound,
    quantile,
)
from lpconformal.baselines import chi2_rule, fg_rule, rscp_rule, weighted_rule
from lpconformal.core import (
    QuantileRule,
    check_alpha,
    check_calibration_size,
    check_finite_nonnegative,
    check_finite_positive,
    check_probability,
    check_seed,
    conformal_rule,
    level_at_most_one,
)
from lpconformal.harness import METHOD_NAMES
from lpconformal.robust import lp_rule, robust_rule, worst_case_rule
from oracles import (
    chi2_rule_inline,
    conformal_rule_inline,
    rscp_rule_inline,
    worst_case_rule_inline,
)


def quantile_scan_oracle(scores, beta):
    """Linear scan of the infimum definition: smallest s with cdf(s) >= beta."""
    ordered = sorted(scores)
    n = len(ordered)
    for k in range(1, n + 1):
        if k / n >= beta:
            return ordered[k - 1]
    return ordered[-1]


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_samples = st.lists(finite_floats, min_size=1, max_size=20)


def _away_from_rank_boundaries(beta, n):
    # The implementation deliberately snaps levels within ~1e-12 of a rank
    # boundary; keep generated levels off those boundaries.
    return abs(beta * n - round(beta * n)) > 1e-6


class TestScoreSample:
    def test_sorts_and_keeps_duplicates(self):
        s = ScoreSample([3.0, 1.0, 2.0, 1.0])
        assert s.scores.tolist() == [1.0, 1.0, 2.0, 3.0]
        assert s.n == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ScoreSample([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ScoreSample([1.0, float("nan")])
        with pytest.raises(ValueError):
            ScoreSample([1.0, float("inf")])

    def test_scores_are_read_only(self):
        s = ScoreSample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.scores[0] = 5.0


class TestQuantile:
    def test_midpoint_of_four(self):
        # Oracle: linear scan of the infimum definition over the 4 atoms.
        s = ScoreSample([1, 2, 3, 4])
        assert quantile_scan_oracle([1, 2, 3, 4], 0.5) == 2
        assert quantile(s, 0.5) == 2

    def test_level_one_is_maximum(self):
        assert quantile(ScoreSample([1, 2, 3, 4]), 1.0) == 4

    def test_ten_evenly_spaced(self):
        s = ScoreSample(np.arange(1, 11) / 10)
        assert quantile(s, 0.9) == pytest.approx(0.9)

    def test_rejects_out_of_range_levels(self):
        s = ScoreSample([1.0])
        with pytest.raises(ValueError):
            quantile(s, 0.0)
        with pytest.raises(ValueError):
            quantile(s, 1.5)

    @given(small_samples, st.floats(min_value=1e-6, max_value=1.0))
    def test_matches_scan_oracle(self, values, beta):
        assume(_away_from_rank_boundaries(beta, len(values)))
        assert quantile(ScoreSample(values), beta) == quantile_scan_oracle(values, beta)

    @given(small_samples, st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=-100, max_value=100))
    def test_translation_equivariance(self, values, beta, c):
        assume(_away_from_rank_boundaries(beta, len(values)))
        base = quantile(ScoreSample(values), beta)
        shifted = quantile(ScoreSample([v + c for v in values]), beta)
        assert shifted == pytest.approx(base + c, abs=1e-9)

    @given(small_samples, st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_monotone_in_level(self, values, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        s = ScoreSample(values)
        assert quantile(s, lo) <= quantile(s, hi)

    @given(small_samples, st.floats(min_value=1e-6, max_value=1.0))
    def test_galois_pair_with_cdf(self, values, beta):
        assume(_away_from_rank_boundaries(beta, len(values)))
        s = ScoreSample(values)
        q = quantile(s, beta)
        assert cdf(s, q) >= beta
        below = [v for v in values if v < q]
        if below:
            assert cdf(s, max(below)) < beta


class TestCdf:
    @pytest.mark.parametrize("q,expected", [(2.0, 0.5), (0.0, 0.0), (4.0, 1.0)])
    def test_counts_over_four_atoms(self, q, expected):
        assert cdf(ScoreSample([1, 2, 3, 4]), q) == expected

    def test_right_continuity_at_atoms(self):
        s = ScoreSample([1.0, 2.0])
        assert cdf(s, 1.0) == 0.5
        assert cdf(s, np.nextafter(1.0, 0.0)) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError) as info:
            cdf(ScoreSample([1.0]), float("nan"))
        assert str(info.value) == "cdf argument must not be NaN, got nan"

    def test_infinities_lie_beyond_every_score(self):
        s = ScoreSample([-1e308, 0.0, 1e308])
        assert cdf(s, float("inf")) == 1.0
        assert cdf(s, float("-inf")) == 0.0

    @given(small_samples, st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    def test_nondecreasing(self, values, q1, q2):
        lo, hi = min(q1, q2), max(q1, q2)
        s = ScoreSample(values)
        assert cdf(s, lo) <= cdf(s, hi)


class TestConformalQuantile:
    def test_n_99(self):
        # ceil(0.9 * 100) = 90 -> level 90/99 -> 90th order statistic.
        s = ScoreSample(np.arange(1.0, 100.0))
        res = conformal_quantile(s, 0.1)
        assert res.threshold == 90.0
        assert res.level_used == pytest.approx(90 / 99)

    def test_n_9_hits_maximum(self):
        # ceil(0.9 * 10) = 9 <= 9 -> level 1 -> max score.
        s = ScoreSample(np.arange(1.0, 10.0))
        res = conformal_quantile(s, 0.1)
        assert res.threshold == 9.0
        assert res.level_used == 1.0
        assert not res.is_unbounded

    def test_n_3_unbounded(self):
        # ceil(0.9 * 4) = 4 > 3 -> unbounded marker.
        res = conformal_quantile(ScoreSample([1.0, 2.0, 3.0]), 0.1)
        assert res.is_unbounded
        assert res.threshold is None

    def test_negative_zero_keeps_its_sign(self):
        # A rule without an offset returns the order statistic itself.
        result = conformal_quantile(ScoreSample([-0.0] * 9 + [1.0]), 0.5)
        assert math.copysign(1.0, result.threshold) == -1.0

    def test_rejects_bad_alpha(self):
        s = ScoreSample([1.0, 2.0])
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                conformal_quantile(s, alpha)

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.01, max_value=0.5))
    def test_threshold_at_least_plain_quantile(self, n, alpha):
        rng = np.random.default_rng(n)
        s = ScoreSample(rng.normal(size=n))
        res = conformal_quantile(s, alpha)
        if not res.is_unbounded:
            assert res.threshold >= quantile(s, 1 - alpha)


MAX = 1.7976931348623157e308
# Signed zeros and values at the edge of overflow, so a sum can overflow or
# keep either zero's sign.
edge_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, MAX, -MAX, float(np.nextafter(MAX, 0.0)),
                     1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def same_cutoff(rule, sorted_scores):
    """``rule.cutoff`` is ``rule.apply``'s threshold, bit for bit, or inf when unbounded."""
    cutoff = rule.cutoff(sorted_scores)
    result = rule.apply(sorted_scores)
    assert type(cutoff) is float
    if result.is_unbounded:
        assert cutoff == math.inf
    else:
        assert np.float64(cutoff).tobytes() == np.float64(result.threshold).tobytes()


class TestQuantileRuleCutoff:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(edge_floats, min_size=1, max_size=12), st.data())
    def test_agrees_with_apply(self, values, data):
        sorted_scores = np.sort(np.array(values))
        index = data.draw(st.one_of(st.none(), st.integers(1, len(values))))
        offset = data.draw(edge_floats)
        same_cutoff(QuantileRule(index, 0.5, offset, 0.9), sorted_scores)
        same_cutoff(QuantileRule(index, 0.5), sorted_scores)

    def test_edges(self):
        zeros = np.array([-0.0, 0.0])
        assert QuantileRule(None, 1.5).cutoff(zeros) == math.inf
        assert QuantileRule(1, 1.0, MAX).cutoff(np.array([MAX])) == math.inf
        assert QuantileRule(1, 1.0, -MAX).cutoff(np.array([-MAX])) == math.inf
        assert QuantileRule(1, 1.0, -MAX).cutoff(np.array([MAX])) == 0.0
        assert math.copysign(1.0, QuantileRule(1, 0.5).cutoff(zeros)) == -1.0
        assert math.copysign(1.0, QuantileRule(1, 0.5, 0.0).cutoff(zeros)) == 1.0
        for rule in (QuantileRule(1, 0.5), QuantileRule(2, 1.0, 0.0)):
            same_cutoff(rule, zeros)

    def test_offset_stored_as_python_float(self):
        for offset in (np.float64(0.25), np.float32(0.25), np.float64(-0.0), 1):
            rule = QuantileRule(1, 0.5, offset)
            assert type(rule.offset) is float and rule.offset == offset
            assert math.copysign(1.0, rule.offset) == math.copysign(1.0, offset)
            assert type(rule.cutoff(np.array([1.0]))) is float

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(METHOD_NAMES),
        st.lists(edge_floats, min_size=1, max_size=40),
        st.sampled_from([0.05, 0.1, 0.3, 0.6]),
        st.sampled_from([0.0, -0.0, 0.1, 1e308, MAX]),
        st.booleans(),
    )
    def test_agrees_with_apply_for_every_method(self, name, values, alpha, radius, weighted):
        method = MethodSpec(name, epsilon=radius, rho=0.05, rho_chi2=0.1, delta=radius,
                            sigma=2.0, test_weight=1.5)
        sorted_weights = np.linspace(0.5, 2.0, len(values)) if weighted else None
        try:
            rule = method.rule(len(values), alpha, sorted_weights)
        except ValueError:
            assume(False)
        same_cutoff(rule, np.sort(np.array(values)))


def rule_outcome(make):
    """``make()``'s rule with each float as its bits (so ``-0.0`` differs from
    ``0.0``), or the type of the error it raises."""
    try:
        rule = make()
    except ValueError as exc:
        return type(exc)
    bits = [None if x is None else np.float64(x).tobytes()
            for x in (rule.level_used, rule.offset, rule.coverage_bound)]
    return rule.index, *bits


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
sizes = st.one_of(st.integers(1, 30), st.integers(1, 10**6))
radii = st.one_of(st.sampled_from([-0.0, 0.0, 1e308, MAX]), st.floats(0.0, MAX))


class TestAtLevel:
    """``QuantileRule.at_level`` is the one place a level becomes an order statistic."""

    def test_level_within_the_snap_of_one_is_clamped(self):
        rule = QuantileRule.at_level(5, 1.0 + 1e-13, 0.5)
        assert (rule.index, rule.level_used, rule.offset) == (5, 1.0, 0.5)
        assert rule.cutoff(np.arange(5.0)) == 4.5

    def test_level_past_the_snap_is_unbounded_and_kept(self):
        rule = QuantileRule.at_level(5, 1.0 + 1e-9, 0.5)
        assert rule.index is None and rule.level_used == 1.0 + 1e-9
        assert rule.cutoff(np.arange(5.0)) == math.inf

    def test_default_offset_keeps_a_negative_zero(self):
        zeros = np.array([-0.0, 0.0])
        assert math.copysign(1.0, QuantileRule.at_level(2, 0.5).cutoff(zeros)) == -1.0
        assert math.copysign(1.0, QuantileRule.at_level(2, 0.5, 0.0).cutoff(zeros)) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(sizes, open_unit)
    @example(5, 1.0 - 1e-13)
    @example(19, 0.95)
    @example(1, 0.5)
    def test_conformal_rule_equals_the_inline_rule(self, n, alpha):
        assert rule_outcome(lambda: conformal_rule(n, alpha)) == rule_outcome(
            lambda: conformal_rule_inline(n, alpha))

    @settings(max_examples=300, deadline=None)
    @given(sizes, st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0), radii)
    @example(5, 1.0, 5e-13, 0.1)
    @example(5, 1.0, 1e-9, 0.1)
    @example(5, 1.0, 1e-11, 0.1)
    @example(10, 0.9, 0.1, -0.0)
    @example(10, 0.7, 0.3, 0.0)
    def test_worst_case_rule_equals_the_inline_rule(self, n, beta, rho, epsilon):
        params = LPParams(epsilon, rho)
        assert rule_outcome(lambda: worst_case_rule(n, beta, params)) == rule_outcome(
            lambda: worst_case_rule_inline(n, beta, params))

    @settings(max_examples=300, deadline=None)
    @given(sizes, open_unit, radii, st.floats(1e-300, 1e300))
    @example(9, 0.1, 0.05, 2.0)
    @example(1, 0.5, 1e308, 1e-300)
    def test_rscp_rule_equals_the_inline_rule(self, n, alpha, delta, sigma):
        assert rule_outcome(lambda: rscp_rule(n, alpha, delta, sigma)) == rule_outcome(
            lambda: rscp_rule_inline(n, alpha, delta, sigma))

    @settings(max_examples=300, deadline=None)
    @given(sizes, open_unit, st.one_of(st.sampled_from([0.0, 0.1, 2.0]), st.floats(0.0, 100.0)))
    @example(9, 0.1, 0.0)
    @example(100, 0.1, 0.1)
    def test_chi2_rule_equals_the_inline_rule(self, n, alpha, rho_chi2):
        assert rule_outcome(lambda: chi2_rule(n, alpha, rho_chi2)) == rule_outcome(
            lambda: chi2_rule_inline(n, alpha, rho_chi2))


class TestValidators:
    def test_check_alpha(self):
        check_alpha(0.5)
        for bad in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got"):
                check_alpha(bad)

    def test_check_calibration_size(self):
        check_calibration_size(1)
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"^calibration size must be positive, got {bad}$"):
                check_calibration_size(bad)

    RULES = [
        lambda n: conformal_rule(n, 0.1),
        lambda n: QuantileRule.at_level(n, 0.5),
        lambda n: worst_case_rule(n, 0.5, LPParams(0.1, 0.05)),
        lambda n: robust_rule(n, 0.1, LPParams(0.1, 0.05)),
        lambda n: lp_rule(n, 0.1, LPParams(0.1, 0.05)),
        lambda n: chi2_rule(n, 0.1, 0.1),
        lambda n: rscp_rule(n, 0.1, 0.05, 2.0),
        lambda n: weighted_rule(n, 0.1, 1.5),
        lambda n: fg_rule(n, 0.1, 0.1, 1.5),
    ]
    RULE_IDS = ["conformal", "at_level", "worst_case", "robust", "lp", "chi2", "rscp",
                "weighted", "fg"]

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("make", RULES, ids=RULE_IDS)
    def test_every_rule_refuses_a_calibration_size_below_one(self, make, n):
        with pytest.raises(ValueError, match=f"^calibration size must be positive, got {n}$"):
            make(n)

    @pytest.mark.parametrize("n", [20.5, 20.0, np.float64(20.0), "20", None])
    @pytest.mark.parametrize("make", RULES + [
        lambda n: coverage_lower_bound(n, 0.1, 0.05),
        lambda n: adjusted_beta(n, 0.1, 0.05),
    ], ids=RULE_IDS + ["coverage_lower_bound", "adjusted_beta"])
    def test_every_rule_refuses_a_calibration_size_that_is_not_an_integer(self, make, n):
        # 20.5 used to resolve index 20.5, whose cutoff leaked numpy's IndexError.
        message = f"^calibration size must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            make(n)

    @pytest.mark.parametrize("n", [20, np.int64(20), np.uint8(20)])
    def test_numpy_integer_calibration_size_accepted(self, n):
        assert QuantileRule.at_level(n, 0.5).index == 10
        assert coverage_lower_bound(n, 0.1, 0.0) == coverage_lower_bound(20, 0.1, 0.0)

    def test_check_seed(self):
        for good in (0, 7, True, np.int64(3), np.uint64(2**64 - 1), 2**64, 2**70):
            got = check_seed(good)
            assert type(got) is int and got == int(good)
        for bad in (-1, np.int8(-1), 1.5, 2.0, np.float64(2.0), "3", None):
            with pytest.raises(ValueError) as info:
                check_seed(bad)
            assert str(info.value) == f"seed must be a non-negative integer, got {bad!r}"

    def test_check_epsilon(self):
        check_finite_nonnegative(0.0, "epsilon")
        for bad in (-1e-300, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="epsilon must be a finite nonnegative real, got"):
                check_finite_nonnegative(bad, "epsilon")

    @pytest.mark.parametrize("bad", [-1e-300, float("inf"), float("nan")])
    def test_finite_nonnegative_message_names_each_parameter(self, bad):
        from lpconformal import LPParams, chi2_g, chi2_g_inv, rscp_threshold

        sample = ScoreSample([1.0, 2.0])
        calls = [
            ("epsilon", lambda: LPParams(bad, 0.0)),
            ("rho_chi2", lambda: chi2_g(0.5, bad)),
            ("rho_chi2", lambda: chi2_g_inv(0.5, bad)),
            ("delta", lambda: rscp_threshold(sample, 0.1, bad, 1.0)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name} must be a finite nonnegative real, got {bad!r}"

    def test_check_probability(self):
        for good in (0.0, -0.0, 0.5, 1.0):
            check_probability(good, "rho")
        for bad in (float("nan"), np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -1.0, 1.5):
            with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\], got"):
                check_probability(bad, "rho")

    @pytest.mark.parametrize("bad", [float("nan"), np.nextafter(0.0, -1.0),
                                     np.nextafter(1.0, 2.0), -1.0, 1.5])
    def test_probability_message_names_each_parameter(self, bad):
        from lpconformal import (LPParams, PerturbationSpec, adjusted_beta, chi2_g, chi2_g_inv,
                                 coverage_lower_bound)

        calls = [
            ("rho", lambda: LPParams(0.0, bad)),
            ("rho", lambda: PerturbationSpec(0.0, bad)),
            ("rho", lambda: adjusted_beta(100, 0.1, bad)),
            ("rho", lambda: coverage_lower_bound(100, 0.1, bad)),
            ("beta", lambda: chi2_g(bad, 0.1)),
            ("tau", lambda: chi2_g_inv(bad, 0.1)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name} must lie in [0, 1], got {bad!r}"

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_finite_positive_message_names_each_parameter(self, bad):
        from lpconformal import WeightedScores, propagate_params, rscp_threshold

        sample = ScoreSample([1.0, 2.0])
        calls = [
            ("test weight", lambda: WeightedScores([1.0, 2.0], [1.0, 1.0], bad)),
            ("test weight", lambda: fg_rule(2, 0.1, 0.1, bad)),
            ("sigma", lambda: rscp_threshold(sample, 0.1, 0.05, bad)),
            ("Lipschitz constant", lambda: propagate_params(bad, LPParams(0.1, 0.05))),
        ]
        for name, call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name} must be finite and positive, got {bad!r}"

    def test_check_finite_positive_returns_a_float(self):
        value = check_finite_positive(np.float32(2.5), "sigma")
        assert type(value) is float and value == 2.5

    def test_rscp_rule_checks_the_calibration_size_first(self):
        with pytest.raises(ValueError, match="^calibration size must be positive, got 0$"):
            rscp_rule(0, 2.0, 0.1, 1.0)

    def test_rho_validated_by_every_caller(self):
        from lpconformal import LPParams, PerturbationSpec, adjusted_beta, coverage_lower_bound

        for bad in (float("nan"), np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)):
            for call in (
                lambda: LPParams(0.0, bad),
                lambda: PerturbationSpec(0.0, bad),
                lambda: adjusted_beta(100, 0.1, bad),
                lambda: coverage_lower_bound(100, 0.1, bad),
            ):
                with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\], got"):
                    call()
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\), got 1.0"):
            coverage_lower_bound(100, 0.1, 1.0)
        assert coverage_lower_bound(100, 0.1, -0.0) == coverage_lower_bound(100, 0.1, 0.0)

    def test_level_at_most_one_absorbs_round_off(self):
        assert level_at_most_one(0.9 + 0.1)
        assert level_at_most_one(1.0 + 1e-13)
        assert not level_at_most_one(1.0 + 1e-9)
