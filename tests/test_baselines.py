"""Tests for the comparison threshold methods."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpconformal import (
    ScoreSample,
    WeightedScores,
    chi2_g,
    chi2_g_inv,
    chi2_threshold,
    conformal_quantile,
    fg_threshold,
    quantile,
    rscp_threshold,
    sc_threshold,
    weighted_threshold,
)
from lpconformal.baselines import fg_rule
from lpconformal.core import LEVEL_REL_TOL, conformal_rule

_Z_STEP = 1e-6
_Z_GRID = np.linspace(0.0, 1.0, 1_000_001)
_Z_CHUNK = 10_000


def chi2_g_grid_oracle(beta, rho):
    """Grid search over z of the original variational definition.

    Evaluates beta * f(z / beta) + (1 - beta) * f((1 - z) / (1 - beta)) with
    the quadratic generator f(x) = (x - 1)^2 and returns the smallest
    feasible z on a 1e-6 grid. Feasibility carries a guard equal to the
    worst-case quantization of the constraint at this resolution (the
    constraint is quadratic in z with curvature 1 / (beta (1 - beta))), so
    the returned z is within one grid step of the true infimum. The grid is
    scanned left to right in fixed chunks and the scan stops at the first
    chunk holding a feasible point, which yields the same z as evaluating the
    whole grid at once.
    """
    guard = (0.501 * _Z_STEP) ** 2 / (beta * (1.0 - beta))
    for start in range(0, _Z_GRID.size, _Z_CHUNK):
        z = _Z_GRID[start:start + _Z_CHUNK]
        value = beta * (z / beta - 1.0) ** 2 + (1.0 - beta) * ((1.0 - z) / (1.0 - beta) - 1.0) ** 2
        feasible = value <= rho + guard
        if feasible.any():
            return float(z[int(np.argmax(feasible))])
    raise AssertionError(f"no feasible grid point for beta={beta!r}, rho={rho!r}")


def weighted_quantile_hand(scores, weights, test_weight, level):
    """Hand evaluation of the weighted CDF with the >= convention."""
    order = np.argsort(scores)
    s = np.asarray(scores, float)[order]
    w = np.asarray(weights, float)[order]
    total = float(np.sum(w)) + test_weight
    cum = np.cumsum(w) / total
    hits = np.nonzero(cum >= level)[0]
    if hits.size == 0:
        return None
    return float(s[hits[0]])


class TestScThreshold:
    def test_alias_of_conformal_quantile(self):
        s = ScoreSample(np.arange(1.0, 100.0))
        assert sc_threshold(s, 0.1) == conformal_quantile(s, 0.1)

    def test_small_n_hits_max_then_unbounded(self):
        assert sc_threshold(ScoreSample(np.arange(1.0, 10.0)), 0.1).threshold == 9.0
        assert sc_threshold(ScoreSample([1.0, 2.0, 3.0]), 0.1).is_unbounded


class TestChi2G:
    def test_zero_radius_is_identity(self):
        for beta in (0.1, 0.5, 0.77):
            assert chi2_g(beta, 0.0) == pytest.approx(beta)

    def test_half_with_unit_radius(self):
        # Grid oracle pins the clamp at zero.
        assert chi2_g_grid_oracle(0.5, 1.0) == pytest.approx(0.0, abs=2e-6)
        assert chi2_g(0.5, 1.0) == 0.0

    def test_high_beta_small_radius(self):
        oracle = chi2_g_grid_oracle(0.9, 0.04)
        assert chi2_g(0.9, 0.04) == pytest.approx(oracle, abs=2e-6)
        assert chi2_g(0.9, 0.04) == pytest.approx(0.84)

    def test_endpoints(self):
        assert chi2_g(0.0, 0.3) == 0.0
        assert chi2_g(1.0, 0.3) == 1.0

    def test_monotone_on_lattice(self):
        betas = np.linspace(0.0, 1.0, 50)
        rhos = np.linspace(0.0, 2.0, 50)
        for rho in rhos:
            vals = [chi2_g(b, rho) for b in betas]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for beta in betas:
            vals = [chi2_g(beta, rho) for rho in rhos]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestChi2GInv:
    def test_zero_radius_identity(self):
        # chi2_g(beta, 0) == beta, so the bisection runs down to tau itself.
        for tau in (0.1, 0.45, 0.9, 1e-50, 1e-70, 1e-300, 5e-324):
            assert chi2_g_inv(tau, 0.0) == tau

    def test_round_trips(self):
        for tau in np.arange(0.1, 0.95, 0.1):
            for rho in (0.01, 0.1, 0.5):
                beta = chi2_g_inv(tau, rho)
                assert chi2_g(beta, rho) <= tau + 1e-12
                # maximality: a slightly larger beta violates the constraint
                if beta < 1.0:
                    assert chi2_g(min(beta + 1e-9, 1.0), rho) >= tau - 1e-9

    def test_tau_one(self):
        assert chi2_g_inv(1.0, 0.2) == 1.0

    def test_inverse_of_g(self):
        for beta in (0.3, 0.6, 0.9):
            for rho in (0.02, 0.2):
                assert chi2_g_inv(chi2_g(beta, rho), rho) >= beta - 1e-9


class TestChi2Threshold:
    def test_zero_radius_reduces_to_inflated_level(self):
        # g is the identity at rho 0, so the level is (1 + 1/n)(1 - alpha).
        s = ScoreSample(np.arange(1, 101, dtype=float))
        res = chi2_threshold(s, 0.1, 0.0)
        expected_level = (1 + 1 / 100) * 0.9
        assert res.level_used == pytest.approx(expected_level, abs=1e-9)
        assert res.threshold == quantile(s, expected_level)
        # comparable to the standard split threshold at the same n
        assert res.threshold >= sc_threshold(s, 0.1).threshold - 1.0

    def test_large_radius_hits_maximum(self):
        # Large enough to push the level to the top order statistic while the
        # corrected level still fits below one.
        s = ScoreSample(np.arange(1, 101, dtype=float))
        assert chi2_threshold(s, 0.1, 0.5).threshold == 100.0

    def test_huge_radius_overflows_to_unbounded(self):
        s = ScoreSample(np.arange(1, 101, dtype=float))
        assert chi2_threshold(s, 0.1, 50.0).is_unbounded

    def test_against_grid_composition(self):
        # End-to-end recomputation with the grid-based g in place of the
        # closed form.
        n = 1000
        s = ScoreSample(np.arange(1, n + 1, dtype=float))
        alpha, rho = 0.1, 0.01

        def g_inv_grid(tau):
            betas = np.linspace(0.0, 1.0, 1_000_001)
            vals = np.where(
                (betas > 0) & (betas < 1),
                np.maximum(0.0, betas - np.sqrt(rho * betas * (1 - betas))),
                betas,
            )
            ok = np.nonzero(vals <= tau)[0]
            return float(betas[ok[-1]])

        inner = (1 + 1 / n) * g_inv_grid(1 - alpha)
        alpha_n = 1.0 - chi2_g_grid_oracle(inner, rho)
        level = g_inv_grid(1 - alpha_n)
        expected = quantile(s, level)
        got = chi2_threshold(s, alpha, rho)
        assert got.level_used == pytest.approx(level, abs=5e-6)
        assert abs(got.threshold - expected) <= 1.0  # at most one order statistic apart

    def test_tiny_sample_unbounded(self):
        assert chi2_threshold(ScoreSample([1.0, 2.0]), 0.1, 0.0).is_unbounded


class TestWeightedThreshold:
    def test_equal_weights_boundary_hits_max_finite(self):
        # n = 9 equal weights: finite mass 9/10 meets level 0.9 exactly, so
        # the max finite score is returned rather than the infinity atom.
        ws = WeightedScores(np.arange(1.0, 10.0), np.ones(9), 1.0)
        res = weighted_threshold(ws, 0.1)
        assert not res.is_unbounded
        assert res.threshold == 9.0
        assert weighted_quantile_hand(ws.scores, ws.weights, 1.0, 0.9) == 9.0

    def test_dominant_weight_concentrates(self):
        ws = WeightedScores([1.0, 5.0, 9.0], [1.0, 1e9, 1.0], 1.0)
        assert weighted_threshold(ws, 0.1).threshold == 5.0

    def test_huge_test_weight_unbounded(self):
        ws = WeightedScores([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 1e9)
        assert weighted_threshold(ws, 0.1).is_unbounded

    def test_compared_and_hashed_by_identity(self):
        a, b = (WeightedScores([1.0, 2.0], [0.5, 1.5], 1.0) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedScores([1.0], [0.0], 1.0)
        with pytest.raises(ValueError):
            WeightedScores([1.0], [1.0], -1.0)
        with pytest.raises(ValueError):
            WeightedScores([1.0, 2.0], [1.0], 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(1, 400), st.sampled_from([999, 1000, 1999, 5000])),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(5, 1 / 3)  # (1 - 1/3) * 6 is exactly 4.0, but 4 / 6 < 1 - 1/3
    @example(19, 0.95)
    @example(5, 1 - 1e-13)  # (1 - alpha) * (n + 1) is within LEVEL_REL_TOL of 0
    def test_uniform_weights_match_augmented_sample_semantics(self, n, alpha):
        # With unit weights the weighted rule (and fg at radius zero) picks
        # split conformal's (n+1)-corrected order statistic, unbounded alike.
        want = conformal_rule(n, alpha).index
        assert fg_rule(n, alpha, 0.0, 1.0).index == want
        assert fg_rule(n, alpha, 0.0, 1.0, np.ones(n)).index == want
        scores = np.random.default_rng(n).normal(size=n)
        sc = sc_threshold(ScoreSample(scores), alpha)
        wt = weighted_threshold(WeightedScores(scores, np.ones(n), 1.0), alpha)
        assert (wt.threshold, wt.level_used) == (sc.threshold, 1.0 - alpha)


WEIGHTS = [0.1, 0.2, 0.3, 0.7, 1 / 3, 1.1]


@st.composite
def tied_weighted_scores(draw):
    """Scores with many ties and weights whose sums round, with a row permutation."""
    n = draw(st.integers(1, 12))
    scores = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
    return scores, weights, draw(st.sampled_from(WEIGHTS)), draw(st.permutations(range(n)))


def exact_weighted_index(sorted_weights, test_weight, level):
    """The weighted rule's index in exact rationals, or ``"edge"``.

    ``S_k`` reaches ``t = level * T`` when ``t - S_k <= LEVEL_REL_TOL * t``.
    The rule evaluates that in floats, so a prefix sum within float round-off
    of the snap band's edge can go either way; those inputs give ``"edge"``.
    """
    prefix = np.cumsum([Fraction(0)] + [Fraction(w) for w in sorted_weights])
    target = Fraction(level) * (prefix[-1] + Fraction(test_weight))
    tol = Fraction(LEVEL_REL_TOL)
    gaps = [target - s - tol * target for s in prefix[1:]]
    if any(abs(gap) <= Fraction(1e-14) * target for gap in gaps):
        return "edge"
    return next((k for k, gap in enumerate(gaps, 1) if gap <= 0), None)


class TestWeightedRule:
    """One weighted rule: exact sums, snapped like ``snapped_ceil``, order-free."""

    @settings(max_examples=300, deadline=None)
    @given(tied_weighted_scores(), st.sampled_from([0.1, 0.2, 0.4, 0.5, 0.8]),
           st.sampled_from([0.0, 0.01, 0.1]))
    @example(([1.0, 1.0, 2.0], [1.1, 1 / 3, 1.1], 1 / 3, [0, 2, 1]), 0.5, 0.0)
    @example(([0.0, 0.0, 2.0, 2.0], [0.3, 0.1, 0.7, 0.1], 0.3, [3, 1, 2, 0]), 0.2, 0.0)
    def test_row_order_never_changes_a_threshold(self, case, alpha, rho_chi2):
        scores, weights, tw, perm = case
        scores, weights, perm = np.asarray(scores, dtype=float), np.asarray(weights), list(perm)
        given_order = WeightedScores(scores, weights, tw)
        permuted = WeightedScores(scores[perm], weights[perm], tw)
        assert weighted_threshold(permuted, alpha) == weighted_threshold(given_order, alpha)
        assert fg_threshold(permuted, alpha, rho_chi2) == fg_threshold(given_order, alpha, rho_chi2)

    @settings(max_examples=300, deadline=None)
    @given(tied_weighted_scores(), st.sampled_from([0.1, 0.2, 0.4, 0.5, 0.8]),
           st.sampled_from([0.0, 0.01, 0.1]))
    @example(([1.0, 2.0, 1.0], [1.1, 1.1, 1 / 3], 1 / 3, [0, 1, 2]), 0.5, 0.0)
    @example(([1, 2, 3, 4, 5], [1.0] * 5, 1.0, [0, 1, 2, 3, 4]), 1 / 3, 0.0)
    def test_matches_exact_rationals(self, case, alpha, rho_chi2):
        scores, weights, tw, _ = case
        scores, weights = np.asarray(scores, dtype=float), np.asarray(weights)
        level = chi2_g_inv(1.0 - alpha, rho_chi2)
        order = np.argsort(scores, kind="stable")
        k = exact_weighted_index(weights[order], tw, level)
        assume(k != "edge")
        want = None if k is None else float(scores[order][k - 1])
        assert fg_threshold(WeightedScores(scores, weights, tw), alpha, rho_chi2).threshold == want
        if rho_chi2 == 0.0:
            assert weighted_threshold(WeightedScores(scores, weights, tw), alpha).threshold == want

    def test_total_past_largest_double_raises(self):
        ws = WeightedScores([1.0, 2.0, 3.0], [1e308] * 3, 1.0)
        message = "^the total weight overflows; rescale the weights$"
        with pytest.raises(ValueError, match=message):
            weighted_threshold(ws, 0.9)
        with pytest.raises(ValueError, match=message):
            fg_threshold(ws, 0.9, 0.1)
        with pytest.raises(ValueError, match=message):
            fg_rule(2, 0.1, 0.0, 1e308, np.full(2, 1e308))
        # Weights a third as large sum to a finite total.
        ws = WeightedScores([1.0, 2.0, 3.0], [1e308 / 3] * 3, 1.0)
        assert weighted_threshold(ws, 0.9).threshold == 1.0


class TestRscpThreshold:
    def test_zero_delta_is_pure_quantile(self):
        s = ScoreSample(np.arange(1, 101, dtype=float))
        res = rscp_threshold(s, 0.1, 0.0, 1.0)
        assert res.threshold == quantile(s, res.level_used)

    def test_pinned_arithmetic(self):
        # level 0.9 * 1002 / 1001 -> order statistic 901, plus 0.5 / 0.25.
        s = ScoreSample(np.arange(1, 1001, dtype=float))
        res = rscp_threshold(s, 0.1, 0.5, 0.25)
        assert res.level_used == pytest.approx(0.900899, abs=1e-6)
        assert res.threshold == 901.0 + 2.0

    def test_level_overflow_unbounded(self):
        # 0.999 * 12 / 11 > 1
        res = rscp_threshold(ScoreSample(np.arange(1.0, 11.0)), 0.001, 0.0, 1.0)
        assert res.is_unbounded

    def test_threshold_overflow_unbounded(self):
        # delta / sigma = 1e308 pushes a quantile near 1.6e308 past the largest double.
        s = ScoreSample(np.linspace(1.6e308, 1.7e308, 50))
        res = rscp_threshold(s, 0.1, 1.0, 1e-308)
        assert res.is_unbounded
        assert res.level_used <= 1.0
        assert not rscp_threshold(s, 0.1, 1.0, 1e8).is_unbounded

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            rscp_threshold(ScoreSample([1.0]), 0.1, 0.1, 0.0)


class TestFgThreshold:
    def test_zero_radius_equals_weighted(self):
        ws = WeightedScores(np.arange(1.0, 10.0), np.ones(9), 1.0)
        fg = fg_threshold(ws, 0.1, 0.0)
        wt = weighted_threshold(ws, 0.1)
        assert fg.threshold == wt.threshold

    def test_equal_weights_zero_radius_pinned(self):
        ws = WeightedScores(np.arange(1.0, 10.0), np.ones(9), 1.0)
        assert fg_threshold(ws, 0.1, 0.0).threshold == 9.0

    def test_composed_oracle_n_1000(self):
        # grid-based g_inv composed with the hand-evaluated weighted CDF
        n = 1000
        scores = np.arange(1.0, n + 1)
        ws = WeightedScores(scores, np.ones(n), 1.0)
        level = chi2_g_inv(0.9, 0.01)
        expected = weighted_quantile_hand(scores, np.ones(n), 1.0, level)
        assert fg_threshold(ws, 0.1, 0.01).threshold == expected


class TestMonotoneInRobustness:
    def test_chi2_and_rscp_thresholds_nondecreasing(self):
        s = ScoreSample(np.arange(1, 201, dtype=float))
        chi_vals = [chi2_threshold(s, 0.1, r).threshold for r in (0.0, 0.01, 0.05, 0.2)]
        assert all(a <= b for a, b in zip(chi_vals, chi_vals[1:]))
        rscp_vals = [rscp_threshold(s, 0.1, d, 0.5).threshold for d in (0.0, 0.1, 0.5)]
        assert all(a <= b for a, b in zip(rscp_vals, rscp_vals[1:]))
