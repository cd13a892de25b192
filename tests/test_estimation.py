"""Tests for data-driven (epsilon, rho) selection."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpconformal import (
    NoFeasibleGridError,
    ScoreSample,
    adjusted_beta,
    default_epsilon_grid,
    estimate_lp_params,
    lp_distance,
    quantile,
)


def _dump(result):
    return json.dumps(
        [(p.epsilon, p.rho, p.beta, p.q, p.feasible, p.reason) for p in result.grid_trace]
    )


class TestEstimate:
    def test_identity_shift_selects_smallest_epsilon(self):
        rng = np.random.default_rng(0)
        calib_a = ScoreSample(rng.normal(size=400))
        calib_b = ScoreSample(rng.normal(size=400))
        grid = [0.05, 0.1, 0.2, 0.4]
        res = estimate_lp_params(calib_a, calib_b, calib_a, grid, 0.1)
        assert all(p.rho == 0.0 for p in res.grid_trace)
        assert res.epsilon == 0.05
        qs = [p.q for p in res.grid_trace]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_shift_straddled_by_grid(self):
        # Narrow support shifted by delta = 5: below the straddle rho is 1
        # (infeasible level), at and above it rho is 0.
        rng = np.random.default_rng(1)
        base = rng.uniform(0.0, 0.5, size=300)
        calib_a = ScoreSample(base)
        calib_b = ScoreSample(rng.uniform(0.0, 0.5, size=300))
        test = ScoreSample(base + 5.0)
        grid = [1.0, 2.0, 5.0, 6.0]
        res = estimate_lp_params(calib_a, calib_b, test, grid, 0.1)
        rhos = {p.epsilon: p.rho for p in res.grid_trace}
        assert rhos[1.0] == 1.0 and rhos[2.0] == 1.0
        assert rhos[5.0] == 0.0 and rhos[6.0] == 0.0
        assert res.epsilon == 5.0
        infeasible = [p for p in res.grid_trace if not p.feasible]
        assert {p.epsilon for p in infeasible} == {1.0, 2.0}

    def test_single_infeasible_point_raises(self):
        # n too small for the coverage adjustment at any rho.
        s = ScoreSample(np.arange(10.0))
        with pytest.raises(NoFeasibleGridError):
            estimate_lp_params(s, s, s, [0.1], 0.1)

    def test_infeasible_message_names_the_traced_reason(self):
        # Every grid point has rho = 1: the adjustment succeeds but the
        # worst-case quantile level exceeds one.
        calib = ScoreSample(np.arange(500.0))
        test = ScoreSample(np.arange(500.0) + 1e6)
        grid = default_epsilon_grid(calib)
        with pytest.raises(NoFeasibleGridError) as info:
            estimate_lp_params(calib, calib, test, grid, 0.1)
        assert str(info.value) == (
            "no feasible ambiguity set: 20 of 20 grid points: quantile level above one"
        )

    def test_infeasible_message_counts_each_reason(self):
        s = ScoreSample(np.arange(10.0))
        with pytest.raises(NoFeasibleGridError) as info:
            estimate_lp_params(s, s, s, [0.1, 0.2], 0.1)
        assert str(info.value) == (
            "no feasible ambiguity set: 2 of 2 grid points: coverage adjustment infeasible"
        )

    def test_overflowing_threshold_is_traced_infeasible(self):
        s = ScoreSample(np.linspace(1.6e308, 1.7e308, 400))
        res = estimate_lp_params(s, s, s, [0.5, 1e308], 0.1)
        assert res.epsilon == 0.5 and np.isfinite(res.q)
        over = res.grid_trace[1]
        assert (over.rho, over.q, over.feasible, over.reason) == (
            0.0, None, False, "threshold overflows"
        )
        with pytest.raises(NoFeasibleGridError) as info:
            estimate_lp_params(s, s, s, [1e308], 0.1)
        assert str(info.value) == (
            "no feasible ambiguity set: 1 of 1 grid points: threshold overflows"
        )

    def test_trace_rows_recompute_exactly(self):
        rng = np.random.default_rng(2)
        calib_a = ScoreSample(rng.normal(size=200))
        calib_b = ScoreSample(rng.normal(size=250))
        test = ScoreSample(rng.normal(loc=0.4, size=150))
        res = estimate_lp_params(calib_a, calib_b, test, [0.1, 0.3, 0.9], 0.1)
        for p in res.grid_trace:
            rho = lp_distance(calib_a, test, p.epsilon).rho
            assert rho == p.rho
            if p.feasible:
                beta = adjusted_beta(calib_b.n, 0.1, rho)
                assert beta == p.beta
                assert quantile(calib_b, min(1.0, 1.0 - beta + rho)) + p.epsilon == p.q

    def test_selected_q_is_minimal_and_in_trace(self):
        rng = np.random.default_rng(3)
        calib_a = ScoreSample(rng.normal(size=150))
        calib_b = ScoreSample(rng.normal(size=150))
        test = ScoreSample(rng.normal(scale=1.3, size=150))
        res = estimate_lp_params(calib_a, calib_b, test, [0.05, 0.2, 0.5, 1.0], 0.1)
        finite = [p.q for p in res.grid_trace if p.feasible]
        assert res.q == min(finite)
        assert any(
            (p.epsilon, p.rho, p.beta, p.q) == (res.epsilon, res.rho, res.beta, res.q)
            for p in res.grid_trace
        )

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        calib_a = ScoreSample(rng.normal(size=120))
        calib_b = ScoreSample(rng.normal(size=130))
        test = ScoreSample(rng.normal(loc=0.2, size=110))
        grid = [0.05, 0.25, 0.75]
        r1 = estimate_lp_params(calib_a, calib_b, test, grid, 0.1)
        r2 = estimate_lp_params(calib_a, calib_b, test, grid, 0.1)
        assert (r1.epsilon, r1.rho, r1.beta, r1.q) == (r2.epsilon, r2.rho, r2.beta, r2.q)
        assert _dump(r1) == _dump(r2)

    def test_rejects_bad_grids(self):
        s = ScoreSample(np.arange(100.0))
        with pytest.raises(ValueError):
            estimate_lp_params(s, s, s, [], 0.1)
        with pytest.raises(ValueError):
            estimate_lp_params(s, s, s, [0.5, 0.2], 0.1)
        with pytest.raises(ValueError):
            estimate_lp_params(s, s, s, [-0.5, 0.2], 0.1)


class TestDefaultGrid:
    def test_shape_and_span(self):
        rng = np.random.default_rng(5)
        s = ScoreSample(rng.normal(size=500))
        grid = default_epsilon_grid(s)
        assert len(grid) == 20
        assert all(b > a for a, b in zip(grid, grid[1:]))
        iqr = np.quantile(s.scores, 0.75) - np.quantile(s.scores, 0.25)
        assert grid[0] == pytest.approx(0.01 * iqr)
        assert grid[-1] == pytest.approx(2 * iqr)

    def test_constant_scores_rejected(self):
        with pytest.raises(ValueError):
            default_epsilon_grid(ScoreSample([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("scores, iqr", [
        ([1e308, -1e308, 1e308, -1e308, 0.0], "inf"),
        ([0.0, 0.0, 1e-322, 1e-322, 2e-322], "1e-322"),
    ], ids=["overflowing", "subnormal"])
    def test_unusable_range_rejected_without_numpy_text(self, scores, iqr):
        # The suite turns warnings into errors, so a numpy warning fails here.
        with pytest.raises(ValueError) as info:
            default_epsilon_grid(ScoreSample(scores))
        assert str(info.value) == (
            f"the pooled interquartile range {iqr} gives no finite, positive, "
            "increasing epsilon grid; supply an explicit grid (--grid)"
        )


def _grid_outcome(samples):
    try:
        return default_epsilon_grid(*samples)
    except ValueError as exc:
        return str(exc)


# Ties, signed zeros, values near overflow, subnormals and heavy tails.
grid_scores = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, 1e-322]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-3.0, 3.0).map(lambda u: float(np.tan(u / 2.0))),  # Cauchy-like tails
)


class TestDefaultGridIqr:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(grid_scores, min_size=1, max_size=30), min_size=1, max_size=3))
    @example([[0.0, -0.0, -1.0, 0.0, -0.0, 0.0, 0.0]])
    def test_iqr_is_two_scalar_quantile_calls(self, lists):
        # One np.quantile call at both levels is faster, but it partitions
        # signed zeros differently: on [0.0, -0.0, -1.0, 0.0, -0.0, 0.0, 0.0]
        # its quartiles are 0.0 and 0.0, where two calls give 0.0 and -0.0,
        # and the zero range's message would lose its sign.
        samples = [ScoreSample(values) for values in lists]
        pooled = np.concatenate([s.scores for s in samples])
        with np.errstate(all="ignore"):
            iqr = float(np.quantile(pooled, 0.75) - np.quantile(pooled, 0.25))
        outcome = _grid_outcome(samples)
        if isinstance(outcome, str):
            assert outcome.startswith(f"the pooled interquartile range {iqr!r} gives")
        else:
            # geomspace keeps both ends exact, and 2 * iqr is exact.
            assert (outcome[0], outcome[-1]) == (0.01 * iqr, 2.0 * iqr)
