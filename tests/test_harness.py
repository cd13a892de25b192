"""Tests for splits, evaluation, comparison, and file ingestion."""

import codecs
import contextlib
import csv
import json
import math
import os
import re
import stat
import sys
import tempfile
import threading
import tracemalloc
import urllib.request
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpconformal import (
    LPParams,
    MethodSpec,
    WeightedScores,
    PerturbationSpec,
    PointMass,
    ScoreMatrix,
    ScoreSample,
    Uniform,
    chi2_threshold,
    compare,
    conformal_quantile,
    evaluate,
    fg_threshold,
    lp_threshold,
    quantile,
    read_matrix,
    read_scores,
    read_weighted_scores,
    rscp_threshold,
)
from lpconformal import harness
from lpconformal.core import check_alpha
from lpconformal.harness import (
    METHOD_NAMES,
    WEIGHTED_METHODS,
    EvalReport,
    FileFormatError,
    SplitResult,
    perturbation_dict,
    write_report_csv,
    write_text,
)
from lpconformal.baselines import chi2_rule, fg_rule, rscp_rule
from lpconformal.robust import adjusted_beta, lp_rule
from lpconformal.shiftlab import perturb_rows

from oracles import (
    fifo_receives,
    report_csv,
    report_json,
    split,
    split_indices,
    written_by_open,
)


def synthetic_matrix(rng, rows=600, labels=5, sep=2.0):
    """True-label scores near zero, off-label scores shifted up by sep."""
    scores = sep + np.abs(rng.normal(size=(rows, labels)))
    true = rng.integers(0, labels, size=rows)
    scores[np.arange(rows), true] = np.abs(rng.normal(size=rows))
    return ScoreMatrix(scores, true)


class TestScoreMatrix:
    def test_validates(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.zeros((2, 2)), [0, 5])
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[np.inf, 0.0]]), [0])
        for labels in ([0.7, 1.9], [1.0, 0.5], np.array([np.nan, 0.0])):
            with pytest.raises(ValueError, match="^true labels must be integers$"):
                ScoreMatrix([[0.0, 1.0], [2.0, 3.0]], labels)
        m = ScoreMatrix([[0.1, 0.2], [0.3, 0.4]], [1, 0])
        assert m.n_rows == 2 and m.n_labels == 2

    @pytest.mark.parametrize("label", [np.inf, -np.inf, 1e30, 2.0**63],
                             ids=["inf", "-inf", "1e30", "2**63"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_labels_beyond_int64_raise_without_warning(self, label, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^true labels must index a matrix column$"):
                ScoreMatrix([[0.0, 1.0], [2.0, 3.0]], np.array([label, 0.0], dtype))

    @pytest.mark.parametrize("labels", [[1.0, 0.0], np.array([1, 0]), np.array([1, 0], np.uint8)])
    def test_integral_labels_accepted(self, labels):
        m = ScoreMatrix([[0.0, 1.0], [2.0, 3.0]], labels)
        assert m.true_labels.tolist() == [1, 0]

    # Each case with a ``want`` must give it: the accepted labels or the message.
    @pytest.mark.parametrize("labels, want", [
        (np.array([1, 0, 1]), None), (np.array([1, 0, 1], np.int8), None),
        (np.array([1, 0, 1], np.uint8), None), (np.array([True, False, True]), None),
        (np.array([1, 0, 2**64 - 1], np.uint64), None),
        (np.array([1.0, 0.0, 1.0]), None), (np.array([1.0, 0.0, 1.0], np.float32), None),
        ([0.5, 0.0, 1.0], None), ([np.nan, 0.0, 1.0], None), ([np.inf, 0.0, 1.0], None),
        ([-np.inf, 0.0, 1.0], None), ([1e30, 0.0, 1.0], None), ([2.0**63, 0.0, 1.0], None),
        ([99999999999999999999, 0, 1], None), ([-(2**63) - 1, 0, 1], None),
        (np.array([1, 0, 1], dtype=object), None),
        (["1", "0", "1"], None), (["x", "0", "1"], None),
        ([1, 0], None), ([1, 0, 1, 0], None), ([[1], [0], [1]], None),
        # An object array is read as floats first, so the float rules apply to it.
        (np.array(["1", "0", "1"], dtype=object), [1, 0, 1]),
        (np.array([1.5, 0, 1], dtype=object), "true labels must be integers"),
        (np.array([np.nan, 0, 1], dtype=object), "true labels must be integers"),
        (np.array([None, 0, 1], dtype=object), "true labels must be integers"),
        (np.array([10**400, 0, 1], dtype=object), "true labels must index a matrix column"),
        # A string cast to int past int64 overflows; it is out of range, on either side.
        (["99999999999999999999", "0", "1"], "true labels must index a matrix column"),
        (["-99999999999999999999", "0", "1"], "true labels must index a matrix column"),
    ], ids=["int64", "int8", "uint8", "bool", "uint64-max", "float64", "float32", "half",
            "nan", "inf", "-inf", "1e30", "2**63", "python-int-past-uint64",
            "python-int-below-int64", "object", "digit-strings", "non-digit-string",
            "too-few", "too-many", "2-d", "object-digit-strings", "object-half", "object-nan",
            "object-none", "object-past-double", "string-past-int64", "string-below-int64"])
    def test_perturb_rows_takes_the_labels_the_matrix_takes(self, labels, want):
        # core.check_labels is the one rule: both raise the same message, or both
        # accept, and perturb_rows then draws as it does from the matrix's int64 labels.
        scores = np.arange(6.0).reshape(3, 2)

        def outcome(make):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return make()
            except ValueError as exc:
                return str(exc)

        matrix = outcome(lambda: ScoreMatrix(scores, labels).true_labels)
        spec = PerturbationSpec(0.1, 0.5, global_law=Uniform(-2.0, 3.0))
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        perturbed = outcome(lambda: perturb_rows(scores, labels, spec, rng))
        if isinstance(matrix, str):
            assert perturbed == matrix
        else:
            assert matrix.dtype == np.int64
            assert perturbed.tobytes() == perturb_rows(scores, matrix, spec, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if want is not None:
            assert (matrix if isinstance(matrix, str) else matrix.tolist()) == want

    def test_finite_check_builds_no_mask(self):
        scores, labels = np.zeros((10_000, 100)), np.zeros(10_000, dtype=np.int64)
        tracemalloc.start()
        try:
            ScoreMatrix(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024

    def test_compared_and_hashed_by_identity(self):
        a, b = (ScoreMatrix([[0.0, 1.0], [2.0, 3.0]], [1, 0]) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestSplit:
    """The split ``evaluate`` and ``compare`` draw, checked on the library;
    ``oracles.split_indices`` is pinned to it for the reference loops."""

    def test_all_rows_calibrate(self):
        calib_idx, test_idx = harness._split_indices(20, 20, 0, seed=1)
        assert sorted(calib_idx.tolist()) == list(range(20))
        assert test_idx.size == 0

    def test_same_seed_identical(self):
        m = synthetic_matrix(np.random.default_rng(1), rows=50)
        methods = [MethodSpec("sc"), MethodSpec("lp", epsilon=0.1, rho=0.05)]
        r1 = compare(m, methods, 0.1, n_splits=4, n_calib=30, k_test=10, base_seed=7)
        r2 = compare(m, methods, 0.1, n_splits=4, n_calib=30, k_test=10, base_seed=7)
        assert [r.to_json() for r in r1] == [r.to_json() for r in r2]

    def test_different_seeds_differ(self):
        m = synthetic_matrix(np.random.default_rng(2), rows=200, sep=0.5)
        kwargs = dict(alpha=0.1, n_splits=4, n_calib=100, k_test=100)
        r1 = evaluate(m, MethodSpec("sc"), **kwargs, base_seed=0)
        r2 = evaluate(m, MethodSpec("sc"), **kwargs, base_seed=1)
        assert r1.per_split != r2.per_split

    def test_size_violation(self):
        m = synthetic_matrix(np.random.default_rng(3), rows=10)
        with pytest.raises(ValueError, match="^n_calib \\+ k_test = 13 exceeds the 10 available rows$"):
            evaluate(m, MethodSpec("sc"), 0.1, n_splits=1, n_calib=8, k_test=5, base_seed=0)
        with pytest.raises(ValueError, match="exceeds the 10 available rows"):
            compare(m, [MethodSpec("sc")], 0.1, n_splits=1, n_calib=8, k_test=5, base_seed=0)
        with pytest.raises(ValueError, match="^calibration size must be positive, got 0$"):
            evaluate(m, MethodSpec("sc"), 0.1, n_splits=1, n_calib=0, k_test=5, base_seed=0)

    def test_calibration_scores_are_true_label_scores(self):
        # True-label scores lie below 0.5 and every other score above it, so
        # a threshold calibrated on any other column would admit extra labels.
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=40)
        scores = rng.uniform(0.6, 1.0, size=(40, 4))
        scores[np.arange(40), labels] = rng.uniform(0.0, 0.4, size=40)
        m = ScoreMatrix(scores, labels)
        report = evaluate(m, MethodSpec("sc"), 0.1, n_splits=3, n_calib=30, k_test=10, base_seed=0)
        assert all(r.mean_set_size <= 1.0 for r in report.per_split)
        calib, _ = split(m, 40, 0, seed=0)
        assert np.array_equal(calib.scores, np.sort(scores[np.arange(40), labels]))

    @pytest.mark.parametrize("seed", [0, 1, [7, 3, 0]])
    def test_oracle_split_matches_library(self, seed):
        for n_calib, k_test in [(5, 5), (20, 0), (1, 9)]:
            want = harness._split_indices(20, n_calib, k_test, seed)
            got = split_indices(20, n_calib, k_test, seed)
            assert all(np.array_equal(w, g) for w, g in zip(want, got))


class TestEvaluate:
    def test_sc_coverage_on_exchangeable_data(self):
        # Monte Carlo with the analytic binomial standard error.
        rng = np.random.default_rng(5)
        m = synthetic_matrix(rng, rows=1200, labels=6)
        alpha, splits, k_test = 0.1, 30, 400
        report = evaluate(m, MethodSpec("sc"), alpha, splits, 500, k_test, base_seed=11)
        sigma = np.sqrt(alpha * (1 - alpha) / (splits * k_test))
        assert report.coverage_mean >= 1 - alpha - 3 * sigma
        assert report.coverage_mean <= 1.0

    def test_lp_zero_params_matches_plain_quantile_per_split(self):
        # At eps = rho = 0 the robust threshold is the quantile at the
        # adjusted level; verify per split against a direct recomputation,
        # and that it differs from sc only by the finite-sample correction.
        rng = np.random.default_rng(6)
        m = synthetic_matrix(rng, rows=500, labels=4)
        alpha = 0.1
        for j in range(5):
            calib, _ = split(m, 300, 100, seed=[13, j, 0])
            lp_thr = MethodSpec("lp").threshold(calib, alpha)
            beta = adjusted_beta(300, alpha, 0.0)
            assert lp_thr.threshold == quantile(calib, 1.0 - beta)
            sc_thr = conformal_quantile(calib, alpha)
            assert lp_thr.threshold >= quantile(calib, 1 - alpha)
            assert sc_thr.threshold >= quantile(calib, 1 - alpha)

    def test_one_label_degenerate_matrix(self):
        rng = np.random.default_rng(7)
        scores = np.abs(rng.normal(size=(100, 1)))
        m = ScoreMatrix(scores, np.zeros(100, dtype=int))
        report = evaluate(m, MethodSpec("sc"), 0.1, 5, 60, 30, base_seed=3)
        for r in report.per_split:
            assert r.mean_set_size <= 1.0
            if r.mean_set_size == 1.0:
                assert r.coverage == 1.0

    def test_coverage_times_k_is_integer(self):
        rng = np.random.default_rng(8)
        m = synthetic_matrix(rng, rows=300)
        report = evaluate(m, MethodSpec("sc"), 0.2, 8, 150, 101, base_seed=5)
        for r in report.per_split:
            assert (r.coverage * 101) == pytest.approx(round(r.coverage * 101), abs=1e-9)

    def test_set_size_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(9)
        m = synthetic_matrix(rng, rows=400)
        sizes = []
        for alpha in (0.05, 0.1, 0.2, 0.4):
            rep = evaluate(m, MethodSpec("sc"), alpha, 6, 200, 100, base_seed=2)
            sizes.append(rep.set_size_mean)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_json_reports_byte_identical(self):
        rng = np.random.default_rng(10)
        m = synthetic_matrix(rng, rows=300)
        spec = PerturbationSpec(epsilon=0.1, rho=0.05, global_law=PointMass(40.0), seed=1)
        kwargs = dict(alpha=0.1, n_splits=6, n_calib=150, k_test=100, base_seed=4,
                      perturbation=spec)
        r1 = evaluate(m, MethodSpec("lp", epsilon=0.1, rho=0.05), **kwargs)
        r2 = evaluate(m, MethodSpec("lp", epsilon=0.1, rho=0.05), **kwargs)
        assert r1.to_json() == r2.to_json()

    def test_fixed_perturbation_flag(self):
        rng = np.random.default_rng(11)
        m = synthetic_matrix(rng, rows=300)
        spec = PerturbationSpec(epsilon=0.1, rho=0.3, global_law=PointMass(40.0), seed=1)
        fixed = evaluate(m, MethodSpec("sc"), 0.1, 4, 150, 100, 0,
                         perturbation=spec, redraw_per_split=False)
        redraw = evaluate(m, MethodSpec("sc"), 0.1, 4, 150, 100, 0,
                          perturbation=spec, redraw_per_split=True)
        assert fixed.to_json() != redraw.to_json()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec("bogus")

    def test_split_error_carries_split_index(self):
        rng = np.random.default_rng(12)
        m = synthetic_matrix(rng, rows=40)
        # n_calib = 8 makes the coverage adjustment infeasible at alpha 0.1
        with pytest.raises(ValueError, match="split 0"):
            evaluate(m, MethodSpec("lp"), 0.1, 2, 8, 10, base_seed=0)


class TestMethodSpecIdentity:
    def test_compared_and_hashed_by_identity(self):
        # Distinct specs differ even with equal fields, with or without weights.
        for weights in (None, [1.0, 2.0]):
            a, b = (MethodSpec("weighted", test_weight=0.5, weights=weights) for _ in range(2))
            assert a == a and a != b
            assert len({a, b, a}) == 2


# The scalar fields of a spec and their defaults.
DEFAULTS = dict(epsilon=0.0, rho=0.0, rho_chi2=0.0, delta=0.0, sigma=1.0, test_weight=1.0)
# The fields each method's reports record.
RECORDED = {"sc": (), "lp": ("epsilon", "rho"), "tv": ("rho",), "winf": ("epsilon",),
            "chi2": ("rho_chi2",), "weighted": ("test_weight",), "rscp": ("delta", "sigma"),
            "fg": ("rho_chi2", "test_weight")}
# A public rule that reads each field, called with the others valid.
FIELD_RULES = {
    "epsilon": lambda v: lp_rule(100, 0.1, LPParams(v, 0.05)),
    "rho": lambda v: lp_rule(100, 0.1, LPParams(0.1, v)),
    "rho_chi2": lambda v: chi2_rule(100, 0.1, v),
    "delta": lambda v: rscp_rule(100, 0.1, v, 2.0),
    "sigma": lambda v: rscp_rule(100, 0.1, 0.05, v),
    "test_weight": lambda v: fg_rule(100, 0.1, 0.1, v),
}
# Valid values of each field, which a rule that reads the field tells apart.
FIELD_VALUES = {
    "epsilon": (0.0, -0.0, 0.1, 0.5),
    "rho": (0.0, 0.05, 0.2),
    "rho_chi2": (0.0, 0.1, 1.0),
    "delta": (0.0, -0.0, 0.05, 0.3),
    "sigma": (0.5, 1.0, 2.0),
    "test_weight": (0.5, 1.0, 1.5, 50.0),
}


class TestMethodRules:
    """``MethodSpec.rule`` resolves to the rule of the method's public threshold."""

    @staticmethod
    def _outcome(fn):
        try:
            return fn()
        except ValueError as exc:
            return type(exc), str(exc)

    BASE = dict(epsilon=0.1, rho=0.05, rho_chi2=0.1, delta=0.05, sigma=2.0, test_weight=1.5)

    @pytest.mark.parametrize("field", sorted(FIELD_VALUES))
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_rule_reads_exactly_the_recorded_fields(self, name, field):
        # A field the report does not record never changes the rule; one it
        # records changes it for some value. The repr of a rule shows each
        # float exactly, the sign of a zero offset too.
        outcomes = {
            value: [repr(self._outcome(lambda: MethodSpec(name, **{**self.BASE, field: value})
                                       .rule(n, alpha)))
                    for n in (9, 40, 200) for alpha in (0.1, 0.3)]
            for value in FIELD_VALUES[field]
        }
        distinct = {tuple(outcome) for outcome in outcomes.values()}
        recorded = field in MethodSpec(name, **self.BASE).params_dict()
        assert (len(distinct) > 1) == recorded, (name, field, outcomes)

    @pytest.mark.parametrize("field", sorted(FIELD_RULES))
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_bad_value_refused_when_built_with_its_rules_message(self, name, field):
        # Every method checks every field, also one its rule does not read.
        for value in (-1.0, -1e-300, 0.0, 1.5, 1e308, math.nan, math.inf, -math.inf,
                      np.float32(-1.0), "0.1", None):
            want = self._outcome(lambda: FIELD_RULES[field](value))
            if isinstance(want, tuple):
                with pytest.raises(want[0]) as info:
                    MethodSpec(name, **{**self.BASE, field: value})
                assert str(info.value) == want[1], (name, field, value)
            else:
                stored = getattr(MethodSpec(name, **{**self.BASE, field: value}), field)
                assert type(stored) is float and stored == value

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_per_row_weights_only_for_weighted_methods(self, name):
        weights = np.ones(5)
        if name in WEIGHTED_METHODS:
            assert MethodSpec(name, weights=weights).weights.tolist() == weights.tolist()
        else:
            message = f"^method '{name}' reads no per-row weights; only \\('weighted', 'fg'\\) do$"
            with pytest.raises(ValueError, match=message):
                MethodSpec(name, weights=weights)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=300),
        st.floats(0.001, 0.999),
        st.sampled_from([0.0, -0.0, 0.1, 1e308]),
        st.sampled_from([0.0, -0.0, 0.05, 0.3, 1.0]),
        st.sampled_from([0.0, 0.1, 2.0]),
        st.sampled_from([0.5, 1.0, 1.5, 50.0]),
    )
    def test_rule_matches_public_threshold(self, ints, alpha, epsilon, rho, rho_chi2, tw):
        sample = ScoreSample(np.array(ints) / 4.0)
        ws = WeightedScores(sample.scores, np.ones(sample.n), tw)
        params = LPParams(epsilon, rho)
        public = {
            "sc": lambda: conformal_quantile(sample, alpha),
            "lp": lambda: lp_threshold(sample, alpha, params),
            "tv": lambda: lp_threshold(sample, alpha, LPParams(0.0, rho)),
            "winf": lambda: lp_threshold(sample, alpha, LPParams(epsilon, 0.0)),
            "chi2": lambda: chi2_threshold(sample, alpha, rho_chi2),
            "rscp": lambda: rscp_threshold(sample, alpha, 0.05, 2.0),
            "weighted": lambda: fg_threshold(ws, alpha, 0.0),
            "fg": lambda: fg_threshold(ws, alpha, rho_chi2),
        }
        for name in METHOD_NAMES:
            spec = MethodSpec(name, epsilon=epsilon, rho=rho, rho_chi2=rho_chi2,
                              delta=0.05, sigma=2.0, test_weight=tw)
            want = self._outcome(public[name])
            assert self._outcome(lambda: spec.rule(sample.n, alpha).apply(sample.scores)) == want
            assert self._outcome(lambda: spec.threshold(sample, alpha)) == want
        # tv is lp at epsilon = 0 and winf is lp at rho = 0, field for field and
        # sign for sign: the repr tells a -0.0 offset from a 0.0 one.
        for name, as_lp in (("tv", LPParams(0.0, rho)), ("winf", LPParams(epsilon, 0.0))):
            spec = MethodSpec(name, epsilon=epsilon, rho=rho)
            lp = MethodSpec("lp", epsilon=as_lp.epsilon, rho=as_lp.rho)
            assert (repr(self._outcome(lambda: spec.rule(sample.n, alpha)))
                    == repr(self._outcome(lambda: lp.rule(sample.n, alpha))))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 8)), min_size=1, max_size=300),
        st.floats(0.001, 0.999),
        st.sampled_from([0.0, 0.1, 2.0]),
        st.sampled_from([0.5, 1.0, 1.5, 50.0]),
    )
    def test_per_row_rule_matches_public_threshold(self, rows, alpha, rho_chi2, tw):
        # Rows in any order: the rule takes the weights sorted by score.
        ws = WeightedScores([score / 4.0 for score, _ in rows],
                            [weight / 3.0 for _, weight in rows], tw)
        scores, weights = ws.by_score()
        public = {
            "weighted": lambda: fg_threshold(ws, alpha, 0.0),
            "fg": lambda: fg_threshold(ws, alpha, rho_chi2),
        }
        for name, threshold in public.items():
            spec = MethodSpec(name, rho_chi2=rho_chi2, test_weight=tw)
            want = self._outcome(threshold)
            got = self._outcome(lambda: spec.rule(ws.n, alpha, weights).apply(scores))
            assert got == want
        # weighted is fg at rho_chi2 = 0, field for field, whatever rho_chi2 it carries.
        weighted = MethodSpec("weighted", rho_chi2=rho_chi2, test_weight=tw)
        fg = MethodSpec("fg", rho_chi2=0.0, test_weight=tw)
        assert (repr(self._outcome(lambda: weighted.rule(ws.n, alpha, weights)))
                == repr(self._outcome(lambda: fg.rule(ws.n, alpha, weights))))

    @pytest.mark.parametrize("name", ["weighted", "fg"])
    def test_per_row_rule_checks_its_weights(self, name):
        spec = MethodSpec(name, rho_chi2=0.1)
        for weights in (np.ones(10), np.ones(4), np.ones((5, 1))):
            shape = re.escape(str(np.shape(weights)))
            with pytest.raises(ValueError, match=f"^need 5 weights, one per score, got shape {shape}$"):
                spec.rule(5, 0.1, weights)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^weights must be finite and strictly positive$"):
                spec.rule(5, 0.1, np.array([1.0, 2.0, bad, 1.0, 1.0]))


    @pytest.mark.parametrize("name", ["weighted", "fg"])
    def test_per_row_rule_refuses_a_total_past_the_largest_double(self, name):
        spec = MethodSpec(name, rho_chi2=0.1)
        with pytest.raises(ValueError, match="^the total weight overflows; rescale the weights$"):
            spec.rule(3, 0.1, np.full(3, 1e308))
        assert spec.rule(3, 0.1, np.full(3, 1e308 / 4)).index is not None

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_calibration_size_below_one_refused_by_every_method(self, name, n):
        spec = MethodSpec(name, epsilon=0.1, rho=0.05, rho_chi2=0.1, delta=0.05, sigma=2.0,
                          test_weight=1.5)
        with pytest.raises(ValueError, match=f"^calibration size must be positive, got {n}$"):
            spec.rule(n, 0.1)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_epsilon_and_rho_checked_for_every_method(self, name):
        with pytest.raises(ValueError, match="^epsilon must be a finite nonnegative real, got nan$"):
            MethodSpec(name, epsilon=np.nan)
        with pytest.raises(ValueError, match="^epsilon must be a finite nonnegative real, got -1.0$"):
            MethodSpec(name, epsilon=-1.0)
        for rho in (np.inf, -5.0, np.nan, 1.5):
            with pytest.raises(ValueError, match=rf"^rho must lie in \[0, 1\], got {rho!r}$"):
                MethodSpec(name, rho=rho)
        given = dict(epsilon=1e308, rho=1.0)
        recorded = MethodSpec(name, **given).params_dict()
        assert recorded == {key: given.get(key, DEFAULTS[key]) for key in RECORDED[name]}


class TestCompare:
    def test_per_row_total_past_the_largest_double(self):
        m = synthetic_matrix(np.random.default_rng(16), rows=60)
        weights = np.ones(m.n_rows)
        weights[[3, 7]] = 1e308
        methods = [MethodSpec("sc"), MethodSpec("fg", weights=weights)]
        # Refused before the first split, from the total over all rows.
        with pytest.raises(ValueError, match="^the total weight overflows; rescale the weights$"):
            compare(m, methods, 0.1, 3, 20, 10, base_seed=0)
        weights[[3, 7]] = 1e307
        assert len(compare(m, methods, 0.1, 3, 20, 10, base_seed=0)) == 2

    def test_singleton_equals_evaluate(self):
        rng = np.random.default_rng(13)
        m = synthetic_matrix(rng, rows=300)
        single = evaluate(m, MethodSpec("sc"), 0.1, 5, 150, 100, base_seed=9)
        listed = compare(m, [MethodSpec("sc")], 0.1, 5, 150, 100, base_seed=9)
        assert len(listed) == 1
        assert listed[0].to_json() == single.to_json()

    def test_empty_method_list(self):
        rng = np.random.default_rng(14)
        m = synthetic_matrix(rng, rows=100)
        assert compare(m, [], 0.1, 3, 50, 40, base_seed=0) == []

    def test_empty_method_list_still_checks_arguments(self):
        m = synthetic_matrix(np.random.default_rng(14), rows=100)
        with pytest.raises(ValueError, match="alpha"):
            compare(m, [], 5.0, 3, 50, 40, base_seed=0)
        with pytest.raises(ValueError, match="^number of splits must be positive, got 0$"):
            compare(m, [], 0.1, 0, 50, 40, base_seed=0)

    PARAMS = {"epsilon": 0.1, "rho": 0.05, "rho_chi2": 0.05, "delta": 0.05, "sigma": 0.5,
              "test_weight": 1.5}
    # The method evaluate runs to record each MethodSpec parameter.
    READER = {"rho_chi2": "fg", "delta": "rscp", "sigma": "rscp", "test_weight": "weighted"}

    @pytest.mark.parametrize("runner", ["compare", "evaluate"])
    @pytest.mark.parametrize("name", ["alpha", *PARAMS, "perturbation epsilon",
                                      "perturbation rho"])
    def test_float32_parameter_reports_its_double(self, runner, name):
        # Each check returns the float it read, so the report records a Python float.
        m = synthetic_matrix(np.random.default_rng(17), rows=80, labels=3)

        def reports(number):
            values = {"alpha": 0.1, **self.PARAMS, "perturbation epsilon": 0.2,
                      "perturbation rho": 0.1}
            values[name] = number(values[name])
            params = {key: values[key] for key in self.PARAMS}
            spec = PerturbationSpec(values["perturbation epsilon"], values["perturbation rho"],
                                    seed=2)
            alpha = values["alpha"]
            if runner == "evaluate":
                method = MethodSpec(self.READER.get(name, "lp"), **params)
                return evaluate(m, method, alpha, 3, 40, 30, 4, perturbation=spec).to_json()
            methods = [MethodSpec(method, **params) for method in METHOD_NAMES]
            return [r.to_json() for r in compare(m, methods, alpha, 3, 40, 30, 4, spec)]

        assert reports(np.float32) == reports(lambda value: float(np.float32(value)))

    def test_paired_splits_under_perturbation(self):
        rng = np.random.default_rng(15)
        m = synthetic_matrix(rng, rows=900, labels=8)
        spec = PerturbationSpec(epsilon=0.1, rho=0.1, global_law=PointMass(60.0), seed=3)
        sc_rep, lp_rep = compare(
            m,
            [MethodSpec("sc"), MethodSpec("lp", epsilon=0.1, rho=0.1)],
            0.1, 10, 400, 300, base_seed=21, perturbation=spec,
        )
        # identical splits: the lp threshold is never below the sc one, so
        # per-split coverage is ordered accordingly
        for a, b in zip(sc_rep.per_split, lp_rep.per_split):
            assert b.coverage >= a.coverage - 1e-12


def _refuse_loadtxt(*args, **kwargs):
    raise ValueError("np.loadtxt is switched off")


def _weight_columns(path):
    ws = read_weighted_scores(path, 1.0)
    return ws.scores, ws.weights


def _matrix_columns(path):
    m = read_matrix(path)
    return m.scores, m.true_labels


def _matrix_lines(n_rows, n_scores):
    """A matrix file's lines: a header of empty score names, short enough for the
    fast path's gate, then rows of one-digit values that differ by row and column."""
    header = "true_label" + "," * n_scores
    return [header] + [
        ",".join([str(i % n_scores)] + [str((i + j) % 9 + 1) for j in range(n_scores)])
        for i in range(n_rows)
    ]


@pytest.fixture
def loadtxt_results(monkeypatch):
    """Each result that ``harness._loadtxt`` returns during the test, in call order."""
    results = []
    loadtxt = harness._loadtxt

    def spy(*args, **kwargs):
        results.append(loadtxt(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "_loadtxt", spy)
    return results


# Rows of 64 scores that _loadtxt moves to the front of numpy's record buffer in one block.
_BLOCK_ROWS = harness._MOVE_BYTES // (8 * 64)


class TestFileIngestion:
    def test_score_roundtrip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("0.5\n0.25\n1.5\n")
        s = read_scores(path)
        assert s.scores.tolist() == [0.25, 0.5, 1.5]

    def test_score_header_flag(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score\n0.5\n0.25\n")
        assert read_scores(path, has_header=True).n == 2
        with pytest.raises(FileFormatError):
            read_scores(path)

    def test_score_header_after_blank_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("\nscore\n0.5\n\n0.25\n")
        assert read_scores(path, has_header=True).scores.tolist() == [0.25, 0.5]
        with pytest.raises(FileFormatError, match=r"scores\.csv:2: not a score: 'score'"):
            read_scores(path)

    def test_weighted_scores(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("score,weight\n0.5,2.0\n0.25,1.0\n")
        ws = read_weighted_scores(path, 3.0)
        assert ws.n == 2 and ws.test_weight == 3.0

    def test_weighted_requires_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.5,2.0\n")
        with pytest.raises(FileFormatError):
            read_weighted_scores(path, 1.0)

    @pytest.mark.parametrize("header", [True, False])
    def test_score_byte_order_mark(self, tmp_path, header):
        path = tmp_path / "scores.csv"
        path.write_bytes(codecs.BOM_UTF8 + (b"score\n" if header else b"") + b"0.5\r\n0.25\n")
        assert read_scores(path, has_header=header).scores.tolist() == [0.25, 0.5]

    @pytest.mark.parametrize("header", [True, False])
    def test_weighted_byte_order_mark(self, tmp_path, header):
        path = tmp_path / "w.csv"
        path.write_bytes(codecs.BOM_UTF8 + (b"score,weight\n" if header else b"") + b"0.5,2.0\n")
        if header:
            ws = read_weighted_scores(path, 1.0)
            assert ws.scores.tolist() == [0.5] and ws.weights.tolist() == [2.0]
        else:
            with pytest.raises(FileFormatError, match=r"w\.csv: expected header 'score,weight'$"):
                read_weighted_scores(path, 1.0)

    @pytest.mark.parametrize("header", [True, False])
    def test_matrix_byte_order_mark(self, tmp_path, header):
        path = tmp_path / "m.csv"
        header_line = b"true_label,s_0,s_1\n" if header else b""
        path.write_bytes(codecs.BOM_UTF8 + header_line + b"1,0.8,0.2\n")
        if header:
            m = read_matrix(path)
            assert m.true_labels.tolist() == [1] and m.n_labels == 2
        else:
            message = r"m\.csv: expected header starting with 'true_label'$"
            with pytest.raises(FileFormatError, match=message):
                read_matrix(path)

    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("true_label,s_0,s_1\n0,0.1,0.9\n1,0.8,0.2\n")
        m = read_matrix(path)
        assert m.n_rows == 2 and m.n_labels == 2
        assert m.true_labels.tolist() == [0, 1]

    def test_matrix_bad_row_width(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("true_label,s_0,s_1\n0,0.1\n")
        with pytest.raises(FileFormatError):
            read_matrix(path)

    def test_header_after_blank_line_in_every_format(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("\n \nscore,weight\n0.5,2.0\n\n0.25,1.0\n")
        ws = read_weighted_scores(path, 3.0)
        assert ws.scores.tolist() == [0.5, 0.25] and ws.weights.tolist() == [2.0, 1.0]
        path.write_text("\nscore,weight\n0.5\n")
        with pytest.raises(FileFormatError, match=r"w\.csv:3: expected two columns"):
            read_weighted_scores(path, 1.0)
        path = tmp_path / "m.csv"
        path.write_text("\ntrue_label,s_0,s_1\n0,0.1,0.9\n1,0.8,0.2\n")
        m = read_matrix(path)
        assert m.true_labels.tolist() == [0, 1]
        assert m.scores.tolist() == [[0.1, 0.9], [0.8, 0.2]]
        path.write_text("\ntrue_label,s_0,s_1\n0,0.1\n")
        with pytest.raises(FileFormatError, match=r"m\.csv:3: expected 3 fields, got 2"):
            read_matrix(path)

    @pytest.mark.parametrize("reader, lines", [
        (lambda path: (read_scores(path, has_header=True).scores,), ["score", "0.5", "0.25"]),
        (_weight_columns, ["score,weight", "0.5,2.0", "0.25,1.0"]),
        (_matrix_columns, ["true_label,s_0,s_1", "0,0.1,0.9", "1,0.8,0.2"]),
        (_matrix_columns, _matrix_lines(_BLOCK_ROWS - 1, 64)),
        (_matrix_columns, _matrix_lines(_BLOCK_ROWS + 1, 64)),
        (_matrix_columns, _matrix_lines(1, harness._MOVE_BYTES // 8 + 1)),
    ], ids=["scores", "weights", "matrix", "matrix-block-less-1", "matrix-block-plus-1",
            "matrix-row-wider-than-block"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("blocks", [0, 3], ids=["short", "three_blocks"])
    def test_numpy_reads_header_after_blank_lines(self, tmp_path, monkeypatch, loadtxt_results,
                                                  reader, lines, newline, blocks):
        # With blocks, the records repeat over at least that many of the gate's blocks.
        # The wide matrix row's line is longer than a gate block, but holds none whole.
        half = max(csv.field_size_limit() // 2, 1)
        header, *records = lines
        records *= max(1, blocks * half // len("".join(records)))
        path = tmp_path / "f.csv"
        path.write_text(newline.join(["", " ", "\t", header, *records]) + newline, newline="")
        fast = reader(path)
        assert len(loadtxt_results) == 1 and loadtxt_results[0] is not None
        monkeypatch.setattr(np, "loadtxt", _refuse_loadtxt)
        slow = reader(path)
        assert [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in fast] == [
            (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in slow]

    def test_gate_holds_one_block(self, tmp_path, monkeypatch):
        # The byte checks before np.loadtxt read the file one block at a time.
        half = max(csv.field_size_limit() // 2, 1)
        line = "0." + "1234567890" * 6 + "\n"
        rows = 16 * half // len(line) + 1
        path = tmp_path / "scores.csv"
        path.write_text(line * rows)
        peaks = []

        def record_peak(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise ValueError("np.loadtxt is switched off")

        monkeypatch.setattr(np, "loadtxt", record_peak)
        tracemalloc.start()
        try:
            assert read_scores(path).n == rows
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 4 * half < path.stat().st_size

    def test_numpy_path_holds_the_values_once(self, tmp_path, loadtxt_results):
        # The last column shares numpy's record buffer, so a read's traced peak
        # is about 1.2x the records' bytes for a matrix and 1.7x for weights,
        # whose first column is half of them. A copy of the last column makes both 2x.
        n_rows, n_scores = 3000, 100
        matrix = tmp_path / "m.csv"
        matrix.write_text("true_label" + "," * n_scores + "\n"
                          + ("1" + ",0.25" * n_scores + "\n") * n_rows)
        n_weights = 100_000
        weights = tmp_path / "w.csv"
        weights.write_text("score,weight\n" + "0.25,2.0\n" * n_weights)
        for read, path, record_bytes, bound in [
            (read_matrix, matrix, n_rows * 8 * (1 + n_scores), 1.6),
            (_weight_columns, weights, n_weights * 16, 1.8),
        ]:
            tracemalloc.start()
            try:
                read(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert loadtxt_results.pop() is not None
            assert peak < bound * record_bytes, (path.name, peak / record_bytes)

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"])
    def test_no_header_in_blank_file(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match="expected header 'score,weight'"):
            read_weighted_scores(path, 1.0)
        with pytest.raises(FileFormatError, match="expected header starting with 'true_label'"):
            read_matrix(path)

    @pytest.mark.parametrize("reader", [
        read_scores,
        lambda path: read_weighted_scores(path, 1.0),
        read_matrix,
    ], ids=["scores", "weights", "matrix"])
    @pytest.mark.parametrize("body, message", [
        (b"0.5\n0.\xff5\n", "can't decode byte 0xff"),
        (b'"' + b"7" * 200_000 + b'"\n', "field larger than field limit"),
    ], ids=["not-utf8", "oversized-field"])
    def test_unreadable_file_is_a_file_error(self, tmp_path, reader, body, message):
        path = tmp_path / "f.csv"
        path.write_bytes(body)
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}: .*{message}"):
            reader(path)

    def test_label_beyond_int64(self, tmp_path):
        with pytest.raises(ValueError, match="true labels must index a matrix column"):
            ScoreMatrix([[0.1, 0.2]], [99999999999999999999])
        with pytest.raises(ValueError, match="true labels must index a matrix column"):
            ScoreMatrix([[0.1, 0.2]], [-(2**63) - 1])
        path = tmp_path / "m.csv"
        path.write_text("true_label,s_0,s_1\n99999999999999999999,0.1,0.9\n")
        with pytest.raises(FileFormatError, match=r"m\.csv: true labels must index a matrix column"):
            read_matrix(path)

    def test_bad_test_weight_is_not_a_file_error(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("score,weight\n0.5,2.0\n")
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="test weight must be finite and positive") as info:
                read_weighted_scores(path, bad)
            assert not isinstance(info.value, FileFormatError)
            assert str(path) not in str(info.value)
        path.write_text("score,weight\n0.5,-2.0\n")
        with pytest.raises(FileFormatError, match="weights must be finite and strictly positive"):
            read_weighted_scores(path, -1.0)

    def test_numeric_header_after_blank_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("\n0.5\n1.0\n")
        assert read_scores(path, has_header=True).scores.tolist() == [1.0]

    @pytest.mark.parametrize("label, expected", [
        ("1.0", r"m\.csv:2: bad number in \['1\.0',"),
        ("1e0", r"m\.csv:2: bad number in \['1e0',"),
        ("1_0", 10),
        ("١", 1),
        ("Ǿ", r"m\.csv:2: bad number in \['Ǿ',"),
        ("\x1c1", r"m\.csv:2: bad number in \['\\x1c1',"),
        (str(2**63), r"m\.csv: true labels must index a matrix column$"),
    ], ids=["1.0", "1e0", "underscore", "arabic-digit", "non-digit", "separator", "2**63"])
    def test_matrix_label_tokens(self, tmp_path, label, expected):
        # Wide enough that numpy 2.4, which reads "Ǿ" as the integer 462,
        # would find it a valid label.
        path = tmp_path / "m.csv"
        width = 500
        header = "true_label," + ",".join(f"s_{j}" for j in range(width))
        row = ",".join(["0.5"] * width)
        path.write_text(f"{header}\n{label},{row}\n0,{row}\n", encoding="utf-8")
        if isinstance(expected, int):
            assert read_matrix(path).true_labels.tolist() == [expected, 0]
        else:
            with pytest.raises(FileFormatError, match=expected):
                read_matrix(path)

    @pytest.mark.parametrize("text, expected", [
        ("0.5\n \n\t\n0.25\n", [0.25, 0.5]),
        ("0.5\r0.25\r", [0.25, 0.5]),
        ("0.5,#x\n0.25\n", [0.25, 0.5]),
        ('0.5,"x\n0.6,"\n0.25\n', [0.25, 0.5]),
        ("0.5\n", [0.5]),
        ("0.5\n#0.25\n", r"f\.csv:2: not a score: '#0\.25'$"),
        ("0.5\n\x1c0.25\n", r"f\.csv:2: not a score: '\\x1c0\.25'$"),
    ], ids=["whitespace-lines", "cr-only", "hash-skipped-column", "quote-skipped-column",
            "one-row", "hash", "separator"])
    def test_score_file_edge_cases(self, tmp_path, text, expected):
        path = tmp_path / "f.csv"
        path.write_text(text, newline="")
        if isinstance(expected, list):
            assert read_scores(path).scores.tolist() == expected
        else:
            with pytest.raises(FileFormatError, match=expected):
                read_scores(path)

    @pytest.mark.parametrize("rows", [
        ["0,0.1,0.9", " ", "\t", "1,0.8,0.2"],
        ["0,0.1,0.9", "1,0.8,0.2"],
    ], ids=["whitespace-lines", "two-rows"])
    @pytest.mark.parametrize("newline", ["\n", "\r"], ids=["lf", "cr-only"])
    def test_matrix_and_weight_edge_cases(self, tmp_path, rows, newline):
        path = tmp_path / "m.csv"
        path.write_text(newline.join(["true_label,s_0,s_1", *rows]) + newline, newline="")
        m = read_matrix(path)
        assert m.true_labels.tolist() == [0, 1]
        assert m.scores.tolist() == [[0.1, 0.9], [0.8, 0.2]]
        path.write_text(newline.join(["score,weight", *rows]) + newline, newline="")
        ws = read_weighted_scores(path, 1.0)
        assert ws.scores.tolist() == [0.0, 1.0] and ws.weights.tolist() == [0.1, 0.8]

    def test_one_row_files(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("true_label,s_0,s_1\n1,0.8,0.2\n")
        m = read_matrix(path)
        assert m.scores.shape == (1, 2) and m.true_labels.tolist() == [1]
        path.write_text("score,weight\n0.5,2.0\n")
        ws = read_weighted_scores(path, 1.0)
        assert ws.scores.tolist() == [0.5] and ws.weights.tolist() == [2.0]
        path.write_text("score\n0.5\n")
        assert read_scores(path, has_header=True).scores.tolist() == [0.5]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("reader, text", [
        (read_scores, "0.5\n0.25\n"),
        (lambda path: read_scores(path, has_header=True), "score\n0.5\n0.25\n"),
        (lambda path: read_weighted_scores(path, 1.0), "score,weight\n0.25,1.0\n0.5,2.0\n"),
        (read_matrix, "true_label,s_0,s_1\n0,0.25,0.9\n1,0.5,0.2\n"),
    ], ids=["scores", "scores-header", "weights", "matrix"])
    def test_named_pipe_is_read_once(self, tmp_path, reader, text):
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        done = threading.Event()

        def write():
            with open(path, "w") as fh:
                fh.write(text)
            # A reader that opens the pipe again waits for a writer forever:
            # open and close one, so that it reads an empty file instead.
            while not done.wait(1):
                with contextlib.suppress(OSError):
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            result = reader(path)
        finally:
            done.set()
            writer.join(10)
        assert not writer.is_alive()
        regular = tmp_path / "regular.csv"
        regular.write_text(text)
        assert np.array_equal(result.scores, reader(regular).scores)

    def test_header_only_files(self, tmp_path):
        path = tmp_path / "f.csv"
        for text in ("true_label,s_0,s_1\n", "\r\ntrue_label,s_0\r\n \r\n"):
            path.write_text(text, newline="")
            with pytest.raises(FileFormatError,
                               match=r"f\.csv: a score matrix needs at least one data row$"):
                read_matrix(path)
        assert ScoreMatrix(np.empty((0, 2)), []).n_rows == 0
        path.write_text("score,weight\n")
        with pytest.raises(FileFormatError, match="need at least one weighted score"):
            read_weighted_scores(path, 1.0)
        path.write_text("score\n")
        with pytest.raises(FileFormatError, match="a score sample needs at least one score"):
            read_scores(path, has_header=True)

    @pytest.mark.parametrize("reader, text, headers, message", [
        (read_scores, "0.5\nnan\n0.25\n", 0, "scores must be finite (no NaN or infinities)"),
        (lambda path: read_scores(path, has_header=True), "score\n0.5\n-inf\n", 1,
         "scores must be finite (no NaN or infinities)"),
        (lambda path: read_weighted_scores(path, 1.0), "score,weight\n0.5,2.0\n0.25,0\n", 1,
         "weights must be finite and strictly positive"),
        (read_matrix, "true_label,s_0,s_1\n0,0.1,0.9\n2,0.8,0.2\n", 1,
         "true labels must index a matrix column"),
        (read_matrix, "true_label,s_0,s_1\n0,0.1,nan\n1,0.8,0.2\n", 1,
         "score matrix entries must be finite"),
    ], ids=["scores-nan", "scores-header-inf", "zero-weight", "label-past-last-column",
            "matrix-nan"])
    def test_refused_value_is_parsed_by_numpy_only(self, tmp_path, monkeypatch, reader, text,
                                                   headers, message):
        # A file numpy parses is built once from numpy's columns: a value the
        # builder refuses sends no data record through csv, and its message
        # is the one the csv parser's columns give.
        path = tmp_path / "f.csv"
        path.write_text(text)
        rows = []
        csv_reader = csv.reader

        def spy(*args, **kwargs):
            for row in csv_reader(*args, **kwargs):
                rows.append(row)
                yield row

        monkeypatch.setattr(csv, "reader", spy)
        with pytest.raises(FileFormatError) as fast:
            reader(path)
        assert rows == [line.split(",") for line in text.splitlines()[:headers]]
        assert str(fast.value) == f"{path}: {message}"
        rows.clear()
        monkeypatch.setattr(np, "loadtxt", _refuse_loadtxt)
        with pytest.raises(FileFormatError) as slow:
            reader(path)
        assert rows == [line.split(",") for line in text.splitlines()]
        assert str(slow.value) == str(fast.value)

    def test_report_csv(self, tmp_path):
        rng = np.random.default_rng(16)
        m = synthetic_matrix(rng, rows=120)
        rep = evaluate(m, MethodSpec("sc"), 0.1, 3, 60, 40, base_seed=1)
        out = tmp_path / "report.csv"
        write_report_csv([rep], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,split,coverage,mean_set_size"
        assert len(lines) == 4


def _numpy_reads_the_open_file(path, header_line, **options):
    """The columns ``np.loadtxt`` reads from the open file, or None where it raises or warns."""
    try:
        with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.loadtxt(fh, delimiter=",", comments=None, skiprows=header_line, ndmin=1,
                                **options)
    except (ValueError, Warning):
        return None
    return [parsed[name] for name in parsed.dtype.names]


@contextlib.contextmanager
def loadtxt_sources():
    """What each ``np.loadtxt`` call is given: the ``str`` path, or "open file"."""
    sources = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        sources.append(fname if isinstance(fname, str) else "open file")
        return loadtxt(fname, *args, **kwargs)

    with mock.patch.object(np, "loadtxt", spy):
        yield sources


def _long_scores(rows=20_000):
    """A score file's text past one gate block, and its sorted values."""
    values = np.random.default_rng(31).normal(size=rows).tolist()
    return "".join(f"{v!r}\n" for v in values), sorted(values)


_SCORE_OPTIONS = dict(dtype=[("score", float)], usecols=0)
_MATRIX_OPTIONS = dict(dtype=[("label", int), ("scores", float, (2,))])
_MATRIX_HEADER = "true_label,s_0,s_1"


@st.composite
def long_files(draw):
    """A score or matrix file's bytes past one gate block, with its ``_loadtxt`` arguments.

    A few drawn records repeat past the block, and up to three drawn lines go
    in at drawn places after the header: blank, whitespace-only, with a NUL
    byte, or one more record. The line end, a byte-order mark and a final
    line end are drawn too.
    """
    matrix = draw(st.booleans())
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if matrix:
        record = st.tuples(st.integers(0, 1), number, number).map("{0[0]},{0[1]},{0[2]}".format)
    else:
        record = number
    odd = st.sampled_from(["", "", " ", "\t", "\x00", "0.5\x00", "\x000.5", "0.5\x000.25"])
    records = draw(st.lists(record, min_size=1, max_size=4))
    half = max(csv.field_size_limit() // 2, 1)
    lines = records * (half // len("\n".join(records)) + 1)
    if matrix:
        lines.insert(0, _MATRIX_HEADER)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(int(matrix), len(lines))), draw(st.one_of(odd, record)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    body = (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode("ascii")
    return body, int(matrix), _MATRIX_OPTIONS if matrix else _SCORE_OPTIONS


class _Name:
    """A ``PathLike`` that is not a ``pathlib`` path."""

    def __init__(self, name):
        self.name = name

    def __fspath__(self):
        return self.name


class TestPathRoute:
    """A file past one gate block goes to numpy by its path, read in chunks."""

    @settings(max_examples=60, deadline=None)
    @given(long_files())
    def test_equals_numpy_on_the_open_file(self, case):
        body, header_line, options = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            with open(path, "wb") as fh:
                fh.write(body)
            with loadtxt_sources() as sources:
                got = harness._loadtxt(path, header_line, **options)
            want = _numpy_reads_the_open_file(path, header_line, **options)
        assert sources == [os.path.join(os.curdir, path)]
        if want is None:
            assert got is None
        else:
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
                (a.dtype, a.shape, np.ascontiguousarray(a).tobytes()) for a in want]

    def test_one_block_keeps_the_open_file(self, tmp_path):
        half = max(csv.field_size_limit() // 2, 1)
        path = tmp_path / "f.csv"
        path.write_text("0.5\n" * (half // 4))
        assert path.stat().st_size == half
        with loadtxt_sources() as sources:
            read_scores(path)
            with open(path, "a") as fh:
                fh.write("1\n")
            assert read_scores(path).scores[-1] == 1.0
        assert sources == ["open file", str(path)]

    @pytest.mark.parametrize("name", ["x.gz", "x.csv.bz2", "x.xz", "x.lzma"])
    def test_compressed_names_read_as_text(self, tmp_path, name):
        # numpy would open each of these through a decompressor.
        text, values = _long_scores()
        (tmp_path / name).write_text(text)
        with loadtxt_sources() as sources:
            assert read_scores(tmp_path / name).scores.tolist() == values
        assert sources == ["open file"]

    def test_every_suffix_numpy_decompresses_is_guarded(self):
        from numpy.lib import _datasource
        assert set(_datasource._file_openers.keys()) - {None} <= set(harness._COMPRESSED)

    def test_relative_url_name_reads_the_local_file(self, tmp_path, monkeypatch):
        text, values = _long_scores()
        (tmp_path / "s3:" / "bucket").mkdir(parents=True)
        (tmp_path / "s3:" / "bucket" / "x.csv").write_text(text)
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("urlopen called")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        with loadtxt_sources() as sources:
            assert read_scores("s3://bucket/x.csv").scores.tolist() == values
        assert sources == [os.path.join(os.curdir, "s3://bucket/x.csv")]

    def test_bytes_and_pathlike_names(self, tmp_path, monkeypatch):
        text, values = _long_scores()
        (tmp_path / "x.csv").write_text(text)
        monkeypatch.chdir(tmp_path)
        absolute = str(tmp_path / "x.csv")
        relative = os.path.join(os.curdir, "x.csv")
        names = [os.fsencode(absolute), tmp_path / "x.csv", _Name(os.fsencode(absolute)),
                 b"x.csv", _Name("x.csv")]
        with loadtxt_sources() as sources:
            for name in names:
                assert read_scores(name).scores.tolist() == values
        assert sources == [absolute, absolute, absolute, relative, relative]


# Values whose JSON and CSV texts differ from a plain repr, or whose reprs are
# edge cases: signed zeros, NaN, infinities, the least subnormal, the switch
# to exponent notation on both sides, a long repr and an int.
REPORT_VALUES = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, 1 / 3, 1)


# The per_split line that to_json replaces, inside a method name and as a params key.
SPLICE_METHOD = 'x\n  "per_split": []'
REPORT_PARAMS = ({"epsilon": 0.1, "rho": -0.0}, {"per_split": [], "rho": 0.5})


def _report(method, per_split, aggregate=0.5, params=REPORT_PARAMS[0]):
    return EvalReport(
        method=method, alpha=0.1, n_splits=len(per_split), n_calib=3, k_test=2,
        base_seed=4, params=params,
        perturbation={"global_law": {"kind": "point", "value": math.inf}, "seed": 1},
        per_split=tuple(per_split), coverage_mean=aggregate, coverage_std=math.nan,
        set_size_mean=1e16, set_size_std=0.0,
    )


@st.composite
def _report_lists(draw):
    """Reports that share ``SplitResult`` objects, as ``compare``'s reports do."""
    value = st.sampled_from(REPORT_VALUES)
    # Each result is a new object, so equal values (-0.0 and 0.0 too) sit in distinct ones.
    pool = [SplitResult(draw(value), draw(value)) for _ in range(draw(st.integers(1, 6)))]
    picks = st.lists(st.sampled_from(pool), max_size=5)
    method = st.sampled_from(["sc", "lp", 'a "quoted",\nname', SPLICE_METHOD])
    params = st.sampled_from(REPORT_PARAMS)
    return [_report(draw(method), draw(picks), draw(value), draw(params))
            for _ in range(draw(st.integers(0, 3)))]


class TestSplitResultTexts:
    """``SplitResult.texts`` is the repr of each finite float, None for any other value."""

    @pytest.mark.parametrize("coverage, size, texts", [
        (0.5, -0.0, ("0.5", "-0.0")),
        (5e-324, 1e16, ("5e-324", "1e+16")),
        (math.nan, math.inf, (None, None)),
        (-math.inf, 1, (None, None)),
        (True, 0.25, (None, "0.25")),
    ])
    def test_values(self, coverage, size, texts):
        assert SplitResult(coverage, size).texts == texts

    def test_reading_texts_keeps_equality_and_hash(self):
        read, fresh = SplitResult(0.5, -0.0), SplitResult(0.5, -0.0)
        before = hash(read)
        assert read.texts == ("0.5", "-0.0")
        assert read == fresh and hash(read) == hash(fresh) == before
        assert repr(read) == repr(fresh)


class TestReportText:
    """Report texts are the bytes ``json.dumps`` and a raw-value ``csv.writer`` write."""

    def _check(self, reports, path):
        # The second pass renders from the texts the first one cached.
        for _ in range(2):
            assert harness.reports_json(reports) == report_json(reports, wrapped=True)
            for report in reports:
                assert report.to_json() == report_json([report], wrapped=False)
            write_report_csv(reports, path)
            with open(path, newline="") as fh:
                assert fh.read() == report_csv(reports)

    @settings(max_examples=60, deadline=None)
    @given(reports=_report_lists())
    # Only the report's own per_split line is filled in, not one in a string or in params.
    @example(reports=[_report(SPLICE_METHOD, [SplitResult(0.5, 1.0)], params=REPORT_PARAMS[1]),
                      _report(SPLICE_METHOD, [], params=REPORT_PARAMS[1])])
    def test_matches_oracles(self, reports, tmp_path_factory):
        self._check(reports, tmp_path_factory.getbasetemp() / "report_text.csv")

    def test_edge_values_shared_and_distinct(self, tmp_path):
        zero, negative_zero = SplitResult(0.0, -0.0), SplitResult(-0.0, 0.0)
        edges = [SplitResult(v, w) for v, w in zip(REPORT_VALUES, reversed(REPORT_VALUES))]
        shared = [zero, negative_zero, *edges, zero]
        reports = [_report("sc", shared), _report("lp", shared[::-1]), _report("tv", [])]
        self._check(reports, tmp_path / "report.csv")
        text = harness.reports_json(reports)
        assert '"coverage": -0.0' in text and '"coverage": 0.0' in text
        assert '"per_split": []' in text

    def test_empty_report_list(self, tmp_path):
        self._check([], tmp_path / "report.csv")
        assert harness.reports_json([]) == '{\n  "reports": []\n}'

    @pytest.mark.parametrize("old", [b"junk\n" * 5000, b"x"], ids=["longer", "shorter"])
    def test_rewrite_leaves_exactly_the_table(self, tmp_path, old):
        shared = [SplitResult(v, v) for v in REPORT_VALUES]
        reports = [_report("sc", shared), _report("lp", shared[::-1])]
        path = tmp_path / "report.csv"
        path.write_bytes(old)
        write_report_csv(reports, path)
        assert path.read_bytes() == written_by_open(tmp_path / "ref.csv", report_csv(reports), "")
        assert path.read_bytes().count(b"\r\n") == 1 + 2 * len(shared)


WRITE_TEXTS = ["", "a", "one\ntwo\n", "crlf\r\nand cr\rend\n", "caf\u00e9 \u2014 \u00b5s\n",
               "0.1\n" * 40000]


class TestWriteText:
    """``write_text`` leaves the bytes ``open(path, "w")`` writes, rewriting in place."""

    @pytest.mark.parametrize("newline", [None, "", "\n", "\r\n", "\r"])
    @pytest.mark.parametrize("text", WRITE_TEXTS, ids=range(len(WRITE_TEXTS)))
    def test_bytes_of_open(self, tmp_path, text, newline):
        try:
            expected = written_by_open(tmp_path / "ref", text, newline)
        except UnicodeEncodeError:
            # A locale encoding without these characters fails both writers alike.
            with pytest.raises(UnicodeEncodeError):
                write_text(tmp_path / "out", text, newline)
            return
        write_text(tmp_path / "out", text, newline)
        assert (tmp_path / "out").read_bytes() == expected

    @pytest.mark.parametrize("old", [b"z" * 300000, b"0123456789", b"", b"ab"],
                             ids=["much-longer", "longer", "empty", "shorter"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "out"
        path.write_bytes(old)
        write_text(path, "new\ntext\n")
        assert path.read_bytes() == b"new\ntext\n"

    @pytest.mark.parametrize("mode", [0o640, 0o604, 0o600])
    def test_rewrite_keeps_inode_and_mode(self, tmp_path, mode):
        path = tmp_path / "out"
        path.write_text("old\n" * 1000)
        os.chmod(path, mode)
        before = os.stat(path)
        write_text(path, "new\n")
        after = os.stat(path)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        assert stat.S_IMODE(after.st_mode) == mode
        assert path.read_text() == "new\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_new_file_mode_is_0o666_less_the_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_text(tmp_path / "new", "x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(tmp_path / "new").st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_error_is_the_error_of_open(self, tmp_path, target):
        path = tmp_path if target == "directory" else tmp_path / "no" / "out.json"
        with pytest.raises(OSError) as expected:
            open(path, "w")
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            write_text(path, "x\n")

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_null_device_is_not_truncated(self):
        # /dev/null is seekable, yet ftruncate on it fails with EINVAL.
        write_text(os.devnull, "x" * 100000)
        write_text(os.devnull, "y\n", newline="")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("newline", [None, ""])
    def test_named_pipe_receives_the_bytes(self, tmp_path, newline):
        text = "a,b\r\n" * 20000 + "end\n"
        path = tmp_path / "pipe"
        _, received = fifo_receives(path, lambda: write_text(path, text, newline))
        assert received == written_by_open(tmp_path / "ref", text, newline)


class TestEvaluateInputs:
    def test_weights_follow_their_rows(self):
        # Each row's weight is a function of its true-label score, so a split
        # evaluated by hand with correctly paired weights is the reference.
        m = synthetic_matrix(np.random.default_rng(12), rows=120, labels=3)
        true_scores = m.scores[np.arange(m.n_rows), m.true_labels]
        def weigh(v):
            return np.exp(-3.0 * v)

        method = MethodSpec("weighted", weights=weigh(true_scores))
        report = evaluate(m, method, 0.2, n_splits=10, n_calib=40, k_test=30, base_seed=4)
        for j, got in enumerate(report.per_split):
            calib, test = split(m, 40, 30, [4, j, 0])
            ws = WeightedScores(calib.scores, weigh(calib.scores), 1.0)
            thr = fg_threshold(ws, 0.2, 0.0)
            cutoff = np.inf if thr.is_unbounded else thr.threshold
            member = test.scores <= cutoff
            covered = member[np.arange(test.n_rows), test.true_labels].mean()
            assert got.coverage == covered
            assert got.mean_set_size == member.sum(axis=1).mean()

    def test_weights_length_mismatch(self):
        m = synthetic_matrix(np.random.default_rng(13), rows=50)
        method = MethodSpec("weighted", weights=np.ones(49))
        with pytest.raises(ValueError, match="49 .*50"):
            evaluate(m, method, 0.1, n_splits=2, n_calib=20, k_test=10, base_seed=0)

    def test_negative_seed(self):
        m = synthetic_matrix(np.random.default_rng(14), rows=50)
        with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got -1"):
            evaluate(m, MethodSpec("sc"), 0.1, n_splits=2, n_calib=20, k_test=10, base_seed=-1)

    @pytest.mark.parametrize("redraw", [True, False])
    def test_seed_past_64_bits(self, redraw):
        # The split and perturbation seeds feed numpy's SeedSequence, which takes
        # a non-negative integer of any size.
        m = synthetic_matrix(np.random.default_rng(14), rows=50)
        spec = PerturbationSpec(0.1, 0.3, seed=2**70)
        report = evaluate(m, MethodSpec("sc"), 0.1, n_splits=2, n_calib=20, k_test=10,
                          base_seed=2**64, perturbation=spec, redraw_per_split=redraw)
        config = json.loads(report.to_json())["config"]
        assert config["seed"] == 2**64 and config["perturbation"]["seed"] == 2**70

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(2.0), "3", None])
    def test_non_integer_seed(self, seed):
        m = synthetic_matrix(np.random.default_rng(14), rows=50)
        message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        for run in (evaluate, compare):
            method = MethodSpec("sc") if run is evaluate else [MethodSpec("sc")]
            with pytest.raises(ValueError, match=message):
                run(m, method, 0.1, n_splits=2, n_calib=20, k_test=10, base_seed=seed)

    def test_integer_like_counts_reported_as_int(self):
        m = synthetic_matrix(np.random.default_rng(14), rows=50)
        counts = dict(n_splits=np.int64(2), n_calib=np.int32(20), k_test=np.uint8(10))
        report = evaluate(m, MethodSpec("sc"), 0.1, **counts, base_seed=0)
        assert all(type(getattr(report, name)) is int for name in counts)
        assert report.to_json() == evaluate(m, MethodSpec("sc"), 0.1, 2, 20, 10, 0).to_json()

    @pytest.mark.parametrize("seed, value", [(True, 1), (np.int64(3), 3), (np.uint8(3), 3)])
    def test_integer_seed_reported_as_int(self, seed, value):
        m = synthetic_matrix(np.random.default_rng(14), rows=50)
        kwargs = dict(alpha=0.1, n_splits=2, n_calib=20, k_test=10)
        report = evaluate(m, MethodSpec("sc"), **kwargs, base_seed=seed)
        assert type(report.base_seed) is int
        assert report.to_json() == evaluate(m, MethodSpec("sc"), **kwargs, base_seed=value).to_json()


def per_method_oracle(matrix, method, alpha, n_splits, n_calib, k_test, base_seed,
                      perturbation=None, redraw_per_split=True):
    """Slow reference: one method at a time, redrawing every split and
    perturbation, with the checks, keys, draw order and error wrapping of
    the original per-method evaluation loop."""
    check_alpha(alpha)
    if n_splits < 1:
        raise ValueError(f"number of splits must be positive, got {n_splits!r}")
    if k_test < 1:
        raise ValueError(f"number of test rows must be positive, got {k_test!r}")
    if base_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {base_seed!r}")
    if method.weights is not None and method.weights.shape != (matrix.n_rows,):
        raise ValueError(
            f"method weights have {method.weights.size} entries for "
            f"{matrix.n_rows} matrix rows; need one per row"
        )
    fixed_perturbed = None
    if perturbation is not None and not redraw_per_split:
        rng = np.random.default_rng([int(perturbation.seed), base_seed, 1])
        fixed_perturbed = perturb_rows(matrix.scores, matrix.true_labels, perturbation, rng)
    results = []
    for j in range(n_splits):
        calib_idx, test_idx = split_indices(matrix.n_rows, n_calib, k_test, [base_seed, j, 0])
        calib_raw = matrix.scores[calib_idx, matrix.true_labels[calib_idx]]
        calib = ScoreSample(calib_raw)
        test_scores = matrix.scores[test_idx]
        test_labels = matrix.true_labels[test_idx]
        if perturbation is not None:
            if redraw_per_split:
                rng = np.random.default_rng([int(perturbation.seed), base_seed, j, 1])
                test_scores = perturb_rows(test_scores, test_labels, perturbation, rng)
            else:
                test_scores = fixed_perturbed[test_idx]
        try:
            if method.weights is not None and method.name in ("weighted", "fg"):
                row_weights = method.weights[calib_idx[np.argsort(calib_raw, kind="stable")]]
                ws = WeightedScores(calib.scores, row_weights, method.test_weight)
                thr = fg_threshold(ws, alpha, 0.0 if method.name == "weighted" else method.rho_chi2)
            else:
                thr = method.threshold(calib, alpha)
        except ValueError as exc:
            raise type(exc)(f"split {j}: {exc}") from exc
        cutoff = np.inf if thr.is_unbounded else thr.threshold
        member = test_scores <= cutoff
        covered = int(member[np.arange(test_labels.size), test_labels].sum())
        results.append(SplitResult(covered / k_test, float(member.sum(axis=1).mean())))
    coverages = np.array([r.coverage for r in results])
    sizes = np.array([r.mean_set_size for r in results])
    ddof = 1 if n_splits > 1 else 0
    return EvalReport(
        method=method.name, alpha=alpha, n_splits=n_splits, n_calib=n_calib,
        k_test=k_test, base_seed=base_seed, params=method.params_dict(),
        perturbation=None if perturbation is None else perturbation_dict(perturbation),
        per_split=tuple(results),
        coverage_mean=float(coverages.mean()), coverage_std=float(coverages.std(ddof=ddof)),
        set_size_mean=float(sizes.mean()), set_size_std=float(sizes.std(ddof=ddof)),
    )


def all_methods(weights=None, **overrides):
    """Every method at one set of parameters; ``weights`` go to the methods that read them."""
    params = dict(epsilon=0.1, rho=0.05, rho_chi2=0.1, delta=0.05, sigma=2.0, test_weight=1.5)
    params.update(overrides)
    return [MethodSpec(name, **params, weights=weights if name in WEIGHTED_METHODS else None)
            for name in METHOD_NAMES]


def oracle_outcome(matrix, methods, *args, **kwargs):
    """JSON reports of the per-method oracle, or the first error it raises."""
    try:
        return [per_method_oracle(matrix, m, *args, **kwargs).to_json() for m in methods]
    except ValueError as exc:
        return exc


def compare_outcome(matrix, methods, *args, **kwargs):
    try:
        return [r.to_json() for r in compare(matrix, methods, *args, **kwargs)]
    except ValueError as exc:
        return exc


def same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert type(got.__cause__) is type(want.__cause__)
        assert str(got.__cause__) == str(want.__cause__)
    else:
        assert got == want


class TestSharedSplits:
    # Scores on a 0.1 lattice, so test scores often tie with the threshold.
    _base = synthetic_matrix(np.random.default_rng(30), rows=260, labels=5)
    MATRIX = ScoreMatrix(np.round(_base.scores, 1), _base.true_labels)
    SHIFT = PerturbationSpec(epsilon=0.1, rho=0.1, global_law=PointMass(40.0), seed=2)

    # (n_calib, score scale, parameter overrides, methods whose threshold is
    # unbounded with uniform weights, methods that fail at split 0): the base
    # case; a calibration size too small for sc, chi2, rscp and the uniform
    # weighted methods, and for lp to certify its level at all; a radius whose
    # offset overflows the threshold; and rho = 1, where lp has no coverage
    # bound.
    CASES = (
        (120, 1.0, {}, set(), set()),
        (7, 1.0, {}, {"sc", "chi2", "rscp", "weighted", "fg"}, {"lp", "tv", "winf"}),
        (120, 1e300, dict(epsilon=sys.float_info.max), {"lp", "winf"}, set()),
        (120, 1.0, dict(rho=1.0), {"lp", "tv"}, set()),
    )

    @pytest.mark.parametrize("n_splits", [1, 7])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "per_row"])
    @pytest.mark.parametrize("mode", ["none", "per_split", "fixed"])
    def test_byte_identical_to_per_method_oracle(self, mode, weighted, n_splits):
        base = self.MATRIX
        true_scores = base.scores[np.arange(base.n_rows), base.true_labels]
        weight_sets = [np.exp(-true_scores)] if weighted else [None, np.ones(base.n_rows)]
        kwargs = dict(
            perturbation=None if mode == "none" else self.SHIFT,
            redraw_per_split=mode != "fixed",
        )
        for n_calib, scale, overrides, unbounded, failing in self.CASES:
            m = ScoreMatrix(base.scores * scale, base.true_labels)
            args = (0.1, n_splits, n_calib, 90, 17)
            for weights in weight_sets:
                methods = all_methods(weights, **overrides)
                want = oracle_outcome(m, methods, *args, **kwargs)
                same_outcome(compare_outcome(m, methods, *args, **kwargs), want)
                if not failing:
                    assert isinstance(want, list) and len(want) == len(METHOD_NAMES)
                for method in methods:
                    try:
                        got = [evaluate(m, method, *args, **kwargs).to_json()]
                    except ValueError as exc:
                        got = exc
                    same_outcome(got, oracle_outcome(m, [method], *args, **kwargs))
                    if method.name in failing:
                        assert str(got).startswith("split 0: ")
                    elif method.name in unbounded and weights is None:
                        sizes = [s["mean_set_size"] for s in json.loads(got[0])["per_split"]]
                        assert sizes == [m.n_labels] * n_splits

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(range(len(METHOD_NAMES))), st.booleans())
    def test_invariant_to_method_order(self, order, fixed):
        methods = all_methods()
        kwargs = dict(perturbation=self.SHIFT, redraw_per_split=not fixed)
        base = compare(self.MATRIX, methods, 0.1, 4, 100, 80, 3, **kwargs)
        permuted = compare(self.MATRIX, [methods[i] for i in order], 0.1, 4, 100, 80, 3, **kwargs)
        assert [r.to_json() for r in permuted] == [base[i].to_json() for i in order]

    @staticmethod
    def _layouts(m):
        """``m`` with its scores C-ordered, Fortran-ordered and as a strided slice."""
        fortran = ScoreMatrix(np.asfortranarray(m.scores), m.true_labels)
        sliced = ScoreMatrix(np.repeat(m.scores, 2, axis=1)[:, ::2], m.true_labels)
        assert not (fortran.scores.flags.c_contiguous or sliced.scores.flags.c_contiguous)
        return [m, fortran, sliced]

    @pytest.mark.parametrize("redraw", [True, False], ids=["per_split", "fixed"])
    def test_shared_cutoffs_match_per_method_oracle(self, redraw):
        kwargs = dict(perturbation=self.SHIFT, redraw_per_split=redraw)
        # With only epsilon and rho set, as in the benchmark, these five
        # resolve to one order statistic with a zero offset.
        five = ("sc", "chi2", "weighted", "rscp", "fg")
        bench = [MethodSpec(name, epsilon=0.1, rho=0.05) for name in METHOD_NAMES]
        huge = ScoreMatrix(self.MATRIX.scores * 1e300, self.MATRIX.true_labels)
        # True-label scores are all 0.0 or -0.0, so the sc-like cutoffs are
        # often -0.0 (a -0.0 order statistic plus the -0.0 offset) while the
        # robust ones are 0.0 (plus epsilon = 0.0).
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 5, 260)
        zeros = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(260, 5))
        zeros[np.arange(260), labels] = rng.choice([-0.0, 0.0], size=260)
        signed = ScoreMatrix(zeros, labels)
        # (matrix, methods, n_calib, groups of methods sharing every split's counts)
        cases = (
            (self.MATRIX, bench, 120, [five]),
            # The five are all unbounded at n_calib 7; lp, tv and winf fail there.
            (self.MATRIX, [method for method in bench if method.name in five], 7, [five]),
            (self.MATRIX, bench, 7, []),
            # lp and tv are unbounded at rho = 1, winf by overflow.
            (huge, [MethodSpec(name, epsilon=sys.float_info.max, rho=1.0)
                    for name in METHOD_NAMES], 120, [five, ("lp", "tv", "winf")]),
            (signed, [MethodSpec(name, rho=0.05) for name in METHOD_NAMES], 120,
             [METHOD_NAMES]),
        )
        n_splits = 6
        for matrix, methods, n_calib, groups in cases:
            args = (0.1, n_splits, n_calib, 90, 17)
            for m in self._layouts(matrix):
                got = compare_outcome(m, methods, *args, **kwargs)
                same_outcome(got, oracle_outcome(m, methods, *args, **kwargs))
                assert isinstance(got, list) == bool(groups)
                if not groups:
                    continue
                reports = {r.method: r for r in compare(m, methods, *args, **kwargs)}
                for group in groups:
                    for j in range(n_splits):
                        first = reports[group[0]].per_split[j]
                        assert all(reports[name].per_split[j] is first for name in group)
        sc = MethodSpec("sc")
        assert any(np.signbit(sc.threshold(split(signed, 120, 90, [17, j, 0])[0], 0.1).threshold)
                   for j in range(n_splits))

    @pytest.mark.parametrize("shift", [
        PerturbationSpec(epsilon=0.1, rho=1.0, global_law=PointMass(40.0), seed=2),
        PerturbationSpec(epsilon=0.1, rho=0.3, global_law=Uniform(-3.0, 3.0), seed=4),
    ], ids=["rho_one", "uniform_global"])
    @pytest.mark.parametrize("redraw", [True, False], ids=["per_split", "fixed"])
    def test_reused_test_block_matches_per_method_oracle(self, shift, redraw):
        # Every split overwrites the one test block of the call: a cell left
        # from the split before, or a row the perturbation missed, would show.
        kwargs = dict(perturbation=shift, redraw_per_split=redraw)
        methods = all_methods()
        for k_test in (90, 1):
            args = (0.1, 7, 120, k_test, 17)
            for m in self._layouts(self.MATRIX):
                want = oracle_outcome(m, methods, *args, **kwargs)
                assert isinstance(want, list)
                same_outcome(compare_outcome(m, methods, *args, **kwargs), want)

    @pytest.mark.parametrize("mode", ["none", "per_split", "fixed"])
    def test_inputs_not_mutated(self, mode):
        kwargs = dict(
            perturbation=None if mode == "none" else self.SHIFT,
            redraw_per_split=mode != "fixed",
        )
        weights = np.linspace(0.5, 2.0, self.MATRIX.n_rows)
        methods = all_methods() + [MethodSpec("fg", weights=weights)]
        for m in self._layouts(self.MATRIX):
            saved = [a.tobytes() for a in (m.scores, m.true_labels, weights)]
            compare(m, methods, 0.1, 4, 100, 80, 3, **kwargs)
            assert [a.tobytes() for a in (m.scores, m.true_labels, weights)] == saved

    def _fails_from_split_3(self):
        """Weighted method whose weights are valid until a row with a zero
        weight first enters calibration (8 rows, seed 5) at split 3."""
        n_rows = self.MATRIX.n_rows
        calib = [np.random.default_rng([5, j, 0]).permutation(n_rows)[:8] for j in range(4)]
        seen = set(np.concatenate(calib[:3]).tolist())
        weights = np.ones(n_rows)
        weights[next(r for r in calib[3].tolist() if r not in seen)] = 0.0
        return MethodSpec("weighted", weights=weights)

    def test_error_of_first_method_in_order_wins(self):
        # Among rule errors the first failing method in list order wins, at
        # split 0, as in the per-method oracle. A bad per-row weight is raised
        # before any rule error, without a split prefix, even where its row
        # first calibrates at split 3; there the oracle still names split 3.
        m = self.MATRIX
        # n_calib = 8 is too small at alpha 0.1 for lp at rho = 0 and tv at rho = 0.05.
        lp, tv = MethodSpec("lp"), MethodSpec("tv", rho=0.05)
        args = (0.1, 6, 8, 20, 5)
        lp_error = ("split 0: adjusted miscoverage -0.13749999999999998 is not positive: "
                    "n=8 is too small for alpha=0.1, rho=0.0")
        tv_error = ("split 0: adjusted miscoverage -0.14375 is not positive: "
                    "n=8 is too small for alpha=0.1, rho=0.05")
        cases = (([lp, tv], lp_error), ([tv, lp], tv_error), ([MethodSpec("sc"), tv, lp], tv_error))
        for methods, message in cases:
            got = compare_outcome(m, methods, *args)
            assert isinstance(got, ValueError)
            assert str(got).startswith(message)
            same_outcome(got, oracle_outcome(m, methods, *args))
        late = self._fails_from_split_3()
        assert str(oracle_outcome(m, [late], *args)).startswith("split 3: ")
        for methods in ([late], [lp, late], [tv, MethodSpec("sc"), late]):
            with pytest.raises(ValueError, match="^weights must be finite and strictly positive$"):
                compare(m, methods, *args)

    @pytest.mark.parametrize("redraw, expected", [(True, 5), (False, 1)])
    def test_each_perturbation_drawn_once_for_all_methods(self, monkeypatch, redraw, expected):
        # A redrawn split perturbs its test block in place through perturb_cells;
        # a fixed perturbation is one perturb_rows call on the whole matrix.
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("perturb_rows", "perturb_cells"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        reports = compare(self.MATRIX, all_methods(), 0.1, 5, 100, 80, 3,
                          perturbation=self.SHIFT, redraw_per_split=redraw)
        assert len(reports) == len(METHOD_NAMES)
        assert calls == {"perturb_cells" if redraw else "perturb_rows": expected}

    @pytest.mark.parametrize("n_splits", [1, 6])
    def test_each_rule_resolved_once_per_call(self, monkeypatch, n_splits):
        # Per-row methods resolve once with unit weights, which checks their
        # parameters, then once per split with that split's weights.
        rules, thresholds = Counter(), Counter()
        resolve, calibrate = MethodSpec.rule, MethodSpec.threshold

        def counting_rule(method, n, alpha, sorted_weights=None):
            rules[method.name, method.weights is not None, sorted_weights is not None] += 1
            return resolve(method, n, alpha, sorted_weights)

        def counting_threshold(method, *args, **kwargs):
            thresholds[method.name, method.weights is not None] += 1
            return calibrate(method, *args, **kwargs)

        monkeypatch.setattr(MethodSpec, "rule", counting_rule)
        monkeypatch.setattr(MethodSpec, "threshold", counting_threshold)
        per_row = [MethodSpec(name, weights=np.full(self.MATRIX.n_rows, 2.0))
                   for name in ("weighted", "fg")]
        reports = compare(self.MATRIX, all_methods() + per_row, 0.1, n_splits, 100, 80, 3,
                          perturbation=self.SHIFT)
        assert len(reports) == len(METHOD_NAMES) + 2
        per_split = {(name, True, with_weights): n_splits if with_weights else 1
                     for name in ("weighted", "fg") for with_weights in (False, True)}
        assert rules == {(name, False, False): 1 for name in METHOD_NAMES} | per_split
        assert not thresholds

    def test_arguments_checked_before_any_split(self, monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(harness, "_split_indices", no_split)
        # The first method would fail at split 0; the last one's weights are
        # checked first.
        lp = MethodSpec("lp")  # n_calib = 8 is too small at alpha 0.1
        for weights, message in (
            (np.ones(3), "^method weights have 3 entries for 260 matrix rows; need one per row$"),
            (np.ones((260, 1)),
             r"^method weights have shape \(260, 1\) for 260 matrix rows; need one per row$"),
            (np.where(np.arange(260) == 200, 0.0, 1.0), "^weights must be finite and strictly"),
            (np.where(np.arange(260) == 7, np.nan, 1.0), "^weights must be finite and strictly"),
        ):
            methods = [lp, MethodSpec("weighted", weights=weights)]
            with pytest.raises(ValueError, match=message):
                compare(self.MATRIX, methods, 0.1, 2, 8, 20, 0)
        with pytest.raises(ValueError, match="^split 0: adjusted miscoverage") as info:
            compare(self.MATRIX, [MethodSpec("sc"), lp], 0.1, 2, 8, 20, 0)
        assert str(info.value.__cause__) == str(info.value).removeprefix("split 0: ")
        for bad, message in (
            (dict(alpha=1.0), "alpha"),
            (dict(n_splits=0), "^number of splits must be positive, got 0$"),
            (dict(k_test=0), "^number of test rows must be positive, got 0$"),
            (dict(base_seed=-1), "seed"),
            (dict(n_calib=0), "^calibration size must be positive, got 0$"),
            (dict(n_calib=250), "^n_calib \\+ k_test = 270 exceeds the 260 available rows$"),
            (dict(n_splits=2.0), "^number of splits must be an integer, got 2.0$"),
            (dict(k_test=20.0), "^number of test rows must be an integer, got 20.0$"),
            (dict(n_calib=8.5), "^calibration size must be an integer, got 8.5$"),
            (dict(n_calib="8"), "^calibration size must be an integer, got '8'$"),
        ):
            kwargs = {**dict(alpha=0.1, n_splits=2, n_calib=8, k_test=20, base_seed=0), **bad}
            for methods in ([MethodSpec("sc")], [lp], []):
                with pytest.raises(ValueError, match=message):
                    compare(self.MATRIX, methods, **kwargs)
