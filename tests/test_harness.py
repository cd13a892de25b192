"""Tests for splits, evaluation, comparison, and file ingestion."""

import numpy as np
import pytest

from lpconformal import (
    MethodSpec,
    WeightedScores,
    PerturbationSpec,
    PointMass,
    ScoreMatrix,
    compare,
    conformal_quantile,
    evaluate,
    quantile,
    read_matrix,
    read_scores,
    read_weighted_scores,
    split,
    weighted_threshold,
)
from lpconformal.harness import FileFormatError, write_report_csv
from lpconformal.robust import adjusted_beta


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
        m = ScoreMatrix([[0.1, 0.2], [0.3, 0.4]], [1, 0])
        assert m.n_rows == 2 and m.n_labels == 2


class TestSplit:
    def test_all_rows_calibrate(self):
        m = synthetic_matrix(np.random.default_rng(0), rows=20)
        calib, test = split(m, 20, 0, seed=1)
        assert calib.n == 20
        assert test.n_rows == 0

    def test_same_seed_identical(self):
        m = synthetic_matrix(np.random.default_rng(1), rows=50)
        c1, t1 = split(m, 30, 10, seed=7)
        c2, t2 = split(m, 30, 10, seed=7)
        assert c1 == c2
        assert np.array_equal(t1.scores, t2.scores)

    def test_different_seeds_differ(self):
        m = synthetic_matrix(np.random.default_rng(2), rows=10)
        c1, _ = split(m, 5, 5, seed=0)
        c2, _ = split(m, 5, 5, seed=1)
        assert not np.array_equal(c1.scores, c2.scores)

    def test_size_violation(self):
        m = synthetic_matrix(np.random.default_rng(3), rows=10)
        with pytest.raises(ValueError):
            split(m, 8, 5, seed=0)

    def test_calibration_scores_are_true_label_scores(self):
        m = synthetic_matrix(np.random.default_rng(4), rows=40)
        calib, _ = split(m, 40, 0, seed=0)
        expected = np.sort(m.scores[np.arange(40), m.true_labels])
        assert np.array_equal(calib.scores, expected)


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


class TestCompare:
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

    def test_report_csv(self, tmp_path):
        rng = np.random.default_rng(16)
        m = synthetic_matrix(rng, rows=120)
        rep = evaluate(m, MethodSpec("sc"), 0.1, 3, 60, 40, base_seed=1)
        out = tmp_path / "report.csv"
        write_report_csv([rep], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,split,coverage,mean_set_size"
        assert len(lines) == 4


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
            thr = weighted_threshold(ws, 0.2)
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
