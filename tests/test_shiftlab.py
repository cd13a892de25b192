"""Tests for the perturbation sampler, extremal families, and pushforward inclusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpconformal import (
    LPParams,
    PerturbationSpec,
    PointMass,
    ScoreSample,
    Uniform,
    cdf,
    lp_distance,
    perturb_draws,
    perturb_sample,
    propagate_params,
    quantile,
    worst_case_quantile,
)
from lpconformal.shiftlab import perturb_cells, perturb_rows

from oracles import (
    clamp_displacement,
    perturb_rows_reference,
    pushforward_check,
    wc_coverage_family,
    wc_quantile_family,
)


def dyadic_sample(rng, n, scale=4.0):
    """Random scores on a coarse dyadic grid, so +eps shifts are float-exact."""
    return ScoreSample(rng.integers(0, 2**20, size=n) * (scale / 2**20))


class TestPerturbationSpec:
    def test_validates_local_support(self):
        with pytest.raises(ValueError):
            PerturbationSpec(epsilon=0.1, rho=0.0, local_law=Uniform(-0.2, 0.1))
        with pytest.raises(ValueError):
            PerturbationSpec(epsilon=0.1, rho=0.0, local_law=PointMass(0.2))

    def test_uniform_rejects_an_unsampleable_width(self):
        with pytest.raises(ValueError, match=r"uniform bounds \[-1e\+308, 1e\+308\]"):
            Uniform(-1e308, 1e308)
        spec = PerturbationSpec(epsilon=1e308, rho=0.1)
        with pytest.raises(ValueError, match="too far apart to sample"):
            perturb_sample(ScoreSample([0.0, 1.0]), spec)

    def test_default_local_law(self):
        spec = PerturbationSpec(epsilon=0.3, rho=0.1)
        law = spec.resolved_local_law()
        assert law == Uniform(-0.3, 0.3)

    def test_validates_rho(self):
        with pytest.raises(ValueError):
            PerturbationSpec(epsilon=0.1, rho=1.5)

    @pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(2.0), "3", None, -1])
    def test_rejects_a_seed_that_is_not_a_64_bit_unsigned_integer(self, seed):
        # Nor a non-negative integer of any width: core.check_seed's message.
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
            PerturbationSpec(0.1, 0.1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 3, np.int64(3), np.uint64(2**64 - 1), 2**64, 2**70])
    def test_accepts_python_and_numpy_integer_seeds(self, seed):
        # numpy's SeedSequence takes a non-negative integer of any size.
        spec = PerturbationSpec(0.1, 0.1, seed=seed)
        assert type(spec.seed) is int and spec.seed == int(seed)
        assert perturb_sample(ScoreSample([0.0, 1.0]), spec).n == 2


class TestPerturbSample:
    def test_draws_compared_and_hashed_by_identity(self):
        base = ScoreSample([1.0, 2.0, 3.0])
        spec = PerturbationSpec(epsilon=0.1, rho=0.5, seed=3)
        a, b = perturb_draws(base, spec), perturb_draws(base, spec)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.replaced, b.replaced)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_identity(self):
        base = ScoreSample([1.0, 2.0, 3.0])
        spec = PerturbationSpec(epsilon=0.0, rho=0.0, local_law=PointMass(0.0))
        assert perturb_sample(base, spec) == base

    def test_pure_shift_stays_in_ball(self):
        rng = np.random.default_rng(0)
        base = dyadic_sample(rng, 200)
        eps = 0.125
        spec = PerturbationSpec(epsilon=eps, rho=0.0, local_law=PointMass(eps))
        out = perturb_sample(base, spec)
        assert np.allclose(out.scores, base.scores + eps)
        assert lp_distance(base, out, eps).rho == 0.0

    def test_global_replacement_fraction_matches_binomial(self):
        # Monte Carlo: at eps 0 with a far-out point mass the distance equals
        # the realized replacement fraction, near rho with binomial error.
        rng = np.random.default_rng(1)
        n = 10_000
        base = dyadic_sample(rng, n)
        spec = PerturbationSpec(
            epsilon=0.0, rho=0.3, local_law=PointMass(0.0),
            global_law=PointMass(99.0), seed=42,
        )
        draw = perturb_draws(base, spec)
        realized = draw.replaced.mean()
        out = ScoreSample(draw.values)
        rho = lp_distance(base, out, 0.0).rho
        assert rho == pytest.approx(realized, abs=1e-12)
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(rho - 0.3) <= 3 * sigma

    def test_deterministic_given_seed(self):
        base = ScoreSample(np.linspace(0, 1, 50))
        spec = PerturbationSpec(epsilon=0.2, rho=0.4, global_law=PointMass(7.0), seed=9)
        assert perturb_sample(base, spec) == perturb_sample(base, spec)

    def test_sum_past_the_largest_double_is_clamped_without_a_warning(self):
        # Warnings are errors under this suite, so an overflowing add would fail here.
        base = ScoreSample(np.r_[np.full(50, 1.7e308), np.ones(50)])
        eps = 8e307
        draw = perturb_draws(base, PerturbationSpec(epsilon=eps, rho=0.1))
        kept = ~draw.replaced
        assert np.isfinite(draw.values).all()
        assert (np.abs(draw.values[kept] - base.scores[kept]) <= eps).all()
        # Some sums did overflow: they came back as the largest double.
        assert (draw.values[kept] == np.finfo(float).max).any()

    def test_default_local_law_built_once(self):
        spec = PerturbationSpec(epsilon=0.3, rho=0.1)
        assert spec.resolved_local_law() is spec.resolved_local_law()
        own = Uniform(-0.1, 0.2)
        assert PerturbationSpec(0.3, 0.1, local_law=own).resolved_local_law() is own

    def test_two_step_membership_is_exact(self):
        # Displacement within eps plus replacement of a realized fraction
        # keeps the distance at or below that fraction, exactly.
        rng = np.random.default_rng(2)
        for seed in range(10):
            base = ScoreSample(rng.normal(size=300))
            spec = PerturbationSpec(
                epsilon=0.25, rho=0.2, global_law=PointMass(50.0), seed=seed
            )
            draw = perturb_draws(base, spec)
            realized = draw.replaced.sum() / base.n
            out = ScoreSample(draw.values)
            assert lp_distance(base, out, 0.25).rho <= realized + 1e-12


class TestPerturbRows:
    EPS = 0.25

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 5),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.sampled_from([None, PointMass(0.0), PointMass(-0.25), Uniform(-0.1, 0.25)]),
        st.sampled_from([PointMass(40.0), PointMass(-0.0), Uniform(-2.0, 3.0)]),
        st.booleans(),
        st.sampled_from(["rows", "cells"]),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_reference(self, rows, labels, rho, local, glob, fortran, call,
                                        seed):
        draw = np.random.default_rng(seed)
        # Some lattice scores, so a shift by epsilon is exact or lands on a tie.
        scores = np.where(draw.random((rows, labels)) < 0.5,
                          draw.normal(size=(rows, labels)),
                          draw.integers(-4, 5, (rows, labels)) * self.EPS)
        if fortran:
            scores = np.asfortranarray(scores)
        true_labels = draw.integers(0, labels, rows)
        saved = scores.tobytes(), true_labels.tobytes()
        spec = PerturbationSpec(self.EPS, rho, local_law=local, global_law=glob)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if call == "rows":
            got = perturb_rows(scores, true_labels, spec, rng)
            assert got.flags.c_contiguous
        else:
            # A C-ordered copy is perturbed in place, and the scores stay untouched.
            got = scores.copy(order="C")
            cells = np.arange(rows) * labels + true_labels
            true_scores = perturb_cells(got.reshape(-1), cells, labels, spec, rng)
            assert true_scores.tobytes() == got[np.arange(rows), true_labels].tobytes()
        want = perturb_rows_reference(scores, true_labels, spec, ref_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # Both generators end in one state: the same draws, in the same sizes.
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (scores.tobytes(), true_labels.tobytes()) == saved

    def test_overflowing_true_score_in_a_replaced_row(self):
        # Every row's true cell is displaced before the replaced rows are
        # overwritten. The only huge true score sits in a replaced row whose
        # noise carries it past the largest double: no warning, no trace.
        eps, seed = 8e307, 5
        draw = np.random.default_rng(seed)
        corrupt = draw.random(6) < 0.5
        noise = draw.uniform(-eps, eps, 6)
        row = int(np.flatnonzero(corrupt & (noise > 1e307))[0])
        labels = np.array([0, 1, 2, 0, 1, 2])
        scores = np.arange(18.0).reshape(6, 3)
        scores[row, labels[row]] = 1.7e308
        spec = PerturbationSpec(eps, 0.5, global_law=PointMass(2.0))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = perturb_rows(scores, labels, spec, rng)
        want = perturb_rows_reference(scores, labels, spec, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (got[row] == 2.0).all()

    @pytest.mark.parametrize("eps", [0.25, 0.1, 8e307])
    def test_clamped_shift_matches_the_reference_loop(self, eps):
        # A shift by exactly +-eps often rounds past eps and is nudged back;
        # values that need no nudge are kept as they are.
        rng = np.random.default_rng(8)
        base = ScoreSample(np.r_[rng.integers(-8, 9, 300) * 0.25, rng.normal(size=300),
                                 np.full(20, 1.7e308), np.full(20, -1.7e308)])
        x = base.scores
        for shift in (eps, -eps):
            spec = PerturbationSpec(eps, 0.0, local_law=PointMass(shift))
            got = perturb_draws(base, spec).values
            with np.errstate(over="ignore"):
                want = clamp_displacement(x + shift, x, eps)
                assert (want != x + shift).any()
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_labels", [1, 3])
    @pytest.mark.parametrize("glob", [PointMass(40.0), Uniform(-2.0, 3.0)])
    def test_matrix_without_rows(self, n_labels, glob):
        # The row width is passed to perturb_cells, not inferred from no cells.
        scores = np.empty((0, n_labels))
        spec = PerturbationSpec(self.EPS, 0.5, global_law=glob)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = perturb_rows(scores, np.empty(0, dtype=int), spec, rng)
        want = perturb_rows_reference(scores, np.empty(0, dtype=int), spec, ref_rng)
        assert got.shape == want.shape == (0, n_labels)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_read_only_out_rejected(self):
        scores = np.arange(6.0).reshape(2, 3)
        scores.flags.writeable = False
        # perturb_cells writes into its block, so a read-only one is refused unwritten.
        with pytest.raises(ValueError, match="read-only"):
            perturb_cells(scores.reshape(-1), np.array([0, 5]), 3, PerturbationSpec(0.1, 0.5),
                          np.random.default_rng(0))
        assert scores.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        # perturb_rows copies the read-only scores, and does not write them.
        got = perturb_rows(scores, np.array([0, 2]), PerturbationSpec(0.1, 0.5),
                           np.random.default_rng(0))
        assert got.flags.writeable and scores.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_columns_rejected(self, label):
        scores = np.arange(6.0).reshape(2, 3)
        spec = PerturbationSpec(0.1, 0.0)
        with pytest.raises(ValueError, match="true labels must index a matrix column"):
            perturb_rows(scores, np.array([0, label]), spec, np.random.default_rng(0))
        assert scores.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    @pytest.mark.parametrize("labels", [[1], [1, 0, 1, 0]], ids=["one", "four"])
    def test_label_count_other_than_the_rows_rejected(self, labels):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="true labels must be one per matrix row"):
            perturb_rows(np.zeros((3, 2)), np.array(labels), PerturbationSpec(0.1, 0.0, seed=1),
                         rng)
        assert rng.bit_generator.state == state


class TestWcQuantileFamily:
    def test_rho_zero_is_pure_shift(self):
        rng = np.random.default_rng(3)
        base = dyadic_sample(rng, 100)
        out = wc_quantile_family(base, 0.8, LPParams(0.125, 0.0), 10)
        assert np.allclose(out.scores, base.scores + 0.125)

    def test_quantile_identity(self):
        # quantile(out, beta) equals quantile(base, beta - 1/k + rho) + eps.
        rng = np.random.default_rng(4)
        for seed in range(5):
            base = dyadic_sample(np.random.default_rng(seed), 200)
            beta, rho, eps, k = 0.8, 0.1, 0.125, 20
            out = wc_quantile_family(base, beta, LPParams(eps, rho), k)
            lhs = quantile(out, beta)
            rhs = quantile(base, beta - 1 / k + rho) + eps
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_stays_in_ball(self):
        rng = np.random.default_rng(5)
        for n in (40, 200):
            base = dyadic_sample(rng, n)
            params = LPParams(0.125, 0.1)
            for k in (10, 100):
                out = wc_quantile_family(base, 0.8, params, k)
                assert lp_distance(base, out, params.epsilon).rho <= params.rho + 1e-12

    def test_monotone_toward_bound_in_k(self):
        base = dyadic_sample(np.random.default_rng(6), 400)
        params = LPParams(0.125, 0.1)
        bound = worst_case_quantile(base, 0.8, params).threshold
        prev = -np.inf
        for k in (10, 40, 100, 400):
            val = quantile(wc_quantile_family(base, 0.8, params, k), 0.8)
            assert val >= prev - 1e-12
            assert val <= bound + 1e-12
            prev = val

    def test_preconditions(self):
        base = ScoreSample(np.linspace(0, 1, 50))
        with pytest.raises(ValueError):
            wc_quantile_family(base, 0.95, LPParams(0.0, 0.1), 10)  # beta + rho > 1
        with pytest.raises(ValueError):
            wc_quantile_family(base, 0.5, LPParams(0.0, 0.1), 5)  # 1/k > rho
        with pytest.raises(ValueError):
            # band too narrow to contain an atom at this n
            wc_quantile_family(ScoreSample([1.0, 2.0]), 0.5, LPParams(0.0, 0.1), 10)


class TestWcCoverageFamily:
    def test_rho_zero_pure_shift_cdf(self):
        rng = np.random.default_rng(7)
        base = dyadic_sample(rng, 100)
        eps = 0.25
        out = wc_coverage_family(base, 1.0, LPParams(eps, 0.0), 10)
        assert cdf(out, 1.0) == cdf(base, 1.0 - eps)

    def test_cdf_approaches_worst_case_from_above(self):
        rng = np.random.default_rng(8)
        base = dyadic_sample(rng, 500)
        params = LPParams(0.125, 0.1)
        q = quantile(base, 0.9) + params.epsilon
        target = cdf(base, q - params.epsilon) - params.rho
        gaps = []
        for k in (10, 100):
            out = wc_coverage_family(base, q, params, k)
            got = cdf(out, q)
            assert got >= target - 1e-12
            gaps.append(got - target)
            assert gaps[-1] <= 1 / k + 1 / base.n + 1e-12
        assert gaps[1] <= gaps[0] + 1e-12

    def test_stays_in_ball(self):
        rng = np.random.default_rng(9)
        base = dyadic_sample(rng, 300)
        params = LPParams(0.125, 0.08)
        q = quantile(base, 0.85)
        for k in (13, 50):
            out = wc_coverage_family(base, q, params, k)
            assert lp_distance(base, out, params.epsilon).rho <= params.rho + 1e-12

    def test_empty_band_raises(self):
        with pytest.raises(ValueError):
            wc_coverage_family(ScoreSample([1.0, 2.0]), 1.5, LPParams(0.0, 0.05), 20)


class TestPropagateParams:
    def test_identity(self):
        p = LPParams(0.5, 0.1)
        assert propagate_params(1.0, p) == p

    def test_scales_epsilon_only(self):
        assert propagate_params(2.0, LPParams(0.5, 0.1)) == LPParams(1.0, 0.1)

    def test_experiment_usage(self):
        # data-space radius u = 1.0 with Lipschitz constant 2 gives eps = 2.0
        out = propagate_params(2.0, LPParams(1.0, 0.05))
        assert out.epsilon == 2.0 and out.rho == 0.05

    @pytest.mark.parametrize("k, epsilon", [
        (2.0, 1e308), (1e300, 1e10), (np.float64(4.0), 1e308), (2.0, np.float64(1e308)),
    ])
    def test_overflowing_radius_names_both_factors(self, k, epsilon):
        # The product overflows: the message names what the caller passed, not inf.
        with pytest.raises(ValueError) as info:
            propagate_params(k, LPParams(epsilon, 0.1))
        assert str(info.value) == (
            f"Lipschitz constant {k!r} times epsilon {epsilon!r} overflows")


def random_max_affine(rng, dim, pieces=4):
    """Random 1-Lipschitz piecewise-linear map: max of unit-gradient affines."""
    grads = rng.normal(size=(pieces, dim))
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    grads = grads / np.maximum(norms, 1e-12) * rng.uniform(0.2, 1.0, size=(pieces, 1))
    offsets = rng.uniform(-1, 1, pieces)

    def s(points):
        return (points @ grads.T + offsets).max(axis=1)

    return s


class TestPushforwardCheck:
    def test_identical_clouds(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(12, 3))
        scores = ScoreSample(pts[:, 0])
        assert pushforward_check(pts, pts, scores, scores, 0.5)

    def test_shift_within_epsilon_identity_score(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(15, 2))
        shifted = pts + np.array([0.05, 0.0])
        sp = ScoreSample(pts[:, 0])
        sq = ScoreSample(shifted[:, 0])
        eps = 0.1
        assert lp_distance(sp, sq, eps).rho == 0.0
        assert pushforward_check(pts, shifted, sp, sq, eps)

    def test_random_lipschitz_scores_always_included(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(2, 31)), int(rng.integers(2, 31))
            dim = int(rng.integers(1, 4))
            p = rng.normal(size=(n, dim))
            q = rng.normal(loc=rng.uniform(-0.5, 0.5), size=(m, dim))
            s = random_max_affine(rng, dim)
            eps = float(rng.uniform(0.05, 1.5))
            assert pushforward_check(
                p, q, ScoreSample(s(p)), ScoreSample(s(q)), eps
            )
