"""Tests for the exact threshold-cost transport distance.

Three independent oracles back the solver: exhaustive search over
permutation couplings for equal sizes, linear programming over the
integer-scaled transport polytope for small cases, and the scipy max-flow
oracle of ``oracles.py`` on the same integer scaling for larger ones.
"""

import itertools
import pickle
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lpconformal import (
    ScoreSample,
    cdf,
    estimate_lp_params,
    lp_distance,
    lp_profile,
    tv_distance,
    winf_within,
)
from lpconformal import lp_metric
from lpconformal.lp_metric import LPParams

from oracles import transport_matched_units


def lp_rho_linprog(x, y, eps):
    """Exact optimum by linear optimization over the scaled transport polytope.

    Row sums are m units, column sums n units, and each unit crossing a gap
    wider than eps costs 1/(n*m).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n, m = x.size, y.size
    with np.errstate(over="ignore"):
        cost = (np.abs(x[:, None] - y[None, :]) > eps).astype(float).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, m), np.full(m, n)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun / (n * m)


def lp_rho_permutations(x, y, eps):
    """Brute force over permutation couplings (valid when n == m)."""
    n = len(x)
    best = n
    for perm in itertools.permutations(range(n)):
        mismatched = sum(1 for i, j in enumerate(perm) if abs(x[i] - y[j]) > eps)
        best = min(best, mismatched)
    return best / n


def check_certificate(result, x, y, eps):
    """Certificate invariants: exact marginals and cost equal to rho."""
    n, m = result.n, result.m
    row = np.zeros(n, dtype=int)
    col = np.zeros(m, dtype=int)
    crossing = 0
    for i, j, units in result.certificate:
        assert units > 0
        row[i] += units
        col[j] += units
        with np.errstate(over="ignore"):
            if abs(x[i] - y[j]) > eps:
                crossing += units
    assert np.all(row == m)
    assert np.all(col == n)
    assert crossing == n * m - result.matched_units


class TestPinnedExamples:
    def test_identical_samples_any_epsilon(self):
        s = ScoreSample([0.3, 1.7, 2.2])
        for eps in (0.0, 0.5, 10.0):
            assert lp_distance(s, s, eps).rho == 0.0

    def test_half_matchable(self):
        # Oracle: brute force over all 4! permutation matchings.
        p = [0.0, 1.0, 2.0, 3.0]
        q = [0.05, 1.05, 10.0, 11.0]
        assert lp_rho_permutations(p, q, 0.1) == 0.5
        res = lp_distance(ScoreSample(p), ScoreSample(q), 0.1)
        assert res.rho == 0.5
        check_certificate(res, sorted(p), sorted(q), 0.1)

    def test_two_to_one_fully_matchable(self):
        # Oracle: linear optimization over the 2-atom-to-1-atom polytope.
        p, q = [0.0, 1.0], [0.5]
        assert lp_rho_linprog(p, q, 0.6) == pytest.approx(0.0, abs=1e-12)
        res = lp_distance(ScoreSample(p), ScoreSample(q), 0.6)
        assert res.rho == 0.0
        check_certificate(res, p, q, 0.6)

    def test_tv_disjoint_supports(self):
        assert tv_distance(ScoreSample([0.0, 1.0]), ScoreSample([5.0, 6.0])) == 1.0

    def test_tv_identical(self):
        s = ScoreSample([1.0, 2.0, 3.0])
        assert tv_distance(s, s) == 0.0

    def test_tv_partial_overlap(self):
        # Oracle: linear optimization with atom masses 1/3.
        p, q = [0.0, 0.0, 1.0], [0.0, 2.0, 2.0]
        assert lp_rho_linprog(p, q, 0.0) == pytest.approx(2 / 3, abs=1e-12)
        assert tv_distance(ScoreSample(p), ScoreSample(q)) == pytest.approx(2 / 3, abs=1e-15)


class TestWinfWithin:
    def test_uniform_shift_inside(self):
        assert winf_within(ScoreSample([1.0, 2.0]), ScoreSample([1.1, 2.1]), 0.1 + 1e-12)

    def test_sorted_matching_gap_exceeds(self):
        # max sorted gap is 0.2 > 0.1
        assert not winf_within(ScoreSample([1.0, 2.0]), ScoreSample([1.2, 2.0]), 0.1)

    def test_identical_at_zero(self):
        s = ScoreSample([3.0, 1.0])
        assert winf_within(s, s, 0.0)

    def test_unequal_sizes_fallback(self):
        p = ScoreSample([0.0, 1.0])
        q = ScoreSample([0.5])
        assert winf_within(p, q, 0.6)
        assert not winf_within(p, q, 0.4)


class TestLpProfile:
    def test_identical_grid(self):
        s = ScoreSample([1.0, 2.0])
        assert lp_profile(s, s, [0.0, 1.0]) == [(0.0, 0.0), (1.0, 0.0)]

    def test_two_point_grid(self):
        p = ScoreSample([0.0, 1.0, 2.0, 3.0])
        q = ScoreSample([0.05, 1.05, 10.0, 11.0])
        assert lp_profile(p, q, [0.1, 20.0]) == [(0.1, 0.5), (20.0, 0.0)]

    def test_singletons_non_strict_at_boundary(self):
        # |0 - 3| <= eps first holds at eps = 3: the non-strict convention.
        p, q = ScoreSample([0.0]), ScoreSample([3.0])
        assert lp_profile(p, q, [1.0, 2.0, 3.0]) == [(1.0, 1.0), (2.0, 1.0), (3.0, 0.0)]

    def test_rejects_bad_grids(self):
        s = ScoreSample([1.0])
        with pytest.raises(ValueError):
            lp_profile(s, s, [])
        with pytest.raises(ValueError):
            lp_profile(s, s, [0.2, 0.1])
        with pytest.raises(ValueError):
            lp_profile(s, s, [-1.0, 0.5])


class TestSolverAgainstOracles:
    def test_random_instances_vs_linprog(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, m = rng.integers(1, 7, size=2)
            x = rng.uniform(-2, 2, n)
            y = rng.uniform(-2, 2, m)
            eps = rng.uniform(0, 2.5)
            res = lp_distance(ScoreSample(x), ScoreSample(y), eps)
            assert res.rho == pytest.approx(lp_rho_linprog(x, y, eps), abs=1e-12)
            check_certificate(res, np.sort(x), np.sort(y), eps)

    def test_equal_sizes_vs_permutations(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = rng.integers(1, 6)
            x = np.sort(rng.uniform(0, 3, n))
            y = np.sort(rng.uniform(0, 3, n))
            eps = rng.uniform(0, 1.5)
            expected = lp_rho_permutations(x, y, eps)
            assert lp_distance(ScoreSample(x), ScoreSample(y), eps).rho == pytest.approx(
                expected, abs=1e-12
            )

    def test_greedy_agrees_with_flow(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n)
            y = rng.normal(loc=rng.uniform(-1, 1), size=n)
            eps = float(rng.uniform(0, 2))
            res = lp_distance(ScoreSample(x), ScoreSample(y), eps)
            assert res.matched_units == transport_matched_units(x, y, eps)


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n, m = rng.integers(1, 8, size=2)
            p = ScoreSample(rng.normal(size=n))
            q = ScoreSample(rng.normal(size=m))
            eps = float(rng.uniform(0, 2))
            assert lp_distance(p, q, eps).rho == lp_distance(q, p, eps).rho

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(5)
        p = ScoreSample(rng.normal(size=9))
        q = ScoreSample(rng.normal(size=7))
        rhos = [lp_distance(p, q, e).rho for e in np.linspace(0, 3, 12)]
        assert all(a >= b for a, b in zip(rhos, rhos[1:]))

    def test_half_line_necessary_condition(self):
        # If the ball contains q then every half-line obeys the coverage bound.
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = ScoreSample(rng.normal(size=12))
            q = ScoreSample(rng.normal(loc=0.3, size=10))
            eps = float(rng.uniform(0, 1))
            rho = lp_distance(p, q, eps).rho
            for q0 in rng.uniform(-3, 3, 8):
                assert cdf(q, q0) >= cdf(p, q0 - eps) - rho - 1e-12
                assert cdf(p, q0) >= cdf(q, q0 - eps) - rho - 1e-12

    def test_rejects_negative_epsilon(self):
        s = ScoreSample([1.0])
        with pytest.raises(ValueError):
            lp_distance(s, s, -0.1)

    def test_rho_plus_matched_mass_is_one(self):
        res = lp_distance(ScoreSample([0.0, 0.0, 1.0]), ScoreSample([0.0, 2.0, 2.0]), 0.0)
        assert res.matched_mass == 1.0 - res.rho


class TestLPParams:
    def test_validates_fields(self):
        with pytest.raises(ValueError):
            LPParams(-0.1, 0.5)
        with pytest.raises(ValueError):
            LPParams(0.1, 1.5)
        p = LPParams(0.1, 0.5)
        assert (p.epsilon, p.rho) == (0.1, 0.5)


# Atom families for ``instances``. Near 1e15-1e16 the spacing of doubles is
# 0.125 to 2, so gaps and thresholds sit on few representable values; tiny
# atoms opposite huge ones make ``x - y`` overflow or lose the tiny atom.
_MAX_FLOAT = 1.7976931348623157e308
_ATOMS = {
    "lattice": st.integers(0, 6).map(lambda k: k * 0.1),
    "reals": st.floats(-3.0, 3.0, allow_nan=False),
    "large": st.one_of(
        st.floats(1e15, 1e16),
        st.integers(-32, 32).map(lambda k: 1e15 + 0.125 * k),
        st.integers(-32, 32).map(lambda k: 1e16 + 2.0 * k),
    ),
    "extreme": st.sampled_from([
        -_MAX_FLOAT, -1e308, -1e300, -5e-324, 0.0,
        5e-324, 2.2e-308, 1e-300, 1.0, 1e300, 1e308, _MAX_FLOAT,
    ]),
}


@st.composite
def instances(draw, equal_sizes=False, max_size=70):
    """Sample pairs of up to ``max_size`` atoms with a threshold often on a gap's ulp edge.

    The atoms come from one family of ``_ATOMS``: a 0.1-lattice, where
    products such as ``3 * 0.1`` are not the decimal values they print as
    and many atoms tie; reals in [-3, 3]; atoms near 1e15-1e16; or tiny and
    huge atoms together. In half the draws each side repeats a few distinct
    atoms, giving long tie runs.
    """
    n = draw(st.integers(1, max_size))
    m = n if equal_sizes else draw(st.integers(1, max_size).filter(lambda k: k != n))
    atoms = _ATOMS[draw(st.sampled_from(sorted(_ATOMS)))]

    def side(size):
        if draw(st.booleans()):
            # Long tie runs: each byte picks one of at most three atoms.
            pool = draw(st.lists(atoms, min_size=1, max_size=3))
            return [pool[b % len(pool)] for b in draw(st.binary(min_size=size, max_size=size))]
        return draw(st.lists(atoms, min_size=size, max_size=size))

    x, y = side(n), side(m)
    gap = min(abs(draw(st.sampled_from(x)) - draw(st.sampled_from(y))), _MAX_FLOAT)
    eps = draw(st.sampled_from([
        gap,
        max(0.0, float(np.nextafter(gap, -np.inf))),
        float(np.nextafter(gap, np.inf)) if gap < _MAX_FLOAT else gap,
        float(np.nextafter(0.1, 1.0)),
        float(np.nextafter(0.1, -1.0)),
        0.30000000000000004,
        0.0,
        1.0,
        _MAX_FLOAT,
    ]))
    return np.array(x), np.array(y), eps


class TestSweepProperties:
    @settings(max_examples=300, deadline=None)
    @given(instances(max_size=7))
    def test_default_equals_flow_and_linprog(self, inst):
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        res = lp_distance(p, q, eps)
        assert res.matched_units == transport_matched_units(x, y, eps)
        assert res.rho == pytest.approx(lp_rho_linprog(x, y, eps), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_matched_units_equal_max_flow(self, inst):
        x, y, eps = inst
        res = lp_distance(ScoreSample(x), ScoreSample(y), eps)
        assert res.matched_units == transport_matched_units(x, y, eps)

    @settings(max_examples=300, deadline=None)
    @given(instances(max_size=7))
    def test_certificate_unequal_sizes(self, inst):
        x, y, eps = inst
        res = lp_distance(ScoreSample(x), ScoreSample(y), eps)
        check_certificate(res, np.sort(x), np.sort(y), eps)

    @settings(max_examples=300, deadline=None)
    @given(instances(max_size=7))
    def test_symmetric_unequal_sizes(self, inst):
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        assert lp_distance(p, q, eps).rho == lp_distance(q, p, eps).rho

    @settings(max_examples=200, deadline=None)
    @given(instances(equal_sizes=True, max_size=7))
    def test_equal_sizes_certificate_is_a_permutation(self, inst):
        # With n == m every source fills exactly one target whole.
        x, y, eps = inst
        res = lp_distance(ScoreSample(x), ScoreSample(y), eps)
        check_certificate(res, np.sort(x), np.sort(y), eps)
        assert all(units == res.n for _, _, units in res.certificate)
        assert res.matched_units == transport_matched_units(x, y, eps)


class TestExtremeScores:
    def test_no_overflow_warnings(self):
        big = ScoreSample([-1e308, 0.0, 1e308])
        pair = ScoreSample([-1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lp_distance(big, pair, 1.0)
            far = winf_within(pair, ScoreSample([1e308, 1e308]), 1.0)
            near = winf_within(pair, pair, 0.0)
        assert res.rho == pytest.approx(1 / 3, abs=1e-15)
        check_certificate(res, big.scores, pair.scores, 1.0)
        assert not far
        assert near


class TestWinfWithinUnequal:
    def test_agrees_with_flow(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n, m = rng.integers(1, 12, size=2)
            if n == m:
                m += 1
            p = ScoreSample(rng.normal(size=n))
            q = ScoreSample(rng.normal(loc=rng.uniform(-0.5, 0.5), size=m))
            eps = float(rng.uniform(0, 3))
            matched = transport_matched_units(p.scores, q.scores, eps)
            assert winf_within(p, q, eps) == (matched == n * m)

    def test_large_unequal_sizes(self):
        rng = np.random.default_rng(23)
        n, m = 1500, 1600
        x = np.sort(rng.uniform(0, 1, n))
        y = np.sort(rng.uniform(0, 1, m))
        # The monotone coupling attains the sup-norm distance; its pairs of
        # order statistics change only at levels k / (n*m) with k a multiple
        # of n or m.
        k = np.union1d(np.arange(m, n * m + 1, m), np.arange(n, n * m + 1, n))
        gap = float(np.max(np.abs(x[(k - 1) // m] - y[(k - 1) // n])))
        p, q = ScoreSample(x), ScoreSample(y)
        assert winf_within(p, q, gap)
        assert not winf_within(p, q, float(np.nextafter(gap, 0.0)))


class TestProfileMonotone:
    @settings(max_examples=200, deadline=None)
    @given(instances(max_size=7),
           st.lists(st.floats(0.0, 7.0), min_size=2, max_size=8, unique=True))
    def test_rho_nonincreasing_in_epsilon(self, inst, extra):
        # A wider radius admits every edge a narrower one did.
        x, y, eps = inst
        grid = sorted(set(extra) | {eps})
        rhos = [rho for _, rho in lp_profile(ScoreSample(x), ScoreSample(y), grid)]
        assert all(b <= a for a, b in zip(rhos, rhos[1:]))


class TestProfileMatchesDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(instances(), instances(equal_sizes=True)),
           st.lists(st.one_of(st.floats(0.0, 7.0), st.floats(0.0, 1e16)),
                    min_size=1, max_size=8, unique=True),
           st.integers(1, 300))
    def test_rho_bit_equal_per_epsilon(self, inst, extra, block_cells):
        # Small blocks split the grid over several kernel calls.
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        grid = sorted(set(extra) | {eps})
        with mock.patch.object(lp_metric, "_BLOCK_CELLS", block_cells):
            profile = lp_profile(p, q, grid)
        assert profile == [(e, lp_distance(p, q, e).rho) for e in grid]


class TestSizeLimit:
    def test_unit_counts_must_fit_int64(self):
        # Only the sizes are read before the check.
        p = SimpleNamespace(n=2**31, scores=None)
        q = SimpleNamespace(n=2**31, scores=None)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            lp_distance(p, q, 0.1)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            lp_profile(p, q, [0.0, 0.1])


def eager_sweep_plan(x, y, eps):
    """The sorted sweep with every fill recorded, as the solver once built it."""
    n, m = len(x), len(y)
    x = x + [float("inf")]
    plan = []
    i = 0
    xi = x[0]
    left = m
    for j, yj in enumerate(y):
        while xi < yj and abs(xi - yj) > eps:
            i += 1
            xi = x[i]
            left = m
        demand = n
        while demand and abs(xi - yj) <= eps:
            units = left if left < demand else demand
            plan.append((i, j, units))
            demand -= units
            left -= units
            if not left:
                i += 1
                xi = x[i]
                left = m
    return plan


def eager_complete(n, m, plan):
    """Leftover supply paired with leftover demand in index order, then sorted."""
    supply = [m] * n
    demand = [n] * m
    for i, j, units in plan:
        supply[i] -= units
        demand[j] -= units
    full = list(plan)
    i = j = 0
    while i < n and j < m:
        if supply[i] == 0:
            i += 1
        elif demand[j] == 0:
            j += 1
        else:
            units = min(supply[i], demand[j])
            full.append((i, j, units))
            supply[i] -= units
            demand[j] -= units
    return tuple(sorted(full))


class TestLazyCertificate:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(instances(), instances(equal_sizes=True)))
    def test_equals_eager_construction(self, inst):
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        n, m = p.n, q.n
        sweep = eager_sweep_plan(p.scores.tolist(), q.scores.tolist(), float(eps))
        assert lp_distance(p, q, eps).certificate == eager_complete(n, m, sweep)

    def test_second_access_returns_the_same_object(self):
        res = lp_distance(ScoreSample([0.0, 1.0, 2.0]), ScoreSample([0.5, 3.0]), 0.6)
        assert res.certificate is res.certificate

    def test_pickle_round_trip_before_and_after_access(self):
        p = ScoreSample([0.0, 0.1, 0.2, 0.7])
        q = ScoreSample([0.05, 0.3, 0.9])
        expected = lp_distance(p, q, 0.1).certificate
        res = lp_distance(p, q, 0.1)
        fresh = pickle.loads(pickle.dumps(res))
        assert fresh == res
        assert fresh.certificate == expected
        assert res.certificate == expected
        read = pickle.loads(pickle.dumps(res))
        assert "certificate" in read.__dict__
        assert read == res
        assert read.certificate == expected

    def test_not_in_repr_or_equality(self):
        p, q = ScoreSample([0.0, 1.0, 2.0]), ScoreSample([1.0, 2.0, 3.0])
        a, b = lp_distance(p, q, 0.0), lp_distance(q, p, 0.0)
        assert a.certificate != b.certificate
        assert a == b
        assert "certificate" not in repr(a)

    def test_rho_only_callers_build_no_certificate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("certificate built")

        monkeypatch.setattr(lp_metric, "_complete_plan", refuse)
        rng = np.random.default_rng(29)
        calib_a = ScoreSample(rng.normal(size=300))
        calib_b = ScoreSample(rng.normal(size=300))
        test = ScoreSample(rng.normal(0.2, 1.0, size=250))
        estimate_lp_params(calib_a, calib_b, test, [0.05, 0.1, 0.2], 0.1)
        lp_profile(calib_a, test, [0.0, 0.1])
        tv_distance(calib_a, test)
        winf_within(calib_a, test, 5.0)
        res = lp_distance(calib_a, test, 0.1)
        with pytest.raises(AssertionError, match="certificate built"):
            res.certificate


class TestRoundedBoundCorrection:
    def test_every_rounded_guess_wrong_at_scale(self):
        # y - eps rounds to 2**-52, above every x, so the searchsorted guess
        # puts all 20 000 sources too far left of every target; but each exact
        # y - x rounds to 1.0 <= eps, so every edge is admissible. Stepping the
        # guesses one source at a time would take n passes here.
        n = 20_000
        x = np.linspace(1.15e-16, 2.2e-16, n)
        y = np.full(n, np.nextafter(1.0, 2.0))
        p, q = ScoreSample(x), ScoreSample(y)
        res = lp_distance(p, q, 1.0)
        plan = eager_sweep_plan(p.scores.tolist(), q.scores.tolist(), 1.0)
        assert res.matched_units == sum(units for _, _, units in plan) == n * n
        assert res.certificate == eager_complete(n, n, plan)
