"""Tests for the exact threshold-cost transport distance.

Three independent oracles back the solver: exhaustive search over
permutation couplings for equal sizes, linear programming over the
integer-scaled transport polytope for small cases, and the scipy max-flow
oracle of ``oracles.py`` on the same integer scaling for larger ones.
"""

import contextlib
import itertools
import os
import pickle
import threading
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lpconformal import (
    ScoreSample,
    TransportResult,
    cdf,
    lp_distance,
    lp_profile,
    tv_distance,
    winf_distance,
    winf_within,
)
from lpconformal import lp_metric
from lpconformal.lp_metric import LPParams

from oracles import (
    certificate,
    eager_complete,
    greedy_fill,
    sorted_gap_within,
    sup_norm_distance,
    transport_matched_units,
)


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
    """The coupling cut from the kernel's fill between the sorted samples
    ``x`` and ``y``: exact marginals and cost equal to ``result.rho``.
    Returns the coupling."""
    n, m = result.n, result.m
    plan = certificate(ScoreSample(x), ScoreSample(y), eps)
    row = np.zeros(n, dtype=int)
    col = np.zeros(m, dtype=int)
    crossing = 0
    for i, j, units in plan:
        assert units > 0
        row[i] += units
        col[j] += units
        with np.errstate(over="ignore"):
            if abs(x[i] - y[j]) > eps:
                crossing += units
    assert np.all(row == m)
    assert np.all(col == n)
    assert crossing == n * m - result.matched_units
    return plan


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
        # Not read character by character, row by row or entry by entry.
        for grid in ("01", b"01", np.zeros((2, 2)), [[0.1], [0.2, 0.3]], ["0.1"],
                     (e for e in [0.1]), np.float64(0.5), [1 + 2j], [10**400]):
            with pytest.raises(ValueError, match="^epsilon grid must be a one-dimensional "
                                                 "sequence of numbers$"):
                lp_profile(s, s, grid)
        assert lp_profile(s, s, np.array([0.0, 1.0])) == lp_profile(s, s, range(2))


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
    huge atoms together. In half the draws each side repeats one to three
    distinct atoms, giving long tie runs.

    Hypothesis's mutator copies one span over another span with the same
    label. A copy that changed a size would leave the example short of
    choices, and hypothesis would count it invalid. So each draw that sets
    how many choices follow is a ``sampled_from`` whose label no other span
    shares, and each atom is a draw of its own, not a list element.
    """
    n = draw(st.sampled_from(range(1, max_size + 1)))
    m = n if equal_sizes else draw(st.sampled_from([k for k in range(1, max_size + 1) if k != n]))
    atoms = _ATOMS[draw(st.sampled_from(sorted(_ATOMS)))]
    # Each side's pool size: 0, half the time, draws its atoms freely; 1-3 repeats that many.
    pools = draw(st.sampled_from([(a, b) for a in (0, 0, 0, 1, 2, 3) for b in (0, 0, 0, 1, 2, 3)]))

    def side(size, pool_size):
        if pool_size:
            # Long tie runs: each byte picks one of the pool's atoms.
            pool = [draw(atoms) for _ in range(pool_size)]
            return [pool[b % pool_size] for b in draw(st.binary(min_size=size, max_size=size))]
        return [draw(atoms) for _ in range(size)]

    x, y = side(n, pools[0]), side(m, pools[1])
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
        plan = check_certificate(res, np.sort(x), np.sort(y), eps)
        assert all(units == res.n for _, _, units in plan)
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


class TestWinfWithinEqual:
    @settings(max_examples=300, deadline=None)
    @given(instances(equal_sizes=True))
    # Gaps that overflow to inf, and a gap of exactly the largest double.
    @example((np.array([-_MAX_FLOAT, -_MAX_FLOAT]), np.array([_MAX_FLOAT, 0.0]), _MAX_FLOAT))
    @example((np.array([-1.7e308, 1.7e308]), np.array([1.7e308, 1.7e308]), 1.0))
    @example((np.array([-_MAX_FLOAT, 0.0]), np.array([0.0, _MAX_FLOAT]), _MAX_FLOAT))
    @example((np.array([0.1]), np.array([0.3]), 0.19999999999999996))  # an ulp below 0.3 - 0.1
    def test_equals_order_statistic_test(self, inst):
        x, y, eps = inst
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = winf_within(ScoreSample(x), ScoreSample(y), eps)
        assert got == sorted_gap_within(x, y, eps)


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
        gap = sup_norm_distance(x, y)
        p, q = ScoreSample(x), ScoreSample(y)
        assert winf_within(p, q, gap)
        assert not winf_within(p, q, float(np.nextafter(gap, 0.0)))


@st.composite
def distinct_floats(draw, sizes, elements):
    """Distinct floats, ascending: a count from ``sizes``, then each element its own draw.

    As in ``instances``, the count is a ``sampled_from`` whose label no other
    span shares, so hypothesis's span mutator cannot run the example out of
    choices. A tie is nudged one ulp past the value before it, except at the
    largest double, which has none past it: that tie is dropped, so the list
    can be shorter than its drawn count, but is never empty.
    """
    out = []
    for value in sorted(draw(elements) for _ in range(draw(st.sampled_from(sizes)))):
        if out and value <= out[-1]:
            if out[-1] == _MAX_FLOAT:
                continue
            value = float(np.nextafter(out[-1], np.inf))
        out.append(value)
    return out


@settings(max_examples=20)
@given(distinct_floats(range(1, 9), st.just(_MAX_FLOAT)))
def test_distinct_floats_drops_a_tie_at_the_largest_double(values):
    # Nudged, the tie would overflow to inf, with a warning.
    assert values == [_MAX_FLOAT]


class TestProfileMonotone:
    @settings(max_examples=200, deadline=None)
    @given(instances(max_size=7), distinct_floats(range(2, 9), st.floats(0.0, 7.0)))
    def test_rho_nonincreasing_in_epsilon(self, inst, extra):
        # A wider radius admits every edge a narrower one did.
        x, y, eps = inst
        grid = sorted(set(extra) | {eps})
        rhos = [rho for _, rho in lp_profile(ScoreSample(x), ScoreSample(y), grid)]
        assert all(b <= a for a, b in zip(rhos, rhos[1:]))


class TestProfileMatchesDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(instances(), instances(equal_sizes=True)),
           distinct_floats(range(1, 9), st.one_of(st.floats(0.0, 7.0), st.floats(0.0, 1e16))),
           st.integers(1, 300))
    def test_rho_bit_equal_per_epsilon(self, inst, extra, block_cells):
        # Small blocks split the grid over several kernel calls.
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        grid = sorted(set(extra) | {eps})
        with mock.patch.object(lp_metric, "_BLOCK_CELLS", block_cells):
            profile = lp_profile(p, q, grid)
        assert profile == [(e, lp_distance(p, q, e).rho) for e in grid]


# Sample sizes 1-30 and grid point counts 0-6 below and past the distance.
_GRID_COUNTS = st.sampled_from(
    list(itertools.product(range(1, 31), range(1, 31), range(7), range(7))))


@st.composite
def stopping_grids(draw):
    """Sorted samples and a grid split at their sup-norm distance ``gap``.

    Returns ``(x, y, below, above)``: ``below`` holds grid points under
    ``gap`` and ``above`` those at or past it, each ascending. Every count is
    one draw from ``_GRID_COUNTS``, and each atom and point is a draw of its
    own, as in ``instances``.
    """
    atoms = st.one_of(st.floats(-3.0, 3.0), st.integers(0, 6).map(lambda k: k * 0.1))
    n, m, n_below, n_above = draw(_GRID_COUNTS)
    x = np.sort(np.array([draw(atoms) for _ in range(n)]))
    y = np.sort(np.array([draw(atoms) for _ in range(m)]))
    gap = sup_norm_distance(x, y)
    below = set()
    if gap > 0.0:
        below = {draw(st.floats(0.0, gap, exclude_max=True)) for _ in range(n_below)}
        if draw(st.booleans()):
            below.add(float(np.nextafter(gap, 0.0)))
    above = {draw(st.floats(gap, 10.0)) for _ in range(n_above)}
    if draw(st.booleans()) or not (below or above):
        above.add(gap)
    return x, y, sorted(below), sorted(above)


def kernel_units(x, y, eps):
    """Matched units from one direct run of the transport kernel at ``eps``."""
    start, end = lp_metric._fills(np.sort(x), np.sort(y), np.array([float(eps)]))
    return int((end - start).sum())


@contextlib.contextmanager
def kernel_calls():
    """Counts the transport kernel's calls; each call's ``args[2]`` is its block of thresholds."""
    with mock.patch.object(lp_metric, "_fills", wraps=lp_metric._fills) as fills:
        yield fills


def counted_profile(p, q, grid, rows):
    """``lp_profile`` in blocks of ``rows`` thresholds, and the blocks the kernel ran.

    The shorter sample is the kernel's targets, so a block of ``rows``
    thresholds holds ``rows`` times its size of cells.
    """
    cells = rows * min(p.n, q.n)
    with mock.patch.object(lp_metric, "_BLOCK_CELLS", cells), kernel_calls() as fills:
        profile = lp_profile(p, q, grid)
    return profile, [call.args[2].tolist() for call in fills.call_args_list]


def kernel_profile(x, y, grid):
    """``(epsilon, rho)`` at every grid point, each from its own kernel run."""
    units = len(x) * len(y)
    return [(e, (units - kernel_units(x, y, e)) / units) for e in grid]


class TestProfileStop:
    """The kernel runs on exactly the grid points below the sup-norm distance."""

    @settings(max_examples=200, deadline=None)
    @given(stopping_grids())
    def test_kernel_runs_only_below_the_sup_norm_distance(self, case):
        x, y, below, above = case
        profile, blocks = counted_profile(ScoreSample(x), ScoreSample(y), below + above, rows=1)
        assert blocks == [[e] for e in below]
        assert all(rho > 0.0 for _, rho in profile[:len(below)])
        assert all(rho == 0.0 for _, rho in profile[len(below):])
        assert profile == kernel_profile(x, y, below + above)

    def test_never_fully_matched_runs_every_point(self):
        p, q = ScoreSample([0.0, 1.0, 2.0]), ScoreSample([0.5, 1.5, 5.0, 5.5])
        grid = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
        assert sup_norm_distance(p.scores, q.scores) == 4.0
        profile, blocks = counted_profile(p, q, grid, rows=1)
        assert blocks == [[e] for e in grid]
        assert all(rho > 0.0 for _, rho in profile)

    @settings(max_examples=200, deadline=None)
    @given(stopping_grids(), st.integers(2, 5))
    def test_blocks_hold_only_the_points_below_it(self, case, rows):
        # ceil(k / rows) blocks; the last one may be short.
        x, y, below, above = case
        profile, blocks = counted_profile(ScoreSample(x), ScoreSample(y), below + above, rows)
        assert blocks == [below[i:i + rows] for i in range(0, len(below), rows)]
        assert profile == kernel_profile(x, y, below + above)

    def test_no_kernel_call_when_the_grid_starts_at_the_distance(self):
        p, q = ScoreSample([0.0, 0.25, 1.0]), ScoreSample([0.25, 0.5, 1.25])
        assert winf_distance(p, q) == 0.25
        profile, blocks = counted_profile(p, q, [0.25, 0.5], rows=1)
        assert blocks == [] and profile == [(0.25, 0.0), (0.5, 0.0)]
        with kernel_calls() as fills:
            assert tv_distance(p, p) == 0.0
        assert fills.call_count == 0

    @settings(max_examples=100, deadline=None)
    @given(stopping_grids())
    def test_distance_at_or_past_it_skips_the_kernel(self, case):
        x, y, _, above = case
        p, q = ScoreSample(x), ScoreSample(y)
        n, m = len(x), len(y)
        for e in above:
            with kernel_calls() as fills:
                res = lp_distance(p, q, e)
            assert fills.call_count == 0
            rho = (n * m - kernel_units(x, y, e)) / (n * m)
            assert res == TransportResult(rho, 1.0 - rho, n, m, n * m)
            assert res.rho == 0.0


# Both sizes of a winf_samples pair; the first half repeats the equal pairs.
_WINF_SIZES = st.sampled_from([(n, n) for n in range(1, 41) for _ in range(40)]
                              + list(itertools.product(range(1, 41), repeat=2)))


@st.composite
def winf_samples(draw):
    """Two samples of 1-40 atoms: normal, on a 0.1 lattice, or within 3 ulps of one value.

    Half the draws have equal sizes.
    """
    family = draw(st.sampled_from(["normal", "lattice", "ulps"]))
    base = draw(st.floats(-3.0, 3.0))
    sizes = draw(_WINF_SIZES)

    def side(size):
        if family == "normal":
            return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=size)
        step = st.integers(-3, 3) if family == "ulps" else st.integers(0, 6)
        steps = np.array([draw(step) for _ in range(size)])
        return base + steps * np.spacing(base) if family == "ulps" else steps * 0.1

    return side(sizes[0]), side(sizes[1])


@st.composite
def far_apart(draw):
    """1-10 atoms at most -1.6e308 and 1-10 at least 1.6e308; both sizes are one draw."""
    n, m = draw(st.sampled_from(list(itertools.product(range(1, 11), repeat=2))))
    return ([draw(st.floats(-_MAX_FLOAT, -1.6e308)) for _ in range(n)],
            [draw(st.floats(1.6e308, _MAX_FLOAT)) for _ in range(m)])


class TestWinfDistance:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(winf_samples(), instances().map(lambda inst: inst[:2])))
    def test_equals_the_oracle_and_is_symmetric(self, xy):
        x, y = xy
        p, q = ScoreSample(x), ScoreSample(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = winf_distance(p, q)
            assert winf_distance(q, p) == got
        assert got == sup_norm_distance(x, y)

    @settings(max_examples=100, deadline=None)
    @given(far_apart())
    def test_gap_past_the_largest_double_is_inf(self, sides):
        low, high = sides
        p, q = ScoreSample(low), ScoreSample(high)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert winf_distance(p, q) == winf_distance(q, p) == np.inf
            assert not winf_within(p, q, _MAX_FLOAT)

    @settings(max_examples=200, deadline=None)
    @given(winf_samples())
    def test_within_equals_a_full_kernel_match(self, xy):
        # At the distance, its float neighbours and half of it.
        x, y = xy
        p, q = ScoreSample(x), ScoreSample(y)
        units = len(x) * len(y)
        gap = winf_distance(p, q)
        for e in (gap, float(np.nextafter(gap, np.inf)), max(0.0, float(np.nextafter(gap, 0.0))),
                  gap / 2):
            full = kernel_units(x, y, e) == units
            assert winf_within(p, q, e) == full == (transport_matched_units(x, y, e) == units)
            assert full == (e >= gap)

    def test_within_makes_no_kernel_call(self):
        rng = np.random.default_rng(29)
        pairs = [(ScoreSample(rng.normal(size=n)), ScoreSample(rng.normal(size=m)))
                 for n, m in [(1, 1), (5, 5), (7, 3), (200, 300)]]
        with kernel_calls() as fills:
            answers = [winf_within(p, q, e) for p, q in pairs for e in (0.0, 0.3, 10.0)]
        assert fills.call_count == 0
        assert answers == [winf_distance(p, q) <= e for p, q in pairs for e in (0.0, 0.3, 10.0)]


@contextlib.contextmanager
def usable_cpus(count):
    """The transport kernel run as in a process that may use ``count`` CPUs."""
    with mock.patch.object(lp_metric, "usable_cpus", return_value=count):
        yield


@contextlib.contextmanager
def thread_starts():
    """Counts the threads started inside the block."""
    with mock.patch.object(threading.Thread, "start", autospec=True,
                           side_effect=threading.Thread.start) as start:
        yield start


class TestHelperThread:
    """Two or more blocks on two or more CPUs search the upper ends on one helper thread."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(instances(), instances(equal_sizes=True),
                     far_apart().map(lambda xy: (np.array(xy[0]), np.array(xy[1]), _MAX_FLOAT))),
           distinct_floats(range(1, 9), st.one_of(st.floats(0.0, 7.0), st.floats(0.0, 1e16),
                                                  st.floats(0.0, _MAX_FLOAT))),
           st.integers(1, 3))
    def test_both_paths_equal_the_per_point_kernel(self, inst, extra, rows):
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        grid = sorted(set(extra) | {eps})
        below = sum(e < sup_norm_distance(x, y) for e in grid)
        profiles = []
        with mock.patch.object(lp_metric, "_BLOCK_CELLS", rows * min(len(x), len(y))):
            for cpus in (2, 1):
                with usable_cpus(cpus), thread_starts() as starts, warnings.catch_warnings():
                    warnings.simplefilter("error")
                    profiles.append(lp_profile(p, q, grid))
                assert starts.call_count == (cpus == 2 and below > rows)
        assert profiles[0] == profiles[1] == kernel_profile(x, y, grid)

    @staticmethod
    def five_blocks():
        """Samples and a grid of five points below their sup-norm distance, one block each."""
        rng = np.random.default_rng(31)
        p, q = ScoreSample(rng.normal(size=50)), ScoreSample(rng.normal(size=60))
        assert winf_distance(p, q) > 0.5
        return p, q, [0.0, 0.1, 0.2, 0.3, 0.4], mock.patch.object(lp_metric, "_BLOCK_CELLS", 50)

    def test_one_thread_for_the_call_and_none_after_it(self):
        p, q, grid, one_row_blocks = self.five_blocks()
        before = threading.active_count()
        with one_row_blocks, usable_cpus(2), thread_starts() as starts, kernel_calls() as fills:
            profile = lp_profile(p, q, grid)
        assert starts.call_count == 1 and fills.call_count == 5
        assert threading.active_count() == before
        assert profile == [(e, lp_distance(p, q, e).rho) for e in grid]

    def test_serial_runs_start_no_thread(self):
        # One CPU, and a one-block grid or a single threshold on two.
        p, q, grid, one_row_blocks = self.five_blocks()
        with thread_starts() as starts:
            with one_row_blocks, usable_cpus(1):
                serial = lp_profile(p, q, grid)
            with usable_cpus(2):
                one_block = lp_profile(p, q, grid)
                single = [(e, lp_distance(p, q, e).rho) for e in grid]
        assert starts.call_count == 0
        assert serial == one_block == single

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_the_process_affinity_decides(self):
        # Unpatched, so a run pinned to one CPU (taskset -c 0) checks the serial path for real.
        p, q, grid, one_row_blocks = self.five_blocks()
        with one_row_blocks, thread_starts() as starts:
            profile = lp_profile(p, q, grid)
        assert starts.call_count == (len(os.sched_getaffinity(0)) >= 2)
        assert profile == [(e, lp_distance(p, q, e).rho) for e in grid]

    @pytest.mark.parametrize("failing", ["right", "left"], ids=["helper", "caller"])
    def test_search_error_reaches_the_caller(self, failing):
        # The upper ends' search (side="right") runs on the helper thread.
        p, q, grid, one_row_blocks = self.five_blocks()
        searchsorted = np.searchsorted
        threads = {"left": set(), "right": set()}

        def search(a, v, side="left", sorter=None):
            threads[side].add(threading.get_ident())
            if side == failing:
                raise ArithmeticError(f"{side} search failed")
            return searchsorted(a, v, side=side, sorter=sorter)

        before = threading.active_count()
        with one_row_blocks, usable_cpus(2), mock.patch.object(np, "searchsorted", search):
            with pytest.raises(ArithmeticError, match=f"^{failing} search failed$"):
                lp_profile(p, q, grid)
        assert threading.active_count() == before
        assert threads["left"] == {threading.get_ident()}
        assert len(threads["right"]) == 1 and threads["right"] != threads["left"]


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


class TestCertificate:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(instances(), instances(equal_sizes=True)))
    def test_equals_eager_construction(self, inst):
        x, y, eps = inst
        p, q = ScoreSample(x), ScoreSample(y)
        n, m = p.n, q.n
        sweep = eager_sweep_plan(p.scores.tolist(), q.scores.tolist(), float(eps))
        assert certificate(p, q, eps) == eager_complete(n, m, sweep)


class TestTransportResult:
    def test_pickle_round_trip(self):
        res = lp_distance(ScoreSample([0.0, 0.1, 0.2, 0.7]), ScoreSample([0.05, 0.3, 0.9]), 0.1)
        assert pickle.loads(pickle.dumps(res)) == res

    def test_equal_with_the_samples_swapped(self):
        p, q = ScoreSample([0.0, 1.0, 2.0]), ScoreSample([1.0, 2.0, 3.0])
        assert lp_distance(p, q, 0.0) == lp_distance(q, p, 0.0)


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
        assert certificate(p, q, 1.0) == eager_complete(n, n, plan)


class TestKernelWidths:
    """The kernel against the plain-Python greedy fill of ``oracles.greedy_fill``."""

    @pytest.mark.parametrize("m, dtype", [(32_766, np.int32), (32_768, np.int64)])
    def test_both_integer_widths_match_the_python_greedy(self, m, dtype):
        # With n = 65 536, n*m + n is 2 147 418 112 at m = 32 766, below 2**31,
        # and 2**31 + 65 536 at m = 32 768, where the last fill ends at
        # n*m = 2**31, past int32. Scores on a 0.01 grid put many gaps at or
        # next to each threshold.
        n = 65_536
        rng = np.random.default_rng(30)
        x = np.sort(np.round(rng.normal(size=n), 2))
        y = np.sort(np.round(1.1 * rng.normal(size=m), 2))
        eps = np.array([0.0, 0.01, 0.1])
        start, end = lp_metric._fills(x, y, eps)
        assert start.dtype == end.dtype == dtype
        for r, e in enumerate(eps):
            assert (start[r].tolist(), end[r].tolist()) == greedy_fill(x, y, e)

    @pytest.mark.parametrize("x, y, eps, guesses", [
        # Every guess is right, at 0 for the first target and at n for the last.
        ([0.0, 1.0, 2.0], [-5.0, 10.0], 0.5, None),
        # y - eps rounds above x, but y - x == eps: lo is guessed n and is 0.
        ([0.1], [1.1], 1.0, (1, 1)),
        # y - eps rounds to x[0], but y - x[0] > eps: lo is guessed 0 and is 1.
        ([1.0999999999999999, 1.1, 1.1], [1.4], 0.3, (0, 3)),
        # y + eps rounds to x[1], but x[1] - y > eps: hi is guessed n and is 1.
        ([0.2999999999999999, 0.30000000000000004], [0.1], 0.2, (0, 2)),
        # y + eps rounds below x, but x - y <= eps: hi is guessed 0 and is 1.
        ([0.9], [0.2], 0.7, (0, 0)),
    ], ids=["right-at-0-and-n", "lo-guessed-n", "lo-guessed-0", "hi-guessed-n", "hi-guessed-0"])
    def test_guesses_at_the_ends(self, x, y, eps, guesses):
        x, y = np.array(x), np.array(y)
        if guesses is not None:
            # The (lo, hi) guesses, one of them at 0 or n and wrong.
            rounded = (int(np.searchsorted(x, y[0] - eps, side="left")),
                       int(np.searchsorted(x, y[0] + eps, side="right")))
            exact = (int(np.sum(y[0] - x > eps)), int(np.sum(x - y[0] <= eps)))
            assert rounded == guesses != exact
        start, end = lp_metric._fills(x, y, np.array([eps]))
        assert (start[0].tolist(), end[0].tolist()) == greedy_fill(x, y, eps)

    @pytest.mark.parametrize("x, y", [([-1.7e308], [1.7e308]), ([1.7e308], [-1.7e308]),
                                      ([-1.7e308, 1.7e308], [-1.7e308, 0.0, 1.7e308])])
    def test_differences_past_the_largest_double(self, x, y):
        # A gap that overflows is inf: above every eps, and with no warning.
        eps = np.array([0.0, 1.0, 1e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start, end = lp_metric._fills(np.array(x), np.array(y), eps)
        for r, e in enumerate(eps):
            assert (start[r].tolist(), end[r].tolist()) == greedy_fill(x, y, e)

    def test_ties_at_eps_are_admissible(self):
        # y - x == 0.25 for (0.0, 0.25) and (0.5, 0.75); x - y == 0.25 for
        # (0.5, 0.25) and (1.0, 0.75). Every difference here is exact.
        x, y = np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.25, 0.75])
        start, end = lp_metric._fills(x, y, np.array([0.25]))
        assert (start[0].tolist(), end[0].tolist()) == greedy_fill(x, y, 0.25)
        assert int((end - start).sum()) == transport_matched_units(x, y, 0.25) == 8


class TestOrientation:
    """The shorter sample is the kernel's targets; the other orientation is checked directly."""

    @settings(max_examples=200, deadline=None)
    @given(instances(max_size=20))
    def test_more_targets_than_sources_matches_both_oracles(self, inst):
        # lp_distance and lp_profile never run the kernel this way round.
        x, y, eps = inst
        x, y = sorted((np.sort(x), np.sort(y)), key=len)
        start, end = lp_metric._fills(x, y, np.array([eps]))
        assert (start[0].tolist(), end[0].tolist()) == greedy_fill(x, y, eps)
        assert int((end - start).sum()) == transport_matched_units(x, y, eps)

    @pytest.mark.parametrize("n, m", [(3, 7), (7, 3), (5, 5)])
    def test_shorter_sample_is_the_targets(self, n, m):
        rng = np.random.default_rng(31)
        p, q = ScoreSample(rng.normal(size=n)), ScoreSample(rng.normal(size=m))
        with kernel_calls() as fills:
            res = lp_distance(p, q, 0.0)
        ((x, y, _),) = [call.args for call in fills.call_args_list]
        assert (x.size, y.size) == (max(n, m), min(n, m))
        swapped = lp_distance(q, p, 0.0)
        assert (res.n, res.m, swapped.n, swapped.m) == (n, m, m, n)
        assert (res.rho, res.matched_units) == (swapped.rho, swapped.matched_units)
