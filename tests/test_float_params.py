"""A parameter given as a float32 gives exactly the results of its double.

Every ``core`` check returns the float it accepted, and every rule computes
with that float: the order statistic, its level and its coverage bound are
those of the double, and every float in a result is a Python ``float``.
"""

import dataclasses
import math

import numpy as np
import pytest

from lpconformal import LPParams, ScoreSample, adjusted_beta, coverage_lower_bound
from lpconformal import worst_case_coverage
from lpconformal.baselines import chi2_rule, fg_rule, rscp_rule
from lpconformal.core import QuantileRule, conformal_rule, quantile_index
from lpconformal.robust import lp_rule, robust_rule

SIZES = range(1, 401)
ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.3)
# Parameters of every rule, besides alpha: ball radii, chi-square radius, smoothing.
RHO, EPSILON, SIGMA, TEST_WEIGHT = 0.05, 0.1, 0.3, 1.5

CALLS = {
    "conformal_rule": lambda n, a, f: conformal_rule(n, f(a)),
    "quantile_index": lambda n, a, f: quantile_index(n, f(1.0 - a)),
    "lp_rule": lambda n, a, f: lp_rule(n, f(a), LPParams(f(EPSILON), f(RHO))),
    "robust_rule": lambda n, a, f: robust_rule(n, f(a), LPParams(f(EPSILON), f(RHO))),
    "coverage_lower_bound": lambda n, a, f: coverage_lower_bound(n, f(a), f(RHO)),
    "adjusted_beta": lambda n, a, f: adjusted_beta(n, f(a), f(RHO)),
    "chi2_rule": lambda n, a, f: chi2_rule(n, f(a), f(RHO)),
    "rscp_rule": lambda n, a, f: rscp_rule(n, f(a), f(EPSILON), f(SIGMA)),
    "fg_rule": lambda n, a, f: fg_rule(n, f(a), f(RHO), f(TEST_WEIGHT)),
    "worst_case_coverage": lambda n, a, f: worst_case_coverage(
        ScoreSample(np.arange(n) / n), f(1.0 - a), LPParams(f(EPSILON), f(RHO))),
}


def _double(value: float) -> float:
    """The double of ``value``'s float32."""
    return float(np.float32(value))


def _outcome(call, n, alpha, number):
    try:
        return call(n, alpha, number)
    except ValueError as exc:
        return type(exc), str(exc)


def _floats(result) -> list:
    """Every value of ``result`` that a float field may hold: not an int, None or error."""
    values = ([getattr(result, f.name) for f in dataclasses.fields(result)]
              if isinstance(result, QuantileRule) else [result])
    return [v for v in values if v is not None and not isinstance(v, (int, tuple))]


@pytest.mark.parametrize("name", CALLS)
def test_float32_parameters_give_their_doubles_results(name):
    call = CALLS[name]
    for n in SIZES:
        for alpha in ALPHAS:
            single = _outcome(call, n, alpha, np.float32)
            double = _outcome(call, n, alpha, _double)
            assert repr(single) == repr(double), (n, alpha)
            assert all(type(v) is float for v in _floats(single)), (n, alpha, single)


@pytest.mark.parametrize("n, index", [(7, None), (11, 11)])
def test_lp_rule_reads_the_double_of_a_float32_rho(n, index):
    # As float32 the level 1 - beta + rho fell on the other side of an order
    # statistic: n = 7 was bounded at index 7 and n = 11 sat at index 10.
    rule = lp_rule(n, 0.3, LPParams(0.1, np.float32(0.05)))
    assert rule == lp_rule(n, 0.3, LPParams(0.1, _double(0.05)))
    assert rule.index == index
    assert type(rule.level_used) is float and type(rule.coverage_bound) is float
    assert math.isfinite(rule.coverage_bound)
