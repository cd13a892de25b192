"""Comparison thresholds: chi-square robust, smoothing-based, and fine-grained weighted."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    LEVEL_REL_TOL,
    QuantileRule,
    ScoreSample,
    ThresholdResult,
    check_alpha,
    check_calibration_size,
    check_finite_nonnegative,
    check_finite_positive,
    check_probability,
    level_at_most_one,
)

__all__ = [
    "WeightedScores",
    "chi2_g",
    "chi2_g_inv",
    "chi2_rule",
    "chi2_threshold",
    "check_weights",
    "fg_rule",
    "fg_threshold",
    "rscp_rule",
    "rscp_threshold",
    "weight_total",
]


@dataclass(frozen=True, eq=False)
class WeightedScores:
    """Calibration scores with unnormalized likelihood-ratio weights.

    ``test_weight`` is the weight of the (unseen) test point; it funds the
    point mass at infinity in the weighted empirical distribution.
    """

    scores: np.ndarray
    weights: np.ndarray
    test_weight: float

    def __init__(self, scores, weights, test_weight: float) -> None:
        s = np.asarray(scores, dtype=float)
        w = np.asarray(weights, dtype=float)
        if s.ndim != 1 or w.ndim != 1:
            raise ValueError("scores and weights must be one-dimensional")
        if s.size != w.size:
            raise ValueError(f"length mismatch: {s.size} scores vs {w.size} weights")
        if s.size == 0:
            raise ValueError("need at least one weighted score")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        check_weights(w)
        tw = check_finite_positive(test_weight, "test weight")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "test_weight", tw)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    def by_score(self) -> tuple[np.ndarray, np.ndarray]:
        """The scores in ascending order and their weights, ties in input order."""
        order = np.argsort(self.scores, kind="stable")
        return self.scores[order], self.weights[order]


def check_weights(weights: np.ndarray) -> None:
    """Raise ``ValueError`` unless every likelihood-ratio weight is finite and positive."""
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0.0)):
        raise ValueError("weights must be finite and strictly positive")


def weight_total(weights: list[float], test_weight: float) -> float:
    """The correctly rounded ``math.fsum`` of the weights and the test weight."""
    try:
        return math.fsum(weights + [float(test_weight)])
    except OverflowError:
        raise ValueError("the total weight overflows; rescale the weights") from None


def chi2_g(beta: float, rho_chi2: float) -> float:
    """Worst-case coverage map of the chi-square divergence ball.

    The smallest ``z`` in [0, 1] such that the chi-square divergence of the
    binary distribution ``(z, 1 - z)`` from ``(beta, 1 - beta)`` is at most
    ``rho_chi2``. For the quadratic generator this reduces to
    ``max(0, beta - sqrt(rho_chi2 * beta * (1 - beta)))``; endpoints map to
    themselves by convention.
    """
    check_probability(beta, "beta")
    check_finite_nonnegative(rho_chi2, "rho_chi2")
    if beta in (0.0, 1.0):
        return beta
    return max(0.0, beta - math.sqrt(rho_chi2 * beta * (1.0 - beta)))


def chi2_g_inv(tau: float, rho_chi2: float) -> float:
    """Largest ``beta`` in [0, 1] with ``chi2_g(beta, rho_chi2) <= tau``.

    Computed by bisection; ``chi2_g`` is nondecreasing in ``beta`` (asserted
    by property tests rather than assumed blindly). Results are memoised,
    since repeated calibrations ask for the same few levels.
    """
    check_probability(tau, "tau")
    check_finite_nonnegative(rho_chi2, "rho_chi2")
    return _chi2_g_inv(float(tau), float(rho_chi2))


@lru_cache(maxsize=256)
def _chi2_g_inv(tau: float, rho_chi2: float) -> float:
    if chi2_g(1.0, rho_chi2) <= tau:
        return 1.0
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if chi2_g(mid, rho_chi2) <= tau else (lo, mid)
    return lo


def chi2_rule(n: int, alpha: float, rho_chi2: float) -> QuantileRule:
    """:func:`chi2_threshold`'s rule for ``n`` scores."""
    check_calibration_size(n)
    check_alpha(alpha)
    inner = (1.0 + 1.0 / n) * chi2_g_inv(1.0 - alpha, rho_chi2)
    if not level_at_most_one(inner):
        return QuantileRule(None, inner)
    alpha_n = 1.0 - chi2_g(min(inner, 1.0), rho_chi2)
    level = chi2_g_inv(1.0 - alpha_n, rho_chi2)
    if level <= 0.0:
        raise ValueError(
            f"degenerate chi-square level {level!r} for alpha={alpha!r}, rho={rho_chi2!r}"
        )
    return QuantileRule.at_level(n, level)


def chi2_threshold(sample: ScoreSample, alpha: float, rho_chi2: float) -> ThresholdResult:
    """Chi-square robust conformal threshold.

    The finite-sample corrected level is ``(1 + 1/n) * g_inv(1 - alpha)``;
    if it exceeds one the threshold is unbounded. Otherwise the threshold is
    the quantile at ``g_inv(g(corrected level))``, which undoes the coverage
    map after the correction.
    """
    return chi2_rule(sample.n, alpha, rho_chi2).apply(sample.scores)


def _weighted_rule(sorted_weights: np.ndarray, test_weight: float, level: float) -> QuantileRule:
    """The smallest ``k`` whose prefix weight ``S_k`` reaches ``t = level * T``.

    ``T`` is the total, ``test_weight`` (the atom at infinity) included, and the rule
    is unbounded when no ``k <= n`` reaches ``t``. ``S_k`` reaches ``t`` when ``t - S_k``
    is at most ``LEVEL_REL_TOL * t``, the snap of :func:`snapped_ceil`. ``T`` and the
    deciding ``S_k`` are ``math.fsum`` sums, the same in any order; a float ``cumsum``
    only proposes ``k``.
    """
    weights = sorted_weights.tolist()
    n, total = len(weights), weight_total(weights, test_weight)
    target = level * total

    def reaches(k: int) -> bool:  # nondecreasing in k
        return k > n or target - math.fsum(weights[:k]) <= LEVEL_REL_TOL * target

    k = min(int(np.searchsorted(np.cumsum(sorted_weights / total), level)) + 1, n + 1)
    if not reaches(k) or (k > 1 and reaches(k - 1)):  # the float sums crossed the snap band
        k = bisect.bisect_left(range(1, n + 1), True, key=reaches) + 1
    return QuantileRule(k if k <= n else None, level)


def rscp_rule(n: int, alpha: float, delta: float, sigma: float) -> QuantileRule:
    """:func:`rscp_threshold`'s rule for ``n`` scores."""
    check_calibration_size(n)
    check_alpha(alpha)
    check_finite_nonnegative(delta, "delta")
    sigma = check_finite_positive(sigma, "sigma")
    return QuantileRule.at_level(n, (1.0 - alpha) * (2 + n) / (1 + n), delta / sigma)


def rscp_threshold(
    sample: ScoreSample, alpha: float, delta: float, sigma: float
) -> ThresholdResult:
    """Smoothed-score threshold: inflated-level quantile plus ``delta / sigma``.

    ``sample`` must already contain the externally computed smoothed scores;
    this function only applies the quantile rule.
    """
    return rscp_rule(sample.n, alpha, delta, sigma).apply(sample.scores)


def fg_rule(n: int, alpha: float, rho_chi2: float, test_weight: float,
            sorted_weights: np.ndarray | None = None) -> QuantileRule:
    """:func:`fg_threshold`'s rule for ``n`` scores whose weights, in ascending score
    order, are ``sorted_weights`` (each one when None): :func:`_weighted_rule` at level
    ``g_inv(1 - alpha)``. A total weight past the largest double raises ``ValueError``."""
    check_calibration_size(n)
    tw = check_finite_positive(test_weight, "test weight")
    check_alpha(alpha)
    level = chi2_g_inv(1.0 - alpha, rho_chi2)
    if level <= 0.0:
        raise ValueError(f"degenerate weighted level {level!r} for alpha={alpha!r}")
    w = np.ones(n) if sorted_weights is None else np.asarray(sorted_weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"need {n} weights, one per score, got shape {w.shape}")
    check_weights(w)
    return _weighted_rule(w, tw, level)


def fg_threshold(ws: WeightedScores, alpha: float, rho_chi2: float) -> ThresholdResult:
    """Fine-grained threshold: weighted quantile at level ``g_inv(1 - alpha)``."""
    scores, weights = ws.by_score()
    return fg_rule(ws.n, alpha, rho_chi2, ws.test_weight, weights).apply(scores)
