"""Worst-case quantiles and coverage over a local/global ambiguity ball.

For an ambiguity ball with local radius ``epsilon`` and global mass budget
``rho`` around an empirical score distribution, the worst-case
``beta``-quantile is ``quantile(beta + rho) + epsilon`` (unbounded once
``beta + rho`` exceeds one, since the adversary can park a ``rho`` fraction
of mass arbitrarily far out) and the worst-case coverage at a threshold ``q``
is ``cdf(q - epsilon) - rho``, floored at zero. These drive the robust
prediction-set thresholds and their finite-sample coverage bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    InfeasibleLevelError,
    QuantileRule,
    ScoreSample,
    ThresholdResult,
    cdf,
    check_alpha,
    check_calibration_size,
    check_probability,
    snapped_ceil,
)
from .lp_metric import LPParams

__all__ = [
    "PredictionSet",
    "adjusted_beta",
    "coverage_lower_bound",
    "lp_rule",
    "lp_threshold",
    "prediction_set",
    "robust_rule",
    "robust_threshold",
    "worst_case_coverage",
    "worst_case_quantile",
    "worst_case_rule",
]


@dataclass(frozen=True)
class PredictionSet:
    """Labels whose scores fall at or below a threshold.

    ``threshold is None`` means the threshold was unbounded and every label
    is a member.
    """

    member_labels: frozenset[int]
    threshold: float | None


def worst_case_rule(n: int, beta: float, params: LPParams) -> QuantileRule:
    """:func:`worst_case_quantile`'s rule for ``n`` scores."""
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta!r}")
    return QuantileRule.at_level(n, beta + params.rho, params.epsilon)


def worst_case_quantile(
    sample: ScoreSample, beta: float, params: LPParams
) -> ThresholdResult:
    """Largest ``beta``-quantile over the ambiguity ball around ``sample``.

    Finite exactly when ``beta + rho <= 1``: the value is
    ``quantile(sample, beta + rho) + epsilon``. Beyond that the quantile can
    be driven arbitrarily high and the unbounded marker is returned, carrying
    the overflowing level for diagnosis.
    """
    return worst_case_rule(sample.n, beta, params).apply(sample.scores)


def worst_case_coverage(sample: ScoreSample, q: float, params: LPParams) -> float:
    """Smallest CDF value at ``q`` over the ambiguity ball, floored at zero."""
    if not np.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    return max(cdf(sample, q - params.epsilon) - params.rho, 0.0)


def coverage_lower_bound(n: int, alpha: float, rho: float) -> float:
    """Finite-sample coverage guarantee of the robust threshold.

    Equals ``ceil(n * (1 - alpha + rho)) / (n + 1) - rho``, clamped to
    [0, 1]. Valid for calibration size ``n >= 1`` and ``rho < 1``.
    """
    check_calibration_size(n)
    check_alpha(alpha)
    check_probability(rho, "rho")
    if rho == 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho!r}")
    k = snapped_ceil(n * (1.0 - alpha + rho))
    return max(0.0, min(1.0, k / (n + 1) - rho))


def robust_rule(n: int, alpha: float, params: LPParams) -> QuantileRule:
    """:func:`robust_threshold`'s rule for ``n`` scores."""
    check_alpha(alpha)
    rule = worst_case_rule(n, 1.0 - alpha, params)
    bound = coverage_lower_bound(n, alpha, params.rho) if params.rho < 1.0 else None
    return replace(rule, coverage_bound=bound)


def robust_threshold(
    sample: ScoreSample, alpha: float, params: LPParams
) -> ThresholdResult:
    """Prediction-set threshold that is valid for every ball member.

    The worst-case ``(1 - alpha)``-quantile of the calibration sample, with
    the finite-sample coverage bound attached, also when the threshold is
    unbounded (omitted in the degenerate ``rho == 1`` case, where the
    threshold is unbounded anyway).
    """
    rule = robust_rule(sample.n, alpha, params)
    return replace(rule.apply(sample.scores), coverage_bound=rule.coverage_bound)


def adjusted_beta(n: int, alpha: float, rho: float) -> float:
    """Miscoverage level to request so the robust guarantee reaches ``1 - alpha``.

    Returns ``alpha + (alpha - rho - 2) / n``. Raises
    :class:`InfeasibleLevelError` when the adjustment is not positive, i.e.
    the calibration sample is too small to certify ``1 - alpha`` coverage at
    this ``rho``.
    """
    check_calibration_size(n)
    check_alpha(alpha)
    check_probability(rho, "rho")
    beta = alpha + (alpha - rho - 2.0) / n
    if beta <= 0.0:
        raise InfeasibleLevelError(
            f"adjusted miscoverage {beta!r} is not positive: n={n} is too small "
            f"for alpha={alpha!r}, rho={rho!r}"
        )
    return beta


def lp_rule(n: int, alpha: float, params: LPParams) -> QuantileRule:
    """:func:`lp_threshold`'s rule for ``n`` scores."""
    return robust_rule(n, adjusted_beta(n, alpha, params.rho), params)


def lp_threshold(sample: ScoreSample, alpha: float, params: LPParams) -> ThresholdResult:
    """Coverage-adjusted robust threshold that certifies ``1 - alpha``.

    The robust threshold at the miscoverage from :func:`adjusted_beta`, so
    the attached coverage bound is at least ``1 - alpha`` whenever the
    threshold is finite; the bound is dropped when it is unbounded. Raises
    :class:`InfeasibleLevelError` when the sample is too small to certify
    ``1 - alpha`` at this ``rho``.
    """
    return lp_rule(sample.n, alpha, params).apply(sample.scores)


def prediction_set(label_scores, threshold: ThresholdResult) -> PredictionSet:
    """Labels whose scores are at or below the threshold (all, if unbounded)."""
    scores = np.asarray(label_scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError("label scores must be one-dimensional")
    if not np.all(np.isfinite(scores)):
        raise ValueError("label scores must be finite")
    if threshold.is_unbounded:
        members = range(scores.size)
    else:
        members = np.nonzero(scores <= threshold.threshold)[0]
    return PredictionSet(
        member_labels=frozenset(int(i) for i in members),
        threshold=threshold.threshold,
    )
