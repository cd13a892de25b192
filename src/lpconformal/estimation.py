"""Data-driven selection of the ambiguity parameters (epsilon, rho).

Given two disjoint calibration batches and a batch of test scores, each
candidate ``epsilon`` on a grid is paired with the exact transport
discrepancy ``rho`` between the first calibration batch and the test batch.
The candidate whose robust threshold (computed on the second batch, at the
coverage-adjusted level) is smallest wins: it yields the tightest prediction
set that is still certified for the observed shift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InfeasibleLevelError, ScoreSample, check_alpha, level_at_most_one
from .lp_metric import LPParams, lp_profile, validate_epsilon_grid
from .robust import adjusted_beta, worst_case_quantile

__all__ = [
    "EstimationResult",
    "GridPoint",
    "NoFeasibleGridError",
    "default_epsilon_grid",
    "estimate_lp_params",
]


class NoFeasibleGridError(InfeasibleLevelError):
    """Every grid point was infeasible: no ambiguity set can be certified."""


@dataclass(frozen=True)
class GridPoint:
    """One audited grid evaluation.

    ``beta`` and ``q`` are ``None`` when the point is infeasible, with the
    reason recorded.
    """

    epsilon: float
    rho: float
    beta: float | None
    q: float | None
    feasible: bool
    reason: str | None = None


@dataclass(frozen=True)
class EstimationResult:
    """Selected ambiguity parameters plus the full grid trace for audit."""

    epsilon: float
    rho: float
    beta: float
    q: float
    grid_trace: tuple[GridPoint, ...]


def estimate_lp_params(
    calib_a: ScoreSample,
    calib_b: ScoreSample,
    test: ScoreSample,
    epsilon_grid: Sequence[float],
    alpha: float,
) -> EstimationResult:
    """Pick the (epsilon, rho) pair giving the tightest certified threshold.

    ``calib_a`` estimates the shift against ``test``; ``calib_b`` computes
    the quantiles. The two calibration batches must come from disjoint draws
    of the same source (the caller's responsibility; values may collide).

    For each grid epsilon: ``rho`` is the exact transport discrepancy (one
    :func:`lpconformal.lp_metric.lp_profile` call for the whole grid), the
    miscoverage is adjusted via :func:`lpconformal.robust.adjusted_beta` on
    ``calib_b``'s size, and the candidate threshold is the worst-case
    ``(1 - beta)``-quantile of ``calib_b`` over the ``(epsilon, rho)`` ball,
    as in :func:`lpconformal.robust.lp_threshold`. Points whose adjustment
    fails or whose threshold is unbounded (its level is above one, or it
    overflows) are traced as infeasible and skipped.
    Ties in the threshold break toward the smallest epsilon.

    Raises :class:`NoFeasibleGridError` if no grid point is feasible.
    """
    grid = validate_epsilon_grid(epsilon_grid)
    check_alpha(alpha)
    n_b = calib_b.n
    trace: list[GridPoint] = []
    best: GridPoint | None = None
    for eps, rho in lp_profile(calib_a, test, grid):
        try:
            beta = adjusted_beta(n_b, alpha, rho)
        except InfeasibleLevelError:
            trace.append(
                GridPoint(eps, rho, None, None, False, "coverage adjustment infeasible")
            )
            continue
        result = worst_case_quantile(calib_b, 1.0 - beta, LPParams(eps, rho))
        q = result.threshold
        if q is None:
            reason = ("threshold overflows" if level_at_most_one(result.level_used)
                      else "quantile level above one")
            trace.append(GridPoint(eps, rho, beta, None, False, reason))
            continue
        point = GridPoint(eps, rho, beta, q, True)
        trace.append(point)
        if best is None or q < best.q:
            best = point
    if best is None:
        counts = Counter(p.reason for p in trace)
        raise NoFeasibleGridError("no feasible ambiguity set: " + "; ".join(
            f"{k} of {len(trace)} grid points: {reason}" for reason, k in counts.items()))
    return EstimationResult(
        epsilon=best.epsilon,
        rho=best.rho,
        beta=best.beta,
        q=best.q,
        grid_trace=tuple(trace),
    )


def default_epsilon_grid(*samples: ScoreSample, num_points: int = 20) -> list[float]:
    """Log-spaced grid spanning [0.01, 2] times the pooled interquartile range."""
    if not samples:
        raise ValueError("need at least one sample to build a grid")
    pooled = np.concatenate([s.scores for s in samples])
    iqr = float(np.quantile(pooled, 0.75) - np.quantile(pooled, 0.25))
    if iqr <= 0.0:
        raise ValueError(
            "pooled scores have zero interquartile range; supply an explicit grid"
        )
    return [float(e) for e in np.geomspace(0.01 * iqr, 2.0 * iqr, num_points)]
