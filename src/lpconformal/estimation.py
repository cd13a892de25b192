"""Data-driven selection of the ambiguity parameters (epsilon, rho).

Given two disjoint calibration batches and a batch of test scores, each
candidate ``epsilon`` on a grid is paired with the exact transport
discrepancy ``rho`` between the first calibration batch and the test batch.
The candidate whose robust threshold (computed on the second batch, at the
coverage-adjusted level) is smallest wins: it yields the tightest prediction
set that is still certified for the observed shift.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InfeasibleLevelError, ScoreSample, check_alpha
from .lp_metric import LPParams, lp_profile
from .robust import adjusted_beta, worst_case_rule

__all__ = [
    "EstimationResult",
    "GridPoint",
    "NoFeasibleGridError",
    "default_epsilon_grid",
    "estimate_lp_params",
]

# Points of the default epsilon grid.
_GRID_POINTS = 20


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
    alpha = check_alpha(alpha)
    n_b = calib_b.n
    trace: list[GridPoint] = []
    best: GridPoint | None = None
    for eps, rho in lp_profile(calib_a, test, epsilon_grid):
        try:
            beta = adjusted_beta(n_b, alpha, rho)
        except InfeasibleLevelError:
            trace.append(GridPoint(eps, rho, None, None, False, "coverage adjustment infeasible"))
            continue
        rule = worst_case_rule(n_b, 1.0 - beta, LPParams(eps, rho))
        q = rule.cutoff(calib_b.scores)
        if math.isinf(q):
            reason = "quantile level above one" if rule.index is None else "threshold overflows"
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
    return EstimationResult(epsilon=best.epsilon, rho=best.rho, beta=best.beta, q=best.q,
                            grid_trace=tuple(trace))


def default_epsilon_grid(*samples: ScoreSample) -> list[float]:
    """Log-spaced grid spanning [0.01, 2] times the pooled interquartile range.

    Raises ``ValueError`` when that grid would not be finite, positive and
    strictly increasing: a zero, overflowing or subnormal range.
    """
    if not samples:
        raise ValueError("need at least one sample to build a grid")
    pooled = np.concatenate([s.scores for s in samples])
    # Overflow and underflow are caught by the checks below, not warned about.
    with np.errstate(all="ignore"):
        iqr = float(np.quantile(pooled, 0.75) - np.quantile(pooled, 0.25))
        lo, hi = 0.01 * iqr, 2.0 * iqr
        grid = np.geomspace(lo, hi, _GRID_POINTS) if 0.0 < lo and hi < np.inf else None
    if grid is None or not np.all(np.diff(grid) > 0.0):
        raise ValueError(
            f"the pooled interquartile range {iqr!r} gives no finite, positive, "
            "increasing epsilon grid; supply an explicit grid (--grid)"
        )
    return [float(e) for e in grid]
