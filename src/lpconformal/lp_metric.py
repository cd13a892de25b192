"""Exact threshold-cost transport discrepancy between empirical samples.

The discrepancy at threshold ``eps`` between two empirical distributions is
the smallest probability mass that any coupling must move strictly farther
than ``eps`` (a Levy-Prokhorov style pseudo-metric; at ``eps = 0`` it is the
total variation distance). A coupling edge between atoms ``x`` and ``y`` is
admissible when ``|x - y| <= eps`` (non-strict match).

The value is computed exactly on the common ``n * m`` integer scaling
(source atoms supply ``m`` units, target atoms demand ``n``). Both samples
are sorted, so admissible partners form intervals that advance together; on
such convex bipartite graphs, filling each target in ascending order from
the earliest source with supply is optimal (Glover 1967), which gives one
``O(n + m)`` sweep for any sample sizes.

A solve counts matched units only. The optimal coupling that certifies
``rho`` is built on first access to ``TransportResult.certificate``, by
re-running the same sweep with its fills recorded.

All ``|x - y| <= eps`` comparisons are exact on the given doubles; no
tolerance slack is applied. Callers constructing shifted samples should keep
in mind that ``(x + eps) - x`` can exceed ``eps`` by one ulp in floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import ScoreSample, check_epsilon, check_rho

__all__ = [
    "LPParams",
    "TransportResult",
    "lp_distance",
    "lp_profile",
    "tv_distance",
    "winf_within",
]


@dataclass(frozen=True)
class LPParams:
    """Ambiguity ball parameters: local radius ``epsilon``, global mass budget ``rho``."""

    epsilon: float
    rho: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_rho(self.rho)


@dataclass(frozen=True)
class TransportResult:
    """Outcome of the exact transport solve between two samples.

    ``certificate`` is an optimal coupling on the integer scaling: a tuple of
    ``(source_index, target_index, units)`` triples where one unit of mass is
    ``1 / (n * m)``. Indices refer to the sorted samples. Row sums equal ``m``
    units (mass ``1/n``) and column sums equal ``n`` units (mass ``1/m``)
    exactly. Edges between atoms farther apart than the threshold carry
    exactly ``n*m - matched_units`` units, so the plan's cost is ``rho``.

    The certificate is built on first access and then cached: the solve
    keeps its two samples and threshold so that callers needing only
    ``rho`` never pay for the coupling.
    It takes no part in ``repr`` or ``==``.
    """

    rho: float
    matched_mass: float
    n: int
    m: int
    matched_units: int
    _p: ScoreSample = field(repr=False, compare=False)
    _q: ScoreSample = field(repr=False, compare=False)
    _epsilon: float = field(repr=False, compare=False)

    @cached_property
    def certificate(self) -> tuple[tuple[int, int, int], ...]:
        """The optimal coupling, built on first access and then cached."""
        plan: list[tuple[int, int, int]] = []
        _sweep(self._p.scores.tolist(), self._q.scores.tolist(), self._epsilon, plan)
        return _complete_plan(self.n, self.m, plan)


def _complete_plan(
    n: int, m: int, plan: list[tuple[int, int, int]]
) -> tuple[tuple[int, int, int], ...]:
    """Extend a matched sub-plan to full marginals.

    Leftover supply and demand are paired greedily in index order; maximality
    of the matched sub-plan guarantees every added edge joins atoms farther
    apart than the threshold, so the completed plan's cost equals the
    unmatched mass.
    """
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
            continue
        if demand[j] == 0:
            j += 1
            continue
        units = min(supply[i], demand[j])
        full.append((i, j, units))
        supply[i] -= units
        demand[j] -= units
    full.sort()
    return tuple(full)


def _sweep(
    x: list[float], y: list[float], eps: float,
    plan: list[tuple[int, int, int]] | None = None,
) -> int:
    """Maximum matched units on the ``n*m`` scaling for sorted samples.

    Targets are visited in ascending order. Sources lying more than ``eps``
    to the left of the target can match no later target and are dropped;
    the target is then filled from the earliest source that still has
    supply, while the exact test ``abs(x_i - y_j) <= eps`` holds. A partly
    used source is carried forward to the next target. Each fill is
    appended to ``plan`` as ``(i, j, units)`` when a list is given.
    """
    n, m = len(x), len(y)
    x = x + [float("inf")]  # sentinel: never dropped, never admissible
    matched = 0
    i = 0
    xi = x[0]
    left = m  # units source ``i`` can still supply
    for j, yj in enumerate(y):
        while xi < yj and abs(xi - yj) > eps:
            i += 1
            xi = x[i]
            left = m
        demand = n
        while demand and abs(xi - yj) <= eps:
            units = left if left < demand else demand
            if plan is not None:
                plan.append((i, j, units))
            demand -= units
            left -= units
            if not left:
                i += 1
                xi = x[i]
                left = m
        matched += n - demand
    return matched


def lp_distance(p: ScoreSample, q: ScoreSample, epsilon: float) -> TransportResult:
    """Exact minimal mass that must move farther than ``epsilon`` between samples.

    Parameters
    ----------
    p, q : ScoreSample
        The two empirical distributions, with uniform atom masses ``1/n`` and
        ``1/m``.
    epsilon : float
        Nonnegative match radius; atoms within ``epsilon`` (inclusive) may be
        coupled at zero cost.

    Returns
    -------
    TransportResult
        ``rho`` is the exact optimum, from one ``O(n + m)`` sorted sweep; the
        certificate realizes it.
    """
    check_epsilon(epsilon)
    n, m = p.n, q.n
    matched = _sweep(p.scores.tolist(), q.scores.tolist(), float(epsilon))
    rho = (n * m - matched) / (n * m)
    return TransportResult(rho=rho, matched_mass=1.0 - rho, n=n, m=m, matched_units=matched,
                           _p=p, _q=q, _epsilon=float(epsilon))


def tv_distance(p: ScoreSample, q: ScoreSample) -> float:
    """Total variation distance between the empirical distributions."""
    return lp_distance(p, q, 0.0).rho


def winf_within(p: ScoreSample, q: ScoreSample, epsilon: float) -> bool:
    """Whether the sup-norm transport distance between the samples is <= epsilon.

    For equal sizes this is the exact order-statistic test
    ``max_i |x_(i) - y_(i)| <= epsilon``; otherwise it falls back to the
    ``O(n + m)`` sweep of :func:`lp_distance` and checks that the
    threshold-cost discrepancy at ``epsilon`` is zero.
    """
    check_epsilon(epsilon)
    if p.n == q.n:
        # An overflowing gap is inf, which correctly exceeds any finite epsilon.
        with np.errstate(over="ignore"):
            return bool(np.all(np.abs(p.scores - q.scores) <= epsilon))
    res = lp_distance(p, q, epsilon)
    return res.matched_units == res.n * res.m


def validate_epsilon_grid(epsilon_grid: Sequence[float]) -> list[float]:
    """The grid as floats, checked nonempty, finite, nonnegative and strictly increasing."""
    grid = [float(e) for e in epsilon_grid]
    if not grid:
        raise ValueError("epsilon grid must be nonempty")
    if any(not (np.isfinite(e) and e >= 0.0) for e in grid):
        raise ValueError("epsilon grid entries must be finite and nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("epsilon grid must be strictly increasing")
    return grid


def lp_profile(
    p: ScoreSample, q: ScoreSample, epsilon_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Sweep ``lp_distance`` over a strictly increasing grid of thresholds."""
    return [(e, lp_distance(p, q, e).rho) for e in validate_epsilon_grid(epsilon_grid)]
