"""Exact threshold-cost transport discrepancy between empirical samples.

The discrepancy at threshold ``eps`` between two empirical distributions is
the smallest probability mass that any coupling must move strictly farther
than ``eps`` (a Levy-Prokhorov style pseudo-metric; at ``eps = 0`` it is the
total variation distance). A coupling edge between atoms ``x`` and ``y`` is
admissible when ``|x - y| <= eps`` (non-strict match).

The value is computed exactly on the common ``n * m`` integer scaling
(source atoms supply ``m`` units, target atoms demand ``n``). Both samples
are sorted, so the sources admissible for target ``j`` form an interval
``[lo_j, hi_j)`` whose ends never decrease in ``j``; on such convex
bipartite graphs, filling each target in ascending order from the earliest
source with supply is optimal (Glover 1967).

With the sources' units laid end to end (source ``i`` owns units
``[i*m, (i+1)*m)``), that greedy fill gives target ``j`` the unit range
``[max(P_{j-1}, lo_j*m), P_j)`` with
``P_j = min(max(P_{j-1}, lo_j*m) + n, hi_j*m)`` and ``P_{-1} = 0``. So
``R_j = P_j - (j+1)*n`` is a running clip,
``R_j = min(max(R_{j-1}, lo_j*m - j*n), hi_j*m - (j+1)*n)``, and clips
compose into clips: a log-depth prefix scan on int64 arrays yields every
``P_j`` without a Python loop. One numpy kernel does this for a block of
thresholds at once. :func:`lp_profile` runs a grid through it in blocks of
about cache size, :func:`lp_distance` is the one-threshold case, and
``TransportResult.certificate`` is cut from the same unit ranges on first
access.

The interval ends are found with ``np.searchsorted`` on the rounded bounds
``y_j - eps`` and ``y_j + eps`` and then checked with the exact test; the
rare ends that rounding moved are searched again by bisection, so every
``|x - y| <= eps`` comparison is exact on the given doubles. No tolerance
slack is applied. Callers constructing shifted samples should keep in mind
that ``(x + eps) - x`` can exceed ``eps`` by one ulp in floating point.
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

# Thresholds per kernel call are chosen so that each (thresholds x targets)
# work array holds about this many cells (256 KiB of int64): a grid on large
# samples runs in cache-sized blocks, a grid on small samples in one call.
_BLOCK_CELLS = 1 << 15


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
        m = self.m
        (start,), (end,) = _fills(self._p.scores, self._q.scores, np.array([self._epsilon]))
        # Target j's range crosses the sources start_j // m .. (end_j - 1) // m.
        first = start // m
        spans = np.where(end > start, (end - 1) // m - first + 1, 0)
        target = np.repeat(np.arange(m), spans)
        source = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans - first, spans)
        units = np.minimum(end[target], (source + 1) * m) - np.maximum(start[target], source * m)
        plan = list(zip(source.tolist(), target.tolist(), units.tolist()))
        return _complete_plan(self.n, m, plan)


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


def _prefix_count(holds, guess: np.ndarray, n: int) -> np.ndarray:
    """``guess`` corrected to the exact length of the prefix where ``holds`` is true.

    ``holds(i, k)`` is the exact test of source ``i`` at flat cell ``k`` (an
    index array, or ``slice(None)`` for every cell); in each cell it is true
    on a prefix of the sorted sources. ``guess`` comes from a search on
    rounded bounds and is almost always right. It is checked at its two
    neighbours, and the cells where it is wrong are searched again by
    bisection over all prefix lengths, in ``n.bit_length()`` vectorised
    passes.
    """
    every = slice(None)
    wrong = (guess > 0) & ~holds(np.maximum(guess - 1, 0), every)
    wrong |= (guess < n) & holds(np.minimum(guess, n - 1), every)
    cells = np.flatnonzero(wrong)
    if cells.size:
        count = np.zeros(cells.size, dtype=np.int64)
        step = 1 << (n.bit_length() - 1)
        while step:
            longer = count + step
            count[(longer <= n) & holds(np.minimum(longer, n) - 1, cells)] += step
            step >>= 1
        guess[cells] = count
    return guess


def _fills(x: np.ndarray, y: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The greedy fill of every target of ``y`` at every threshold of ``eps``.

    ``x`` and ``y`` are sorted. Returns int64 arrays ``start`` and ``end`` of
    shape ``(eps.size, m)``: at threshold ``eps[r]``, target ``j`` takes the
    source units ``[start[r, j], end[r, j])``, all over admissible edges.
    """
    n, m = x.size, y.size
    rows = eps.size
    ys = np.tile(y, rows)
    es = np.repeat(eps, m)
    with np.errstate(over="ignore"):  # a gap past the largest double is inf, above every eps
        # Sources too far left of the target (y - x > eps) form a prefix ...
        lo = _prefix_count(lambda i, k: ys[k] - x[i] > es[k],
                           np.searchsorted(x, ys - es, side="left"), n)
        # ... and so do the sources not too far right of it (x - y <= eps).
        hi = _prefix_count(lambda i, k: x[i] - ys[k] <= es[k],
                           np.searchsorted(x, ys + es, side="right"), n)
    low = lo.astype(np.int64).reshape(rows, m) * m
    steps = n * np.arange(m, dtype=np.int64)
    a = low - steps
    b = hi.astype(np.int64).reshape(rows, m) * m - steps - n
    # The clip of target j is r -> min(max(r, a_j), b_j); after the scan,
    # column j holds the composition of clips 0..j.
    shift = 1
    while shift < m:
        # Clip k after clip k - shift: lower max(a', a), upper min(max(b', a), b).
        np.minimum(np.maximum(b[:, :-shift], a[:, shift:]), b[:, shift:], out=b[:, shift:])
        np.maximum(a[:, :-shift], a[:, shift:], out=a[:, shift:])
        shift *= 2
    # Every composed lower bound is at least a_0 = lo_0*m >= 0, so applying
    # the composition to R_{-1} = 0 gives R_j = min(a_j, b_j).
    end = np.minimum(a, b, out=b)
    end += steps + n
    start = low
    np.maximum(start[:, 1:], end[:, :-1], out=start[:, 1:])
    return start, end


def _matched_units(p: ScoreSample, q: ScoreSample, grid: list[float]) -> list[int]:
    """Maximum matched units at every threshold of ``grid``, in kernel blocks."""
    n, m = p.n, q.n
    if n * m >= 2**62:
        raise ValueError(
            f"samples of {n} and {m} scores are too large for exact transport: "
            "n * m must be below 2**62"
        )
    rows = max(1, _BLOCK_CELLS // m)
    matched: list[int] = []
    for first in range(0, len(grid), rows):
        start, end = _fills(p.scores, q.scores, np.array(grid[first:first + rows]))
        matched += (end - start).sum(axis=1).tolist()
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
        ``rho`` is the exact optimum, from one call of the transport kernel
        (``O((n + m) log(n + m))`` numpy work); the certificate realizes it.

    Raises ``ValueError`` when ``n * m`` is not below ``2**62``.
    """
    check_epsilon(epsilon)
    n, m = p.n, q.n
    (matched,) = _matched_units(p, q, [float(epsilon)])
    rho = (n * m - matched) / (n * m)
    return TransportResult(rho=rho, matched_mass=1.0 - rho, n=n, m=m, matched_units=matched,
                           _p=p, _q=q, _epsilon=float(epsilon))


def tv_distance(p: ScoreSample, q: ScoreSample) -> float:
    """Total variation distance between the empirical distributions."""
    return lp_distance(p, q, 0.0).rho


def winf_within(p: ScoreSample, q: ScoreSample, epsilon: float) -> bool:
    """Whether the sup-norm transport distance between the samples is <= epsilon.

    For equal sizes this is the exact order-statistic test
    ``max_i |x_(i) - y_(i)| <= epsilon``; otherwise it falls back to
    :func:`lp_distance` and checks that the threshold-cost discrepancy at
    ``epsilon`` is zero.
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
    """``(epsilon, rho)`` of :func:`lp_distance` at every threshold of a strictly increasing grid.

    The grid goes through the transport kernel in blocks of thresholds, so a
    whole grid costs a few vectorised passes instead of one solve per point;
    each ``rho`` is bit-equal to ``lp_distance(p, q, epsilon).rho``.
    """
    grid = validate_epsilon_grid(epsilon_grid)
    units = p.n * q.n
    return [(e, (units - k) / units) for e, k in zip(grid, _matched_units(p, q, grid))]
