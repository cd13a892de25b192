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
compose into clips: a log-depth prefix scan yields every ``P_j`` without a
Python loop. Its values lie within ``+-(n*m + n)``, so it runs on int32 when
``n*m + n < 2**31`` and on int64 otherwise. One numpy kernel does this for
a block of thresholds at once. :func:`lp_profile` runs a grid through it in
blocks of about cache size, and :func:`lp_distance` is the one-threshold
case. Only the thresholds below the sup-norm distance (:func:`winf_distance`,
found in ``O(n + m)`` on the kernel's rounded differences) reach the kernel;
at or past it every unit is matched.

The interval ends are guessed with ``np.searchsorted`` on the rounded bounds
``y_j - eps`` and ``y_j + eps``. One pass checks every guess with the exact
test against a copy of ``x`` padded with ``-inf`` and ``+inf``, and only the
rare cells that rounding moved are searched again by bisection, so every
``|x - y| <= eps`` comparison is exact on the given doubles. No tolerance
slack is applied. Callers constructing shifted samples should keep in mind
that ``(x + eps) - x`` can exceed ``eps`` by one ulp in floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ScoreSample, check_finite_nonnegative, check_probability

__all__ = [
    "LPParams",
    "TransportResult",
    "lp_distance",
    "lp_profile",
    "tv_distance",
    "winf_distance",
    "winf_within",
]

# Thresholds per kernel call are chosen so that each (thresholds x targets)
# work array holds about this many cells (128 KiB of int32): a grid on large
# samples runs in cache-sized blocks, a grid on small samples in one call.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class LPParams:
    """Ambiguity ball parameters: local radius ``epsilon``, global mass budget ``rho``."""

    epsilon: float
    rho: float

    def __post_init__(self) -> None:
        check_finite_nonnegative(self.epsilon, "epsilon")
        check_probability(self.rho, "rho")


@dataclass(frozen=True)
class TransportResult:
    """Outcome of the exact transport solve between two samples.

    ``matched_units`` counts the units, of mass ``1 / (n * m)`` each, that an
    optimal coupling moves along admissible edges; ``rho`` is the unmatched
    mass ``(n*m - matched_units) / (n*m)``.
    """

    rho: float
    matched_mass: float
    n: int
    m: int
    matched_units: int


def _bisect(holds, cells: np.ndarray, n: int) -> np.ndarray:
    """The length of the prefix of sources where ``holds`` is true, at each flat cell of ``cells``.

    ``holds(i, cells)`` is the exact test of source ``i`` at each cell. The
    lengths are found by bisection in ``n.bit_length()`` vectorised passes.
    """
    count = np.zeros(cells.size, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step and cells.size:
        longer = count + step
        count[(longer <= n) & holds(np.minimum(longer, n) - 1, cells)] += step
        step >>= 1
    return count


def _fills(x: np.ndarray, y: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The greedy fill of every target of ``y`` at every threshold of ``eps``.

    ``x`` and ``y`` are sorted. Returns integer arrays ``start`` and ``end``
    of shape ``(eps.size, m)``, int32 when ``n * m + n < 2**31`` and int64
    otherwise: at threshold ``eps[r]``, target ``j`` takes the source units
    ``[start[r, j], end[r, j])``, all over admissible edges.
    """
    n, m = x.size, y.size
    e = eps[:, None]
    xp = np.concatenate(([-np.inf], x, [np.inf]))  # xp[k] is x[k - 1], with -inf at k = 0
    xq = xp[1:]  # xq[k] is x[k], with +inf at k = n
    with np.errstate(over="ignore"):  # a gap past the largest double is inf, above every eps
        # Sources too far left of the target (y - x > eps) form a prefix ...
        lo = np.searchsorted(x, y - e, side="left")
        wrong = np.flatnonzero((y - xp[lo] <= e) | (y - xq[lo] > e))
        lo.flat[wrong] = _bisect(lambda i, k: y[k % m] - x[i] > eps[k // m], wrong, n)
        # ... and so do the sources not too far right of it (x - y <= eps).
        hi = np.searchsorted(x, y + e, side="right")
        wrong = np.flatnonzero((xp[hi] - y > e) | (xq[hi] - y <= e))
        hi.flat[wrong] = _bisect(lambda i, k: x[i] - y[k % m] <= eps[k // m], wrong, n)
    dtype = np.int32 if n * m + n < 2**31 else np.int64
    start = lo.astype(dtype) * m
    steps = n * np.arange(m, dtype=dtype)
    a = start - steps
    b = hi.astype(dtype) * m - steps - n
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
    np.maximum(start[:, 1:], end[:, :-1], out=start[:, 1:])
    return start, end


def _matched_units(p: ScoreSample, q: ScoreSample, grid: list[float]) -> list[int]:
    """Maximum matched units at every threshold of the ascending ``grid``.

    The kernel runs, in blocks, on the thresholds below :func:`winf_distance`;
    every later threshold matches all ``n * m`` units.
    """
    n, m = p.n, q.n
    if n * m >= 2**62:
        raise ValueError(
            f"samples of {n} and {m} scores are too large for exact transport: "
            "n * m must be below 2**62"
        )
    below = grid[:bisect_left(grid, winf_distance(p, q))]
    rows = max(1, _BLOCK_CELLS // m)
    matched: list[int] = []
    for first in range(0, len(below), rows):
        start, end = _fills(p.scores, q.scores, np.array(below[first:first + rows]))
        matched += (end - start).sum(axis=1).tolist()
    return matched + [n * m] * (len(grid) - len(below))


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
        ``rho`` is the exact optimum: ``0.0`` from :func:`winf_distance` on,
        else from one transport kernel call (``O((n + m) log(n + m))`` work).

    Raises ``ValueError`` when ``n * m`` is not below ``2**62``.
    """
    check_finite_nonnegative(epsilon, "epsilon")
    n, m = p.n, q.n
    (matched,) = _matched_units(p, q, [float(epsilon)])
    rho = (n * m - matched) / (n * m)
    return TransportResult(rho=rho, matched_mass=1.0 - rho, n=n, m=m, matched_units=matched)


def tv_distance(p: ScoreSample, q: ScoreSample) -> float:
    """Total variation distance between the empirical distributions."""
    return lp_distance(p, q, 0.0).rho


def winf_distance(p: ScoreSample, q: ScoreSample) -> float:
    """Sup-norm (W-infinity) transport distance between the samples, in ``O(n + m)``.

    The monotone coupling is optimal: source ``i`` (units ``[i*m, (i+1)*m)``)
    meets targets ``(i*m)//n`` to ``((i+1)*m - 1)//n``. The gaps are rounded as
    in the transport kernel, so :func:`lp_distance` matches every unit at
    ``epsilon`` exactly when ``epsilon`` is at least this value; a gap past
    the largest double is ``inf``.
    """
    x, y, n, m = p.scores, q.scores, p.n, q.n
    i = np.arange(n, dtype=np.int64)
    with np.errstate(over="ignore"):
        return float(max(np.max(y[((i + 1) * m - 1) // n] - x), np.max(x - y[i * m // n])))


def winf_within(p: ScoreSample, q: ScoreSample, epsilon: float) -> bool:
    """Whether :func:`winf_distance` between the samples is at most ``epsilon``."""
    check_finite_nonnegative(epsilon, "epsilon")
    return winf_distance(p, q) <= float(epsilon)


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

    The thresholds below :func:`winf_distance` go through the transport
    kernel in blocks, so a whole grid costs a few vectorised passes instead
    of one solve per point; the rest have ``rho == 0.0`` without the kernel.
    Each ``rho`` is bit-equal to ``lp_distance(p, q, epsilon).rho``.
    """
    grid = validate_epsilon_grid(epsilon_grid)
    units = p.n * q.n
    return [(e, (units - k) / units) for e, k in zip(grid, _matched_units(p, q, grid))]
