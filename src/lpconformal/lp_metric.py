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

``searchsorted`` releases the GIL. So when a grid runs in two or more blocks
and the process may use two or more CPUs, one helper thread, started for
that call and joined before it returns, searches the upper ends of each
block while the calling thread searches and checks the lower ends. The
calling thread forms both key arrays under its own numpy error state, runs
every check and every kernel call in block order, so every ``rho`` is the
serial path's. A one-block grid (every :func:`lp_distance` call) and a
one-CPU process run serially and start no thread.
"""

from __future__ import annotations

import contextlib
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ScoreSample, check_finite_nonnegative, check_probability, usable_cpus

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
    """Ambiguity ball parameters, stored as floats: local radius ``epsilon``, mass budget ``rho``."""

    epsilon: float
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", check_finite_nonnegative(self.epsilon, "epsilon"))
        object.__setattr__(self, "rho", check_probability(self.rho, "rho"))


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


def _fills(x: np.ndarray, y: np.ndarray, eps: np.ndarray, *,
           helper=None) -> tuple[np.ndarray, np.ndarray]:
    """The greedy fill of every target of ``y`` at every threshold of ``eps``.

    ``x`` and ``y`` are sorted. Returns integer arrays ``start`` and ``end``
    of shape ``(eps.size, m)``, int32 when ``n * m + n < 2**31`` and int64
    otherwise: at threshold ``eps[r]``, target ``j`` takes the source units
    ``[start[r, j], end[r, j])``, all over admissible edges. With an executor
    ``helper``, the upper ends' ``searchsorted`` runs on it while this thread
    finds the lower ends.
    """
    n, m = x.size, y.size
    e = eps[:, None]
    xp = np.concatenate(([-np.inf], x, [np.inf]))  # xp[k] is x[k - 1], with -inf at k = 0
    xq = xp[1:]  # xq[k] is x[k], with +inf at k = n
    with np.errstate(over="ignore"):  # a gap past the largest double is inf, above every eps
        # numpy's error state is per thread, so both keys are formed here.
        below, above = y - e, y + e
        upper = helper.submit(np.searchsorted, x, above, side="right") if helper else None
        # Sources too far left of the target (y - x > eps) form a prefix ...
        lo = np.searchsorted(x, below, side="left")
        wrong = np.flatnonzero((y - xp[lo] <= e) | (y - xq[lo] > e))
        lo.flat[wrong] = _bisect(lambda i, k: y[k % m] - x[i] > eps[k // m], wrong, n)
        # ... and so do the sources not too far right of it (x - y <= eps).
        hi = upper.result() if upper else np.searchsorted(x, above, side="right")
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
    every later threshold matches all ``n * m`` units. The shorter sample
    supplies the targets, which keeps the kernel's work arrays narrow; the
    maximum matching is the same either way, and ``fl(y - x) == -fl(x - y)``
    keeps every edge test the same.
    """
    if q.n > p.n:
        p, q = q, p
    n, m = p.n, q.n
    if n * m >= 2**62:
        raise ValueError(
            f"samples of {n} and {m} scores are too large for exact transport: "
            "n * m must be below 2**62"
        )
    below = grid[:bisect_left(grid, winf_distance(p, q))]
    rows = max(1, _BLOCK_CELLS // m)
    blocks = [np.array(below[first:first + rows]) for first in range(0, len(below), rows)]
    matched: list[int] = []
    with _helper(len(blocks)) as helper:
        for block in blocks:
            start, end = _fills(p.scores, q.scores, block, helper=helper)
            matched += (end - start).sum(axis=1).tolist()
    return matched + [n * m] * (len(grid) - len(below))


def _helper(blocks: int):
    """A one-thread executor for a kernel run of ``blocks`` blocks, or a context yielding ``None``.

    The thread runs only for two or more blocks and two or more usable CPUs.
    Both gates were measured with ``perfbench/run.py --seed 7777``, 10
    alternating pairs of 8 s on a 2-vCPU host, against the helper forced on.
    On one-block runs (every :func:`lp_distance` call, and all of
    ``estimate_unequal``) the helper raised ``job_p50_s`` from 5.78 to 6.37 ms
    and peak RSS by 1.3 MB. Under ``taskset -c 0`` it raised
    ``estimate_equal``'s ``job_p50_s`` from 89.5 to 91.6 ms: on one CPU the
    two searches only take turns. The CPU count is the process's affinity, so a cgroup
    CPU quota is not seen and a quota-limited process still starts the
    helper. The executor's ``with`` joins the thread, so none outlives the
    call, and no pool is kept in the module where a forked child would
    inherit it.
    """
    if blocks < 2 or usable_cpus() < 2:
        return contextlib.nullcontext()
    # Imported here: concurrent.futures imports logging, a start-up cost that
    # commands which never start the helper should not pay.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


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
    n, m = p.n, q.n
    (matched,) = _matched_units(p, q, [check_finite_nonnegative(epsilon, "epsilon")])
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
    return check_finite_nonnegative(epsilon, "epsilon") >= winf_distance(p, q)


def validate_epsilon_grid(epsilon_grid: Sequence[float]) -> list[float]:
    """The grid as floats: a one-dimensional sequence of numbers (not a string), checked
    nonempty, finite, nonnegative and strictly increasing."""
    try:
        grid = np.asarray(epsilon_grid)
        if grid.ndim != 1 or grid.dtype.kind not in "biufO":
            raise TypeError
        grid = grid.astype(float).tolist()
    except (TypeError, ValueError, OverflowError):
        raise ValueError("epsilon grid must be a one-dimensional sequence of numbers") from None
    if not grid:
        raise ValueError("epsilon grid must be nonempty")
    if any(not (math.isfinite(e) and e >= 0.0) for e in grid):
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
