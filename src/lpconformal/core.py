"""Empirical score distributions: quantiles, CDFs, and the conformal quantile.

The quantile convention throughout the package is the infimum rule: the
``beta``-quantile of an ``n``-point sample is its ``ceil(beta * n)``-th order
statistic. Every coverage statement in this package assumes that convention;
no interpolation is ever applied.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEVEL_REL_TOL",
    "InfeasibleLevelError",
    "QuantileRule",
    "ScoreSample",
    "ThresholdResult",
    "as_real",
    "cdf",
    "check_alpha",
    "check_count",
    "check_finite_nonnegative",
    "check_finite_positive",
    "check_labels",
    "check_probability",
    "check_seed",
    "conformal_quantile",
    "conformal_rule",
    "level_at_most_one",
    "quantile",
    "quantile_index",
    "snapped_ceil",
]

# Relative tolerance used to absorb floating-point round-off when derived
# quantile levels land, mathematically, on an order-statistic boundary.
LEVEL_REL_TOL = 1e-12


def level_at_most_one(level: float) -> bool:
    """Whether a derived quantile level is at most one, up to ``LEVEL_REL_TOL``.

    Absorbs round-off at the boundary: ``beta + rho == 1`` must stay finite.
    """
    return level <= 1.0 + LEVEL_REL_TOL


def as_real(value) -> float:
    """``float(value)`` for a ``numbers.Real``, else NaN, which fails every comparison.

    A value past the largest double, such as ``10**400``, is the infinity of its sign.
    """
    try:
        return float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # math.copysign would convert the value, and overflow too
        return math.inf if value > 0 else -math.inf


def check_alpha(alpha: float) -> float:
    """``float(alpha)``, or ``ValueError`` unless the miscoverage ``alpha`` lies in (0, 1)."""
    if not 0.0 < (number := as_real(alpha)) < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return number


def check_count(value, name: str) -> int:
    """``int(value)``, or ``ValueError`` unless the count ``name`` is a positive integer."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return int(value)


def check_finite_nonnegative(value: float, name: str) -> float:
    """``float(value)``, or ``ValueError`` unless the parameter ``name`` is finite and >= 0."""
    if not 0.0 <= (number := as_real(value)) < math.inf:
        raise ValueError(f"{name} must be a finite nonnegative real, got {value!r}")
    return number


def check_finite_positive(value: float, name: str) -> float:
    """``float(value)``, or ``ValueError`` unless the parameter ``name`` is finite and positive."""
    if not 0.0 < (number := as_real(value)) < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return number


def check_labels(true_labels, n_rows: int, n_labels: int) -> np.ndarray:
    """``true_labels`` as ints, or ``ValueError`` unless they index one column of each row.

    An object array is read as floats first (``None`` is NaN, ``"1"`` is 1.0), and
    strings as ints. The range is checked before the cast, which would wrap ±inf
    and labels past int64; a label too large for either cast is out of range.
    """
    labels = np.asarray(true_labels)
    try:
        if labels.dtype.kind == "O":
            labels = labels.astype(float)
        elif labels.dtype.kind not in "biuf":
            labels = np.asarray(true_labels, dtype=int)
    except OverflowError:
        raise ValueError("true labels must index a matrix column") from None
    if labels.dtype.kind == "f" and not np.all(labels == np.floor(labels)):
        raise ValueError("true labels must be integers")
    if labels.shape != (n_rows,):
        raise ValueError("true labels must be one per matrix row")
    if labels.size and not 0 <= labels.min() <= labels.max() < n_labels:
        raise ValueError("true labels must index a matrix column")
    return np.asarray(labels, dtype=int)


def check_probability(value: float, name: str) -> float:
    """``float(value)``, or ``ValueError`` unless the probability ``name`` lies in [0, 1]."""
    if not 0.0 <= (number := as_real(value)) <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return number


def check_seed(value) -> int:
    """``int(value)``, or ``ValueError`` unless the seed ``value`` is a non-negative integer."""
    if not (isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return int(value)


class InfeasibleLevelError(ValueError):
    """A derived quantile level fell outside (0, 1]."""


def snapped_ceil(value: float) -> int:
    """Ceiling that treats values within ``LEVEL_REL_TOL`` of an integer as exact.

    Level arithmetic such as ``n * (1 - alpha + rho)`` routinely yields
    ``950.0000000000001`` where the intended value is 950; a plain ceiling
    would then overshoot by a whole order statistic.
    """
    nearest = round(value)
    if abs(value - nearest) <= LEVEL_REL_TOL * max(1.0, abs(value)):
        return int(nearest)
    return int(math.ceil(value))


class ScoreSample:
    """Empirical distribution of real nonconformity scores.

    Scores are stored sorted ascending. Duplicates are kept, so the empirical
    measure carries one atom of mass ``1/n`` per input value. Scores must be
    finite; the unbounded conformal threshold is represented by
    :class:`ThresholdResult`, never by an infinity stored here.
    """

    __slots__ = ("_scores",)

    def __init__(self, scores) -> None:
        arr = np.array(scores, dtype=float)
        if arr.ndim != 1:
            raise ValueError("scores must be a one-dimensional sequence")
        if arr.size == 0:
            raise ValueError("a score sample needs at least one score")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scores must be finite (no NaN or infinities)")
        arr.sort()
        arr.flags.writeable = False
        self._scores = arr

    @property
    def scores(self) -> np.ndarray:
        """Sorted, read-only view of the scores."""
        return self._scores

    @property
    def n(self) -> int:
        return int(self._scores.size)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreSample):
            return NotImplemented
        return np.array_equal(self._scores, other._scores)

    def __hash__(self):
        return hash((self.n, float(self._scores[0]), float(self._scores[-1])))

    def __repr__(self) -> str:
        lo, hi = float(self._scores[0]), float(self._scores[-1])
        return f"ScoreSample(n={self.n}, min={lo!r}, max={hi!r})"


@dataclass(frozen=True)
class ThresholdResult:
    """A score threshold together with the quantile level that produced it.

    ``threshold is None`` marks the unbounded regime: the calibration sample
    cannot certify any finite threshold, and prediction sets must include
    every label. In that case ``level_used`` records the requested level,
    out of range unless the threshold overflowed: a non-finite threshold,
    such as a quantile plus a radius past the largest double, is stored as
    ``None``. ``coverage_bound`` carries a finite-sample coverage lower
    bound when one applies.
    """

    threshold: float | None
    level_used: float
    coverage_bound: float | None = None

    def __post_init__(self) -> None:
        if self.threshold is not None and not math.isfinite(self.threshold):
            object.__setattr__(self, "threshold", None)

    @property
    def is_unbounded(self) -> bool:
        return self.threshold is None


@dataclass(frozen=True)
class QuantileRule:
    """A threshold rule resolved for one calibration size.

    Every rule in the package picks an order statistic of the calibration
    scores at a level fixed by the sample size and the rule's parameters, and
    may add an offset such as a shift radius. Resolving that once lets many
    samples of one size share it. ``index`` is the 1-based order statistic,
    or ``None`` when the threshold is unbounded. ``coverage_bound`` is
    attached to finite thresholds only.
    """

    index: int | None
    level_used: float
    # -0.0 is the additive identity: a rule without an offset keeps the sign
    # of a -0.0 order statistic.
    offset: float = -0.0
    coverage_bound: float | None = None

    def __post_init__(self) -> None:
        # A Python float overflows to inf silently where a numpy scalar warns,
        # and makes every threshold a Python float; float() keeps -0.0.
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def at_level(cls, n: int, level: float, offset: float = -0.0) -> QuantileRule:
        """The ``level``-quantile of ``n`` scores plus ``offset``.

        The one place a level becomes an order statistic. A level within
        ``LEVEL_REL_TOL`` above one snaps to one; past that the rule is
        unbounded and keeps the level for diagnosis, as a float. Raises
        ``ValueError`` unless ``n`` is an integer of at least one, then unless
        ``level`` is a number other than NaN.
        """
        check_count(n, "calibration size")
        if math.isnan(number := as_real(level)):
            raise ValueError(f"quantile level must be a number, got {level!r}")
        if not level_at_most_one(number):
            return cls(None, number)
        number = min(number, 1.0)
        return cls(quantile_index(n, number), number, offset)

    def cutoff(self, sorted_scores) -> float:
        """The threshold on ``sorted_scores`` as a float, ``math.inf`` when unbounded.

        ``sorted_scores`` are ascending and of the resolved size. A threshold
        that overflows is unbounded.
        """
        if self.index is None:
            return math.inf
        value = float(sorted_scores[self.index - 1]) + self.offset
        return value if math.isfinite(value) else math.inf

    def apply(self, sorted_scores) -> ThresholdResult:
        """The threshold on ``sorted_scores``, ascending and of the resolved size.

        A threshold that overflows is unbounded.
        """
        value = self.cutoff(sorted_scores)
        if value == math.inf:
            return ThresholdResult(None, self.level_used)
        return ThresholdResult(value, self.level_used, self.coverage_bound)


def quantile_index(n: int, beta: float) -> int:
    """1-based order statistic of the ``beta``-quantile of ``n`` scores.

    Equals ``ceil(beta * n)``, snapped and clamped to [1, n]. Raises
    ``ValueError`` if ``beta`` is outside (0, 1].
    """
    if not 0.0 < (level := as_real(beta)) <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {beta!r}")
    return min(max(snapped_ceil(level * n), 1), n)


def quantile(sample: ScoreSample, beta: float) -> float:
    """Empirical ``beta``-quantile: the smallest score s with cdf(s) >= beta.

    Equals the ``ceil(beta * n)``-th order statistic (1-indexed, clamped to
    at least 1).

    Raises ``ValueError`` if ``beta`` is outside (0, 1].
    """
    return float(sample.scores[quantile_index(sample.n, beta) - 1])


def cdf(sample: ScoreSample, q: float) -> float:
    """Right-continuous empirical CDF: fraction of scores <= q, 0 at -inf and 1 at inf."""
    if math.isnan(number := as_real(q)):
        raise ValueError(f"cdf argument must not be NaN, got {q!r}")
    return int(np.searchsorted(sample.scores, number, side="right")) / sample.n


def conformal_rule(n: int, alpha: float) -> QuantileRule:
    """:func:`conformal_quantile`'s rule for ``n`` calibration scores."""
    check_count(n, "calibration size")
    alpha = check_alpha(alpha)
    # At least 1: a level within LEVEL_REL_TOL of zero snaps to index 0.
    k = max(snapped_ceil((1.0 - alpha) * (n + 1)), 1)
    return QuantileRule.at_level(n, k / n)


def conformal_quantile(sample: ScoreSample, alpha: float) -> ThresholdResult:
    """Split conformal threshold with the finite-sample correction.

    Returns the quantile at level ``ceil((1 - alpha) * (n + 1)) / n``. When
    that index exceeds ``n`` (small samples), the classical threshold is
    unbounded and the tagged marker is returned instead of an infinity.
    """
    return conformal_rule(sample.n, alpha).apply(sample.scores)
