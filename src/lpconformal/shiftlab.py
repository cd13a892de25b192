"""A sampler of ambiguity-ball members.

It realizes the local-displacement-plus-global-replacement representation of
ball members, on a score sample or on the true-label scores of a score
matrix, and propagates ball parameters through Lipschitz maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ScoreSample, check_finite_positive, check_labels, check_seed
from .lp_metric import LPParams

__all__ = [
    "PerturbationDraw",
    "PerturbationSpec",
    "PointMass",
    "Uniform",
    "perturb_draws",
    "perturb_rows",
    "perturb_sample",
    "propagate_params",
]


@dataclass(frozen=True)
class PointMass:
    """Degenerate law concentrated at ``value``."""

    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError(f"point mass location must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Uniform:
    """Uniform law on the closed interval [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise ValueError("uniform bounds must be finite")
        if self.low > self.high:
            raise ValueError(f"uniform bounds out of order: [{self.low!r}, {self.high!r}]")
        if not np.isfinite(float(self.high) - float(self.low)):
            raise ValueError(
                f"uniform bounds [{self.low!r}, {self.high!r}] are too far apart to sample"
            )


Law = PointMass | Uniform


def _draw_law(law: Law, rng: np.random.Generator, size) -> np.ndarray | float:
    """``size`` draws from ``law``; a point mass is its value as one float, which broadcasts."""
    if isinstance(law, PointMass):
        return float(law.value)
    return rng.uniform(law.low, law.high, size)


@dataclass(frozen=True)
class PerturbationSpec:
    """Recipe for corrupting a score sample inside a known ambiguity ball.

    Each score is independently replaced by a draw from ``global_law`` with
    probability ``rho``; otherwise it is displaced by a draw from
    ``local_law``, whose support must lie in [-epsilon, epsilon]. ``None``
    means the default local law, uniform on [-epsilon, epsilon]. Everything
    is deterministic given ``seed``.
    """

    epsilon: float
    rho: float
    local_law: Law | None = None
    global_law: Law = PointMass(0.0)
    seed: int = 0

    def __post_init__(self) -> None:
        LPParams(self.epsilon, self.rho)  # checks the ball's parameters
        law = self.local_law
        if law is not None:
            lo, hi = (law.value, law.value) if isinstance(law, PointMass) else (law.low, law.high)
            if lo < -self.epsilon or hi > self.epsilon:
                raise ValueError(
                    f"local law support [{lo!r}, {hi!r}] exceeds [-epsilon, epsilon]"
                )
        object.__setattr__(self, "seed", check_seed(self.seed))

    def resolved_local_law(self) -> Law:
        return self._default_local_law if self.local_law is None else self.local_law

    @cached_property
    def _default_local_law(self) -> Uniform:
        # Built on first use, so a width too large to sample raises only when drawn.
        return Uniform(-self.epsilon, self.epsilon)


@dataclass(frozen=True, eq=False)
class PerturbationDraw:
    """Perturbed values plus the mask of globally replaced positions."""

    values: np.ndarray
    replaced: np.ndarray


def _clamp_displacement(values: np.ndarray, center: np.ndarray, eps: float) -> np.ndarray:
    """Nudge values so the realized displacement never exceeds ``eps``.

    Floating-point addition can overshoot the nominal bound by an ulp, which
    would silently break exact ball membership; a couple of nextafter steps
    repair it. A sum that overflowed to ±inf is brought back to ±max double,
    which lies within ``eps`` of a finite center. ``values`` itself is
    returned when no value needs a nudge.
    """
    if not (np.abs(values - center) > eps).any():
        return values
    out = np.array(values, dtype=float)
    for _ in range(4):
        delta = out - center
        over = delta > eps
        under = delta < -eps
        if not (over.any() or under.any()):
            break
        out[over] = np.nextafter(out[over], -np.inf)
        out[under] = np.nextafter(out[under], np.inf)
    return out


def _displace(values: np.ndarray, spec: PerturbationSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw the replacement mask, then the local noise; return the mask and the clamped shift."""
    replaced = rng.random(values.size) < spec.rho
    noise = _draw_law(spec.resolved_local_law(), rng, values.size)
    with np.errstate(over="ignore"):  # the clamp repairs a sum past the largest double
        return replaced, _clamp_displacement(values + noise, values, spec.epsilon)


def perturb_draws(base: ScoreSample, spec: PerturbationSpec) -> PerturbationDraw:
    """Raw perturbation outcome, exposing which atoms were globally replaced.

    The draw order is fixed (replacement mask, then local noise, then global
    draws) so results are reproducible from the seed alone.
    """
    rng = np.random.default_rng(spec.seed)
    replaced, shifted = _displace(base.scores, spec, rng)
    values = np.where(replaced, _draw_law(spec.global_law, rng, base.n), shifted)
    return PerturbationDraw(values=values, replaced=replaced)


def perturb_sample(base: ScoreSample, spec: PerturbationSpec) -> ScoreSample:
    """Corrupt ``base`` according to ``spec``; the result is a valid ball member."""
    return ScoreSample(perturb_draws(base, spec).values)


def perturb_rows(scores: np.ndarray, true_labels: np.ndarray, spec: PerturbationSpec,
                 rng: np.random.Generator) -> np.ndarray:
    """Score-space surrogate for test-time corruption of a score matrix.

    The local component displaces each row's true-label score within
    [-epsilon, epsilon]; the global component redraws the whole score
    profile of a ``rho`` fraction of rows from the global law. The induced
    true-label score distribution is a member of the nominal ball around the
    clean one. Draw order: replacement mask, local noise, global draws.
    Returns a new C-ordered array; ``scores`` is left untouched.
    """
    n_rows, n_labels = scores.shape
    # Checked, since the flat cell of a label outside the row lies in another row.
    true_labels = check_labels(true_labels, n_rows, n_labels)
    out = scores.copy()
    perturb_cells(out.reshape(-1), np.arange(n_rows) * n_labels + true_labels, n_labels, spec, rng)
    return out


def perturb_cells(flat: np.ndarray, cells: np.ndarray, n_labels: int,
                  spec: PerturbationSpec, rng: np.random.Generator) -> np.ndarray:
    """:func:`perturb_rows` in place, on a C-ordered block ``flat`` of rows of ``n_labels``.

    ``cells`` are the flat indices of the rows' true-label cells, already
    checked. Returns the rows' true-label scores after the perturbation.
    """
    # Every row's true cell is displaced, the corrupt rows' too: they are
    # overwritten whole below, so their displacement never shows.
    corrupt, true_scores = _displace(flat[cells], spec, rng)
    flat[cells] = true_scores
    rows = np.flatnonzero(corrupt)  # with no rows, the empty draw takes nothing from rng
    block = flat.reshape(cells.size, n_labels)  # a view, with (0, n_labels) for no rows
    block[rows] = _draw_law(spec.global_law, rng, (rows.size, n_labels))
    true_scores[rows] = flat[cells[rows]]
    return true_scores


def propagate_params(k_lipschitz: float, params: LPParams) -> LPParams:
    """Ball parameters after pushing through a ``k_lipschitz``-Lipschitz map."""
    # Python floats: a numpy scalar would warn where the product overflows.
    epsilon = check_finite_positive(k_lipschitz, "Lipschitz constant") * float(params.epsilon)
    if not np.isfinite(epsilon):
        raise ValueError(f"Lipschitz constant {k_lipschitz!r} times epsilon "
                         f"{params.epsilon!r} overflows")
    return LPParams(epsilon, params.rho)
