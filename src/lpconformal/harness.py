"""File ingestion, split management, and end-to-end method evaluation.

A score matrix holds per-example, per-label nonconformity scores plus the
true label of each row. Evaluation repeatedly splits the rows into a
calibration set (whose true-label scores calibrate a threshold) and a test
set (optionally perturbed), then records coverage and mean prediction-set
size per split. Reports serialize to versioned JSON, byte-identical across
runs with the same configuration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ScoreSample, ThresholdResult, check_alpha
from .lp_metric import LPParams
from .robust import lp_threshold, tv_threshold, winf_threshold
from .baselines import (
    WeightedScores,
    chi2_threshold,
    fg_threshold,
    rscp_threshold,
    sc_threshold,
    weighted_threshold,
)
from .shiftlab import PerturbationSpec, PointMass, perturb_rows

__all__ = [
    "EvalReport",
    "FileFormatError",
    "METHOD_NAMES",
    "MethodSpec",
    "REPORT_SCHEMA_VERSION",
    "ScoreMatrix",
    "SplitResult",
    "compare",
    "evaluate",
    "read_matrix",
    "read_scores",
    "read_weighted_scores",
    "split",
    "write_report_csv",
]

REPORT_SCHEMA_VERSION = 1

METHOD_NAMES = ("sc", "lp", "tv", "winf", "chi2", "weighted", "rscp", "fg")


class FileFormatError(Exception):
    """An input file could not be parsed."""


@dataclass(frozen=True)
class ScoreMatrix:
    """Rectangular matrix of nonconformity scores with per-row true labels."""

    scores: np.ndarray
    true_labels: np.ndarray

    def __init__(self, scores, true_labels) -> None:
        s = np.asarray(scores, dtype=float)
        labels = np.asarray(true_labels)
        if labels.dtype.kind == "f" and not np.all(labels == np.floor(labels)):
            raise ValueError("true labels must be integers")
        try:
            t = np.asarray(true_labels, dtype=int)
        except OverflowError as exc:
            raise ValueError("true labels must index a matrix column") from exc
        if s.ndim != 2 or s.shape[1] == 0:
            raise ValueError("score matrix must be 2-d with at least one label column")
        if not np.all(np.isfinite(s)):
            raise ValueError("score matrix entries must be finite")
        if t.shape != (s.shape[0],):
            raise ValueError("true labels must be one per matrix row")
        if np.any(t < 0) or np.any(t >= s.shape[1]):
            raise ValueError("true labels must index a matrix column")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "true_labels", t)

    @property
    def n_rows(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_labels(self) -> int:
        return int(self.scores.shape[1])


@dataclass(frozen=True)
class MethodSpec:
    """A named threshold method plus the parameters it needs.

    ``weights`` (optional) supplies per-row likelihood ratios for the
    weighted methods, aligned with the score matrix rows; uniform weights
    are used when omitted.
    """

    name: str
    epsilon: float = 0.0
    rho: float = 0.0
    rho_chi2: float = 0.0
    delta: float = 0.0
    sigma: float = 1.0
    test_weight: float = 1.0
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; expected one of {METHOD_NAMES}")
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    def threshold(
        self, calib: ScoreSample, alpha: float, row_weights: np.ndarray | None = None
    ) -> ThresholdResult:
        """Calibrate this method's threshold on a calibration sample.

        ``row_weights`` (weighted methods only) must be aligned with
        ``calib.scores``, which are sorted ascending: entry ``i`` is the
        weight of the ``i``-th smallest calibration score.
        """
        if self.name == "sc":
            return sc_threshold(calib, alpha)
        if self.name == "lp":
            return lp_threshold(calib, alpha, LPParams(self.epsilon, self.rho))
        if self.name == "tv":
            return tv_threshold(calib, alpha, self.rho)
        if self.name == "winf":
            return winf_threshold(calib, alpha, self.epsilon)
        if self.name == "chi2":
            return chi2_threshold(calib, alpha, self.rho_chi2)
        if self.name == "rscp":
            return rscp_threshold(calib, alpha, self.delta, self.sigma)
        w = row_weights if row_weights is not None else np.ones(calib.n)
        ws = WeightedScores(calib.scores, w, self.test_weight)
        if self.name == "weighted":
            return weighted_threshold(ws, alpha)
        return fg_threshold(ws, alpha, self.rho_chi2)

    def params_dict(self) -> dict:
        out: dict = {"epsilon": self.epsilon, "rho": self.rho}
        if self.name in ("chi2", "fg"):
            out["rho_chi2"] = self.rho_chi2
        if self.name == "rscp":
            out.update(delta=self.delta, sigma=self.sigma)
        if self.name in ("weighted", "fg"):
            out["test_weight"] = self.test_weight
        return out


@dataclass(frozen=True)
class SplitResult:
    coverage: float
    mean_set_size: float


@dataclass(frozen=True)
class EvalReport:
    """Per-split and aggregate coverage/efficiency for one method."""

    method: str
    alpha: float
    n_splits: int
    n_calib: int
    k_test: int
    base_seed: int
    params: dict
    perturbation: dict | None
    per_split: tuple[SplitResult, ...]
    coverage_mean: float
    coverage_std: float
    set_size_mean: float
    set_size_std: float

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": {
                "method": self.method,
                "alpha": self.alpha,
                "splits": self.n_splits,
                "n_calib": self.n_calib,
                "k_test": self.k_test,
                "seed": self.base_seed,
                "params": self.params,
                "perturbation": self.perturbation,
            },
            "per_split": [
                {"coverage": r.coverage, "mean_set_size": r.mean_set_size}
                for r in self.per_split
            ],
            "aggregate": {
                "coverage_mean": self.coverage_mean,
                "coverage_std": self.coverage_std,
                "set_size_mean": self.set_size_mean,
                "set_size_std": self.set_size_std,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _law_dict(law) -> dict:
    if isinstance(law, PointMass):
        return {"kind": "point", "value": law.value}
    return {"kind": "uniform", "low": law.low, "high": law.high}


def perturbation_dict(spec: PerturbationSpec) -> dict:
    return {
        "epsilon": spec.epsilon,
        "rho": spec.rho,
        "local_law": _law_dict(spec.resolved_local_law()),
        "global_law": _law_dict(spec.global_law),
        "seed": int(spec.seed),
    }


def _split_indices(
    n_rows: int, n_calib: int, k_test: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    if n_calib < 1 or k_test < 0:
        raise ValueError("need n_calib >= 1 and k_test >= 0")
    if n_calib + k_test > n_rows:
        raise ValueError(
            f"n_calib + k_test = {n_calib + k_test} exceeds the {n_rows} available rows"
        )
    perm = np.random.default_rng(seed).permutation(n_rows)
    return perm[:n_calib], perm[n_calib : n_calib + k_test]


def split(
    matrix: ScoreMatrix, n_calib: int, k_test: int, seed
) -> tuple[ScoreSample, ScoreMatrix]:
    """Uniform without-replacement split, deterministic per seed.

    Returns the calibration rows' true-label scores as a sample, and the
    test rows as a (sub)matrix.
    """
    calib_idx, test_idx = _split_indices(matrix.n_rows, n_calib, k_test, seed)
    calib = ScoreSample(matrix.scores[calib_idx, matrix.true_labels[calib_idx]])
    test = ScoreMatrix(matrix.scores[test_idx], matrix.true_labels[test_idx])
    return calib, test


def evaluate(
    matrix: ScoreMatrix,
    method: MethodSpec,
    alpha: float,
    n_splits: int,
    n_calib: int,
    k_test: int,
    base_seed: int,
    perturbation: PerturbationSpec | None = None,
    redraw_per_split: bool = True,
) -> EvalReport:
    """Coverage and efficiency of one method: :func:`compare` with one method."""
    return compare(
        matrix, [method], alpha, n_splits, n_calib, k_test, base_seed,
        perturbation=perturbation, redraw_per_split=redraw_per_split,
    )[0]


def compare(
    matrix: ScoreMatrix,
    methods: Sequence[MethodSpec],
    alpha: float,
    n_splits: int,
    n_calib: int,
    k_test: int,
    base_seed: int,
    perturbation: PerturbationSpec | None = None,
    redraw_per_split: bool = True,
) -> list[EvalReport]:
    """Coverage and efficiency of several methods on identical splits.

    Each split draws a calibration/test partition keyed by
    ``(base_seed, split index)``, so splits are reproducible independently
    of evaluation order. Perturbations apply to test rows only; by default
    they are redrawn per split, or drawn once for the whole matrix when
    ``redraw_per_split`` is false. Each split and perturbation is drawn once
    and shared by every method, so the reports are paired. Arguments are
    checked before any split runs. A threshold error is re-raised naming its
    split; when several methods fail, the first one in list order wins.
    """
    methods = list(methods)
    check_alpha(alpha)
    if n_splits < 1:
        raise ValueError(f"need at least one split, got {n_splits!r}")
    if k_test < 1:
        raise ValueError(f"need at least one test row, got {k_test!r}")
    if base_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {base_seed!r}")
    for method in methods:
        if method.weights is not None and method.weights.shape != (matrix.n_rows,):
            raise ValueError(
                f"method weights have {method.weights.size} entries for "
                f"{matrix.n_rows} matrix rows; need one per row"
            )
    if not methods:
        return []
    fixed_perturbed: np.ndarray | None = None
    if perturbation is not None and not redraw_per_split:
        rng = np.random.default_rng([int(perturbation.seed), base_seed, 1])
        fixed_perturbed = perturb_rows(matrix.scores, matrix.true_labels, perturbation, rng)
    results: list[list[SplitResult]] = [[] for _ in methods]
    failures: dict[int, tuple[ValueError, ValueError]] = {}
    for j in range(n_splits):
        calib_idx, test_idx = _split_indices(matrix.n_rows, n_calib, k_test, [base_seed, j, 0])
        calib_raw = matrix.scores[calib_idx, matrix.true_labels[calib_idx]]
        calib = ScoreSample(calib_raw)
        # The row of each of calib's sorted scores, to pair per-row weights.
        calib_rows = calib_idx[np.argsort(calib_raw, kind="stable")]
        test_scores = matrix.scores[test_idx]
        test_labels = matrix.true_labels[test_idx]
        if fixed_perturbed is not None:
            test_scores = fixed_perturbed[test_idx]
        elif perturbation is not None:
            rng = np.random.default_rng([int(perturbation.seed), base_seed, j, 1])
            test_scores = perturb_rows(test_scores, test_labels, perturbation, rng)
        true_scores = test_scores[np.arange(k_test), test_labels]
        for i, method in enumerate(methods):
            if i in failures:
                continue
            weights = None if method.weights is None else method.weights[calib_rows]
            try:
                thr = method.threshold(calib, alpha, weights)
            except ValueError as exc:
                failures[i] = (type(exc)(f"split {j}: {exc}"), exc)
                continue
            cutoff = np.inf if thr.is_unbounded else thr.threshold
            results[i].append(SplitResult(
                coverage=int(np.count_nonzero(true_scores <= cutoff)) / k_test,
                mean_set_size=int(np.count_nonzero(test_scores <= cutoff)) / k_test,
            ))
        if 0 in failures:  # the first method's error takes precedence
            break
    if failures:
        error, cause = failures[min(failures)]
        raise error from cause
    ddof = 1 if n_splits > 1 else 0
    config = dict(alpha=alpha, n_splits=n_splits, n_calib=n_calib, k_test=k_test,
                  base_seed=base_seed)
    reports = []
    for method, per_split in zip(methods, results):
        coverages = np.array([r.coverage for r in per_split])
        sizes = np.array([r.mean_set_size for r in per_split])
        reports.append(EvalReport(
            method=method.name,
            params=method.params_dict(),
            perturbation=None if perturbation is None else perturbation_dict(perturbation),
            per_split=tuple(per_split),
            coverage_mean=float(coverages.mean()),
            coverage_std=float(coverages.std(ddof=ddof)),
            set_size_mean=float(sizes.mean()),
            set_size_std=float(sizes.std(ddof=ddof)),
            **config,
        ))
    return reports


# ---------------------------------------------------------------------------
# File ingestion


def _records(path):
    """Yield ``(line, fields)`` for each non-blank CSV record of ``path``.

    ``line`` numbers the records from 1, blank ones included. Every format's
    header, where it has one, is the first record yielded. A leading UTF-8
    byte-order mark is dropped. A file that is not UTF-8 text or not
    well-formed CSV raises :class:`FileFormatError`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for line, fields in enumerate(csv.reader(fh), start=1):
                if len(fields) > 1 or (fields and fields[0].strip()):
                    yield line, fields
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FileFormatError(f"{path}: {exc}") from exc


def _build(path, kind, *args):
    """``kind(*args)``, with its ``ValueError`` re-raised as a file error."""
    try:
        return kind(*args)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def read_scores(path, has_header: bool = False) -> ScoreSample:
    """Parse a one-score-per-line CSV file into a sample.

    Blank lines are skipped; with ``has_header`` the first non-blank line is
    the header.
    """
    records = _records(path)
    if has_header:
        next(records, None)
    values = []
    for line, fields in records:
        try:
            values.append(float(fields[0]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line}: not a score: {fields[0]!r}") from exc
    return _build(path, ScoreSample, values)


def read_weighted_scores(path, test_weight: float) -> WeightedScores:
    """Parse a CSV with header ``score,weight`` into weighted scores.

    A bad ``test_weight`` raises ``ValueError``, not :class:`FileFormatError`.
    """
    records = _records(path)
    _, header = next(records, (None, None))
    if header is None or [c.strip().lower() for c in header[:2]] != ["score", "weight"]:
        raise FileFormatError(f"{path}: expected header 'score,weight'")
    scores, weights = [], []
    for line, fields in records:
        if len(fields) < 2:
            raise FileFormatError(f"{path}:{line}: expected two columns")
        try:
            scores.append(float(fields[0]))
            weights.append(float(fields[1]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line}: bad number in {fields!r}") from exc
    # The file is checked on its own first, so a bad test weight is no file error.
    ws = _build(path, WeightedScores, scores, weights, 1.0)
    return WeightedScores(ws.scores, ws.weights, test_weight)


def read_matrix(path) -> ScoreMatrix:
    """Parse a score-matrix CSV with header ``true_label,s_0,...,s_{L-1}``."""
    records = _records(path)
    _, header = next(records, (None, None))
    if header is None or header[0].strip().lower() != "true_label":
        raise FileFormatError(f"{path}: expected header starting with 'true_label'")
    width = len(header)
    if width < 2:
        raise FileFormatError(f"{path}: header names no score columns")
    labels, rows = [], []
    for line, fields in records:
        if len(fields) != width:
            raise FileFormatError(f"{path}:{line}: expected {width} fields, got {len(fields)}")
        try:
            labels.append(int(fields[0]))
            rows.append([float(v) for v in fields[1:]])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line}: bad number in {fields!r}") from exc
    return _build(path, ScoreMatrix, rows, labels)


def write_report_csv(reports: Sequence[EvalReport], path) -> None:
    """Plot-ready per-split table for one or more reports."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "split", "coverage", "mean_set_size"])
        for report in reports:
            for j, r in enumerate(report.per_split):
                writer.writerow([report.method, j, repr(r.coverage), repr(r.mean_set_size)])
