"""File ingestion, split management, and end-to-end method evaluation.

A score matrix holds per-example, per-label nonconformity scores plus the
true label of each row. Evaluation repeatedly splits the rows into a
calibration set (whose true-label scores calibrate a threshold) and a test
set (optionally perturbed), then records coverage and mean prediction-set
size per split. Reports serialize to versioned JSON, byte-identical across
runs with the same configuration.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import math
import os
import stat
import threading
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (QuantileRule, ScoreSample, ThresholdResult, check_alpha, check_count,
                   check_finite_nonnegative, check_finite_positive, check_labels,
                   check_probability, check_seed, conformal_rule, usable_cpus)
from .lp_metric import LPParams
from .robust import lp_rule
from .baselines import (
    WeightedScores,
    chi2_rule,
    check_weights,
    fg_rule,
    rscp_rule,
    weight_total,
)
from .shiftlab import PerturbationSpec, PointMass, perturb_cells, perturb_rows

__all__ = [
    "EvalReport",
    "FileFormatError",
    "METHOD_NAMES",
    "MethodSpec",
    "REPORT_SCHEMA_VERSION",
    "ScoreMatrix",
    "SplitResult",
    "WEIGHTED_METHODS",
    "compare",
    "evaluate",
    "read_matrix",
    "read_scores",
    "read_weighted_scores",
    "write_report_csv",
]

REPORT_SCHEMA_VERSION = 1

# The parameters each method's rule reads, which its reports record. A rule
# reads a field its method does not name at the field's default: ``tv`` is
# ``lp`` at ``epsilon = 0``, ``winf`` is ``lp`` at ``rho = 0`` and ``weighted``
# is ``fg`` at ``rho_chi2 = 0``.
_RULE_PARAMS = {
    "sc": (),
    "lp": ("epsilon", "rho"),
    "tv": ("rho",),
    "winf": ("epsilon",),
    "chi2": ("rho_chi2",),
    "weighted": ("test_weight",),
    "rscp": ("delta", "sigma"),
    "fg": ("rho_chi2", "test_weight"),
}
METHOD_NAMES = tuple(_RULE_PARAMS)
# The methods that read per-row weights: ``weighted`` is ``fg`` at ``rho_chi2 = 0``.
WEIGHTED_METHODS = ("weighted", "fg")


class FileFormatError(Exception):
    """An input file could not be parsed."""


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Rectangular matrix of nonconformity scores with per-row true labels."""

    scores: np.ndarray
    true_labels: np.ndarray

    def __init__(self, scores, true_labels) -> None:
        s = np.asarray(scores, dtype=float)
        if s.ndim != 2 or s.shape[1] == 0:
            raise ValueError("score matrix must be 2-d with at least one label column")
        # NaN propagates through min and max, so no mask is built.
        if s.size and not (math.isfinite(s.min()) and math.isfinite(s.max())):
            raise ValueError("score matrix entries must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "true_labels", check_labels(true_labels, *s.shape))

    @property
    def n_rows(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_labels(self) -> int:
        return int(self.scores.shape[1])


@dataclass(frozen=True, eq=False)
class MethodSpec:
    """A named threshold method plus the parameters it needs.

    Every scalar field is checked when the spec is built, whether or not the
    method's rule reads it, and stored as the float its check returned.
    ``weights`` (optional, ``WEIGHTED_METHODS`` only) supplies per-row
    likelihood ratios aligned with the score matrix rows; uniform weights are
    used when omitted.
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
        checked = dict(
            epsilon=check_finite_nonnegative(self.epsilon, "epsilon"),
            rho=check_probability(self.rho, "rho"),
            rho_chi2=check_finite_nonnegative(self.rho_chi2, "rho_chi2"),
            delta=check_finite_nonnegative(self.delta, "delta"),
            sigma=check_finite_positive(self.sigma, "sigma"),
            test_weight=check_finite_positive(self.test_weight, "test weight"),
        )
        for key, value in checked.items():
            object.__setattr__(self, key, value)
        if self.weights is not None:
            if self.name not in WEIGHTED_METHODS:
                raise ValueError(f"method {self.name!r} reads no per-row weights; "
                                 f"only {WEIGHTED_METHODS} do")
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    def rule(self, n: int, alpha: float, sorted_weights: np.ndarray | None = None) -> QuantileRule:
        """This method's threshold rule resolved for ``n`` calibration scores.

        The rule reads the fields :meth:`params_dict` names, and every other
        field at its default. ``sorted_weights`` (read by the ``WEIGHTED_METHODS``
        only) are the scores' weights in ascending score order
        (``WeightedScores.by_score``), each one when None. Their sums are exact,
        so the order of tied rows does not matter. Raises ``ValueError`` for
        every method unless ``n`` is an integer of at least one.
        """
        p = _DEFAULTS | self.params_dict()
        if self.name == "sc":
            return conformal_rule(n, alpha)
        if self.name in ("lp", "tv", "winf"):
            return lp_rule(n, alpha, LPParams(p["epsilon"], p["rho"]))
        if self.name == "chi2":
            return chi2_rule(n, alpha, p["rho_chi2"])
        if self.name in WEIGHTED_METHODS:
            return fg_rule(n, alpha, p["rho_chi2"], p["test_weight"], sorted_weights)
        return rscp_rule(n, alpha, p["delta"], p["sigma"])

    def threshold(self, calib: ScoreSample, alpha: float) -> ThresholdResult:
        """Calibrate this method's threshold with unit weights; :meth:`rule` takes per-row ones."""
        return self.rule(calib.n, alpha).apply(calib.scores)

    def params_dict(self) -> dict:
        """The parameters this method's rule reads, each as the float it was checked to."""
        return {key: getattr(self, key) for key in _RULE_PARAMS[self.name]}


# Each field's default, which a rule reads for every field its method does not name.
_DEFAULTS = {f.name: f.default for f in fields(MethodSpec)}


@dataclass(frozen=True)
class SplitResult:
    coverage: float
    mean_set_size: float

    @cached_property
    def texts(self) -> tuple[str | None, str | None]:
        """The :func:`_float_text` of coverage and mean set size, which both report writers use."""
        return _float_text(self.coverage), _float_text(self.mean_set_size)


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
        """The text of ``json.dumps(self.to_dict(), sort_keys=True, indent=2)``.

        ``json.dumps`` lays out every key with ``per_split`` empty. Only a
        top-level key follows a line break and exactly two spaces, since JSON
        strings escape their line breaks, so the one ``per_split`` line is then
        replaced by entries from a fixed template filled with each
        ``SplitResult``'s ``texts``.
        """
        payload = replace(self, per_split=()).to_dict()
        text = json.dumps(payload, sort_keys=True, indent=2)
        if not self.per_split:
            return text
        entries = ",\n".join(
            '    {\n      "coverage": %s,\n      "mean_set_size": %s\n    }'
            % (c or json.dumps(r.coverage), s or json.dumps(r.mean_set_size))
            for r in self.per_split
            for c, s in (r.texts,)
        )
        return text.replace('\n  "per_split": []', f'\n  "per_split": [\n{entries}\n  ]')


def _float_text(value) -> str | None:
    """The repr of a finite ``float``, which ``json`` and ``csv`` both write for it.

    None for any other value: JSON writes ``NaN`` where CSV writes ``nan``,
    and ints and bools have texts of their own.
    """
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return None


def reports_json(reports: Sequence[EvalReport]) -> str:
    """``json.dumps({"reports": [r.to_dict() for r in reports]}, sort_keys=True, indent=2)``."""
    if not reports:
        return '{\n  "reports": []\n}'
    # Each report is an item of the array one level into the wrapper object.
    items = ",\n".join("    " + report.to_json().replace("\n", "\n    ") for report in reports)
    return f'{{\n  "reports": [\n{items}\n  ]\n}}'


def _law_dict(law) -> dict:
    if isinstance(law, PointMass):
        return {"kind": "point", "value": law.value}
    return {"kind": "uniform", "low": law.low, "high": law.high}


def perturbation_dict(spec: PerturbationSpec) -> dict:
    return {
        "epsilon": spec.epsilon,
        "rho": spec.rho,
        "local_law": _law_dict(spec.local_law),
        "global_law": _law_dict(spec.global_law),
        "seed": spec.seed,
    }


def _split_indices(
    n_rows: int, n_calib: int, k_test: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    perm = np.random.default_rng(seed).permutation(n_rows)
    return perm[:n_calib], perm[n_calib : n_calib + k_test]


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

    Split ``j`` draws its calibration/test partition keyed by
    ``(base_seed, j)``, so splits are reproducible in any evaluation order.
    Perturbations apply to test rows only: redrawn per split, or drawn once
    for the whole matrix when ``redraw_per_split`` is false. Each split and
    perturbation is drawn once and shared by every method, so the reports are
    paired. Every split calibrates on ``n_calib`` scores, so each method's
    rule is resolved once, or per split from that split's weights for a
    method with per-row weights. Methods whose thresholds coincide in a split
    share that split's coverage and set-size counts. The test block and the
    masks that count it are allocated once per call. Every error is raised
    before the first split: the arguments, split sizes, per-row weights and
    their totals are checked in that order, then the rules are resolved in
    list order and the first rule error is re-raised with the prefix ``split 0:``.
    Each spec checked its parameters when built, so such an error depends on
    ``n_calib``.
    """
    methods = list(methods)
    alpha = check_alpha(alpha)
    n_splits = check_count(n_splits, "number of splits")
    k_test = check_count(k_test, "number of test rows")
    n_calib = check_count(n_calib, "calibration size")
    seed = check_seed(base_seed)
    if n_calib + k_test > matrix.n_rows:
        raise ValueError(
            f"n_calib + k_test = {n_calib + k_test} exceeds the {matrix.n_rows} available rows"
        )
    for method in methods:
        if method.weights is None:
            continue
        if method.weights.shape != (matrix.n_rows,):
            have = (f"{method.weights.size} entries" if method.weights.ndim == 1
                    else f"shape {method.weights.shape}")
            raise ValueError(
                f"method weights have {have} for {matrix.n_rows} matrix rows; need one per row"
            )
        # Which rows calibrate is known only once the splits are drawn, so every
        # row's weight is checked, also rows that no split draws, and their total.
        check_weights(method.weights)
        weight_total(method.weights.tolist(), method.test_weight)
    try:
        rules = [method.rule(n_calib, alpha) for method in methods]
    except ValueError as exc:
        raise type(exc)(f"split 0: {exc}") from exc
    if not methods:
        return []
    source = matrix.scores
    if perturbation is not None and not redraw_per_split:
        rng = np.random.default_rng([perturbation.seed, seed, 1])
        source = perturb_rows(matrix.scores, matrix.true_labels, perturbation, rng)
    results: list[list[SplitResult]] = [[] for _ in methods]
    per_row = any(method.weights is not None for method in methods)
    # Row r's true-label score is cell r * n_labels + label of the scores in C order.
    row_true = matrix.scores.reshape(-1)[
        np.arange(matrix.n_rows) * matrix.n_labels + matrix.true_labels
    ]
    test_cells = np.arange(k_test) * matrix.n_labels
    redraw = perturbation is not None and redraw_per_split
    # One C-ordered test block and its masks, overwritten by every split.
    test_scores = np.empty((k_test, matrix.n_labels))
    test_flat = test_scores.reshape(-1)
    cell_mask = np.empty(test_flat.size, dtype=bool)
    row_mask = np.empty(k_test, dtype=bool)
    for j in range(n_splits):
        calib_idx, test_idx = _split_indices(matrix.n_rows, n_calib, k_test, [seed, j, 0])
        calib_raw = row_true[calib_idx]
        # The matrix's scores are checked finite, so the sorted copy is the split's sample.
        calib = np.sort(calib_raw)
        if per_row:
            # The row of each of calib's sorted scores, to pair per-row weights.
            calib_rows = calib_idx[np.argsort(calib_raw, kind="stable")]
        # test_idx holds row numbers of source, so "clip" never acts; under the
        # default "raise", np.take would buffer a whole block before writing out.
        np.take(source, test_idx, axis=0, out=test_scores, mode="clip")
        cells = test_cells + matrix.true_labels[test_idx]
        if redraw:
            rng = np.random.default_rng([perturbation.seed, seed, j, 1])
            true_scores = perturb_cells(test_flat, cells, matrix.n_labels, perturbation, rng)
        else:
            true_scores = test_flat[cells]
        counts: dict[float, SplitResult] = {}  # equal cutoffs (-0.0 and 0.0 too) share one count
        for method, rule, per_split in zip(methods, rules, results):
            if method.weights is not None:
                rule = method.rule(n_calib, alpha, method.weights[calib_rows])
            cutoff = rule.cutoff(calib)
            if cutoff not in counts:
                covered = np.less_equal(true_scores, cutoff, out=row_mask)
                members = np.less_equal(test_flat, cutoff, out=cell_mask)
                counts[cutoff] = SplitResult(
                    coverage=int(np.count_nonzero(covered)) / k_test,
                    mean_set_size=int(np.count_nonzero(members)) / k_test,
                )
            per_split.append(counts[cutoff])
    ddof = 1 if n_splits > 1 else 0
    config = dict(alpha=alpha, n_splits=n_splits, n_calib=n_calib, k_test=k_test,
                  base_seed=seed,
                  perturbation=None if perturbation is None else perturbation_dict(perturbation))
    reports = []
    for method, per_split in zip(methods, results):
        coverages = np.array([r.coverage for r in per_split])
        sizes = np.array([r.mean_set_size for r in per_split])
        reports.append(EvalReport(
            method=method.name,
            params=method.params_dict(),
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

# The most bytes of its last field that ``_loadtxt`` moves at a time.
_MOVE_BYTES = 256 << 10

# The name suffixes on which numpy's DataSource opens a path through a
# decompressor (``np.lib._datasource._file_openers``).
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# The smallest file that ``_loadtxt`` parses in two halves on two processes.
_SPLIT_BYTES = 2 << 20


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


def _parse(source, skiprows, options):
    """``np.loadtxt`` of ``source`` as ``_loadtxt`` reads every file, with each warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(source, delimiter=",", comments=None, skiprows=skiprows, ndmin=1,
                          encoding="utf-8-sig", **options)


def _split_point(fh, half, header_line):
    """Where ``_loadtxt`` splits the binary file ``fh``, read to its end: ``(offset, lines)``.

    ``offset`` is just past the first line end at or after the file's middle,
    and ``lines`` counts the lines before it as universal newlines do: a
    ``\r\n`` or a lone ``\r`` ends one line, as ``\n`` does. The byte checks
    found a line end in every full block of ``half`` bytes, so the ``2 * half``
    bytes from the middle hold one unless the file ends first. Returns None
    when they hold none, when the first one ends the file, or when the lines
    before ``offset`` are no more than the header's ``header_line``.
    """
    size = fh.tell()
    fh.seek(size // 2)
    window = fh.read(2 * half)
    ends = [i for i in (window.find(b"\n"), window.find(b"\r")) if i >= 0]
    if not ends:
        return None
    fh.seek(size // 2 + min(ends))
    offset = fh.tell() + (2 if fh.read(2) == b"\r\n" else 1)
    fh.seek(0)
    lines, carriage = 0, False
    while (left := offset - fh.tell()) > 0:
        block = fh.read(min(half, left))
        # A \r\n split between two blocks is one line end.
        lines += block.count(b"\n") - (carriage and block.startswith(b"\n"))
        if b"\r" in block:
            lines += block.count(b"\r") - block.count(b"\r\n")
        carriage = block.endswith(b"\r")
    return (offset, lines) if offset < size and lines > header_line else None


def _parse_halves(path, header_line, split, options):
    """``_parse`` of ``path``'s data records, its two halves parsed at once, or None.

    ``split`` is ``_split_point``'s ``(offset, lines)``. A forked child
    parses the lines from ``offset`` on and writes their row count and
    records into a pipe. Meanwhile this process parses the ``lines`` lines
    before ``offset``, skipping ``header_line`` of them, grows that array in
    place and reads the child's records into its end. No whole-array copy is
    made. Both halves are whole lines, read as text through universal
    newlines and parsed with the same options, so the array is the serial
    call's, bit for bit.

    Returns None, for the serial call to decide the file, when either half
    raises or warns, the child exits non-zero or is killed, the pipe ends
    short, or ``os.fork`` raises ``OSError``.

    The caller is the process's only Python thread, so no Python lock is
    held across the fork. Other OS threads, such as a BLAS pool, may run;
    Python 3.12 and later warn on such a fork, and the warning is silenced
    here. The child is safe still: it touches only its own file descriptors,
    numpy's parser and ``os._exit``, in which it always ends, so it never
    returns into the caller's stack or runs its exit handlers. It runs with
    every signal blocked, so Ctrl-C cannot raise there; ``SIGKILL`` still
    ends it. This process reaps the child on every path, killing it first
    when this process leaves early, and closes both ends of the pipe. Should
    this process die unhandled, the child's next write fails and it exits.
    """
    # Imported here: no other path pays signal's import at start-up.
    import signal

    offset, lines = split
    reader, writer = os.pipe()
    child = None
    try:
        # Blocked in the child for good, so that no Python signal handler,
        # such as the one raising KeyboardInterrupt, runs there outside its
        # try. This process blocks them only across the fork.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                child = os.fork()
        except OSError:
            return None
        finally:
            if child != 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if child == 0:
            code = 1
            try:
                # With this process's read end closed, a write fails rather
                # than blocks once the caller is gone.
                os.close(reader)
                with open(path, "rb") as raw:
                    raw.seek(offset)
                    with io.TextIOWrapper(raw, encoding="utf-8-sig") as text:
                        tail = _parse(text, 0, options)
                for data in (len(tail).to_bytes(8, "little"), tail.view(np.uint8)):
                    data = memoryview(data)
                    while data:
                        data = data[os.write(writer, data):]
                code = 0
            finally:
                os._exit(code)
        os.close(writer)
        writer = None
        with open(reader, "rb", closefd=False) as pipe:
            try:
                with open(path, encoding="utf-8-sig") as text:
                    parsed = _parse(itertools.islice(text, lines), header_line, options)
                head = len(parsed)
                # The loadtxt result owns its buffer, which grows in place.
                parsed.resize(head + int.from_bytes(pipe.read(8), "little"), refcheck=False)
            except (ValueError, Warning):
                return None
            pipe.readinto(parsed.view(np.uint8)[head * parsed.itemsize:])
        _, status = os.waitpid(child, 0)
        child = None
        # The child exits 0 only once it has written every record, so a short
        # read is a failed child.
        return parsed if status == 0 else None
    finally:
        if child:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
        os.close(reader)
        if writer is not None:
            os.close(writer)


def _loadtxt(path, header_line, **options):
    """The data records of ``path`` read by ``np.loadtxt``, as a tuple of columns.

    ``options`` give a structured ``dtype``, whose fields become the contiguous
    columns, and the ``usecols`` it reads. ``header_line`` is the header's record
    number, on any line, or 0 for a file without one. The caller checks the values.

    A file past one block goes to numpy by its path, which numpy reads in
    50 000-character chunks. A smaller file goes as an open file, which numpy
    reads one line at a time: opening a path through numpy's DataSource layer
    costs about as much as parsing a 200-line file. Two guards hold on the
    name. A name ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, which
    numpy would decompress, goes as an open file. A relative name is joined
    to ``os.curdir``, so that numpy takes no name such as ``s3://b/x.csv``
    for a URL.

    A file read by its path and of at least ``_SPLIT_BYTES`` (2 MiB) is
    parsed in two halves at once, in this process and in a forked child
    (``_parse_halves``), when ``os.fork`` exists, this is the process's only
    Python thread and the process may use two or more CPUs. ``np.loadtxt``
    holds the GIL, so only a second process parses the second half in
    parallel. The halves give the serial call's array bit for bit, and
    whenever they give none the serial call runs, so it alone decides which
    files go to the ``_records`` parser: values and messages do not depend
    on the split.

    Every column but the last is a copy. The last shares numpy's record
    buffer: its bytes are moved to the front of that buffer, in blocks of at
    most 256 KiB or one row, so that the file's values are held once.

    Returns None whenever numpy's result could differ from the caller's
    ``_records`` parser, which then reads the file: that parser alone reports
    format errors, and it reads every token that ``int()`` and ``float()``
    read. numpy reads a subset of those tokens to the same bits, except in
    the cases below, which all return None. The byte checks hold one aligned
    block of half ``csv.field_size_limit()`` bytes at a time.

    - ``path`` is not a regular file. A pipe can be read only once, by the
      ``_records`` parser.
    - ``header_line`` is None: the file has no header record.
    - A byte is not ASCII (a leading byte-order mark aside). numpy reads many
      non-ASCII characters as integer digits: numpy 2.4 reads the label "Ǿ"
      as 462, where ``int()`` raises.
    - A byte is a double quote. ``csv`` joins a quoted field across commas and
      lines, and a quote in a column ``usecols`` skips does not make numpy fail.
    - A byte is one of the separators 0x1C-0x1F. numpy strips them around a
      number as whitespace; ``int()`` and ``float()`` do not.
    - A line may be longer than ``csv.field_size_limit()``: a full block holds
      no ``\n`` or ``\r`` line end. numpy reads a field that long, where
      ``csv`` raises.
    - ``np.loadtxt`` raises: a bad or out-of-range number, a row of the wrong
      width, a whitespace-only line, or a token only Python reads, such as
      ``1_0`` or ``١``.
    - ``np.loadtxt`` warns. It warns on a file without data records, and
      numpy before 2.0 reads a label ``1.0`` as an integer with a warning.
    """
    if header_line is None or not os.path.isfile(path):
        return None
    half = max(csv.field_size_limit() // 2, 1)
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        while block := fh.read(half):
            if (
                not block.isascii()
                or any(byte in block for byte in b'"\x1c\x1d\x1e\x1f')
                or len(block) == half and b"\n" not in block and b"\r" not in block
            ):
                return None
        # numpy reads the path of a file past one block in chunks, unless it
        # would decompress the file by its name. Joined to os.curdir, a
        # relative name is no URL to numpy; os.path.abspath would drop
        # "link/.." by its text and could name another file.
        name = os.fsdecode(path)
        source = split = None
        if fh.tell() > half and not name.endswith(_COMPRESSED):
            source = os.path.join(os.curdir, name)
            if (fh.tell() >= _SPLIT_BYTES and hasattr(os, "fork")
                    and threading.active_count() == 1 and usable_cpus() >= 2):
                split = _split_point(fh, half, header_line)
    parsed = None if split is None else _parse_halves(path, header_line, split, options)
    if parsed is None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                parsed = _parse(source or fh, header_line, options)
        except (ValueError, Warning):
            return None
    # A copy, not np.ascontiguousarray: that returns a view of a one-row
    # field, which the move below would overwrite.
    *head, last = parsed.dtype.names
    columns = [parsed[name].copy() for name in head]
    last_type, offset = parsed.dtype.fields[last][:2]
    size, n = last_type.itemsize, len(parsed)
    buffer = parsed.view(np.uint8)
    if size < parsed.itemsize:
        records = buffer.reshape(n, -1)[:, offset:offset + size]
        packed = buffer[:n * size].reshape(n, size)
        # Each block's target ends before the next block's records start;
        # numpy buffers the overlap within a block.
        step = max(_MOVE_BYTES // size, 1)
        for start in range(0, n, step):
            packed[start:start + step] = records[start:start + step]
    return (*columns, buffer[:n * size].view(last_type.base).reshape((n, *last_type.shape)))


def read_scores(path, has_header: bool = False) -> ScoreSample:
    """Parse a one-score-per-line CSV file into a sample.

    Blank lines are skipped; with ``has_header`` the first non-blank line is
    the header.
    """
    records = _records(path)
    header_line = next(records, (None,))[0] if has_header else 0
    columns = _loadtxt(path, header_line, dtype=[("score", float)], usecols=0)
    if columns is None:
        values = []
        for line, fields in records:
            try:
                values.append(float(fields[0]))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{line}: not a score: {fields[0]!r}") from exc
        columns = (values,)
    records.close()
    return _build(path, ScoreSample, *columns)


def read_weighted_scores(path, test_weight: float) -> WeightedScores:
    """Parse a CSV with header ``score,weight`` into weighted scores.

    A bad ``test_weight`` raises ``ValueError``, not :class:`FileFormatError`.
    """
    records = _records(path)
    header_line, header = next(records, (None, None))
    if header is None or [c.strip().lower() for c in header[:2]] != ["score", "weight"]:
        raise FileFormatError(f"{path}: expected header 'score,weight'")
    columns = _loadtxt(
        path, header_line, dtype=[("score", float), ("weight", float)], usecols=(0, 1)
    )
    if columns is None:
        scores, weights = [], []
        for line, fields in records:
            if len(fields) < 2:
                raise FileFormatError(f"{path}:{line}: expected two columns")
            try:
                scores.append(float(fields[0]))
                weights.append(float(fields[1]))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{line}: bad number in {fields!r}") from exc
        columns = (scores, weights)
    records.close()
    # The file is checked on its own first, so a bad test weight is no file error.
    ws = _build(path, WeightedScores, *columns, 1.0)
    return WeightedScores(ws.scores, ws.weights, test_weight)


def read_matrix(path) -> ScoreMatrix:
    """Parse a score-matrix CSV with header ``true_label,s_0,...,s_{L-1}``."""
    records = _records(path)
    header_line, header = next(records, (None, None))
    if header is None or header[0].strip().lower() != "true_label":
        raise FileFormatError(f"{path}: expected header starting with 'true_label'")
    width = len(header)
    if width < 2:
        raise FileFormatError(f"{path}: header names no score columns")
    columns = _loadtxt(path, header_line, dtype=[("label", int), ("scores", float, (width - 1,))])
    if columns is None:
        labels, rows = [], []
        for line, fields in records:
            if len(fields) != width:
                raise FileFormatError(f"{path}:{line}: expected {width} fields, got {len(fields)}")
            try:
                labels.append(int(fields[0]))
                rows.append([float(v) for v in fields[1:]])
            except ValueError as exc:
                raise FileFormatError(f"{path}:{line}: bad number in {fields!r}") from exc
        if not rows:
            raise FileFormatError(f"{path}: a score matrix needs at least one data row")
        columns = (labels, rows)
    records.close()
    labels, rows = columns
    return _build(path, ScoreMatrix, rows, labels)


def write_report_csv(reports: Sequence[EvalReport], path) -> None:
    """Plot-ready per-split table for one or more reports.

    The writer gets each finite float as its ``SplitResult``'s ``texts``,
    the repr it would write for it, and any other value as it is.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["method", "split", "coverage", "mean_set_size"])
    for report in reports:
        writer.writerows(
            [(report.method, j, c or r.coverage, s or r.mean_set_size)
             for j, r in enumerate(report.per_split) for c, s in (r.texts,)]
        )
    write_text(path, buf.getvalue(), newline="")


def write_text(path, text: str, newline: str | None = None) -> None:
    """Write ``text`` to ``path`` as the bytes ``open(path, "w", newline=newline)`` writes.

    Every file the package writes goes through here. An existing file is
    rewritten in place and then cut to the written length, so it keeps its
    inode and permission bits; a new one gets mode ``0o666`` less the umask.
    ``open(path, "w")`` truncates to zero first, and on ext4 (default
    ``auto_da_alloc``) that starts writeback at close, which costs more
    than writing a small output. A target that is not a regular file, such
    as ``/dev/null`` or a FIFO, is written but never truncated.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
