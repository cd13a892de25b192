"""The benchmark's workloads: seeded input generators, the CLI jobs, and output checks.

Every job drives ``lpconformal.cli.main`` in-process on files generated from
the workload seed. At the sizes below each workload spends most of its time
in a different layer, so a gain in one layer shows on one workload and should
be flat on the others. Each workload's ``why`` says which layer and why.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.1
METHODS = ("sc", "lp", "tv", "winf", "chi2", "weighted", "rscp", "fg")
# Shift used by the matrix workloads, as in acceptance criterion 07.
SHIFT_EPSILON, SHIFT_RHO, SHIFT_GLOBAL = 0.1, 0.05, 50.0
# Test-batch perturbation of the estimate workloads, as in criterion 08.
SIM_EPSILON, SIM_RHO, SIM_GLOBAL = 0.2, 0.1, 1.5
MATRIX_CHUNK_ROWS = 1000


class CheckFailed(Exception):
    """A job exited non-zero or its outputs failed a check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(values) -> str:
    """SHA-256 of a JSON rendering of numbers (floats as their exact repr)."""
    text = json.dumps(values, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def call(cli, argv: list[str]) -> None:
    """Run one CLI command; any exit code other than 0 fails the job."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    _require(code == 0, f"`lpconformal {argv[0]}` exited with {code!r}")


def _write_scores(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))


def _write_matrix(path: Path, rng: np.random.Generator, rows: int, labels: int) -> None:
    """Criterion-07 matrix: true-label scores 0.5|N(0,1)|, the others 2.5 + |N(0,1)|.

    Written in fixed-size chunks so generation stays small next to the peak
    memory of parsing the file.
    """
    true = rng.integers(0, labels, size=rows)
    with open(path, "w") as fh:
        fh.write("true_label," + ",".join(f"s_{j}" for j in range(labels)) + "\n")
        for lo in range(0, rows, MATRIX_CHUNK_ROWS):
            t = true[lo : lo + MATRIX_CHUNK_ROWS]
            block = 2.5 + np.abs(rng.normal(size=(t.size, labels)))
            block[np.arange(t.size), t] = 0.5 * np.abs(rng.normal(size=t.size))
            fh.write("".join(
                f"{label}," + ",".join(map(repr, row)) + "\n"
                for label, row in zip(t.tolist(), block.tolist())
            ))


def _read_floats(path: Path) -> list[float]:
    return [float(line) for line in path.read_text().split()]


@dataclass(frozen=True)
class Dataset:
    """One generated input set: its directory and the seed its job passes to the CLI."""

    key: int
    dir: Path
    seed: int

    def path(self, name: str) -> Path:
        return self.dir / name


@dataclass(frozen=True)
class EstimateWorkload:
    """``simulate`` -> ``estimate`` (default grid) -> ``calibrate --method lp``.

    ``datasets`` independent input sets are generated and jobs cycle through
    them, so the median job reflects the generator rather than one draw.
    """

    name: str
    why: str
    n_calib: int
    n_test: int
    datasets: int

    inputs = ("calib_a.csv", "calib_b.csv", "test_base.csv")
    outputs = ("test.csv", "test_spec.json", "estimate.json", "calibrate.json")

    def sizes(self) -> dict:
        return {"n_calib_a": self.n_calib, "n_calib_b": self.n_calib,
                "n_test": self.n_test, "datasets": self.datasets, "grid_points": 20}

    def generate(self, seed: int, root: Path) -> list[Dataset]:
        out = []
        for k in range(self.datasets):
            rng = np.random.default_rng([seed, k])
            d = Dataset(k, root / f"d{k:02d}", int(rng.integers(2**31)))
            d.dir.mkdir(parents=True, exist_ok=True)
            _write_scores(d.path("calib_a.csv"), rng.normal(size=self.n_calib))
            _write_scores(d.path("calib_b.csv"), rng.normal(size=self.n_calib))
            _write_scores(d.path("test_base.csv"), rng.normal(size=self.n_test))
            out.append(d)
        return out

    def run(self, cli, d: Dataset) -> None:
        call(cli, ["simulate", "--scores", str(d.path("test_base.csv")),
                   "--epsilon", repr(SIM_EPSILON), "--rho", repr(SIM_RHO),
                   "--global-value", repr(SIM_GLOBAL), "--seed", str(d.seed),
                   "--out", str(d.path("test.csv"))])
        call(cli, ["estimate", "--calib-a", str(d.path("calib_a.csv")),
                   "--calib-b", str(d.path("calib_b.csv")), "--test", str(d.path("test.csv")),
                   "--alpha", repr(ALPHA), "--out", str(d.path("estimate.json"))])
        est = json.loads(d.path("estimate.json").read_text())
        call(cli, ["calibrate", "--scores", str(d.path("calib_b.csv")), "--method", "lp",
                   "--alpha", repr(ALPHA), "--epsilon", repr(est["epsilon"]),
                   "--rho", repr(est["rho"]), "--out", str(d.path("calibrate.json"))])

    def check(self, d: Dataset) -> str:
        est = json.loads(d.path("estimate.json").read_text())
        cal = json.loads(d.path("calibrate.json").read_text())
        test = _read_floats(d.path("test.csv"))
        _require(len(test) == self.n_test, "simulate wrote the wrong number of scores")
        grid = [(p["epsilon"], p["rho"], p["beta"], p["q"], p["feasible"])
                for p in est["grid_trace"]]
        _require(len(grid) == 20, f"expected the default 20-point grid, got {len(grid)}")
        eps = [g[0] for g in grid]
        rho = [g[1] for g in grid]
        _require(all(a < b for a, b in zip(eps, eps[1:])), "grid epsilon not increasing")
        _require(all(0.0 <= r <= 1.0 for r in rho), "rho outside [0, 1]")
        _require(all(a >= b for a, b in zip(rho, rho[1:])), "rho increases along the grid")
        feasible = [g for g in grid if g[4]]
        _require(bool(feasible), "no feasible grid point")
        best = min(feasible, key=lambda g: g[3])  # first minimum: ties go to smaller epsilon
        selected = (est["epsilon"], est["rho"], est["beta"], est["q"])
        _require(selected == best[:4], "selection is not the smallest feasible threshold")
        calibrated = (cal["threshold"], cal["level_used"], cal["coverage_bound"])
        _require(cal["threshold"] == est["q"],
                 "calibrate --method lp disagrees with the threshold estimate selected")
        _require(cal["coverage_bound"] >= 1.0 - ALPHA, "lp coverage bound below 1 - alpha")
        return digest({"test": test, "grid": grid, "selected": selected,
                       "calibrate": calibrated})


@dataclass(frozen=True)
class MatrixWorkload:
    """``evaluate`` (one method) or ``compare`` (several) on a criterion-07 matrix."""

    name: str
    why: str
    rows: int
    labels: int
    methods: tuple[str, ...]
    splits: int
    n_calib: int
    k_test: int
    perturb: bool

    datasets = 1
    inputs = ("matrix.csv",)
    outputs = ("report.json", "report.csv")

    def sizes(self) -> dict:
        return {"rows": self.rows, "labels": self.labels, "methods": len(self.methods),
                "splits": self.splits, "n_calib": self.n_calib, "k_test": self.k_test}

    def generate(self, seed: int, root: Path) -> list[Dataset]:
        rng = np.random.default_rng([seed, 0])
        d = Dataset(0, root / "d00", int(rng.integers(2**31)))
        d.dir.mkdir(parents=True, exist_ok=True)
        _write_matrix(d.path("matrix.csv"), rng, self.rows, self.labels)
        return [d]

    def run(self, cli, d: Dataset) -> None:
        if len(self.methods) == 1:
            argv = ["evaluate", "--method", self.methods[0]]
        else:
            argv = ["compare", "--methods", ",".join(self.methods)]
        argv += ["--matrix", str(d.path("matrix.csv")), "--alpha", repr(ALPHA),
                 "--epsilon", repr(SHIFT_EPSILON), "--rho", repr(SHIFT_RHO),
                 "--splits", str(self.splits), "--n-calib", str(self.n_calib),
                 "--k-test", str(self.k_test), "--seed", str(d.seed),
                 "--csv", str(d.path("report.csv")), "--out", str(d.path("report.json"))]
        if self.perturb:
            argv += ["--perturb-epsilon", repr(SHIFT_EPSILON), "--perturb-rho", repr(SHIFT_RHO),
                     "--perturb-global", repr(SHIFT_GLOBAL), "--perturb-seed", str(d.seed + 1)]
        call(cli, argv)

    def check(self, d: Dataset) -> str:
        payload = json.loads(d.path("report.json").read_text())
        reports = payload["reports"] if "reports" in payload else [payload]
        _require([r["config"]["method"] for r in reports] == list(self.methods),
                 "reports do not follow the requested methods")
        with open(d.path("report.csv"), newline="") as fh:
            table = list(csv.DictReader(fh))
        _require(len(table) == len(self.methods) * self.splits, "CSV row count is wrong")
        numbers, coverage_means = {}, {}
        for r, method in zip(reports, self.methods):
            cells = [(s["coverage"], s["mean_set_size"]) for s in r["per_split"]]
            _require(len(cells) == self.splits, f"{method}: wrong number of splits")
            _require(all(0.0 <= c <= 1.0 for c, _ in cells), f"{method}: coverage outside [0, 1]")
            _require(all(0.0 <= s <= self.labels for _, s in cells),
                     f"{method}: set size outside [0, L]")
            cov = [c for c, _ in cells]
            mean = r["aggregate"]["coverage_mean"]
            _require(abs(mean - statistics.fmean(cov)) <= 1e-12, f"{method}: coverage_mean")
            rows = [(float(t["coverage"]), float(t["mean_set_size"]))
                    for t in table if t["method"] == method]
            _require(rows == cells, f"{method}: CSV and JSON per-split values differ")
            numbers[method] = cells
            coverage_means[method] = (mean, r["aggregate"]["coverage_std"])
        if "lp" in coverage_means:
            mean, std = coverage_means["lp"]
            _require(mean >= (1.0 - ALPHA) - 2.0 * std / self.splits**0.5,
                     f"lp coverage_mean {mean!r} is below 0.9 - 2 se")
        if self.perturb and "sc" in coverage_means:
            _require(coverage_means["sc"][0] < 1.0 - ALPHA,
                     "sc does not undercover under the test-time shift")
        return digest(numbers)


WORKLOADS = {w.name: w for w in (
    EstimateWorkload(
        "estimate_unequal",
        why="unequal calibration/test sizes send every grid point through the pure-Python "
            "Dinic flow path, so lp_metric dominates the job",
        n_calib=200, n_test=250, datasets=13,
    ),
    EstimateWorkload(
        "estimate_equal",
        why="equal sizes take the greedy transport path (plus certificate building); "
            "a transport rewrite must not slow this case",
        n_calib=20000, n_test=20000, datasets=1,
    ),
    MatrixWorkload(
        "evaluate_ingest",
        why="read_matrix on a large CSV dominates a short split loop, so ingestion "
            "work shows here and should be flat elsewhere",
        rows=10000, labels=100, methods=("lp",), splits=5, n_calib=2000, k_test=5000,
        perturb=False,
    ),
    MatrixWorkload(
        "compare_splits",
        why="all 8 methods over many perturbed splits of a small matrix put the split "
            "loop and calibration ahead of ingestion",
        rows=5000, labels=10, methods=METHODS, splits=150, n_calib=1000, k_test=3000,
        perturb=True,
    ),
)}


def _exact_intervals(x: np.ndarray, y: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Admissible ``[lo, hi)`` in sorted ``y`` for each of sorted ``x``, by ``|x - y| <= eps``.

    ``searchsorted`` on ``x -/+ eps`` can be off by the rounding of the
    subtraction, so the bounds are moved until the exact comparison holds.
    """
    m = y.size
    lo = np.searchsorted(y, x - eps, side="left")
    hi = np.searchsorted(y, x + eps, side="right")
    while (step := (lo > 0) & (np.abs(x - y[np.maximum(lo - 1, 0)]) <= eps)).any():
        lo -= step
    while (step := (hi < m) & (np.abs(x - y[np.minimum(hi, m - 1)]) <= eps)).any():
        hi += step
    while (step := (lo < hi) & (np.abs(x - y[np.minimum(lo, m - 1)]) > eps)).any():
        lo += step
    while (step := (hi > lo) & (np.abs(x - y[np.maximum(hi - 1, 0)]) > eps)).any():
        hi -= step
    return lo, hi


def transport_counts(workload, datasets: list[Dataset]) -> dict[str, float]:
    """Per-job transport work computed from a job's inputs, averaged over the datasets.

    For every ``lp_distance(calib_a, test, eps)`` call of ``estimate``: which
    path it takes (equal-size greedy, all-admissible shortcut, or flow), and
    the number of admissible edges. Exact for a given seed.
    """
    counts = dict.fromkeys(("path_greedy", "path_shortcut", "path_flow", "admissible_edges"), 0)
    if not isinstance(workload, EstimateWorkload):
        return {key: 0.0 for key in counts}
    for d in datasets:
        x = np.sort(np.array(_read_floats(d.path("calib_a.csv"))))
        y = np.sort(np.array(_read_floats(d.path("test.csv"))))
        grid = [p["epsilon"] for p in json.loads(d.path("estimate.json").read_text())["grid_trace"]]
        for eps in grid:
            lo, hi = _exact_intervals(x, y, eps)
            counts["admissible_edges"] += int((hi - lo).sum())
            if x.size == y.size:
                counts["path_greedy"] += 1
            elif abs(x[0] - y[-1]) <= eps and abs(x[-1] - y[0]) <= eps:
                counts["path_shortcut"] += 1
            else:
                counts["path_flow"] += 1
    return {key: value / len(datasets) for key, value in counts.items()}
