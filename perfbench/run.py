"""Layered benchmark of the lpconformal CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload estimate_unequal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A closed loop with one client: one process, one thread, one job at a time.
Each job calls ``lpconformal.cli.main`` in-process on inputs generated from
``--seed`` (see ``workloads.py`` for the workloads and why each exists).
With ``--trace 0`` the run reports the end-to-end metrics, with times rescaled
to a nominal host speed (see ``SpeedReference``); with ``--trace 1`` every
other job runs with spans around the package's layers and the run reports
per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object; the exit code is non-zero when any job
fails or any output check fails. Seed 7777 is held out: it was not used
while the benchmark was tuned, so a later claim can be re-checked on it.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before numpy loads, so a run never exceeds one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS, CheckFailed, transport_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
REFERENCE_REPEATS = 8

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.main.self_s": "s/job",
    "cli.main.out_bytes": "bytes/job",
    "harness.read_matrix.calls": "calls/job",
    "harness.read_matrix.busy_s": "s/job",
    "harness.read_matrix.mb_per_s": "MB/s",
    "harness.read_matrix.job_share": "share",
    "harness.read_scores.calls": "calls/job",
    "harness.read_scores.busy_s": "s/job",
    "harness.read_scores.mb_per_s": "MB/s",
    "harness.read_scores.job_share": "share",
    "lp_metric.lp_distance.calls": "calls/job",
    "lp_metric.lp_distance.busy_s": "s/job",
    "lp_metric.lp_distance.call_p50_ms": "ms",
    "lp_metric.lp_distance.atoms_per_s": "atoms/s",
    "lp_metric.lp_distance.job_share": "share",
    "lp_metric.lp_distance.path_greedy": "calls/job",
    "lp_metric.lp_distance.path_shortcut": "calls/job",
    "lp_metric.lp_distance.path_flow": "calls/job",
    "lp_metric.lp_distance.admissible_edges": "edges/job",
    "estimation.estimate_lp_params.calls": "calls/job",
    "estimation.estimate_lp_params.busy_s": "s/job",
    "estimation.estimate_lp_params.self_s": "s/job",
    "harness.evaluate.calls": "calls/job",
    "harness.evaluate.busy_s": "s/job",
    "harness.evaluate.self_s": "s/job",
    "harness.evaluate.self_job_share": "share",
    "harness.evaluate.splits_per_s": "splits/s",
    "harness.evaluate.cells_per_s": "cells/s",
    "harness.MethodSpec.threshold.calls": "calls/job",
    "harness.MethodSpec.threshold.busy_s": "s/job",
    "harness.MethodSpec.threshold.job_share": "share",
    "shiftlab.perturb_sample.calls": "calls/job",
    "shiftlab.perturb_sample.busy_s": "s/job",
    "harness.EvalReport.to_dict.busy_s": "s/job",
    "harness.write_report_csv.busy_s": "s/job",
    "trace.job_p50_s": "s",
    "trace.untraced_job_p50_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, or a foreign import)."""


def check_source() -> None:
    if not (SRC / "lpconformal" / "cli.py").is_file():
        raise SetupError(f"no package source at {SRC / 'lpconformal'}")


def import_cli():
    """Import ``lpconformal.cli`` afresh from the checkout's ``src``."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "lpconformal" or k.startswith("lpconformal.")]:
        del sys.modules[key]
    cli = importlib.import_module("lpconformal.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"lpconformal was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class JobOutcome:
    seconds: float
    error: str | None = None


class Runner:
    """Runs jobs and checks each against the digest first recorded for its dataset."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.references: dict[int, str] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def job(self, cli, dataset) -> JobOutcome:
        self.attempted += 1
        start = perf_counter()
        try:
            self.workload.run(cli, dataset)
        except CheckFailed as exc:
            return self._fail(perf_counter() - start, str(exc))
        except Exception as exc:  # any crash of the program is a failed job, not a crash here
            return self._fail(perf_counter() - start, f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        try:
            value = self.workload.check(dataset)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            return self._fail(seconds, f"output check: {type(exc).__name__}: {exc}")
        reference = self.references.setdefault(dataset.key, value)
        if value != reference:
            return self._fail(seconds, f"dataset {dataset.key}: digest differs from the reference")
        return JobOutcome(seconds)

    def _fail(self, seconds: float, message: str) -> JobOutcome:
        self.errors.append(message)
        print(f"job failed: {message}", file=sys.stderr)
        return JobOutcome(seconds, message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SpeedReference:
    """Fixed work that does not touch lpconformal, timed to track the host's speed.

    On a shared host the speed of every workload drifts together, by up to a
    third within minutes. Timing this kernel right after each job and set-up
    lets the declared times be rescaled to the speed at which the kernel takes
    ``NOMINAL_S``. The raw wall times stay in the detail output.
    """

    NOMINAL_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Small inputs repeated, so the kernel adds little to the peak resident set.
        self._text = ",".join(map(repr, rng.normal(size=10_000).tolist()))
        self._array = rng.normal(size=60_000)
        self.samples: list[float] = []

    def scale(self, samples: int = 1) -> float:
        """Time the kernel; return the factor from wall time to nominal-speed time."""
        return self.NOMINAL_S / statistics.median(self._time() for _ in range(samples))

    def _time(self) -> float:
        start = perf_counter()
        for _ in range(REFERENCE_REPEATS):
            values = [float(tok) for tok in self._text.split(",")]  # parsing, like ingestion
            acc = 0
            for i, v in enumerate(values):  # interpreted branching, like the flow solver
                if v > 0.0:
                    acc += i
            np.sort(np.asarray(values))
            np.sort(self._array)
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds


def set_up(workload, seed: int, work: Path, runner: Runner, speed: SpeedReference):
    """Generate inputs, import the package and run one warm-up job, SETUP_REPS times.

    Returns the datasets, the CLI module, and each repetition's wall time and
    nominal-speed time. Every repetition must write byte-identical inputs.
    """
    times, scaled, fingerprint = [], [], None
    for _ in range(SETUP_REPS):
        start = perf_counter()
        datasets = workload.generate(seed, work)
        cli = import_cli()
        runner.job(cli, datasets[0])
        times.append(perf_counter() - start)
        scaled.append(times[-1] * speed.scale(samples=3))  # one sample is noisy next to a set-up
        files = {f"{d.key}/{n}": _sha256(d.path(n)) for d in datasets for n in workload.inputs}
        if fingerprint is not None and files != fingerprint:
            raise SetupError("input generation is not deterministic")
        fingerprint = files
    return datasets, cli, times, scaled


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(job_seconds: list[float]) -> float:
    return len(job_seconds) / sum(job_seconds) if job_seconds else 0.0


def _tail(values: list[float]) -> dict | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return {"percentile": p, "value_s": float(np.percentile(values, p))}
    return None


def layer_metrics(tracer, traced_jobs: list[int], job_times: dict[int, float],
                  workload, datasets) -> dict[str, float]:
    """Per-job layer figures from the spans of the traced jobs."""
    all_spans = tracer.spans
    n_jobs = len(traced_jobs)
    mean_job = sum(job_times[j] for j in traced_jobs) / n_jobs
    busy = spans.busy_by_name(all_spans)
    own = spans.self_by_name(all_spans)
    by_name: dict[str, list] = {}
    for span in all_spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ())) / n_jobs

    def per_job(table, name):
        return table.get(name, 0.0) / n_jobs

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    def read_rate(name):
        read = sum(Path(s.info).stat().st_size for s in by_name.get(name, ()) if s.info)
        return rate(read / 1e6, busy.get(name, 0.0))

    lp = "lp_metric.lp_distance"
    lp_ms = [1000 * (s.end - s.start) for s in by_name.get(lp, ())]
    evals = by_name.get("harness.evaluate", ())
    out = {
        "cli.main.self_s": per_job(own, "cli.main"),
        "cli.main.out_bytes": sum(
            d.path(n).stat().st_size for d in datasets for n in workload.outputs
        ) / len(datasets),
        "harness.read_matrix.mb_per_s": read_rate("harness.read_matrix"),
        "harness.read_scores.mb_per_s": read_rate("harness.read_scores"),
        f"{lp}.call_p50_ms": _median(lp_ms),
        f"{lp}.atoms_per_s": rate(sum(s.info or 0 for s in by_name.get(lp, ())), busy.get(lp, 0.0)),
        "harness.evaluate.self_s": per_job(own, "harness.evaluate"),
        "harness.evaluate.self_job_share": per_job(own, "harness.evaluate") / mean_job,
        "harness.evaluate.splits_per_s": rate(
            sum(s.info[0] for s in evals if s.info), busy.get("harness.evaluate", 0.0)),
        "harness.evaluate.cells_per_s": rate(
            sum(s.info[1] for s in evals if s.info), own.get("harness.evaluate", 0.0)),
        "estimation.estimate_lp_params.self_s": per_job(own, "estimation.estimate_lp_params"),
    }
    for name in ("harness.read_matrix", "harness.read_scores", lp,
                 "estimation.estimate_lp_params", "harness.evaluate",
                 "harness.MethodSpec.threshold", "shiftlab.perturb_sample"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = per_job(busy, name)
    for name in ("harness.read_matrix", "harness.read_scores", lp, "harness.MethodSpec.threshold"):
        out[f"{name}.job_share"] = per_job(busy, name) / mean_job
    for name in ("harness.EvalReport.to_dict", "harness.write_report_csv"):
        out[f"{name}.busy_s"] = per_job(busy, name)
    for key, value in transport_counts(workload, datasets).items():
        out[f"{lp}.{key}"] = value
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lpconformal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(workload, seed: int, datasets) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "sizes": workload.sizes(),
        "input_bytes": sum(
            d.path(n).stat().st_size for d in datasets for n in workload.inputs
        ),
        "threads": {"numpy_blas": 1, "client": 1},
        "loop": "closed, one client, one job at a time",
        "waiting": "none: no layer queues work, so there are no waiting-time metrics",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    runner = Runner(workload)
    speed = SpeedReference()
    try:
        datasets, cli, setup_times, setup_scaled = set_up(workload, seed, work, runner, speed)
        tracer = spans.Tracer()
        job_times: dict[int, float] = {}
        job_scaled: dict[int, float] = {}
        traced_jobs, untraced = [], []
        start = perf_counter()
        i = 0
        while i < 2 or perf_counter() - start < seconds:  # a median and a traced job need two
            traced = trace and i % 2 == 1
            if traced:
                tracer.job = i
                tracer.install()
            outcome = runner.job(cli, datasets[i % len(datasets)])
            if traced:
                tracer.uninstall()
            factor = speed.scale()
            if outcome.error is None:
                job_times[i] = outcome.seconds
                job_scaled[i] = outcome.seconds * factor
                (traced_jobs if traced else untraced).append(i)
            i += 1
        timed_jobs = i
        if trace:  # computed counts and output sizes need every dataset's outputs
            for d in datasets:
                if d.key not in runner.references:
                    runner.job(cli, d)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced_times = [job_times[j] for j in untraced]
        untraced_scaled = [job_scaled[j] for j in untraced]
        if trace:
            metrics = {}
            if traced_jobs and untraced_times:
                metrics = layer_metrics(tracer, traced_jobs, job_times, workload, datasets)
                traced_p50 = _median([job_times[j] for j in traced_jobs])
                metrics["trace.job_p50_s"] = traced_p50
                metrics["trace.untraced_job_p50_s"] = _median(untraced_times)
                metrics["trace.overhead_ratio"] = traced_p50 / _median(untraced_times)
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": _median(setup_scaled),
                "job_p50_s": _median(untraced_scaled),
                "jobs_per_s": _rate(untraced_scaled),
                "peak_rss_mb": rss_mb,
            }
            units = END_TO_END
        detail = {
            "workload": name,
            "why": workload.why,
            "trace": int(trace),
            "metadata": metadata(workload, seed, datasets),
            "samples": {"setup_s": len(setup_times), "timed_jobs": timed_jobs,
                        "untraced_jobs": len(untraced), "traced_jobs": len(traced_jobs)},
            "job_tail": _tail(untraced_scaled),
            "wall_clock": {"setup_s": _median(setup_times), "job_p50_s": _median(untraced_times),
                           "jobs_per_s": _rate(untraced_times)},
            "speed_reference": {"nominal_s": speed.NOMINAL_S, "median_s": _median(speed.samples),
                                "samples": len(speed.samples)},
            "untraced_job_wall_seconds": untraced_times,
            "ops_failed_ratio": len(runner.errors) / runner.attempted,
            "errors": runner.errors[:20],
            "reference_digests": runner.references,
        }
        if trace:
            detail["computed_counts"] = {
                k: metrics[f"lp_metric.lp_distance.{k}"]
                for k in ("path_greedy", "path_shortcut", "path_flow", "admissible_edges")
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=2) + "\n")
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                info = s.info if isinstance(s.info, (int, str)) else None
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job, info]) + "\n")
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"jobs {timed_jobs}  failed {len(runner.errors)}  "
          f"ops_failed_ratio {detail['ops_failed_ratio']:.4g}")
    for key, entry in result["metrics"].items():
        print(f"  {key:42s} {entry['value']:>14.6g} {entry['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        if done.returncode != 0:
            status = 1
            result["correct"] = False
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        check_source()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
