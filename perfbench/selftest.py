"""Tests of the benchmark itself.

Run with ``python3 -m pytest -q perfbench/selftest.py``. The file name does not
match pytest's ``test_*.py`` pattern, so the repository's own test command
does not collect it.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from spans import Span
from workloads import WORKLOADS, CheckFailed, Dataset, _exact_intervals

TINY = {
    "estimate_unequal": dict(n_calib=40, n_test=50, datasets=3),
    "estimate_equal": dict(n_calib=60, n_test=60),
    "evaluate_ingest": dict(rows=300, labels=5, splits=3, n_calib=100, k_test=150),
    "compare_splits": dict(rows=600, splits=20, n_calib=200, k_test=300),
}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    for name, sizes in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, replace(WORKLOADS[name], **sizes))
    return run.WORKLOADS


def _input_bytes(workload, seed, root: Path) -> dict[str, bytes]:
    datasets = workload.generate(seed, root)
    return {f"{d.key}/{n}": d.path(n).read_bytes() for d in datasets for n in workload.inputs}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_byte_deterministic(tiny_workloads, tmp_path, name):
    workload = tiny_workloads[name]
    first = _input_bytes(workload, 7, tmp_path / "a")
    assert first == _input_bytes(workload, 7, tmp_path / "b")
    assert first != _input_bytes(workload, 8, tmp_path / "c")


def test_self_time_on_hand_built_tree():
    tree = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("harness.evaluate", 1.0, 9.0, 0, 0),
        Span("harness.MethodSpec.threshold", 2.0, 3.0, 1, 0),
        Span("harness.MethodSpec.threshold", 2.5, 4.0, 1, 0),  # overlaps its sibling
        Span("harness.MethodSpec.threshold", 8.5, 9.5, 1, 0),  # runs past its parent
        Span("harness.write_report_csv", 9.25, 9.75, 0, 0),
        Span("lp_metric.lp_distance", 20.0, 21.0, -1, 1),
        Span("lp_metric.lp_distance", 20.25, 20.5, 6, 1),  # nested in a same-named span
    ]
    assert spans.self_times(tree) == [
        10.0 - 8.0 - 0.5,   # children [1, 9] and [9.25, 9.75]
        8.0 - 2.0 - 0.5,    # union [2, 4] plus [8.5, 9] clipped at the parent's end
        1.0, 1.5, 1.0, 0.5,
        1.0 - 0.25, 0.25,
    ]
    assert spans.busy_by_name(tree) == {
        "cli.main": 10.0,
        "harness.evaluate": 8.0,
        "harness.MethodSpec.threshold": 3.5,
        "harness.write_report_csv": 0.5,
        "lp_metric.lp_distance": 1.0,
    }
    assert spans.self_by_name(tree)["lp_metric.lp_distance"] == 1.0


def test_exact_intervals_follow_the_inclusive_edge_rule():
    rng = np.random.default_rng(3)
    x = np.sort(rng.integers(0, 20, size=60) / 8.0)
    y = np.sort(rng.integers(0, 20, size=45) / 8.0)
    for eps in (0.0, 0.125, 0.3, 1.0, 5.0):
        lo, hi = _exact_intervals(x, y, eps)
        for i, xi in enumerate(x):
            assert list(range(lo[i], hi[i])) == [j for j in range(y.size) if abs(xi - y[j]) <= eps]


class _FlakyWorkload:
    """Passes its first check, then reports different numbers."""

    def __init__(self) -> None:
        self.checks = 0

    def run(self, cli, dataset) -> None:
        if dataset.key == 1:
            raise CheckFailed("`lpconformal estimate` exited with 2")

    def check(self, dataset) -> str:
        self.checks += 1
        return "first" if self.checks == 1 else "second"


def test_runner_counts_exit_codes_and_digest_changes_as_failures(tmp_path):
    runner = run.Runner(_FlakyWorkload())
    d0, d1 = Dataset(0, tmp_path, 0), Dataset(1, tmp_path, 0)
    assert runner.job(None, d0).error is None
    assert "differs from the reference" in runner.job(None, d0).error
    assert "exited with 2" in runner.job(None, d1).error
    assert (runner.attempted, len(runner.errors)) == (3, 2)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_passes_its_checks(tiny_workloads, capsys, name):
    assert run.run_workload(name, seed=11, seconds=0.2, trace=False) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    assert run.run_workload(name, seed=11, seconds=0.2, trace=True) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.main.out_bytes"] > 0 and metrics["trace.overhead_ratio"] > 0
    if name.startswith("estimate"):
        assert metrics["lp_metric.lp_distance.calls"] == 20
        assert metrics["estimation.estimate_lp_params.calls"] == 1
        assert metrics["harness.read_scores.calls"] == 5
        path = "path_greedy" if name == "estimate_equal" else "path_flow"
        assert metrics[f"lp_metric.lp_distance.{path}"] > 0
    else:
        assert metrics["harness.read_matrix.calls"] == 1
        assert metrics["harness.evaluate.calls"] == len(tiny_workloads[name].methods)


def test_benchmark_json_declares_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_checkout_without_package_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "estimate_equal", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
