"""The README's examples run as written, and it states current behaviour only."""

import re
import shlex
from pathlib import Path

import numpy as np

from lpconformal.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # Every ```python block, in order and in one namespace, from a directory
    # holding the two score files the quick start loads.
    blocks = _blocks("python")
    assert len(blocks) >= 2
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "calib_scores.csv", rng.normal(size=200), fmt="%.17g")
    np.savetxt(tmp_path / "test_scores.csv", rng.normal(size=150), fmt="%.17g")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_shell_commands_run(tmp_path, monkeypatch, capsys):
    # Every `lpconformal ...` command of the ```sh blocks, continuation lines
    # joined, run through cli.main next to the input files the examples name.
    commands = [line for block in _blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("lpconformal ")]
    assert {shlex.split(c)[1] for c in commands} == {
        "calibrate", "estimate", "evaluate", "compare", "simulate"}
    rng = np.random.default_rng(0)
    for name, loc, size in (("calib", 0.0, 500), ("a", 0.0, 500), ("b", 0.0, 500),
                            ("t", 0.1, 400)):
        np.savetxt(tmp_path / f"{name}.csv", rng.normal(loc=loc, size=size), fmt="%.17g")
    rows, labels = 3000, 4
    true = rng.integers(0, labels, size=rows)
    scores = 2 + np.abs(rng.normal(size=(rows, labels)))
    scores[np.arange(rows), true] = np.abs(rng.normal(size=rows))
    np.savetxt(tmp_path / "matrix.csv", np.column_stack([true, scores]), delimiter=",",
               fmt=["%d"] + ["%.17g"] * labels, comments="",
               header="true_label," + ",".join(f"s_{j}" for j in range(labels)))
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, (command, capsys.readouterr().err)


def test_readme_keeps_no_history():
    # Per-change history belongs in CHANGES.md; the README's one migration
    # list is "Migrating from earlier versions".
    lines = README.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("Behaviour changes since")] == []
