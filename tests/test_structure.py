"""Structural rules for the package source.

No module imports another module's ``_private`` names, the CLI offers
exactly the method names the harness knows, ``harness.evaluate`` holds no
split loop of its own beside ``compare``, and one transport solver runs with
numpy as the only third-party dependency. Every CSV input goes through two
parsers and no other: one ``np.loadtxt`` call for speed, and one
``csv.reader`` that reads whatever numpy might read differently and reports
every error.
"""

import argparse
import ast
import inspect
from pathlib import Path

import pytest

from lpconformal import lp_distance
from lpconformal.cli import build_parser
from lpconformal.harness import METHOD_NAMES

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lpconformal").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("lpconformal"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def test_sources_found():
    assert {"cli.py", "harness.py", "robust.py"} <= {p.name for p in SOURCES}


def _method_choices(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices[command]._actions if a.dest == "method")
    return tuple(method.choices)


@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
def test_method_choices_are_harness_method_names(command):
    assert _method_choices(command) == METHOD_NAMES


def test_evaluate_has_no_loop():
    path = next(p for p in SOURCES if p.name == "harness.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    evaluate = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "evaluate"
    )
    loops = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in ast.walk(evaluate)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert not loops, f"harness.evaluate loops on its own: {loops}"


def _calls(name):
    return [
        f"{path.name}:{lineno}"
        for path in SOURCES
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        for _ in range(text.count(f"{name}("))
    ]


def test_one_csv_reader():
    calls = _calls("csv.reader")
    assert len(calls) == 1, f"csv.reader( should appear once, found at {calls}"


def test_one_loadtxt_call():
    calls = _calls("np.loadtxt")
    assert len(calls) == 1, f"np.loadtxt( should appear once, found at {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    imported = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    scipy = [name for name in imported if name.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy}"


def test_lp_distance_has_no_method_switch():
    assert list(inspect.signature(lp_distance).parameters) == ["p", "q", "epsilon"]


@pytest.mark.parametrize("name", ["_Dinic", "solve_flow", "pushforward_check"])
def test_reference_solvers_not_in_src(name):
    found = [p.name for p in SOURCES if name in p.read_text()]
    assert not found, f"{name} appears in {found}"


def test_no_per_atom_transport_loop():
    # lp_distance, lp_profile and the certificate share one numpy kernel.
    found = [p.name for p in SOURCES if "_sweep" in p.read_text()]
    assert not found, f"_sweep appears in {found}"
