"""Structural rules for the package source.

No module imports another module's ``_private`` names, the CLI offers
exactly the method names the harness knows, ``harness.evaluate`` holds no
split loop of its own beside ``compare``, whose split loop has no error
path, builds no ``ScoreSample`` or ``ThresholdResult``, allocates no
test block or mask per split and perturbs a split's block in place with
``perturb_cells``, and one transport solver runs with numpy as
the only third-party dependency. Every CSV input goes through two parsers
and no other: one ``np.loadtxt`` call for speed, and one ``csv.reader``
that reads whatever numpy might read differently and reports every format
error. ``_loadtxt`` only parses: each reader builds its value in one
``_build`` call from either parser's columns, so its values are checked once.
Every output file is opened for writing in one function,
``harness.write_text``. Every threshold level becomes an order statistic in
``core``: only ``QuantileRule.at_level`` and ``quantile`` index one. The
report writers key nothing by object identity: each split result renders
its own numbers once, in ``SplitResult.texts``. One ``json.dumps`` call in
``EvalReport.to_json`` lays out each report, which then fills in only its
per-split entries, and ``reports_json`` nests each report's ``to_json``
text, so no second copy of the ``indent=2`` layout remains. Each
parameter kind has one check in ``core``, and ``MethodSpec.rule`` leaves the
calibration size to the rules it picks. The public surface is
pinned, every exported name resolves, and so does every callable the
benchmark's tracer wraps by name.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import lpconformal
from lpconformal import TransportResult, lp_distance
from lpconformal.cli import build_parser
from lpconformal.harness import METHOD_NAMES

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lpconformal").glob("*.py"))


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


def _harness_function(name):
    path = next(p for p in SOURCES if p.name == "harness.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_evaluate_has_no_loop():
    loops = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in ast.walk(_harness_function("evaluate"))
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert not loops, f"harness.evaluate loops on its own: {loops}"


def _compare_split_loop():
    return next(
        node for node in ast.walk(_harness_function("compare"))
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(n_splits)"
    )


def test_compare_split_loop_has_no_error_path():
    # Every error of compare is raised before its first split.
    handlers = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in ast.walk(_compare_split_loop())
        if isinstance(node, (ast.Try, ast.Raise))
    ]
    assert not handlers, f"harness.compare's split loop handles or raises errors: {handlers}"


def test_compare_split_loop_builds_no_result_objects():
    # A split is plain arrays and float cutoffs: the matrix is validated once
    # per call, so no split wraps its scores in a ScoreSample or a
    # ThresholdResult.
    calls = [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(_compare_split_loop())
        if isinstance(node, ast.Call)
        and (ast.unparse(node.func) == "ScoreSample"
             or (isinstance(node.func, ast.Attribute) and node.func.attr == "apply"))
    ]
    assert not calls, f"harness.compare's split loop builds per-split objects: {calls}"


def test_compare_split_loop_reuses_its_buffers():
    # The test block and its masks are made once per call. Each split
    # gathers into the block under mode "clip" (under the default "raise",
    # out= still buffers a whole block), and compares only into a mask:
    # an operator comparison, or np.less_equal without out=, would
    # allocate a fresh one.
    loop = _compare_split_loop()
    calls = [node for node in ast.walk(loop) if isinstance(node, ast.Call)]
    takes = [call for call in calls if ast.unparse(call.func) == "np.take"]
    assert takes, "harness.compare's split loop no longer gathers with np.take"
    for call in takes:
        keywords = {k.arg: ast.unparse(k.value) for k in call.keywords}
        assert "out" in keywords and keywords.get("mode") == "'clip'", (
            f"line {call.lineno}: {ast.unparse(call)} allocates or buffers its block"
        )
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
    fresh = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(loop)
        if (isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops))
        or (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.less_equal"
            and "out" not in {k.arg for k in node.keywords})
    ]
    assert not fresh, f"harness.compare's split loop compares into a fresh mask: {fresh}"


def test_compare_split_loop_perturbs_cells_in_place():
    # perturb_rows checks labels and copies a block; a split's labels are
    # checked with the matrix, and its test block is its own to overwrite.
    called = {ast.unparse(node.func) for node in ast.walk(_compare_split_loop())
              if isinstance(node, ast.Call)}
    assert "perturb_cells" in called and "perturb_rows" not in called, sorted(called)


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


def test_loadtxt_only_parses():
    # No builder runs under the try that sends a file to the csv parser.
    loadtxt = _harness_function("_loadtxt")
    assert [a.arg for a in loadtxt.args.args] == ["path", "header_line"]
    (guarded,) = [node for node in ast.walk(loadtxt) if isinstance(node, ast.Try)]
    calls = {ast.unparse(node.func) for stmt in guarded.body for node in ast.walk(stmt)
             if isinstance(node, ast.Call)}
    assert calls == {"open", "warnings.catch_warnings", "warnings.simplefilter", "np.loadtxt"}


@pytest.mark.parametrize("reader", ["read_scores", "read_weighted_scores", "read_matrix"])
def test_reader_builds_its_value_once(reader):
    builds = [
        node.lineno for node in ast.walk(_harness_function(reader))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_build"
    ]
    assert len(builds) == 1, f"harness.{reader} calls _build at lines {builds}"


def test_levels_indexed_only_in_core():
    # QuantileRule.at_level snaps, clamps and indexes every rule's level, and
    # estimate_lp_params reads an unbounded point's reason off the rule.
    calls = _calls("quantile_index")
    assert calls and {c.split(":")[0] for c in calls} == {"core.py"}, (
        f"quantile_index( is called outside core.py: {calls}")
    for name in ("robust.py", "estimation.py"):
        tree = ast.parse((ROOT / "src" / "lpconformal" / name).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        found = imported & {"quantile_index", "level_at_most_one"}
        assert not found, f"{name} imports {sorted(found)}"


def test_report_writers_key_nothing_by_identity():
    path = next(p for p in SOURCES if p.name == "harness.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    ids = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert not ids, f"harness.py calls id(): {ids}"
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not functions.keys() & {"_json_object", "_json_array", "_report_json"}
    assert not [name for name, node in functions.items()
                if "pad" in (a.arg for a in node.args.args)]
    # One json.dumps lays out each report; reports_json nests its to_json text.
    dumps = [ast.unparse(node) for node in ast.walk(functions["to_json"])
             if isinstance(node, ast.Call)]
    assert dumps.count("json.dumps(payload, sort_keys=True, indent=2)") == 1
    calls = [ast.unparse(node.func) for node in ast.walk(functions["reports_json"])
             if isinstance(node, ast.Call)]
    assert "report.to_json" in calls and "json.dumps" not in calls


@pytest.mark.parametrize("name", ["check_rho", "_check_test_weight"])
def test_replaced_checks_not_defined(name):
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    ]
    assert not found, f"{name} is defined at {found}"


@pytest.mark.parametrize("text", ["must lie in [0, 1]", "must be finite and positive",
                                  "must be a non-negative integer", "true labels must"])
def test_parameter_kind_checked_only_in_core(text):
    found = [p.name for p in SOURCES if text in p.read_text()]
    assert found == ["core.py"], f"{text!r} appears in {found}"


def test_method_rule_leaves_the_calibration_size_to_its_rules():
    tree = ast.parse((ROOT / "src" / "lpconformal" / "harness.py").read_text())
    spec = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "MethodSpec"
    )
    rule = next(
        node for node in spec.body if isinstance(node, ast.FunctionDef) and node.name == "rule"
    )
    calls = [ast.unparse(node.func) for node in ast.walk(rule) if isinstance(node, ast.Call)]
    assert calls and "check_calibration_size" not in calls


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` is a ``write_text``/``write_bytes`` method, or an ``open`` that may write."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    if name != "open":
        return False
    if ast.unparse(func) == "os.open":
        flags = ast.unparse(call)
        return any(f in flags for f in ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"))
    # The mode follows the path in open() and io.open(), and leads in Path.open().
    builtin = isinstance(func, ast.Name) or ast.unparse(func) == "io.open"
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if builtin else call.args[:1]
    return any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
               for mode in modes)


def _file_writers(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each call in ``source`` that opens a file for writing."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append((where, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("source, writes", [
    ("Path(p).write_text(t)", True),
    ("p.write_bytes(b)", True),
    ("open(p, 'w', newline='')", True),
    ("open(p, mode='a')", True),
    ("open(p, 'r+b')", True),
    ("open(p, 'x')", True),
    ("open(p, m)", True),
    ("io.open(p, 'wb')", True),
    ("Path(p).open('w')", True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)", True),
    ("os.open(p, os.O_RDWR)", True),
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("open(p, newline='', encoding='utf-8-sig')", False),
    ("Path(p).open()", False),
    ("os.open(p, os.O_RDONLY)", False),
    ("write_text(p, t)", False),
])
def test_file_writer_rule(source, writes):
    assert bool(_file_writers(source)) == writes


def test_one_file_writer():
    writers = [
        (path.name, where, line)
        for path in SOURCES
        for where, line in _file_writers(path.read_text())
    ]
    assert writers and {(name, where) for name, where, _ in writers} == {
        ("harness.py", "write_text")
    }, f"files are opened for writing outside harness.write_text: {writers}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    imported = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    imported += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    scipy = [name for name in imported if name.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy}"


def test_lp_distance_has_no_method_switch():
    assert list(inspect.signature(lp_distance).parameters) == ["p", "q", "epsilon"]


@pytest.mark.parametrize("name", [
    "_Dinic", "solve_flow", "pushforward_check",
    "wc_quantile_family", "wc_coverage_family", "_complete_plan",
])
def test_reference_solvers_not_in_src(name):
    found = [p.name for p in SOURCES if name in p.read_text()]
    assert not found, f"{name} appears in {found}"


def test_no_per_atom_transport_loop():
    # lp_distance and lp_profile share one numpy kernel.
    found = [p.name for p in SOURCES if "_sweep" in p.read_text()]
    assert not found, f"_sweep appears in {found}"


PUBLIC_NAMES = {
    "EstimationResult", "EvalReport", "GridPoint", "InfeasibleLevelError", "LPParams",
    "MethodSpec", "NoFeasibleGridError", "PerturbationSpec", "PointMass", "PredictionSet",
    "ScoreMatrix", "ScoreSample", "ThresholdResult", "TransportResult", "Uniform",
    "WeightedScores", "adjusted_beta", "cdf", "chi2_g", "chi2_g_inv", "chi2_threshold",
    "compare", "conformal_quantile", "coverage_lower_bound", "default_epsilon_grid",
    "estimate_lp_params", "evaluate", "fg_threshold", "lp_distance", "lp_profile",
    "lp_threshold", "perturb_draws", "perturb_sample", "prediction_set", "propagate_params",
    "quantile", "read_matrix", "read_scores", "read_weighted_scores", "robust_threshold",
    "rscp_threshold", "sc_threshold", "tv_distance", "tv_threshold", "weighted_threshold",
    "winf_distance", "winf_threshold", "winf_within", "worst_case_coverage",
    "worst_case_quantile",
}


def test_public_surface_is_pinned():
    assert len(lpconformal.__all__) == len(PUBLIC_NAMES)
    assert set(lpconformal.__all__) == PUBLIC_NAMES


MODULES = ["lpconformal"] + [f"lpconformal.{p.stem}" for p in SOURCES if p.stem != "__init__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_transport_result_is_a_plain_value():
    fields = [f.name for f in dataclasses.fields(TransportResult)]
    assert fields == ["rho", "matched_mass", "n", "m", "matched_units"]
    assert not hasattr(TransportResult, "certificate")


def _traced_targets():
    """The ``(module, attribute path)`` pairs of the benchmark tracer's ``TARGETS``.

    They are read from ``perfbench/spans.py``'s source, not imported, since
    the tracer patches each one by name.
    """
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    value = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return [(row.elts[1].value, row.elts[2].value) for row in value.elts]


def test_traced_targets_found():
    assert ("lpconformal.harness", "MethodSpec.threshold") in _traced_targets()


@pytest.mark.parametrize("module, attr", _traced_targets())
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr} does not resolve"
        owner = getattr(owner, part)
    assert callable(owner)
