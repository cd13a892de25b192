"""Extreme and malformed flag values through the CLI, on well-formed files.

Whatever the float and int flags of a subcommand hold (NaN, infinities,
``-0.0``, negative, huge or empty values, empty lists), ``lpconformal`` exits
0, 2 or 3 with no traceback, and a failure is one ``error:`` line on stderr.
An argparse rejection (``SystemExit(2)``) passes too. A run that exits 0
writes strict JSON: no ``NaN`` or ``Infinity``.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lpconformal.cli import main
from lpconformal.harness import METHOD_NAMES

ROWS = 40
EXTREME = ["nan", "inf", "-inf", "-0.0", "-1", "-0.5", "1e308", "-1e308", str(2**64), ""]
FLOATS = EXTREME + ["0", "1e-300", "0.05", "0.1", "0.5", "1", "3"]
COUNTS = [str(k) for k in (-1, 0, 1, 2, 3, 2**63, 2**64)] + ["nan", "1e308", "", "1.5"]
GRIDS = ["", ",", " , ,", "nan", "inf,1", "0.1,0.05", "-1", "1e308", "0,0.1,0.2", "0.1,,0.2"]
METHODS = ["", ",", "sc,lp", ",".join(METHOD_NAMES), "lp,nope"]

# The float and int flags of each subcommand, with the value each gets when
# the draw leaves it alone.
METHOD_FLAGS = {"--alpha": "0.2", "--epsilon": "0.1", "--rho": "0.05", "--rho-chi2": "0.1",
                "--delta": "0.1", "--sigma": "1", "--test-weight": "1"}
SPLIT_FLAGS = {**METHOD_FLAGS, "--splits": "2", "--n-calib": "20", "--k-test": "10",
               "--seed": "0", "--perturb-epsilon": "0", "--perturb-rho": "0",
               "--perturb-global": "0", "--perturb-seed": "0"}
FLAGS = {
    "calibrate": METHOD_FLAGS,
    "estimate": {"--alpha": "0.2", "--grid": "0.05,0.1,0.2"},
    "evaluate": SPLIT_FLAGS,
    "compare": {**SPLIT_FLAGS, "--methods": "sc,lp"},
    "simulate": {"--epsilon": "0.1", "--rho": "0.1", "--global-value": "0",
                 "--local-value": "0", "--seed": "0"},
}
INT_FLAGS = {"--splits", "--n-calib", "--k-test", "--seed", "--perturb-seed"}


def values_for(flag):
    if flag == "--grid":
        return GRIDS
    if flag == "--methods":
        return METHODS
    return COUNTS if flag in INT_FLAGS else FLOATS


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    rng = np.random.default_rng(5)
    scores = root / "scores.csv"
    scores.write_text("".join(f"{v!r}\n" for v in rng.normal(size=ROWS).tolist()))
    weights = root / "weights.csv"
    weights.write_text("score,weight\n" + "".join(
        f"{s!r},{w!r}\n" for s, w in zip(rng.normal(size=ROWS).tolist(),
                                         rng.uniform(0.5, 2, ROWS).tolist())))
    matrix = root / "matrix.csv"
    labels = rng.integers(0, 3, ROWS).tolist()
    rows = rng.uniform(0, 3, (ROWS, 3)).tolist()
    matrix.write_text("true_label,s_0,s_1,s_2\n" + "".join(
        f"{k}," + ",".join(repr(v) for v in row) + "\n" for k, row in zip(labels, rows)))
    return {"scores": scores, "weights": weights, "matrix": matrix, "out": root / "out.csv"}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = draw(st.permutations(sorted(flags)))[: draw(st.integers(1, 3))]
    values = {flag: draw(st.sampled_from(values_for(flag))) for flag in chosen}
    extra = []
    if command in ("calibrate", "evaluate"):
        extra = ["--method", draw(st.sampled_from(METHOD_NAMES))]
    elif command == "simulate":
        extra = ["--local-law", draw(st.sampled_from(["uniform", "point"]))]
    if command in ("evaluate", "compare") and draw(st.booleans()):
        extra.append("--fixed-perturbation")
    return command, {**flags, **values}, extra


def strict_json(text):
    """Parse JSON, refusing the non-standard constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"not valid JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def argv_for(command, values, extra, files):
    argv = [command] + extra + [f"{flag}={value}" for flag, value in values.items()]
    if command == "calibrate":
        weighted = extra[1] in ("weighted", "fg")
        argv += ["--weights" if weighted else "--scores",
                 str(files["weights" if weighted else "scores"])]
    elif command == "estimate":
        argv += [f"--{name}={files['scores']}" for name in ("calib-a", "calib-b", "test")]
    elif command in ("evaluate", "compare"):
        argv += ["--matrix", str(files["matrix"])]
        try:
            splits = int(values["--splits"])
        except ValueError:
            splits = 0
        if splits > 3:
            # Only a run that fails validation may ask for many splits.
            argv.append(f"--n-calib={ROWS + 1}")
    else:
        argv += ["--scores", str(files["scores"]), "--out", str(files["out"])]
    return argv


@settings(max_examples=150, deadline=None)
@given(case=invocations())
@example(case=("simulate", {**FLAGS["simulate"], "--epsilon": "1e308"}, ["--local-law", "uniform"]))
@example(case=("evaluate", {**SPLIT_FLAGS, "--perturb-epsilon": "1e308", "--perturb-rho": "0.1"},
               ["--method", "sc"]))
@example(case=("calibrate", {**METHOD_FLAGS, "--epsilon": "nan", "--rho": "inf"}, ["--method", "sc"]))
@example(case=("calibrate", {**METHOD_FLAGS, "--rho": "-1"}, ["--method", "chi2"]))
@example(case=("compare", {**SPLIT_FLAGS, "--methods": "sc,lp", "--epsilon": "nan"}, []))
def test_flag_values_reach_documented_exit_codes(files, case):
    command, values, extra = case
    argv = argv_for(command, values, extra, files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            event(f"{command}: argparse")
            return
    event(f"{command}: exit {code}")
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
    else:
        assert err.getvalue() == "", argv
        if command == "simulate":
            strict_json(files["out"].with_name("out_spec.json").read_text())
        else:
            strict_json(out.getvalue())
