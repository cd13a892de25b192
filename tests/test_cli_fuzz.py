"""Malformed input files through the CLI.

Whatever a score, weight or matrix file holds, ``calibrate``, ``estimate`` and
``evaluate`` exit 0, 2 or 3, and a failure is one ``error:`` line on stderr.
"""

import contextlib
import io

from hypothesis import event, given, settings
from hypothesis import strategies as st

from lpconformal.cli import main

SCORE = st.floats(min_value=-5, max_value=5).map(repr)
NUMBER = st.one_of(
    SCORE,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers().map(str),
    st.integers(min_value=10**18, max_value=10**30).map(str),
)
FIELD = st.one_of(
    NUMBER,
    st.sampled_from([
        "", " ", "nan", "-inf", "1e999", "1_0", "true_label", "score", "weight", "s_0",
        '"', '""', '"1,2"', '"0.5\n0.5"', "\x00", "٣", " 0.5 ",
    ]),
    st.text(max_size=4),
)
JUNK = st.one_of(st.lists(FIELD, max_size=4).map(",".join), st.sampled_from(["", " ", "\t"]))
DAMAGE = st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"', b"7" * 140_000])

# Each command with its input file's header and well-formed record.
COMMANDS = {
    "calibrate": (
        ["calibrate", "--method", "lp", "--alpha", "0.5", "--epsilon", "0.1", "--rho", "0.05",
         "--scores", "{f}"],
        "", SCORE,
    ),
    "calibrate-header": (
        ["calibrate", "--method", "sc", "--has-header", "--scores", "{f}"], "score", SCORE,
    ),
    "calibrate-weighted": (
        ["calibrate", "--method", "fg", "--rho-chi2", "0.1", "--weights", "{f}"],
        "score,weight",
        st.tuples(SCORE, st.floats(0.1, 5).map(repr)).map(",".join),
    ),
    "estimate": (
        ["estimate", "--alpha", "0.5", "--calib-a", "{f}", "--calib-b", "{f}", "--test", "{f}"],
        "", SCORE,
    ),
    "evaluate": (
        ["evaluate", "--method", "sc", "--n-calib", "2", "--k-test", "1", "--splits", "2",
         "--matrix", "{f}"],
        "true_label,s_0,s_1",
        st.tuples(st.sampled_from("01"), SCORE, SCORE).map(",".join),
    ),
}
HEADERS = [header for _, header, _ in COMMANDS.values()]


@st.composite
def inputs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, header, record = COMMANDS[command]
    header = draw(st.sampled_from(HEADERS + [header] * 3))
    lines = [draw(st.sampled_from(["", "\n", " \n\t\n"])) + header]
    lines += draw(st.lists(record, max_size=12))
    for junk in draw(st.lists(JUNK, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode() + b"\n"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(DAMAGE) + data[at:]
    return command, data


@settings(max_examples=150, deadline=None)
@given(case=inputs())
def test_malformed_files_reach_documented_exit_codes(tmp_path_factory, case):
    command, data = case
    path = tmp_path_factory.mktemp("fuzz") / "input.csv"
    path.write_bytes(data)
    argv = [arg.format(f=path) for arg in COMMANDS[command][0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{command}: exit {code}")
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""
