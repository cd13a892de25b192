"""Malformed input files through the CLI and the readers.

Whatever a score, weight or matrix file holds, ``calibrate``, ``estimate`` and
``evaluate`` exit 0, 2 or 3, and a failure is one ``error:`` line on stderr.
Each reader returns the same arrays, or raises the same error, with its
``np.loadtxt`` fast path as with the ``csv`` parser alone, a value its builder
refuses included.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lpconformal import read_matrix, read_scores, read_weighted_scores
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
# Each command's well-formed record holding a value its reader's builder refuses:
# a score that is not finite, a weight that is not positive, a label past the last column.
NONFINITE = st.sampled_from(["nan", "inf", "-inf", "1e999"])
REFUSED = {
    "calibrate": NONFINITE,
    "calibrate-header": NONFINITE,
    "calibrate-weighted": st.one_of(
        st.tuples(NONFINITE, st.floats(0.1, 5).map(repr)),
        st.tuples(SCORE, st.sampled_from(["0", "-0.0", "-1", "nan", "inf"])),
    ).map(",".join),
    "estimate": NONFINITE,
    "evaluate": st.one_of(
        st.tuples(st.sampled_from(["2", "7"]), SCORE, SCORE),
        st.tuples(st.sampled_from("01"), NONFINITE, SCORE),
    ).map(",".join),
}


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


def _read_weights(path):
    ws = read_weighted_scores(path, 1.0)
    return ws.scores, ws.weights


def _read_matrix(path):
    m = read_matrix(path)
    return m.scores, m.true_labels


READERS = [
    lambda path: (read_scores(path).scores,),
    lambda path: (read_scores(path, has_header=True).scores,),
    _read_weights,
    _read_matrix,
]


def _outcomes(path):
    """Each reader's arrays, bit for bit, or its exception type and message."""
    outcomes = []
    for reader in READERS:
        try:
            arrays = reader(path)
        except Exception as exc:  # compared, not handled
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append([(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays])
    return outcomes


def _refuse(*args, **kwargs):
    raise ValueError("np.loadtxt is switched off")


@st.composite
def clean_files(draw):
    """A header after 0-3 blank or whitespace-only lines, then well-formed records,
    at most one refused and one junk."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, header, record = COMMANDS[command]
    lines = [header] + draw(st.lists(record, min_size=1, max_size=12))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(REFUSED[command]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(JUNK))
    lines = draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=3)) + lines
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode() + b"\n"


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(inputs().map(lambda case: case[1]), clean_files()))
def test_fast_path_reads_as_the_csv_parser(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("diff") / "input.csv"
    path.write_bytes(data)
    fast = _outcomes(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _refuse)
        slow = _outcomes(path)
    event(f"{sum(isinstance(o, list) for o in slow)} of {len(READERS)} readers accept")
    assert fast == slow
