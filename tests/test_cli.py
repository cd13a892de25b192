"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import io
import json
import os
import shlex
import stat

import numpy as np
import pytest

from lpconformal import (
    MethodSpec,
    fg_threshold,
    read_weighted_scores,
    PerturbationSpec,
    PointMass,
    compare,
    evaluate,
    perturb_sample,
    read_matrix,
    read_scores,
)
from lpconformal import cli, harness, lp_metric
from lpconformal.cli import main
from lpconformal.harness import METHOD_NAMES, WEIGHTED_METHODS, EvalReport

from oracles import fifo_receives, report_csv, report_json


@pytest.fixture
def scores_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "scores.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(size=200)))
    return path


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(1)
    rows, labels = 300, 4
    scores = 2.0 + np.abs(rng.normal(size=(rows, labels)))
    true = rng.integers(0, labels, size=rows)
    scores[np.arange(rows), true] = np.abs(rng.normal(size=rows))
    path = tmp_path / "matrix.csv"
    header = "true_label," + ",".join(f"s_{j}" for j in range(labels))
    lines = [header]
    for i in range(rows):
        lines.append(f"{true[i]}," + ",".join(repr(float(v)) for v in scores[i]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def chain_inputs(tmp_path, monkeypatch):
    """The inputs of :func:`_run_chain`, in ``tmp_path`` made the working directory."""
    g = np.random.default_rng(0)
    for name in ("calib_a", "calib_b", "test_base"):
        np.savetxt(tmp_path / f"{name}.csv", g.normal(size=80), fmt="%.17g")
    labels = g.integers(0, 3, size=200)
    scores = 2 + np.abs(g.normal(size=(200, 3)))
    scores[np.arange(200), labels] = np.abs(g.normal(size=200))
    np.savetxt(tmp_path / "matrix.csv", np.column_stack([labels, scores]), delimiter=",",
               fmt=["%d"] + ["%.17g"] * 3, header="true_label,s_0,s_1,s_2", comments="")
    weights = np.column_stack([g.integers(0, 5, size=60) / 4,
                               g.choice([0.1, 0.3, 1 / 3, 1.1], size=60)])
    np.savetxt(tmp_path / "weighted.csv", weights, delimiter=",", fmt="%.17g",
               header="score,weight", comments="")
    monkeypatch.chdir(tmp_path)
    return tmp_path


# Every subcommand once, as the CI smoke step runs them through the installed
# script; calibrate reads the (epsilon, rho) that estimate selected.
CHAIN = [
    "simulate --scores test_base.csv --epsilon 0.2 --rho 0.1 --global-value 1.5 --seed 1"
    " --out test.csv",
    "estimate --calib-a calib_a.csv --calib-b calib_b.csv --test test.csv --out estimate.json",
    "calibrate --scores calib_b.csv --method lp --epsilon {epsilon!r} --rho {rho!r}"
    " --out calibrate.json",
    "calibrate --weights weighted.csv --method weighted --alpha 0.2 --test-weight 0.7"
    " --out weighted.json",
    "calibrate --weights weighted.csv --method fg --alpha 0.2 --rho-chi2 0.05 --test-weight 0.7"
    " --out fg.json",
    "compare --matrix matrix.csv --methods sc,lp,tv,winf,chi2,weighted,rscp,fg --epsilon 0.1"
    " --rho 0.05 --splits 3 --n-calib 80 --k-test 60 --csv compare.csv --out compare.json",
    "compare --matrix matrix.csv --methods sc,lp,tv,winf,chi2,weighted,rscp,fg --epsilon 0.1"
    " --rho 0.05 --splits 3 --n-calib 80 --k-test 60 --perturb-epsilon 0.1 --perturb-rho 0.3"
    " --perturb-global 50 --perturb-seed 2 --csv perturbed.csv --out perturbed.json",
    "evaluate --method lp --matrix matrix.csv --epsilon 0.1 --rho 0.05 --splits 3 --n-calib 80"
    " --k-test 60 --perturb-epsilon 0.1 --perturb-rho 0.3 --perturb-global 50 --perturb-seed 2"
    " --fixed-perturbation --csv evaluate.csv --out evaluate.json",
]
CHAIN_OUTPUTS = ["test.csv", "test_spec.json", "estimate.json", "calibrate.json",
                 "weighted.json", "fg.json", "compare.csv", "compare.json", "perturbed.csv",
                 "perturbed.json", "evaluate.csv", "evaluate.json"]


def _run_chain():
    """Run :data:`CHAIN` in the working directory, each command to exit 0."""
    for command in CHAIN:
        if "{" in command:
            with open("estimate.json") as fh:
                command = command.format(**json.load(fh))
        assert main(shlex.split(command)) == 0, command


class TestChain:
    """The whole chain of subcommands, on the inputs of ``chain_inputs``."""

    def test_calibrate_applies_the_threshold_estimate_selected(self, chain_inputs):
        _run_chain()
        est, cal = (json.loads((chain_inputs / name).read_text())
                    for name in ("estimate.json", "calibrate.json"))
        assert cal["threshold"] == est["q"]
        assert cal["coverage_bound"] >= 0.9

    def test_reports_have_the_standard_layout_and_matching_csv_rows(self, chain_inputs):
        # Each JSON report is json.dumps(sort_keys=True, indent=2) of its own content,
        # and each CSV row holds the method, split and reprs of the JSON's per_split.
        _run_chain()
        for name in ("compare", "perturbed", "evaluate"):
            text = (chain_inputs / f"{name}.json").read_text()
            data = json.loads(text)
            assert json.dumps(data, sort_keys=True, indent=2) + "\n" == text
            reports = data.get("reports", [data])
            want = [[r["config"]["method"], str(j), repr(s["coverage"]), repr(s["mean_set_size"])]
                    for r in reports for j, s in enumerate(r["per_split"])]
            assert len(want) == (3 if name == "evaluate" else 24)
            with open(chain_inputs / f"{name}.csv", newline="") as fh:
                assert list(csv.reader(fh)) == [["method", "split", "coverage", "mean_set_size"],
                                                *want]

    def test_outputs_rewritten_over_longer_junk_are_the_same_bytes(self, chain_inputs):
        _run_chain()
        first = {name: (chain_inputs / name).read_bytes() for name in CHAIN_OUTPUTS}
        for name in CHAIN_OUTPUTS:
            (chain_inputs / name).write_bytes(b"x" * 200_000)
        _run_chain()
        assert {name: (chain_inputs / name).read_bytes() for name in CHAIN_OUTPUTS} == first


class TestCalibrate:
    def test_lp_json_output(self, scores_file, tmp_path, capsys):
        out = tmp_path / "thr.json"
        code = main([
            "calibrate", "--scores", str(scores_file), "--method", "lp",
            "--alpha", "0.1", "--epsilon", "0.1", "--rho", "0.05",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "lp"
        assert not payload["unbounded"]
        assert payload["threshold"] > 0

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_payload_records_the_parameters_the_rule_reads(self, scores_file, tmp_path,
                                                           capsys, name):
        flags = {"--epsilon": "0.1", "--rho": "0.05", "--rho-chi2": "0.1", "--delta": "0.05",
                 "--sigma": "2", "--test-weight": "1.5"}
        if name in WEIGHTED_METHODS:
            path = tmp_path / "w.csv"
            path.write_text("score,weight\n" + "".join(f"{v / 50},1.0\n" for v in range(50)))
            source = ["--weights", str(path)]
        else:
            source = ["--scores", str(scores_file)]
        argv = ["calibrate", "--method", name, *source, *(x for kv in flags.items() for x in kv)]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = MethodSpec(name, epsilon=0.1, rho=0.05, rho_chi2=0.1, delta=0.05, sigma=2.0,
                          test_weight=1.5)
        threshold = {"threshold", "unbounded", "level_used", "coverage_bound"}
        assert set(payload) == {"method", "alpha"} | threshold | set(spec.params_dict())
        assert {key: payload[key] for key in spec.params_dict()} == spec.params_dict()

    def test_sc_to_stdout(self, scores_file, capsys):
        assert main(["calibrate", "--scores", str(scores_file), "--method", "sc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "threshold" in payload

    def test_domain_error_exit_2(self, scores_file):
        code = main([
            "calibrate", "--scores", str(scores_file), "--method", "lp",
            "--alpha", "0.1", "--rho", "1.5",
        ])
        assert code == 2

    def test_missing_file_exit_3(self, tmp_path):
        code = main(["calibrate", "--scores", str(tmp_path / "nope.csv"), "--method", "sc"])
        assert code == 3

    def test_parse_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not-a-number\n")
        assert main(["calibrate", "--scores", str(bad), "--method", "sc"]) == 3

    def test_weighted_method(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("score,weight\n" + "".join(f"{v / 50},1.0\n" for v in range(50)))
        code = main([
            "calibrate", "--weights", str(path), "--method", "weighted",
            "--alpha", "0.1", "--test-weight", "1.0",
        ])
        assert code == 0

    @pytest.mark.parametrize("alpha", ["0.1", "0.4", "0.5"])
    def test_weighted_methods_match_the_library(self, tmp_path, capsys, alpha):
        # Tied scores in no order, with weights whose float sums round.
        rng = np.random.default_rng(6)
        scores = (rng.integers(0, 6, 40) / 2.0).tolist()
        weights = rng.choice([0.1, 0.2, 0.3, 0.7, 1 / 3, 1.1], 40).tolist()
        path = tmp_path / "w.csv"
        path.write_text("score,weight\n" + "".join(f"{s!r},{w!r}\n" for s, w in zip(scores, weights)))
        ws = read_weighted_scores(path, 0.7)
        sorted_scores, sorted_weights = ws.by_score()
        library = {"weighted": fg_threshold(ws, float(alpha), 0.0),
                   "fg": fg_threshold(ws, float(alpha), 0.05)}
        for name, want in library.items():
            spec = MethodSpec(name, rho_chi2=0.05, test_weight=0.7)
            assert spec.rule(ws.n, float(alpha), sorted_weights).apply(sorted_scores) == want
            assert main(["calibrate", "--weights", str(path), "--method", name, "--alpha", alpha,
                         "--rho-chi2", "0.05", "--test-weight", "0.7"]) == 0
            payload = _strict_json(capsys.readouterr().out)
            assert (payload["threshold"], payload["level_used"]) == (want.threshold, want.level_used)

    @pytest.mark.parametrize("name", ["weighted", "fg"])
    def test_weight_total_past_the_largest_double_exit_2(self, tmp_path, capsys, name):
        path = tmp_path / "w.csv"
        path.write_text("score,weight\n1.0,1e308\n2.0,1e308\n3.0,1e308\n")
        assert main(["calibrate", "--weights", str(path), "--method", name]) == 2
        assert capsys.readouterr() == ("", "error: the total weight overflows; rescale the weights\n")

    @pytest.mark.parametrize("argv, message", [
        (["--method", "sc", "--epsilon", "nan", "--rho", "inf"],
         "epsilon must be a finite nonnegative real, got nan"),
        (["--method", "sc", "--rho", "inf"], "rho must lie in [0, 1], got inf"),
        (["--method", "chi2", "--rho", "-5"], "rho must lie in [0, 1], got -5.0"),
        (["--method", "rscp", "--epsilon", "-1"], "epsilon must be a finite nonnegative real, got -1.0"),
    ])
    def test_epsilon_and_rho_checked_for_every_method(self, scores_file, capsys, argv, message):
        assert main(["calibrate", "--scores", str(scores_file), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_tv_and_winf_are_lp_at_the_value_they_fix(self, scores_file, capsys):
        def run(method, epsilon, rho):
            assert main(["calibrate", "--scores", str(scores_file), "--method", method,
                         "--epsilon", epsilon, "--rho", rho]) == 0
            payload = json.loads(capsys.readouterr().out)
            return [payload[key] for key in ("threshold", "unbounded", "level_used",
                                              "coverage_bound")]

        assert run("tv", "0.1", "0.05") == run("lp", "0", "0.05") != run("lp", "0.1", "0.05")
        assert run("winf", "0.1", "0.05") == run("lp", "0.1", "0") != run("lp", "0.1", "0.05")

    def test_compressed_name_is_read_as_text(self, tmp_path, capsys):
        # A plain-text score file past one 64 KiB gate block, under a name numpy
        # would decompress, gives the same report as its .csv copy.
        plain, gz = tmp_path / "big_test.csv", tmp_path / "big_test.csv.gz"
        np.savetxt(plain, np.random.default_rng(5).normal(size=32_768), fmt="%.17g")
        gz.write_bytes(plain.read_bytes())
        outputs = []
        for path in (plain, gz):
            assert main(["calibrate", "--scores", str(path), "--method", "sc"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_compare_checks_epsilon_and_rho(self, matrix_file, capsys):
        split = ["--splits", "2", "--n-calib", "100", "--k-test", "50"]
        for flags, message in ((["--epsilon", "nan"], "epsilon must be a finite nonnegative real, got nan"),
                               (["--rho", "inf"], "rho must lie in [0, 1], got inf")):
            code = main(["compare", "--matrix", str(matrix_file), "--methods", "sc,chi2",
                         *split, *flags])
            assert code == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestEstimate:
    def test_selects_pair_and_writes_trace(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        t = tmp_path / "t.csv"
        a.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(size=400)))
        b.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(size=400)))
        t.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(loc=0.1, size=400)))
        out = tmp_path / "est.json"
        code = main([
            "estimate", "--calib-a", str(a), "--calib-b", str(b), "--test", str(t),
            "--grid", "0.05,0.1,0.2,0.4", "--alpha", "0.1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["epsilon"] in (0.05, 0.1, 0.2, 0.4)
        assert len(payload["grid_trace"]) == 4

    def test_default_grid(self, tmp_path):
        rng = np.random.default_rng(3)
        a = tmp_path / "a.csv"
        a.write_text("".join(f"{float(v)!r}\n" for v in rng.normal(size=500)))
        code = main([
            "estimate", "--calib-a", str(a), "--calib-b", str(a), "--test", str(a),
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "o.json").read_text())
        assert len(payload["grid_trace"]) == 20


    def test_header_files_with_leading_blank_line(self, tmp_path):
        rng = np.random.default_rng(4)
        paths = []
        for name, loc in (("a", 0.0), ("b", 0.0), ("t", 0.1)):
            path = tmp_path / f"{name}.csv"
            values = rng.normal(loc=loc, size=300 if name == "t" else 400)
            path.write_text("\nscore\n" + "".join(f"{float(v)!r}\n" for v in values))
            paths.append(str(path))
        code = main([
            "estimate", "--calib-a", paths[0], "--calib-b", paths[1], "--test", paths[2],
            "--has-header", "--grid", "0.1,0.2,0.4", "--out", str(tmp_path / "o.json"),
        ])
        assert code == 0


    @pytest.mark.parametrize("values", [
        "1e308\n-1e308\n1e308\n-1e308\n0\n", "0\n0\n1e-322\n1e-322\n2e-322\n",
    ], ids=["overflowing", "subnormal"])
    def test_unusable_default_grid_exit_2(self, tmp_path, capsys, values):
        path = tmp_path / "s.csv"
        path.write_text(values)
        files = ["--calib-a", str(path), "--calib-b", str(path), "--test", str(path)]
        assert main(["estimate", *files]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the pooled interquartile range ") and err.count("\n") == 1
        assert "--grid" in err

    def test_unit_counts_past_int32(self, tmp_path, monkeypatch, capsys):
        # 65 536 x 32 768 scores: n*m + n passes 2**31, so the transport kernel's
        # scan runs in int64.
        widths = set()
        fills = lp_metric._fills

        def traced(x, y, eps):
            start, end = fills(x, y, eps)
            widths.add(start.dtype)
            return start, end

        monkeypatch.setattr(lp_metric, "_fills", traced)
        rng = np.random.default_rng(0)
        files = []
        for name, size in (("big_a", 65_536), ("calib_b", 80), ("big_test", 32_768)):
            files.append(tmp_path / f"{name}.csv")
            np.savetxt(files[-1], rng.normal(size=size), fmt="%.17g")
        assert main(["estimate", "--calib-a", str(files[0]), "--calib-b", str(files[1]),
                     "--test", str(files[2])]) == 0
        rho = [p["rho"] for p in json.loads(capsys.readouterr().out)["grid_trace"]]
        assert len(rho) == 20
        assert all(0.0 <= r <= 1.0 for r in rho) and all(b <= a for a, b in zip(rho, rho[1:]))
        assert widths == {np.dtype(np.int64)}

    @pytest.mark.parametrize("grid", ["", ",", " "])
    def test_empty_grid_exit_2(self, tmp_path, capsys, grid):
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{v / 49!r}\n" for v in range(50)))
        files = ["--calib-a", str(path), "--calib-b", str(path), "--test", str(path)]
        assert main(["estimate", *files, "--grid", grid]) == 2
        assert capsys.readouterr().err == "error: epsilon grid must be nonempty\n"


class TestEvaluateAndCompare:
    def test_evaluate_report(self, matrix_file, tmp_path):
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code = main([
            "evaluate", "--matrix", str(matrix_file), "--method", "sc",
            "--alpha", "0.1", "--splits", "5", "--n-calib", "150",
            "--k-test", "100", "--seed", "7", "--out", str(out),
            "--csv", str(csv_out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["per_split"]) == 5
        assert csv_out.exists()

    def test_byte_identical_reports(self, matrix_file, tmp_path):
        args = [
            "evaluate", "--matrix", str(matrix_file), "--method", "lp",
            "--alpha", "0.1", "--epsilon", "0.1", "--rho", "0.02",
            "--splits", "4", "--n-calib", "150", "--k-test", "100",
            "--seed", "3", "--perturb-rho", "0.05", "--perturb-epsilon", "0.1",
            "--perturb-global", "50.0",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compare_paired(self, matrix_file, tmp_path):
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--matrix", str(matrix_file), "--methods", "sc,lp",
            "--alpha", "0.1", "--epsilon", "0.1", "--rho", "0.05",
            "--splits", "4", "--n-calib", "150", "--k-test", "100",
            "--seed", "5", "--perturb-rho", "0.05", "--perturb-epsilon", "0.1",
            "--perturb-global", "50.0", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [r["config"]["method"] for r in payload["reports"]] == ["sc", "lp"]

    def test_bad_split_sizes_exit_2(self, matrix_file):
        code = main([
            "evaluate", "--matrix", str(matrix_file), "--method", "sc",
            "--splits", "3", "--n-calib", "500", "--k-test", "500",
        ])
        assert code == 2


class TestReportBytes:
    """``evaluate`` and ``compare`` write the oracle bytes of the library's reports."""

    SPLITS = ["--alpha", "0.1", "--epsilon", "0.1", "--rho", "0.05", "--splits", "5",
              "--n-calib", "120", "--k-test", "90", "--seed", "6", "--perturb-epsilon", "0.1",
              "--perturb-rho", "0.1", "--perturb-global", "50.0", "--perturb-seed", "8"]
    NAMES = ["sc", "lp", "tv", "winf", "chi2"]

    def _argv(self, command, matrix_file):
        if command == "evaluate":
            head = ["evaluate", "--method", "lp"]
        else:
            head = ["compare", "--methods", ",".join(self.NAMES)]
        return [*head, "--matrix", str(matrix_file), *self.SPLITS]

    def _library_reports(self, command, matrix_file):
        matrix = read_matrix(matrix_file)
        kwargs = dict(alpha=0.1, n_splits=5, n_calib=120, k_test=90, base_seed=6,
                      perturbation=PerturbationSpec(epsilon=0.1, rho=0.1,
                                                    global_law=PointMass(50.0), seed=8))
        if command == "evaluate":
            return [evaluate(matrix, MethodSpec("lp", epsilon=0.1, rho=0.05), **kwargs)]
        return compare(matrix, [MethodSpec(name, epsilon=0.1, rho=0.05) for name in self.NAMES],
                       **kwargs)

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_oracle_bytes(self, matrix_file, tmp_path, capsys, command, to_stdout):
        reports = self._library_reports(command, matrix_file)
        json_out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
        argv = [*self._argv(command, matrix_file), "--csv", str(csv_out)]
        if not to_stdout:
            argv += ["--out", str(json_out)]
        assert main(argv) == 0
        written = capsys.readouterr().out if to_stdout else json_out.read_text()
        assert written == report_json(reports, wrapped=command == "compare") + "\n"
        with open(csv_out, newline="") as fh:
            assert fh.read() == report_csv(reports)

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_traced_calls(self, matrix_file, tmp_path, monkeypatch, command):
        # The benchmark times report writing through these two names, so each
        # must run on the CLI path: once per table, and once per method.
        calls = {"write_report_csv": 0, "to_dict": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        original = harness.write_report_csv
        for module in (harness, cli):
            if module.write_report_csv is original:
                monkeypatch.setattr(module, "write_report_csv",
                                    counted("write_report_csv", original))
        monkeypatch.setattr(EvalReport, "to_dict", counted("to_dict", EvalReport.to_dict))
        argv = [*self._argv(command, matrix_file),
                "--csv", str(tmp_path / "r.csv"), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        methods = 1 if command == "evaluate" else len(self.NAMES)
        assert calls == {"write_report_csv": 1, "to_dict": methods}


# Small input files that each hold one refused value.
BAD_FILES = {
    "nan.csv": "0.5\nnan\n0.25\n",
    "label.csv": "true_label,s_0,s_1\n0,0.1,0.9\n2,0.8,0.2\n",
    "nan_matrix.csv": "true_label,s_0,s_1\n0,0.1,nan\n1,0.8,0.2\n",
    "weight.csv": "score,weight\n0.5,2.0\n0.25,0\n",
    "header_only.csv": "true_label,s_0,s_1\n",
}
SPLITS = "--splits 3 --n-calib 80 --k-test 60"
ONE_SPLIT = "--n-calib 1 --k-test 1 --splits 1"
HUGE_UNIFORM = "error: uniform bounds [-1e+308, 1e+308] are too far apart to sample"
NEGATIVE_SEED = "error: seed must be a non-negative integer, got -1"

# A bad parameter exits 2, and a refused value in an input file exits 3, with
# one stderr line that names it.
ERRORS = [
    pytest.param(2, "error: sigma must be finite and positive, got 0.0",
                 "calibrate --scores calib_b.csv --method rscp --sigma 0", id="sigma"),
    pytest.param(2, "error: test weight must be finite and positive, got -1.0",
                 "calibrate --method weighted --weights weighted.csv --test-weight -1",
                 id="test-weight"),
    pytest.param(2, "error: rho must lie in [0, 1], got 1.5",
                 "calibrate --scores calib_b.csv --method lp --rho 1.5", id="rho"),
    pytest.param(2, "error: rho_chi2 must be a finite nonnegative real, got nan",
                 f"compare --matrix matrix.csv --methods chi2 --rho-chi2 nan {SPLITS} --out bad.json",
                 id="rho-chi2"),
    pytest.param(2, "error: number of splits must be positive, got 0",
                 "compare --matrix matrix.csv --methods sc,lp --splits 0 --n-calib 80 --k-test 60"
                 " --out bad.json", id="splits"),
    pytest.param(2, "error: number of test rows must be positive, got 0",
                 "compare --matrix matrix.csv --methods sc,lp --splits 3 --n-calib 80 --k-test 0"
                 " --out bad.json", id="k-test"),
    pytest.param(2, NEGATIVE_SEED,
                 "simulate --scores test_base.csv --epsilon 0.2 --rho 0.1 --seed -1 --out bad.csv",
                 id="simulate-seed"),
    pytest.param(2, NEGATIVE_SEED,
                 f"compare --matrix matrix.csv --methods sc,lp {SPLITS} --perturb-rho 0.3"
                 " --perturb-seed -1 --out bad.json", id="perturb-seed"),
    # A default local law too wide to sample is refused before any draw.
    pytest.param(2, HUGE_UNIFORM,
                 "simulate --scores test_base.csv --epsilon 1e308 --rho 0.1 --out bad.csv",
                 id="simulate-epsilon"),
    pytest.param(2, HUGE_UNIFORM,
                 f"compare --matrix matrix.csv --methods sc,lp {SPLITS} --perturb-epsilon 1e308"
                 " --perturb-rho 0.1 --out bad.json", id="perturb-epsilon"),
    pytest.param(3, "error: nan.csv: scores must be finite (no NaN or infinities)",
                 "calibrate --scores nan.csv --method sc", id="nan-score"),
    pytest.param(3, "error: label.csv: true labels must index a matrix column",
                 f"evaluate --method sc --matrix label.csv {ONE_SPLIT}", id="label"),
    pytest.param(3, "error: nan_matrix.csv: score matrix entries must be finite",
                 f"evaluate --method sc --matrix nan_matrix.csv {ONE_SPLIT}", id="nan-matrix"),
    pytest.param(3, "error: weight.csv: weights must be finite and strictly positive",
                 "calibrate --weights weight.csv --method weighted", id="weight"),
    pytest.param(3, "error: header_only.csv: a score matrix needs at least one data row",
                 f"evaluate --method sc --matrix header_only.csv {ONE_SPLIT}", id="header-only"),
]


class TestArgumentErrors:
    @pytest.mark.parametrize("code, line, command", ERRORS)
    def test_exit_code_and_error_line(self, chain_inputs, capsys, code, line, command):
        for name, text in BAD_FILES.items():
            (chain_inputs / name).write_text(text)
        assert main(shlex.split(command)) == code
        assert capsys.readouterr() == ("", line + "\n")

    def test_negative_seed_exit_2(self, matrix_file, capsys):
        code = main([
            "evaluate", "--matrix", str(matrix_file), "--method", "sc",
            "--splits", "2", "--n-calib", "100", "--k-test", "50", "--seed", "-1",
        ])
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_perturbation_seed_exit_2(self, scores_file, matrix_file, tmp_path,
                                               capsys, command):
        if command == "simulate":
            argv = ["simulate", "--scores", str(scores_file), "--seed", "-1"]
        else:
            argv = ["compare", "--matrix", str(matrix_file), "--methods", "sc,lp",
                    "--n-calib", "100", "--k-test", "50", "--perturb-rho", "0.3",
                    "--perturb-seed", "-1"]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    def test_seeds_past_64_bits_exit_0(self, scores_file, matrix_file, tmp_path, capsys):
        # numpy's SeedSequence takes a non-negative integer of any size.
        big = str(2**64)
        out = tmp_path / "perturbed.csv"
        assert main(["simulate", "--scores", str(scores_file), "--rho", "0.2", "--seed", big,
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / "perturbed_spec.json").read_text())["seed"] == 2**64
        assert main(["compare", "--matrix", str(matrix_file), "--methods", "sc,lp",
                     "--splits", "2", "--n-calib", "100", "--k-test", "50", "--seed", big,
                     "--perturb-rho", "0.3", "--perturb-seed", big]) == 0
        config = json.loads(capsys.readouterr().out)["reports"][0]["config"]
        assert config["seed"] == 2**64 and config["perturbation"]["seed"] == 2**64

    def test_tv_unbounded_exit_0(self, scores_file, capsys):
        # rho above the adjusted miscoverage: unbounded, as for lp.
        code = main([
            "calibrate", "--scores", str(scores_file), "--method", "tv",
            "--alpha", "0.1", "--rho", "0.095",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unbounded"] and payload["coverage_bound"] is None


    def test_bad_test_weight_exit_2(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("score,weight\n" + "".join(f"{v / 50},1.0\n" for v in range(50)))
        for method in ("weighted", "fg"):
            code = main([
                "calibrate", "--weights", str(path), "--method", method, "--test-weight", "-1",
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err == "error: test weight must be finite and positive, got -1.0\n"

    def test_huge_shift_radius_exit_2(self, scores_file, matrix_file, tmp_path, capsys):
        code = main([
            "simulate", "--scores", str(scores_file), "--epsilon", "1e308", "--rho", "0.1",
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        message = "error: uniform bounds [-1e+308, 1e+308] are too far apart to sample\n"
        assert capsys.readouterr().err == message
        code = main([
            "evaluate", "--matrix", str(matrix_file), "--method", "sc", "--splits", "2",
            "--n-calib", "100", "--k-test", "50",
            "--perturb-epsilon", "1e308", "--perturb-rho", "0.1",
        ])
        assert code == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("methods", [",", " , ,", ""])
    def test_compare_without_methods_exit_2(self, matrix_file, capsys, methods):
        code = main([
            "compare", "--matrix", str(matrix_file), "--methods", methods,
            "--splits", "2", "--n-calib", "100", "--k-test", "50",
        ])
        assert code == 2
        assert "--methods names no method" in capsys.readouterr().err


def _strict_json(text):
    """Parse JSON, refusing the non-standard constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"not valid JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestOverflowingThreshold:
    """A threshold past the largest double is reported unbounded, never as Infinity."""

    @pytest.fixture
    def huge_scores(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in np.linspace(1.6e308, 1.7e308, 200)))
        return path

    @pytest.mark.parametrize("flags", [
        ["--method", "lp", "--epsilon", "1e308"],
        ["--method", "winf", "--epsilon", "1e308"],
        ["--method", "rscp", "--delta", "1", "--sigma", "1e-308"],
    ], ids=["lp", "winf", "rscp"])
    def test_calibrate(self, huge_scores, capsys, flags):
        assert main(["calibrate", "--scores", str(huge_scores), *flags]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["threshold"] is None and payload["unbounded"] is True
        assert payload["coverage_bound"] is None

    def test_estimate(self, huge_scores, capsys):
        files = ["--calib-a", str(huge_scores), "--calib-b", str(huge_scores),
                 "--test", str(huge_scores)]
        assert main(["estimate", *files, "--grid", "0.5,1e308"]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["epsilon"] == 0.5
        over = payload["grid_trace"][1]
        assert (over["q"], over["feasible"], over["reason"]) == (
            None, False, "threshold overflows"
        )
        assert main(["estimate", *files, "--grid", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: no feasible ambiguity set: 1 of 1 grid points: threshold overflows\n"
        )


class TestOverflowingPerturbation:
    """A displaced score past the largest double is clamped to it, without a warning.

    Warnings are errors under this suite, so an overflowing add would fail the run.
    """

    def test_simulate(self, tmp_path):
        scores = tmp_path / "huge.csv"
        scores.write_text("1.7e+308\n" * 50 + "1.0\n" * 50)
        out = tmp_path / "out.csv"
        assert main(["simulate", "--scores", str(scores), "--epsilon", "8e307",
                     "--rho", "0.1", "--out", str(out)]) == 0
        values = np.array([float(v) for v in out.read_text().split()])
        assert values.size == 100 and np.isfinite(values).all()
        assert (values == np.finfo(float).max).any()

    @pytest.mark.parametrize("command", [
        ["compare", "--methods", "sc,lp"],
        ["compare", "--methods", "sc,lp", "--fixed-perturbation"],
        ["evaluate", "--method", "sc", "--fixed-perturbation"],
    ], ids=["compare", "compare_fixed", "evaluate_fixed"])
    def test_split_loop(self, tmp_path, capsys, command):
        rng = np.random.default_rng(2)
        rows, labels = 120, 3
        true = rng.integers(0, labels, rows)
        scores = rng.normal(size=(rows, labels))
        scores[np.arange(rows), true] = 1.7e308
        matrix = tmp_path / "huge.csv"
        matrix.write_text("true_label,s_0,s_1,s_2\n" + "".join(
            f"{label}," + ",".join(repr(float(v)) for v in row) + "\n"
            for label, row in zip(true, scores)
        ))
        assert main([*command, "--matrix", str(matrix), "--splits", "3", "--n-calib", "60",
                     "--k-test", "50", "--perturb-epsilon", "8e307", "--perturb-rho", "0.1",
                     "--csv", str(tmp_path / "report.csv")]) == 0
        payload = _strict_json(capsys.readouterr().out)
        reports = payload["reports"] if "reports" in payload else [payload]
        assert all(0.0 < r["aggregate"]["coverage_mean"] <= 1.0 for r in reports)


class TestMalformedFiles:
    """Inputs that once ended in a traceback or in the wrong exit code."""

    MATRIX = "true_label,s_0,s_1\n0,0.1,0.9\n1,0.8,0.2\n0,0.3,0.7\n"
    EVALUATE = ["evaluate", "--method", "sc", "--n-calib", "2", "--k-test", "1", "--splits", "2"]
    WEIGHTS = "score,weight\n" + "".join(f"{v / 20},1.0\n" for v in range(20))

    def test_blank_first_line_exit_0(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("\n" + self.MATRIX)
        assert main(self.EVALUATE + ["--matrix", str(m)]) == 0
        w = tmp_path / "w.csv"
        w.write_text(" \n" + self.WEIGHTS)
        assert main(["calibrate", "--method", "weighted", "--weights", str(w)]) == 0

    @pytest.mark.parametrize("body, message", [
        (MATRIX.encode().replace(b"0.8", b"0.\xff8"), "can't decode byte 0xff"),
        (MATRIX.encode() + b'0,"' + b"7" * 200_000 + b'",0.5\n', "field larger than field limit"),
        (MATRIX.encode() + b"0," + b"0" * 200_000 + b"1.5,0.5\n", "field larger than field limit"),
        (MATRIX.encode() + b"99999999999999999999,0.1,0.2\n", "true labels must index"),
        (b"true_label,s_0,s_1\n", "a score matrix needs at least one data row"),
    ], ids=["not-utf8", "oversized-field", "unquoted-oversized-field", "huge-label",
            "header-only"])
    def test_unreadable_matrix_exit_3(self, tmp_path, capsys, body, message):
        m = tmp_path / "m.csv"
        m.write_bytes(body)
        assert main(self.EVALUATE + ["--matrix", str(m)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {m}: ") and message in err and err.count("\n") == 1

    BIG = b"0" * 200_000 + b"1.5"

    @pytest.mark.parametrize("flags, body", [
        (["--method", "sc", "--scores"], b"0.5\n" + BIG + b"\n"),
        (["--method", "sc", "--scores"], b"0.5," + BIG + b"\n"),
        (["--method", "weighted", "--weights"], WEIGHTS.encode() + BIG + b",1.0\n"),
        (["--method", "weighted", "--weights"], WEIGHTS.encode() + b"0.5," + BIG + b"\n"),
    ], ids=["score", "score-skipped-column", "weight-score", "weight"])
    def test_unquoted_oversized_number_exit_3(self, tmp_path, capsys, flags, body):
        path = tmp_path / "f.csv"
        path.write_bytes(body)
        assert main(["calibrate", *flags, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("body", [b"0.5\n\xff\n", b'"' + b"7" * 200_000 + b'"\n'])
    def test_unreadable_scores_and_weights_exit_3(self, tmp_path, body):
        path = tmp_path / "f.csv"
        path.write_bytes(body)
        assert main(["calibrate", "--method", "sc", "--scores", str(path)]) == 3
        assert main(["calibrate", "--method", "weighted", "--weights", str(path)]) == 3


class TestSimulate:
    def test_writes_scores_and_sidecar(self, scores_file, tmp_path):
        out = tmp_path / "perturbed.csv"
        code = main([
            "simulate", "--scores", str(scores_file), "--epsilon", "0.1",
            "--rho", "0.2", "--global-value", "25.0", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "perturbed_spec.json"
        payload = json.loads(sidecar.read_text())
        assert payload["rho"] == 0.2
        assert payload["global_law"] == {"kind": "point", "value": 25.0}
        values = [float(line) for line in out.read_text().split()]
        assert len(values) == 200

    def test_sidecar_records_its_local_law(self, scores_file, tmp_path):
        # Uniform on [-epsilon, epsilon] by default, else the point law asked for.
        head = ["simulate", "--scores", str(scores_file), "--epsilon", "0.2", "--rho", "0.1"]
        assert main([*head, "--out", str(tmp_path / "test.csv")]) == 0
        assert main([*head, "--local-law", "point", "--local-value", "0.1",
                     "--out", str(tmp_path / "point.csv")]) == 0
        laws = {name: json.loads((tmp_path / f"{name}_spec.json").read_text())["local_law"]
                for name in ("test", "point")}
        assert laws == {"test": {"kind": "uniform", "low": -0.2, "high": 0.2},
                        "point": {"kind": "point", "value": 0.1}}

    def test_writes_each_perturbed_score_by_repr(self, scores_file, tmp_path):
        out = tmp_path / "perturbed.csv"
        assert main([
            "simulate", "--scores", str(scores_file), "--epsilon", "0.1", "--rho", "0.2",
            "--local-law", "point", "--local-value", "-0.05", "--global-value", "25.0",
            "--seed", "11", "--out", str(out),
        ]) == 0
        spec = PerturbationSpec(epsilon=0.1, rho=0.2, local_law=PointMass(-0.05),
                                global_law=PointMass(25.0), seed=11)
        perturbed = perturb_sample(read_scores(scores_file), spec)
        assert out.read_text() == "".join(f"{float(v)!r}\n" for v in perturbed.scores)

    def test_edge_values_written_by_repr(self, tmp_path):
        # A local shift of -0.0 leaves every score, -0.0 included, as it is.
        values = [-0.0, 5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308]
        scores = tmp_path / "edge.csv"
        scores.write_text("".join(f"{v!r}\n" for v in values))
        out = tmp_path / "perturbed.csv"
        assert main([
            "simulate", "--scores", str(scores), "--local-law", "point",
            "--local-value", "-0.0", "--out", str(out),
        ]) == 0
        assert out.read_text() == "".join(f"{v!r}\n" for v in values)

    def test_deterministic_given_seed(self, scores_file, tmp_path):
        outs = []
        for name in ("p1.csv", "p2.csv"):
            out = tmp_path / name
            assert main([
                "simulate", "--scores", str(scores_file), "--epsilon", "0.1",
                "--rho", "0.2", "--global-value", "25.0", "--seed", "11",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestParserReuse:
    """``main`` parses every call with one parser; no call may see another's flags."""

    def test_no_value_leaks_between_calls(self, scores_file, tmp_path, capsys):
        with_header = tmp_path / "with_header.csv"
        with_header.write_text("score\n" + scores_file.read_text())
        plain = ["calibrate", "--scores", str(scores_file)]
        flagged = ["calibrate", "--scores", str(with_header), "--has-header", "--method", "sc",
                   "--alpha", "0.2", "--epsilon", "0.3", "--rho", "0.05"]

        def run(argv, name):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            return out.read_bytes()

        before = run(plain, "before.json")
        first_flagged = run(flagged, "flagged1.json")
        after = run(plain, "after.json")
        assert after == before
        assert run(flagged, "flagged2.json") == first_flagged
        payload = json.loads(after)
        assert (payload["method"], payload["alpha"], payload["epsilon"], payload["rho"]) == (
            "lp", 0.1, 0.0, 0.0)
        flagged_payload = json.loads(first_flagged)
        assert (flagged_payload["method"], flagged_payload["alpha"]) == ("sc", 0.2)
        assert capsys.readouterr() == ("", "")

    def test_exit_codes_and_stderr_repeat(self, scores_file, tmp_path, capsys):
        missing = ["calibrate", "--scores", str(tmp_path / "nope.csv"), "--method", "sc"]
        domain = ["calibrate", "--scores", str(scores_file), "--rho", "1.5"]
        usage = ["calibrate", "--scores", str(scores_file), "--method", "nope"]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            return code, capsys.readouterr()

        first = [outcome(argv) for argv in (missing, domain, usage)]
        assert [code for code, _ in first] == [3, 2, ("exit", 2)]
        assert all(out == "" and err for _, (out, err) in first)
        assert main(["calibrate", "--scores", str(scores_file), "--method", "sc"]) == 0
        capsys.readouterr()
        assert [outcome(argv) for argv in (missing, domain, usage)] == first


def _command_head(command, scores_file, matrix_file):
    scores, matrix = str(scores_file), str(matrix_file)
    splits = ["--matrix", matrix, "--epsilon", "0.1", "--rho", "0.05", "--splits", "3",
              "--n-calib", "100", "--k-test", "80", "--seed", "5"]
    return {
        "simulate": ["simulate", "--scores", scores, "--epsilon", "0.1", "--rho", "0.2",
                     "--global-value", "25.0", "--seed", "11"],
        "estimate": ["estimate", "--calib-a", scores, "--calib-b", scores, "--test", scores,
                     "--grid", "0.05,0.1,0.2"],
        "calibrate": ["calibrate", "--scores", scores, "--method", "lp",
                      "--epsilon", "0.1", "--rho", "0.05"],
        "evaluate": ["evaluate", "--method", "lp", *splits],
        "compare": ["compare", "--methods", "sc,lp,tv,chi2", *splits],
    }[command]


def _expected_bytes(path, data: bytes) -> bytes:
    """What ``open(path, "w")`` writes for the text parsed back out of ``data``."""
    text = data.decode()
    if path.suffix == ".json":
        return (json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n").encode()
    if path.name == "report.csv":
        fh = io.StringIO(newline="")
        csv.writer(fh).writerows(csv.reader(io.StringIO(text, newline="")))
        return fh.getvalue().encode()
    return "".join(f"{float(v)!r}\n" for v in text.split()).encode()


class TestOutputFiles:
    """Each output is rewritten in place to the bytes ``open(path, "w")`` writes."""

    COMMANDS = ["simulate", "estimate", "calibrate", "evaluate", "compare"]
    TARGETS = [("simulate", "--out"), ("estimate", "--out"), ("calibrate", "--out"),
               ("evaluate", "--out"), ("evaluate", "--csv"), ("compare", "--out"),
               ("compare", "--csv")]

    def _run(self, command, scores_file, matrix_file, out_dir):
        """Run ``command`` with every output in ``out_dir``; return the output paths."""
        if command == "simulate":
            outputs = [out_dir / "test.csv", out_dir / "test_spec.json"]
            flags = ["--out", str(outputs[0])]
        elif command in ("evaluate", "compare"):
            outputs = [out_dir / "report.json", out_dir / "report.csv"]
            flags = ["--out", str(outputs[0]), "--csv", str(outputs[1])]
        else:
            outputs = [out_dir / f"{command}.json"]
            flags = ["--out", str(outputs[0])]
        assert main(_command_head(command, scores_file, matrix_file) + flags) == 0
        return outputs

    @pytest.mark.parametrize("command", COMMANDS)
    def test_fresh_and_rewritten_outputs_are_the_same_bytes(
            self, scores_file, matrix_file, tmp_path, command):
        fresh_dir, rewritten_dir = tmp_path / "fresh", tmp_path / "rewritten"
        fresh_dir.mkdir()
        rewritten_dir.mkdir()
        fresh = {p.name: p.read_bytes() for p in self._run(command, scores_file, matrix_file,
                                                             fresh_dir)}
        for path in (fresh_dir / name for name in fresh):
            assert fresh[path.name] == _expected_bytes(path, fresh[path.name])
        for junk in (lambda data: b"\x00junk\r\n" * (len(data) // 3 + 100), lambda data: b"{"):
            for name, data in fresh.items():
                (rewritten_dir / name).write_bytes(junk(data))
                os.chmod(rewritten_dir / name, 0o640)
            before = {name: os.stat(rewritten_dir / name).st_ino for name in fresh}
            outputs = self._run(command, scores_file, matrix_file, rewritten_dir)
            assert {p.name: p.read_bytes() for p in outputs} == fresh
            for path in outputs:
                assert os.stat(path).st_ino == before[path.name]
                assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command, flag", TARGETS)
    def test_unwritable_target_exit_3(self, scores_file, matrix_file, tmp_path, capsys,
                                      command, flag, target):
        path = tmp_path / "out.d" if target == "directory" else tmp_path / "no" / "out"
        if target == "directory":
            path.mkdir()
        with pytest.raises(OSError) as expected:
            open(path, "w")
        argv = _command_head(command, scores_file, matrix_file) + [flag, str(path)]
        if flag == "--csv":
            argv += ["--out", str(tmp_path / "report.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {expected.value}\n"

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    @pytest.mark.parametrize("command, flag", [t for t in TARGETS if t[0] != "simulate"])
    def test_null_device_exit_0(self, scores_file, matrix_file, capsys, command, flag):
        argv = _command_head(command, scores_file, matrix_file) + [flag, os.devnull]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("command, flag", [("calibrate", "--out"), ("estimate", "--out"),
                                               ("compare", "--out"), ("compare", "--csv")])
    def test_named_pipe_receives_the_bytes(self, scores_file, matrix_file, tmp_path, capsys,
                                           command, flag):
        regular = tmp_path / "regular"
        pipe = tmp_path / "pipe"
        head = _command_head(command, scores_file, matrix_file)
        assert main(head + [flag, str(regular)]) == 0
        code, received = fifo_receives(pipe, lambda: main(head + [flag, str(pipe)]))
        assert code == 0
        assert received == regular.read_bytes()
        assert capsys.readouterr().err == ""
