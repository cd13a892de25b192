"""End-to-end tests of the command-line interface and its exit codes."""

import json

import numpy as np
import pytest

from lpconformal.cli import main


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


class TestArgumentErrors:
    def test_negative_seed_exit_2(self, matrix_file, capsys):
        code = main([
            "evaluate", "--matrix", str(matrix_file), "--method", "sc",
            "--splits", "2", "--n-calib", "100", "--k-test", "50", "--seed", "-1",
        ])
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

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
    ], ids=["not-utf8", "oversized-field", "unquoted-oversized-field", "huge-label"])
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
