from __future__ import annotations

import json

import numpy as np
import pytest

import tracepursuit.nulldist as nulldist
from tracepursuit import SimDesign, generate, slice_response, trace_test
from tracepursuit.cli import ingest_csv, main, write_csv
from tracepursuit.errors import (
    IngestionError,
    MissingResponseError,
    NonNumericCellError,
    TooFewSamplesError,
)
from tracepursuit.kernels import Method
from tracepursuit.nulldist import influence_dim, trace_test_with_weights


@pytest.fixture
def model_csv(tmp_path):
    d, _ = generate(SimDesign(model="I", n=120, p=6, seed=3))
    path = tmp_path / "model1.csv"
    write_csv(d, str(path))
    return str(path)


BENCH_ARGV = ["bench", "--model", "1", "--p", "5", "--n", "60", "--reps", "1"]


class TestIngest:
    def test_too_few_samples(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(TooFewSamplesError):
            ingest_csv(str(path))

    def test_missing_response_names_columns(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("a,b\n" + "\n".join("1,2" for _ in range(12)) + "\n")
        with pytest.raises(MissingResponseError) as exc:
            ingest_csv(str(path))
        assert "a" in str(exc.value) and "b" in str(exc.value)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        rows = ["1,2,3"] * 12
        rows[4] = "1,oops,3"
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(NonNumericCellError) as exc:
            ingest_csv(str(path))
        assert "row 6" in str(exc.value) and "x2" in str(exc.value)

    def test_no_predictor_columns(self, tmp_path):
        path = tmp_path / "yonly.csv"
        path.write_text("y\n" + "\n".join(str(i) for i in range(12)) + "\n")
        with pytest.raises(IngestionError) as exc:
            ingest_csv(str(path))
        assert exc.value.category == "ingestion"

    def test_case_insensitive_response(self, tmp_path):
        path = tmp_path / "upper.csv"
        path.write_text("x1,Y\n" + "\n".join(f"{i},{i % 4}" for i in range(12)) + "\n")
        d = ingest_csv(str(path))
        assert d.p == 1 and d.n == 12

    @pytest.mark.parametrize("header", ["y,x1,x2", "x1,x2,y"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark."""
        path = tmp_path / "bom.csv"
        rows = [f"{i},{i % 3},{i % 5}" for i in range(12)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        d = ingest_csv(str(path))
        assert d.column_names == ("x1", "x2") and d.n == 12

    def test_blank_rows_are_skipped_and_not_counted(self, tmp_path):
        rows = ["1,2,3", "", ",,", " , ,\t"] + ["1,2,3"] * 8
        path = tmp_path / "blank.csv"
        path.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(TooFewSamplesError, match="only 9 data rows"):
            ingest_csv(str(path))
        path.write_text("x1,x2,y\n" + "\n".join(rows + [f"{i},2,{i}" for i in range(4)]) + "\n")
        d = ingest_csv(str(path))
        assert d.n == 13

    def test_ragged_row_reports_both_cell_counts(self, tmp_path):
        rows = ["1,2,3"] * 12
        rows[3] = "1,2"
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(NonNumericCellError, match="row 5 has 2 cells, expected 3"):
            ingest_csv(str(path))

    def test_round_trip_bit_equal(self, tmp_path):
        d, _ = generate(SimDesign(model="I", n=50, p=5, seed=8))
        path = tmp_path / "roundtrip.csv"
        write_csv(d, str(path))
        assert path.read_bytes().startswith(b"x1,")  # no byte-order mark
        d2 = ingest_csv(str(path))
        assert np.array_equal(d.x, d2.x)
        assert np.array_equal(d.y, d2.y)


class TestCommands:
    def test_select_finds_actives(self, model_csv, capsys):
        rc = main(["select", model_csv, "--method", "sir"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "selected" in out

    def test_select_json_lines_deterministic(self, model_csv, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        args = ["select", model_csv, "--method", "sir", "--format", "json-lines"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        record = json.loads(out1.read_text())
        assert record["schema_version"] == 1
        assert record["command"] == "select"
        assert sorted(record["result"]["selected"]) == record["result"]["selected"]

    def test_screen_single_predictor(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        y = x + 0.1 * rng.standard_normal(30)
        path = tmp_path / "p1.csv"
        path.write_text(
            "x1,y\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
            + "\n"
        )
        rc = main(["screen", str(path), "--format", "json-lines"])
        out = capsys.readouterr().out
        assert rc == 0
        record = json.loads(out)
        assert len(record["result"]["path"]) == 1
        assert record["result"]["chosen_set"] == [1]

    def test_screen_keeps_the_full_path_at_p_above_n(self, tmp_path, capsys):
        """Only HTP stops its screening path early; ``screen`` reports it all."""
        d, _ = generate(SimDesign(model="I", n=100, p=2000, seed=1))
        path = tmp_path / "wide.csv"
        write_csv(d, str(path))
        rc = main(["screen", str(path), "--method", "sir", "--slices", "4",
                   "--format", "json-lines"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(json.loads(out)["result"]["path"]) == 94

    def test_trace_test_command(self, model_csv, capsys):
        rc = main(
            ["test", model_csv, "--working-set", "1,2", "--candidate", "3",
             "--method", "sir", "--format", "json-lines"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        record = json.loads(out)
        res = record["result"]
        assert res["reject"] == (res["statistic"] > res["threshold"])
        assert res["weights"]["dim"] == 4

    @pytest.mark.parametrize("exact", [[], ["--exact-quantile"]])
    def test_trace_test_reports_every_dr_weight(self, model_csv, capsys, exact):
        rc = main(
            ["test", model_csv, "--working-set", "1,2", "--candidate", "3",
             "--method", "dr", "--format", "json-lines", *exact]
        )
        out = capsys.readouterr().out
        assert rc == 0
        weights = json.loads(out)["result"]["weights"]
        assert weights["dim"] == influence_dim(Method.DR, 2, 4)
        assert 0 < weights["positive"] <= weights["dim"]
        assert 0.0 < weights["largest"] <= weights["sum"]

    @pytest.mark.parametrize("exact", [[], ["--exact-quantile"]])
    @pytest.mark.parametrize("method", list(Method))
    def test_trace_test_builds_and_decomposes_one_weight_matrix(
        self, model_csv, capsys, monkeypatch, method, exact
    ):
        built, decomposed = [], []
        real_omega_hat, real_eigvalsh = nulldist.omega_hat, np.linalg.eigvalsh

        def spy_omega_hat(ell, **kwargs):
            built.append(ell.shape)
            return real_omega_hat(ell, **kwargs)

        def spy_eigvalsh(a, *args, **kwargs):
            decomposed.append(a.shape)
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(nulldist, "omega_hat", spy_omega_hat)
        monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
        rc = main(
            ["test", model_csv, "--working-set", "1,2", "--candidate", "3",
             "--method", method.value, "--format", "json-lines", *exact]
        )
        assert rc == 0
        dim = influence_dim(method, 2, 4)
        assert built == [(120, dim)]
        assert decomposed == [(dim, dim)]
        res = json.loads(capsys.readouterr().out)["result"]
        d = ingest_csv(model_csv)
        s = slice_response(d.y, 4)
        if exact:
            direct, _ = trace_test_with_weights(method, d, s, (1, 2), 3, 0.05, "exact")
        else:
            direct = trace_test(method, d, s, (1, 2), 3, 0.05)
        assert (res["statistic"], res["threshold"]) == (direct.statistic, direct.threshold)

    def test_bench_partition_and_determinism(self, tmp_path):
        out1 = tmp_path / "b1.jsonl"
        out2 = tmp_path / "b2.jsonl"
        args = [
            "bench", "--model", "1", "--p", "6", "--n", "150", "--reps", "4",
            "--method", "sir", "--seed", "5", "--format", "json-lines",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rec = json.loads(out1.read_text())["result"]
        assert rec["uf"] + rec["cf"] + rec["of"] == rec["reps"] == 4

    def test_bench_csv_format(self, capsys):
        rc = main(
            ["bench", "--model", "2", "--p", "6", "--n", "150", "--reps", "2",
             "--method", "save", "--seed", "1", "--format", "csv"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        header = out[0].split(",")
        row = out[1].split(",")
        vals = dict(zip(header, row))
        assert int(vals["uf"]) + int(vals["cf"]) + int(vals["of"]) == 2

    def test_bench_export_data_round_trips(self, tmp_path):
        export = tmp_path / "rep0.csv"
        rc = main(
            ["bench", "--model", "1", "--p", "5", "--n", "60", "--reps", "1",
             "--seed", "9", "--method", "sir", "--export-data", str(export),
             "--format", "json-lines", "--out", str(tmp_path / "o.jsonl")]
        )
        assert rc == 0
        d_file = ingest_csv(str(export))
        d_mem, _ = generate(SimDesign(model="I", n=60, p=5, seed=9), replication=0)
        assert np.array_equal(d_file.x, d_mem.x)

    def test_error_exit_code_and_category(self, tmp_path, capsys):
        path = tmp_path / "noy.csv"
        path.write_text("a,b\n" + "\n".join("1,2" for _ in range(12)) + "\n")
        rc = main(["select", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "missing-response" in err

    def test_error_record_in_json_lines(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,y\n1,2\n3,4\n")
        rc = main(["select", str(path), "--format", "json-lines"])
        captured = capsys.readouterr()
        assert rc == 1
        record = json.loads(captured.out)
        assert record["error"]["category"] == "too-few-samples"

    @pytest.mark.parametrize("flag", [["--p", "3"], ["--rho", "1"], ["--sigma", "0"]])
    def test_bad_design_is_invalid_argument(self, flag, capsys):
        rc = main(["bench", "--model", "1", *flag])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error[invalid-argument]" in err
        rc = main(["bench", "--model", "1", *flag, "--format", "json-lines"])
        record = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert record["command"] == "bench"
        assert record["error"]["category"] == "invalid-argument"

    @pytest.mark.parametrize(
        "argv, message",
        [(BENCH_ARGV + ["--slices", "0"], "h_count must be >= 2"),
         (BENCH_ARGV + ["--sigma", "nan"], "sigma_noise must be finite"),
         (["test", "d.csv", "--working-set", "1,a", "--candidate", "3"],
          "--working-set must be comma-separated integers, got '1,a'")],
        ids=["slices-0", "sigma-nan", "working-set-1,a"],
    )
    def test_bench_rejects_degenerate_flag(self, argv, message, capsys):
        rc = main(argv + ["--format", "json-lines"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error[invalid-argument]" in captured.err
        error = json.loads(captured.out)["error"]
        assert error["category"] == "invalid-argument"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("fmt", ["table", "json-lines"])
    def test_missing_input_is_io_error(self, fmt, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        rc = main(["test", missing, "--candidate", "1", "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error[io-error]" in captured.err
        if fmt == "json-lines":
            assert json.loads(captured.out)["error"]["category"] == "io-error"

    @pytest.mark.parametrize("fmt", ["table", "json-lines"])
    def test_unwritable_out_is_io_error(self, fmt, tmp_path, capsys):
        out = str(tmp_path / "no-such-dir" / "out.txt")
        rc = main(["bench", "--model", "1", "--p", "5", "--n", "60", "--reps", "1",
                   "--format", fmt, "--out", out])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error[io-error]" in captured.err
        if fmt == "json-lines":
            assert json.loads(captured.out)["error"]["category"] == "io-error"

    @pytest.mark.parametrize("fmt", ["table", "json-lines"])
    @pytest.mark.parametrize("cell", ["huge", "inf"])
    def test_bad_cell_value_is_a_data_error(self, cell, fmt, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 5))  # the last column is the response
        if cell == "huge":
            x[:, 2] *= 1e160
        else:
            x[7, 2] = np.inf
        path = tmp_path / "bad.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in x]
        path.write_text("x1,x2,x3,x4,y\n" + "\n".join(rows) + "\n")
        rc = main(["select", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error[invalid-cell-value]" in captured.err
        assert "bad.csv" in captured.err and "'x3'" in captured.err
        assert "flag" not in captured.err
        if fmt == "json-lines":
            error = json.loads(captured.out)["error"]
            assert error["category"] == "invalid-cell-value"
            assert "'x3'" in error["message"]

    def test_bench_model_one_row_recovers_actives(self, capsys):
        rc = main(
            ["bench", "--model", "1", "--reps", "100", "--seed", "7",
             "--method", "sir", "--algorithm", "htp", "--format", "json-lines"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        rec = json.loads(out)["result"]
        assert rec["cf"] >= 95
        assert rec["uf"] + rec["cf"] + rec["of"] == rec["reps"]


COMMON_ECHO = {"method": "sir", "h_count": None, "format": "json-lines"}


@pytest.mark.parametrize(
    "argv, echo",
    [
        (["select", "--algorithm", "stp", "--alpha", "0.3"],
         {"algorithm": "stp", "alpha": 0.3}),
        (["screen", "--k-max", "3", "--slices", "5"], {"k_max": 3, "h_count": 5}),
        (["test", "--working-set", "1, 2", "--candidate", "3"],
         {"working_set": [1, 2], "candidate": 3, "alpha": None}),
        (["bench", "--model", "2", "--p", "5", "--n", "60", "--reps", "1", "--rho", "0.5",
          "--dist", "uniform12", "--sigma", "0.5", "--seed", "4", "--algorithm", "ftp"],
         {"design": {"model": "II", "n": 60, "p": 5, "rho": 0.5, "sigma_noise": 0.5,
                     "predictor_dist": "uniform12", "seed": 4},
          "algorithm": "ftp", "reps": 1, "alpha": None, "seed": 4}),
    ],
    ids=["select", "screen", "test", "bench"],
)
def test_config_echo_and_error_out_file(argv, echo, model_csv, tmp_path, capsys):
    """A json-lines record repeats exactly the run's options; an error run
    writes its record to ``--out``, or an empty file in table format."""
    expected = dict(COMMON_ECHO, **echo)
    if argv[0] != "bench":
        argv = [argv[0], model_csv, *argv[1:]]
        expected["input_path"] = model_csv
    argv += ["--method", "sir"]
    assert main(argv + ["--format", "json-lines"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == argv[0]
    assert record["config"] == expected

    bad = argv + (["--p", "3"] if argv[0] == "bench" else ["--slices", "1"])
    out = tmp_path / "error.out"
    assert main(bad + ["--format", "json-lines", "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    record = json.loads(out.read_text())
    assert set(record) == {"schema_version", "command", "error"}
    assert record["command"] == argv[0]
    assert record["error"]["category"] == "invalid-argument"
    assert main(bad + ["--format", "table", "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b""


@pytest.mark.parametrize(
    "argv",
    [["screen", "--alpha", "0.05"], ["screen", "--seed", "1"], ["select", "--seed", "1"],
     ["test", "--candidate", "2", "--seed", "1"]],
    ids=["screen-alpha", "screen-seed", "select-seed", "test-seed"],
)
def test_command_rejects_options_it_does_not_read(argv, model_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], model_csv, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
