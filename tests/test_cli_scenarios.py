"""CLI scenarios behind the paper's practical claims: STP and HTP at p > n,
and FTP screening at ultrahigh p.  Each runs ``cli.main`` in-process and
checks its exit code and json-lines record.  The inputs are the CSVs that
``bench --export-data`` writes for Model I, seed 0: d.csv at p=40 (n=300),
two edited copies of it, and w.csv at n=100, p=2000."""

from __future__ import annotations

import csv
import json

import pytest

from tracepursuit import compute_moments, slice_response, trace_kernel
from tracepursuit.cli import DEFAULT_SLICES, ingest_csv, main
from tracepursuit.kernels import Method
from tracepursuit.nulldist import influence_dim

METHODS = [m.value for m in Method]


def _run(capsys, *argv):
    """Exit code and json-lines record of one CLI run."""
    rc = main([str(a) for a in argv] + ["--format", "json-lines"])
    return rc, json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def csvs(tmp_path_factory):
    """d.csv and w.csv, with dup.csv (d.csv with column 1 repeated as x41)
    and d7.csv (d.csv with column 1 times 1e7)."""
    root = tmp_path_factory.mktemp("scenarios")
    for name, design in (("d.csv", ["--p", "40"]), ("w.csv", ["--n", "100", "--p", "2000"])):
        argv = ["bench", "--model", "1", *design, "--reps", "1", "--export-data", str(root / name)]
        assert main(argv + ["--out", str(root / "bench.txt")]) == 0
    with open(root / "d.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    edits = {
        "dup.csv": [[*header, "x41"]] + [[*r, r[0]] for r in rows],
        "d7.csv": [header] + [[repr(float(r[0]) * 1e7), *r[1:]] for r in rows],
    }
    for name, table in edits.items():
        with open(root / name, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
    return {name: str(root / name) for name in ("d.csv", "w.csv", *edits)}


@pytest.mark.parametrize(
    "method, size, exact",
    [(m, 30, 1) for m in ("save", "dr")] + [(m, 0, exact) for m in METHODS for exact in (0, 1)],
)
def test_trace_test_reports_every_weight(csvs, capsys, method, size, exact):
    """``test`` of candidate 35 at F = {3, ..., 32} (SAVE and DR, exact
    quantile) and at F = {} (each kernel and quantile)."""
    f = list(range(3, 3 + size))
    argv = ["test", csvs["d.csv"], "--working-set", ",".join(map(str, f)), "--candidate", 35]
    rc, record = _run(capsys, *argv, "--method", method, *["--exact-quantile"] * exact)
    assert rc == 0
    res = record["result"]
    assert (res["working_set"], res["candidate"]) == (f, 35)
    assert res["reject"] == (res["statistic"] > res["threshold"])
    weights = res["weights"]
    assert weights["dim"] == influence_dim(Method(method), len(f), DEFAULT_SLICES)
    assert 0 < weights["positive"] <= weights["dim"]
    assert 0.0 < weights["largest"] <= weights["sum"]


@pytest.mark.parametrize("method", METHODS)
def test_stp_at_alpha_0_3(csvs, capsys, method):
    """STP converges on d.csv, the DR run deleting once; column 1 times 1e7
    changes no selection or trail; a copy of column 1 appended as x41 is
    skipped as collinear."""
    results = {}
    for data in ("d.csv", "d7.csv", "dup.csv"):
        argv = ["select", csvs[data], "--algorithm", "stp", "--alpha", 0.3, "--method", method]
        rc, record = _run(capsys, *argv)
        assert rc == 0
        results[data] = record["result"]
    trail = results["d.csv"]["trail"]
    assert trail[-1]["note"] == "converged"
    assert method != "dr" or [e["action"] for e in trail].count("delete") == 1
    unit = [(r["selected"], [(e["action"], e["index"]) for e in r["trail"]])
            for r in (results["d.csv"], results["d7.csv"])]
    assert unit[0] == unit[1]
    skips = [(e["index"], e["note"]) for e in results["dup.csv"]["trail"] if e["action"] == "skip"]
    assert (41, "collinear-candidate") in skips


@pytest.mark.parametrize(
    "data, argv, category, message",
    [("dup.csv", ["test", "--working-set", "1,41", "--candidate", "3"], "singular-design",
      "working-set correlation matrix is numerically singular")]
    + [("d.csv", ["select", "--algorithm", algorithm, "--alpha", "1.5"], "invalid-argument",
        "alpha must be in (0,1), got 1.5") for algorithm in ("htp", "stp")]
    + [("d.csv", ["screen", "--slices", "298"], "invalid-argument",
        "n=300 leaves no room for a working set beside 298 slices")],
    ids=["singular-design", "htp-alpha-1.5", "stp-alpha-1.5", "no-room"],
)
def test_error_record(csvs, capsys, data, argv, category, message):
    rc, record = _run(capsys, argv[0], csvs[data], *argv[1:])
    assert rc == 1
    assert record["error"]["category"] == category
    assert record["error"]["message"].startswith(message)


@pytest.mark.parametrize("method", METHODS)
def test_wide_design(csvs, capsys, method):
    """At p=2000 > n=100 HTP runs, and ``screen`` reports the full 94-step
    path, whose traces are the kernel traces of its prefixes within 1e-8."""
    rc, record = _run(capsys, "select", csvs["w.csv"], "--algorithm", "htp", "--method", method)
    assert rc == 0
    assert record["result"]["stage_sizes"][1] == len(record["result"]["selected"])
    rc, record = _run(capsys, "screen", csvs["w.csv"], "--method", method)
    path = record["result"]["path"]
    assert rc == 0 and len(path) == 94
    d = ingest_csv(csvs["w.csv"])
    s = slice_response(d.y, DEFAULT_SLICES)
    for k in (10, 40, 94):
        prefix = tuple(sorted(step["added_index"] for step in path[:k]))
        exact = trace_kernel(Method(method), compute_moments(d, s, prefix))
        assert abs(path[k - 1]["trace"] - exact) <= 1e-8 * abs(exact), k


@pytest.mark.parametrize("method", ["sir", "dr"])
def test_ultrahigh_p(capsys, method):
    """HTP at n=200, p=20000: no replication fails, and SIR finds Model I."""
    argv = ["bench", "--model", 1, "--n", 200, "--p", 20000, "--reps", 1, "--algorithm", "htp"]
    rc, record = _run(capsys, *argv, "--method", method)
    assert rc == 0 and record["result"]["failures"] == 0
    assert method != "sir" or record["result"]["cf"] == 1
