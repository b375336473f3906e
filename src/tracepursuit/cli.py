"""Command-line front end: ingest CSV data, run selection / screening /
single tests / benchmarks, and emit human- or machine-readable reports.

The parsed argparse namespace is the only configuration.  Each subcommand
names its runner with ``set_defaults(run=...)``, and each runner reads its
options from the namespace and returns ``(result, table_text, csv_rows)``.
The two values argparse cannot parse alone, the ``test`` working set and the
``bench`` design, are built at the start of their runner and stored back on
the namespace, so their errors are reported like any run error and the
config echo reads the built values.  One renderer, ``_emit``, writes the
report, or the error, in the chosen ``--format`` to stdout or ``--out``.

Machine output is JSON Lines with a schema-version field; identical
configurations (including seeds) produce byte-identical output, so wall
clock timings go to stderr, never into the records.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import Dataset, SliceAssignment, slice_response, sorted_runs
from .errors import (
    CellValueError,
    FileAccessError,
    IngestionError,
    MissingResponseError,
    NonNumericCellError,
    TooFewSamplesError,
    TracePursuitError,
)
from .kernels import Method
from .nulldist import trace_test_with_weights
from .selectors import ftp_run, htp_run, stp_run
from .simbench import PREDICTOR_DISTS, SimDesign, generate, run_experiment

SCHEMA_VERSION = 1

# Responses with at most this many distinct values are sliced by value.
DISCRETE_VALUE_LIMIT = 10
DEFAULT_SLICES = 4


def ingest_csv(path: str) -> Dataset:
    """Load a header-first CSV with one response column named 'y'.

    All non-response columns are numeric predictors in header order; any
    non-numeric cell is an error naming the offending row and column.  A
    UTF-8 byte-order mark, which spreadsheet "CSV UTF-8" exports begin
    with, is dropped.  Rows whose cells are all blank are skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingResponseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        y_cols = [i for i, h in enumerate(header) if h.lower() == "y"]
        if len(y_cols) != 1:
            raise MissingResponseError(
                f"{path}: need exactly one 'y' column, found {len(y_cols)}; "
                f"columns are {header}"
            )
        y_idx = y_cols[0]
        names = [h for i, h in enumerate(header) if i != y_idx]
        xs: list[list[float]] = []
        ys: list[float] = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise NonNumericCellError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
                )
            vals = []
            for i, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise NonNumericCellError(
                        f"{path}: non-numeric cell at row {row_no}, "
                        f"column '{header[i]}'"
                    ) from None
            ys.append(vals[y_idx])
            xs.append([v for i, v in enumerate(vals) if i != y_idx])
    if len(xs) < 10:
        raise TooFewSamplesError(f"{path}: only {len(xs)} data rows, need at least 10")
    if not names:
        raise IngestionError(f"{path}: no predictor columns besides '{header[y_idx]}'")
    try:
        d = Dataset.from_arrays(np.asarray(xs), np.asarray(ys), column_names=names)
    except ValueError as err:
        raise CellValueError(f"{path}: {err}") from None
    print(f"loaded {path}: n={d.n}, p={d.p}", file=sys.stderr)
    return d


def write_csv(d: Dataset, path: str) -> None:
    """Export a dataset in the same schema ``ingest_csv`` reads.

    Floats are written with shortest round-trip repr, so an export/ingest
    cycle reproduces the matrices bit for bit.
    """
    names = d.column_names or tuple(f"x{i}" for i in range(1, d.p + 1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["y"])
        for i in range(d.n):
            writer.writerow([repr(float(v)) for v in d.x[i]] + [repr(float(d.y[i]))])


def _load(args: argparse.Namespace) -> tuple[Dataset, SliceAssignment]:
    """Read ``input`` and slice its response: into ``--slices`` slices if
    given, else by value if it has few distinct values, else into 4."""
    d = ingest_csv(args.input)
    if args.slices is not None:
        return d, slice_response(d.y, args.slices)
    if np.count_nonzero(sorted_runs(d.y)[1]) <= DISCRETE_VALUE_LIMIT:
        return d, slice_response(d.y, DISCRETE_VALUE_LIMIT, discrete=True)
    return d, slice_response(d.y, DEFAULT_SLICES)


def _name_of(d: Dataset, j: int) -> str:
    return d.column_names[j - 1] if d.column_names else f"x{j}"


def _run_select(args: argparse.Namespace) -> tuple[dict, str, list[list]]:
    d, s = _load(args)
    run = stp_run if args.algorithm == "stp" else htp_run
    report = run(d, s, Method(args.method), alpha=args.alpha)
    names = [_name_of(d, j) for j in report.selected]
    result = {
        "selected": list(report.selected),
        "selected_names": names,
        "stage_sizes": list(report.stage_sizes),
        "method": args.method,
        "algorithm": args.algorithm,
        "trail": [asdict(e) for e in report.trail],
    }
    lines = [
        f"selected ({len(report.selected)}): "
        + (" ".join(str(j) for j in report.selected) or "(empty)"),
        f"  names: {' '.join(names) or '(none)'}",
        f"  stages: screened={report.stage_sizes[0]} final={report.stage_sizes[1]}",
        "  trail:",
    ]
    for e in report.trail:
        stat = "" if e.statistic is None else f" stat={e.statistic:.4g}"
        thr = "" if e.threshold is None else f" thr={e.threshold:.4g}"
        idx = "" if e.index is None else f" {e.index}"
        note = f" ({e.note})" if e.note else ""
        lines.append(f"    {e.action:6s}{idx}{stat}{thr}{note}")
    csv_rows = [["index", "name"]] + [[j, nm] for j, nm in zip(report.selected, names)]
    return result, "\n".join(lines), csv_rows


def _run_screen(args: argparse.Namespace) -> tuple[dict, str, list[list]]:
    d, s = _load(args)
    path = ftp_run(d, s, Method(args.method), k_max=args.k_max)
    chosen_k = path.bic_argmin()
    chosen = path.prefix(chosen_k)
    result = {
        "method": args.method,
        "path": [
            {
                "k": k,
                "added_index": step.added_index,
                "added_name": _name_of(d, step.added_index),
                "trace": step.trace_value,
                "bic": step.bic_value,
            }
            for k, step in enumerate(path.steps, start=1)
        ],
        "chosen_k": chosen_k,
        "chosen_set": list(chosen),
        "skipped": list(path.skipped),
    }
    lines = [f"forward path ({path.k_max} steps, method={args.method}):"]
    lines.append(f"  {'k':>4s} {'index':>6s} {'name':>10s} {'trace':>12s} {'bic':>12s}")
    for k, step in enumerate(path.steps, start=1):
        mark = " *" if k == chosen_k else ""
        lines.append(
            f"  {k:4d} {step.added_index:6d} {_name_of(d, step.added_index):>10s} "
            f"{step.trace_value:12.6f} {step.bic_value:12.6f}{mark}"
        )
    lines.append(
        f"chosen prefix: k={chosen_k}, set = "
        + (" ".join(str(j) for j in chosen) or "(empty)")
    )
    csv_rows = [["k", "added_index", "trace", "bic", "chosen"]] + [
        [k, st.added_index, repr(st.trace_value), repr(st.bic_value), int(k == chosen_k)]
        for k, st in enumerate(path.steps, start=1)
    ]
    return result, "\n".join(lines), csv_rows


def _run_test(args: argparse.Namespace) -> tuple[dict, str, list[list]]:
    # Parsed before the CSV is read, so a malformed list is reported first.
    try:
        args.working_set = tuple(int(t) for t in args.working_set.split(",") if t.strip())
    except ValueError:
        raise ValueError(
            f"--working-set must be comma-separated integers, got {args.working_set!r}"
        ) from None
    d, s = _load(args)
    alpha = args.alpha if args.alpha is not None else 0.05
    res, w = trace_test_with_weights(
        Method(args.method), d, s, args.working_set, args.candidate, alpha,
        quantile="exact" if args.exact_quantile else "two-moment",
    )
    result = {
        "method": args.method,
        "working_set": list(res.f),
        "candidate": res.j,
        "alpha": alpha,
        "statistic": res.statistic,
        "threshold": res.threshold,
        "reject": res.reject,
        "weights": {
            "dim": int(w.size),
            "sum": float(w.sum()),
            "largest": float(w[0]) if w.size else 0.0,
            "positive": int(np.sum(w > 0.0)),
        },
    }
    decision = "reject H0 (candidate adds information)" if res.reject else "retain H0"
    text = (
        f"trace test: method={args.method} F={list(res.f)} j={res.j} "
        f"alpha={alpha}\n"
        f"  statistic = {res.statistic:.6g}\n"
        f"  threshold = {res.threshold:.6g} "
        f"(weights: dim={w.size}, sum={w.sum():.4g}, largest={w[0] if w.size else 0:.4g})\n"
        f"  decision  = {decision}"
    )
    csv_rows = [
        ["method", "working_set", "candidate", "alpha", "statistic", "threshold", "reject"],
        [
            args.method,
            " ".join(map(str, res.f)),
            res.j,
            alpha,
            repr(res.statistic),
            repr(res.threshold),
            int(res.reject),
        ],
    ]
    return result, text, csv_rows


def _run_bench(args: argparse.Namespace) -> tuple[dict, str, list[list]]:
    design = args.design = SimDesign(
        model={"1": "I", "2": "II", "3": "III"}[args.model],
        n=args.n,
        p=args.p,
        rho=args.rho,
        sigma_noise=args.sigma,
        predictor_dist=args.dist,
        seed=args.seed,
    )
    if args.export_data:
        d, _ = generate(design, replication=0)
        write_csv(d, args.export_data)
        print(f"wrote replication 0 to {args.export_data}", file=sys.stderr)
    res = run_experiment(
        design,
        args.algorithm,
        Method(args.method),
        n_reps=args.reps,
        alpha=args.alpha,
        h_count=DEFAULT_SLICES if args.slices is None else args.slices,
    )
    m = res.metrics
    result = {
        "model": design.model,
        "method": args.method,
        "algorithm": args.algorithm,
        "n": design.n,
        "p": design.p,
        "rho": design.rho,
        "dist": design.predictor_dist,
        "reps": m.n_reps,
        "uf": m.uf,
        "cf": m.cf,
        "of": m.of_,
        "ms": m.ms,
        "failures": res.failures,
    }
    text = (
        f"model={design.model} method={args.method} algorithm={args.algorithm} "
        f"n={design.n} p={design.p} rho={design.rho} dist={design.predictor_dist} "
        f"N={m.n_reps}\n"
        f"  UF={m.uf}  CF={m.cf}  OF={m.of_}  MS={m.ms:.2f}  failures={res.failures}"
    )
    print(f"bench finished in {res.elapsed_seconds:.1f}s", file=sys.stderr)
    return result, text, [list(result), list(result.values())]


class _InvalidArgument(TracePursuitError):
    category = "invalid-argument"
    hint = "check the flag values (alpha in (0,1), k-max within its cap, ...)"


def _config_echo(args: argparse.Namespace) -> dict:
    """The options a json-lines record repeats, under their record names."""
    echo = {"method": args.method, "h_count": args.slices, "format": args.format}
    if "input" in args:
        echo["input_path"] = args.input
    if "design" in args:
        echo["design"] = asdict(args.design)
    for name in ("alpha", "seed", "algorithm", "working_set", "candidate", "k_max", "reps"):
        if name in args:
            echo[name] = getattr(args, name)
    return echo


def _record(args: argparse.Namespace, **fields) -> str:
    record = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _error(args: argparse.Namespace, err: TracePursuitError) -> str:
    """Report ``err`` on stderr; return its json-lines record, or nothing."""
    print(f"error[{err.category}]: {err}\nhint: {err.hint}", file=sys.stderr)
    if args.format != "json-lines":
        return ""
    return _record(
        args, error={"category": err.category, "message": str(err), "hint": err.hint}
    )


def _emit(
    args: argparse.Namespace, output: tuple[dict, str, list[list]] | TracePursuitError
) -> bool:
    """Write a run's ``(result, table_text, csv_rows)``, or its error, in
    ``--format`` to ``--out`` or stdout.  An unwritable ``--out`` is reported
    as an error on stdout instead.  Returns True iff a report was written."""
    ok = not isinstance(output, TracePursuitError)
    if not ok:
        text = _error(args, output)
    elif args.format == "json-lines":
        text = _record(args, config=_config_echo(args), result=output[0])
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(output[2])
        text = buf.getvalue()
    else:
        text = output[1] + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
            return ok
        except OSError as err:
            ok = False
            text = _error(args, FileAccessError(f"cannot write --out: {err}"))
    sys.stdout.write(text)
    return ok


def _add_common(parser: argparse.ArgumentParser, alpha: bool = True) -> None:
    """The options every subcommand takes, with ``--alpha`` only where its
    runner reads it."""
    parser.add_argument(
        "--method", choices=[m.value for m in Method], default="dr",
        help="kernel to use (default dr)",
    )
    if alpha:
        parser.add_argument("--alpha", type=float, default=None,
                            help="test level (default 0.1/p for selection, 0.05 for test)")
    parser.add_argument("--slices", type=int, default=None,
                        help="slice count H (default: 4, or by distinct value for "
                             f"responses with <= {DISCRETE_VALUE_LIMIT} values)")
    parser.add_argument("--format", choices=["table", "json-lines", "csv"],
                        default="table")
    parser.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracepursuit",
        description="Model-free variable selection via conditional trace tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="select active predictors from a CSV")
    p_select.set_defaults(run=_run_select)
    p_select.add_argument("input", help="CSV with predictors and a 'y' column")
    p_select.add_argument("--algorithm", choices=["htp", "stp"], default="htp")
    _add_common(p_select)

    p_screen = sub.add_parser("screen", help="forward screening path with BIC")
    p_screen.set_defaults(run=_run_screen)
    p_screen.add_argument("input")
    p_screen.add_argument("--k-max", type=int, default=None)
    _add_common(p_screen, alpha=False)

    p_test = sub.add_parser("test", help="single conditional trace test")
    p_test.set_defaults(run=_run_test)
    p_test.add_argument("input")
    p_test.add_argument("--working-set", default="",
                        help="comma-separated 1-based indices, e.g. 1,2")
    p_test.add_argument("--candidate", type=int, required=True)
    p_test.add_argument("--exact-quantile", action="store_true",
                        help="use the exact quantile of the weighted chi-square "
                             "instead of the two-moment approximation")
    _add_common(p_test)

    p_bench = sub.add_parser("bench", help="simulation benchmark row")
    p_bench.set_defaults(run=_run_bench)
    p_bench.add_argument("--model", choices=["1", "2", "3"], required=True)
    p_bench.add_argument("--n", type=int, default=300)
    p_bench.add_argument("--p", type=int, default=10)
    p_bench.add_argument("--rho", type=float, default=0.0)
    p_bench.add_argument("--dist", choices=PREDICTOR_DISTS, default="normal")
    p_bench.add_argument("--sigma", type=float, default=0.2)
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--algorithm", choices=["htp", "stp", "ftp"], default="htp")
    p_bench.add_argument("--export-data", default=None,
                         help="also write replication 0 as CSV to this path")
    p_bench.add_argument("--seed", type=int, default=0)
    _add_common(p_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one invocation; exit code 0 iff its report was written."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        output = args.run(args)
    except TracePursuitError as err:
        output = err
    except ValueError as err:  # a value argparse accepts but the run cannot
        output = _InvalidArgument(str(err))
    except OSError as err:  # unreadable input or unwritable --export-data
        output = FileAccessError(str(err))
    if not _emit(args, output):
        return 1
    print(f"{args.command} completed in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
