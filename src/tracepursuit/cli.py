"""Command-line front end: ingest CSV data, run selection / screening /
single tests / benchmarks, and emit human- or machine-readable reports.

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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, SliceAssignment, slice_response
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
from .selectors import StpConfig, ftp_run, htp_run, stp_run
from .simbench import SimDesign, generate, run_experiment

SCHEMA_VERSION = 1

# Responses with at most this many distinct values are sliced by value.
DISCRETE_VALUE_LIMIT = 10
DEFAULT_SLICES = 4


@dataclass
class RunConfig:
    """Parsed invocation; exactly one of ``input_path`` / ``design`` is set."""

    command: str  # select | screen | test | bench
    method: Method = Method.DR
    input_path: str | None = None
    design: SimDesign | None = None
    h_count: int | None = None
    alpha: float | None = None
    seed: int = 0
    output_path: str | None = None
    format: str = "table"
    algorithm: str = "htp"
    working_set: tuple[int, ...] = ()
    candidate: int | None = None
    k_max: int | None = None
    reps: int = 100
    export_data: str | None = None
    quantile: str = "two-moment"


def ingest_csv(path: str) -> Dataset:
    """Load a header-first CSV with one response column named 'y'.

    All non-response columns are numeric predictors in header order; any
    non-numeric cell is an error naming the offending row and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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


def _auto_slice(d: Dataset, h_count: int | None) -> SliceAssignment:
    if h_count is not None:
        return slice_response(d.y, h_count)
    if np.unique(d.y).size <= DISCRETE_VALUE_LIMIT:
        return slice_response(d.y, DISCRETE_VALUE_LIMIT, discrete=True)
    return slice_response(d.y, DEFAULT_SLICES)


def _name_of(d: Dataset, j: int) -> str:
    return d.column_names[j - 1] if d.column_names else f"x{j}"


class _Emitter:
    """Serializes result records in the requested format."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.lines: list[str] = []

    def emit(self, result: dict, table_text: str, csv_rows: list[list] | None = None):
        fmt = self.cfg.format
        if fmt == "json-lines":
            record = {
                "schema_version": SCHEMA_VERSION,
                "command": self.cfg.command,
                "config": _config_echo(self.cfg),
                "result": result,
            }
            self.lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        elif fmt == "csv":
            if csv_rows:
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(csv_rows)
                self.lines.append(buf.getvalue().rstrip("\n"))
        else:
            self.lines.append(table_text)

    def emit_error(self, err: TracePursuitError):
        payload = {
            "category": err.category,
            "message": str(err),
            "hint": err.hint,
        }
        if self.cfg.format == "json-lines":
            record = {
                "schema_version": SCHEMA_VERSION,
                "command": self.cfg.command,
                "error": payload,
            }
            self.lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        print(
            f"error[{err.category}]: {err}\nhint: {err.hint}",
            file=sys.stderr,
        )

    def _text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def flush(self) -> bool:
        """Write the records to ``--out``, or to stdout.  An unwritable
        ``--out`` is reported as an error on stdout instead; returns False."""
        if self.cfg.output_path:
            try:
                Path(self.cfg.output_path).write_text(self._text(), encoding="utf-8")
                return True
            except OSError as err:
                self.lines = []
                self.emit_error(FileAccessError(f"cannot write --out: {err}"))
                sys.stdout.write(self._text())
                return False
        sys.stdout.write(self._text())
        return True


def _config_echo(cfg: RunConfig) -> dict:
    echo: dict = {
        "method": cfg.method.value,
        "alpha": cfg.alpha,
        "h_count": cfg.h_count,
        "seed": cfg.seed,
        "format": cfg.format,
    }
    if cfg.input_path is not None:
        echo["input_path"] = cfg.input_path
    if cfg.design is not None:
        echo["design"] = asdict(cfg.design)
    if cfg.command in ("select", "bench"):
        echo["algorithm"] = cfg.algorithm
    if cfg.command == "test":
        echo["working_set"] = list(cfg.working_set)
        echo["candidate"] = cfg.candidate
    if cfg.command == "screen":
        echo["k_max"] = cfg.k_max
    if cfg.command == "bench":
        echo["reps"] = cfg.reps
    return echo


def _trail_record(trail) -> list[dict]:
    return [
        {
            "action": e.action,
            "index": e.index,
            "statistic": e.statistic,
            "threshold": e.threshold,
            "note": e.note,
        }
        for e in trail
    ]


def _run_select(cfg: RunConfig, emitter: _Emitter) -> None:
    d = ingest_csv(cfg.input_path)
    s = _auto_slice(d, cfg.h_count)
    stp_cfg = StpConfig(method=cfg.method, alpha=cfg.alpha)
    if cfg.algorithm == "stp":
        report = stp_run(d, s, stp_cfg)
    else:
        report = htp_run(d, s, cfg.method, stp_cfg)
    names = [_name_of(d, j) for j in report.selected]
    result = {
        "selected": list(report.selected),
        "selected_names": names,
        "stage_sizes": list(report.stage_sizes),
        "method": cfg.method.value,
        "algorithm": cfg.algorithm,
        "trail": _trail_record(report.trail),
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
    emitter.emit(result, "\n".join(lines), csv_rows)


def _run_screen(cfg: RunConfig, emitter: _Emitter) -> None:
    d = ingest_csv(cfg.input_path)
    s = _auto_slice(d, cfg.h_count)
    path = ftp_run(d, s, cfg.method, k_max=cfg.k_max)
    chosen_k = path.bic_argmin()
    chosen = path.prefix(chosen_k)
    result = {
        "method": cfg.method.value,
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
    lines = [f"forward path ({path.k_max} steps, method={cfg.method.value}):"]
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
    emitter.emit(result, "\n".join(lines), csv_rows)


def _run_test(cfg: RunConfig, emitter: _Emitter) -> None:
    d = ingest_csv(cfg.input_path)
    s = _auto_slice(d, cfg.h_count)
    alpha = cfg.alpha if cfg.alpha is not None else 0.05
    res, w = trace_test_with_weights(
        cfg.method, d, s, cfg.working_set, cfg.candidate, alpha,
        quantile=cfg.quantile, seed=cfg.seed,
    )
    result = {
        "method": cfg.method.value,
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
        f"trace test: method={cfg.method.value} F={list(res.f)} j={res.j} "
        f"alpha={alpha}\n"
        f"  statistic = {res.statistic:.6g}\n"
        f"  threshold = {res.threshold:.6g} "
        f"(weights: dim={w.size}, sum={w.sum():.4g}, largest={w[0] if w.size else 0:.4g})\n"
        f"  decision  = {decision}"
    )
    csv_rows = [
        ["method", "working_set", "candidate", "alpha", "statistic", "threshold", "reject"],
        [
            cfg.method.value,
            " ".join(map(str, res.f)),
            res.j,
            alpha,
            repr(res.statistic),
            repr(res.threshold),
            int(res.reject),
        ],
    ]
    emitter.emit(result, text, csv_rows)


def _run_bench(cfg: RunConfig, emitter: _Emitter) -> None:
    design = cfg.design
    if cfg.export_data:
        d, _ = generate(design, replication=0)
        write_csv(d, cfg.export_data)
        print(f"wrote replication 0 to {cfg.export_data}", file=sys.stderr)
    res = run_experiment(
        design,
        cfg.algorithm,
        cfg.method,
        n_reps=cfg.reps,
        alpha=cfg.alpha,
        h_count=cfg.h_count or DEFAULT_SLICES,
    )
    m = res.metrics
    result = {
        "model": design.model,
        "method": cfg.method.value,
        "algorithm": cfg.algorithm,
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
        f"model={design.model} method={cfg.method.value} algorithm={cfg.algorithm} "
        f"n={design.n} p={design.p} rho={design.rho} dist={design.predictor_dist} "
        f"N={m.n_reps}\n"
        f"  UF={m.uf}  CF={m.cf}  OF={m.of_}  MS={m.ms:.2f}  failures={res.failures}"
    )
    csv_rows = [
        ["model", "method", "algorithm", "n", "p", "rho", "dist", "reps",
         "uf", "cf", "of", "ms", "failures"],
        [design.model, cfg.method.value, cfg.algorithm, design.n, design.p,
         design.rho, design.predictor_dist, m.n_reps, m.uf, m.cf, m.of_,
         repr(m.ms), res.failures],
    ]
    print(f"bench finished in {res.elapsed_seconds:.1f}s", file=sys.stderr)
    emitter.emit(result, text, csv_rows)


_COMMANDS = {
    "select": _run_select,
    "screen": _run_screen,
    "test": _run_test,
    "bench": _run_bench,
}


class _InvalidArgument(TracePursuitError):
    category = "invalid-argument"
    hint = "check the flag values (alpha in (0,1), k-max within its cap, ...)"


def _fail(cfg: RunConfig, err: TracePursuitError) -> int:
    emitter = _Emitter(cfg)
    emitter.emit_error(err)
    emitter.flush()
    return 1


def run(cfg: RunConfig) -> int:
    """Execute one parsed invocation; exit code 0 iff no error was emitted."""
    emitter = _Emitter(cfg)
    t0 = time.perf_counter()
    try:
        _COMMANDS[cfg.command](cfg, emitter)
    except TracePursuitError as err:
        return _fail(cfg, err)
    except ValueError as err:
        return _fail(cfg, _InvalidArgument(str(err)))
    except OSError as err:  # unreadable input or unwritable --export-data
        return _fail(cfg, FileAccessError(str(err)))
    if not emitter.flush():
        return 1
    print(f"{cfg.command} completed in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def _add_common(parser: argparse.ArgumentParser, default_method: str = "dr") -> None:
    parser.add_argument(
        "--method", choices=[m.value for m in Method], default=default_method,
        help=f"kernel to use (default {default_method})",
    )
    parser.add_argument("--alpha", type=float, default=None,
                        help="test level (default 0.1/p for selection, 0.05 for test)")
    parser.add_argument("--slices", type=int, default=None,
                        help="slice count H (default: 4, or by distinct value for "
                             f"responses with <= {DISCRETE_VALUE_LIMIT} values)")
    parser.add_argument("--seed", type=int, default=0)
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
    p_select.add_argument("input", help="CSV with predictors and a 'y' column")
    p_select.add_argument("--algorithm", choices=["htp", "stp"], default="htp")
    _add_common(p_select)

    p_screen = sub.add_parser("screen", help="forward screening path with BIC")
    p_screen.add_argument("input")
    p_screen.add_argument("--k-max", type=int, default=None)
    _add_common(p_screen)

    p_test = sub.add_parser("test", help="single conditional trace test")
    p_test.add_argument("input")
    p_test.add_argument("--working-set", default="",
                        help="comma-separated 1-based indices, e.g. 1,2")
    p_test.add_argument("--candidate", type=int, required=True)
    p_test.add_argument("--mc-quantile", action="store_true",
                        help="use the seeded Monte Carlo quantile instead of "
                             "the two-moment approximation")
    _add_common(p_test)

    p_bench = sub.add_parser("bench", help="simulation benchmark row")
    p_bench.add_argument("--model", choices=["1", "2", "3"], required=True)
    p_bench.add_argument("--n", type=int, default=300)
    p_bench.add_argument("--p", type=int, default=10)
    p_bench.add_argument("--rho", type=float, default=0.0)
    p_bench.add_argument("--dist", choices=list(
        ("normal", "uniform12", "exponential1", "geometric_half")), default="normal")
    p_bench.add_argument("--sigma", type=float, default=0.2)
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--algorithm", choices=["htp", "stp", "ftp"], default="htp")
    p_bench.add_argument("--export-data", default=None,
                         help="also write replication 0 as CSV to this path")
    _add_common(p_bench)

    return parser


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Build the run configuration from parsed arguments.

    Raises ``ValueError`` for values argparse accepts but the run cannot
    (design parameters, working-set indices).
    """
    cfg = RunConfig(
        command=args.command,
        method=Method(args.method),
        alpha=args.alpha,
        h_count=args.slices,
        seed=args.seed,
        output_path=args.out,
        format=args.format,
    )
    if args.command in ("select", "screen", "test"):
        cfg.input_path = args.input
    if args.command == "select":
        cfg.algorithm = args.algorithm
    if args.command == "screen":
        cfg.k_max = args.k_max
    if args.command == "test":
        ws = tuple(int(t) for t in args.working_set.split(",") if t.strip())
        cfg.working_set = ws
        cfg.candidate = args.candidate
        if args.mc_quantile:
            cfg.quantile = "monte-carlo"
    if args.command == "bench":
        cfg.algorithm = args.algorithm
        cfg.reps = args.reps
        cfg.export_data = args.export_data
        cfg.design = SimDesign(
            model={"1": "I", "2": "II", "3": "III"}[args.model],
            n=args.n,
            p=args.p,
            rho=args.rho,
            sigma_noise=args.sigma,
            predictor_dist=args.dist,
            seed=args.seed,
        )
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
    except ValueError as err:
        cfg = RunConfig(command=args.command, output_path=args.out, format=args.format)
        return _fail(cfg, _InvalidArgument(str(err)))
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
