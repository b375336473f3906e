#!/usr/bin/env python3
"""Output-identity dump: every selector and trace test output, floats as hex.

Usage (from the repository root):

    python3 scripts/dump.py --out new.jsonl                  # this checkout's src/
    python3 scripts/dump.py --src OTHER/src --out old.jsonl  # another tree's package
    python3 scripts/dump.py --compare old.jsonl new.jsonl

A dump is JSON lines, one record per (design, kernel, output), each with a
``key`` naming it.  Floats are written with ``float.hex``, so two dumps are
equal exactly when every output is the same bits.  The designs are Models
I-III x seeds 7 and 11 x {n=300, p=10; n=200, p=20, rho=0.5; n=300, p=200;
n=100, p=2000; n=14, p=6; n=11, p=5; n=9, p=5; n=8, p=5} x SIR/SAVE/DR, and
the outputs:

* FTP orders, skipped columns, traces and BIC values;
* HTP trails at the default alpha, 0.3 and 5.0 (out of range: its error);
* STP trails at the default alpha, for p <= 20;
* trace tests at |F| in {0, 4, 15, 30} where |F| < p: statistic,
  threshold, weight sum, effective dof, the eigenvalue weights and their
  two-moment and exact quantiles (``weighted_chisq_upper_quantile`` and
  ``weighted_chisq_quantile_exact`` at the test's alpha); F holds the
  active set, and the candidate is outside it.

An error is recorded as its type and message, and every warning raised
while an output is computed is recorded with it.  ``--compare`` exits 1 and
names the first differing record, and per field the count of differing
records and the largest relative difference (inf where a value is not a
float or the structure differs); it exits 0 when the dumps are identical.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (7, 11)
MODELS = ("I", "II", "III")
# (n, p, rho)
SIZES = (
    (300, 10, 0.0),
    (200, 20, 0.5),
    (300, 200, 0.0),
    (100, 2000, 0.0),
    (14, 6, 0.0),
    (11, 5, 0.0),
    (9, 5, 0.0),
    (8, 5, 0.0),
)
HTP_ALPHAS = (None, 0.3, 5.0)
STP_MAX_P = 20
TEST_SIZES = (0, 4, 15, 30)
TEST_ALPHA = 0.05
H_COUNT = 4


def _hex(value):
    """``value`` with every float as ``float.hex`` (lists and tuples alike)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    return value


def _record(key: str, compute) -> dict:
    """The record of one output: its fields, or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fields = compute()
        except Exception as exc:  # an error is an output to compare, like a value
            fields = {"error": f"{type(exc).__name__}: {exc}"}
    rec = {"key": key, **_hex(fields)}
    if caught:
        rec["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return rec


def _trail(report) -> dict:
    return {
        "selected": list(report.selected),
        "stage_sizes": list(report.stage_sizes),
        "trail": [[e.action, e.index, e.statistic, e.threshold, e.note] for e in report.trail],
    }


def design_records(tp, nulldist, model: str, seed: int, n: int, p: int, rho: float):
    """The records of one design, kernel by kernel."""
    design = tp.SimDesign(model=model, n=n, p=p, rho=rho, seed=seed)
    d, active = tp.generate(design)
    s = tp.slice_response(d.y, H_COUNT)
    inactive = tuple(j for j in range(1, p + 1) if j not in active)
    for method in tp.Method:
        base = f"{model}/s{seed}/n{n}p{p}r{rho}/{method.value}"

        def ftp():
            path = tp.ftp_run(d, s, method)
            return {
                "order": [st.added_index for st in path.steps],
                "skipped": list(path.skipped),
                "trace": [st.trace_value for st in path.steps],
                "bic": [st.bic_value for st in path.steps],
            }

        yield _record(f"{base}/ftp", ftp)
        for alpha in HTP_ALPHAS:
            yield _record(f"{base}/htp/a{alpha}", lambda a=alpha: _trail(tp.htp_run(d, s, method, alpha=a)))
        if p <= STP_MAX_P:
            yield _record(f"{base}/stp", lambda: _trail(tp.stp_run(d, s, method)))
        for size in TEST_SIZES:
            if size >= p:
                continue
            f = tuple(sorted(active + inactive[: size - len(active)])) if size else ()
            j = inactive[-1]

            def test(f=f, j=j):
                res, weights = nulldist.trace_test_with_weights(method, d, s, f, j, TEST_ALPHA)
                plain = tp.trace_test(method, d, s, f, j, TEST_ALPHA)
                return {
                    "statistic": res.statistic,
                    "threshold": res.threshold,
                    "weight_sum": res.weight_sum,
                    "effective_dof": res.effective_dof,
                    "reject": res.reject,
                    "plain": [plain.statistic, plain.threshold, plain.weight_sum, plain.effective_dof],
                    "weights": [float(w) for w in weights],
                    "weight_quantiles": [
                        nulldist.weighted_chisq_upper_quantile(weights, TEST_ALPHA),
                        nulldist.weighted_chisq_quantile_exact(weights, TEST_ALPHA),
                    ],
                }

            yield _record(f"{base}/test/f{size}", test)


def all_records(tp, nulldist, sizes=SIZES, models=MODELS, seeds=SEEDS):
    for model in models:
        for seed in seeds:
            for n, p, rho in sizes:
                yield from design_records(tp, nulldist, model, seed, n, p, rho)


def _floats(a, b, path, out):
    """Collect (field, relative difference) pairs of two record values."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _floats(a[k], b[k], f"{path}.{k}" if path else k, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _floats(x, y, path, out)
    elif a != b:
        try:
            x, y = float.fromhex(a), float.fromhex(b)
        except (TypeError, ValueError):
            out.append((path, math.inf))
            return
        scale = max(abs(x), abs(y))
        out.append((path, abs(x - y) / scale if math.isfinite(scale) else math.inf))


def compare(lines_a, lines_b) -> list[str]:
    """Report lines on two dumps; empty when they are identical."""
    recs_a = [json.loads(line) for line in lines_a]
    recs_b = [json.loads(line) for line in lines_b]
    report = []
    if [r["key"] for r in recs_a] != [r["key"] for r in recs_b]:
        report.append(f"record keys differ: {len(recs_a)} against {len(recs_b)} records")
    by_key = {r["key"]: r for r in recs_b}
    first = None
    fields: dict[str, tuple[int, float]] = {}  # field -> (records, largest difference)
    for rec in recs_a:
        other = by_key.get(rec["key"])
        if other is None or other == rec:
            continue
        first = first or rec["key"]
        diffs = []
        _floats(rec, other, "", diffs)
        for field in {f for f, _ in diffs}:
            worst = max(v for f, v in diffs if f == field)
            count, prev = fields.get(field, (0, 0.0))
            fields[field] = (count + 1, max(prev, worst))
    if first is not None:
        report.append(f"first differing record: {first}")
        for field, (count, worst) in sorted(fields.items()):
            report.append(f"  {field}: {count} records differ, largest relative difference {worst:.3e}")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the tracepursuit package")
    ap.add_argument("--out", help="file to write the dump to (default stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = ap.parse_args(argv)
    if args.compare:
        lines = [Path(p).read_text().splitlines() for p in args.compare]
        report = compare(*lines)
        print("\n".join(report) if report else f"identical: {len(lines[0])} records")
        return 1 if report else 0
    sys.path.insert(0, args.src)
    tp = importlib.import_module("tracepursuit")
    nulldist = importlib.import_module("tracepursuit.nulldist")
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for rec in all_records(tp, nulldist):
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
