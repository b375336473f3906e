#!/usr/bin/env python3
"""tracepursuit benchmark: seeded selection workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload screen-p200 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each workload runs in fresh worker processes (``worker.py``) that import
the package from ``src/``; this launcher pins the BLAS thread pool in their
environment before numpy is imported.  ``--trace 0`` times set-up in five
fresh processes (median) and runs the workload untraced; ``--trace 1`` runs
it once untraced and once with every public layer function wrapped, and
reports per-layer calls and self times plus the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full record (machine
facts, fingerprint, latency tail, check failures).  The exit code is
nonzero when a check failed or the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: argparse.Namespace, trace: int, setup_only: bool, deadline: float):
    """Start one worker; return (set-up seconds, record or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            if setup_s is None and line.strip() == "ready":
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"worker for {args.workload} exited with code {code}")
    record = None if setup_only else json.loads(lines[-1])
    return setup_s, record


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(record: dict, setup_times: list[float]) -> dict:
    lat = record["latencies_s"]
    return {
        "ops_per_s": {"value": len(lat) / record["elapsed_s"], "unit": "1/s"},
        # A cycle holds every op kind once; the median of cycle means stays
        # inside one kind's latency band, where the median op would jump
        # between the bands of the two middle kinds.
        "op_p50_s": {"value": statistics.median(record["cycle_means_s"]), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    units = {"calls": "count", "self_s": "s", "errors": "count"}
    out = {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "ratio")}
        for name, value in traced["layers"].items()
    }
    rate = {r["trace"]: len(r["latencies_s"]) / r["elapsed_s"] for r in (traced, untraced)}
    out["trace.overhead"] = {"value": rate[1] / rate[0], "unit": "ratio"}
    return out


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload as the flags say; return its full record."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    load_at_start = os.getloadavg()
    records = []
    if args.trace:
        records.append(run_worker(args, 0, False, deadline)[1])
        records.append(run_worker(args, 1, False, deadline)[1])
        metrics = per_layer(records[1], records[0])
    else:
        setup_times = [run_worker(args, 0, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, record = run_worker(args, 0, False, deadline)
        records.append(record)
        metrics = end_to_end(record, setup_times + [setup_s])

    main = records[-1]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]
    if any(r["fingerprint_digest"] != main["fingerprint_digest"] for r in records):
        problems.append("fingerprint differs between the untraced and traced runs")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_average_at_start": load_at_start,
        "machine": main["machine"],
        "ops": len(main["latencies_s"]),
        "cycles": main["cycles"],
        "op_tail_s": tail(main["latencies_s"]),
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": failed == 0 and not problems,
        "fingerprint": main["fingerprint"],
        "fingerprint_digest": main["fingerprint_digest"],
        "fingerprint_checked": main["fingerprint_checked"],
        "metrics": metrics,
    }


def write_reference(record: dict) -> None:
    path = HERE / "reference" / f"{record['workload']}.json"
    path.parent.mkdir(exist_ok=True)
    body = {"workload": record["workload"], "seed": record["seed"], **record["fingerprint"]}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's fingerprint as the reference (seed 0 only)")
    args = ap.parse_args()

    if not (ROOT / "src" / "tracepursuit" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"error: the reference fingerprint is for seed {REFERENCE_SEED}", file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    if args.write_reference:
        for name in names:
            (HERE / "reference" / f"{name}.json").unlink(missing_ok=True)

    results = []
    for name in names:
        try:
            rec = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for metric, m in rec["metrics"].items():
            print(f"{name:12s} {metric:45s} {m['value']:.6g} {m['unit']}")
        t = rec["op_tail_s"]
        if t["value"] is not None and not args.trace:
            print(f"{name:12s} {'op_tail_s (p%.2f of %d ops)' % (t['percentile'], t['samples']):45s} {t['value']:.6g} s")
        print(f"{name:12s} {'fail_ratio':45s} {rec['fail_ratio']:.6g} ratio")
        for problem in rec["problems"]:
            print(f"{name:12s} FAILED {problem}")
        if args.write_reference and rec["correct"]:
            write_reference(rec)
        results.append(rec)

    print(json.dumps(results[0] if len(results) == 1 else results))
    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (k if single else f"{r['workload']}.{k}"): v for r in results for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
