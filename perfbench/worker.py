"""Runs one workload in this process and prints its result as JSON.

Started by ``run.py`` with the BLAS thread pool already pinned in the
environment.  Prints ``ready`` once set-up is done (the launcher times
set-up up to that line), then, unless ``--setup-only``, one JSON line with
the op latencies, fingerprint, check failures, peak memory and, with
``--trace 1``, the per-layer report.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"


def blas_facts() -> list[dict]:
    """Loaded OpenBLAS libraries with their build config and thread count."""
    facts = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return facts
    for path in paths:
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode().strip()
        facts.append(entry)
    return facts


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_reference(workload: str, seed: int, reference_seed: int) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if seed != reference_seed or not path.exists():
        return {}
    return json.loads(path.read_text())["ops"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import tracepursuit as tp
    from tracer import Tracer, check_transparent, installed_wrappers
    from workloads import REFERENCE_SEED, WORKLOADS

    problems: list[str] = []
    tracer = None
    if args.trace:
        problems += check_transparent(tp.TracePursuitError)
        tracer = Tracer()
        tracer.install()

    plan = WORKLOADS[args.workload](tp, args.seed)
    plan.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Timed phase: whole cycles, at least one, and no cycle that would end
    # after --seconds if it took as long as the one before it.
    latencies: list[float] = []
    cycle_means: list[float] = []  # mean op latency of each cycle
    entries: dict[str, object] = {}  # fingerprint entry per op key, first run
    first: dict[str, tuple] = {}  # (op, result) of each key's first run
    failed_ops = 0
    now = time.perf_counter
    start = now()
    cycle = 0
    while True:
        cycle_start = len(latencies)
        cycle_t0 = now()
        for op in plan.slots[cycle % len(plan.slots)]:
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = now()
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                latencies.append(now() - t0)
                failed_ops += 1
                problems.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(now() - t0)
            entry = op.summary(result)
            if op.key not in entries:
                entries[op.key] = entry
                first[op.key] = (op, result)
            elif entries[op.key] != entry:
                failed_ops += 1
                problems.append(f"{op.key}: result changed on a repeated input")
        cycle += 1
        cycle_means.append(sum(latencies[cycle_start:]) / (len(latencies) - cycle_start))
        t = now()
        if (t - start) + (t - cycle_t0) > args.seconds:
            break
    elapsed = now() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_ops = len(latencies)

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.report(sum(latencies))
    else:
        problems += [f"tracer wrapper installed in an untraced run: {w}" for w in installed_wrappers()]

    # Untimed: finish the fingerprint slots the timed phase did not reach.
    extra_ops = 0
    for slot in plan.slots[: plan.fingerprint_slots]:
        for op in slot:
            if op.key in entries:
                continue
            extra_ops += 1
            try:
                result = op.call()
            except Exception as exc:  # noqa: BLE001
                failed_ops += 1
                problems.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
                continue
            entries[op.key] = op.summary(result)
            first[op.key] = (op, result)

    for op, result in first.values():
        found = op.check(result)
        failed_ops += bool(found)
        problems += found

    reference = load_reference(args.workload, args.seed, REFERENCE_SEED)
    for key, expected in reference.items():
        if key in entries and entries[key] != expected:
            failed_ops += 1
            problems.append(f"{key}: fingerprint {entries[key]} != reference {expected}")

    fp_keys = [op.key for slot in plan.slots[: plan.fingerprint_slots] for op in slot]
    fp_ops = {key: entries[key] for key in fp_keys if key in entries}
    fingerprint = {"ops": fp_ops, **plan.aggregate(fp_ops)} if len(fp_ops) == len(fp_keys) else {"ops": fp_ops}
    digest = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:16]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "cycles": cycle,
        "latencies_s": latencies,
        "cycle_means_s": cycle_means,
        "attempted": timed_ops + extra_ops,
        "failed": failed_ops,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint,
        "fingerprint_digest": digest,
        "fingerprint_checked": bool(reference),
        "machine": machine_facts(),
        "layers": layers,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
