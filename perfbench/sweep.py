#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --workload desk-p10 --seeds 0-9 --seconds 20
    python3 perfbench/sweep.py --workload all --seeds 0-9 --out perfbench/baseline.json

For every end-to-end metric it reports the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  With
``--out`` it writes every run's record, so two commits can be compared
metric by metric on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed ({out.returncode}): {out.stderr[-500:]}")
    return {"summary": json.loads(lines[-1]), "record": json.loads(lines[-2])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(name, seed, seconds) for seed in seeds]
        stats = {}
        for metric in bounds:
            s = spread([r["summary"]["metrics"][metric]["value"] for r in runs])
            stats[metric] = s
            flag = "" if metric == "setup_s" or s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:12s} {metric:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[metric]}{flag}", flush=True)
        ok &= all(r["summary"]["correct"] for r in runs)
        report["workloads"][name] = {
            "stats": stats,
            "runs": [{"seed": seed, **r["summary"], "op_tail_s": r["record"]["op_tail_s"],
                      "fingerprint_digest": r["record"]["fingerprint_digest"],
                      "load_average_at_start": r["record"]["load_average_at_start"]}
                     for seed, r in zip(seeds, runs)],
            "machine": runs[0]["record"]["machine"],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
