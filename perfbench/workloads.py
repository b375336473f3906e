"""The benchmark's seeded workloads, built on the public API of tracepursuit.

Each workload draws a pool of input slots from its seed with
``simbench.generate`` and slices the responses; a slot holds the ops of one
cycle.  The timed phase runs whole cycles, slot after slot, so every run
sees the same mix of ops.  The first ``fingerprint_slots`` slots make up the
behaviour fingerprint; the benchmark runs any of them the timed phase did
not reach after it, untimed.

Why these four workloads (inputs come from the paper's designs, Models
I-III, with the p > n regime):

* screen-p200 - full FTP paths to 200 columns with the SIR and DR kernels;
  working-set moments and auxiliary slice statistics do most of the work.
* wide-p2000 - HTP-SIR with p = 2000 and n = 100; per-candidate
  ``residualize`` dominates and a cache sized by p costs memory.
* desk-p10 - HTP over Models I-III x SIR/SAVE/DR at p = 10, many tiny scans
  and tests, so a fixed per-scan or per-call cost shows.
* nulltest - single trace tests at |F| in {0, 5, 15, 30} on candidates
  independent of y given F; the only workload where ``nulldist`` dominates.

Every op is a call the timed loop makes through ``tp.<name>`` so a tracer
that rebinds the package's functions sees it.  Correctness checks compare
each op with the materialized kernel traces at one relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

# Relative tolerance of every float check, taken against the magnitude of
# the kernel traces that the compared quantities are built from.
RTOL = 1e-8

# Seed whose fingerprint is committed under perfbench/reference/.
REFERENCE_SEED = 0

H_COUNT = 4


@dataclass
class Op:
    """One timed call: ``call`` runs it, ``summary`` gives its fingerprint
    entry and ``check`` its correctness problems (empty when correct)."""

    key: str
    call: Callable[[], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Plan:
    slots: list[list[Op]]
    warmup: Callable[[], None]
    fingerprint_slots: int
    # Extra fingerprint entries computed from the summaries of all
    # fingerprint slots (desk-p10 adds UF/CF/OF per cell).
    aggregate: Callable[[dict[str, Any]], dict[str, Any]] = field(
        default=lambda entries: {}
    )


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(scale), abs(a), abs(b))


def _sliced(tp, design, rep):
    d, truth = tp.generate(design, replication=rep)
    return d, tp.slice_response(d.y, H_COUNT), truth


def _ftp_op(tp, key, d, s, method, k_max=None) -> Op:
    def check(path):
        final = tp.compute_moments(d, s, path.prefix(path.k_max))
        exact = tp.trace_kernel(method, final)
        got = path.steps[-1].trace_value
        if _close(got, exact, exact):
            return []
        return [f"{key}: path trace {got!r} != trace_kernel {exact!r}"]

    return Op(
        key=key,
        call=lambda: tp.ftp_run(d, s, method, k_max=k_max),
        summary=lambda path: [step.added_index for step in path.steps],
        check=check,
    )


def _htp_op(tp, key, d, s, method, k_max=None) -> Op:
    def check(report):
        replayed = tp.replay_trail(report.trail)
        if replayed == report.selected:
            return []
        return [f"{key}: replay_trail {replayed} != selected {report.selected}"]

    return Op(
        key=key,
        call=lambda: tp.htp_run(d, s, method, k_max=k_max),
        summary=lambda report: list(report.selected),
        check=check,
    )


def _test_op(tp, key, d, s, method, f, j, alpha) -> Op:
    def check(res):
        before = tp.trace_kernel(method, tp.compute_moments(d, s, f))
        after = tp.trace_kernel(method, tp.compute_moments(d, s, f + (j,)))
        exact = d.n * (after - before)
        if _close(res.statistic, exact, d.n * max(abs(after), abs(before))):
            return []
        return [f"{key}: statistic {res.statistic!r} != n * trace gain {exact!r}"]

    return Op(
        key=key,
        call=lambda: tp.trace_test(method, d, s, f, j, alpha),
        summary=lambda res: bool(res.reject),
        check=check,
    )


def screen_p200(tp, seed: int) -> Plan:
    design = tp.SimDesign(model="I", n=300, p=200, rho=0.0, seed=seed)
    kernels = (tp.Method.SIR, tp.Method.DR)
    slots = []
    for rep in range(4):
        d, s, _ = _sliced(tp, design, rep)
        slots.append([_ftp_op(tp, f"r{rep}/{m.value}", d, s, m) for m in kernels])
    wd, ws, _ = _sliced(tp, design, len(slots))
    warm = [_ftp_op(tp, "warmup", wd, ws, m, k_max=2) for m in kernels]
    return Plan(slots=slots, warmup=lambda: [op.call() for op in warm], fingerprint_slots=1)


def wide_p2000(tp, seed: int) -> Plan:
    design = tp.SimDesign(model="I", n=100, p=2000, rho=0.0, seed=seed)
    slots = []
    for rep in range(4):
        d, s, _ = _sliced(tp, design, rep)
        slots.append([_htp_op(tp, f"r{rep}/sir", d, s, tp.Method.SIR)])
    wd, ws, _ = _sliced(tp, design, len(slots))
    warm = _htp_op(tp, "warmup", wd, ws, tp.Method.SIR, k_max=2)
    return Plan(slots=slots, warmup=warm.call, fingerprint_slots=1)


def desk_p10(tp, seed: int) -> Plan:
    reps = 10
    models = ("I", "II", "III")
    designs = {m: tp.SimDesign(model=m, n=300, p=10, rho=0.0, seed=seed) for m in models}
    truth = {}
    slots = []
    for rep in range(reps):
        slot = []
        for model in models:
            d, s, truth[model] = _sliced(tp, designs[model], rep)
            slot += [_htp_op(tp, f"{model}/{m.value}/r{rep}", d, s, m) for m in tp.Method]
        slots.append(slot)
    wd, ws, _ = _sliced(tp, designs["I"], reps)
    warm = [_htp_op(tp, "warmup", wd, ws, m) for m in tp.Method]

    def aggregate(entries):
        cells = {}
        for model in models:
            for m in tp.Method:
                sets = [tuple(entries[f"{model}/{m.value}/r{rep}"]) for rep in range(reps)]
                res = tp.evaluate(sets, truth[model])
                cells[f"{model}/{m.value}"] = {"uf": res.uf, "cf": res.cf, "of": res.of_}
        return {"cells": cells}

    return Plan(
        slots=slots,
        warmup=lambda: [op.call() for op in warm],
        fingerprint_slots=reps,
        aggregate=aggregate,
    )


def nulltest(tp, seed: int) -> Plan:
    p = 40
    design = tp.SimDesign(model="I", n=300, p=p, rho=0.0, seed=seed)
    active = (1, 2, p - 1, p)
    inactive = tuple(range(3, p - 1))
    # |F| = 0 tests marginal independence; larger sets hold the active set,
    # so every candidate outside F is independent of y given F.
    working_sets = {0: ()}
    for size in (5, 15, 30):
        working_sets[size] = tuple(sorted(active + inactive[: size - len(active)]))
    alpha = 0.05
    slots = []
    for rep in range(8):
        d, s, _ = _sliced(tp, design, rep)
        j = inactive[-1 - rep]  # outside every working set above
        slots.append(
            [
                _test_op(tp, f"r{rep}/{m.value}/f{size}", d, s, m, f, j, alpha)
                for m in tp.Method
                for size, f in working_sets.items()
            ]
        )
    wd, ws, _ = _sliced(tp, design, len(slots))
    warm = [_test_op(tp, "warmup", wd, ws, m, working_sets[5], inactive[-1], alpha) for m in tp.Method]
    return Plan(slots=slots, warmup=lambda: [op.call() for op in warm], fingerprint_slots=len(slots))


WORKLOADS: dict[str, Callable[[Any, int], Plan]] = {
    "screen-p200": screen_p200,
    "wide-p2000": wide_p2000,
    "desk-p10": desk_p10,
    "nulltest": nulltest,
}
