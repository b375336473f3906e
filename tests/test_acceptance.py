"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from tracepursuit import (
    Dataset,
    SimDesign,
    bic_score,
    compute_moments,
    evaluate,
    ftp_run,
    generate,
    replay_trail,
    run_experiment,
    slice_response,
    stp_run,
    trace_kernel,
    trace_test,
    weighted_chisq_upper_quantile,
)
from tracepursuit.kernels import Method, residualize, trace_diff

from conftest import make_dataset, random_case
from oracles import explicit_trace_kernel, mc_weighted_chisq_quantile

METHODS = list(Method)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[criterion {num}] {status} {name}: {detail} "
        f"(runtime {elapsed:.1f}s, budget {budget:.0f}s)"
    )
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_1_trace_identity_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        d, s, f, j = random_case(rng, n_range=(30, 100), p_range=(2, 8), fmax=4)
        m = compute_moments(d, s, f)
        r = residualize(m, j)
        m_full = compute_moments(d, s, tuple(sorted(f + (j,))))
        for method in METHODS:
            diff = trace_diff(method, r)
            t_full = trace_kernel(method, m_full)
            direct = t_full - trace_kernel(method, m)
            rel = abs(diff - direct) / max(1.0, t_full)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        1, "trace-identity", worst <= 1e-8,
        f"max |closed form - kernel difference| = {worst:.2e} (tol 1e-8) "
        "over 200 instances x 3 methods",
        elapsed, 30.0,
    )


def test_criterion_2_explicit_matrix_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        d, s, f, j = random_case(rng, n_range=(30, 80), p_range=(2, 6), fmax=3)
        fs = tuple(sorted(f + (j,)))
        m = compute_moments(d, s, fs)
        for method in METHODS:
            got = trace_kernel(method, m)
            want = explicit_trace_kernel(method.value, d.x, s.membership, [i - 1 for i in fs])
            rel = abs(got - want) / max(1e-12, abs(want))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        2, "explicit-matrix", worst <= 1e-9,
        f"max relative gap to materialized kernels = {worst:.2e} (tol 1e-9) "
        "over 100 instances",
        elapsed, 30.0,
    )


def test_criterion_3_null_calibration():
    t0 = time.perf_counter()
    n_reps = 500
    rates: dict[tuple[str, int], float] = {}
    for fsize in (0, 2):
        rej = {m: 0 for m in METHODS}
        for rep in range(n_reps):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=2024, spawn_key=(fsize, rep))
            )
            x = rng.standard_normal((300, 3))
            if fsize == 2:
                y = x[:, 0] + 0.5 * x[:, 1] + 0.2 * rng.standard_normal(300)
                f = (1, 2)
            else:
                y = rng.standard_normal(300)
                f = ()
            d = Dataset.from_arrays(x, y)
            s = slice_response(d.y, 4)
            for method in METHODS:
                rej[method] += trace_test(method, d, s, f, 3, alpha=0.05).reject
        for method in METHODS:
            rates[(method.value, fsize)] = rej[method] / n_reps
    ok = all(
        0.02 <= rates[("sir", fs)] <= 0.09 for fs in (0, 2)
    ) and all(
        0.01 <= rates[(mv, fs)] <= 0.12 for mv in ("save", "dr") for fs in (0, 2)
    )
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k[0]}|F|={k[1]}: {v:.3f}" for k, v in sorted(rates.items()))
    _report(3, "null-calibration", ok, detail + " (bands: sir [.02,.09], save/dr [.01,.12])", elapsed, 300.0)


def test_criterion_4_quantile_approximation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for case in range(20):
        dim = int(rng.integers(1, 21))
        w = rng.uniform(0.0, 1.0, size=dim)
        if not np.any(w > 0):
            w[0] = 0.5
        for alpha in (0.01, 0.05, 0.1):
            q = weighted_chisq_upper_quantile(w, alpha)
            q_mc = mc_weighted_chisq_quantile(w, alpha, 1_000_000, seed=1000 + case)
            worst = max(worst, abs(q - q_mc) / q_mc)
    elapsed = time.perf_counter() - t0
    _report(
        4, "quantile-approximation", worst <= 0.08,
        f"max relative gap to 1e6-draw Monte Carlo = {worst:.3f} (tol 0.08) "
        "over 20 weight vectors x 3 levels",
        elapsed, 120.0,
    )


def test_criterion_5_model_one_desk_scale():
    t0 = time.perf_counter()
    sir = run_experiment(
        SimDesign(model="I", n=300, p=10, rho=0.0, seed=501), "htp", Method.SIR, 100
    ).metrics
    dr = run_experiment(
        SimDesign(model="I", n=300, p=10, rho=0.0, seed=502), "htp", Method.DR, 100
    ).metrics
    ok = sir.cf >= 95 and 3.95 <= sir.ms <= 4.05 and dr.cf >= 90
    elapsed = time.perf_counter() - t0
    _report(
        5, "model-I", ok,
        f"HTP-SIR CF={sir.cf} (>=95) MS={sir.ms:.2f} (in [3.95,4.05]); "
        f"HTP-DR CF={dr.cf} (>=90)",
        elapsed, 600.0,
    )


def test_criterion_6_model_two_desk_scale():
    t0 = time.perf_counter()
    save = run_experiment(
        SimDesign(model="II", n=300, p=10, rho=0.0, seed=601), "htp", Method.SAVE, 100
    ).metrics
    sir = run_experiment(
        SimDesign(model="II", n=300, p=10, rho=0.0, seed=602), "htp", Method.SIR, 100
    ).metrics
    ok = save.cf >= 85 and sir.ms <= 1.0 and sir.uf == 100
    elapsed = time.perf_counter() - t0
    _report(
        6, "model-II", ok,
        f"HTP-SAVE CF={save.cf} (>=85); HTP-SIR MS={sir.ms:.2f} (<=1.0) "
        f"UF={sir.uf} (=100)",
        elapsed, 600.0,
    )


def test_criterion_7_model_three_desk_scale():
    t0 = time.perf_counter()
    dr = run_experiment(
        SimDesign(model="III", n=300, p=10, rho=0.0, seed=701), "htp", Method.DR, 100
    ).metrics
    sir = run_experiment(
        SimDesign(model="III", n=300, p=10, rho=0.0, seed=702), "htp", Method.SIR, 100
    ).metrics
    ok = dr.cf >= 80 and sir.uf == 100 and sir.ms <= 3.5
    elapsed = time.perf_counter() - t0
    _report(
        7, "model-III", ok,
        f"HTP-DR CF={dr.cf} (>=80); HTP-SIR UF={sir.uf} (=100) MS={sir.ms:.2f} (<=3.5)",
        elapsed, 600.0,
    )


def test_criterion_8_screening_desk_scale():
    t0 = time.perf_counter()
    design = SimDesign(model="I", n=300, p=200, rho=0.0, seed=801)
    contained = 0
    sizes = []
    for rep in range(50):
        d, truth = generate(design, replication=rep)
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, Method.SIR)
        chosen = set(path.prefix(path.bic_argmin()))
        contained += set(truth) <= chosen
        sizes.append(len(chosen))
    avg_size = sum(sizes) / len(sizes)
    ok = contained >= 48 and avg_size <= 30.0  # 48/50 = 96% >= 95%
    elapsed = time.perf_counter() - t0
    _report(
        8, "screening", ok,
        f"FTP-SIR kept the active set in {contained}/50 BIC prefixes (>=48); "
        f"average prefix size {avg_size:.1f} (<=30)",
        elapsed, 900.0,
    )


def test_criterion_9_structural_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    checks: list[tuple[str, bool]] = []

    d = make_dataset(rng, 90, 7)
    s = slice_response(d.y, 4)

    # forward path nesting and SIR trace monotonicity
    path = ftp_run(d, s, Method.SIR)
    nested = all(
        set(path.prefix(k - 1)) < set(path.prefix(k)) for k in range(1, path.k_max + 1)
    )
    checks.append(("ftp-nesting", nested))
    traces = [st.trace_value for st in path.steps]
    checks.append(("sir-path-monotone", all(b >= a for a, b in zip(traces, traces[1:]))))

    # stepwise determinism and trail replay
    rep1 = stp_run(d, s, Method.SIR, alpha=0.05)
    rep2 = stp_run(d, s, Method.SIR, alpha=0.05)
    checks.append(("stp-deterministic", rep1 == rep2))
    checks.append(("trail-replay", replay_trail(rep1.trail) == rep1.selected))

    # BIC penalty-difference exactness
    delta = bic_score(1.7, 5, 300, 50) - bic_score(1.7, 4, 300, 50)
    checks.append(
        ("bic-penalty-exact",
         delta == pytest.approx((math.log(300) + 2 * math.log(50)) / 300, rel=1e-12))
    )

    # metrics partition
    m = evaluate([(1, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5), ()], (1, 2, 3, 4))
    checks.append(("metrics-partition", m.uf + m.cf + m.of_ == m.n_reps == 4))

    # affine invariance of the three kernel traces
    fs = (1, 3, 5)
    a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    x2 = d.x.copy()
    x2[:, [0, 2, 4]] = d.x[:, [0, 2, 4]] @ a.T + rng.standard_normal(3)
    d2 = Dataset.from_arrays(x2, d.y)
    m1 = compute_moments(d, s, fs)
    m2 = compute_moments(d2, s, fs)
    affine_ok = all(
        abs(trace_kernel(meth, m1) - trace_kernel(meth, m2))
        <= 1e-8 * max(1.0, abs(trace_kernel(meth, m1)))
        for meth in METHODS
    )
    checks.append(("affine-invariance", affine_ok))

    # quantile scale equivariance
    w = rng.uniform(0.1, 1.0, size=6)
    q_scaled = weighted_chisq_upper_quantile(3.5 * w, 0.05)
    q_base = 3.5 * weighted_chisq_upper_quantile(w, 0.05)
    checks.append(("quantile-scale-equivariance", q_scaled == pytest.approx(q_base, rel=1e-12)))

    ok = all(flag for _, flag in checks)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks)
    _report(9, "structural-suite", ok, detail, elapsed, 60.0)


def test_full_scale_smoke_p500():
    # exercises the p > n screening code path; no accuracy assertion
    t0 = time.perf_counter()
    res = run_experiment(
        SimDesign(model="I", n=300, p=500, rho=0.0, seed=901), "htp", Method.SIR, 5
    )
    m = res.metrics
    assert m.uf + m.cf + m.of_ == m.n_reps == 5
    assert res.failures == 0
    print(
        f"[smoke] p=500 HTP-SIR ran 5 replications: UF={m.uf} CF={m.cf} "
        f"OF={m.of_} MS={m.ms:.2f} ({time.perf_counter() - t0:.0f}s)"
    )
