from __future__ import annotations

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepursuit import (
    Dataset,
    SimDesign,
    bic_score,
    compute_moments,
    ftp_run,
    generate,
    htp_run,
    replay_trail,
    slice_response,
    stp_run,
    trace_kernel,
    trace_test,
)
from tracepursuit.kernels import Method, ScanState, deletion_gains
from tracepursuit.nulldist import influence_dim
from tracepursuit.selectors import (
    SIR_TRACE_RTOL,
    _forward_path,
    _scan_candidates,
    default_path_cap,
    stp_set_cap,
)

from conftest import make_dataset
from oracles import reference_ftp, reference_stp_trail, scalar_scan


class TestBicScore:
    def test_direct_evaluation(self):
        got = bic_score(1.0, 2, 100, 10)
        assert got == pytest.approx(0.1842068, abs=1e-7)

    def test_penalty_difference_is_exact(self):
        for n, p in [(100, 10), (300, 200), (50, 5)]:
            t = 2.345
            delta = bic_score(t, 4, n, p) - bic_score(t, 3, n, p)
            assert delta == pytest.approx((math.log(n) + 2 * math.log(p)) / n, rel=1e-14)

    def test_nonpositive_trace_is_infinite(self):
        assert bic_score(0.0, 1, 100, 10) == math.inf
        assert bic_score(-1e-9, 2, 100, 10) == math.inf

    def test_brute_force_minimum_over_synthetic_path(self):
        traces = [0.2, 0.5, 0.9, 1.0, 1.02]
        n, p = 120, 15
        scores = [bic_score(t, k, n, p) for k, t in enumerate(traces, start=1)]
        assert int(np.argmin(scores)) + 1 == min(
            range(1, 6), key=lambda k: scores[k - 1]
        )


class TestFtp:
    def test_single_predictor_forced(self, rng):
        d = make_dataset(rng, 40, 1)
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, Method.SIR, k_max=1)
        assert path.k_max == 1
        assert path.steps[0].added_index == 1
        m = compute_moments(d, s, (1,))
        assert path.steps[0].trace_value == pytest.approx(
            trace_kernel(Method.SIR, m), rel=1e-10
        )
        assert path.steps[0].bic_value == pytest.approx(
            bic_score(path.steps[0].trace_value, 1, d.n, d.p)
        )

    def test_nesting_and_no_repeats(self, rng):
        d = make_dataset(rng, 80, 8)
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, Method.SIR)
        added = [st.added_index for st in path.steps]
        assert len(set(added)) == len(added)
        for k in range(1, path.k_max + 1):
            assert set(path.prefix(k - 1)) < set(path.prefix(k))

    @pytest.mark.parametrize("method", list(Method))
    def test_path_trace_nondecreasing(self, method, rng):
        d = make_dataset(rng, 80, 6)
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, method)
        traces = [st.trace_value for st in path.steps]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))

    def test_collinear_column_skipped_not_fatal(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 4))
        x = np.column_stack([x, x[:, 0] * 0.5 - x[:, 1]])  # {1, 2, 5} dependent
        y = x[:, 0] + 0.3 * rng.standard_normal(60)
        d = Dataset.from_arrays(x, y)
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, Method.SIR)
        # one member of the dependent triple must be skipped, not abort the run
        assert path.k_max == 4
        full = set(path.prefix(4))
        assert len(path.skipped) == 1
        assert set(path.skipped) | full == {1, 2, 3, 4, 5}

    def test_k_max_validation(self, rng):
        d = make_dataset(rng, 30, 5)
        s = slice_response(d.y, 4)
        cap = default_path_cap(d.n, d.p, s.h_count)
        with pytest.raises(ValueError):
            ftp_run(d, s, Method.SIR, k_max=cap + 1)

    @pytest.mark.parametrize("run", [ftp_run, htp_run])
    @pytest.mark.parametrize("k_max", [2.5, 2.0, 3.0, "2"])
    def test_non_integer_k_max_rejected(self, rng, run, k_max):
        d = make_dataset(rng, 30, 5)
        s = slice_response(d.y, 4)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            run(d, s, Method.SIR, k_max=k_max)


def _edge_case(name):
    """Inputs on which the vectorized scan must repeat the scalar reference."""
    if name == "model-one-p50":
        d, _ = generate(SimDesign(model="I", n=300, p=50, seed=11))
        return d
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 5))
    if name == "constant-collinear":
        # a constant column and the dependent triple {1, 2, 6}
        x = np.column_stack([x, x[:, 0] * 0.5 - x[:, 1], np.full(60, 0.1)])
    else:  # "scaled": two columns far apart in scale, scored in standard units
        x[:, 1] *= 1e8
        x[:, 3] *= 1e-8
    y = x[:, 0] / x[:, 0].std() + x[:, 1] / x[:, 1].std() + 0.3 * rng.standard_normal(60)
    return Dataset.from_arrays(x, y)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("case", ["model-one-p50", "constant-collinear", "scaled"])
class TestScanMatchesScalarReference:
    def test_ftp_path_and_skips(self, case, method):
        d = _edge_case(case)
        s = slice_response(d.y, 4)
        cap = default_path_cap(d.n, d.p, 4)
        path = ftp_run(d, s, method)
        added, traces, skipped = reference_ftp(d, s, method, cap)
        assert [st.added_index for st in path.steps] == added
        assert list(path.skipped) == skipped
        assert [st.trace_value for st in path.steps] == pytest.approx(traces, rel=1e-10)
        # the winner and the skip categories of every step
        state, f = ScanState(d, s, method, tuple(range(1, d.p + 1))), []
        while True:
            best_j, _, skips = _scan_candidates(state)
            ref_j, _, _, ref_skips = scalar_scan(
                d, s, method, tuple(sorted(f)), set(range(1, d.p + 1)) - set(f)
            )
            assert (best_j, skips) == (ref_j, ref_skips)
            if best_j is None or len(f) + 1 == cap:
                break
            state.add(best_j)
            f.append(best_j)

    def test_stp_trail(self, case, method):
        d = _edge_case(case)
        s = slice_response(d.y, 4)
        report = stp_run(d, s, method)
        expected = reference_stp_trail(
            d, s, method, 0.1 / d.p,
            stp_set_cap(method, d.n, d.p, 4), range(1, d.p + 1),
        )
        assert [(e.action, e.index, e.statistic, e.threshold, e.note) for e in report.trail] == expected


def test_duplicated_column_keeps_smaller_index():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((120, 8))
    x[:, 6] = x[:, 2]
    d = Dataset.from_arrays(x, x[:, 2] + 0.2 * rng.standard_normal(120))
    s = slice_response(d.y, 4)
    for method in Method:
        path = ftp_run(d, s, method)
        assert path.steps[0].added_index == 3
        assert 7 in path.skipped and 7 not in path.prefix(path.k_max)
        report = stp_run(d, s, method)
        assert ("skip", 7, "collinear-candidate") in [
            (e.action, e.index, e.note) for e in report.trail
        ]
        assert 3 in report.selected


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("model", ["I", "II", "III"])
def test_each_working_set_and_candidate_tested_once(model, method, monkeypatch):
    """An STP run tests each (F, j) at most once and keeps the trail of the
    reference, which tests every question afresh."""
    import tracepursuit.selectors as selectors

    trace_test = selectors.trace_test
    tested = []

    def spy_test(method, d, s, f, j, *rest):
        tested.append((f, j))
        return trace_test(method, d, s, f, j, *rest)

    monkeypatch.setattr(selectors, "trace_test", spy_test)
    desk, _ = generate(SimDesign(model=model, n=300, p=10, seed=5))
    # a looser alpha on correlated columns, so that some runs also delete
    loose, _ = generate(SimDesign(model=model, n=200, p=20, rho=0.5, seed=8))
    runs = [(desk, htp_run, None), (desk, stp_run, None), (loose, stp_run, 0.4)]
    for d, run, alpha in runs:
        s = slice_response(d.y, 4)
        tested.clear()
        report = run(d, s, method, alpha=alpha)
        assert tested and len(set(tested)) == len(tested)
        if run is stp_run:
            expected = reference_stp_trail(
                d, s, method, alpha or 0.1 / d.p,
                stp_set_cap(method, d.n, d.p, 4), range(1, d.p + 1),
            )
            got = [(e.action, e.index, e.statistic, e.threshold, e.note) for e in report.trail]
            assert got == expected


def test_scripted_return_to_an_earlier_working_set(monkeypatch):
    """Scripted gains and tests: after two deletions and an addition the run
    is back at {2, 3}, whose candidate 1 was scored, not tested, at {1, 2, 3}."""
    import tracepursuit.selectors as selectors

    cheap = {((1, 3), 2): 0.5, ((3,), 1): 0.1}  # else the gain of j is 4 - j
    fail = {((1, 3), 2), ((3,), 1)}  # questions whose test retains H0

    def gain(f, j):
        return cheap.get((f, j), 4.0 - j)

    class Scan:
        def __init__(self, d, s, method, columns, f=()):
            self.columns, self.f = columns, list(f)

        def add(self, j):
            self.f.append(j)

    def scan_candidates(state):
        f = tuple(sorted(state.f))
        best = max((j for j in state.columns if j not in f), key=lambda j: gain(f, j))
        return best, gain(f, best), []

    def deletion_gains(method, f):
        return np.array([gain(tuple(i for i in f if i != j), j) for j in f])

    tested = []

    def trace_test(method, d, s, f, j, alpha):
        tested.append((f, j))
        return SimpleNamespace(statistic=0.0 if (f, j) in fail else 10.0, threshold=5.0)

    monkeypatch.setattr(selectors, "ScanState", Scan)
    monkeypatch.setattr(selectors, "_scan_candidates", scan_candidates)
    monkeypatch.setattr(selectors, "compute_moments", lambda d, s, f: tuple(f))
    monkeypatch.setattr(selectors, "deletion_gains", deletion_gains)
    monkeypatch.setattr(selectors, "trace_test", trace_test)
    d = make_dataset(np.random.default_rng(0), 40, 3)
    report = stp_run(d, slice_response(d.y, 2), Method.SIR, alpha=0.5)
    steps = [(e.action, e.index) for e in report.trail if e.action != "stop"]
    assert steps == [
        ("add", 1), ("add", 2), ("add", 3), ("delete", 2), ("delete", 1), ("add", 2), ("add", 1)
    ]
    assert report.trail[-1].note == "cycle detected"
    assert tested[-1] == ((2, 3), 1)
    assert len(set(tested)) == len(tested)


@pytest.mark.parametrize("method", list(Method))
def test_backward_pass_whitens_once(method, monkeypatch):
    """Outside the tests it asks for, a backward pass builds one MomentStats
    and runs one Cholesky factorization, whatever |F| is."""
    import tracepursuit.selectors as selectors

    cholesky, calls, testing = np.linalg.cholesky, [], []

    def spy_moments(d, s, f):
        calls.append("moments")
        return compute_moments(d, s, f)

    def spy_gains(method, m):
        calls.append("scan")
        return deletion_gains(method, m)

    def spy_cholesky(a):
        if not testing:
            calls.append("cholesky")
        return cholesky(a)

    def spy_test(*args):
        testing.append(1)
        try:
            return trace_test(*args)
        finally:
            testing.pop()

    d, _ = generate(SimDesign(model="I", n=200, p=20, rho=0.5, seed=8))
    s = slice_response(d.y, 4)
    monkeypatch.setattr(selectors, "compute_moments", spy_moments)
    monkeypatch.setattr(selectors, "deletion_gains", spy_gains)
    monkeypatch.setattr(selectors, "trace_test", spy_test)
    monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
    report = stp_run(d, s, method, alpha=0.4)
    assert len(report.selected) > 2
    assert calls.count("scan") > 2
    assert calls == ["moments", "scan", "cholesky"] * calls.count("scan")


@pytest.mark.parametrize("rows", [50, 100])
def test_slicing_of_another_length_is_rejected(rows):
    d = make_dataset(np.random.default_rng(3), 80, 6)
    s = slice_response(np.random.default_rng(4).standard_normal(rows), 4)
    runs = [
        lambda: trace_test(Method.SIR, d, s, (1, 2), 3, 0.05),
        lambda: ftp_run(d, s, Method.SIR),
        lambda: htp_run(d, s, Method.DR),
        lambda: stp_run(d, s, Method.SAVE),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=f"slicing has {rows} rows but the dataset has n=80"):
            run()


def test_long_stepwise_run_holds_no_moments_per_question():
    # 30 additions: moments kept for every question asked would take ~29 MB
    d, _ = generate(SimDesign(model="I", n=300, p=50, seed=3))
    s = slice_response(d.y, 4)
    tracemalloc.start()
    try:
        report = stp_run(d, s, Method.SIR, alpha=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.selected) >= 25
    assert peak < 2e6


def test_save_and_dr_paths_hold_no_more_than_sir():
    # a SAVE or DR scan keeps (H, p) slice statistics besides Q'X, as SIR does,
    # not the (|F|, H, p) cross-moments Q_h' R_h
    d, _ = generate(SimDesign(model="I", n=100, p=2000, seed=0))
    s = slice_response(d.y, 4)
    peaks = {}
    for method in Method:
        tracemalloc.start()
        try:
            ftp_run(d, s, method)
            peaks[method] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[Method.SAVE] <= 1.5 * peaks[Method.SIR]
    assert peaks[Method.DR] <= 1.5 * peaks[Method.SIR]


def _noise_dataset(seed, n=300, p=10):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=9000, spawn_key=(seed,)))
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return Dataset.from_arrays(x, y)


class TestStp:
    def test_vacuous_selection_trail(self):
        # tiny alpha makes every threshold huge; nothing can enter
        d = _noise_dataset(0, n=200, p=4)
        s = slice_response(d.y, 4)
        report = stp_run(d, s, Method.SIR, alpha=1e-9)
        assert report.selected == ()
        assert [e.action for e in report.trail] == ["stop"]

    def test_trail_replay_and_audit(self):
        d, _ = generate(SimDesign(model="I", n=300, p=10, seed=21))
        s = slice_response(d.y, 4)
        report = stp_run(d, s, Method.SIR, alpha=0.01)
        assert replay_trail(report.trail) == report.selected
        for e in report.trail:
            if e.action == "add":
                assert e.statistic > e.threshold
            if e.action == "delete":
                assert e.statistic < e.threshold

    def test_deterministic_reruns(self):
        d, _ = generate(SimDesign(model="I", n=300, p=8, seed=33))
        s = slice_response(d.y, 4)
        r1 = stp_run(d, s, Method.DR, alpha=0.0125)
        r2 = stp_run(d, s, Method.DR, alpha=0.0125)
        assert r1 == r2

    def test_universe_restriction(self):
        d, _ = generate(SimDesign(model="I", n=300, p=10, seed=2))
        s = slice_response(d.y, 4)
        report = stp_run(d, s, Method.SIR, alpha=0.01, universe=(1, 3, 4))
        assert set(report.selected) <= {1, 3, 4}
        assert report.stage_sizes[0] == 3

    @pytest.mark.parametrize(
        "method, n, p, alpha, note",
        [
            (Method.SIR, 12, 10, 0.45, "set-size cap reached"),
            (Method.SAVE, 60, 40, 0.45, "set-size cap reached"),
            (Method.DR, 60, 40, 0.45, "set-size cap reached"),
            (Method.SIR, 300, 10, None, "converged"),
            (Method.SAVE, 300, 10, None, "converged"),
            (Method.DR, 300, 10, None, "converged"),
        ],
        ids=["sir-cap", "save-cap", "dr-cap", "sir-converged", "save-converged", "dr-converged"],
    )
    def test_stop_note_names_the_set_size_cap(self, method, n, p, alpha, note):
        """A run whose growth the cap ended says so; one a test ended converges.
        At n=12 the SIR cap is n - H - 2 = 6; at n=60 the SAVE and DR caps are
        14 and 11, where the influence dimension would reach n."""
        d, _ = generate(SimDesign(model="I", n=n, p=p, seed=1))
        s = slice_response(d.y, 4)
        cap = stp_set_cap(method, d.n, d.p, 4)
        report = stp_run(d, s, method, alpha=alpha)
        assert report.trail[-1].note == note
        assert (len(report.selected) == cap) == (note != "converged")
        expected = reference_stp_trail(d, s, method, alpha or 0.1 / d.p, cap, range(1, d.p + 1))
        got = [(e.action, e.index, e.statistic, e.threshold, e.note) for e in report.trail]
        assert got == expected

    def test_no_room_for_a_working_set_is_rejected(self):
        """At n = H + 2 the cap min(p, n - H - 2) is 0: no set can be tested
        and no path step made, so no selector blames a ``k_max`` not given."""
        d = _noise_dataset(5, n=6, p=3)
        for run in (ftp_run, stp_run, htp_run):
            with pytest.raises(ValueError, match="^n=6 leaves no room for a working set beside 4"):
                run(d, slice_response(d.y, 4), Method.SIR)

    def test_no_room_for_a_dr_test_is_rejected(self):
        """At H + 3 <= n <= 2H + 1 the base cap is positive, but a DR test at
        |F| = 0 has 2H + 1 >= n influence dimensions: no test can be made."""
        rng = np.random.default_rng(0)
        d = Dataset.from_arrays(rng.standard_normal((9, 3)), rng.standard_normal(9))
        s = slice_response(d.y, 4)
        for method in (Method.SIR, Method.SAVE):  # these keep room for a test
            assert stp_run(d, s, method, alpha=0.3).selected
        message = "n=9 leaves no room for a DR test beside 4 slices: .* 9 dimensions"
        with pytest.raises(ValueError, match=message):
            stp_run(d, s, Method.DR, alpha=0.3)
        with pytest.raises(ValueError, match=message):
            htp_run(d, s, Method.DR, alpha=0.3)

    def test_terminates_within_iteration_cap(self):
        d = _noise_dataset(5, n=120, p=6)
        s = slice_response(d.y, 4)
        # generous alpha encourages churn; the guard must still stop the run
        report = stp_run(d, s, Method.SIR, alpha=0.6)
        assert report.trail[-1].action == "stop"

    @pytest.mark.xfail(
        strict=False,
        reason="with the same alpha for addition and deletion, a spurious "
        "candidate that scrapes past the addition threshold is never deleted "
        "(identical statistic and threshold at the reduced set), so "
        "full-universe stepwise overfits in ~10% of replications; the hybrid "
        "route screens those candidates away first and does reach >= 95",
    )
    def test_model_one_recovery_rate_full_universe(self):
        hits = 0
        reps = 100
        for rep in range(reps):
            d, truth = generate(SimDesign(model="I", n=300, p=10, seed=77), replication=rep)
            s = slice_response(d.y, 4)
            report = stp_run(d, s, Method.SIR, alpha=0.01)
            hits += report.selected == truth
        assert hits >= 95

    def test_model_one_recovery_rate_active_set_always_found(self):
        # every failure of the strict-equality claim above is an overfit;
        # the active set itself is recovered in every replication
        misses = 0
        reps = 100
        for rep in range(reps):
            d, truth = generate(SimDesign(model="I", n=300, p=10, seed=77), replication=rep)
            s = slice_response(d.y, 4)
            report = stp_run(d, s, Method.SIR, alpha=0.01)
            misses += not set(truth) <= set(report.selected)
        assert misses == 0

    def test_pure_noise_mostly_empty(self):
        empty = 0
        reps = 100
        for rep in range(reps):
            d = _noise_dataset(rep)
            s = slice_response(d.y, 4)
            report = stp_run(d, s, Method.SIR, alpha=0.01)
            empty += report.selected == ()
        assert empty >= 85


class TestHtp:
    def test_chain_of_subsets(self):
        d, _ = generate(SimDesign(model="I", n=300, p=20, seed=13))
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, Method.SIR)
        screened = set(path.prefix(path.bic_argmin()))
        report = htp_run(d, s, Method.SIR)
        assert set(report.selected) <= screened <= set(path.prefix(path.k_max))
        assert report.stage_sizes == (len(screened), len(report.selected))

    def test_model_two_save_hits_size_band(self):
        from tracepursuit import run_experiment

        res = run_experiment(
            SimDesign(model="II", n=300, p=10, rho=0.0, seed=601),
            "htp",
            Method.SAVE,
            n_reps=100,
        )
        m = res.metrics
        assert m.cf >= 85
        assert 3.8 <= m.ms <= 4.3


# p > n designs, (n, p, rho), on which SIR paths run their trace up to its
# bound H - 1 (within 3e-12 relative at H = 2, 2e-2 at n=40, H=8)
SATURATING = [(40, 300, 0.5), (100, 2000, 0.0)]


def _draw_sir_case(data, shapes):
    """A Model I-III dataset of a drawn shape, sliced into H in {2, 4, 8}
    slices, or into H distinct response values of unequal frequency."""
    n, p, rho = data.draw(st.sampled_from(shapes), label="(n, p, rho)")
    h = data.draw(st.sampled_from([2, 4, 8]), label="H")
    discrete = data.draw(st.booleans(), label="discrete response")
    model = data.draw(st.sampled_from(["I", "II", "III"]), label="model")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    d, _ = generate(SimDesign(model=model, n=n, p=p, rho=rho, seed=seed))
    if discrete:
        levels = np.sort(np.random.default_rng(seed).uniform(0.1, 0.9, h - 1))
        d = Dataset.from_arrays(d.x, np.searchsorted(np.quantile(d.y, levels), d.y).astype(float))
    return d, slice_response(d.y, h, discrete=discrete)


class TestHtpScreeningStop:
    """HTP-SIR ends its screening path once no longer prefix can win the BIC."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_stopped_path_keeps_the_bic_choice(self, data):
        d, s = _draw_sir_case(data, SATURATING + [(300, 30, 0.0)])
        full = ftp_run(d, s, Method.SIR)
        stopped = _forward_path(d, s, Method.SIR, None, bic_stop=True)
        assert stopped.steps == full.steps[: stopped.k_max]
        assert stopped.bic_argmin() == full.bic_argmin()
        assert stopped.prefix(stopped.bic_argmin()) == full.prefix(full.bic_argmin())

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_sir_path_trace_is_at_most_slices_minus_one(self, data):
        """The premise of the stop: every prefix trace is at most H - 1, up to
        the rounding slack, on designs whose paths nearly reach it."""
        d, s = _draw_sir_case(data, SATURATING)
        traces = np.array([step.trace_value for step in ftp_run(d, s, Method.SIR).steps])
        bound = s.h_count - 1
        assert traces.max() <= bound * (1.0 + SIR_TRACE_RTOL)
        assert traces[-1] > 0.9 * bound

    def test_stop_right_after_a_saturating_choice(self):
        """The slice indicator is (x1 + x2) / 2, so the trace reaches H - 1 = 1
        at the BIC choice {1, 2}; a floor from a bound below 0.58 would stop
        after x2 alone."""
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 200).astype(float)
        noise = 0.5 * rng.standard_normal(200)
        x = rng.standard_normal((200, 50))
        x[:, 0], x[:, 1] = y + noise, y - noise
        d = Dataset.from_arrays(x, y)
        s = slice_response(d.y, 2, discrete=True)
        full = ftp_run(d, s, Method.SIR)
        stopped = _forward_path(d, s, Method.SIR, None, bic_stop=True)
        assert full.prefix(full.bic_argmin()) == (1, 2)
        assert full.steps[1].trace_value == pytest.approx(1.0, rel=SIR_TRACE_RTOL)
        assert stopped.steps == full.steps[:2]

    def test_save_and_dr_paths_are_not_stopped(self):
        d, _ = generate(SimDesign(model="II", n=100, p=40, seed=2))
        s = slice_response(d.y, 4)
        for method in (Method.SAVE, Method.DR):
            assert _forward_path(d, s, method, None, bic_stop=True) == ftp_run(d, s, method)

    def test_default_ftp_keeps_the_full_path(self):
        d, _ = generate(SimDesign(model="I", n=100, p=2000, seed=1))
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, Method.SIR)
        assert path.k_max == default_path_cap(100, 2000, 4) == 94
        assert path.bic_argmin() < 10

    @pytest.mark.parametrize(
        "model, method, n, p",
        [(model, method, 300, 200) for model in ("I", "II", "III") for method in Method]
        + [("I", Method.SIR, 100, 2000)],
    )
    def test_htp_is_full_path_prefix_then_stp(self, model, method, n, p):
        d, _ = generate(SimDesign(model=model, n=n, p=p, seed=1))
        s = slice_response(d.y, 4)
        path = ftp_run(d, s, method)
        screened = path.prefix(path.bic_argmin())
        expected = stp_run(d, s, method, universe=screened)
        report = htp_run(d, s, method)
        assert report.selected == expected.selected
        assert report.trail == expected.trail
        assert report.stage_sizes == (len(screened), len(expected.selected))

    def test_htp_is_path_prefix_then_stp_through_deletions(self):
        """The refinement follows the path until its first deletion and scans
        after it; looser alphas make some refinements delete, one at 0.3 among
        them on Model I at p=40, seed 0, the data of ``bench --p 40``."""
        designs = [("I II III", dict(n=300, p=10, seed=1)),
                   ("I II III", dict(n=200, p=20, rho=0.5, seed=1)), ("I", dict(p=40))]
        deleting = set()
        for models, design in designs:
            for model in models.split():
                d, _ = generate(SimDesign(model=model, **design))
                s = slice_response(d.y, 4)
                for method in Method:
                    path = ftp_run(d, s, method)
                    screened = path.prefix(path.bic_argmin())
                    for alpha in (None, 0.3, 0.45):
                        expected = stp_run(d, s, method, alpha=alpha, universe=screened)
                        report = htp_run(d, s, method, alpha=alpha)
                        assert report.selected == expected.selected
                        assert report.trail == expected.trail
                        if "delete" in [e.action for e in report.trail]:
                            deleting.add((d.p, alpha))
        assert (40, 0.3) in deleting


def _spy_scans(monkeypatch):
    """Record each ScanState the selectors build and each state they scan."""
    import tracepursuit.selectors as selectors

    events = []

    class Spy(ScanState):
        def __init__(self, d, s, method, columns, f=()):
            super().__init__(d, s, method, columns, f)
            events.append(("build", self, tuple(int(j) for j in columns), tuple(f)))

    def spy_scan(state):
        events.append(("scan", state))
        return _scan_candidates(state)

    monkeypatch.setattr(selectors, "ScanState", Spy)
    monkeypatch.setattr(selectors, "_scan_candidates", spy_scan)
    return events


def test_htp_refinement_without_a_deletion_builds_no_scan_state(monkeypatch):
    d, _ = generate(SimDesign(model="I", n=300, p=10, seed=1))
    s = slice_response(d.y, 4)
    path = _forward_path(d, s, Method.SIR, None, bic_stop=True)
    events = _spy_scans(monkeypatch)
    report = htp_run(d, s, Method.SIR)
    assert report.selected and "delete" not in [e.action for e in report.trail]
    builds = [e for e in events if e[0] == "build"]
    assert [(columns, f) for _, _, columns, f in builds] == [(tuple(range(1, 11)), ())]
    assert [e[1] for e in events[1:]] == [builds[0][1]] * path.k_max


def test_htp_refinement_builds_its_scan_state_after_the_first_deletion(monkeypatch):
    d, _ = generate(SimDesign(model="I", n=200, p=20, rho=0.5, seed=1))
    s = slice_response(d.y, 4)
    path = ftp_run(d, s, Method.SAVE)
    screened = path.prefix(path.bic_argmin())
    events = _spy_scans(monkeypatch)
    report = htp_run(d, s, Method.SAVE, alpha=0.3)
    actions = [e.action for e in report.trail]
    first_delete = actions.index("delete")
    builds = [i for i, e in enumerate(events) if e[0] == "build"]
    assert len(builds) == 2 and actions.count("delete") == 1
    path_state, refine_state = events[builds[0]][1], events[builds[1]][1]
    assert events[builds[0]][2:] == (tuple(range(1, 21)), ())
    assert events[builds[1]][2:] == (screened, replay_trail(report.trail[: first_delete + 1]))
    assert all(e[1] is path_state for e in events[: builds[1]])
    assert all(e[1] is refine_state for e in events[builds[1] :])


@pytest.mark.parametrize("bad", ["alpha", "dr-cap", "slicing"])
@pytest.mark.parametrize(
    "run",
    [
        lambda d, s, method, alpha: stp_run(d, s, method, alpha=alpha, universe=()),
        lambda d, s, method, alpha: stp_run(d, s, method, alpha=alpha),
        lambda d, s, method, alpha: htp_run(d, s, method, alpha=alpha),
    ],
    ids=["stp-empty-universe", "stp", "htp"],
)
def test_options_are_checked_before_any_work(run, bad, monkeypatch):
    """A level outside (0, 1) or a DR test with no room beside 4 slices at
    n=9 raises before any scan state is built, also where the run would stop
    at once; a slicing of another length is reported before either."""
    rng = np.random.default_rng(0)
    d = Dataset.from_arrays(rng.standard_normal((9, 3)), rng.standard_normal(9))
    method, alpha, message = {
        "alpha": (Method.SIR, 5.0, "alpha must be in \\(0,1\\), got 5.0"),
        "dr-cap": (Method.DR, 0.3, "no room for a DR test"),
        "slicing": (Method.DR, 5.0, "slicing has 8 rows but the dataset has n=9"),
    }[bad]
    s = slice_response(d.y[: 8 if bad == "slicing" else 9], 4)
    events = _spy_scans(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run(d, s, method, alpha)
    assert events == []


@pytest.mark.parametrize("run", [ftp_run, stp_run, htp_run])
def test_options_are_keyword_only(run):
    """A fourth positional argument, such as a level, raises ``TypeError``."""
    d, _ = generate(SimDesign(model="I", n=100, p=6, seed=1))
    with pytest.raises(TypeError):
        run(d, slice_response(d.y, 4), Method.SIR, 0.3)


@pytest.mark.parametrize("method", list(Method))
def test_stp_cap_keeps_every_weight_matrix_full_rank(method):
    """At n=60, H=4 a SAVE test on 14 members or a DR test on 11 has at least
    as many influence dimensions as samples; STP stops before making one."""
    d, _ = generate(SimDesign(model="I", n=60, p=40, seed=1), replication=0)
    s = slice_response(d.y, 4)
    cap = stp_set_cap(method, d.n, d.p, 4)
    if method is Method.SIR:
        assert cap == default_path_cap(d.n, d.p, 4)
    else:
        assert influence_dim(method, cap - 1, 4) < d.n <= influence_dim(method, cap, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = stp_run(d, s, method, alpha=0.45)
    assert len(report.selected) <= cap
