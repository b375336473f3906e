from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepursuit import (
    Dataset,
    SimDesign,
    compute_moments,
    generate,
    slice_response,
    trace_kernel,
)
from tracepursuit.data import is_singular_spectrum
from tracepursuit.errors import CollinearCandidateError, SingularDesignError
from tracepursuit.kernels import (
    COLLINEARITY_FLOOR,
    Method,
    ResidualStats,
    ScanState,
    auxiliary_stats,
    deletion_gains,
    residualize,
    trace_diff,
)
from tracepursuit.nulldist import (
    influence_samples,
    omega_hat,
    omega_weights,
    statistic_and_threshold,
)

from conftest import make_dataset, random_case
from oracles import explicit_trace_kernel, naive_moments, ols_slice_means, standardize_columns

METHODS = list(Method)


class TestResidualize:
    def test_collinear_candidate_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        x = np.column_stack([x, x[:, 0] - 2.0 * x[:, 1]])
        d = Dataset.from_arrays(x, rng.standard_normal(40))
        s = slice_response(d.y, 2)
        m = compute_moments(d, s, (1, 2))
        with pytest.raises(CollinearCandidateError):
            residualize(m, 4)

    def test_empty_set_standardizes_column(self, rng):
        d = make_dataset(rng, 50, 3)
        s = slice_response(d.y, 4)
        m = compute_moments(d, s, ())
        r = residualize(m, 2)
        xc = d.x[:, 1] - d.x[:, 1].mean()
        sd = np.sqrt(np.mean(xc**2) - xc.mean() ** 2)
        assert np.max(np.abs(r.gamma_per_sample - xc / sd)) < 1e-12

    def test_matches_ols_oracle(self, rng):
        for _ in range(5):
            d = make_dataset(rng, 40, 4)
            s = slice_response(d.y, 4)
            m = compute_moments(d, s, (1, 3))
            r = residualize(m, 4)
            _, _, gbs, gamma = ols_slice_means(d.x, s.membership, [0, 2], 3)
            assert np.allclose(r.gamma_by_slice, gbs, atol=1e-10)
            assert np.allclose(r.gamma_per_sample, gamma, atol=1e-10)

    @pytest.mark.parametrize("rho", [0.99, 0.999])
    @pytest.mark.parametrize("n, p", [(200, 40), (60, 40)])
    @pytest.mark.parametrize("k", [5, 10, 20, 30])
    def test_matches_lstsq_on_ar1_designs(self, rho, n, p, k):
        """The whitened residual against a least-squares solve, with F the
        first k columns of a strongly autocorrelated design and the candidate
        their neighbour k + 1."""
        d, _ = generate(SimDesign(model="I", n=n, p=p, rho=rho, seed=k))
        s = slice_response(d.y, 4)
        f = tuple(range(1, k + 1))
        r = residualize(compute_moments(d, s, f), k + 1)
        xc = d.x - d.x.mean(axis=0)
        beta = np.linalg.lstsq(xc[:, :k], xc[:, k], rcond=None)[0]
        resid = xc[:, k] - xc[:, :k] @ beta
        gamma = resid / np.sqrt(np.mean(resid**2) - np.mean(resid) ** 2)
        assert np.allclose(r.gamma_per_sample, gamma, rtol=0.0, atol=1e-9)

    def test_invariants(self, rng):
        for _ in range(10):
            d, s, f, j = random_case(rng)
            m = compute_moments(d, s, f)
            r = residualize(m, j)
            p_hat = np.asarray(s.proportions)
            assert abs(p_hat @ r.gamma_by_slice) < 1e-10
            assert abs(p_hat @ r.zeta_by_slice - 1.0) < 1e-10
            gamma = r.gamma_per_sample
            assert np.mean(gamma**2) - np.mean(gamma) ** 2 == pytest.approx(1.0, rel=1e-10)
            # the residual is orthogonal to the working set, so the
            # proportion-weighted whitened cross-moments sum to zero
            assert np.all(np.abs(p_hat @ auxiliary_stats(r)) < 1e-10)

    def test_singular_design_error(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(30)
        x = np.column_stack([base, base, rng.standard_normal(30)])
        d = Dataset.from_arrays(x, rng.standard_normal(30))
        s = slice_response(d.y, 2)
        m = compute_moments(d, s, (1, 2))
        with pytest.raises(SingularDesignError):
            residualize(m, 3)


class TestTraceKernel:
    @pytest.mark.parametrize("method", METHODS)
    def test_empty_set_is_zero(self, method, small_case):
        d, s, _ = small_case
        m = compute_moments(d, s, ())
        assert trace_kernel(method, m) == 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_homogeneous_slices_give_null_value(self, method):
        # identical x-pattern in each slice: slice moments equal globals
        block = np.array([[1.0, 0.5], [-1.0, 2.0], [0.25, -1.5], [2.0, 0.0]])
        x = np.vstack([block, block])
        y = np.repeat([1.0, 2.0], 4)
        d = Dataset.from_arrays(x, y)
        s = slice_response(d.y, 2, discrete=True)
        m = compute_moments(d, s, (1, 2))
        assert trace_kernel(method, m) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("method", METHODS)
    def test_against_explicit_matrix_oracle(self, method, rng):
        for _ in range(8):
            d, s, f, j = random_case(rng, n_range=(40, 80), p_range=(3, 6))
            fs = tuple(sorted(f + (j,)))
            m = compute_moments(d, s, fs)
            got = trace_kernel(method, m)
            want = explicit_trace_kernel(
                method.value, d.x, s.membership, [i - 1 for i in fs]
            )
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("method", METHODS)
    def test_affine_invariance(self, method, rng):
        d, s, f, j = random_case(rng, n_range=(60, 90), p_range=(4, 6))
        fs = tuple(sorted(f + (j,)))
        k = len(fs)
        a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
        b = rng.standard_normal(k)
        x2 = d.x.copy()
        x2[:, [i - 1 for i in fs]] = d.x[:, [i - 1 for i in fs]] @ a.T + b
        d2 = Dataset.from_arrays(x2, d.y)
        m1 = compute_moments(d, s, fs)
        m2 = compute_moments(d2, s, fs)
        t1 = trace_kernel(method, m1)
        t2 = trace_kernel(method, m2)
        assert t2 == pytest.approx(t1, rel=1e-8, abs=1e-8)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Counts ``np.linalg.cholesky`` calls made while the test runs."""
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    return calls


class TestWorkingSetAlgebra:
    def test_whitening_whitens(self, rng):
        for _ in range(10):
            d, s, f, j = random_case(rng)
            m = compute_moments(d, s, tuple(sorted(f + (j,))))
            z = m.white_xc
            assert np.allclose(z.T @ z / d.n, np.eye(m.size), atol=1e-12)
            w = m.whitening
            xs = standardize_columns(d.x)
            _, sigma, u, v = naive_moments(xs, s.membership, [a - 1 for a in m.f])
            assert np.allclose(w @ w.T @ sigma, np.eye(m.size), atol=1e-10)
            assert np.allclose(m.white_u, u @ w, atol=1e-12)
            assert np.allclose(m.white_v, np.einsum("ab,hac,cd->hbd", w, v, w), atol=1e-12)

    def test_whitening_is_the_scans_triangular_factor(self, rng):
        """W is upper triangular and equals sqrt(n) R_Q^{-1} of a forward scan
        grown over F in ascending order: the scan and the test share it, and
        sqrt(n) Q is the whitened working set Z = X_F W row for row."""
        for _ in range(10):
            d, s, f, j = random_case(rng)
            fs = tuple(sorted(f + (j,)))
            m = compute_moments(d, s, fs)
            w = m.whitening
            state = ScanState(d, s, Method.SIR, tuple(range(1, d.p + 1)), fs)
            k = len(fs)
            rq = state.rq[:k, :k]
            assert np.array_equal(w, np.triu(w))
            assert np.allclose(w, np.sqrt(d.n) * np.linalg.inv(rq), rtol=1e-10, atol=1e-12)
            assert np.allclose(np.sqrt(d.n) * state.q[:, :k], m.white_xc, rtol=1e-12, atol=1e-12)

    def test_kappa_is_sir_trace(self, rng):
        for _ in range(10):
            d, s, f, j = random_case(rng)
            m = compute_moments(d, s, tuple(sorted(f + (j,))))
            assert m.kappa == trace_kernel(Method.SIR, m)
            _, sigma, u, _ = naive_moments(d.x, s.membership, [a - 1 for a in m.f])
            w = np.einsum("h,ha,hb->ab", s.proportions, u, u)
            exact = float(np.trace(np.linalg.solve(sigma, w)))
            assert m.kappa == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_terms_are_cached(self, small_case):
        _, _, m = small_case
        for name in ("whitening", "white_xc", "white_u", "white_v", "kappa"):
            assert getattr(m, name) is getattr(m, name), name

    def test_empty_set_kappa_is_zero(self, small_case):
        d, s, _ = small_case
        assert compute_moments(d, s, ()).kappa == 0.0

    def test_one_eigendecomposition_per_working_set(self, small_case, cholesky_calls):
        d, s, m = small_case
        for j in (3, 4, 5):
            r = residualize(m, j)
            for method in METHODS:
                trace_diff(method, r)
                trace_kernel(method, m)
                influence_samples(method, r)
        assert len(cholesky_calls) == 1

    def test_empty_set_is_not_factored(self, small_case, cholesky_calls):
        d, s, _ = small_case
        m = compute_moments(d, s, ())
        for j in (3, 4, 5):
            r = residualize(m, j)
            for method in METHODS:
                trace_diff(method, r)
                influence_samples(method, r)
        assert len(cholesky_calls) == 0

    def test_singular_set_decomposed_once(self, cholesky_calls):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(30)
        x = np.column_stack([base, base, rng.standard_normal(30)])
        d = Dataset.from_arrays(x, rng.standard_normal(30))
        m = compute_moments(d, slice_response(d.y, 2), (1, 2))
        for _ in range(3):
            with pytest.raises(SingularDesignError):
                m.whitening
        assert len(cholesky_calls) == 1


def _rotation(rng, k):
    """A random orthogonal k x k matrix."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("size", [1, 3, 5])
def test_results_do_not_depend_on_the_whitening(method, size):
    """Replacing W by W O, O orthogonal, keeps W W' = Sigma_F^{-1}: gains,
    kernel traces, statistics and null weights stay the same."""
    rng = np.random.default_rng(100 + size)
    d, _ = generate(SimDesign(model="I", n=150, p=8, rho=0.5, seed=size))
    s = slice_response(d.y, 4)
    f, j = tuple(range(2, 2 + size)), 8

    def results(rotation):
        m = compute_moments(d, s, f)
        if rotation is not None:
            m.whitening = m.whitening @ rotation
        r = residualize(m, j)
        stat, thr, _ = statistic_and_threshold(method, r, 0.05)
        weights = omega_weights(omega_hat(influence_samples(method, r)))
        return trace_diff(method, r), trace_kernel(method, m), stat, thr, weights

    *plain, w_plain = results(None)
    *rotated, w_rotated = results(_rotation(rng, size))
    assert rotated == pytest.approx(plain, rel=1e-10)
    assert np.allclose(w_rotated, w_plain, rtol=1e-10, atol=1e-10 * w_plain[0])


class TestScanState:
    @pytest.mark.parametrize("method", METHODS)
    def test_gains_match_scalar_trace_diff(self, method, rng):
        for size in range(5):
            for h in (2, 4):
                d, s, _, _ = random_case(rng, p_range=(6, 9), h_choices=(h,))
                f = tuple(sorted(rng.choice(np.arange(1, d.p + 1), size, replace=False).tolist()))
                state = ScanState(d, s, method, tuple(range(1, d.p + 1)), f)
                gains, skipped = state.gains()
                assert skipped == []
                m = compute_moments(d, s, f)
                for j, gain in zip(state.columns.tolist(), gains):
                    if j in f:
                        assert gain == -np.inf
                        continue
                    r = residualize(m, j)
                    assert gain == pytest.approx(trace_diff(method, r), rel=1e-10)

    def test_growing_equals_building(self, rng):
        d, s, _, _ = random_case(rng, p_range=(8, 8))
        for method in METHODS:
            grown = ScanState(d, s, method, tuple(range(1, 9)))
            for j in (5, 2, 7):
                grown.add(j)
            built = ScanState(d, s, method, tuple(range(1, 9)), (2, 5, 7))
            assert np.allclose(grown.gains()[0], built.gains()[0], rtol=1e-10)

    def test_nearly_collinear_candidates_keep_their_gains(self):
        """Columns 11 and 12 repeat x1 + x2 up to noise 1e-5 and 3e-6, so
        given F = {1..8} they keep 5e-11 and 5e-12 of their variance; their
        kept sums of squares are refreshed from their residuals, and their
        gains agree with the scalar route as closely as the others'."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 12))
        for noise, a in ((1e-5, 10), (3e-6, 11)):
            x[:, a] = x[:, 0] + x[:, 1] + noise * rng.standard_normal(200)
        d = Dataset.from_arrays(x, x[:, 0] + rng.standard_normal(200))
        s = slice_response(d.y, 4)
        f = tuple(range(1, 9))
        m = compute_moments(d, s, f)
        for method in METHODS:
            gains, skipped = ScanState(d, s, method, tuple(range(1, 13)), f).gains()
            assert skipped == []
            for j in (9, 10, 11, 12):
                assert gains[j - 1] == pytest.approx(trace_diff(method, residualize(m, j)), rel=1e-8)

    def test_skip_categories(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        x = np.column_stack([x, x[:, 0] - 2.0 * x[:, 1], 1e8 * rng.standard_normal(40)])
        d = Dataset.from_arrays(x, rng.standard_normal(40))
        s = slice_response(d.y, 2)
        for method in (Method.SIR, Method.DR):
            state = ScanState(d, s, method, (1, 2, 3, 4, 5), (1, 2))
            gains, skipped = state.gains()
            assert skipped == [(4, "collinear-candidate")]
            assert np.isfinite(gains[[2, 4]]).all()
            state.add(5)  # variance 1e16 next to 1: the floors read standardized columns
            gains, skipped = state.gains()
            assert skipped == [(4, "collinear-candidate")]
            assert np.isfinite(gains[2])
            state.add(4)  # x1 - 2 x2 next to x1 and x2: singular by the eigenvalue floor
            gains, skipped = state.gains()
            assert skipped == [(3, "singular-design")]
            assert np.all(gains == -np.inf)


def _certificate_designs():
    """(name, x, order of additions) reaching every outcome of the scan's verdict."""
    ar1 = generate(SimDesign(model="I", n=200, p=40, rho=0.99, seed=5))[0].x
    yield "ar1-0.99", ar1, range(1, 41)
    ar1 = generate(SimDesign(model="I", n=40, p=60, rho=0.999, seed=5))[0].x
    yield "ar1-0.999", ar1, range(1, 40)  # up to |F| = n - 1
    rng = np.random.default_rng(5)
    x = rng.standard_normal((100, 12))
    e = rng.standard_normal((100, 3))
    # column 13 repeats column 3 up to 3e-6 noise: lambda_min / lambda_max of
    # 2.5e-12 passes the rule, but too close to the floor for the norm bound,
    # so the eigenvalues decide (1e-6 noise would fail the rule).  Each later
    # column makes F singular: 14 is that noise up to 1e-7 noise, in the span
    # of F only through column 13; 15 repeats column 8 and 16 sums columns
    # 4-12, each up to 1e-7 noise.
    near = np.column_stack(
        [
            x,
            x[:, 2] + 3e-6 * e[:, 0],
            e[:, 0] + 1e-7 * e[:, 1],
            x[:, 7] + 1e-7 * e[:, 2],
            x[:, 3:].sum(axis=1) + 1e-7 * e[:, 1],
        ]
    )
    for last in (14, 15, 16):
        yield f"near-duplicate-{last}", near, (1, 2, 3, 13, *range(4, 13), last)
    for scale in (1e8, 1e-8):
        scaled = x.copy()
        scaled[:, 4] *= scale
        yield f"scaled-{scale:g}", scaled, range(1, 13)


class TestScanCertificateAndRepack:
    def test_singular_verdict_matches_eigenvalues_at_every_add(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = []  # eigvalsh calls made by the scan during one add
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        seen = set()
        for name, x, order in _certificate_designs():
            d = Dataset.from_arrays(x, np.random.default_rng(0).standard_normal(x.shape[0]))
            s = slice_response(d.y, 4)
            state = ScanState(d, s, Method.SIR, tuple(range(1, d.p + 1)))
            taken = []
            for j in order:
                calls.clear()
                state.add(j)
                outcome = "eigenvalues" if calls else "certified"
                taken.append("reject" if state.singular else outcome)
                xc = compute_moments(d, s, state.f).xc
                sigma = xc.T @ xc / d.n
                assert state.singular == is_singular_spectrum(eigvalsh(sigma)), (name, state.f)
                if state.singular:
                    break
            if name.startswith("ar1"):  # well-conditioned: the norm bound decides
                assert set(taken) == {"certified"}, name
            seen.update(taken)
        assert seen == {"certified", "eigenvalues", "reject"}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_verdict_and_gains_on_ill_conditioned_designs(self, data):
        """Near-duplicate columns at scales 1e-7..1e7, added in random order:
        the verdict is the eigenvalue rule at every add, and every gain is
        finite or a categorized skip."""
        n = data.draw(st.integers(12, 80), label="n")
        p = data.draw(st.integers(2, 10), label="p")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((n, p))
        for _ in range(data.draw(st.integers(1, 3), label="near-duplicates")):
            a, b = data.draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)))
            noise = 10.0 ** data.draw(st.floats(-9, -2), label="log10 noise")
            x[:, b] = x[:, a] + noise * rng.standard_normal(n)
        scales = st.lists(st.floats(-7, 7), min_size=p, max_size=p)
        x *= 10.0 ** np.array(data.draw(scales, label="log10 scales"))
        order = data.draw(st.permutations(range(1, p + 1)), label="order")
        d = Dataset.from_arrays(x, rng.standard_normal(n))
        s = slice_response(d.y, data.draw(st.sampled_from([2, 4]), label="H"))
        states = [ScanState(d, s, method, tuple(range(1, p + 1))) for method in METHODS]
        state = states[0]
        categories = {CollinearCandidateError.category, SingularDesignError.category}
        for j in order[: n - 1]:
            for each in states:
                each.add(j)
            k = len(state.f)
            rq = state.rq[:k, :k]
            assert state.singular == is_singular_spectrum(np.linalg.eigvalsh(rq.T @ rq / n))
            xc = compute_moments(d, s, state.f).xc
            evals = np.linalg.eigvalsh(xc.T @ xc / n)
            if not 1e-13 <= evals[0] / evals[-1] <= 1e-11:  # both solvers clear of the floor
                assert state.singular == is_singular_spectrum(evals), state.f
                m = compute_moments(d, s, state.f)
                if state.singular:
                    with pytest.raises(SingularDesignError):
                        m.whitening
                else:
                    m.whitening  # raises nothing
            for each in states:
                gains, skipped = each.gains()
                assert np.all(np.isfinite(gains) | (gains == -np.inf))
                outside = set(state.columns[gains == -np.inf].tolist()) - set(state.f)
                assert {j for j, _ in skipped} == outside
                assert {c for _, c in skipped} <= categories
            if state.singular:
                break

    def test_repacked_block_keeps_gains(self):
        rng = np.random.default_rng(9)
        d = make_dataset(rng, 200, 60)
        s = slice_response(d.y, 4)
        columns = tuple(j for j in range(1, 61) if j % 7)
        f = [int(j) for j in rng.choice(columns, 14, replace=False)]
        # the standardized columns, rows in sample order
        standardized = standardize_columns(d.x)[:, np.subtract(columns, 1)]
        m = compute_moments(d, s, f)
        for method in METHODS:
            grown = ScanState(d, s, method, columns)
            for j in f:
                grown.add(j)
                block = grown.block
                assert block.flags.c_contiguous and not block.flags.writeable
                assert np.allclose(block, standardized[:, grown.live], rtol=1e-12, atol=1e-12)
            assert grown.live.size < len(columns) - 1  # members were dropped
            built = ScanState(d, s, method, columns, sorted(f))
            rq = grown.rq[: len(f), : len(f)]  # Sigma_F = R_Q' R_Q / n, in the order added
            order = np.argsort(f)
            sigma = (rq.T @ rq / d.n)[np.ix_(order, order)]
            assert np.allclose(sigma, m.xc.T @ m.xc / d.n, rtol=1e-10, atol=1e-12)
            gains, skipped = grown.gains()
            built_gains, built_skipped = built.gains()
            assert skipped == built_skipped == []
            assert np.allclose(gains, built_gains, rtol=1e-10)
            for j, gain in zip(columns, gains):
                if j in f:
                    assert gain == -np.inf
                    continue
                r = residualize(m, j)
                assert gain == pytest.approx(trace_diff(method, r), rel=1e-10)


class TestScanKeptStatistics:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_kept_statistics_match_explicit_residuals(self, data):
        """After every addition the statistics a scan keeps equal those of the
        explicit residuals X - Q Q'X of its block, and its collinearity
        verdicts those of ``residualize`` away from the floor."""
        n = data.draw(st.integers(60, 200), label="n")
        p = data.draw(st.integers(5, 48), label="p")
        rho = data.draw(st.sampled_from([0.0, 0.9, 0.99]), label="rho")
        h = data.draw(st.sampled_from([2, 4, 8]), label="H")
        method = data.draw(st.sampled_from(METHODS), label="method")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        e = rng.standard_normal((n, p))
        x = e.copy()
        for a in range(1, p):  # AR(1) columns
            x[:, a] = rho * x[:, a - 1] + math.sqrt(1.0 - rho**2) * e[:, a]
        for _ in range(data.draw(st.integers(0, 3), label="near-duplicates")):
            a, b = data.draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)))
            noise = 10.0 ** data.draw(st.floats(-9, -2), label="log10 noise")
            x[:, b] = x[:, a] + noise * rng.standard_normal(n)
        if data.draw(st.booleans(), label="discrete y"):
            y = rng.integers(0, h, n).astype(float)
            s = slice_response(y, h, discrete=True)
        else:
            y = rng.standard_normal(n)
            s = slice_response(y, h)
        d = Dataset.from_arrays(x, y)
        order = data.draw(st.permutations(range(1, p + 1)), label="order")
        state = ScanState(d, s, method, tuple(range(1, p + 1)))
        slices = s.rows
        floor = COLLINEARITY_FLOOR

        def explicit():
            k = len(state.f)
            q, block = state.q[:, :k], state.block
            r = block - q @ (q.T @ block)
            return q, r, (r * r).sum(0) / n - (r.sum(0) / n) ** 2

        def close(kept, recomputed):
            assert np.allclose(kept, recomputed, rtol=1e-10, atol=1e-10 * n)

        for j in order:
            if len(state.f) == 40:
                break
            if explicit()[2][np.searchsorted(state.live, j - 1)] < 1e-6:
                continue  # keep F well conditioned: add only clear candidates
            state.add(j)
            assert not state.singular
            q, r, sigma2 = explicit()
            close(state.sums, np.array([r[rows].sum(0) for rows in slices]))
            close(state.rss, (r * r).sum(0))
            if method is not Method.SIR:
                close(state.sq, np.array([(r[rows] ** 2).sum(0) for rows in slices]))
                cross = [q[rows].T @ r[rows] for rows in slices]  # Q_h' R_h
                close(state.nu2, np.array([(c * c).sum(0) for c in cross]))
                # |Q_h' R_h| <= |R_h|, so nu2 <= sq: the rss refresh rule bounds both
                assert np.all(state.nu2 <= state.sq * (1.0 + 1e-10) + 1e-10 * n)
            if method is Method.SAVE:
                mc = [q[rows].sum(0) @ c for rows, c in zip(slices, cross)]
                close(state.mc, np.array(mc))
            _, skipped = state.gains()
            skipped = {i for i, _ in skipped}
            m = compute_moments(d, s, state.f)
            for i, var in zip(state.columns[state.live].tolist(), sigma2):
                if i in state.f or 0.5 * floor <= var <= 2.0 * floor:
                    continue
                try:
                    residualize(m, i)
                    collinear = False
                except CollinearCandidateError:
                    collinear = True
                assert (i in skipped) == collinear, (i, var)


def _synthetic_residual(gamma_by_slice, zeta_by_slice, proportions, white_u=None, kappa=0.0):
    """A residual on a stub working set of two members, one sample per slice
    and whitened columns Z = 0, so its cross-moments nu are zero."""
    h = len(proportions)
    s = SimpleNamespace(proportions=np.asarray(proportions, dtype=float), averaging=np.eye(h))
    m = SimpleNamespace(s=s, white_u=white_u, white_xc=np.zeros((h, 2)), kappa=kappa)
    return ResidualStats(
        m=m,
        j=3,
        gamma_by_slice=np.asarray(gamma_by_slice, dtype=float),
        zeta_by_slice=np.asarray(zeta_by_slice, dtype=float),
        gamma_per_sample=np.zeros(h),
    )


class TestTraceDiff:
    def test_null_summaries_give_zero(self):
        # gamma = 0, zeta = 1, nu = 0 in every slice, so iota = phi = 0
        r = _synthetic_residual(
            np.zeros(4), np.ones(4), [0.25] * 4, white_u=np.arange(8.0).reshape(4, 2), kappa=3.0
        )
        assert np.array_equal(r.nu, np.zeros((4, 2)))
        for method in METHODS:
            assert trace_diff(method, r) == pytest.approx(0.0, abs=1e-15)

    def test_sir_direct_formula(self):
        r = _synthetic_residual([0.3, -0.3], [1.0, 1.0], [0.5, 0.5])
        assert trace_diff(Method.SIR, r) == pytest.approx(0.09)

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_direct_kernel_difference(self, method, rng):
        worst = 0.0
        for _ in range(25):
            d, s, f, j = random_case(rng)
            m = compute_moments(d, s, f)
            r = residualize(m, j)
            m_full = compute_moments(d, s, tuple(sorted(f + (j,))))
            diff = trace_diff(method, r)
            direct = trace_kernel(method, m_full) - trace_kernel(method, m)
            denom = max(1.0, trace_kernel(method, m_full))
            worst = max(worst, abs(diff - direct) / denom)
        assert worst <= 1e-8

    def test_sir_gain_nonnegative(self, rng):
        for _ in range(20):
            d, s, f, j = random_case(rng)
            m = compute_moments(d, s, f)
            r = residualize(m, j)
            assert trace_diff(Method.SIR, r) >= 0.0

    def test_empty_set_diff_equals_singleton_kernel(self, rng):
        d = make_dataset(rng, 70, 4)
        s = slice_response(d.y, 4)
        m0 = compute_moments(d, s, ())
        r = residualize(m0, 2)
        m1 = compute_moments(d, s, (2,))
        for method in METHODS:
            assert trace_diff(method, r) == pytest.approx(
                trace_kernel(method, m1), rel=1e-10, abs=1e-12
            )


class TestDeletionGains:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_per_member_gains_and_kernel_oracle(self, data):
        """Every leave-one-out gain from the one whitening of F is the scalar
        route's gain of j over F - j and the difference of the materialized
        kernel traces of F and F - j.  On an F that passes the floor every
        F - j whitens and no member is a collinear skip."""
        k = data.draw(st.integers(2, 30), label="|F|")
        h = data.draw(st.sampled_from([2, 4, 8]), label="H")
        discrete = data.draw(st.booleans(), label="discrete response")
        rho = data.draw(st.sampled_from([0.0, 0.5, 0.95]), label="AR(1) rho")
        n = data.draw(st.integers(k + h + 4, k + h + 40), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((n, k + 2))
        for a in range(1, k + 2):
            x[:, a] = rho * x[:, a - 1] + np.sqrt(1.0 - rho**2) * x[:, a]
        y = x[:, 0] + np.exp(0.5 * x[:, -1]) + 0.3 * rng.standard_normal(n)
        if discrete:  # h distinct values, most of them tied
            y = np.searchsorted(np.quantile(y, np.arange(1, h) / h), y).astype(float)
        d = Dataset.from_arrays(x, y)
        s = slice_response(d.y, h, discrete=discrete)
        f = tuple(sorted(rng.choice(np.arange(1, k + 3), size=k, replace=False).tolist()))
        m = compute_moments(d, s, f)
        try:
            m.whitening
        except SingularDesignError:
            for method in METHODS:
                with pytest.raises(SingularDesignError):
                    deletion_gains(method, m)
            return
        pos = data.draw(st.integers(0, k - 1), label="oracle member")
        method = data.draw(st.sampled_from(METHODS), label="oracle method")
        for meth in METHODS:
            gains = deletion_gains(meth, m)
            ref = []
            for j in f:
                rest = compute_moments(d, s, tuple(i for i in f if i != j))
                r = residualize(rest, j)  # no CollinearCandidateError
                ref.append(trace_diff(meth, r))
            # near-zero gains carry the rounding of the largest in both routes
            assert np.allclose(gains, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref))), meth
        f0 = [i - 1 for i in f]
        full = explicit_trace_kernel(method.value, d.x, s.membership, f0)
        loo = explicit_trace_kernel(method.value, d.x, s.membership, f0[:pos] + f0[pos + 1 :])
        got = deletion_gains(method, m)[pos]
        assert got == pytest.approx(full - loo, rel=1e-8, abs=1e-8 * max(1.0, abs(full)))

    def test_singular_set_raises(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(30)
        x = np.column_stack([base, base, rng.standard_normal(30)])
        d = Dataset.from_arrays(x, rng.standard_normal(30))
        m = compute_moments(d, slice_response(d.y, 2), (1, 2, 3))
        for method in METHODS:
            with pytest.raises(SingularDesignError):
                deletion_gains(method, m)
