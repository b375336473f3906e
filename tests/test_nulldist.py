from __future__ import annotations

import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainccinv  # the quantile's oracle; scipy is a test dependency

import tracepursuit.kernels as kernels
import tracepursuit.nulldist as nulldist
from tracepursuit import (
    Dataset,
    SimDesign,
    compute_moments,
    generate,
    htp_run,
    slice_response,
    stp_run,
    trace_test,
    weighted_chisq_upper_quantile,
)
from tracepursuit.errors import DegenerateDistributionError, NumericalFailureError
from tracepursuit.kernels import Method, auxiliary_stats, residualize
from tracepursuit.nulldist import (
    MC_CHUNK_ROWS,
    influence_dim,
    influence_samples,
    omega_hat,
    omega_weights,
    scaled_chisq_upper_quantile,
    statistic_and_threshold,
    trace_test_with_weights,
    weight_moments,
    weighted_chisq_quantile_mc,
)

from conftest import make_dataset, random_case
from oracles import (
    mc_weighted_chisq_quantile,
    reference_influence_samples,
    sir_omega_from_components,
)

METHODS = list(Method)


def _residual(d, s, f, j):
    return residualize(compute_moments(d, s, f), j)


class TestInfluenceSamples:
    @pytest.mark.parametrize("method", METHODS)
    def test_columns_have_zero_mean(self, method, rng):
        for _ in range(5):
            d, s, f, j = random_case(rng, n_range=(50, 120))
            r = _residual(d, s, f, j)
            ell = influence_samples(method, r)
            mu = np.abs(ell.mean(axis=0))
            sd = ell.std(axis=0)
            live = sd > 0
            assert np.all(mu[live] <= 1e-8 * sd[live])
            assert np.all(mu[~live] == 0.0)

    def test_dimensions(self):
        assert influence_dim(Method.SIR, 2, 4) == 4
        assert influence_dim(Method.SAVE, 2, 4) == 12
        assert influence_dim(Method.SAVE, 0, 4) == 4
        # stacked blocks: H + |F|H + 1 + |F| + H columns
        assert influence_dim(Method.DR, 2, 4) == 19
        assert influence_dim(Method.DR, 0, 4) == 9

    @pytest.mark.parametrize("method", METHODS)
    def test_realized_shapes(self, method, rng):
        d, s, f, j = random_case(rng)
        r = _residual(d, s, f, j)
        ell = influence_samples(method, r)
        assert ell.shape == (d.n, influence_dim(method, len(f), s.h_count))

    @pytest.mark.parametrize("h_count", [2, 3, 7])
    @pytest.mark.parametrize("size", [0, 1, 5, 30])
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_the_slice_by_slice_oracle(self, method, size, h_count):
        # unequal slices from a discrete response, rows in sample order
        rng = np.random.default_rng(100 * size + h_count)
        n, p = 320, size + 2
        x = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2.0, 2.0, size=p)
        freq = np.arange(1, h_count + 1) / np.arange(1, h_count + 1).sum()
        y = rng.choice(h_count, size=n, p=freq).astype(float)
        d = Dataset.from_arrays(x, y)
        s = slice_response(d.y, h_count, discrete=True)
        assert s.h_count == h_count and np.unique(s.counts).size > 1
        assert np.any(np.diff(s.membership) < 0)
        r = _residual(d, s, tuple(range(1, size + 1)), p)
        ell = influence_samples(method, r)  # SAVE and DR form r.nu here
        want = reference_influence_samples(method, d, s, r.m, r, r.nu)
        assert ell.shape == want.shape
        assert np.max(np.abs(ell - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sir_empty_set_closed_form(self, rng):
        d = make_dataset(rng, 60, 3)
        s = slice_response(d.y, 4)
        r = _residual(d, s, (), 2)
        ell = influence_samples(Method.SIR, r)
        xj = d.x[:, 1] - d.x[:, 1].mean()
        sd = np.sqrt(np.mean(xj**2) - xj.mean() ** 2)
        p_hat = np.asarray(s.proportions)
        for h, rows in enumerate(s.rows):
            uj = xj[rows].mean()
            indic = np.zeros(d.n)
            indic[rows] = 1.0
            want = np.sqrt(p_hat[h]) * ((xj - uj) * indic / p_hat[h] - xj) / sd
            assert np.max(np.abs(ell[:, h] - want)) < 1e-12

    def test_sir_omega_matches_component_oracle(self, rng):
        for _ in range(3):
            d, s, f, j = random_case(rng, n_range=(40, 90), p_range=(3, 6))
            r = _residual(d, s, f, j)
            omega = omega_hat(influence_samples(Method.SIR, r))
            want = sir_omega_from_components(
                d.x, s.membership, [i - 1 for i in f], j - 1
            )
            assert np.max(np.abs(omega - want)) < 1e-10

    def test_statistic_is_squared_norm_of_point_stacking(self, rng):
        # n * trace gain equals n * ||stacked point estimates||^2; the MC mean
        # of the weighted chi-square then matches the weight sum (trace of
        # omega), which pins the stacking order and scale.
        d, s, f, j = random_case(rng, n_range=(80, 120))
        r = _residual(d, s, f, j)
        for method in METHODS:
            w = omega_weights(omega_hat(influence_samples(method, r)))
            rng2 = np.random.default_rng(99)
            draws = rng2.chisquare(1.0, size=(20000, w.size)) @ w
            se = draws.std() / np.sqrt(draws.size)
            assert abs(draws.mean() - w.sum()) <= 3 * se


class TestOmegaHat:
    def test_rank_one(self):
        c = np.linspace(1.0, 2.0, 30)
        ell = np.column_stack([c, np.zeros(30), np.zeros(30)])
        weights = omega_weights(omega_hat(ell))
        assert weights[0] == pytest.approx(float(c @ c) / 30)
        assert np.all(weights[1:] == 0.0)

    def test_psd_and_sorted(self, rng):
        d, s, f, j = random_case(rng)
        r = _residual(d, s, f, j)
        for method in METHODS:
            omega = omega_hat(influence_samples(method, r))
            weights = omega_weights(omega)
            assert np.all(weights >= 0.0)
            assert np.all(np.diff(weights) <= 0.0)
            assert np.max(np.abs(omega - omega.T)) < 1e-10

    @pytest.mark.parametrize("method", METHODS)
    def test_exactly_symmetric_and_the_symmetrized_product(self, method):
        """L'L/n needs no symmetrizing: it equals 0.5 (Omega + Omega') bit
        for bit, at |F| = 0 and 30."""
        d, _ = generate(SimDesign(model="I", n=300, p=40, seed=0))
        s = slice_response(d.y, 4)
        for f in ((), tuple(range(1, 31))):
            r = _residual(d, s, f, 35)
            ell = influence_samples(method, r)
            omega = omega_hat(ell)
            old = (ell.T @ ell) / d.n
            assert np.array_equal(omega, omega.T)
            assert np.array_equal(omega, 0.5 * (old + old.T))

    def test_nonfinite_rejected(self):
        ell = np.ones((10, 2))
        ell[3, 1] = np.nan
        with pytest.raises(NumericalFailureError):
            omega_hat(ell)

    def test_positive_weight_count_is_the_rank(self, rng):
        # eigvalsh puts the zero eigenvalues of a rank-3 Omega at +-1e-16;
        # all of them must come out as 0, whatever their sign.
        ell = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 12))
        weights = omega_weights(omega_hat(ell))
        assert np.sum(weights > 0.0) == 3
        assert np.all(weights[3:] == 0.0)

    def test_eigenvalue_below_the_clamp_window_rejected(self):
        with pytest.raises(NumericalFailureError, match="clamp window"):
            omega_weights(np.diag([1.0, -1e-6]))

    def test_warns_when_underdetermined(self):
        ell = np.random.default_rng(0).standard_normal((5, 8))
        ell -= ell.mean(axis=0)
        with pytest.warns(RuntimeWarning):
            omega_hat(ell)


class TestWeightMoments:
    @pytest.mark.parametrize("method", METHODS)
    def test_threshold_matches_the_eigenvalue_route(self, method, rng):
        for _ in range(30):
            d, s, f, j = random_case(rng)
            r = _residual(d, s, f, j)
            weights = omega_weights(omega_hat(influence_samples(method, r)))
            _, thr, (sum_w, _) = statistic_and_threshold(method, r, 0.05)
            assert thr == pytest.approx(weighted_chisq_upper_quantile(weights, 0.05), rel=1e-12)
            assert sum_w == pytest.approx(weights.sum(), rel=1e-12)

    def test_rank_one_omega_is_a_scaled_chisq1(self):
        c = np.linspace(1.0, 2.0, 30)
        ell = np.column_stack([c, np.zeros(30), np.zeros(30)])
        q = scaled_chisq_upper_quantile(*weight_moments(omega_hat(ell)), 0.05)
        assert q == pytest.approx(float(c @ c) / 30 * 3.841459, rel=1e-6)

    def test_dof_below_one_is_a_numerical_failure(self):
        # eigenvalues 3 and -1: tr = 2, ||.||_F^2 = 10 > 2^2
        moments = weight_moments(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert moments == (2.0, 10.0)
        with pytest.raises(NumericalFailureError, match="not PSD"):
            scaled_chisq_upper_quantile(*moments, 0.05)

    def test_zero_trace_is_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            scaled_chisq_upper_quantile(*weight_moments(np.zeros((3, 3))), 0.05)

    @pytest.mark.parametrize(
        "moments, alpha",
        [((1.0, 1.0), 0.0), ((1.0, 1.0), 1.0), ((np.nan, 1.0), 0.05),
         ((1.0, np.inf), 0.05), ((-1.0, 1.0), 0.05),
         ((1.8e154, 1.62e308), 0.05)],  # two weights of 9e153: sum_w**2 overflows
    )
    def test_bad_alpha_or_moments_rejected(self, moments, alpha):
        with pytest.raises(ValueError):
            scaled_chisq_upper_quantile(*moments, alpha)


class TestWeightedChisqQuantile:
    def test_single_weight_is_chisq1(self):
        assert weighted_chisq_upper_quantile(np.array([1.0]), 0.05) == pytest.approx(
            3.8415, abs=5e-5
        )

    def test_equal_weights_are_scaled_chisq(self):
        q = weighted_chisq_upper_quantile(np.array([2.0, 2.0, 2.0]), 0.1)
        assert q == pytest.approx(2.0 * 6.251388, abs=1e-4)  # 2 * chi2(3) upper .1

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.05, 5.0), min_size=1, max_size=12),
        st.floats(0.005, 0.2),
        st.floats(0.1, 20.0),
    )
    def test_scale_equivariance_exact(self, w, alpha, c):
        w = np.array(w)
        a = weighted_chisq_upper_quantile(c * w, alpha)
        b = c * weighted_chisq_upper_quantile(w, alpha)
        assert a == pytest.approx(b, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.05, 5.0), min_size=2, max_size=12), st.data())
    def test_monotone_in_alpha_and_weights(self, w, data):
        w = np.array(w)
        a1 = data.draw(st.floats(0.01, 0.2))
        a2 = data.draw(st.floats(0.21, 0.5))
        assert weighted_chisq_upper_quantile(w, a1) > weighted_chisq_upper_quantile(w, a2)
        idx = data.draw(st.integers(0, len(w) - 1))
        bumped = w.copy()
        bumped[idx] += data.draw(st.floats(0.01, 3.0))
        assert weighted_chisq_upper_quantile(bumped, 0.05) >= weighted_chisq_upper_quantile(w, 0.05)

    def test_two_weight_example_against_mc(self):
        q = weighted_chisq_upper_quantile(np.array([0.7, 0.3]), 0.05)
        q_mc = mc_weighted_chisq_quantile([0.7, 0.3], 0.05, 1_000_000, seed=4)
        assert abs(q - q_mc) < 0.15

    def test_all_zero_weights(self):
        with pytest.raises(DegenerateDistributionError):
            weighted_chisq_upper_quantile(np.zeros(3), 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize(
        "quantile", [weighted_chisq_upper_quantile, weighted_chisq_quantile_mc]
    )
    def test_nonfinite_or_negative_weight_rejected(self, quantile, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            quantile(np.array([1.0, bad]), 0.05)

    @pytest.mark.parametrize("n_draws", [0, -5])
    def test_mc_draw_count_must_be_positive(self, n_draws):
        with pytest.raises(ValueError, match="n_draws must be >= 1"):
            weighted_chisq_quantile_mc(np.array([1.0, 0.5]), 0.05, n_draws=n_draws)

    @pytest.mark.parametrize("n_draws", [1000.0, 2.5, "1000"])
    def test_mc_draw_count_must_be_an_integer(self, n_draws):
        with pytest.raises(ValueError, match="n_draws must be an integer"):
            weighted_chisq_quantile_mc(np.array([1.0, 0.5]), 0.05, n_draws=n_draws)

    def test_mc_fallback_reproducible_and_close(self):
        w = np.array([1.0, 0.5, 0.25])
        a = weighted_chisq_quantile_mc(w, 0.05, n_draws=200_000, seed=11)
        b = weighted_chisq_quantile_mc(w, 0.05, n_draws=200_000, seed=11)
        assert a == b
        assert a == pytest.approx(weighted_chisq_upper_quantile(w, 0.05), rel=0.05)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.floats(1e-12, 1.0 - 1e-12), st.integers(0, 2**32 - 1))
    @example(3, 0.5, 0)  # an order statistic exactly
    @example(5, 0.125, 0)  # halfway between two
    def test_mc_quantile_is_np_quantile_bit_for_bit(self, n_draws, alpha, seed):
        w = np.array([1.0, 0.5, 0.25])
        draws = np.random.default_rng(seed).chisquare(1.0, size=(n_draws, w.size)) @ w
        got = weighted_chisq_quantile_mc(w, alpha, n_draws=n_draws, seed=seed)
        assert got == float(np.quantile(draws, 1.0 - alpha))

    def test_mc_draws_in_chunks_match_one_block(self):
        w = np.linspace(0.1, 1.0, 60)
        n_draws = 2 * MC_CHUNK_ROWS + 5_000
        q = weighted_chisq_quantile_mc(w, 0.05, n_draws=n_draws, seed=5)
        block = np.random.default_rng(5).chisquare(1.0, size=(n_draws, w.size)) @ w
        assert q == pytest.approx(float(np.quantile(block, 0.95)), rel=1e-12)

    def test_mc_memory_is_bounded_by_the_chunk(self):
        w = np.linspace(0.1, 1.0, 60)
        n_draws = 100_000
        tracemalloc.start()
        try:
            q = weighted_chisq_quantile_mc(w, 0.05, n_draws=n_draws, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk of draws plus a few n_draws vectors; one block would be 48 MB
        assert peak < 8 * (MC_CHUNK_ROWS * w.size + 4 * n_draws) < 8 * n_draws * w.size
        assert q == pytest.approx(mc_weighted_chisq_quantile(w, 0.05, n_draws, seed=6), rel=0.03)


def _chisq_upper(dof, alpha):
    return 2.0 * nulldist._upper_gamma_inv(dof / 2.0, alpha)


class TestChisqQuantileOracle:
    """The in-package chi-square upper quantile against scipy and closed forms."""

    @pytest.mark.parametrize(
        "dof", [1 / (1 + 1e-10), 1, 1.01, 1.85, 2, 3.7, 10.5, 50.7, 159, 2000, 1e4]
    )
    def test_grid_against_scipy(self, dof):
        for alpha in (1e-12, 5e-5, 1e-4, 0.0017, 0.01, 0.05, 0.5, 0.9, 1 - 1e-9):
            expected = 2.0 * float(gammainccinv(dof / 2.0, alpha))
            assert _chisq_upper(dof, alpha) == pytest.approx(expected, rel=1e-13, abs=0.0), alpha

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 2000.0), st.floats(1e-10, 0.999))
    def test_against_scipy(self, dof, alpha):
        expected = 2.0 * float(gammainccinv(dof / 2.0, alpha))
        assert _chisq_upper(dof, alpha) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_two_dof_is_minus_twice_log_alpha(self):
        for alpha in np.geomspace(1e-300, 1.0 - 1e-12, 200):
            expected = -2.0 * math.log(alpha)
            assert _chisq_upper(2.0, alpha) == pytest.approx(expected, rel=1e-13, abs=0.0), alpha

    def test_two_tail_evaluations_on_the_workload_mix(self, monkeypatch):
        """At the effective dof of the benchmark's tests and the levels of
        its runs, the Halley step from the Wilson-Hilferty start is the
        last: no evaluation of the tails only confirms a converged root."""
        calls, tails = [], nulldist._log_gamma_tails
        monkeypatch.setattr(nulldist, "_log_gamma_tails", lambda *a: calls.append(a) or tails(*a))
        counts = {}
        for dof in (1.85, 3.7, 10.5, 50.7):
            for alpha in (0.05, 0.01, 5e-5):
                calls.clear()
                _chisq_upper(dof, alpha)
                counts[dof, alpha] = len(calls)
        assert max(counts.values()) == 2, counts

    def test_one_dof_inverts_erfc(self):
        # P(chi2_1 > x) = erfc(sqrt(x / 2)); from x = 0.5 on, alpha <= 0.48 and
        # the root is well conditioned in it
        for x in np.geomspace(0.5, 60.0, 200):
            alpha = math.erfc(math.sqrt(x / 2.0))
            assert _chisq_upper(1.0, alpha) == pytest.approx(x, rel=1e-13, abs=0.0), x


class TestResidualCarriesItsWorkingSet:
    """A residual holds its moments, and through them the dataset and the
    slicing, so a test's statistic and null law come from the residual alone."""

    @pytest.fixture(scope="class")
    def data(self):
        d, _ = generate(SimDesign(model="I", n=300, p=40, seed=0))
        return d, slice_response(d.y, 4)

    @pytest.mark.parametrize("size", [0, 1, 5, 30])
    @pytest.mark.parametrize("method", METHODS)
    def test_parts_equal_trace_test_bit_for_bit(self, data, method, size):
        d, s = data
        f = tuple(range(1, size + 1))
        r = residualize(compute_moments(d, s, f), 35)
        assert r.m.d is d and r.m.s is s and r.m.f == f and r.j == 35
        statistic, threshold, (sum_w, sum_w2) = statistic_and_threshold(method, r, 0.05)
        res = trace_test(method, d, s, f, 35, 0.05)
        assert (res.statistic, res.threshold) == (statistic, threshold)
        assert (res.weight_sum, res.effective_dof) == (sum_w, sum_w**2 / sum_w2)

    @pytest.mark.parametrize("method", METHODS)
    def test_nu_is_formed_once_and_only_for_save_and_dr(self, data, method, monkeypatch):
        calls = []

        def spy(r):
            calls.append(r.j)
            return auxiliary_stats(r)

        monkeypatch.setattr(kernels, "auxiliary_stats", spy)
        d, s = data
        for f in ((), (1, 2, 3)):
            calls.clear()
            trace_test(method, d, s, f, 35, 0.05)
            assert len(calls) == (0 if method is Method.SIR else 1)
            calls.clear()
            trace_test_with_weights(method, d, s, f, 35, 0.05)
            assert len(calls) == (0 if method is Method.SIR else 1)


class TestTraceTest:
    def test_decision_contract(self, rng):
        d, s, f, j = random_case(rng, n_range=(60, 100))
        for method in METHODS:
            res = trace_test(method, d, s, f, j, alpha=0.05)
            assert res.reject == (res.statistic > res.threshold)

    def test_power_on_model_one_active_predictor(self):
        # testing x1 (active) against the other active partners in the set
        from tracepursuit import SimDesign, generate

        hits = 0
        reps = 100
        for rep in range(reps):
            d, _ = generate(SimDesign(model="I", n=300, p=6, seed=404), replication=rep)
            s = slice_response(d.y, 4)
            res = trace_test(Method.SIR, d, s, (2, 5), 1, alpha=0.05)
            hits += res.reject
        assert hits >= 0.99 * reps

    def test_mc_quantile_switch(self, rng):
        d, s, f, j = random_case(rng, n_range=(60, 100))
        res, _ = trace_test_with_weights(Method.SIR, d, s, f, j, 0.05, "monte-carlo", seed=3)
        base = trace_test(Method.SIR, d, s, f, j, 0.05)
        assert res.statistic == base.statistic
        assert res.threshold == pytest.approx(base.threshold, rel=0.15)

    @pytest.mark.parametrize("method", METHODS)
    def test_result_size_does_not_grow_with_the_working_set(self, method):
        d, _ = generate(SimDesign(model="I", n=300, p=40, seed=0))
        s = slice_response(d.y, 4)
        small = trace_test(method, d, s, (), 35, 0.05)
        large = trace_test(method, d, s, tuple(range(3, 33)), 35, 0.05)
        # with the working-set tuple set equal, the pickles are the same size
        same_f = dataclasses.replace(large, f=small.f)
        assert len(pickle.dumps(same_f)) == len(pickle.dumps(small))
        assert large.effective_dof >= 1.0 and small.effective_dof >= 1.0

    @pytest.mark.parametrize("method", METHODS)
    def test_same_bits_before_and_after_a_selection_run(self, method, rng):
        d = make_dataset(rng, 150, 40)
        twin = Dataset.from_arrays(np.array(d.x), np.array(d.y))
        f, j = (1, 2, 20, 35), 7
        first = trace_test(method, d, slice_response(d.y, 4), f, j, 0.05)
        s = slice_response(twin.y, 4)
        htp_run(twin, s, method)
        after = trace_test(method, twin, s, f, j, 0.05)
        assert first.statistic == after.statistic
        assert first.threshold == after.threshold
        assert first.weight_sum == after.weight_sum
        assert first.effective_dof == after.effective_dof


class TestNoDecompositionOnTheDecisionPath:
    @pytest.fixture
    def decomposed(self, monkeypatch):
        """(weight matrices built, those later passed to a numpy
        eigenvalue or singular value routine)."""
        built, hits = [], []
        real_omega_hat = nulldist.omega_hat

        def spy_omega_hat(ell):
            built.append(real_omega_hat(ell))
            return built[-1]

        monkeypatch.setattr(nulldist, "omega_hat", spy_omega_hat)
        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):

            def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
                hits.extend(omega for omega in built if a is omega)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return built, hits

    @pytest.mark.parametrize("method", METHODS)
    def test_trace_test_and_stp_run(self, method, decomposed):
        built, hits = decomposed
        d = make_dataset(np.random.default_rng(3), 150, 8)
        s = slice_response(d.y, 4)
        trace_test(method, d, s, (1, 2), 5, 0.05)
        report = stp_run(d, s, method, alpha=0.2)
        assert len(built) > 1 + len(report.selected)
        assert hits == []

    def test_the_spy_sees_the_monte_carlo_quantile(self, decomposed):
        built, hits = decomposed
        d = make_dataset(np.random.default_rng(3), 150, 8)
        s = slice_response(d.y, 4)
        trace_test_with_weights(Method.DR, d, s, (1, 2), 5, 0.05, "monte-carlo")
        assert len(hits) == len(built) == 1
