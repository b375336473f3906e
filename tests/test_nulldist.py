from __future__ import annotations

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
# the quantiles' oracles; scipy is a test dependency
from scipy.special import gammaincc, gammainccinv

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
    influence_dim,
    influence_samples,
    omega_hat,
    omega_weights,
    scaled_chisq_upper_quantile,
    statistic_and_threshold,
    trace_test_with_weights,
    weight_moments,
    weighted_chisq_quantile_exact,
    weighted_chisq_tail,
)

from conftest import make_dataset, random_case
from oracles import (
    mc_weighted_chisq_quantile,
    reference_influence_samples,
    sir_omega_from_components,
)

METHODS = list(Method)

# the functions of (weights, alpha or x) that share the weights' checks
WEIGHT_FUNCTIONS = [
    weighted_chisq_upper_quantile, weighted_chisq_quantile_exact, weighted_chisq_tail
]


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
        st.floats(1.0, 10.0),
        st.integers(-200, 200),
    )
    @pytest.mark.parametrize("function", WEIGHT_FUNCTIONS)
    def test_scale_equivariance_exact(self, function, w, alpha, mantissa, decade):
        """Both quantiles scale with the weights, and the tail at c x is the
        tail at x, for c from 1e-200 to 1e201."""
        w, c = np.array(w), mantissa * 10.0**decade
        if function is weighted_chisq_tail:
            x = weighted_chisq_upper_quantile(w, alpha)
            assert function(c * w, c * x) == pytest.approx(function(w, x), rel=1e-12)
        else:
            assert function(c * w, alpha) == pytest.approx(c * function(w, alpha), rel=1e-12)

    @pytest.mark.parametrize("quantile", WEIGHT_FUNCTIONS[:2])
    @pytest.mark.parametrize(
        "weights, chisq", [([3e-200], 3.841458820694124), ([1e300, 1e300], 5.991464547107979)]
    )
    def test_weights_whose_squares_underflow_or_overflow(self, quantile, weights, chisq):
        """Weights of 3e-200 (squares 0) and 1e300 (squares inf) give the
        chi2_1 and chi2_2 quantiles times the weight, and the tail there is
        alpha."""
        q = weights[0] * chisq
        assert quantile(np.array(weights), 0.05) == pytest.approx(q, rel=1e-13, abs=0.0)
        assert weighted_chisq_tail(weights, q) == pytest.approx(0.05, rel=1e-12)

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

    @pytest.mark.parametrize("quantile", WEIGHT_FUNCTIONS)
    def test_all_zero_weights(self, quantile):
        with pytest.raises(DegenerateDistributionError):
            quantile(np.zeros(3), 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("quantile", WEIGHT_FUNCTIONS)
    def test_nonfinite_or_negative_weight_rejected(self, quantile, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            quantile(np.array([1.0, bad]), 0.05)


class TestExactTail:
    """The exact weighted chi-square tail and its quantile against closed
    forms, numerical integration and the Monte Carlo oracle."""

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 150])
    def test_chisq_closed_forms(self, k):
        w = np.ones(k)
        for alpha in np.geomspace(1e-8, 0.5, 17):
            x = 2.0 * gammainccinv(k / 2.0, alpha)
            tail = gammaincc(k / 2.0, x / 2.0)
            assert weighted_chisq_tail(w, x) == pytest.approx(tail, rel=1e-12)
            assert weighted_chisq_quantile_exact(w, alpha) == pytest.approx(x, rel=1e-12)

    def test_lower_tail_quantiles(self):
        """Above alpha = 1/2 the quantile lies below the mean for chi2_1."""
        for alpha in (0.9, 0.999):
            x = 2.0 * gammainccinv(0.5, alpha)
            assert weighted_chisq_quantile_exact([3.0], alpha) == pytest.approx(3.0 * x, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(0.7, 0.3), (1.0, 0.01), (1.0, 1e-3), (1.0, 0.5)])
    def test_two_weight_laws_against_quad(self, a, b):
        """P(a X + b Y > x) = P(a X > x) + int_0^x f_aX(u) P(b Y > x - u) du,
        with the u^(-1/2) singularity of f_aX left to quad's algebraic weight."""
        for x in (0.05, 0.5, a + b, 3.0, 10.0, 40.0):

            def integrand(u):
                density = math.exp(-u / (2 * a)) / math.sqrt(2 * math.pi * a)  # times u^(-1/2)
                return density * gammaincc(0.5, (x - u) / (2 * b))

            conv, _ = integrate.quad(
                integrand, 0.0, x, weight="alg", wvar=(-0.5, 0.0), limit=500, epsabs=0.0,
                epsrel=1e-13,
            )
            ref = gammaincc(0.5, x / (2 * a)) + conv
            assert weighted_chisq_tail([a, b], x) == pytest.approx(ref, rel=1e-10), x

    @pytest.mark.parametrize("weights", [[0.7, 0.3], np.linspace(1.0, 0.05, 12)])
    def test_monte_carlo_oracle_within_its_error(self, weights):
        """The tail at the 1e6-draw Monte Carlo quantile is alpha within four
        standard errors of the draws' tail fraction."""
        n_draws = 1_000_000
        for alpha in (0.05, 0.01):
            q_mc = mc_weighted_chisq_quantile(weights, alpha, n_draws, seed=17)
            assert abs(weighted_chisq_tail(weights, q_mc) - alpha) <= 4.0 * math.sqrt(
                alpha * (1.0 - alpha) / n_draws
            )

    @pytest.mark.parametrize("size", [0, 5, 15, 30])
    @pytest.mark.parametrize("method", METHODS)
    def test_round_trip_on_trace_test_weights(self, method, size):
        """Model I, n=300, p=40, seed 0, candidate 35 at F = {1, ..., |F|}."""
        d, _ = generate(SimDesign(model="I", n=300, p=40, seed=0))
        s = slice_response(d.y, 4)
        f = tuple(range(1, size + 1))
        res, weights = trace_test_with_weights(method, d, s, f, 35, 0.05, "exact")
        assert weighted_chisq_tail(weights, res.threshold) == pytest.approx(0.05, rel=1e-10)

    def test_tail_ends(self):
        w = np.array([2.0, 1.0])
        assert weighted_chisq_tail(w, 0.0) == weighted_chisq_tail(w, -1.0) == 1.0
        assert weighted_chisq_tail(w, 1e20) == weighted_chisq_tail(w, np.inf) == 0.0
        # equal weights of 1e308 sum to inf, and the tail still reads chi2_2's
        tail = weighted_chisq_tail([1e308, 1e308], 2e307)
        assert tail == pytest.approx(math.exp(-0.1), rel=1e-12)
        with pytest.raises(ValueError, match="NaN"):
            weighted_chisq_tail(w, np.nan)

    def test_weights_whose_sums_overflow_raise_in_both_quantiles(self):
        w = np.full(2, 1e308)
        for quantile in (weighted_chisq_upper_quantile, weighted_chisq_quantile_exact):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    quantile(w, 0.05)


class TestBracketedRoot:
    """The loop both quantiles share, with steps that fail: one that always
    leaves the bracket (the loop doubles, then bisects) and one that
    overshoots the root 3 by 0.9 of its distance, so its steps do not
    halve."""

    @pytest.mark.parametrize(
        "step", [lambda x: -x, lambda x: 3.0 - 0.9 * (x - 3.0)], ids=["leaves", "no-halving"]
    )
    @pytest.mark.parametrize("start", [1e-3, 0.5, 3.5, 1e3])
    @pytest.mark.parametrize("rtol", [1e-10, nulldist._INV_RTOL])
    def test_fallback_reaches_the_root(self, step, start, rtol):
        calls = []

        def evaluate(x):
            calls.append(x)
            return x < 3.0, step(x), math.inf

        root = nulldist._bracketed_root(evaluate, start, rtol)
        assert abs(root - 3.0) <= rtol * root
        assert len(calls) < 80


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

    def test_exact_quantile_switch(self, rng):
        d, s, f, j = random_case(rng, n_range=(60, 100))
        res, weights = trace_test_with_weights(Method.SIR, d, s, f, j, 0.05, "exact")
        base = trace_test(Method.SIR, d, s, f, j, 0.05)
        assert res.statistic == base.statistic
        assert res.threshold == weighted_chisq_quantile_exact(weights, 0.05)
        assert res.threshold == pytest.approx(base.threshold, rel=0.15)

    def test_unknown_quantile_scheme_is_rejected_before_any_work(self, rng, monkeypatch):
        d, s, f, j = random_case(rng, n_range=(60, 100))
        calls = []
        monkeypatch.setattr(nulldist, "compute_moments", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="unknown quantile scheme 'monte-carlo'"):
            trace_test_with_weights(Method.SIR, d, s, f, j, 0.05, "monte-carlo")
        assert calls == []

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


class TestOneComputationPerTest:
    """The benchmark's null-test design: Model I, n=300, p=40, seed 0, and a
    candidate outside F, which holds the active set when it is not empty."""

    @pytest.fixture(scope="class")
    def data(self):
        d, _ = generate(SimDesign(model="I", n=300, p=40, seed=0))
        return d, slice_response(d.y, 4)

    @staticmethod
    def _case(size):
        active, inactive = (1, 2, 39, 40), tuple(range(3, 39))
        f = tuple(sorted(active + inactive[: size - len(active)])) if size else ()
        return f, inactive[-1]

    @pytest.mark.parametrize("size", [0, 5, 15, 30])
    @pytest.mark.parametrize("method", METHODS)
    def test_both_entry_points_give_the_public_pieces_bits(self, data, method, size):
        d, s = data
        f, j = self._case(size)
        r = _residual(d, s, f, j)
        statistic, threshold, moments = statistic_and_threshold(method, r, 0.05)
        assert moments == weight_moments(omega_hat(influence_samples(method, r)))
        reported, _ = trace_test_with_weights(method, d, s, f, j, 0.05)
        decided = trace_test(method, d, s, f, j, 0.05)
        assert (reported.statistic, reported.threshold) == (statistic, threshold)
        assert (decided.statistic, decided.threshold) == (statistic, threshold)

    @pytest.mark.parametrize("method", [Method.SAVE, Method.DR])
    def test_samples_and_weight_matrix_are_one_allocation(self, data, method, monkeypatch):
        d, s = data
        seen = []
        real_omega_hat = nulldist.omega_hat

        def spy_omega_hat(ell, **kwargs):
            seen.append((ell, real_omega_hat(ell, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(nulldist, "omega_hat", spy_omega_hat)
        trace_test(method, d, s, *self._case(30), 0.05)
        [(ell, omega)] = seen
        assert ell.base is not None and omega.base is ell.base
        assert np.array_equal(omega, omega.T)


class TestNoDecompositionOnTheDecisionPath:
    @pytest.fixture
    def decomposed(self, monkeypatch):
        """(weight matrices built, those later passed to a numpy
        eigenvalue or singular value routine)."""
        built, hits = [], []
        real_omega_hat = nulldist.omega_hat

        def spy_omega_hat(ell, **kwargs):
            built.append(real_omega_hat(ell, **kwargs))
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

    def test_the_spy_sees_the_exact_quantile(self, decomposed):
        built, hits = decomposed
        d = make_dataset(np.random.default_rng(3), 150, 8)
        s = slice_response(d.y, 4)
        trace_test_with_weights(Method.DR, d, s, (1, 2), 5, 0.05, "exact")
        assert len(hits) == len(built) == 1
