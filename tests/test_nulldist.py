from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepursuit import (
    Dataset,
    compute_moments,
    htp_run,
    slice_response,
    trace_test,
    weighted_chisq_upper_quantile,
)
from tracepursuit.errors import DegenerateDistributionError, NumericalFailureError
from tracepursuit.kernels import Method, auxiliary_stats, residualize
from tracepursuit.nulldist import (
    influence_dim,
    influence_samples,
    omega_hat,
    weighted_chisq_quantile_mc,
)

from conftest import make_dataset, random_case
from oracles import mc_weighted_chisq_quantile, sir_omega_from_components

METHODS = list(Method)


def _parts(d, s, f, j):
    m = compute_moments(d, s, f)
    r = residualize(d, s, m, j)
    nu = auxiliary_stats(m, r)
    return m, r, nu


class TestInfluenceSamples:
    @pytest.mark.parametrize("method", METHODS)
    def test_columns_have_zero_mean(self, method, rng):
        for _ in range(5):
            d, s, f, j = random_case(rng, n_range=(50, 120))
            m, r, nu = _parts(d, s, f, j)
            ell = influence_samples(method, d, s, m, r, nu)
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
        m, r, nu = _parts(d, s, f, j)
        ell = influence_samples(method, d, s, m, r, nu)
        assert ell.shape == (d.n, influence_dim(method, len(f), s.h_count))

    def test_sir_empty_set_closed_form(self, rng):
        d = make_dataset(rng, 60, 3)
        s = slice_response(d.y, 4)
        m, r, nu = _parts(d, s, (), 2)
        ell = influence_samples(Method.SIR, d, s, m, r, nu)
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
            m, r, nu = _parts(d, s, f, j)
            omega, _ = omega_hat(influence_samples(Method.SIR, d, s, m, r, nu))
            want = sir_omega_from_components(
                d.x, s.membership, [i - 1 for i in f], j - 1
            )
            assert np.max(np.abs(omega - want)) < 1e-10

    def test_statistic_is_squared_norm_of_point_stacking(self, rng):
        # n * trace gain equals n * ||stacked point estimates||^2; the MC mean
        # of the weighted chi-square then matches the weight sum (trace of
        # omega), which pins the stacking order and scale.
        d, s, f, j = random_case(rng, n_range=(80, 120))
        m, r, nu = _parts(d, s, f, j)
        for method in METHODS:
            _, w = omega_hat(influence_samples(method, d, s, m, r, nu))
            rng2 = np.random.default_rng(99)
            draws = rng2.chisquare(1.0, size=(20000, w.size)) @ w
            se = draws.std() / np.sqrt(draws.size)
            assert abs(draws.mean() - w.sum()) <= 3 * se


class TestOmegaHat:
    def test_rank_one(self):
        c = np.linspace(1.0, 2.0, 30)
        ell = np.column_stack([c, np.zeros(30), np.zeros(30)])
        _, weights = omega_hat(ell)
        assert weights[0] == pytest.approx(float(c @ c) / 30)
        assert np.all(weights[1:] == 0.0)

    def test_psd_and_sorted(self, rng):
        d, s, f, j = random_case(rng)
        m, r, nu = _parts(d, s, f, j)
        for method in METHODS:
            omega, weights = omega_hat(influence_samples(method, d, s, m, r, nu))
            assert np.all(weights >= 0.0)
            assert np.all(np.diff(weights) <= 0.0)
            assert np.max(np.abs(omega - omega.T)) < 1e-10

    def test_nonfinite_rejected(self):
        ell = np.ones((10, 2))
        ell[3, 1] = np.nan
        with pytest.raises(NumericalFailureError):
            omega_hat(ell)

    def test_warns_when_underdetermined(self):
        ell = np.random.default_rng(0).standard_normal((5, 8))
        ell -= ell.mean(axis=0)
        with pytest.warns(RuntimeWarning):
            omega_hat(ell)


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

    def test_mc_fallback_reproducible_and_close(self):
        w = np.array([1.0, 0.5, 0.25])
        a = weighted_chisq_quantile_mc(w, 0.05, n_draws=200_000, seed=11)
        b = weighted_chisq_quantile_mc(w, 0.05, n_draws=200_000, seed=11)
        assert a == b
        assert a == pytest.approx(weighted_chisq_upper_quantile(w, 0.05), rel=0.05)


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
        res = trace_test(Method.SIR, d, s, f, j, 0.05, quantile="monte-carlo", seed=3)
        base = trace_test(Method.SIR, d, s, f, j, 0.05)
        assert res.statistic == base.statistic
        assert res.threshold == pytest.approx(base.threshold, rel=0.15)

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
        assert np.array_equal(first.weights, after.weights)
