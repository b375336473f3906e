from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracepursuit.simbench as simbench
from tracepursuit import SimDesign, evaluate, generate, run_experiment
from tracepursuit.errors import TracePursuitError
from tracepursuit.kernels import Method
from tracepursuit.simbench import model_response


class TestModelFormulas:
    def test_model_one_point_value(self):
        x = np.zeros((1, 6))
        x[0, 0], x[0, 5] = 1.0, 1.0  # x1 + xp = 2
        x[0, 1], x[0, 4] = 0.5, -0.5  # x2 + x[p-1] = 0
        assert model_response("I", x)[0] == pytest.approx(1.0)

    def test_model_two_point_value(self):
        x = np.zeros((1, 6))
        x[0, 0], x[0, 5] = 1.0, 1.0
        assert model_response("II", x)[0] == pytest.approx(2.0)

    def test_model_three_point_value(self):
        x = np.zeros((1, 6))
        x[0, 0] = 2.0  # x1^4 = 16; exp term contributes 3
        assert model_response("III", x)[0] == pytest.approx(19.0)

    def test_generate_matches_noise_free_surface(self):
        design = SimDesign(model="II", n=50, p=5, seed=12, sigma_noise=1e-12)
        d, active = generate(design)
        assert active == (1, 2, 4, 5)
        assert np.max(np.abs(d.y - model_response("II", d.x))) < 1e-9


class TestGenerate:
    def test_seed_reproducibility_bitwise(self):
        design = SimDesign(model="I", n=40, p=6, rho=0.5, seed=5)
        d1, _ = generate(design, replication=3)
        d2, _ = generate(design, replication=3)
        assert np.array_equal(d1.x, d2.x) and np.array_equal(d1.y, d2.y)
        d3, _ = generate(design, replication=4)
        assert not np.array_equal(d1.x, d3.x)

    def test_ar_correlation_structure(self):
        # lag-2 correlation rho^2 = 0.25 (p=4: the smallest the models allow)
        design = SimDesign(model="I", n=100_000, p=4, rho=0.5, seed=9)
        d, _ = generate(design)
        corr = np.corrcoef(d.x, rowvar=False)
        assert corr[0, 2] == pytest.approx(0.25, abs=0.01)
        want = 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
        assert np.max(np.abs(corr - want)) < 0.02

    def test_nonnormal_supports(self):
        for dist, check in [
            ("uniform12", lambda x: np.all((x >= 1.0) & (x <= 2.0))),
            ("exponential1", lambda x: np.all(x > 0.0)),
            ("geometric_half", lambda x: np.all(x >= 1.0) and np.all(x == np.round(x))),
        ]:
            design = SimDesign(model="III", n=200, p=5, predictor_dist=dist, seed=2)
            d, _ = generate(design)
            assert check(d.x), dist

    def test_nonnormal_coordinates_independent_of_rho(self):
        a = generate(SimDesign(model="I", n=30, p=4, predictor_dist="exponential1", rho=0.0, seed=1))[0]
        b = generate(SimDesign(model="I", n=30, p=4, predictor_dist="exponential1", rho=0.9, seed=1))[0]
        assert np.array_equal(a.x, b.x)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            SimDesign(model="IV", n=10, p=5)
        with pytest.raises(ValueError):
            SimDesign(model="I", n=10, p=3)
        with pytest.raises(ValueError):
            SimDesign(model="I", n=10, p=5, rho=1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: SimDesign(model="I", n=300.0), "n"),
        (lambda: SimDesign(model="I", p=10.0), "p"),
        (lambda: SimDesign(model="I", seed=1.5), "seed"),
        (lambda: run_experiment(SimDesign(model="I", n=60), "ftp", Method.SIR, n_reps=2.0), "n_reps"),
    ],
    ids=["n", "p", "seed", "n_reps"],
)
def test_float_counts_rejected(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


class TestEvaluate:
    def test_all_correct(self):
        m = evaluate([(1, 2, 9, 10)] * 5, (1, 2, 9, 10))
        assert (m.uf, m.cf, m.of_, m.ms) == (0, 5, 0, 4.0)

    def test_superset_counts_as_overfit(self):
        m = evaluate([(1, 2, 3, 9, 10)], (1, 2, 9, 10))
        assert (m.uf, m.cf, m.of_) == (0, 0, 1)

    def test_hand_built_mixed_list(self):
        truth = (1, 2, 5, 6)
        sets = [
            (1, 2, 5, 6),  # correct
            (1, 2, 5),  # underfit
            (1, 2, 3, 5, 6),  # overfit
            (),  # underfit
            (3, 4),  # underfit
        ]
        m = evaluate(sets, truth)
        assert (m.uf, m.cf, m.of_) == (3, 1, 1)
        assert m.ms == pytest.approx((4 + 3 + 5 + 0 + 2) / 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(1, 8), max_size=8), min_size=1, max_size=20
        )
    )
    def test_partition(self, sets):
        m = evaluate([tuple(sorted(s)) for s in sets], (1, 2, 7, 8))
        assert m.uf + m.cf + m.of_ == m.n_reps == len(sets)


class TestRunExperiment:
    def test_partition_and_reproducibility(self):
        design = SimDesign(model="I", n=150, p=6, seed=31)
        res1 = run_experiment(design, "htp", Method.SIR, n_reps=4)
        res2 = run_experiment(design, "htp", Method.SIR, n_reps=4)
        m = res1.metrics
        assert m.uf + m.cf + m.of_ == m.n_reps == 4
        assert res1.metrics == res2.metrics

    def test_ftp_uses_bic_prefix(self):
        design = SimDesign(model="I", n=200, p=8, seed=17)
        res = run_experiment(design, "ftp", Method.SIR, n_reps=3)
        assert res.metrics.n_reps == 3

    def test_failures_counted_separately(self, monkeypatch):
        calls = {"n": 0}
        real = simbench.stp_run

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise TracePursuitError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(simbench, "stp_run", flaky)
        design = SimDesign(model="I", n=150, p=6, seed=31)
        res = run_experiment(design, "stp", Method.SIR, n_reps=3)
        assert res.failures == 1
        assert res.metrics.n_reps == 2
        assert res.metrics.uf + res.metrics.cf + res.metrics.of_ == 2

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(SimDesign(model="I"), "greedy", Method.SIR, 1)

    def test_model_one_save_hybrid_is_unstable(self):
        # the second-moment kernel struggles with the monotone link; the
        # correct-fit count lands well below the first-moment methods
        res = run_experiment(
            SimDesign(model="I", n=300, p=10, seed=7), "htp", Method.SAVE, n_reps=100
        )
        assert 40 <= res.metrics.cf <= 80

    def test_nonnormal_bench_cell_runs(self):
        res = run_experiment(
            SimDesign(model="III", n=300, p=8, predictor_dist="exponential1", seed=44),
            "htp",
            Method.SIR,
            n_reps=5,
        )
        m = res.metrics
        assert m.uf + m.cf + m.of_ == m.n_reps == 5
