from __future__ import annotations

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracepursuit import (
    Dataset,
    SimDesign,
    compute_moments,
    ftp_run,
    generate,
    htp_run,
    slice_response,
    stp_run,
    trace_test,
)
from tracepursuit.errors import (
    CollinearCandidateError,
    DegenerateSlicingError,
    IllPosedMomentsError,
    SingularDesignError,
    WorkingSetIndexError,
)
from tracepursuit.data import _STAT_CHUNK_COLS
from tracepursuit.kernels import Method, residualize

from conftest import make_dataset
from oracles import column_statistics, naive_moments, standardize_columns


class TestSliceResponse:
    def test_rank_split(self):
        s = slice_response(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert s.membership.tolist() == [1, 1, 2, 2]
        assert s.proportions.tolist() == [0.5, 0.5]

    def test_discrete_counting(self):
        s = slice_response(np.array([0.0, 1.0, 0.0, 1.0, 1.0]), 2, discrete=True)
        assert s.h_count == 2
        assert s.proportions.tolist() == [0.4, 0.6]

    def test_unordered_input(self):
        s = slice_response(np.array([4.0, 1.0, 3.0, 2.0]), 2)
        assert s.membership.tolist() == [2, 1, 2, 1]

    def test_equal_slices_at_n300_h4(self):
        y = np.random.default_rng(0).standard_normal(300)
        s = slice_response(y, 4)
        assert s.counts.tolist() == [75, 75, 75, 75]
        assert s.proportions.tolist() == [0.25] * 4

    def test_sizes_differ_by_at_most_one(self):
        y = np.random.default_rng(1).standard_normal(71)
        s = slice_response(y, 4)
        counts = s.counts
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 71

    def test_ties_broken_by_original_index(self):
        y = np.array([5.0, 5.0, 5.0, 1.0, 1.0, 1.0])
        s = slice_response(y, 2)
        # the three 1.0s rank first; ties inside each value keep input order
        assert s.membership.tolist() == [2, 2, 2, 1, 1, 1]

    def test_too_few_distinct_continuous(self):
        with pytest.raises(DegenerateSlicingError):
            slice_response(np.array([1.0, 1.0, 2.0, 2.0]), 3)

    def test_too_many_distinct_discrete(self):
        with pytest.raises(DegenerateSlicingError):
            slice_response(np.arange(6.0), 3, discrete=True)

    def test_h_count_validation(self):
        with pytest.raises(ValueError):
            slice_response(np.arange(6.0), 1)

    @pytest.mark.parametrize(
        "h_count, discrete", [(2.5, False), (4.0, False), (3.0, True), ("3", True)]
    )
    def test_non_integer_h_count_rejected(self, h_count, discrete):
        y = np.repeat([0.0, 1.0, 2.0], 4) if discrete else np.arange(12.0)
        with pytest.raises(ValueError, match="h_count must be an integer"):
            slice_response(y, h_count, discrete=discrete)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("discrete", [False, True])
    def test_non_finite_response_rejected(self, bad, discrete):
        y = np.r_[[0.0] * 10 + [1.0] * 9 if discrete else np.arange(19.0), bad]
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            slice_response(y, 4, discrete=discrete)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_complex_response_rejected(self, discrete):
        y = np.repeat([0.0, 1.0], 4) if discrete else np.arange(8.0)
        with pytest.raises(ValueError, match="y has complex dtype"):
            slice_response(y + 1j, 2, discrete=discrete)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_counts_and_rows_are_stored_read_only(self, rng, discrete):
        y = rng.integers(0, 3, 50).astype(float) if discrete else rng.standard_normal(50)
        s = slice_response(y, 4, discrete=discrete)
        assert s.counts is s.counts
        labels = range(1, s.h_count + 1)
        assert s.counts.tolist() == [np.sum(s.membership == h) for h in labels]
        averaging = np.zeros((s.h_count, 50))
        for h, rows in zip(labels, s.rows, strict=True):
            assert np.array_equal(rows, np.flatnonzero(s.membership == h))
            assert np.array_equal(s.indicator[:, h - 1], s.membership == h)
            averaging[h - 1, rows] = 1.0 / rows.size
        assert np.array_equal(s.averaging, averaging)  # the same bits as 1 / n_h
        for a in (s.membership, s.counts, s.proportions, *s.rows, s.indicator, s.averaging):
            assert not a.flags.writeable

    def test_proportions_sum_to_one(self, rng):
        for _ in range(10):
            y = rng.standard_normal(int(rng.integers(20, 200)))
            s = slice_response(y, int(rng.choice([2, 3, 4, 5])))
            assert abs(s.proportions.sum() - 1.0) < 1e-12
            assert all(r.size > 0 for r in s.rows)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=8, max_size=40, unique=True), st.randoms())
    def test_permutation_equivariance(self, raw, pyrandom):
        y = np.array(raw, dtype=float)
        perm = list(range(len(raw)))
        pyrandom.shuffle(perm)
        perm = np.array(perm)
        base = slice_response(y, 4).membership
        shuffled = slice_response(y[perm], 4).membership
        assert np.array_equal(shuffled, base[perm])


class TestDataset:
    def test_shape_and_finite_validation(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays(np.ones((1, 3)), np.ones(1))
        bad = np.ones((5, 2))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="x column 2 has non-finite"):
            Dataset.from_arrays(bad, np.ones(5))
        with pytest.raises(ValueError):
            Dataset.from_arrays(np.ones((5, 2)), np.array([1, 2, np.inf, 4, 5.0]))

    @pytest.mark.parametrize(
        "x, y, match",
        [
            (np.ones((5, 2)) + 1j, np.arange(5.0), "x has complex dtype complex128"),
            (np.ones((5, 2)), np.arange(5.0) + 0j, "y has complex dtype complex128"),
            (np.ones((5, 2, 2)), np.arange(5.0), r"x must be 1-D or 2-D, got shape \(5, 2, 2\)"),
            (np.float64(1.0), np.arange(1.0), r"x must be 1-D or 2-D, got shape \(\)"),
        ],
        ids=["complex-x", "complex-y", "3-d-x", "0-d-x"],
    )
    def test_complex_and_misshapen_input_rejected(self, x, y, match):
        with pytest.raises(ValueError, match=match):
            Dataset.from_arrays(x, y)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.sampled_from(
            [1, 2, _STAT_CHUNK_COLS - 1, _STAT_CHUNK_COLS, _STAT_CHUNK_COLS + 1,
             2 * _STAT_CHUNK_COLS + 3]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, p=2 * _STAT_CHUNK_COLS + 3, seed=1256)  # a x1e-150 column is rejected
    def test_statistics_match_the_per_column_loop(self, n, p, seed):
        """Bit equality with the loop, or, where a nonconstant column's largest
        squared deviation falls below the smallest normal float (two close
        draws x1e-150 can), the error that names the first such column; no
        column here comes near overflow."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p))
        kind = rng.integers(0, 6, p)
        x[:, kind == 1] = rng.standard_normal(np.sum(kind == 1))  # constant columns
        x[:, kind == 2] *= 1e7
        x[:, kind == 3] *= 1e-7
        x[:, kind == 4] += 1e8
        x[:, kind == 5] *= 1e-150
        y = rng.standard_normal(n)
        subnormal = [
            a for a in range(p)
            if x[:, a].max() > x[:, a].min()
            and np.max((x[:, a] - x[:, a].mean()) ** 2) < np.finfo(np.float64).tiny
        ]
        if subnormal:
            with pytest.raises(ValueError, match=f"x column {subnormal[0] + 1} has squared"):
                Dataset.from_arrays(x, y)
            return
        d = Dataset.from_arrays(x, y)
        means, scales = column_statistics(x)
        assert np.array_equal(d.means, means)
        assert np.array_equal(d.scales, scales)
        assert not (d.means.flags.writeable or d.scales.flags.writeable)

    def test_construction_peak_memory_stays_near_one_copy_of_x(self, rng):
        x, y = rng.standard_normal((100, 20000)), rng.standard_normal(100)
        tracemalloc.start()
        try:
            Dataset.from_arrays(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.nbytes

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_squares_outside_the_normal_range_are_rejected(self, scale):
        x, y = _scaled_design(scale)
        with pytest.raises(ValueError, match="x column 3"):
            Dataset.from_arrays(x, y)
        with pytest.raises(ValueError, match="x column 3 \\('c'\\)"):
            Dataset.from_arrays(x, y, column_names="abcdef")

    def test_constant_columns_pass_at_any_scale(self):
        x, y = _scaled_design(1.0)
        x[:, 1], x[:, 4] = 1e-300, 1e300
        assert Dataset.from_arrays(x, y).p == 6

    @pytest.mark.parametrize("value", [1.5e308, 0.1, -1e300])
    def test_constant_column_is_a_collinear_candidate_at_any_value(self, value):
        """A constant column's mean is its value, even where its n-fold sum
        overflows, so it standardizes to zeros and every route skips it."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        y = x[:, 0] + 0.1 * rng.standard_normal(50)
        x[:, 1] = value
        d = Dataset.from_arrays(x, y)
        assert d.means[1] == value and d.scales[1] == 0.0
        assert np.array_equal(d.standardized(1), np.zeros(50))
        s = slice_response(d.y, 4)
        for method in Method:
            with pytest.raises(CollinearCandidateError):
                trace_test(method, d, s, (), 2, 0.05)
            path = ftp_run(d, s, method)
            assert 2 not in [step.added_index for step in path.steps]
            assert 2 not in htp_run(d, s, method).selected
            report = stp_run(d, s, method)
            assert 2 not in report.selected
            skips = [(e.index, e.note) for e in report.trail if e.action == "skip"]
            assert (2, "collinear-candidate") in skips

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("method", list(Method))
    def test_extreme_normal_scales_keep_tests_and_selections(self, scale, method):
        def results(x, y):
            d = Dataset.from_arrays(x, y)
            s = slice_response(d.y, 4)
            tests = [trace_test(method, d, s, f, j, 0.05) for f, j in (((1,), 3), ((3,), 1))]
            values = [v for t in tests for v in (t.statistic, t.threshold)]
            return values, htp_run(d, s, method).selected

        values, selected = results(*_scaled_design(1.0))
        scaled_values, scaled_selected = results(*_scaled_design(scale))
        assert scaled_values == pytest.approx(values, rel=1e-8)
        assert scaled_selected == selected


def _scaled_design(scale):
    """50 x 6 normal design with y = x1 + 0.1 noise and column 3 times ``scale``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 6))
    y = x[:, 0] + 0.1 * rng.standard_normal(50)
    x[:, 2] *= scale
    return x, y


class TestColumnUnits:
    """Gains, statistics and every floor read standardized columns, so the
    units of a column change no result."""

    @pytest.mark.parametrize("scale", [1e4, 1e7, 1e-7])
    def test_one_rescaled_column_next_to_unit_ones(self, scale):
        def results(x, y):
            d = Dataset.from_arrays(x, y)
            s = slice_response(d.y, 4)
            test = trace_test(Method.SIR, d, s, (2, 3), 1, 0.05)
            path = ftp_run(d, s, Method.SIR, k_max=5)
            return test, [step.added_index for step in path.steps], path.skipped

        test, order, skipped = results(*_scaled_design(1.0))
        scaled_test, scaled_order, scaled_skipped = results(*_scaled_design(scale))
        assert (scaled_test.statistic, scaled_test.threshold) == pytest.approx(
            (test.statistic, test.threshold), rel=1e-10
        )
        assert scaled_order == order and len(order) == 5
        assert scaled_skipped == skipped == ()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_paths_trails_and_statistics_ignore_column_units(self, data):
        n = data.draw(st.integers(40, 120), label="n")
        p = data.draw(st.integers(3, 8), label="p")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((n, p))
        y = x[:, 0] + 0.5 * x[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
        scales = st.lists(st.floats(-7, 7), min_size=p, max_size=p)
        scaled = x * 10.0 ** np.array(data.draw(scales, label="log10 scales"))
        method = data.draw(st.sampled_from(list(Method)), label="method")

        def results(x):
            d = Dataset.from_arrays(x, y)
            s = slice_response(d.y, 4)
            path = ftp_run(d, s, method)
            trail = stp_run(d, s, method, alpha=0.2).trail
            return (
                [step.added_index for step in path.steps],
                [(e.action, e.index) for e in trail],
                [v for e in trail for v in (e.statistic, e.threshold) if v is not None],
            )

        order, trail, values = results(x)
        scaled_order, scaled_trail, scaled_values = results(scaled)
        assert (scaled_order, scaled_trail) == (order, trail)
        assert scaled_values == pytest.approx(values, rel=1e-10)


    @pytest.mark.parametrize("method", list(Method))
    def test_column_offsets_keep_paths_and_selections(self, method):
        """Every column of Model I shifted by 1e8: the columns are centered
        before any product, so paths, skips and selections stay the same and
        path traces move by the rounding of the shifted data alone."""
        for seed in (1, 2, 3):
            d, _ = generate(SimDesign(model="I", n=200, p=40, rho=0.5, seed=seed))
            shifted = Dataset.from_arrays(d.x + 1e8, d.y)
            s = slice_response(d.y, 4)
            path, shifted_path = ftp_run(d, s, method), ftp_run(shifted, s, method)
            assert [st.added_index for st in shifted_path.steps] == [
                st.added_index for st in path.steps
            ]
            assert shifted_path.skipped == path.skipped
            assert [st.trace_value for st in shifted_path.steps] == pytest.approx(
                [st.trace_value for st in path.steps], rel=2e-8
            )
            assert htp_run(shifted, s, method).selected == htp_run(d, s, method).selected


class TestComputeMoments:
    def test_symmetric_construction(self):
        d = Dataset.from_arrays(
            np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.array([1.0, 2.0, 3.0, 4.0])
        )
        s = slice_response(d.y, 2)
        m = compute_moments(d, s, (1,))
        assert m.white_u[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert m.white_u[1, 0] == pytest.approx(0.0, abs=1e-15)
        assert abs(m.whitening[0, 0]) == pytest.approx(1.0)

    def test_constant_column_is_singular(self):
        x = np.column_stack([np.ones(20), np.arange(20.0)])
        d = Dataset.from_arrays(x, np.arange(20.0))
        s = slice_response(d.y, 2)
        m = compute_moments(d, s, (1, 2))
        with pytest.raises(SingularDesignError):
            m.whitening

    def test_against_naive_oracle(self, rng):
        d = make_dataset(rng, 50, 6)
        s = slice_response(d.y, 4)
        f = (2, 3, 5)
        m = compute_moments(d, s, f)
        xs = standardize_columns(d.x)
        p_hat, sigma, u, v = naive_moments(xs, s.membership, [1, 2, 4])
        xc = xs[:, [1, 2, 4]]
        w = m.whitening
        assert np.allclose(w @ w.T @ sigma, np.eye(3), atol=1e-12)
        assert np.allclose(m.white_u, u @ w, atol=1e-12)
        assert np.allclose(m.white_v, np.einsum("ab,hac,cd->hbd", w, v, w), atol=1e-12)
        assert np.allclose(m.xc, xc, atol=1e-12)
        assert np.allclose(m.white_xc, xc @ w, atol=1e-12)
        assert np.allclose(s.proportions, p_hat)

    def test_weighted_slice_means_vanish(self, rng):
        for _ in range(5):
            d = make_dataset(rng, int(rng.integers(20, 120)), 5)
            s = slice_response(d.y, 4)
            m = compute_moments(d, s, (1, 3, 5))
            assert np.max(np.abs(s.proportions @ m.white_u)) < 1e-10

    def test_law_of_total_second_moment(self, rng):
        for _ in range(5):
            d = make_dataset(rng, int(rng.integers(20, 120)), 5)
            s = slice_response(d.y, 4)
            m = compute_moments(d, s, (1, 2, 4))
            recon = np.einsum("h,hab->ab", s.proportions, m.white_v)
            assert np.max(np.abs(recon - np.eye(3))) < 1e-10

    def test_empty_working_set(self, small_case):
        d, s, _ = small_case
        m = compute_moments(d, s, ())
        assert m.size == 0
        assert m.xc.shape == (d.n, 0)
        assert m.whitening.shape == (0, 0)
        assert m.white_v.shape == (s.h_count, 0, 0)

    def test_index_validation(self, small_case):
        d, s, _ = small_case
        with pytest.raises(WorkingSetIndexError):
            compute_moments(d, s, (0, 1))
        with pytest.raises(WorkingSetIndexError):
            compute_moments(d, s, (1, 1))
        with pytest.raises(WorkingSetIndexError):
            compute_moments(d, s, (d.p + 1,))

    @pytest.mark.parametrize("bad", [1.7, 2.0, np.float64(1.0), "1"])
    def test_non_integer_index_rejected(self, small_case, bad):
        d, s, m = small_case
        with pytest.raises(WorkingSetIndexError):
            compute_moments(d, s, (bad,))
        with pytest.raises(WorkingSetIndexError):
            residualize(m, bad)
        with pytest.raises(WorkingSetIndexError):
            trace_test(Method.SIR, d, s, (1,), bad, 0.05)

    def test_numpy_integer_index_accepted(self, small_case):
        d, s, m = small_case
        assert compute_moments(d, s, (np.int64(4), np.int32(2))).f == (2, 4)
        a, b = residualize(m, np.int64(3)), residualize(m, 3)
        assert np.array_equal(a.gamma_per_sample, b.gamma_per_sample)
        assert trace_test(Method.SIR, d, s, (1,), np.int64(3), 0.05).j == 3

    def test_overlarge_working_set(self):
        d = make_dataset(np.random.default_rng(0), 6, 8)
        s = slice_response(d.y, 2)
        with pytest.raises(IllPosedMomentsError):
            compute_moments(d, s, tuple(range(1, 7)))


def _fields(m):
    return (m.xc, m.white_xc, m.white_u, m.white_v)


class TestMomentCache:
    F = (3, 17, 18, 40, 95, 96, 160, 233, 300)

    def test_history_independence(self, rng):
        d = make_dataset(rng, 70, 300)
        fresh = compute_moments(d, slice_response(d.y, 4), self.F)
        warm_s = slice_response(d.y, 4)
        for f in [(1, 2, 3), (17, 300), tuple(range(90, 130)), (5, 40, 160, 233, 299), (18,)]:
            compute_moments(d, warm_s, f).white_v
        compute_moments(d, warm_s, self.F[::2])
        warm = compute_moments(d, warm_s, self.F)
        other = Dataset.from_arrays(np.array(d.x), np.array(d.y))  # the same data, never used
        again = compute_moments(other, slice_response(other.y, 4), self.F)
        for a, b, c in zip(_fields(fresh), _fields(warm), _fields(again)):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_memory_is_not_sized_by_p(self, rng):
        n, p = 100, 2000
        d = make_dataset(rng, n, p)
        s = slice_response(d.y, 4)
        f = (1, 401, 801, 1201, 1601)
        tracemalloc.start()
        try:
            compute_moments(d, s, f).white_v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * p * 8 / 4

    def test_pickle_and_deepcopy_give_the_same_moments(self, rng):
        d = make_dataset(rng, 50, 40)
        fresh = Dataset.from_arrays(np.array(d.x), np.array(d.y))
        s = slice_response(d.y, 4)
        used = compute_moments(d, s, (1, 2, 3))
        used.white_v
        assert len(pickle.dumps(d)) == len(pickle.dumps(fresh))
        for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            again = compute_moments(twin, s, (1, 2, 3))
            for a, b in zip(_fields(used), _fields(again)):
                assert np.array_equal(a, b)
