import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill.errors import (
    DegenerateTable,
    InsufficientSample,
    InvalidArguments,
    ZeroVarianceBoth,
)
from fill import stats
from fill.stats import bh_fdr, binom_sf, binom_tail, fisher_exact, welch_t

from oracles import (
    direct_binom_sf,
    exact_binom_sf,
    exact_fisher_p,
    quad_t_two_tailed,
    welch_df,
)


class TestBinomSf:
    def test_k_zero_is_one(self):
        assert binom_sf(0, 0, 0.3) == 1.0
        assert binom_sf(0, 17, 0.9) == 1.0

    def test_all_successes_half(self):
        assert binom_sf(5, 5, 0.5) == pytest.approx(0.03125, abs=1e-15)

    def test_against_exact_enumeration_uneven_rate(self):
        # k=12 of n=20 at the 875-of-2418 base rate
        p = 875 / 2418
        expected = float(exact_binom_sf(12, 20, p))
        assert binom_sf(12, 20, p) == pytest.approx(expected, abs=1e-14)

    def test_degenerate_probabilities(self):
        assert binom_sf(3, 10, 0.0) == 0.0
        assert binom_sf(3, 10, 1.0) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArguments):
            binom_sf(5, 3, 0.5)
        with pytest.raises(InvalidArguments):
            binom_sf(-1, 3, 0.5)
        with pytest.raises(InvalidArguments):
            binom_sf(1, 3, 1.5)

    @given(
        n=st.integers(0, 60),
        p=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(deadline=None)
    def test_monotone_nonincreasing_in_k(self, n, p):
        values = [binom_sf(k, n, p) for k in range(n + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(
        k=st.integers(1, 40),
        extra=st.integers(0, 20),
        p=st.sampled_from([0.1, 0.36, 0.5, 0.61, 0.9]),
    )
    @settings(deadline=None)
    def test_matches_direct_summation(self, k, extra, p):
        n = k + extra
        assert binom_sf(k, n, p) == pytest.approx(
            direct_binom_sf(k, n, p), abs=1e-12
        )


class TestBinomTail:
    @given(
        n=st.integers(0, 60),
        p=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(deadline=None)
    def test_bounds_monotone_and_equal_to_binom_sf(self, n, p):
        tail = binom_tail(n, p)
        assert tail.shape == (n + 2,)
        assert tail[0] == 1.0
        assert tail[n + 1] == 0.0
        assert (tail[:-1] >= tail[1:]).all()
        assert [binom_sf(k, n, p) for k in range(n + 1)] == tail[: n + 1].tolist()

    def test_invalid_arguments(self):
        for n, p in ((-1, 0.5), (3, -0.1), (3, 1.5), (3, float("nan"))):
            with pytest.raises(InvalidArguments):
                binom_tail(n, p)

    def test_caller_owns_its_table(self):
        expected = binom_sf(3, 10, 0.3)
        tail = binom_tail(10, 0.3)
        tail[:] = 0.0
        assert binom_sf(3, 10, 0.3) == expected
        assert binom_tail(10, 0.3)[3] == expected


class TestLogFactorials:
    def test_small_call_after_large_never_shrinks(self):
        large = stats._log_factorials(5000)
        assert large.size > 5001
        small = stats._log_factorials(10)
        assert small.size >= large.size
        assert stats._logfact.size >= large.size
        assert small[10] == pytest.approx(math.lgamma(10), rel=1e-15)

    def test_concurrent_calls_cover_their_n(self):
        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for n in rng.integers(0, 20_000, size=200).tolist():
                table = stats._log_factorials(n)
                if table.size <= n:
                    failures.append((n, table.size))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestFisherExact:
    def test_balanced_table(self):
        res = fisher_exact([[5, 5], [5, 5]])
        assert res.statistic == 1.0
        assert res.p_value == pytest.approx(1.0, abs=1e-12)

    def test_small_table_enumeration(self):
        res = fisher_exact([[3, 1], [1, 3]])
        assert res.p_value == pytest.approx(34 / 70, rel=1e-12)

    def test_zero_cell_correction(self):
        res = fisher_exact([[4, 0], [0, 4]])
        assert res.statistic == pytest.approx(81.0)

    def test_degenerate_margin(self):
        with pytest.raises(DegenerateTable):
            fisher_exact([[0, 0], [3, 4]])
        with pytest.raises(DegenerateTable):
            fisher_exact([[0, 3], [0, 4]])

    def test_non_integer_cells(self):
        with pytest.raises(InvalidArguments):
            fisher_exact([[1.5, 2], [3, 4]])

    @given(
        a=st.integers(0, 12),
        b=st.integers(0, 12),
        c=st.integers(0, 12),
        d=st.integers(0, 12),
    )
    @settings(deadline=None)
    def test_matches_exact_enumeration(self, a, b, c, d):
        if a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0:
            return
        res = fisher_exact([[a, b], [c, d]])
        expected = float(exact_fisher_p(a, b, c, d))
        assert res.p_value == pytest.approx(expected, rel=1e-10)

    @given(
        a=st.integers(0, 10),
        b=st.integers(0, 10),
        c=st.integers(0, 10),
        d=st.integers(0, 10),
    )
    @settings(deadline=None)
    def test_row_and_column_swap_invariance(self, a, b, c, d):
        if a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0:
            return
        first = fisher_exact([[a, b], [c, d]])
        swapped = fisher_exact([[d, c], [b, a]])
        assert first.p_value == swapped.p_value
        assert first.statistic == swapped.statistic


def _has_zero_margin(t):
    a, b, c, d = t
    return a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0


# small cells for zero cells and ties, large ones for wide supports
_table = st.tuples(*[st.one_of(st.integers(0, 6), st.integers(0, 400))] * 4).filter(
    lambda t: not _has_zero_margin(t)
)


class TestFisherStack:
    @given(st.lists(_table, min_size=1, max_size=10))
    @settings(deadline=None)
    def test_rows_equal_single_table_calls(self, tables):
        # each table also enters in its swapped orientation (d, c, b, a)
        tables = tables + [t[::-1] for t in tables]
        res = fisher_exact(np.array(tables).reshape(-1, 2, 2))
        assert res.statistic.dtype == res.p_value.dtype == np.float64
        assert res.p_value.shape == res.statistic.shape == (len(tables),)
        for (a, b, c, d), odds, p in zip(tables, res.statistic, res.p_value):
            single = fisher_exact([[a, b], [c, d]])
            assert type(single.p_value) is float and type(single.statistic) is float
            assert single.p_value == p
            assert single.statistic == odds

    def test_empty_stack(self):
        res = fisher_exact(np.zeros((0, 2, 2), dtype=np.int64))
        assert res.statistic.shape == res.p_value.shape == (0,)

    def test_one_degenerate_table_raises(self):
        with pytest.raises(DegenerateTable):
            fisher_exact([[[3, 1], [1, 3]], [[0, 0], [3, 4]], [[2, 5], [1, 7]]])

    @pytest.mark.parametrize(
        "table",
        [
            [1, 2, 3, 4],
            [[1, 2, 3], [4, 5, 6]],
            np.ones((2, 2, 2, 2), dtype=int),
            [[1, 2], [3]],
            5,
            [[[1, 2], [3, 4]], [[1.5, 2], [3, 4]]],
            [[[1, 2], [3, 4]], [[1, 2], [3, -4]]],
            [[1, 2], [3, float("nan")]],
            [[1, 2], [3, float("inf")]],
            [["1", "2"], ["3", "4"]],
        ],
        ids=["flat", "2x3", "4d", "ragged", "scalar", "non-integer",
             "negative", "nan", "inf", "strings"],
    )
    def test_invalid_arguments(self, table):
        with pytest.raises(InvalidArguments):
            fisher_exact(table)


class TestWelchT:
    def test_identical_samples(self):
        res = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_against_quadrature(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 3.0, 4.0, 5.0]
        res = welch_t(xs, ys)
        t, df = welch_df(xs, ys)
        assert res.statistic == pytest.approx(t, rel=1e-12)
        assert res.p_value == pytest.approx(quad_t_two_tailed(t, df), abs=1e-8)

    def test_one_sided_zero_variance_allowed(self):
        res = welch_t([0.0, 0.0, 0.0, 10.0], [0.0, 0.0, 0.0, 0.0])
        assert math.isfinite(res.statistic)
        assert res.statistic == pytest.approx(1.0)

    def test_both_zero_variance(self):
        with pytest.raises(ZeroVarianceBoth):
            welch_t([2.0, 2.0], [3.0, 3.0])

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            welch_t([1.0], [1.0, 2.0])

    @given(
        xs=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        ys=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    )
    @settings(deadline=None)
    def test_antisymmetric(self, xs, ys):
        vx = np.var(xs, ddof=1)
        vy = np.var(ys, ddof=1)
        if vx == 0 and vy == 0:
            return
        fwd = welch_t(xs, ys)
        rev = welch_t(ys, xs)
        assert fwd.statistic == -rev.statistic
        assert fwd.p_value == rev.p_value


class TestBhFdr:
    def test_single_value_unchanged(self):
        assert bh_fdr([0.037]) == [0.037]

    def test_uniform_ladder(self):
        assert bh_fdr([0.01, 0.02, 0.03, 0.04]) == pytest.approx(
            [0.04, 0.04, 0.04, 0.04]
        )

    def test_mixed_order(self):
        assert bh_fdr([0.5, 0.005, 0.03]) == pytest.approx([0.5, 0.015, 0.045])

    def test_empty(self):
        assert bh_fdr([]) == []

    def test_invalid(self):
        with pytest.raises(InvalidArguments):
            bh_fdr([0.5, 1.2])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
    @settings(deadline=None)
    def test_pointwise_bounds_and_rank_preserved(self, pvals):
        adjusted = bh_fdr(pvals)
        for raw, adj in zip(pvals, adjusted):
            assert adj >= raw
            assert adj <= 1.0
        for i in range(len(pvals)):
            for j in range(len(pvals)):
                if pvals[i] < pvals[j]:
                    assert adjusted[i] <= adjusted[j]
