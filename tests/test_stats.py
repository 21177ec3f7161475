import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gammaln

from fill.errors import (
    DegenerateTable,
    InsufficientSample,
    InvalidArguments,
    ZeroVarianceBoth,
)
from fill import stats
from fill.stats import (
    bh_fdr, binom_sf, binom_tail, binom_tail_counts, fisher_exact, welch_t,
)

from oracles import (
    direct_binom_sf,
    exact_binom_sf,
    exact_fisher_p,
    loop_bh_fdr,
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
        for p in (1.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidArguments):
                binom_sf(1, 3, p)

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
        for n, p in (
            (-1, 0.5), (3, -0.1), (3, 1.5), (3, float("nan")), (3, float("inf")), (3, -float("inf")),
        ):
            with pytest.raises(InvalidArguments):
                binom_tail(n, p)
            with pytest.raises(InvalidArguments):
                binom_tail_counts([n], p, [0.1])

    def test_tail_counts_invalid_arguments(self):
        assert binom_tail_counts([], 0.3, [0.1]).shape == (0, 1)
        for p in (0.0, 0.5, 1.0):
            counts = binom_tail_counts([3], p, [])
            assert counts.shape == (1, 0) and counts.dtype == np.int64
        for sizes, p, thresholds in (
            ([3, -1], 0.5, [0.1]), ([[3]], 0.5, [0.1]), ([2.5], 0.5, [0.1]),
            ([3], 1.5, [0.1]), ([3], float("nan"), [0.1]), ([3], 0.5, [0.0]),
            ([3], 0.5, [1.5]), ([3], 0.5, [[0.1]]), ([3], 0.5, [float("nan")]),
        ):
            with pytest.raises(InvalidArguments):
                binom_tail_counts(sizes, p, thresholds)

    def test_caller_owns_its_table(self):
        expected = binom_sf(3, 10, 0.3)
        tail = binom_tail(10, 0.3)
        tail[:] = 0.0
        assert binom_sf(3, 10, 0.3) == expected
        assert binom_tail(10, 0.3)[3] == expected


class TestLogFactorials:
    def test_table_matches_gammaln(self):
        """log(m!) is math.lgamma(m + 1) bit for bit, within 1e-15 relative of
        scipy's gammaln up to m = 20 000, the same run read down in falling,
        and zero past the top."""
        rising, falling, top = stats._log_factorials(20_000)
        assert top >= 20_000
        assert rising.size == falling.size == 2 * (top + 1)
        m = np.arange(top + 1)
        assert rising[m].tolist() == [math.lgamma(i + 1) for i in range(top + 1)]
        assert rising[m].tobytes() == falling[top - m].tobytes()
        assert not rising[top + 1 :].any() and not falling[top + 1 :].any()
        assert rising[0] == rising[1] == 0.0
        expected = gammaln(np.arange(1, 20_002, dtype=np.float64))
        np.testing.assert_allclose(rising[:20_001], expected, rtol=1e-15, atol=0)

    def test_small_call_after_large_never_shrinks(self):
        large = stats._log_factorials(5000)
        assert large[2] >= 5000 and large[0].size > 5001
        small = stats._log_factorials(10)
        assert small[2] >= large[2] and small[0].size >= large[0].size
        assert stats._logfact[2] >= large[2]
        assert small[0][10] == pytest.approx(math.lgamma(11), rel=1e-15)

    def test_concurrent_calls_cover_their_n(self):
        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for n in rng.integers(0, 20_000, size=200).tolist():
                rising, falling, top = stats._log_factorials(n)
                if top < n or rising.size <= n:
                    failures.append((n, top, rising.size))
                elif not rising[n] == falling[top - n] == math.lgamma(n + 1):
                    failures.append(("runs", n, top))

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


class TestWindowTails:
    """binom_tail_counts sums a window [lo, hi) of each tail table: its
    entries are the whole table's bits, and the table is 0 from hi on."""

    SIZES = np.r_[0:40, 97, 300, 1000, 1090, 1200, 2500, 6000, 15_000][:, None].astype(np.int64)

    @pytest.mark.parametrize("p", [1e-3, 0.05, 875 / 2418, 0.5, 0.77, 0.999])
    @pytest.mark.parametrize("from_zero", [False, True], ids=["window", "re-sum"])
    def test_rows_are_the_table_bits(self, p, from_zero):
        lo, hi = stats._tail_window(self.SIZES, p)
        if from_zero:
            lo = np.zeros_like(lo)
        window, _ = stats._window_tails(self.SIZES, lo, hi, p)
        for n, a, b, row in zip(self.SIZES[:, 0], lo[:, 0], hi[:, 0], window):
            table = binom_tail(n, p)
            assert row[: b - a].tobytes() == table[a:b].tobytes()
            assert not row[b - a :].any() and not table[b:].any()

    def test_underflow_cuts_large_tables(self):
        # at p = 1/2 the term at k = n is 2^-n, so hi <= n only once 2^-n is
        # below the mode's term by a factor of more than e^750
        n = self.SIZES[:, 0]
        hi = stats._tail_window(self.SIZES, 0.5)[1][:, 0]
        assert (hi[n >= 1200] <= n[n >= 1200]).all()
        assert (hi[n <= 1000] == n[n <= 1000] + 1).all()


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


def one_table_fisher(a, b, c, d, add=lambda terms: np.cumsum(terms)[-1:]):
    """(odds, p) of one 2x2 table alone, summed as fisher_exact's stack must:
    the same orientation, log-factorial table and tie slack, then the terms
    of its own support, 0 where left out, added left to right (np.cumsum)."""
    if d < a or (d == a and c < b):
        a, b, c, d = d, c, b, a
    r1, c1, c2 = a + b, a + c, b + d
    lo = max(0, r1 - c2)
    x = np.arange(lo, min(r1, c1) + 1)
    f = stats._log_factorials(c1 + c2)[0]
    log_probs = (
        f[c1] - f[x] - f[c1 - x] + f[c2] - f[r1 - x] - f[c2 - r1 + x]
        - (f[c1 + c2] - f[r1] - f[c1 + c2 - r1])
    )
    kept = log_probs <= log_probs[a - lo] + stats._LOG1P_TOL
    peak = log_probs[kept].max(keepdims=True)
    total = add(np.exp(np.where(kept, log_probs - peak, -np.inf)))
    odds = stats.odds_ratio(np.array([a]), b, c, d)
    return float(odds[0]), min(1.0, float(np.exp(peak + np.log(total))[0]))


class TestFisherLayout:
    """The stack lays each table's support out as a row, padded to the
    widest, and adds each row left to right; every table keeps the bits of
    the one-table sum."""

    def test_lone_table_sums_in_order(self):
        # a pairwise sum (np.add.reduce) moves the last bit here; the stack adds in order
        a, b, c, d = 1, 20, 19, 150
        odds, p = one_table_fisher(a, b, c, d)
        res = fisher_exact([[a, b], [c, d]])
        assert (res.statistic, res.p_value) == (odds, p)
        assert fisher_exact([[[a, b], [c, d]]]).p_value.tolist() == [p]
        assert fisher_exact([[[a, b], [c, d]], [[2, 7], [3, 9]]]).p_value[0] == p
        pairwise = one_table_fisher(a, b, c, d, add=lambda t: np.add.reduce(t[:, None], axis=0))
        assert pairwise[1] != p

    @pytest.mark.parametrize(
        "tables",
        [
            # supports of 3 to 3 901 steps
            [(1, 1, 1, 1), (3, 5, 6, 4), (60, 70, 80, 90), (2000, 2100, 1900, 2000)],
            # as given, a row margin above the other column's total, so the
            # support starts above 0 until the orientation turns it around
            [(30, 2, 5, 1), (900, 4, 7, 3), (12, 0, 1, 1)],
            # supports of 12, 103 and 131 steps in one stack
            [(10, 40, 1, 90), (2, 150, 100, 3), (60, 70, 80, 90), (1, 50, 3, 60)],
            # the tables of one explanation share (c1, c2)
            [(a, 200 - a, 150 - a, 1300 + a) for a in (0, 3, 17, 40, 99, 150)],
        ],
        ids=["widths", "lo-above-zero", "tenfold-widths", "shared-margins"],
    )
    def test_stack_matches_one_table_sums(self, tables):
        for stack in (tables, [t[::-1] for t in tables], tables[:1]):
            res = fisher_exact(np.array(stack).reshape(-1, 2, 2))
            expected = [one_table_fisher(*t) for t in stack]
            assert list(zip(res.statistic.tolist(), res.p_value.tolist())) == expected


class TestWelchT:
    def test_moments_match_numpy(self):
        """welch_t takes its means and variances from np.add.reduce passes; the
        statistic has the bits of one built from np.mean and np.var(ddof=1)."""
        rng = np.random.default_rng(26)
        for nx, ny in [(2, 2), (3, 1000), (7, 129), (128, 9), (513, 4097)]:
            xs = rng.normal(50.0, 15.0, nx)
            ys = rng.normal(48.0, 3.0, ny) * rng.choice([1.0, 1e-3, 1e6])
            a, b = np.var(xs, ddof=1) / nx, np.var(ys, ddof=1) / ny
            t = (float(np.mean(xs)) - float(np.mean(ys))) / math.sqrt(float(a) + float(b))
            res = welch_t(xs, ys)
            assert res.statistic == t
            assert stats.sample_mean(xs) == float(np.mean(xs))
            assert stats._sample_moments(ys) == (float(np.mean(ys)), float(np.var(ys, ddof=1)))

    def test_tail_matches_betainc(self):
        """_t_two_tailed(t, df) is betainc(df/2, 1/2, x) at the same double x,
        within 1e-9 relative, for df from 0.05 to 20 000; t = 0 gives 1, and
        |t| >= 50 gives tails down to underflow."""
        rng = np.random.default_rng(2024)
        dfs = np.exp(rng.uniform(math.log(0.05), math.log(20_000), 4000))
        ts = rng.standard_normal(4000) * np.exp(rng.uniform(-8, 3, 4000))
        ts[:100] = 0.0
        ts[100:600] = rng.choice([-1, 1], 500) * rng.uniform(50, 1e4, 500)
        dfs[600:900] = rng.uniform(0.05, 1.0, 300)
        for t, df in zip(ts.tolist(), dfs.tolist()):
            expected = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
            got = stats._t_two_tailed(t, df)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-300), (t, df)
        assert stats._t_two_tailed(0.0, 0.3) == 1.0
        assert stats._t_two_tailed(1e200, 3.0) == 0.0

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

    @given(st.lists(st.sampled_from([0.0, 1e-300, 0.01, 0.05, 0.5, 1.0]) | st.floats(0, 1),
                    min_size=1, max_size=60))
    @settings(deadline=None)
    def test_equals_step_up_loop(self, pvals):
        assert bh_fdr(pvals) == loop_bh_fdr(pvals)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArguments):
            bh_fdr([0.5, float("nan")])

    @pytest.mark.parametrize(
        "pvals, first",
        [([0.5, 1.2, -0.1], "1.2"), ([0.5, -0.1, 1.2], "-0.1"), ([float("nan"), 0.2, 3.0], "nan")],
    )
    def test_message_names_the_first_bad_value(self, pvals, first):
        with pytest.raises(InvalidArguments, match=rf"^p-value out of \[0, 1\]: {first}$"):
            bh_fdr(pvals)

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
