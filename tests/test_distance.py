import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill.cohort import load_cohort, write_cohort
from fill.distance import (
    Metric,
    _block,
    distance_matrix,
    gower,
    jaccard,
    manhattan,
)
from fill.errors import IncompatibleMetric, LengthMismatch

from conftest import make_cohort, random_cohort, reversed_cohort
from oracles import naive_gower, naive_jaccard, naive_manhattan

bits = st.lists(st.integers(0, 1), min_size=1, max_size=24)


def paired_bits():
    return bits.flatmap(
        lambda a: st.tuples(
            st.just(a), st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a))
        )
    )


class TestScalarMetrics:
    def test_jaccard_fixture(self):
        assert jaccard([1, 0, 1], [1, 1, 0]) == pytest.approx(2 / 3)

    def test_jaccard_identity_and_all_zero(self):
        assert jaccard([1, 0, 1], [1, 0, 1]) == 0.0
        assert jaccard([0, 0, 0], [0, 0, 0]) == 0.0

    def test_manhattan_fixtures(self):
        assert manhattan([1, 0, 1], [1, 1, 0]) == 2.0
        assert manhattan([1, 1, 1, 1], [0, 0, 0, 0]) == 4.0
        assert manhattan([1, 0], [1, 0]) == 0.0

    def test_gower_mixed_fixture(self):
        # shared binary 1 scores 0; age gap 25 over range 50 scores 0.5
        assert gower([1], [1], [60.0], [85.0], [(35.0, 85.0)]) == pytest.approx(0.25)

    def test_gower_asymmetric_binary(self):
        assert gower([0, 1], [0, 0], [], [], []) == 1.0

    def test_gower_identity(self):
        assert gower([1, 0], [1, 0], [4.0], [4.0], [(0.0, 9.0)]) == 0.0

    def test_gower_zero_range_feature_excluded(self):
        # zero-span feature carries zero weight instead of dividing by zero
        assert gower([1], [1], [7.0], [7.0], [(7.0, 7.0)]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            jaccard([1, 0], [1])
        with pytest.raises(LengthMismatch):
            manhattan([1, 0], [1])
        with pytest.raises(LengthMismatch):
            gower([1], [1], [1.0], [1.0], [])

    @given(paired_bits())
    @settings(deadline=None)
    def test_properties_against_naive(self, pair):
        a, b = pair
        assert jaccard(a, b) == naive_jaccard(a, b)
        assert manhattan(a, b) == naive_manhattan(a, b)
        assert jaccard(a, b) == jaccard(b, a)
        assert manhattan(a, b) == manhattan(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0
        assert jaccard(a, a) == 0.0
        assert manhattan(a, a) == 0.0

    @given(paired_bits())
    @settings(deadline=None)
    def test_gower_equals_jaccard_on_pure_binary(self, pair):
        a, b = pair
        assert gower(a, b, [], [], []) == jaccard(a, b)

    @given(paired_bits())
    @settings(deadline=None)
    def test_manhattan_vs_simple_matching(self, pair):
        a, b = pair
        smd = sum(1 for x, y in zip(a, b) if x != y) / len(a)
        assert manhattan(a, b) == pytest.approx(len(a) * smd, rel=1e-12)

    @given(
        pair=paired_bits(),
        xs=st.lists(st.floats(0, 100), min_size=2, max_size=2),
        ys=st.floats(0, 100),
    )
    @settings(deadline=None)
    def test_gower_range_and_symmetry(self, pair, xs, ys):
        a, b = pair
        lo, hi = min(xs[0], ys), max(xs[0], ys)
        ranges = [(lo, hi)]
        d = gower(a, b, [xs[0]], [ys], ranges)
        assert d == naive_gower(a, b, [xs[0]], [ys], ranges)
        assert 0.0 <= d <= 1.0
        assert d == gower(b, a, [ys], [xs[0]], ranges)


class TestDistanceMatrix:
    def test_single_record(self):
        cohort = make_cohort([[1, 0]], ["POS"])
        dm = distance_matrix(cohort, Metric.MANHATTAN)
        assert dm.values.shape == (1, 1)
        assert dm.values[0, 0] == 0.0

    @pytest.mark.parametrize("metric", list(Metric))
    def test_empty_cohort(self, metric):
        dm = distance_matrix(make_cohort([], []), metric)
        assert dm.values.shape == (0, 0)
        assert dm.degenerate_pairs == 0

    def test_incompatible_metric(self):
        cohort = make_cohort(
            [[1]], ["POS"], continuous_rows=[[50.0]], continuous_names=("age",)
        )
        with pytest.raises(IncompatibleMetric):
            distance_matrix(cohort, Metric.JACCARD)
        with pytest.raises(IncompatibleMetric):
            distance_matrix(cohort, Metric.MANHATTAN)
        distance_matrix(cohort, Metric.GOWER)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_matrix_matches_scalar_bitwise(self, metric):
        rng = np.random.default_rng(5)
        n_cont = 2 if metric is Metric.GOWER else 0
        base = random_cohort(rng, 40, 6, n_unknown=5, n_continuous=n_cont)
        binary = base.binary.copy()
        binary[:2] = 0  # an all-zero pair hits the zero-weight convention
        continuous = base.continuous
        names = base.schema.continuous_names
        if metric is Metric.GOWER:
            # a zero-span feature carries zero weight
            continuous = np.column_stack([continuous, np.full(len(base), 3.0)])
            names += ("flat",)
        cohort = make_cohort(
            binary.tolist(),
            [lab.name for lab in base.labels],
            continuous_rows=continuous,
            continuous_names=names,
        )
        dm = distance_matrix(cohort, metric)
        for i in range(len(cohort)):
            for j in range(len(cohort)):
                a, b = cohort.binary[i], cohort.binary[j]
                if metric is Metric.JACCARD:
                    expected = jaccard(a, b)
                    naive = naive_jaccard(a.tolist(), b.tolist())
                elif metric is Metric.MANHATTAN:
                    expected = manhattan(a, b)
                    naive = naive_manhattan(a.tolist(), b.tolist())
                else:
                    x, y = cohort.continuous[i], cohort.continuous[j]
                    ranges = cohort.continuous_ranges
                    expected = gower(a, b, x, y, ranges)
                    naive = naive_gower(a.tolist(), b.tolist(), x.tolist(), y.tolist(), ranges)
                assert dm.values[i, j] == expected
                assert dm.values[i, j] == naive
        assert np.array_equal(dm.values, dm.values.T)
        assert np.all(np.diag(dm.values) == 0.0)

    def test_equal_ids_of_another_cohort_are_covered(self, tmp_path):
        cohort = make_cohort([[1, 0], [0, 1], [1, 1]], ["POS", "NEG", "UNKNOWN"])
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        loaded = load_cohort(path, cohort.schema)
        assert loaded.ids == cohort.ids and loaded.ids is not cohort.ids
        dm = distance_matrix(cohort, Metric.JACCARD)
        dm.require_cover(cohort, Metric.JACCARD)
        dm.require_cover(loaded, Metric.JACCARD)
        with pytest.raises(ValueError, match="does not cover this cohort"):
            dm.require_cover(reversed_cohort(loaded), Metric.JACCARD)
        with pytest.raises(ValueError, match="jaccard, not gower"):
            dm.require_cover(cohort, Metric.GOWER)

    def test_degenerate_pair_count(self):
        cohort = make_cohort([[0, 0], [0, 0], [1, 0]], ["POS", "NEG", "POS"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        # only the all-zero/all-zero pair hits the 0/0 convention
        assert dm.degenerate_pairs == 1
        assert dm.values[0, 1] == 0.0
        # 300 all-zero rows span two row blocks
        for n_zero in (4, 300):
            cohort = make_cohort([[0, 0]] * n_zero + [[1, 1]], ["POS"] * (n_zero + 1))
            expected = n_zero * (n_zero - 1) // 2
            assert distance_matrix(cohort, Metric.JACCARD).degenerate_pairs == expected

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    @pytest.mark.parametrize(
        "metric, n_continuous",
        [(Metric.JACCARD, 0), (Metric.MANHATTAN, 0), (Metric.GOWER, 0), (Metric.GOWER, 2)],
    )
    def test_row_blocks_match_whole_block(self, n, metric, n_continuous):
        """Bytes and degenerate count equal one whole-cohort `_block` call."""
        base = random_cohort(np.random.default_rng(n), n, 6, n_unknown=n // 4,
                             n_continuous=n_continuous)
        binary = base.binary.copy()
        # all-zero rows straddle the block boundaries at rows 256 and 512
        binary[250:262] = 0
        binary[505:518] = 0
        continuous, names = base.continuous, base.schema.continuous_names
        if metric is Metric.GOWER:
            # a zero-span feature carries zero weight
            continuous = np.column_stack([continuous, np.full(n, 3.0)])
            names += ("flat",)
        cohort = make_cohort(
            binary.tolist(), [lab.name for lab in base.labels],
            continuous_rows=continuous, continuous_names=names,
        )
        values, empty = _block(
            cohort.binary, cohort.binary, metric,
            cohort.continuous, cohort.continuous, cohort.continuous_ranges,
        )
        np.fill_diagonal(values, 0.0)
        degenerate = (np.count_nonzero(empty) - np.count_nonzero(empty.diagonal())) // 2
        dm = distance_matrix(cohort, metric)
        assert dm.values.tobytes() == values.tobytes()
        assert dm.degenerate_pairs == degenerate
        if metric is not Metric.MANHATTAN and n_continuous == 0:
            assert degenerate > 0
