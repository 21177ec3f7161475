import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fill.distance
from fill.cohort import Cohort, FeatureSchema, Label, load_cohort, write_cohort
from fill.distance import (
    ROW_BLOCK,
    Metric,
    _block,
    code_factors,
    code_values,
    distance_block,
    distance_matrix,
    gower,
    jaccard,
    manhattan,
    pair_codes,
)
from fill.errors import IncompatibleMetric, LengthMismatch, MatrixTooLarge
from fill.tune import _codes_fit

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
        # Gower's pair-code table, which the grid counts with, is Jaccard's too
        cohort = make_cohort([a, b], ["POS", "NEG"])
        expected = code_values(cohort, Metric.JACCARD).tobytes()
        assert code_values(cohort, Metric.GOWER).tobytes() == expected

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
        # no metric has pair codes over continuous features
        for metric in Metric:
            with pytest.raises(IncompatibleMetric, match="without continuous features"):
                code_values(cohort, metric)

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
        # a record's 1-row block against the labeled records, as a
        # neighborhood reads it: rows at the block edges, an UNKNOWN
        # record and an all-zero row
        labeled = np.flatnonzero(cohort.labeled_mask)
        unknown = int(np.flatnonzero(~cohort.labeled_mask)[0])
        for i in sorted({0, 255, 256, n - 1, unknown, 250} & set(range(n))):
            row, _ = distance_block(cohort, metric, [i], labeled)
            assert row[0].tobytes() == values[i, labeled].tobytes()


class TestOwnDistance:
    """A record's distance to itself is exactly 0.0 from distance blocks and
    from its own pair code, so it is inside every ball of radius >= 0."""

    @pytest.mark.parametrize(
        "metric, n_continuous",
        [(Metric.JACCARD, 0), (Metric.MANHATTAN, 0), (Metric.GOWER, 0), (Metric.GOWER, 3)],
    )
    def test_own_column_and_own_code_are_zero(self, metric, n_continuous):
        base = random_cohort(np.random.default_rng(31), 300, 7, n_unknown=60,
                             n_continuous=n_continuous)
        binary = base.binary.copy()
        labeled = np.flatnonzero(base.labeled_mask)
        # all-zero records: labeled ones in both row blocks and an UNKNOWN one
        zero = [labeled[0], labeled[-1], int(np.flatnonzero(~base.labeled_mask)[0])]
        binary[zero] = 0
        continuous = base.continuous.copy()
        if n_continuous:
            # large magnitudes with a small span
            continuous[:, 0] = 1e12 + continuous[:, 0] / 7
        cohort = make_cohort(
            binary.tolist(), [lab.name for lab in base.labels],
            continuous_rows=continuous, continuous_names=base.schema.continuous_names,
        )
        assert len(cohort) > ROW_BLOCK
        for start in range(0, len(cohort), ROW_BLOCK):
            values, _ = distance_block(cohort, metric, slice(start, start + ROW_BLOCK), slice(None))
            assert (values.diagonal(start) == 0.0).all()
        if n_continuous == 0:
            labeled_bits = cohort.binary[cohort.labeled_mask]
            own = pair_codes(*code_factors(labeled_bits, labeled_bits)).diagonal()
            assert (code_values(cohort, metric)[own] == 0.0).all()
            assert (own == labeled_bits.sum(axis=1)).all() and (own == 0).any()


class TestMetricType:
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: distance_matrix(c, "manhattan"),
            lambda c: distance_block(c, "manhattan", slice(0, 2), slice(None)),
            lambda c: code_values(c, "manhattan"),
        ],
        ids=["distance_matrix", "distance_block", "code_values"],
    )
    def test_string_metric_rejected(self, call):
        cohort = make_cohort([[1, 0, 1], [0, 1, 1], [1, 1, 0]], ["POS", "NEG", "UNKNOWN"])
        with pytest.raises(TypeError, match="metric must be a Metric, not str"):
            call(cohort)

    def test_string_metric_rejected_by_require_cover(self):
        cohort = make_cohort([[1, 0, 1], [0, 1, 1], [1, 1, 0]], ["POS", "NEG", "UNKNOWN"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        with pytest.raises(TypeError, match="metric must be a Metric, not str"):
            dm.require_cover(cohort, "jaccard")


class TestMatrixLimit:
    def test_limit_admits_paper_scale(self):
        assert 11_950**2 * 8 <= fill.distance.MATRIX_LIMIT_BYTES

    def test_refused_before_allocating(self, monkeypatch):
        cohort = make_cohort([[1, 0], [0, 1], [1, 1]], ["POS", "NEG", "UNKNOWN"])
        monkeypatch.setattr(fill.distance, "MATRIX_LIMIT_BYTES", 3 * 3 * 8 - 1)
        with pytest.raises(MatrixTooLarge, match="n = 3 records needs 72 bytes, over the limit of 71 bytes"):
            distance_matrix(cohort, Metric.JACCARD)
        monkeypatch.setattr(fill.distance, "MATRIX_LIMIT_BYTES", 3 * 3 * 8)
        assert distance_matrix(cohort, Metric.JACCARD).values.shape == (3, 3)


class TestPairCodes:
    @given(
        n_features=st.integers(1, 80),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # all-ones rows at the widest float32-exact schema: the largest magnitudes
    @example(n_features=2047, shape=(9, 11), density=1.0, seed=0)
    @example(n_features=2047, shape=(9, 11), density=0.5, seed=0)
    @settings(deadline=None, max_examples=150)
    def test_codes_equal_integer_brute_force(self, n_features, shape, density, seed):
        rng = np.random.default_rng(seed)
        rows, columns = (
            (rng.random((n, n_features)) < density).astype(np.uint8) for n in shape
        )
        a = rows[:, None, :].astype(np.int64)
        b = columns[None, :, :].astype(np.int64)
        mismatch = (a != b).sum(axis=2)
        union = (a | b).sum(axis=2)
        codes = pair_codes(*code_factors(rows, columns))
        assert codes.shape == shape
        assert np.array_equal(codes, mismatch * (n_features + 1) + union)

    def test_float32_bound_picks_the_count_path(self):
        # (F + 1)**2 <= n * n_labeled for both widths: only the float32 rule differs
        n = 2100
        assert 4 * 2047**2 + 7 * 2047 < 2**24 < 4 * 2048**2 + 7 * 2048
        for n_features, fits in [(2047, True), (2048, False)]:
            assert (n_features + 1) ** 2 <= n * n
            cohort = Cohort.make(
                FeatureSchema(tuple(f"b{j}" for j in range(n_features)), ()),
                [f"p{i}" for i in range(n)],
                np.zeros((n, n_features), dtype=np.uint8),
                np.zeros((n, 0)),
                [Label.POS, Label.NEG] * (n // 2),
            )
            assert _codes_fit(cohort) is fits
