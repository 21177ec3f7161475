import numpy as np
import pytest

from fill.classify import (
    Decision,
    FillModel,
    Hyperparameters,
    base_rate,
    classify,
    impute_unknowns,
)
from fill.distance import Metric, distance_matrix
from fill.errors import ModelCohortMismatch, NoLabeledRecords, UnknownRecord
from fill.stats import binom_sf

from conftest import make_cohort, neighbors_of, random_cohort


def hp(radius, threshold, metric=Metric.JACCARD):
    return Hyperparameters(radius=radius, p_threshold=threshold, metric=metric)


class TestBaseRate:
    def test_large_cohort_rate_fixtures(self):
        labels = ["POS"] * 875 + ["NEG"] * 1543
        cohort = make_cohort([[0]] * 2418, labels)
        assert base_rate(cohort) == 875 / 2418
        labels = ["POS"] * 1079 + ["NEG"] * 692
        cohort = make_cohort([[0]] * 1771, labels)
        assert base_rate(cohort) == 1079 / 1771

    def test_all_positive(self):
        cohort = make_cohort([[0], [1]], ["POS", "POS"])
        assert base_rate(cohort) == 1.0

    def test_unknowns_excluded(self):
        cohort = make_cohort([[0], [1], [1]], ["POS", "NEG", "UNKNOWN"])
        assert base_rate(cohort) == 0.5

    def test_no_labeled(self):
        cohort = make_cohort([[0]], ["UNKNOWN"])
        with pytest.raises(NoLabeledRecords):
            base_rate(cohort)


class TestClassify:
    def test_empty_neighborhood_unclassified(self):
        cohort = make_cohort([[1, 1], [0, 0]], ["UNKNOWN", "POS"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(0.0, 0.05))
        result = classify("p0", cohort, model, dm)
        assert result.neighborhood_n == 0
        assert result.p_value == 1.0
        assert result.decision is Decision.UNCLASSIFIED

    def test_single_class_neighborhood_significant(self):
        # 10 identical positive neighbors at an uneven base rate
        p0 = 875 / 2418
        rows = [[1, 0]] * 11 + [[0, 1]] * 100
        labels = ["UNKNOWN"] + ["POS"] * 10 + ["NEG"] * 57 + ["POS"] * 43
        cohort = make_cohort(rows, labels)
        model = FillModel(
            labeled_ids=tuple(cohort.ids[1:]),
            base_rate=p0,
            hyperparameters=hp(0.0, 0.01),
        )
        dm = distance_matrix(cohort, Metric.JACCARD)
        result = classify("p0", cohort, model, dm)
        assert result.neighborhood_n == 10
        assert result.positive_k == 10
        assert result.p_value == pytest.approx(p0**10, rel=1e-12)
        assert result.decision is Decision.POS

    def test_near_expectation_not_significant(self):
        p0 = 875 / 2418
        expected = binom_sf(3, 10, p0)
        assert expected > 0.01
        rows = [[1, 0]] * 11 + [[0, 1]] * 20
        labels = ["UNKNOWN"] + ["POS"] * 3 + ["NEG"] * 7 + ["NEG"] * 20
        cohort = make_cohort(rows, labels)
        model = FillModel(
            labeled_ids=tuple(cohort.ids[1:]),
            base_rate=p0,
            hyperparameters=hp(0.0, 0.01),
        )
        dm = distance_matrix(cohort, Metric.JACCARD)
        result = classify("p0", cohort, model, dm)
        assert result.p_value == expected
        assert result.decision is Decision.UNCLASSIFIED

    def test_self_and_exclude_removed(self):
        cohort = make_cohort([[1]] * 4, ["POS", "POS", "NEG", "UNKNOWN"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(1.0, 0.5))
        res = classify("p0", cohort, model, dm)
        ids = neighbors_of("p0", cohort, model, dm)
        assert "p0" not in ids
        assert res.neighborhood_n == 2
        assert ids == ("p1", "p2")

    def test_matrix_of_another_metric_rejected(self):
        cohort = make_cohort([[1, 0], [1, 1], [0, 1]], ["UNKNOWN", "POS", "NEG"])
        dm = distance_matrix(cohort, Metric.MANHATTAN)
        model = FillModel.fit(cohort, hp(0.5, 0.05))
        with pytest.raises(ValueError, match="manhattan, not jaccard"):
            classify("p0", cohort, model, dm)
        with pytest.raises(ValueError, match="manhattan, not jaccard"):
            impute_unknowns(cohort, model, dm)

    def test_matrix_checked_without_unknown_records(self):
        cohort = make_cohort([[1, 0], [1, 1], [0, 1]], ["POS", "NEG", "POS"])
        model = FillModel.fit(cohort, hp(0.5, 0.05))
        assert impute_unknowns(cohort, model, distance_matrix(cohort, Metric.JACCARD)) == []
        with pytest.raises(ValueError, match="manhattan, not jaccard"):
            impute_unknowns(cohort, model, distance_matrix(cohort, Metric.MANHATTAN))
        other = make_cohort([[1, 0], [1, 1], [0, 1]], ["POS", "NEG", "POS"], ids=["a", "b", "c"])
        with pytest.raises(ValueError, match="does not cover this cohort"):
            impute_unknowns(cohort, model, distance_matrix(other, Metric.JACCARD))

    def test_model_of_another_labeled_set_rejected(self):
        c1 = make_cohort([[1], [0], [1]], ["POS", "NEG", "UNKNOWN"])
        c2 = make_cohort([[1], [0], [1]], ["POS", "UNKNOWN", "UNKNOWN"])
        model = FillModel.fit(c1, hp(0.5, 0.05))
        with pytest.raises(ModelCohortMismatch):
            classify("p2", c2, model, distance_matrix(c2, Metric.JACCARD))

    def test_metric_must_be_a_metric(self):
        with pytest.raises(TypeError, match="metric must be a Metric, not str"):
            Hyperparameters(0.5, 0.05, "jaccard")

    def test_unknown_record_error(self, tiny_mixed_cohort):
        dm = distance_matrix(tiny_mixed_cohort, Metric.GOWER)
        model = FillModel.fit(tiny_mixed_cohort, hp(0.5, 0.05, Metric.GOWER))
        with pytest.raises(UnknownRecord):
            classify("nope", tiny_mixed_cohort, model, dm)

    def test_unknown_labels_never_evidence(self):
        rng = np.random.default_rng(3)
        cohort = random_cohort(rng, 40, 5, n_unknown=15)
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(0.6, 0.5))
        unknown = set(cohort.unknown_ids)
        for rid in cohort.ids:
            assert unknown.isdisjoint(neighbors_of(rid, cohort, model, dm))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(23)
        cohort = random_cohort(rng, 40, 5, n_unknown=10)
        dm = distance_matrix(cohort, Metric.JACCARD)
        for t1, t2 in [(0.001, 0.01), (0.01, 0.2), (0.2, 1.0)]:
            m1 = FillModel.fit(cohort, hp(0.5, t1))
            m2 = FillModel.fit(cohort, hp(0.5, t2))
            for rid in cohort.unknown_ids:
                d1 = classify(rid, cohort, m1, dm).decision
                d2 = classify(rid, cohort, m2, dm).decision
                if d1 is Decision.POS:
                    assert d2 is Decision.POS

    def test_neighbor_sets_nest_in_radius(self):
        rng = np.random.default_rng(29)
        cohort = random_cohort(rng, 35, 6, n_unknown=5)
        dm = distance_matrix(cohort, Metric.JACCARD)
        radii = [0.0, 0.2, 0.5, 0.8, 1.0]
        for rid in cohort.ids:
            previous = set()
            for radius in radii:
                model = FillModel.fit(cohort, hp(radius, 0.05))
                current = set(neighbors_of(rid, cohort, model, dm))
                assert previous <= current
                previous = current


class TestImputeUnknowns:
    def test_no_unknowns(self):
        cohort = make_cohort([[1], [0]], ["POS", "NEG"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(0.5, 0.05))
        assert impute_unknowns(cohort, model, dm) == []

    def test_duplicate_free_radius_zero_unclassified(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1]]
        cohort = make_cohort(rows, ["POS", "NEG", "POS", "UNKNOWN", "UNKNOWN"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(0.0, 0.999))
        results = impute_unknowns(cohort, model, dm)
        assert len(results) == 2
        assert all(r.decision is Decision.UNCLASSIFIED for r in results)
        assert all(r.neighborhood_n == 0 for r in results)

    def test_distance_zero_twin_block_classified(self):
        # one unknown sits at distance 0 from 20 POS records; any reasonable
        # base rate makes 20-of-20 significant at 0.05
        rows = [[1, 1]] * 21 + [[0, 0]] * 20
        labels = ["UNKNOWN"] + ["POS"] * 20 + ["NEG"] * 20
        cohort = make_cohort(rows, labels)
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(0.0, 0.05))
        results = impute_unknowns(cohort, model, dm)
        assert len(results) == 1
        assert results[0].decision is Decision.POS
        assert binom_sf(20, 20, 0.85) < 0.05  # oracle sanity for the claim

    def test_output_order_and_threads_identical(self):
        rng = np.random.default_rng(31)
        cohort = random_cohort(rng, 50, 6, n_unknown=20)
        dm = distance_matrix(cohort, Metric.JACCARD)
        model = FillModel.fit(cohort, hp(0.5, 0.1))
        first, *again = [impute_unknowns(cohort, model, dm) for _ in range(3)]
        assert [r.record_id for r in first] == list(cohort.unknown_ids)
        assert again == [first, first]

    def test_model_cohort_mismatch(self):
        c1 = make_cohort([[1], [0], [1]], ["POS", "NEG", "UNKNOWN"])
        c2 = make_cohort([[1], [0], [1]], ["POS", "UNKNOWN", "UNKNOWN"])
        dm = distance_matrix(c2, Metric.JACCARD)
        model = FillModel.fit(c1, hp(0.5, 0.05))
        with pytest.raises(ModelCohortMismatch):
            impute_unknowns(c2, model, dm)

    def test_model_cohort_mismatch_without_unknowns(self):
        c1 = make_cohort([[1], [0], [1]], ["POS", "NEG", "UNKNOWN"])
        c2 = make_cohort([[1], [0], [1]], ["POS", "NEG", "NEG"])
        dm = distance_matrix(c2, Metric.JACCARD)
        model = FillModel.fit(c1, hp(0.5, 0.05))
        with pytest.raises(ModelCohortMismatch):
            impute_unknowns(c2, model, dm)
