import numpy as np
import pytest
import scipy.stats

from fill.classify import FillModel, Hyperparameters
from fill.cohort import Cohort, FeatureSchema, Label, prevalence_filter
from fill.distance import Metric, distance_matrix
from fill.errors import EmptyComplement, EmptyNeighborhood
from fill.explain import (
    FeatureComparison,
    FeatureKind,
    compare_groups,
    explain_record,
    format_feature_cell,
    top_features,
    NeighborhoodExplanation,
)
from fill.stats import fisher_exact
from fill.synth import default_spec, synth_cohort_with_truth

from conftest import make_cohort, random_cohort


def hp(radius, threshold, metric=Metric.JACCARD):
    return Hyperparameters(radius=radius, p_threshold=threshold, metric=metric)


def masks(n, neighbor_idx):
    neighbor = np.zeros(n, dtype=bool)
    neighbor[list(neighbor_idx)] = True
    complement = ~neighbor
    return neighbor, complement


class TestCompareGroups:
    def test_enriched_binary_feature(self):
        # neighbors 20 with 15 present, others 180 with 45 present -> OR 9
        rows = [[1]] * 15 + [[0]] * 5 + [[1]] * 45 + [[0]] * 135
        cohort = make_cohort(rows, ["POS"] * 200)
        neighbor, complement = masks(200, range(20))
        (name, kind, effect, raw_p), = compare_groups(cohort, neighbor, complement)
        assert kind is FeatureKind.BINARY
        assert effect == pytest.approx(9.0)
        assert raw_p == fisher_exact([[15, 45], [5, 135]]).p_value

    def test_identical_prevalence_null(self):
        rows = ([[1]] * 5 + [[0]] * 5) * 2
        cohort = make_cohort(rows, ["POS"] * 20)
        neighbor, complement = masks(20, range(10))
        (_, _, effect, raw_p), = compare_groups(cohort, neighbor, complement)
        assert effect == pytest.approx(1.0)
        assert raw_p == pytest.approx(1.0, abs=1e-12)

    def test_feature_absent_everywhere_no_crash(self):
        rows = [[0, 1], [0, 0], [0, 1], [0, 0]]
        cohort = make_cohort(rows, ["POS"] * 4)
        neighbor, complement = masks(4, [0, 1])
        results = compare_groups(cohort, neighbor, complement)
        absent = results[0]
        assert absent[2] > 0  # corrected odds ratio stays positive
        assert absent[3] == 1.0

    def test_swap_inverts_effects_keeps_pvalues(self):
        rng = np.random.default_rng(7)
        cohort = random_cohort(rng, 40, 3, n_continuous=2)
        neighbor, complement = masks(40, range(12))
        fwd = compare_groups(cohort, neighbor, complement)
        rev = compare_groups(cohort, complement, neighbor)
        for (na, ka, ea, pa), (nb, kb, eb, pb) in zip(fwd, rev):
            assert na == nb and ka is kb
            assert pa == pytest.approx(pb, rel=1e-12)
            if ka is FeatureKind.BINARY:
                assert ea == pytest.approx(1.0 / eb, rel=1e-12)
            else:
                assert ea == pytest.approx(-eb, rel=1e-12)

    def test_complementary_pair_reciprocal_odds(self):
        rng = np.random.default_rng(9)
        flag = rng.integers(0, 2, size=50)
        rows = [[int(v), int(1 - v)] for v in flag]
        cohort = make_cohort(rows, ["POS"] * 50)
        neighbor, complement = masks(50, range(18))
        (_, _, or_a, p_a), (_, _, or_b, p_b) = compare_groups(
            cohort, neighbor, complement
        )
        assert or_a == pytest.approx(1.0 / or_b, rel=1e-12)
        assert p_a == pytest.approx(p_b, rel=1e-12)

    def test_singleton_neighborhood_continuous_fallback(self):
        cohort = make_cohort(
            [[1]] * 4,
            ["POS"] * 4,
            continuous_rows=[[1.0], [2.0], [3.0], [4.0]],
            continuous_names=("age",),
        )
        neighbor, complement = masks(4, [0])
        results = compare_groups(cohort, neighbor, complement)
        cont = results[1]
        assert cont[1] is FeatureKind.CONTINUOUS
        assert cont[2] == pytest.approx(1.0 - 3.0)
        assert cont[3] == 1.0


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(21)
    return random_cohort(rng, 60, 5, n_unknown=10, n_continuous=1)


class TestExplainRecord:

    def test_partition_and_pooled_fdr(self, cohort):
        dm = distance_matrix(cohort, Metric.GOWER)
        model = FillModel.fit(cohort, hp(0.5, 0.05, Metric.GOWER))
        expl = explain_record(cohort.ids[0], cohort, model, dm)
        n_features = len(cohort.schema.feature_names)
        assert len(expl.comparisons) == n_features
        assert set(expl.significant) <= set(expl.comparisons)
        for c in expl.comparisons:
            assert c.adjusted_p >= c.raw_p

    def test_partition_is_exact(self, cohort):
        # |N| + |C| = labeled count minus 1 when the record itself is labeled
        dm = distance_matrix(cohort, Metric.GOWER)
        model = FillModel.fit(cohort, hp(0.5, 0.05, Metric.GOWER))
        labeled = int(cohort.labeled_mask.sum())
        for rid in cohort.ids[:8]:
            idx = cohort.id_index[rid]
            row = dm.values[idx]
            mask = cohort.labeled_mask.copy()
            mask[idx] = False
            n_count = int((mask & (row <= 0.5)).sum())
            if n_count == 0 or n_count == mask.sum():
                continue
            expl = explain_record(rid, cohort, model, dm)
            own_labeled = 1 if cohort.labels[idx] is not Label.UNKNOWN else 0
            assert expl.neighbor_count == n_count
            complement = labeled - own_labeled - expl.neighbor_count
            assert complement > 0

    def test_empty_neighborhood(self, cohort):
        dm = distance_matrix(cohort, Metric.GOWER)
        model = FillModel.fit(cohort, hp(0.0, 0.05, Metric.GOWER))
        with pytest.raises(EmptyNeighborhood):
            explain_record(cohort.ids[0], cohort, model, dm)

    def test_empty_complement(self, cohort):
        dm = distance_matrix(cohort, Metric.GOWER)
        model = FillModel.fit(cohort, hp(1.0, 0.05, Metric.GOWER))
        with pytest.raises(EmptyComplement):
            explain_record(cohort.ids[0], cohort, model, dm)


def serve_like_cohort(seed):
    """A small Gower cohort shaped like the serving benchmark's: 60 binary
    features after the prevalence filter and 3 continuous columns."""
    base, _ = synth_cohort_with_truth(default_spec(250, 150, 60, seed=seed))
    continuous = np.random.default_rng(seed).normal(50.0, 15.0, size=(len(base), 3))
    schema = FeatureSchema(base.schema.binary_names, ("c00", "c01", "c02"))
    return prevalence_filter(Cohort.make(schema, base.ids, base.binary, continuous, base.labels))


@pytest.mark.parametrize("seed", [7, 1009])
def test_binary_contrast_matches_scipy_without_flips(seed):
    """Explanations of 12 records checked against independent references.

    The 2x2 tables are recounted from the masks. Every binary raw_p is
    within 1e-9 relative of scipy.stats.fisher_exact, or exactly 1 for a
    table with a zero margin. The effect is bitwise equal to the plain odds
    (a*d)/(b*c), or to the Haldane odds where a cell is zero. The
    significant set (adjusted p < 0.05) equals the one that
    scipy.stats.false_discovery_control gives from scipy's binary p-values
    and the explanation's own Welch p-values.
    """
    cohort = serve_like_cohort(seed)
    dm = distance_matrix(cohort, Metric.GOWER)
    model = FillModel.fit(cohort, hp(0.51, 1e-3, Metric.GOWER))
    binary_names = cohort.schema.binary_names
    explained = significant = 0
    for idx, rid in enumerate(cohort.ids):
        try:
            expl = explain_record(rid, cohort, model, dm)
        except (EmptyNeighborhood, EmptyComplement):
            continue
        labeled = cohort.labeled_mask.copy()
        labeled[idx] = False
        neighbor = labeled & (dm.values[idx] <= 0.51)
        complement = labeled & ~neighbor
        reference = []
        for j, comp in enumerate(expl.comparisons):
            if comp.kind is FeatureKind.CONTINUOUS:
                reference.append(comp.raw_p)
                continue
            assert comp.feature == binary_names[j]
            col = cohort.binary[:, j].astype(int)
            a, b = int(col[neighbor].sum()), int(col[complement].sum())
            c, d = int(neighbor.sum()) - a, int(complement.sum()) - b
            if min(a, b, c, d) == 0:
                assert comp.effect == ((a + 0.5) * (d + 0.5)) / ((b + 0.5) * (c + 0.5))
            else:
                assert comp.effect == (a * d) / (b * c)
            if a + b == 0 or c + d == 0:
                expected = 1.0
            else:
                expected = float(scipy.stats.fisher_exact([[a, b], [c, d]]).pvalue)
            assert comp.raw_p == pytest.approx(expected, rel=1e-9, abs=0.0)
            reference.append(expected)
        adjusted = scipy.stats.false_discovery_control(reference, method="bh")
        expected_significant = {
            comp.feature for comp, adj in zip(expl.comparisons, adjusted) if adj < 0.05
        }
        assert {comp.feature for comp in expl.significant} == expected_significant
        significant += len(expected_significant)
        explained += 1
        if explained == 12:
            break
    assert explained == 12
    assert significant > 50


class TestTopFeatures:
    def fc(self, name, adj, raw=None, kind=FeatureKind.BINARY, effect=2.0):
        return FeatureComparison(name, kind, effect, raw if raw is not None else adj, adj)

    def test_fewer_than_k(self):
        expl = NeighborhoodExplanation(
            "r", 5,
            comparisons=tuple(self.fc(f"f{i}", 0.2) for i in range(6)),
            significant=(self.fc("a", 0.01), self.fc("b", 0.02), self.fc("c", 0.03)),
        )
        assert [c.feature for c in top_features(expl, 5)] == ["a", "b", "c"]

    def test_tie_breaks_raw_p_then_name(self):
        ties = (
            self.fc("zeta", 0.01, raw=0.004),
            self.fc("alpha", 0.01, raw=0.004),
            self.fc("mid", 0.01, raw=0.001),
        )
        expl = NeighborhoodExplanation("r", 5, ties, ties)
        assert [c.feature for c in top_features(expl, 3)] == ["mid", "alpha", "zeta"]

    def test_table_cell_rendering(self):
        cell = format_feature_cell(self.fc("Z92.1", 0.001, effect=7.05))
        assert cell == "Z92.1 (OR 7.05)"
        cont = format_feature_cell(
            self.fc("age", 0.001, kind=FeatureKind.CONTINUOUS, effect=4.275)
        )
        assert cont == "age (dMean 4.27)" or cont == "age (dMean 4.28)"
