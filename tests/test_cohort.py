import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill.cohort import (
    Cohort,
    FeatureSchema,
    Label,
    aggregate_ef,
    load_cohort,
    prevalence_filter,
    select_features,
    write_cohort,
)
from fill.errors import (
    DuplicateId,
    EmptyMeasurements,
    MalformedRow,
    NoLabeledRecords,
    OutOfRange,
    SchemaMismatch,
)

from conftest import make_cohort, random_cohort

SCHEMA = FeatureSchema(
    binary_names=("b0", "b1"), continuous_names=("age",)
)


def write_lines(tmp_path, lines):
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(("x", "x"), ())
        with pytest.raises(ValueError):
            FeatureSchema(("record_id",), ())

    def test_bad_characters_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(("a b",), ())
        with pytest.raises(ValueError):
            FeatureSchema(("a,b",), ())


class TestLoadCohort:
    def test_valid_file(self, tmp_path):
        path = write_lines(
            tmp_path,
            [
                "record_id,label,b0,b1,age",
                "p1,POS,1,0,62.5",
                "p2,neg,0,0,41.0",
                "p3,Unknown,1,1,77.25",
            ],
        )
        cohort = load_cohort(path, SCHEMA)
        assert len(cohort) == 3
        assert cohort.labels == (Label.POS, Label.NEG, Label.UNKNOWN)
        assert cohort.binary[0].tolist() == [1, 0]
        assert cohort.continuous_ranges == ((41.0, 77.25),)

    def test_binary_cell_out_of_domain(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", "p1,POS,2,0,50.0"],
        )
        with pytest.raises(MalformedRow) as err:
            load_cohort(path, SCHEMA)
        assert err.value.line_no == 2

    def test_duplicate_id(self, tmp_path):
        path = write_lines(
            tmp_path,
            [
                "record_id,label,b0,b1,age",
                "p1,POS,1,0,50.0",
                "p1,NEG,0,0,51.0",
            ],
        )
        with pytest.raises(DuplicateId):
            load_cohort(path, SCHEMA)

    def test_schema_mismatch(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["record_id,label,b1,b0,age", "p1,POS,1,0,50.0"],
        )
        with pytest.raises(SchemaMismatch) as err:
            load_cohort(path, SCHEMA)
        assert err.value.expected == "b0"
        assert err.value.found == "b1"

    def test_empty_continuous_cell_rejected(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", "p1,POS,1,0,"],
        )
        with pytest.raises(MalformedRow):
            load_cohort(path, SCHEMA)

    def test_non_finite_continuous_rejected(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", "p1,POS,1,0,inf"],
        )
        with pytest.raises(MalformedRow):
            load_cohort(path, SCHEMA)

    def test_bad_label(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", "p1,MAYBE,1,0,5.0"],
        )
        with pytest.raises(MalformedRow):
            load_cohort(path, SCHEMA)

    def test_wrong_cell_count(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", "p1,POS,1,0"],
        )
        with pytest.raises(MalformedRow):
            load_cohort(path, SCHEMA)

    @pytest.mark.parametrize("cell", ["1_0", " 2", "2 ", " 2 ", "\t2"])
    def test_lenient_float_spelling_rejected(self, tmp_path, cell):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", f"p1,POS,1,0,{cell}"],
        )
        with pytest.raises(MalformedRow) as err:
            load_cohort(path, SCHEMA)
        assert err.value.line_no == 2
        assert "'age'" in err.value.reason

    def test_byte_order_mark_rejected(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("record_id,label,b0,b1,age\np1,POS,1,0,5.0\n", encoding="utf-8-sig")
        with pytest.raises(MalformedRow) as err:
            load_cohort(path, SCHEMA)
        assert err.value.line_no == 1
        assert "byte-order mark" in err.value.reason


class TestRoundTrip:
    def test_small_round_trip(self, tmp_path, tiny_mixed_cohort):
        path = tmp_path / "out.csv"
        write_cohort(tiny_mixed_cohort, path)
        schema = tiny_mixed_cohort.schema
        assert load_cohort(path, schema) == tiny_mixed_cohort

    def test_empty_cohort_round_trip(self, tmp_path):
        cohort = make_cohort([], [])
        path = tmp_path / "empty.csv"
        write_cohort(cohort, path)
        assert path.read_text() == "record_id,label\n"
        assert load_cohort(path, cohort.schema) == cohort

    @pytest.mark.parametrize("seed", [0, 7, 991, 2**31])
    def test_randomized_round_trip(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        cohort = random_cohort(rng, 30, 4, n_unknown=6, n_continuous=2)
        path = tmp_path / f"c{seed}.csv"
        write_cohort(cohort, path)
        assert load_cohort(path, cohort.schema) == cohort

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_round_trip_is_bitwise(self, tmp_path_factory, data):
        # any id the format can hold: no comma or line break, which delimit
        # cells and lines, plus ids that look like other cell kinds
        id_text = st.text(
            st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"),
            min_size=1,
        )
        edge_ids = st.sampled_from(
            [" ", " p1 ", "0", "1e5", "nan", "POS", "\ufeffid", "\x85", "\u2028", "\x0c", "é" * 40]
        )
        ids = data.draw(st.lists(st.one_of(id_text, edge_ids), max_size=8, unique=True))
        n = len(ids)
        extreme = st.sampled_from(
            [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0, 0.1]
        )
        values = st.one_of(extreme, st.floats(allow_nan=False, allow_infinity=False))
        continuous = data.draw(st.lists(values, min_size=2 * n, max_size=2 * n))
        binary = data.draw(st.lists(st.integers(0, 1), min_size=3 * n, max_size=3 * n))
        labels = data.draw(st.lists(st.sampled_from(list(Label)), min_size=n, max_size=n))
        schema = FeatureSchema(("b0", "b1", "b2"), ("c0", "c1"))
        cohort = Cohort.make(schema, ids, binary, continuous, labels)
        path = tmp_path_factory.mktemp("round_trip") / "c.csv"
        write_cohort(cohort, path)
        loaded = load_cohort(path, schema)
        assert loaded == cohort
        assert loaded.continuous.tobytes() == cohort.continuous.tobytes()

    @pytest.mark.parametrize("rid", ["", "a,b", "a\nb", "a\rb"])
    def test_unwritable_id_rejected(self, tmp_path, rid):
        cohort = make_cohort([[1]], ["POS"], ids=[rid])
        with pytest.raises(ValueError, match="cannot be written"):
            write_cohort(cohort, tmp_path / "c.csv")

    def test_ten_thousand_record_round_trip(self, tmp_path):
        rng = np.random.default_rng(10_000)
        cohort = random_cohort(rng, 10_000, 8, n_unknown=2_000, n_continuous=2)
        path = tmp_path / "big.csv"
        write_cohort(cohort, path)
        assert load_cohort(path, cohort.schema) == cohort


class TestAggregateEf:
    def test_lowest_measurement_wins(self):
        assert aggregate_ef([62, 55, 28]) is Label.NEG

    def test_single_preserved(self):
        assert aggregate_ef([55]) is Label.POS

    def test_mid_band_unknown(self):
        assert aggregate_ef([45, 60]) is Label.UNKNOWN

    def test_boundaries(self):
        assert aggregate_ef([30]) is Label.NEG
        assert aggregate_ef([50]) is Label.UNKNOWN
        assert aggregate_ef([50.0001]) is Label.POS

    def test_errors(self):
        with pytest.raises(EmptyMeasurements):
            aggregate_ef([])
        with pytest.raises(OutOfRange):
            aggregate_ef([55, 101])
        with pytest.raises(OutOfRange):
            aggregate_ef([-3])

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=8), st.randoms())
    @settings(deadline=None)
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert aggregate_ef(values) is aggregate_ef(shuffled)


class TestPrevalenceFilter:
    def test_absent_feature_removed(self):
        rows = [[0, 1 if i % 2 == 0 else 0] for i in range(10)]
        cohort = make_cohort(rows, ["POS"] * 5 + ["NEG"] * 5)
        filtered = prevalence_filter(cohort)
        assert filtered.schema.binary_names == ("b1",)

    def test_balanced_feature_kept(self):
        rows = [[1], [1], [0], [0]]
        cohort = make_cohort(rows, ["POS", "NEG", "POS", "NEG"])
        filtered = prevalence_filter(cohort)
        assert filtered.schema.binary_names == ("b0",)

    def test_prevalence_over_labeled_only(self):
        # 300 labeled with the feature present twice (0.67%), plus 1000
        # unlabeled carrying it half the time: still removed
        labeled_rows = [[1] if i < 2 else [0] for i in range(300)]
        unlabeled_rows = [[1] if i < 500 else [0] for i in range(1000)]
        labels = ["POS"] * 150 + ["NEG"] * 150 + ["UNKNOWN"] * 1000
        cohort = make_cohort(labeled_rows + unlabeled_rows, labels)
        filtered = prevalence_filter(cohort)
        assert filtered.schema.binary_names == ()
        assert len(filtered) == 1300

    def test_boundary_prevalence_kept(self):
        # exactly 1% prevalence stays: the removal bounds are strict
        rows = [[1] if i < 1 else [0] for i in range(100)]
        cohort = make_cohort(rows, ["POS"] * 50 + ["NEG"] * 50)
        filtered = prevalence_filter(cohort, lo=0.01, hi=0.99)
        assert filtered.schema.binary_names == ("b0",)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        cohort = random_cohort(rng, 60, 8, n_unknown=10)
        once = prevalence_filter(cohort, 0.1, 0.9)
        twice = prevalence_filter(once, 0.1, 0.9)
        assert once == twice

    def test_features_subset_and_records_unchanged(self):
        rng = np.random.default_rng(13)
        cohort = random_cohort(rng, 50, 6, n_unknown=5, n_continuous=1)
        filtered = prevalence_filter(cohort, 0.2, 0.8)
        assert set(filtered.schema.binary_names) <= set(cohort.schema.binary_names)
        assert filtered.schema.continuous_names == cohort.schema.continuous_names
        assert filtered.ids == cohort.ids
        assert filtered.continuous_ranges == cohort.continuous_ranges

    def test_no_labeled_records(self):
        cohort = make_cohort([[1]], ["UNKNOWN"])
        with pytest.raises(NoLabeledRecords):
            prevalence_filter(cohort)


class TestSelectFeatures:
    def test_subset_keeps_schema_order(self, tiny_mixed_cohort):
        sub = select_features(tiny_mixed_cohort, ["age", "b1"])
        assert sub.schema.binary_names == ("b1",)
        assert sub.schema.continuous_names == ("age",)
        assert sub.continuous_ranges == tiny_mixed_cohort.continuous_ranges

    def test_unknown_feature(self, tiny_mixed_cohort):
        with pytest.raises(ValueError):
            select_features(tiny_mixed_cohort, ["nope"])
