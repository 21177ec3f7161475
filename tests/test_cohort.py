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
from oracles import naive_write_cohort

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

    @pytest.mark.parametrize("rid", ["a\tb", "r\x0103", "a\x7f", "\x85"])
    def test_control_character_id_rejected(self, tmp_path, rid):
        path = write_lines(
            tmp_path,
            ["record_id,label,b0,b1,age", "p1,POS,1,0,5.0", f"{rid},NEG,0,1,6.0"],
        )
        with pytest.raises(MalformedRow) as err:
            load_cohort(path, SCHEMA)
        assert err.value.line_no == 3
        assert err.value.reason == f"record id {rid!r} holds a control character"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("line_no", [1, 6])
    def test_non_utf8_byte_names_its_line(self, tmp_path, eol, line_no):
        lines = ["record_id,label,b0,b1,age"] + [f"p{i},POS,1,0,5.0" for i in range(6)]
        data = bytearray(eol.join(lines).encode())
        data[data.index(lines[line_no - 1].encode()) + 1] = 0xE9
        path = tmp_path / "latin1.csv"
        path.write_bytes(bytes(data))
        with pytest.raises(MalformedRow) as err:
            load_cohort(path, SCHEMA)
        assert err.value.line_no == line_no
        assert "0xe9" in err.value.reason

    def test_line_endings_load_alike(self, tmp_path):
        # text mode reads CR and CRLF as LF, so no id can end in a CR
        text = "record_id,label,b0,b1,age\np1,POS,1,0,62.5\np2,NEG,0,1,41.0\n"
        loaded = []
        for eol in ("\n", "\r\n", "\r"):
            path = tmp_path / f"eol{len(loaded)}.csv"
            path.write_bytes(text.replace("\n", eol).encode())
            loaded.append(load_cohort(path, SCHEMA))
        assert loaded[0] == loaded[1] == loaded[2]
        assert loaded[0].ids == ("p1", "p2")


PINNED = FeatureSchema(binary_names=("b0", "b1", "b2"), continuous_names=("age",))


def _bad_bit(line_no, name, cell):
    return line_no, f"binary cell for {name!r} must be 0 or 1, found {cell!r}"


# (data rows after the header, line_no, reason) for every binary-block error
BINARY_BLOCK_ERRORS = {
    "first_column": (["p1,POS,2,0,1,5.0"], *_bad_bit(2, "b0", "2")),
    "middle_column": (["p1,POS,0,x,1,5.0"], *_bad_bit(2, "b1", "x")),
    "last_column": (["p1,POS,0,1,7,5.0"], *_bad_bit(2, "b2", "7")),
    "first_of_two_named": (["p1,POS,0,3,4,5.0"], *_bad_bit(2, "b1", "3")),
    "empty_cell": (["p1,POS,,0,1,5.0"], *_bad_bit(2, "b0", "")),
    "leading_blank": (["p1,POS,0, 1,1,5.0"], *_bad_bit(2, "b1", " 1")),
    "two_digits": (["p1,POS,0,1,01,5.0"], *_bad_bit(2, "b2", "01")),
    "two_on_line_4": (
        ["p1,POS,1,1,1,5.0", "p2,NEG,0,0,0,6.0", "p3,NEG,0,2,0,7.0"],
        *_bad_bit(4, "b1", "2"),
    ),
    "bad_label_on_earlier_line_first": (
        ["p1,POS,0,0,0,5.0", "p2,MAYBE,0,0,0,5.0", "p3,POS,0,2,0,5.0"],
        3,
        "label must be POS/NEG/UNKNOWN, found 'MAYBE'",
    ),
    "binary_before_continuous_on_one_line": (["p1,POS,0,0,2,inf"], *_bad_bit(2, "b2", "2")),
}


class TestBinaryBlockMessages:
    @pytest.mark.parametrize("case", sorted(BINARY_BLOCK_ERRORS))
    def test_message_and_line(self, tmp_path, case):
        rows, line_no, reason = BINARY_BLOCK_ERRORS[case]
        path = write_lines(tmp_path, [",".join(PINNED.header()), *rows])
        with pytest.raises(MalformedRow) as err:
            load_cohort(path, PINNED)
        assert err.value.line_no == line_no
        assert err.value.reason == reason
        assert str(err.value) == f"line {line_no}: {reason}"


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
        # any id the format can hold: no comma, which delimits cells, and no
        # control character (Cc holds the line breaks), plus ids that look
        # like other cell kinds or hold other Unicode separators
        id_text = st.text(
            st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters=","),
            min_size=1,
        )
        edge_ids = st.sampled_from(
            [" ", " p1 ", "0", "1e5", "nan", "POS", "\ufeffid", "\u2028", "\u00a0", "é" * 40]
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

    @pytest.mark.parametrize("rid", ["", "a,b", "a\nb", "a\rb", "a\tb", "a\x01b"])
    def test_unwritable_id_rejected(self, tmp_path, rid):
        cohort = make_cohort([[1]], ["POS"], ids=[rid])
        with pytest.raises(ValueError, match="cannot be written"):
            write_cohort(cohort, tmp_path / "c.csv")

    @pytest.mark.parametrize(
        "n, n_binary, n_continuous",
        [(40, 6, 2), (40, 0, 3), (0, 4, 1), (0, 0, 0), (25, 9, 0), (1, 1, 0), (300, 60, 0)],
    )
    def test_bytes_match_per_cell_writer(self, tmp_path, n, n_binary, n_continuous):
        rng = np.random.default_rng(1000 * n + 10 * n_binary + n_continuous)
        schema = FeatureSchema(
            tuple(f"b{j}" for j in range(n_binary)), tuple(f"c{j}" for j in range(n_continuous))
        )
        # continuous values span the float64 exponent range
        scale = 10.0 ** rng.integers(-300, 300, size=(n, n_continuous))
        cohort = Cohort.make(
            schema,
            [f"r{i}" if i % 3 else f"é {i}" for i in range(n)],
            rng.integers(0, 2, size=(n, n_binary)),
            rng.normal(0, 1, size=(n, n_continuous)) * scale,
            [list(Label)[k] for k in rng.integers(0, 3, size=n)],
        )
        write_cohort(cohort, tmp_path / "rows.csv")
        naive_write_cohort(cohort, tmp_path / "cells.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_ten_thousand_record_round_trip(self, tmp_path):
        rng = np.random.default_rng(10_000)
        cohort = random_cohort(rng, 10_000, 8, n_unknown=2_000, n_continuous=2)
        path = tmp_path / "big.csv"
        write_cohort(cohort, path)
        assert load_cohort(path, cohort.schema) == cohort


class TestBinaryInvariant:
    def test_value_two_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Cohort.make(FeatureSchema(("x",), ()), ["p1"], [[2]], np.zeros((1, 0)), [Label.POS])

    def test_negative_int64_rejected(self):
        # -1 casts to 255 on the way to uint8
        binary = np.array([[0], [-1]], dtype=np.int64)
        with pytest.raises(ValueError, match="0 or 1"):
            Cohort.make(FeatureSchema(("x",), ()), ["p1", "p2"], binary, np.zeros((2, 0)),
                        [Label.POS, Label.NEG])

    def test_wider_dtype_rejected_by_constructor(self, tiny_mixed_cohort):
        c = tiny_mixed_cohort
        with pytest.raises(ValueError, match="uint8"):
            Cohort(c.schema, c.ids, c.binary.astype(np.int64), c.continuous, c.labels,
                   c.continuous_ranges)

    def test_feature_subsets_construct(self):
        rng = np.random.default_rng(17)
        cohort = random_cohort(rng, 50, 6, n_unknown=5, n_continuous=1)
        subsets = (select_features(cohort, ["b1", "c0"]), prevalence_filter(cohort, 0.2, 0.8))
        for sub in subsets:
            assert sub.binary.dtype == np.uint8
            assert set(np.unique(sub.binary)) <= {0, 1}


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


class TestContinuousInvariant:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected_by_constructor(self, tiny_mixed_cohort, value):
        # a record at a non-finite value would not be at distance 0 from itself
        c = tiny_mixed_cohort
        continuous = c.continuous.copy()
        continuous[2, 0] = value
        with pytest.raises(ValueError, match="continuous values must be finite"):
            Cohort(c.schema, c.ids, c.binary, continuous, c.labels, c.continuous_ranges)


class TestSelectFeatures:
    def test_subset_keeps_schema_order(self, tiny_mixed_cohort):
        sub = select_features(tiny_mixed_cohort, ["age", "b1"])
        assert sub.schema.binary_names == ("b1",)
        assert sub.schema.continuous_names == ("age",)
        assert sub.continuous_ranges == tiny_mixed_cohort.continuous_ranges

    def test_unknown_feature(self, tiny_mixed_cohort):
        with pytest.raises(ValueError):
            select_features(tiny_mixed_cohort, ["nope"])
