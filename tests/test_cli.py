import json

import pytest

import fill.cli
import fill.distance
import fill.tune
from fill.cli import main, parse_config_file, parse_schema_spec, build_config

from conftest import make_cohort
from fill.cohort import write_cohort


def run(argv):
    return main(argv)


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = run(
        [
            "synth", "--seed", "7", "--n-labeled", "120", "--n-unlabeled", "40",
            "--n-features", "18", "--n-phenotypes", "2", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# a comment\n"
            "metric = jaccard\n"
            "radius = 0.88\n"
            "pvalue = 1.48e-02\n"
            "seed = 11\n",
            encoding="utf-8",
        )
        values = parse_config_file(cfg_file)
        assert values["metric"] == "jaccard"
        # known-good hyperparameter pairs must parse to exact floats
        assert float(values["radius"]) == 0.88
        assert float(values["pvalue"]) == 1.48e-02

    def test_second_pair_format_fixture(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("radius = 0.86\npvalue = 3.32e-04\n", encoding="utf-8")
        values = parse_config_file(cfg_file)
        assert float(values["radius"]) == 0.86
        assert float(values["pvalue"]) == 3.32e-04

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense = 1\n", encoding="utf-8")
        code = run(["tune", "--config", str(cfg_file)])
        assert code == 1

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("threads = 4\nseed = 3\n", encoding="utf-8")

        class Args:
            config = str(cfg_file)
            threads = 8
            seed = None

        cfg = build_config(Args())
        assert cfg.threads == 8
        assert cfg.seed == 3


class TestSchemaSpec:
    def test_roles(self):
        roles = parse_schema_spec("continuous=age,bmi;ignore=x1")
        assert roles["continuous"] == {"age", "bmi"}
        assert roles["ignore"] == {"x1"}

    def test_empty(self):
        roles = parse_schema_spec("")
        assert roles["continuous"] == set() and roles["ignore"] == set()

    def test_bad_role(self, tmp_path):
        from fill.errors import UsageError

        with pytest.raises(UsageError):
            parse_schema_spec("nope=x")


class TestSynthCommand:
    def test_writes_cohort_and_truth(self, synth_dir):
        cohort = (synth_dir / "synthetic_cohort.csv").read_text().splitlines()
        truth = (synth_dir / "synthetic_truth.csv").read_text().splitlines()
        assert len(cohort) == 1 + 160
        assert len(truth) == 1 + 160
        assert cohort[0].startswith("record_id,label,f000")

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--seed", "9", "--n-labeled", "30", "--n-unlabeled", "10"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert (a / "synthetic_cohort.csv").read_bytes() == (
            b / "synthetic_cohort.csv"
        ).read_bytes()


class TestTuneCommand:
    def test_tune_writes_report_and_table(self, synth_dir, tmp_path):
        out = tmp_path / "tuned"
        code = run(
            [
                "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--criterion", "b",
                "--min-precision", "0.8",
                "--radius-grid", "0.0,0.3,0.5,0.7,1.0",
                "--pvalue-grid", "0.001,0.01,0.05",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "grid_report.json").read_text())
        assert report["feasible"] is True
        assert report["criterion"] == {"type": "b", "min_precision": 0.8}
        assert report["winner"]["precision"] >= 0.8
        assert len(report["grid"]) == 15
        table = (out / "grid_table.csv").read_text().splitlines()
        assert table[0] == "S,T,tp,fp,precision,yield"
        assert len(table) == 16

    @pytest.mark.parametrize("metric", ["jaccard", "manhattan", "gower"])
    def test_tune_builds_no_distance_matrix(self, synth_dir, tmp_path, monkeypatch, metric):
        def refuse(*args, **kwargs):
            raise AssertionError("fill tune built the n x n distance matrix")

        monkeypatch.setattr(fill.tune, "distance_matrix", refuse)
        monkeypatch.setattr(fill.distance, "distance_matrix", refuse)
        out = tmp_path / metric
        code = run(
            [
                "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", metric, "--criterion", "a", "--min-tp", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads((out / "grid_report.json").read_text())["feasible"] is True

    def test_empty_grid_usage_error(self, synth_dir, tmp_path):
        code = run(
            [
                "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--pvalue-grid", " ",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--radius-grid", "0.5,-1"), ("--pvalue-grid", "0.05,2"),
            ("--radius-grid", "0.5,nan"), ("--radius-grid", "0.5,inf"),
        ],
    )
    def test_bad_grid_value_usage_error(self, synth_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        code = run(
            [
                "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", flag, value, "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not (out / "grid_table.csv").exists()
        assert not (out / "grid_report.json").exists()

    def test_no_feasible_cell_exit_2_report_written(self, synth_dir, tmp_path):
        out = tmp_path / "nofeasible"
        code = run(
            [
                "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--criterion", "a",
                "--min-tp", "100000",
                "--radius-grid", "0.5", "--pvalue-grid", "0.05",
                "--out", str(out),
            ]
        )
        assert code == 2
        report = json.loads((out / "grid_report.json").read_text())
        assert report["feasible"] is False
        assert report["winner"] is None
        assert len(report["grid"]) == 1

    def test_double_run_identical_config(self, synth_dir, tmp_path):
        args = [
            "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
            "--metric", "jaccard", "--criterion", "a", "--min-tp", "5",
            "--radius-grid", "0.0,0.4,0.8", "--pvalue-grid", "0.01,0.05",
        ]
        a, b = tmp_path / "first", tmp_path / "second"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        for name in ("grid_report.json", "grid_table.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rerun_identical_across_threads(self, synth_dir, tmp_path):
        outputs = []
        for tag, threads in (("t1", "1"), ("t4", "4"), ("t8", "8")):
            out = tmp_path / tag
            code = run(
                [
                    "tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                    "--metric", "jaccard", "--criterion", "b",
                    "--min-precision", "0.5",
                    "--radius-grid", "0.0,0.3,0.5,0.7,1.0",
                    "--pvalue-grid", "0.001,0.01,0.05",
                    "--threads", threads, "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (out / "grid_report.json").read_bytes(),
                    (out / "grid_table.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]


class TestImputeCommand:
    def test_impute_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "imputed"
        code = run(
            [
                "impute", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--radius", "0.5", "--pvalue", "0.01",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "imputations.csv").read_text().splitlines()
        assert lines[0] == "record_id,n,k,p_value,decision"
        assert len(lines) == 1 + 40
        assert all(line.split(",")[4] in ("POS", "UNCLASSIFIED") for line in lines[1:])
        summary = json.loads((out / "impute_summary.json").read_text())
        assert summary["n_unknown"] == 40
        assert summary["n_labeled"] == 120

    def test_no_unknown_records(self, tmp_path):
        cohort = make_cohort([[1], [0], [1], [0]], ["POS", "NEG", "POS", "NEG"])
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        out = tmp_path / "out"
        code = run(
            [
                "impute", "--input", str(path), "--metric", "jaccard",
                "--radius", "0.5", "--pvalue", "0.05", "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "impute_summary.json").read_text())
        assert summary["n_unknown"] == 0
        assert summary["n_imputed_pos"] == 0

    def test_malformed_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("record_id,label,f0\np1,POS,2\n", encoding="utf-8")
        code = run(
            [
                "impute", "--input", str(bad), "--metric", "jaccard",
                "--radius", "0.5", "--pvalue", "0.05",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_radius_usage_error(self, synth_dir, tmp_path):
        code = run(
            [
                "impute", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1

    def test_rerun_identical_across_threads(self, synth_dir, tmp_path):
        blobs = []
        for tag, threads in (("i1", "1"), ("i4", "4"), ("i8", "8")):
            out = tmp_path / tag
            code = run(
                [
                    "impute", "--input", str(synth_dir / "synthetic_cohort.csv"),
                    "--metric", "jaccard", "--radius", "0.5", "--pvalue", "0.01",
                    "--threads", threads, "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append(
                (
                    (out / "imputations.csv").read_bytes(),
                    (out / "impute_summary.json").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1] == blobs[2]


class TestExplainCommand:
    def test_nine_records_nine_volcanoes(self, synth_dir, tmp_path):
        out = tmp_path / "expl"
        ids = [f"r{i:04d}" for i in range(9)]
        code = run(
            [
                "explain", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--radius", "0.6", "--pvalue", "0.05",
                "--out", str(out), *ids,
            ]
        )
        assert code == 0
        volcanoes = sorted(out.glob("volcano_*.csv"))
        assert len(volcanoes) == 9
        header = volcanoes[0].read_text().splitlines()[0]
        assert header == "feature,kind,effect,raw_p,adjusted_p"
        top = (out / "top_features.csv").read_text().splitlines()
        assert top[0] == "record_id,1st,2nd,3rd,4th,5th"
        assert len(top) == 10

    def test_duplicate_ids_deduplicated_with_warning(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "expl2"
        code = run(
            [
                "explain", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--radius", "0.6", "--pvalue", "0.05",
                "--out", str(out), "r0001", "r0001",
            ]
        )
        assert code == 0
        assert "duplicate" in capsys.readouterr().err
        assert len(list(out.glob("volcano_*.csv"))) == 1

    def test_empty_neighborhood_partial_success(self, tmp_path, capsys):
        rows = [[1, 0, 0], [0, 1, 0], [0, 1, 1], [0, 1, 1], [0, 1, 0]]
        labels = ["UNKNOWN", "POS", "NEG", "POS", "NEG"]
        cohort = make_cohort(rows, labels, ids=["lonely", "a", "b", "c", "d"])
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        out = tmp_path / "out"
        code = run(
            [
                "explain", "--input", str(path), "--metric", "jaccard",
                "--radius", "0.35", "--pvalue", "0.5", "--out", str(out),
                "lonely", "a",
            ]
        )
        assert code == 0
        report = json.loads((out / "explain_report.json").read_text())
        statuses = {r["record_id"]: r["status"] for r in report["records"]}
        assert statuses["lonely"] == "error"
        assert statuses["a"] == "ok"

    def test_unnameable_id_is_an_error_status(self, tmp_path, capsys):
        rows = [[1, 0, 0], [1, 0, 1], [0, 1, 1], [0, 1, 0], [1, 1, 0]]
        labels = ["UNKNOWN", "POS", "NEG", "POS", "NEG"]
        cohort = make_cohort(rows, labels, ids=["r/1", "a", "b", "c", "d"])
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        out = tmp_path / "out"
        code = run(
            [
                "explain", "--input", str(path), "--metric", "jaccard",
                "--radius", "0.7", "--pvalue", "0.5", "--out", str(out),
                "r/1", "a",
            ]
        )
        assert code == 0
        records = json.loads((out / "explain_report.json").read_text())["records"]
        assert [r["status"] for r in records] == ["error", "ok"]
        assert "'/'" in records[0]["reason"]
        assert capsys.readouterr().err.startswith("error: r/1: record id 'r/1' cannot")
        assert [p.name for p in out.glob("volcano_*.csv")] == ["volcano_a.csv"]
        top = (out / "top_features.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in top[1:]] == ["a"]

    def test_all_fail_exit_1(self, tmp_path):
        rows = [[1, 0], [0, 1], [1, 1]]
        cohort = make_cohort(rows, ["POS", "NEG", "POS"])
        path = tmp_path / "c.csv"
        write_cohort(cohort, path)
        code = run(
            [
                "explain", "--input", str(path), "--metric", "jaccard",
                "--radius", "0.0", "--pvalue", "0.5",
                "--out", str(tmp_path / "o"), "p0",
            ]
        )
        assert code == 1


class TestLooAndBaselineCommands:
    def test_loo_report(self, synth_dir, tmp_path):
        out = tmp_path / "loo"
        code = run(
            [
                "loo", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--radius", "0.5", "--pvalue", "0.01",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "loo_report.json").read_text())
        assert set(report) == {
            "radius", "p_threshold", "metric", "tp", "fp", "precision", "yield"
        }

    def test_loo_jaccard_builds_no_distance_matrix(self, synth_dir, tmp_path, monkeypatch):
        def loo(out):
            argv = [
                "loo", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--radius", "0.5", "--pvalue", "0.01",
                "--out", str(out),
            ]
            assert run(argv) == 0
            return (out / "loo_report.json").read_bytes()

        with monkeypatch.context() as patch:
            patch.setattr(fill.tune, "_codes_fit", lambda cohort, metric: False)
            expected = loo(tmp_path / "matrix")

        def refuse(*args, **kwargs):
            raise AssertionError("fill loo built the n x n distance matrix")

        monkeypatch.setattr(fill.cli, "distance_matrix", refuse)
        monkeypatch.setattr(fill.tune, "distance_matrix", refuse)
        assert loo(tmp_path / "codes") == expected

    def test_baseline_report_bracket_convention(self, synth_dir, tmp_path):
        out = tmp_path / "base"
        code = run(
            [
                "baseline", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "baseline_report.txt").read_text().splitlines()
        assert lines[0].startswith("cutoff_default = 0.5")
        assert any(line.startswith("accuracy = ") and "(" in line for line in lines)
        assert any(line.startswith("precision = ") for line in lines)
        assert any(line.startswith("c_statistic = ") for line in lines)


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run(["tune", "--nonsense"]) == 1

    def test_missing_input(self, tmp_path):
        assert run(["tune", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "header, encoding, named",
        [
            ("record_id,label,f0", "utf-8-sig", "'\\ufeffrecord_id'"),
            ("record_id,label,f 0", "utf-8", "'f 0'"),
        ],
        ids=["bom", "space"],
    )
    def test_bad_header_name_usage_error(self, tmp_path, capsys, header, encoding, named):
        path = tmp_path / "h.csv"
        path.write_text(header + "\np1,POS,1\n", encoding=encoding)
        code = run(
            [
                "impute", "--input", str(path), "--metric", "jaccard",
                "--radius", "0.5", "--pvalue", "0.05", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_interleaved_continuous_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "record_id,label,age,f0\np1,POS,44.0,1\n", encoding="utf-8"
        )
        code = run(
            [
                "loo", "--input", str(path), "--schema", "continuous=age",
                "--metric", "gower", "--radius", "0.5", "--pvalue", "0.05",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tune", "--criterion", "b", "--min-precision", "nan"],
            ["tune", "--criterion", "b", "--min-precision", "inf"],
            ["tune", "--criterion", "b", "--min-precision=-inf"],
            ["loo", "--radius", "inf", "--pvalue", "0.05"],
            ["impute", "--radius", "inf", "--pvalue", "0.05"],
            ["explain", "--radius", "inf", "--pvalue", "0.05", "r0001"],
        ],
    )
    def test_usage_error_and_no_report(self, synth_dir, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = run(
            argv + ["--input", str(synth_dir / "synthetic_cohort.csv"),
                    "--metric", "jaccard", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be finite" in captured.err
        assert list(tmp_path.glob("out/*")) == []

    def test_config_file_value_checked_too(self, synth_dir, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("radius = inf\npvalue = 0.05\n", encoding="utf-8")
        code = run(
            ["loo", "--config", str(cfg_file), "--metric", "jaccard",
             "--input", str(synth_dir / "synthetic_cohort.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: radius must be finite\n"


class TestCriterionRanges:
    """A criterion no cell can meet, or that means nothing, is a usage error."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "criterion, key, value, message",
        [
            ("b", "min_precision", "2", "min_precision must be in [0, 1], got 2.0"),
            ("b", "min_precision", "-0.5", "min_precision must be in [0, 1], got -0.5"),
            ("a", "min_tp", "-5", "min_tp must be an integer >= 0, got -5"),
        ],
    )
    def test_usage_error_before_the_grid(
        self, synth_dir, tmp_path, capsys, monkeypatch, source, criterion, key, value, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(fill.tune, "evaluate_grid", refuse)
        out = tmp_path / "out"
        argv = ["tune", "--input", str(synth_dir / "synthetic_cohort.csv"),
                "--metric", "jaccard", "--out", str(out)]
        if source == "flag":
            argv += ["--criterion", criterion, f"--{key.replace('_', '-')}={value}"]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(f"criterion = {criterion}\n{key} = {value}\n", encoding="utf-8")
            argv += ["--config", str(cfg_file)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (out / "grid_report.json").exists()


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_every_command_writes_strict_json(tmp_path):
    """Every .json a command writes parses with NaN and Infinity refused."""
    cohort = tmp_path / "synth" / "synthetic_cohort.csv"
    model = ["--input", str(cohort), "--metric", "jaccard", "--radius", "0.6", "--pvalue", "0.05"]
    runs = [
        (["synth", "--seed", "3", "--n-labeled", "90", "--n-unlabeled", "30",
          "--n-features", "12", "--out", str(tmp_path / "synth")], 0),
        (["tune", "--input", str(cohort), "--metric", "jaccard", "--criterion", "b",
          "--min-precision", "0.5", "--out", str(tmp_path / "tune")], 0),
        (["tune", "--input", str(cohort), "--metric", "jaccard", "--criterion", "b",
          "--min-precision", "1", "--radius-grid", "1", "--pvalue-grid", "1e-6",
          "--out", str(tmp_path / "infeasible")], 2),
        (["loo", *model, "--out", str(tmp_path / "loo")], 0),
        (["impute", *model, "--out", str(tmp_path / "impute")], 0),
        (["explain", *model, "--out", str(tmp_path / "explain"), "r0000", "r0100"], 0),
        (["baseline", "--input", str(cohort), "--out", str(tmp_path / "baseline")], 0),
    ]
    for argv, expected in runs:
        assert run(argv) == expected, argv
    written = sorted(tmp_path.rglob("*.json"))
    assert [p.relative_to(tmp_path).as_posix() for p in written] == [
        "explain/explain_report.json", "impute/impute_summary.json",
        "infeasible/grid_report.json", "loo/loo_report.json", "tune/grid_report.json",
    ]
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)
