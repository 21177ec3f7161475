import json

import numpy as np
import pytest

import fill.cli
import fill.distance
import fill.tune
from fill.cli import build_parser, config_keys, main, parse_config_file, parse_schema_spec

from conftest import make_cohort
from fill.cohort import Cohort, FeatureSchema, write_cohort
from fill.synth import default_spec, synth_cohort_with_truth


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

    CONFIG = "metric = jaccard\nradius = 0.6\npvalue = 0.05\n"

    def run_with_config(self, synth_dir, tmp_path, config, *flags, command="loo"):
        """Run one command with `config` as its file; return (metric, S, T) from its report."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        code = run([command, "--config", str(cfg_file), "--out", str(out),
                    "--input", str(synth_dir / "synthetic_cohort.csv"), *flags])
        assert code == 0
        name = {"loo": "loo_report.json", "impute": "impute_summary.json"}[command]
        report = json.loads((out / name).read_text(encoding="utf-8"))
        return report["metric"], report["radius"], report["p_threshold"]

    def test_value_used_without_a_flag(self, synth_dir, tmp_path):
        used = self.run_with_config(synth_dir, tmp_path, self.CONFIG)
        assert used == ("jaccard", 0.6, 0.05)

    def test_flag_overrides_value(self, synth_dir, tmp_path):
        flags = ["--radius", "0.7", "--metric", "manhattan"]
        used = self.run_with_config(synth_dir, tmp_path, self.CONFIG, *flags)
        assert used == ("manhattan", 0.7, 0.05)

    def test_flag_overrides_value_outside_its_choices(self, synth_dir, tmp_path):
        # only the value in use is checked against the choices
        config = self.CONFIG.replace("jaccard", "Jaccard")
        used = self.run_with_config(synth_dir, tmp_path, config, "--metric", "jaccard")
        assert used == ("jaccard", 0.6, 0.05)

    def test_another_commands_key_accepted(self, synth_dir, tmp_path):
        config = self.CONFIG + "min_tp = 3\nseed = -1\nn_labeled = many\n"
        used = self.run_with_config(synth_dir, tmp_path, config, command="impute")
        assert used == ("jaccard", 0.6, 0.05)

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("loo", "radius = wide", "argument --radius: invalid float value: 'wide'"),
            ("tune", "min_tp = 2.5", "argument --min-tp: invalid int value: '2.5'"),
            ("synth", "seed = x", "argument --seed: invalid int value: 'x'"),
        ],
    )
    def test_value_failing_its_type(self, synth_dir, tmp_path, capsys, command, line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"pvalue = 0.05\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run([command, "--config", str(cfg_file), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value, choices",
        [
            ("tune", "criterion", "c", "'a', 'b'"),
            ("impute", "metric", "nope", "'jaccard', 'manhattan', 'gower'"),
        ],
    )
    def test_value_outside_its_choices(self, synth_dir, tmp_path, capsys, command, key, value, choices):
        # the flag's message, given before the cohort is read or --out is made
        message = f"error: argument --{key}: invalid choice: '{value}' (choose from {choices})\n"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"radius = 0.6\npvalue = 0.05\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg_file), "--out", str(out),
                     "--input", str(synth_dir / "synthetic_cohort.csv")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", message)
        assert not out.exists()
        assert main([command, f"--{key}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == message

    def test_unknown_key_names_its_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# header\nradius = 0.5\nradious = 0.6\n", encoding="utf-8")
        assert run(["loo", "--config", str(cfg_file)]) == 1
        assert capsys.readouterr().err == "error: config line 3: unknown key 'radious'\n"

    def test_keys_are_every_commands_option_destinations(self, tmp_path):
        parser = build_parser()
        dests = set()
        for command in parser.commands:
            argv = [command, "r0001"] if command == "explain" else [command]
            dests |= set(vars(parser.parse_args(argv)))
        dests -= {"command", "run", "records", "config"}
        assert config_keys() == dests == {
            "input", "schema", "out", "threads", "metric", "radius", "pvalue",
            "criterion", "min_precision", "min_tp", "radius_grid", "pvalue_grid", "seed",
            "n_labeled", "n_unlabeled", "n_features", "n_phenotypes", "positive_fraction",
            "noise",
        }
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{key} = 1\n" for key in sorted(dests)), encoding="utf-8")
        assert set(parse_config_file(cfg_file)) == dests


class TestSeed:
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_synth_seed_outside_64_bits(self, tmp_path, capsys, seed):
        out = tmp_path / "s"
        code = run(["synth", f"--seed={seed}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: seed must fit in 64 bits\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tune", "impute", "explain", "loo", "baseline"])
    def test_only_synth_takes_a_seed(self, capsys, command):
        argv = [command, "--seed=1"] + (["r0001"] if command == "explain" else [])
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed=1\n"


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            # flags of other commands
            ["tune", "--radius", "0.5"], ["tune", "--pvalue", "0.05"],
            ["synth", "--input", "x.csv"], ["synth", "--schema", "continuous=c0"],
            # abbreviations of flags the command has
            ["impute", "--rad", "0.5"], ["tune", "--radius-g", "0.5"],
            ["loo", "--metr", "jaccard"], ["synth", "--n-lab", "5"],
        ],
    )
    def test_each_flag_belongs_to_its_commands_in_full(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        extra = [] if argv[0] == "synth" else ["--input", str(tmp_path / "missing.csv")]
        assert run(argv + extra + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {' '.join(argv[1:])}\n"
        assert not out.exists()


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
        assert not out.exists()

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


class TestTuneThenImpute:
    """`fill impute` at the winner of `fill tune` imputes POS for as many
    UNKNOWN records as the winner's yield says: the grid's count-space
    decisions and impute's per-record tests agree."""

    @pytest.mark.parametrize("metric, n_continuous", [("jaccard", 0), ("gower", 3)])
    def test_impute_at_the_winner_gives_its_yield(self, tmp_path, metric, n_continuous):
        base, _ = synth_cohort_with_truth(default_spec(300, 150, 30, seed=7))
        names = tuple(f"c{j:02d}" for j in range(n_continuous))
        continuous = np.random.default_rng(7).normal(50, 15, size=(len(base), n_continuous))
        cohort = Cohort.make(
            FeatureSchema(base.schema.binary_names, names),
            base.ids, base.binary, continuous, base.labels,
        )
        path = tmp_path / "cohort.csv"
        write_cohort(cohort, path)
        # with continuous columns the grid counts from sorted rows, else from pair codes
        assert fill.tune._codes_fit(cohort) is not bool(n_continuous)
        inputs = ["--input", str(path), "--metric", metric]
        if names:
            inputs += ["--schema", "continuous=" + ",".join(names)]
        tuned, imputed = tmp_path / "tuned", tmp_path / "imputed"
        assert run(["tune", *inputs, "--criterion", "b", "--out", str(tuned)]) == 0
        winner = json.loads((tuned / "grid_report.json").read_text())["winner"]
        assert run([
            "impute", *inputs, "--radius", repr(winner["radius"]),
            "--pvalue", repr(winner["p_threshold"]), "--out", str(imputed),
        ]) == 0
        summary = json.loads((imputed / "impute_summary.json").read_text())
        assert summary["n_imputed_pos"] > 0
        assert summary["n_imputed_pos"] == round(winner["yield"] * summary["n_labeled"])
        assert summary["yield_proportion"] == winner["yield"]


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


@pytest.mark.parametrize("command", [["impute"], ["explain", "p0"]])
def test_matrix_over_the_limit_exit_1(synth_dir, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(fill.distance, "MATRIX_LIMIT_BYTES", 1000)
    out = tmp_path / "o"
    code = run(
        command + [
            "--input", str(synth_dir / "synthetic_cohort.csv"), "--metric", "jaccard",
            "--radius", "0.5", "--pvalue", "0.05", "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: a distance matrix of n = 160 records needs 204800 bytes")
    assert not (out / "imputations.csv").exists()
    assert list(out.iterdir()) == []


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
            patch.setattr(fill.tune, "_codes_fit", lambda cohort: False)
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

    @pytest.mark.parametrize("line_no", [1, 6])
    def test_non_utf8_byte_exit_1(self, synth_dir, tmp_path, capsys, line_no):
        lines = (synth_dir / "synthetic_cohort.csv").read_bytes().split(b"\n")
        lines[line_no - 1] = b"r\xe9" + lines[line_no - 1][1:]
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\n".join(lines))
        assert run(["tune", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: not UTF-8 at byte 0xe9")
        assert err.count("\n") == 1

    def test_out_naming_a_file(self, synth_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        for out in (afile, afile / "sub"):
            code = run(
                [
                    "loo", "--input", str(synth_dir / "synthetic_cohort.csv"),
                    "--metric", "jaccard", "--radius", "0.5", "--pvalue", "0.05",
                    "--out", str(out),
                ]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot create output directory {out}: ")
            assert err.count("\n") == 1

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
            ["tune", "--radius-grid", "nan"],
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
        assert not out.exists()

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
        assert not out.exists()


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
        (["explain", *model, "--out", str(tmp_path / "explain"), "r0000", "r0100",
          "no\tsuch"], 0),
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
