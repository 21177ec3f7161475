"""Self-test of the benchmark's output checker and trace wrappers.

    python3 -m pytest perfbench/test_check.py

Real `fill tune` / `fill impute` outputs on a small cohort must pass the
checker; each corrupted copy must fail it.
"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import tracing  # noqa: E402
from fill import cli  # noqa: E402
from fill.cohort import write_cohort  # noqa: E402
from fill.synth import default_spec, synth_cohort  # noqa: E402

OUTPUTS = ("grid_report.json", "grid_table.csv", "imputations.csv", "impute_summary.json")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    cohort_csv = work / "cohort.csv"
    write_cohort(synth_cohort(default_spec(140, 60, 24, seed=3)), cohort_csv)
    common = ["--input", str(cohort_csv), "--metric", "jaccard", "--out", str(work)]
    assert cli.main(["tune", "--criterion", "b", "--min-precision", "0.85", *common]) == 0
    winner = json.loads((work / "grid_report.json").read_text())["winner"]
    assert cli.main(["impute", "--radius", repr(winner["radius"]),
                     "--pvalue", repr(winner["p_threshold"]), *common]) == 0
    files = {name: (work / name).read_bytes() for name in OUTPUTS}
    return check.CohortData(cohort_csv), files


def wrong_outputs(data, files):
    checker = check.Checker()
    check.check_cli(checker, data, files, [0, 5])
    return checker.wrong


def edit_imputations(files, edit):
    rows = list(csv.DictReader(io.StringIO(files["imputations.csv"].decode())))
    edit(rows)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return {**files, "imputations.csv": out.getvalue().encode()}


def test_true_outputs_pass(run):
    data, files = run
    assert wrong_outputs(data, files) == 0


def test_flipped_decision_is_wrong(run):
    data, files = run

    def flip(rows):
        row = next(r for r in rows if r["decision"] == "POS")
        row["decision"] = "UNCLASSIFIED"

    assert wrong_outputs(data, edit_imputations(files, flip)) > 0


def test_scaled_p_value_is_wrong(run):
    data, files = run

    def scale(rows):
        row = next(r for r in rows if float(r["p_value"]) < 0.5)
        row["p_value"] = repr(float(row["p_value"]) * (1 + 1e-6))

    assert wrong_outputs(data, edit_imputations(files, scale)) > 0


def test_swapped_winner_cell_is_wrong(run):
    data, files = run
    report = json.loads(files["grid_report.json"])
    w = report["winner"]
    other = next(c for c in report["grid"]
                 if (c["radius"], c["p_threshold"]) != (w["radius"], w["p_threshold"]) and c["tp"] > 0)
    report["winner"] = other
    assert wrong_outputs(data, {**files, "grid_report.json": json.dumps(report).encode()}) > 0


def test_missing_wrap_point_reports_null(monkeypatch):
    import fill.tune

    monkeypatch.delattr(fill.tune, "binom_sf")
    tracer = tracing.Tracer()
    with tracer:
        pass
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["stats.binom_sf_calls"]["value"] is None
    assert metrics["tune.grid_self_s"]["value"] is None
    assert metrics["distance.matrix_calls"]["value"] == 0.0
    assert any("fill.tune.binom_sf" in w for w in tracer.warnings)
    assert not hasattr(fill.tune, "binom_sf")
