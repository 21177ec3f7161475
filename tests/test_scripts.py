"""The experiment scripts under scripts/ run end to end on the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, written",
    [
        ("synth_pipeline.py", [
            "cohort.csv", "truth.csv", "criterion_a_report.json", "criterion_b_report.json",
            "frontier.json", "imputations.csv", "top_features.csv", "baseline_report.txt",
        ]),
        ("metric_comparison.py", ["frontiers.json"]),
    ],
)
def test_script_runs(tmp_path, script, written):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--seed", "7", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for name in written:
        assert (tmp_path / name).stat().st_size > 0, name
