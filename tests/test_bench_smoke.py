"""Smoke test of the benchmark harness: each workload runs one job and
prints a well-formed, correct result line.

The package and the harness are copied into a temporary checkout, so the
runs write nothing under the repository's perfbench/.

The harness's result is the last stdout line, read as strict JSON: a run
that prints anything after it, writes to stderr, or emits NaN/Infinity
cannot be measured.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "job_s", "impute_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(
        ROOT / "src" / "fill", root / "src" / "fill",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (root / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, root / "perfbench")
    return root


def run_workload(checkout, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    return proc.stdout, result


@pytest.mark.parametrize("workload", ["tune_cli", "tune_small_batch", "serve_gower"])
def test_workload_prints_correct_result(checkout, workload):
    _, result = run_workload(checkout, workload, trace=0)
    for name in END_TO_END:
        assert result["metrics"][name]["value"] is not None, name


@pytest.mark.parametrize("workload", ["tune_cli", "tune_small_batch", "serve_gower"])
def test_traced_run_has_every_layer(checkout, workload):
    """A traced run keeps every wrap point: no layer metric is null."""
    stdout, result = run_workload(checkout, workload, trace=1)
    assert "! trace:" not in stdout
    nulls = [name for name, m in result["metrics"].items() if m["value"] is None]
    assert nulls == []
    if workload == "serve_gower":
        assert result["metrics"]["stats.fisher_calls"]["value"] == 200
    else:
        # the grid's own radius grid goes through the wrapped entry point
        assert result["metrics"]["tune.radius_grid_s"]["value"] > 0
