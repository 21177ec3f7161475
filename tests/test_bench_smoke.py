"""Smoke test of the benchmark harness: each workload runs one job and
prints a well-formed, correct result line.

The package and the harness are copied into a temporary checkout, so the
runs write nothing under the repository's perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "job_s", "impute_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")


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


@pytest.mark.parametrize("workload", ["tune_cli", "tune_small_batch", "serve_gower"])
def test_workload_prints_correct_result(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for name in END_TO_END:
        assert result["metrics"][name]["value"] is not None, name
