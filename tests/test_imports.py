"""fill runs without scipy: scipy is a test and benchmark dependency only."""

import subprocess
import sys
from pathlib import Path

import fill

from conftest import make_cohort
from fill.cohort import write_cohort

SRC = str(Path(fill.__file__).resolve().parent.parent)

# a meta-path finder that fails every scipy import, installed before fill loads
BLOCK_SCIPY = """
import sys
sys.path.insert(0, {src!r})

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {{name}}")

sys.meta_path.insert(0, BlockScipy())
"""


def run_python(code, cwd):
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_import_leaves_no_scipy_module(tmp_path):
    proc = run_python(
        f"import sys; sys.path.insert(0, {SRC!r}); import fill, fill.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_run_with_scipy_blocked(tmp_path):
    mixed = tmp_path / "mixed.csv"
    rows = [[1, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1], [0, 1], [1, 0]]
    write_cohort(
        make_cohort(rows, ["POS", "POS", "NEG", "POS", "NEG", "NEG", "POS", "UNKNOWN"],
                    continuous_rows=[[30.0], [34.0], [70.0], [31.0], [66.0], [61.0], [40.0], [33.0]],
                    continuous_names=("age",)),
        mixed,
    )
    cohort = str(tmp_path / "synth" / "synthetic_cohort.csv")
    model = ["--input", cohort, "--metric", "jaccard", "--radius", "0.6", "--pvalue", "0.05"]
    commands = [
        ["synth", "--seed", "7", "--n-labeled", "90", "--n-unlabeled", "30",
         "--n-features", "12", "--out", str(tmp_path / "synth")],
        ["tune", "--input", cohort, "--metric", "jaccard", "--criterion", "b",
         "--min-precision", "0.5", "--out", str(tmp_path / "tune")],
        ["impute", *model, "--out", str(tmp_path / "impute")],
        ["explain", *model, "--out", str(tmp_path / "explain"), "r0000", "r0100"],
        ["explain", "--input", str(mixed), "--schema", "continuous=age", "--metric", "gower",
         "--radius", "0.6", "--pvalue", "0.05", "--out", str(tmp_path / "gower"), "p7"],
    ]
    code = BLOCK_SCIPY.format(src=SRC) + (
        "import fill.cli\n"
        f"codes = [fill.cli.main(argv) for argv in {commands!r}]\n"
        "print(codes)\n"
    )
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", proc.stdout + proc.stderr
    assert (tmp_path / "gower" / "volcano_p7.csv").read_text().count("CONTINUOUS") == 1
