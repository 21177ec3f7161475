"""Report trees and file names: one layout for feasible and infeasible grids."""

import json
import math

import numpy as np
import pytest

from fill.errors import UnwritableName
from fill.report import (
    dumps_tree,
    frontier_tree,
    g17_or_na,
    grid_report_tree,
    volcano_name,
    write_tree,
)
from fill.tune import CriterionA, CriterionB, FrontierPoint, GridCell, LooMetrics

CELLS = (
    GridCell(0.25, 0.01, LooMetrics(3, 1, 0.75, 0.5)),
    GridCell(0.5, 0.01, LooMetrics(0, 0, None, 0.0)),
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_tree_refuses_non_finite_floats(value, tmp_path):
    with pytest.raises(ValueError, match="JSON cannot hold"):
        dumps_tree({"grid": [{"radius": value}]})
    with pytest.raises(ValueError):
        write_tree({"radius": value}, tmp_path / "r.json")
    assert not (tmp_path / "r.json").exists()


def test_dumps_tree_writes_17_digits():
    assert dumps_tree({"x": 0.1, "n": 3, "p": None}) == (
        '{\n  "x": 0.10000000000000001,\n  "n": 3,\n  "p": null\n}'
    )


def test_g17_or_na():
    assert g17_or_na(None) == "NA"
    assert g17_or_na(0.1) == "0.10000000000000001"


def test_grid_report_tree_with_and_without_winner():
    feasible = grid_report_tree(CriterionB(0.7), CELLS, CELLS[0])
    infeasible = grid_report_tree(CriterionB(0.9), CELLS)
    assert list(feasible) == list(infeasible) == ["criterion", "feasible", "winner", "grid"]
    assert feasible["feasible"] is True and infeasible["feasible"] is False
    assert feasible["winner"] == feasible["grid"][0] == {
        "radius": 0.25, "p_threshold": 0.01, "tp": 3, "fp": 1, "precision": 0.75, "yield": 0.5,
    }
    assert infeasible["winner"] is None
    assert infeasible["grid"] == feasible["grid"]
    assert feasible["grid"][1]["precision"] is None


@pytest.mark.parametrize(
    "criterion, expected",
    [
        (CriterionA(np.int64(0)), {"type": "a", "min_tp": 0}),
        (CriterionB(np.float32(0.5)), {"type": "b", "min_precision": 0.5}),
    ],
)
def test_numpy_scalar_criteria_are_written(criterion, expected, tmp_path):
    for winner in (CELLS[0], None):
        write_tree(grid_report_tree(criterion, CELLS, winner), tmp_path / "grid_report.json")
        tree = json.loads((tmp_path / "grid_report.json").read_text(encoding="utf-8"))
        assert tree["criterion"] == expected


def test_frontier_tree_reads_the_winning_cell():
    tree = frontier_tree([FrontierPoint(0.7, CELLS[0]), FrontierPoint(0.9, None)])
    assert tree == [
        {"min_precision": 0.7, "feasible": True, "achieved_precision": 0.75, "yield": 0.5,
         "tp": 3, "radius": 0.25, "p_threshold": 0.01},
        {"min_precision": 0.9, "feasible": False, "achieved_precision": None, "yield": None,
         "tp": None, "radius": None, "p_threshold": None},
    ]
    assert json.loads(dumps_tree(tree)) == tree


def test_volcano_name():
    assert volcano_name("r0001") == "volcano_r0001.csv"
    assert volcano_name("a.b-c") == "volcano_a.b-c.csv"
    for bad in ("r/1", "/", "r\0"):
        with pytest.raises(UnwritableName, match="cannot be part of a file name"):
            volcano_name(bad)
