"""Report and table emission.

All numbers are written with 17 significant digits so files round-trip
float64 exactly and reruns are byte-comparable. Undefined precision is
emitted as null (reports) or NA (flat tables), never as a fake 0 or 1.
"""

import json
import math

from .classify import ClassificationResult
from .errors import UnwritableName
from .explain import NeighborhoodExplanation, format_feature_cell, top_features
from .tune import CriterionA, FrontierPoint, GridCell


def g17(x) -> str:
    return format(float(x), ".17g")


def g17_or_na(x) -> str:
    """g17, or NA for an undefined (None) number."""
    return "NA" if x is None else g17(x)


def dumps_tree(obj, indent: int = 0) -> str:
    """JSON text with deterministic layout and g17 floats.

    Raises ValueError on a NaN or infinite float, which JSON cannot hold.
    """
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON cannot hold the float {obj!r}")
        return g17(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {dumps_tree(str(key))}: {dumps_tree(value, indent + 1)}"
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            f"{pad}  {dumps_tree(value, indent + 1)}" for value in obj
        )
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_tree(obj, path) -> None:
    text = dumps_tree(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _criterion_tree(criterion):
    if isinstance(criterion, CriterionA):
        return {"type": "a", "min_tp": criterion.min_tp}
    return {"type": "b", "min_precision": criterion.min_precision}


def _cell_tree(cell):
    m = cell.metrics
    return {
        "radius": cell.radius,
        "p_threshold": cell.p_threshold,
        "tp": m.true_positives,
        "fp": m.false_positives,
        "precision": m.precision,
        "yield": m.yield_proportion,
    }


def grid_report_tree(criterion, grid, winner: GridCell | None = None) -> dict:
    """The evaluated grid and the criterion's winner; None marks no feasible cell."""
    return {
        "criterion": _criterion_tree(criterion),
        "feasible": winner is not None,
        "winner": None if winner is None else _cell_tree(winner),
        "grid": [_cell_tree(cell) for cell in grid],
    }


def write_grid_table(cells, path) -> None:
    """Flat CSV companion for external plotting: S,T,tp,fp,precision,yield."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("S,T,tp,fp,precision,yield\n")
        for cell in cells:
            m = cell.metrics
            fh.write(
                f"{g17(cell.radius)},{g17(cell.p_threshold)},"
                f"{m.true_positives},{m.false_positives},"
                f"{g17_or_na(m.precision)},{g17(m.yield_proportion)}\n"
            )


def write_imputations(results: list[ClassificationResult], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("record_id,n,k,p_value,decision\n")
        for r in results:
            fh.write(
                f"{r.record_id},{r.neighborhood_n},{r.positive_k},"
                f"{g17(r.p_value)},{r.decision.value}\n"
            )


def volcano_name(record_id: str) -> str:
    """File name of a record's volcano table: volcano_<id>.csv."""
    if "/" in record_id or "\0" in record_id:
        raise UnwritableName(
            f"record id {record_id!r} cannot be part of a file name: it holds '/' or NUL"
        )
    return f"volcano_{record_id}.csv"


def write_volcano(expl: NeighborhoodExplanation, path) -> None:
    """All features, including the insignificant cloud, for volcano plots."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("feature,kind,effect,raw_p,adjusted_p\n")
        for c in expl.comparisons:
            fh.write(
                f"{c.feature},{c.kind.value},{g17(c.effect)},"
                f"{g17(c.raw_p)},{g17(c.adjusted_p)}\n"
            )


def write_top_features(explanations, path) -> None:
    """One row per explained record, its top 5 feature cells left to right."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("record_id,1st,2nd,3rd,4th,5th\n")
        for expl in explanations:
            cells = [format_feature_cell(c) for c in top_features(expl, 5)]
            cells += [""] * (5 - len(cells))
            fh.write(expl.record_id + "," + ",".join(cells) + "\n")


def frontier_tree(points: list[FrontierPoint]) -> list:
    keys = ("achieved_precision", "yield", "tp", "radius", "p_threshold")
    out = []
    for p in points:
        w = p.winner
        values = (None,) * len(keys) if w is None else (
            w.metrics.precision, w.metrics.yield_proportion, w.metrics.true_positives,
            w.radius, w.p_threshold,
        )
        tree = {"min_precision": p.min_precision, "feasible": w is not None}
        tree.update(zip(keys, values))
        out.append(tree)
    return out


def write_baseline_report(path, accuracy_pair, precision_pair, c_stat, cutoffs) -> None:
    """Accuracy/precision at the default cutoff with the optimal-cutoff
    result in brackets, one metric per line."""
    fmt = g17_or_na
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"cutoff_default = {g17(cutoffs[0])}\n")
        fh.write(f"cutoff_optimal = {g17(cutoffs[1])}\n")
        fh.write(f"accuracy = {fmt(accuracy_pair[0])} ({fmt(accuracy_pair[1])})\n")
        fh.write(f"precision = {fmt(precision_pair[0])} ({fmt(precision_pair[1])})\n")
        fh.write(f"c_statistic = {fmt(c_stat)}\n")
