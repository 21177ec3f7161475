"""Spans around calls into fill's modules, recorded from outside fill.

Each wrap point replaces one module attribute that fill (or the
benchmark's library flow) calls through, such as `fill.tune.binom_sf`,
with a wrapper that records a span: id, parent span, run id, name,
start, end, whether it raised, and a few facts read from the call's
arguments or result. Spans stay in memory until the run ends.

A wrap point whose attribute no longer exists is skipped with a named
warning, and every per-layer metric built on its span name is reported
as null rather than as a silent zero.
"""

import functools
import importlib
import os
import time


def _n_rows(args, kwargs, result):
    return {"rows": len(result)}


def _matrix(args, kwargs, result):
    n = len(result.ids)
    return {"n": n, "n2": n * n, "degenerate": int(result.degenerate_pairs)}


def _grid(args, kwargs, result):
    radii = {cell.radius for cell in result}
    return {"cells": len(result), "tests": len(args[0]) * len(radii)}


def _imputed(args, kwargs, result):
    return {"records": len(result), "pos": sum(r.decision.value == "POS" for r in result)}


def _logistic(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": int(bool(result.converged))}


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, facts taken from the call)
WRAP_POINTS = (
    ("fill.cli", "main", "cli.main", None),
    ("fill.cli", "load_cohort", "cohort.load", _n_rows),
    ("fill.cohort", "load_cohort", "cohort.load", _n_rows),
    ("fill.cohort", "prevalence_filter", "cohort.filter", None),
    ("fill.cli", "distance_matrix", "distance.matrix", _matrix),
    ("fill.tune", "distance_matrix", "distance.matrix", _matrix),
    ("fill.distance", "distance_matrix", "distance.matrix", _matrix),
    ("fill.cli", "grid_search", "tune.grid_search", None),
    ("fill.tune", "grid_search", "tune.grid_search", None),
    ("fill.tune", "evaluate_grid", "tune.grid", _grid),
    ("fill.tune", "default_radius_grid", "tune.radius_grid", None),
    ("fill.tune", "select_winner", "tune.select", None),
    ("fill.tune", "binom_sf", "stats.binom_sf", None),
    ("fill.classify", "binom_sf", "stats.binom_sf", None),
    ("fill.explain", "fisher_exact", "stats.fisher", None),
    ("fill.explain", "welch_t", "stats.welch", None),
    ("fill.explain", "bh_fdr", "stats.bh_fdr", None),
    ("fill.cli", "impute_unknowns", "classify.impute", _imputed),
    ("fill.classify", "impute_unknowns", "classify.impute", _imputed),
    ("fill.classify", "classify", "classify.record", None),
    ("fill.explain", "explain_record", "explain.record", None),
    ("fill.baseline", "fit_logistic", "baseline.fit", _logistic),
    ("fill.report", "write_tree", "report.write", _written),
    ("fill.report", "write_grid_table", "report.write", _written),
    ("fill.report", "write_imputations", "report.write", _written),
)


class Tracer:
    """Installs the wrappers for the length of a `with` block."""

    def __init__(self):
        self.spans = []   # [id, parent, run, name, start_ns, end_ns, raised, facts]
        self.lost = {}    # span name -> why its metrics are null
        self.run_id = None
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, facts in WRAP_POINTS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.lost.setdefault(name, f"{module_name}.{attr} is missing")
                continue
            self._saved.append((module, attr, target))
            setattr(module, attr, self._wrapper(target, name, facts))
        return self

    def __exit__(self, *exc):
        for module, attr, target in reversed(self._saved):
            setattr(module, attr, target)
        self._saved.clear()

    @property
    def warnings(self):
        return [f"trace: {why}; metrics built on {name} are null"
                for name, why in sorted(self.lost.items())]

    def _wrapper(self, fn, name, facts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.run_id, name, 0, 0, False, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
            if facts is not None:
                try:
                    span[7] = facts(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError) as exc:
                    self.lost.setdefault(name, f"cannot read facts of {name}: {exc!r}")
            return result

        return traced


class _Layer:
    """Totals for one span name: calls, seconds, self seconds, summed facts."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.raised = 0
        self.facts = {}
        self.max_n = 0

    def fact(self, key):
        return self.facts.get(key, 0)


class _Layers(dict):
    """Span name -> _Layer; a layer never entered reads as zero calls."""

    def __missing__(self, key):
        return _Layer()


def summarise(spans):
    child_ns = {}
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] = child_ns.get(span[1], 0) + span[5] - span[4]
    layers = _Layers()
    for span in spans:
        layer = layers.setdefault(span[3], _Layer())
        duration = span[5] - span[4]
        layer.calls += 1
        layer.seconds += duration / 1e9
        layer.self_seconds += (duration - child_ns.get(span[0], 0)) / 1e9
        layer.raised += span[6]
        for key, value in (span[7] or {}).items():
            layer.facts[key] = layer.facts.get(key, 0) + value
        if span[7] and "n" in span[7]:
            layer.max_n = max(layer.max_n, span[7]["n"])
    return layers


def _ratio(num, den):
    return num / den if den else None


_GRID_PARTS = ("tune.grid", "stats.binom_sf", "distance.matrix", "tune.radius_grid")
_EXPLAIN_PARTS = ("explain.record", "stats.fisher", "stats.welch", "stats.bh_fdr")
_CLI_PARTS = ("cli.main", "cohort.load", "tune.grid_search", "distance.matrix",
              "classify.impute", "report.write")

# metric -> (unit, span names it is built on, value from (layers L, traced jobs J));
# a self time also names the child spans it subtracts
PER_LAYER = {
    "cohort.load_s": ("s", ("cohort.load",), lambda L, J: L["cohort.load"].seconds / J),
    "cohort.rows_per_s": ("1/s", ("cohort.load",),
                          lambda L, J: _ratio(L["cohort.load"].fact("rows"), L["cohort.load"].seconds)),
    "cohort.filter_s": ("s", ("cohort.filter",), lambda L, J: L["cohort.filter"].seconds / J),
    "distance.matrix_s": ("s", ("distance.matrix",), lambda L, J: L["distance.matrix"].seconds / J),
    "distance.matrix_calls": ("count", ("distance.matrix",), lambda L, J: L["distance.matrix"].calls / J),
    "distance.pairs_per_s": ("1/s", ("distance.matrix",),
                             lambda L, J: _ratio(L["distance.matrix"].fact("n2"), L["distance.matrix"].seconds)),
    "distance.matrix_mb": ("MB_computed", ("distance.matrix",),
                           lambda L, J: L["distance.matrix"].max_n ** 2 * 8 / 2**20),
    "distance.degenerate_pairs": ("count", ("distance.matrix",),
                                  lambda L, J: L["distance.matrix"].fact("degenerate") / J),
    "tune.grid_s": ("s", ("tune.grid",), lambda L, J: L["tune.grid"].seconds / J),
    "tune.grid_self_s": ("s", _GRID_PARTS, lambda L, J: L["tune.grid"].self_seconds / J),
    "tune.radius_grid_s": ("s", ("tune.radius_grid",), lambda L, J: L["tune.radius_grid"].seconds / J),
    "tune.cells": ("count", ("tune.grid",), lambda L, J: L["tune.grid"].fact("cells") / J),
    "tune.select_s": ("s", ("tune.select",), lambda L, J: L["tune.select"].seconds / J),
    "stats.binom_sf_calls": ("count", ("stats.binom_sf",), lambda L, J: L["stats.binom_sf"].calls / J),
    "stats.binom_sf_s": ("s", ("stats.binom_sf",), lambda L, J: L["stats.binom_sf"].seconds / J),
    "stats.binom_sf_us_per_call": ("us", ("stats.binom_sf",),
                                   lambda L, J: _ratio(L["stats.binom_sf"].seconds * 1e6, L["stats.binom_sf"].calls)),
    "stats.binom_sf_per_test": ("ratio", ("stats.binom_sf", "tune.grid", "classify.record"),
                                lambda L, J: _ratio(L["stats.binom_sf"].calls,
                                                    L["tune.grid"].fact("tests") + L["classify.record"].calls)),
    "stats.fisher_calls": ("count", ("stats.fisher",), lambda L, J: L["stats.fisher"].calls / J),
    "stats.fisher_s": ("s", ("stats.fisher",), lambda L, J: L["stats.fisher"].seconds / J),
    "stats.welch_s": ("s", ("stats.welch",), lambda L, J: L["stats.welch"].seconds / J),
    "stats.bh_fdr_s": ("s", ("stats.bh_fdr",), lambda L, J: L["stats.bh_fdr"].seconds / J),
    "classify.impute_s": ("s", ("classify.impute",), lambda L, J: L["classify.impute"].seconds / J),
    "classify.records_per_s": ("1/s", ("classify.impute",),
                               lambda L, J: _ratio(L["classify.impute"].fact("records"), L["classify.impute"].seconds)),
    "classify.pos_frac": ("ratio", ("classify.impute",),
                          lambda L, J: _ratio(L["classify.impute"].fact("pos"), L["classify.impute"].fact("records"))),
    "explain.self_ms": ("ms", _EXPLAIN_PARTS, lambda L, J: L["explain.record"].self_seconds * 1e3 / J),
    "explain.records": ("count", ("explain.record",), lambda L, J: L["explain.record"].calls / J),
    "explain.errors": ("count", ("explain.record",), lambda L, J: L["explain.record"].raised / J),
    "baseline.fit_s": ("s", ("baseline.fit",), lambda L, J: L["baseline.fit"].seconds / J),
    "baseline.iterations": ("count", ("baseline.fit",), lambda L, J: L["baseline.fit"].fact("iterations") / J),
    "baseline.converged": ("count", ("baseline.fit",), lambda L, J: L["baseline.fit"].fact("converged") / J),
    "report.write_s": ("s", ("report.write",), lambda L, J: L["report.write"].seconds / J),
    "report.bytes": ("bytes", ("report.write",), lambda L, J: L["report.write"].fact("bytes") / J),
    "cli.self_s": ("s", _CLI_PARTS, lambda L, J: L["cli.main"].self_seconds / J),
}


def layer_metrics(tracer, traced_jobs):
    """Per-layer values per traced job; null where a span it needs was lost."""
    layers = summarise(tracer.spans)
    out = {}
    for name, (unit, needs, value) in PER_LAYER.items():
        v = None
        if not tracer.lost.keys() & set(needs):
            v = value(layers, traced_jobs)
            if v is None:
                tracer.lost.setdefault(name, f"{name} has a zero base on this workload")
        out[name] = {"value": None if v is None else float(v), "unit": unit}
    return out
