"""Command-line entry points.

Subcommands: tune, impute, explain, loo, baseline, synth. Options can come
from a flat `key = value` config file (# comments allowed); command-line
flags override the file. Every command is a pure function of its inputs,
flags and seed, so reruns write byte-identical files.

Exit codes: 0 success, 1 usage or input error, 2 no feasible grid cell.
"""

import argparse
import math
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from . import report
from .baseline import evaluate_baseline, fit_logistic, optimal_cutoff, predict_scores
from .classify import FillModel, Hyperparameters, impute_unknowns
from .cohort import (
    Cohort,
    FeatureSchema,
    Label,
    load_cohort,
    select_features,
    write_cohort,
)
from .distance import Metric, distance_matrix
from .errors import FillError, NoFeasibleCell, UsageError
from .explain import explain_record
from .synth import default_spec, synth_cohort_with_truth, write_truth
from .tune import CriterionA, CriterionB, LooMetrics, grid_search, loo_evaluate


@dataclass
class RunConfig:
    input: str | None = None
    schema: str = ""
    metric: str = "gower"
    criterion: str = "a"
    min_precision: float = 0.85
    min_tp: int = 10
    radius: float | None = None
    pvalue: float | None = None
    seed: int = 0
    out: str = "."
    threads: int = 1
    radius_grid: str | None = None
    pvalue_grid: str | None = None
    n_labeled: int = 200
    n_unlabeled: int = 100
    n_features: int = 30
    n_phenotypes: int = 3
    positive_fraction: float = 0.4
    noise: float = 0.02


_FIELDS = {f.name: f for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; unknown keys are rejected early."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {line_no}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELDS:
            raise UsageError(f"config line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(name: str, raw: str):
    kind = _FIELDS[name].type
    kinds = set(typing.get_args(kind)) or {kind}
    try:
        if int in kinds:
            return int(raw)
        if float in kinds:
            return float(raw)
        return raw
    except ValueError:
        raise UsageError(f"bad value for {name}: {raw!r}") from None


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            setattr(cfg, key, _coerce(key, raw))
    for name in _FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
    if not 0 <= cfg.seed < 2**64:
        raise UsageError("seed must fit in 64 bits")
    if cfg.threads < 1:
        raise UsageError("threads must be >= 1")
    return cfg


def _require_finite(name: str, *values: float) -> None:
    """Reject NaN and infinities, which no JSON report can hold."""
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{name} must be finite")


def parse_grid(text: str | None, name: str):
    if text is None:
        return None
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise UsageError(f"{name} must be a non-empty comma-separated list")
    try:
        values = tuple(float(v) for v in items)
    except ValueError:
        raise UsageError(f"{name} contains a non-number") from None
    _require_finite(name, *values)
    return values


def parse_schema_spec(spec: str) -> dict:
    """`continuous=age,bmi;ignore=x1` -> column role sets."""
    roles = {"continuous": set(), "ignore": set()}
    if not spec.strip():
        return roles
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in roles:
            raise UsageError(
                f"bad schema spec {part!r}: expected continuous=... or ignore=..."
            )
        roles[key].update(v.strip() for v in value.split(",") if v.strip())
    return roles


def load_input(cfg: RunConfig) -> Cohort:
    if not cfg.input:
        raise UsageError("an --input cohort file is required")
    try:
        with open(cfg.input, encoding="utf-8") as fh:
            header_line = fh.readline().rstrip("\n")
    except OSError as exc:
        raise UsageError(f"cannot read {cfg.input}: {exc}") from None
    header = header_line.split(",")
    if len(header) < 2:
        raise UsageError("input header must have at least id and label columns")
    feature_cols = header[2:]
    roles = parse_schema_spec(cfg.schema)
    for role, names in roles.items():
        missing = names - set(feature_cols)
        if missing:
            raise UsageError(f"{role} columns not in file: {sorted(missing)}")
    continuous = [c for c in feature_cols if c in roles["continuous"]]
    binary = [c for c in feature_cols if c not in roles["continuous"]]
    if binary + continuous != feature_cols:
        raise UsageError("continuous columns must come after all binary columns")
    try:
        schema = FeatureSchema(
            binary_names=tuple(binary),
            continuous_names=tuple(continuous),
            label_column=header[1],
            id_column=header[0],
        )
    except ValueError as exc:
        hint = ""
        if header[0].startswith("\ufeff"):
            hint = " (the file starts with a UTF-8 byte-order mark)"
        raise UsageError(f"bad header in {cfg.input}: {exc}{hint}") from None
    cohort = load_cohort(cfg.input, schema)
    if roles["ignore"]:
        keep = [c for c in feature_cols if c not in roles["ignore"]]
        cohort = select_features(cohort, keep)
    return cohort


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metric(cfg: RunConfig) -> Metric:
    try:
        return Metric.parse(cfg.metric)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _hyperparameters(cfg: RunConfig, metric: Metric) -> Hyperparameters:
    if cfg.radius is None or cfg.pvalue is None:
        raise UsageError("--radius and --pvalue are required for this command")
    try:
        hp = Hyperparameters(radius=cfg.radius, p_threshold=cfg.pvalue, metric=metric)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _require_finite("radius", hp.radius)
    return hp


def _fixed_model_inputs(cfg: RunConfig) -> tuple[Cohort, Hyperparameters, Path]:
    """Shared start of the commands that run at a fixed S and T."""
    cohort = load_input(cfg)
    hp = _hyperparameters(cfg, _metric(cfg))
    return cohort, hp, _out_dir(cfg)


def _metrics_text(m: LooMetrics) -> str:
    return (
        f"tp={m.true_positives} fp={m.false_positives} "
        f"precision={report.g17_or_na(m.precision)} yield={report.g17(m.yield_proportion)}"
    )


def cmd_tune(cfg: RunConfig) -> int:
    cohort = load_input(cfg)
    metric = _metric(cfg)
    out = _out_dir(cfg)
    radius_grid = parse_grid(cfg.radius_grid, "radius_grid")
    threshold_grid = parse_grid(cfg.pvalue_grid, "pvalue_grid")
    try:
        if cfg.criterion == "a":
            criterion = CriterionA(min_tp=cfg.min_tp)
        elif cfg.criterion == "b":
            _require_finite("min_precision", cfg.min_precision)
            criterion = CriterionB(min_precision=cfg.min_precision)
        else:
            raise UsageError(f"criterion must be a or b, not {cfg.criterion!r}")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        result = grid_search(cohort, metric, radius_grid, threshold_grid, criterion)
        grid, winner = result.grid, result.winner
    except NoFeasibleCell as exc:
        grid, winner = exc.grid, None
    report.write_tree(report.grid_report_tree(criterion, grid, winner), out / "grid_report.json")
    report.write_grid_table(grid, out / "grid_table.csv")
    if winner is None:
        print("no feasible grid cell; report written", file=sys.stderr)
        return 2
    print(
        f"winner: S={report.g17(winner.radius)} T={report.g17(winner.p_threshold)} "
        + _metrics_text(winner.metrics)
    )
    return 0


def cmd_loo(cfg: RunConfig) -> int:
    cohort, hp, out = _fixed_model_inputs(cfg)
    metrics = loo_evaluate(cohort, hp)
    report.write_tree(
        {
            "radius": hp.radius,
            "p_threshold": hp.p_threshold,
            "metric": hp.metric.value,
            "tp": metrics.true_positives,
            "fp": metrics.false_positives,
            "precision": metrics.precision,
            "yield": metrics.yield_proportion,
        },
        out / "loo_report.json",
    )
    print("loo: " + _metrics_text(metrics))
    return 0


def cmd_impute(cfg: RunConfig) -> int:
    cohort, hp, out = _fixed_model_inputs(cfg)
    distances = distance_matrix(cohort, hp.metric)
    model = FillModel.fit(cohort, hp)
    results = impute_unknowns(cohort, model, distances)
    report.write_imputations(results, out / "imputations.csv")
    n_pos = sum(1 for r in results if r.decision.name == "POS")
    n_labeled = len(model.labeled_ids)
    report.write_tree(
        {
            "metric": hp.metric.value,
            "radius": hp.radius,
            "p_threshold": hp.p_threshold,
            "base_rate": model.base_rate,
            "n_labeled": n_labeled,
            "n_unknown": len(results),
            "n_imputed_pos": n_pos,
            "yield_proportion": n_pos / n_labeled if n_labeled else 0.0,
        },
        out / "impute_summary.json",
    )
    print(f"imputed {n_pos} of {len(results)} unknown records as POS")
    return 0


def cmd_explain(cfg: RunConfig, record_ids) -> int:
    cohort, hp, out = _fixed_model_inputs(cfg)
    distances = distance_matrix(cohort, hp.metric)
    model = FillModel.fit(cohort, hp)

    unique_ids = []
    seen = set()
    for rid in record_ids:
        if rid in seen:
            print(f"warning: duplicate record id {rid!r} ignored", file=sys.stderr)
            continue
        seen.add(rid)
        unique_ids.append(rid)

    explanations = []
    statuses = []
    for rid in unique_ids:
        try:
            volcano = out / report.volcano_name(rid)
            expl = explain_record(rid, cohort, model, distances)
        except FillError as exc:
            statuses.append({"record_id": rid, "status": "error", "reason": str(exc)})
            print(f"error: {rid}: {exc}", file=sys.stderr)
            continue
        explanations.append(expl)
        statuses.append(
            {"record_id": rid, "status": "ok", "neighbors": expl.neighbor_count,
             "significant": len(expl.significant)}
        )
        report.write_volcano(expl, volcano)
    report.write_top_features(explanations, out / "top_features.csv")
    report.write_tree({"records": statuses}, out / "explain_report.json")
    return 0 if explanations else 1


def cmd_baseline(cfg: RunConfig) -> int:
    cohort = load_input(cfg)
    out = _out_dir(cfg)
    model = fit_logistic(cohort)
    labeled = cohort.labeled_mask
    scores = predict_scores(cohort, model)[labeled]
    labels = [
        Label.POS if p else Label.NEG for p in cohort.pos_mask[labeled]
    ]
    best_cutoff = optimal_cutoff(scores, labels)
    acc_default, prec_default, c_stat = evaluate_baseline(cohort, model, 0.5)
    acc_best, prec_best, _ = evaluate_baseline(cohort, model, best_cutoff)
    report.write_baseline_report(
        out / "baseline_report.txt",
        (acc_default, acc_best),
        (prec_default, prec_best),
        c_stat,
        (0.5, best_cutoff),
    )
    print(
        f"baseline: accuracy={acc_default:.4f} ({acc_best:.4f}) "
        f"c_statistic={c_stat:.4f}"
    )
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    try:
        spec = default_spec(
            n_labeled=cfg.n_labeled,
            n_unlabeled=cfg.n_unlabeled,
            n_binary_features=cfg.n_features,
            n_phenotypes=cfg.n_phenotypes,
            positive_fraction=cfg.positive_fraction,
            noise_rate=cfg.noise,
            seed=cfg.seed,
        )
    except FillError as exc:
        raise UsageError(str(exc)) from None
    cohort, truth = synth_cohort_with_truth(spec)
    write_cohort(cohort, out / "synthetic_cohort.csv")
    write_truth(cohort.ids, truth, out / "synthetic_truth.csv")
    print(
        f"wrote {len(cohort)} records "
        f"({cfg.n_labeled} labeled, {cfg.n_unlabeled} unknown) to {out}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_io_flags(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--input", help="cohort CSV file")
    p.add_argument("--schema", help="column roles, e.g. continuous=age;ignore=x1")
    p.add_argument("--out", help="output directory")
    p.add_argument("--threads", type=int, help="accepted for compatibility; ignored")
    p.add_argument("--seed", type=int, help="64-bit unsigned seed")


def _add_model_flags(p):
    p.add_argument("--metric", choices=["jaccard", "manhattan", "gower"])
    p.add_argument("--radius", type=float, help="neighborhood radius S")
    p.add_argument("--pvalue", type=float, help="significance threshold T")


def build_parser() -> _Parser:
    parser = _Parser(prog="fill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="grid-search radius and threshold via leave-one-out")
    _add_io_flags(p)
    _add_model_flags(p)
    p.add_argument("--criterion", choices=["a", "b"])
    p.add_argument("--min-precision", dest="min_precision", type=float)
    p.add_argument("--min-tp", dest="min_tp", type=int)
    p.add_argument("--radius-grid", dest="radius_grid")
    p.add_argument("--pvalue-grid", dest="pvalue_grid")

    p = sub.add_parser("impute", help="classify unknown records at fixed S, T")
    _add_io_flags(p)
    _add_model_flags(p)

    p = sub.add_parser("explain", help="neighborhood contrast for given records")
    _add_io_flags(p)
    _add_model_flags(p)
    p.add_argument("records", nargs="+", help="record ids to explain")

    p = sub.add_parser("loo", help="leave-one-out metrics at fixed S, T")
    _add_io_flags(p)
    _add_model_flags(p)

    p = sub.add_parser("baseline", help="logistic-regression comparison")
    _add_io_flags(p)

    p = sub.add_parser("synth", help="generate a seeded synthetic cohort")
    _add_io_flags(p)
    p.add_argument("--n-labeled", dest="n_labeled", type=int)
    p.add_argument("--n-unlabeled", dest="n_unlabeled", type=int)
    p.add_argument("--n-features", dest="n_features", type=int)
    p.add_argument("--n-phenotypes", dest="n_phenotypes", type=int)
    p.add_argument("--pos-fraction", dest="positive_fraction", type=float)
    p.add_argument("--noise", dest="noise", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        run = {
            "tune": cmd_tune,
            "impute": cmd_impute,
            "explain": lambda c: cmd_explain(c, args.records),
            "loo": cmd_loo,
            "baseline": cmd_baseline,
            "synth": cmd_synth,
        }[args.command]
        return run(cfg)
    except FillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
