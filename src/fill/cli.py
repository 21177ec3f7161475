"""Command-line entry points.

Subcommands: tune, impute, explain, loo, baseline, synth. Each option is
declared once, in `build_parser`, on the commands that read it, and must
be spelled in full: abbreviations are refused. Options can also come from
a flat `key = value` config file (# comments allowed): its values are
parsed like flags, and command-line flags override them. Every command
is a pure function of its inputs and options (synth's --seed among
them), so reruns write byte-identical files.

Exit codes: 0 success, 1 usage or input error, 2 no feasible grid cell.
"""

import argparse
import math
import sys
from pathlib import Path

from . import report
from .baseline import evaluate_two_cutoffs, fit_logistic
from .classify import FillModel, Hyperparameters, impute_unknowns
from .cohort import (
    Cohort,
    FeatureSchema,
    decode_text,
    load_cohort,
    select_features,
    write_cohort,
)
from .distance import Metric, distance_matrix
from .errors import FillError, NoFeasibleCell, UsageError
from .explain import explain_record
from .synth import default_spec, synth_cohort_with_truth, write_truth
from .tune import CriterionA, CriterionB, LooMetrics, check_grids, grid_search, loo_evaluate


def config_keys() -> set:
    """A config file's keys: the option destinations of every subcommand."""
    commands = build_parser().commands.values()
    return {a.dest for p in commands for a in p._actions if a.option_strings} - {"help", "config"}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; unknown keys are rejected early."""
    keys = config_keys()
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
        if key not in keys:
            raise UsageError(f"config line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


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


def load_input(args: argparse.Namespace) -> Cohort:
    if not args.input:
        raise UsageError("an --input cohort file is required")
    try:
        with open(args.input, "rb") as fh:
            first = fh.readline()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from None
    # decode the header line alone: binary readline stops only at LF
    header = decode_text(first.splitlines()[0] if first else b"").split(",")
    if len(header) < 2:
        raise UsageError("input header must have at least id and label columns")
    feature_cols = header[2:]
    roles = parse_schema_spec(args.schema)
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
        raise UsageError(f"bad header in {args.input}: {exc}{hint}") from None
    cohort = load_cohort(args.input, schema)
    if roles["ignore"]:
        keep = [c for c in feature_cols if c not in roles["ignore"]]
        cohort = select_features(cohort, keep)
    return cohort


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc}") from None
    return out


def _hyperparameters(args: argparse.Namespace, metric: Metric) -> Hyperparameters:
    if args.radius is None or args.pvalue is None:
        raise UsageError("--radius and --pvalue are required for this command")
    try:
        hp = Hyperparameters(radius=args.radius, p_threshold=args.pvalue, metric=metric)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _require_finite("radius", hp.radius)
    return hp


def _fixed_model_inputs(args: argparse.Namespace) -> tuple[Cohort, Hyperparameters, Path]:
    """Shared start of the commands that run at a fixed S and T."""
    cohort = load_input(args)
    hp = _hyperparameters(args, Metric(args.metric))
    return cohort, hp, _out_dir(args)


def _metrics_text(m: LooMetrics) -> str:
    return (
        f"tp={m.true_positives} fp={m.false_positives} "
        f"precision={report.g17_or_na(m.precision)} yield={report.g17(m.yield_proportion)}"
    )


def cmd_tune(args: argparse.Namespace) -> int:
    cohort = load_input(args)
    metric = Metric(args.metric)
    radius_grid = parse_grid(args.radius_grid, "radius_grid")
    threshold_grid = parse_grid(args.pvalue_grid, "pvalue_grid")
    check_grids(radius_grid, threshold_grid)
    try:
        if args.criterion == "a":
            criterion = CriterionA(min_tp=args.min_tp)
        else:
            _require_finite("min_precision", args.min_precision)
            criterion = CriterionB(min_precision=args.min_precision)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = _out_dir(args)
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


def cmd_loo(args: argparse.Namespace) -> int:
    cohort, hp, out = _fixed_model_inputs(args)
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


def cmd_impute(args: argparse.Namespace) -> int:
    cohort, hp, out = _fixed_model_inputs(args)
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


def cmd_explain(args: argparse.Namespace) -> int:
    cohort, hp, out = _fixed_model_inputs(args)
    distances = distance_matrix(cohort, hp.metric)
    model = FillModel.fit(cohort, hp)

    unique_ids = []
    seen = set()
    for rid in args.records:
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


def cmd_baseline(args: argparse.Namespace) -> int:
    cohort = load_input(args)
    out = _out_dir(args)
    accuracy, precision, c_stat, cutoffs = evaluate_two_cutoffs(cohort, fit_logistic(cohort))
    report.write_baseline_report(
        out / "baseline_report.txt", accuracy, precision, c_stat, cutoffs
    )
    print(
        f"baseline: accuracy={accuracy[0]:.4f} ({accuracy[1]:.4f}) "
        f"c_statistic={c_stat:.4f}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = default_spec(
            n_labeled=args.n_labeled,
            n_unlabeled=args.n_unlabeled,
            n_binary_features=args.n_features,
            n_phenotypes=args.n_phenotypes,
            positive_fraction=args.positive_fraction,
            noise_rate=args.noise,
            seed=args.seed,
        )
    except FillError as exc:
        raise UsageError(str(exc)) from None
    out = _out_dir(args)
    cohort, truth = synth_cohort_with_truth(spec)
    write_cohort(cohort, out / "synthetic_cohort.csv")
    write_truth(cohort.ids, truth, out / "synthetic_truth.csv")
    print(
        f"wrote {len(cohort)} records "
        f"({args.n_labeled} labeled, {args.n_unlabeled} unknown) to {out}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on bad arguments; `commands` maps names to subparsers."""

    def error(self, message):
        raise UsageError(message)


def _add_command(sub, name, run, summary, reads_cohort=True):
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.set_defaults(run=run)
    p.add_argument("--config", help="flat key = value config file")
    if reads_cohort:
        p.add_argument("--input", help="cohort CSV file")
        p.add_argument("--schema", default="", help="column roles, e.g. continuous=age;ignore=x1")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; ignored")
    return p


def _add_model_flags(p, fixed=True):
    p.add_argument("--metric", choices=["jaccard", "manhattan", "gower"], default="gower")
    if fixed:
        p.add_argument("--radius", type=float, help="neighborhood radius S")
        p.add_argument("--pvalue", type=float, help="significance threshold T")


def build_parser() -> _Parser:
    parser = _Parser(prog="fill", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = _add_command(sub, "tune", cmd_tune, "grid-search radius and threshold via leave-one-out")
    _add_model_flags(p, fixed=False)
    p.add_argument("--criterion", choices=["a", "b"], default="a")
    p.add_argument("--min-precision", type=float, default=0.85)
    p.add_argument("--min-tp", type=int, default=10)
    p.add_argument("--radius-grid")
    p.add_argument("--pvalue-grid")

    p = _add_command(sub, "impute", cmd_impute, "classify unknown records at fixed S, T")
    _add_model_flags(p)

    p = _add_command(sub, "explain", cmd_explain, "neighborhood contrast for given records")
    _add_model_flags(p)
    p.add_argument("records", nargs="+", help="record ids to explain")

    p = _add_command(sub, "loo", cmd_loo, "leave-one-out metrics at fixed S, T")
    _add_model_flags(p)

    _add_command(sub, "baseline", cmd_baseline, "logistic-regression comparison")

    p = _add_command(sub, "synth", cmd_synth, "generate a seeded synthetic cohort", reads_cohort=False)
    p.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
    p.add_argument("--n-labeled", type=int, default=200)
    p.add_argument("--n-unlabeled", type=int, default=100)
    p.add_argument("--n-features", type=int, default=30)
    p.add_argument("--n-phenotypes", type=int, default=3)
    p.add_argument("--pos-fraction", dest="positive_fraction", type=float, default=0.4)
    p.add_argument("--noise", type=float, default=0.02)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's values become the command's string defaults, which
            # argparse types like flags; a flag given on the line wins.
            # argparse never checks a default against its choices, so each
            # value the file still sets is checked here, with the flag's message
            values = parse_config_file(args.config)
            command = parser.commands[args.command]
            command.set_defaults(**{k: v for k, v in values.items() if k in vars(args)})
            args = parser.parse_args(argv)
            for action in command._actions:
                if action.dest in values:
                    try:
                        command._check_value(action, getattr(args, action.dest))
                    except argparse.ArgumentError as exc:
                        command.error(str(exc))
        if args.threads < 1:
            raise UsageError("threads must be >= 1")
        return args.run(args)
    except FillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
