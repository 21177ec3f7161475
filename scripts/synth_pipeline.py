#!/usr/bin/env python3
"""End-to-end experiment on a synthetic cohort.

Generates an overlapping-phenotype cohort, prevalence-filters it, tunes
the classifier under both optimality criteria, sweeps the precision/yield
frontier, imputes the unknown records with the tuned pair, explains a few
of the newly classified records, and fits the logistic comparison model.
All outputs land in --out.

    python scripts/synth_pipeline.py --seed 7 --out runs/demo
"""

import argparse
import sys
from pathlib import Path

from fill import report
from fill.baseline import evaluate_two_cutoffs, fit_logistic
from fill.classify import Decision, FillModel, Hyperparameters, impute_unknowns
from fill.cohort import Label, prevalence_filter, write_cohort
from fill.distance import Metric, distance_matrix
from fill.errors import FillError, NoFeasibleCell
from fill.explain import explain_record
from fill.synth import default_spec, synth_cohort_with_truth, write_truth
from fill.tune import CriterionA, CriterionB, grid_search, precision_yield_frontier


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="runs/synth_pipeline")
    ap.add_argument("--n-labeled", type=int, default=200)
    ap.add_argument("--n-unlabeled", type=int, default=100)
    ap.add_argument("--min-precision", type=float, default=0.85)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = default_spec(
        n_labeled=args.n_labeled, n_unlabeled=args.n_unlabeled, seed=args.seed
    )
    cohort, truth = synth_cohort_with_truth(spec)
    cohort = prevalence_filter(cohort)
    write_cohort(cohort, out / "cohort.csv")
    write_truth(cohort.ids, truth, out / "truth.csv")
    print(f"cohort: {len(cohort)} records, "
          f"{len(cohort.schema.binary_names)} features after filtering")

    metric = Metric.JACCARD
    distances = distance_matrix(cohort, metric)
    print(f"distance matrix built ({distances.degenerate_pairs} degenerate pairs)")

    winners = {}
    for name, crit in (
        ("criterion_a", CriterionA(min_tp=10)),
        ("criterion_b", CriterionB(min_precision=args.min_precision)),
    ):
        try:
            res = grid_search(cohort, metric, criterion=crit)
            grid, w = res.grid, res.winner
        except NoFeasibleCell as exc:
            grid, w = exc.grid, None
        report.write_tree(report.grid_report_tree(crit, grid, w), out / f"{name}_report.json")
        report.write_grid_table(grid, out / f"{name}_table.csv")
        winners[name] = w
        if w is None:
            print(f"{name}: no feasible cell")
            continue
        print(
            f"{name}: S={w.radius:.4f} T={w.p_threshold:g} "
            f"tp={w.metrics.true_positives} fp={w.metrics.false_positives} "
            f"precision={w.metrics.precision:.4f} yield={w.metrics.yield_proportion:.4f}"
        )

    points = precision_yield_frontier(cohort, metric)
    report.write_tree({"frontier": report.frontier_tree(points)}, out / "frontier.json")

    winner = winners["criterion_b"]
    if winner is None:
        sys.exit("criterion_b has no feasible cell: nothing to impute")
    hp = Hyperparameters(winner.radius, winner.p_threshold, metric)
    model = FillModel.fit(cohort, hp)
    results = impute_unknowns(cohort, model, distances)
    report.write_imputations(results, out / "imputations.csv")
    newly = [r for r in results if r.decision is Decision.POS]
    truth_by_id = dict(zip(cohort.ids, truth))
    correct = sum(1 for r in newly if truth_by_id[r.record_id] is Label.POS)
    print(f"imputed {len(newly)} of {len(results)} unknowns as POS "
          f"({correct} match the hidden truth)")

    explanations = []
    for r in newly[:5]:
        try:
            expl = explain_record(r.record_id, cohort, model, distances)
        except FillError as exc:
            print(f"explain {r.record_id}: {exc}", file=sys.stderr)
            continue
        explanations.append(expl)
        report.write_volcano(expl, out / report.volcano_name(r.record_id))
    report.write_top_features(explanations, out / "top_features.csv")

    accuracy, precision, c_stat, cutoffs = evaluate_two_cutoffs(cohort, fit_logistic(cohort))
    report.write_baseline_report(
        out / "baseline_report.txt", accuracy, precision, c_stat, cutoffs
    )
    prec_txt = "NA" if precision[1] is None else f"{precision[1]:.4f}"
    print(f"logistic baseline: precision={prec_txt} c={c_stat:.4f} "
          f"(vs tuned local precision {winner.metrics.precision:.4f})")
    print(f"outputs in {out}")


if __name__ == "__main__":
    main()
