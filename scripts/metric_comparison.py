#!/usr/bin/env python3
"""Compare the three distance metrics on one synthetic cohort.

Emits a frontier table per metric (best yield at each precision floor)
plus a combined summary, the data behind precision-vs-yield charts.

    python scripts/metric_comparison.py --seed 7 --out runs/metrics
"""

import argparse
from pathlib import Path

from fill import report
from fill.distance import Metric
from fill.synth import default_spec, synth_cohort
from fill.tune import precision_yield_frontier

FLOORS = (0.80, 0.85, 0.90, 0.95)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="runs/metric_comparison")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cohort = synth_cohort(default_spec(seed=args.seed))
    summary = {}
    for metric in (Metric.JACCARD, Metric.MANHATTAN, Metric.GOWER):
        points = precision_yield_frontier(cohort, metric, thresholds=FLOORS)
        summary[metric.value] = report.frontier_tree(points)
        for p in points:
            if p.winner is None:
                print(f"{metric.value:9s} floor={p.min_precision:.2f} infeasible")
                continue
            m = p.winner.metrics
            print(
                f"{metric.value:9s} floor={p.min_precision:.2f} "
                f"precision={m.precision:.4f} "
                f"tp={m.true_positives} yield={m.yield_proportion:.4f}"
            )
    report.write_tree(summary, out / "frontiers.json")
    print(f"wrote {out / 'frontiers.json'}")


if __name__ == "__main__":
    main()
