"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fill.baseline import evaluate_baseline, fit_logistic, optimal_cutoff, predict_scores
from fill.classify import FillModel, Hyperparameters, classify, impute_unknowns
from fill.cli import main
from fill.cohort import Label, write_cohort
from fill.distance import Metric, distance_matrix, gower, jaccard, manhattan
from fill.errors import DegenerateTable, NoFeasibleCell
from fill.stats import bh_fdr, binom_sf, fisher_exact, welch_t
from fill.synth import default_spec, synth_cohort_with_truth, write_truth
from fill.tune import CriterionB, evaluate_grid, grid_search, loo_evaluate, select_winner

from conftest import neighbors_of, random_cohort
from oracles import (
    brute_force_cell,
    brute_force_winner,
    exact_fisher_p,
    naive_gower,
    naive_jaccard,
    naive_manhattan,
    quad_t_two_tailed,
    welch_df,
)

ACCEPTANCE_SEED = 7
GRID_RADII = (0.0, 0.15, 0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.85, 1.0)
GRID_THRESHOLDS = (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.02, 0.05, 0.1)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL", flush=True)
        raise
    print(f"[criterion {number}] {label}: PASS", flush=True)


@pytest.fixture(scope="module")
def seed7():
    spec = default_spec(
        n_labeled=200, n_unlabeled=100, n_binary_features=30,
        n_phenotypes=3, positive_fraction=0.4, noise_rate=0.02,
        seed=ACCEPTANCE_SEED,
    )
    cohort, truth = synth_cohort_with_truth(spec)
    distances = distance_matrix(cohort, Metric.JACCARD)
    return cohort, truth, distances


def test_criterion_1_binomial_oracle():
    with criterion(1, "binom_sf vs exact enumeration, n <= 50, |err| <= 1e-12"):
        start = time.time()
        worst = 0.0
        for p in (0.1, 875 / 2418, 0.5, 1079 / 1771, 0.9):
            pf = Fraction(p)
            qf = 1 - pf
            for n in range(0, 51):
                terms = [
                    math.comb(n, j) * pf**j * qf ** (n - j) for j in range(n + 1)
                ]
                tail = Fraction(0)
                exact = [Fraction(0)] * (n + 2)
                for j in range(n, -1, -1):
                    tail += terms[j]
                    exact[j] = tail
                for k in range(n + 1):
                    worst = max(worst, abs(binom_sf(k, n, p) - float(exact[k])))
        elapsed = time.time() - start
        assert worst <= 1e-12, f"worst abs error {worst}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_2_fisher_oracle():
    with criterion(2, "fisher vs hypergeometric enumeration, sums <= 30, rel <= 1e-10"):
        start = time.time()
        worst = 0.0
        checked = 0
        total = 30
        for a in range(total + 1):
            for b in range(total + 1 - a):
                for c in range(total + 1 - a - b):
                    for d in range(total + 1 - a - b - c):
                        if a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0:
                            with pytest.raises(DegenerateTable):
                                fisher_exact([[a, b], [c, d]])
                            continue
                        got = fisher_exact([[a, b], [c, d]]).p_value
                        expected = float(exact_fisher_p(a, b, c, d))
                        rel = abs(got - expected) / expected
                        worst = max(worst, rel)
                        checked += 1
        elapsed = time.time() - start
        assert checked > 40_000
        assert worst <= 1e-10, f"worst rel error {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_welch_and_fdr():
    with criterion(3, "welch vs quadrature |err| <= 1e-8; BH fixtures exact"):
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        for _ in range(100):
            nx = int(rng.integers(2, 12))
            ny = int(rng.integers(2, 12))
            xs = (rng.normal(0, 1, nx) * rng.uniform(0.5, 3)).round(6)
            ys = (rng.normal(rng.uniform(-1, 1), 1, ny)).round(6)
            if np.var(xs, ddof=1) == 0 and np.var(ys, ddof=1) == 0:
                continue
            got = welch_t(xs, ys)
            t, df = welch_df(xs, ys)
            assert got.statistic == pytest.approx(t, rel=1e-10)
            assert abs(got.p_value - quad_t_two_tailed(t, df)) <= 1e-8
        assert bh_fdr([0.037]) == [0.037]
        assert bh_fdr([0.01, 0.02, 0.03, 0.04]) == [0.04, 0.04, 0.04, 0.04]
        assert bh_fdr([0.5, 0.005, 0.03]) == [0.5, 0.015, 0.045]


def test_criterion_4_distance_oracles():
    with criterion(4, "three metrics bitwise equal to naive loops on 500 pairs"):
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        degenerate_seen = 0
        for trial in range(500):
            width = int(rng.integers(1, 40))
            # sparse draws make genuine 0/0-degenerate pairs common
            density = rng.uniform(0.02, 0.7)
            a = (rng.random(width) < density).astype(int).tolist()
            b = (rng.random(width) < density).astype(int).tolist()
            n_cont = int(rng.integers(0, 4))
            ranges = []
            xs, ys = [], []
            for _ in range(n_cont):
                lo = float(rng.uniform(-10, 10))
                hi = lo if rng.random() < 0.2 else lo + float(rng.uniform(0, 20))
                ranges.append((lo, hi))
                xs.append(float(rng.uniform(lo, hi)) if hi > lo else lo)
                ys.append(float(rng.uniform(lo, hi)) if hi > lo else lo)
            if not any(x or y for x, y in zip(a, b)):
                degenerate_seen += 1
            dj = jaccard(a, b)
            dm = manhattan(a, b)
            dg = gower(a, b, xs, ys, ranges)
            assert dj == naive_jaccard(a, b)
            assert dm == naive_manhattan(a, b)
            assert dg == naive_gower(a, b, xs, ys, ranges)
            assert 0.0 <= dj <= 1.0
            assert 0.0 <= dg <= 1.0
        assert degenerate_seen > 0, "sample must exercise the 0/0 convention"


def test_criterion_5_loo_and_grid_vs_brute_force(seed7):
    with criterion(5, "seed-7 LOO + grid winners match brute force on 10x8 grid"):
        start = time.time()
        cohort, _, _ = seed7
        cells = evaluate_grid(cohort, Metric.JACCARD, GRID_RADII, GRID_THRESHOLDS)
        assert len(cells) == 80
        pair_cache = {}
        flat = []
        for cell in cells:
            metrics = loo_evaluate(
                cohort, Hyperparameters(cell.radius, cell.p_threshold, Metric.JACCARD)
            )
            assert metrics == cell.metrics  # grid path == single-cell path
            tp, fp, precision, yld = brute_force_cell(
                cohort, "jaccard", cell.radius, cell.p_threshold, pair_cache
            )
            assert metrics.true_positives == tp
            assert metrics.false_positives == fp
            assert metrics.precision == precision
            assert metrics.yield_proportion == yld
            flat.append((cell.radius, cell.p_threshold, tp, fp, precision, yld))
        for name, bound in (("a", 10), ("b", 0.85), ("b", 0.5)):
            expected = brute_force_winner(flat, name, bound)
            crit = (
                CriterionB(min_precision=bound)
                if name == "b"
                else __import__("fill.tune", fromlist=["CriterionA"]).CriterionA(min_tp=bound)
            )
            try:
                got = select_winner(cells, crit)
                got_pair = (got.radius, got.p_threshold)
            except NoFeasibleCell:
                got_pair = None
            assert got_pair == (None if expected is None else (expected[0], expected[1]))
        elapsed = time.time() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_metric_arithmetic_fixtures():
    with criterion(6, "precision/yield/base-rate fixtures exact"):
        from conftest import cell_metrics as _cell_metrics, make_cohort
        from fill.classify import base_rate

        # drive the production counting path with a decided/undecided split
        # matching the documented counts: 46 TP + 8 FP over 2418 labeled,
        # 605 newly classified unknowns
        labels = (
            ["POS"] * 46 + ["NEG"] * 8 + ["POS"] * 829 + ["NEG"] * 1535
            + ["UNKNOWN"] * 700
        )
        cohort = make_cohort([[0]] * len(labels), labels)
        p_arr = np.ones(len(labels))
        p_arr[:54] = 0.0                    # the decided labeled records
        p_arr[2418 : 2418 + 605] = 0.0      # the newly classified unknowns
        metrics = _cell_metrics(cohort, p_arr, 0.5)
        assert metrics.true_positives == 46
        assert metrics.false_positives == 8
        assert metrics.precision == 46 / 54
        assert f"{metrics.precision:.3f}" == "0.852"
        assert metrics.yield_proportion == 605 / 2418
        assert metrics.yield_proportion == pytest.approx(0.2502, abs=5e-5)
        # base rates at both reference cohort scales
        c1 = make_cohort([[0]] * 2418, ["POS"] * 875 + ["NEG"] * 1543)
        assert base_rate(c1) == 875 / 2418
        c2 = make_cohort([[0]] * 1771, ["POS"] * 1079 + ["NEG"] * 692)
        assert base_rate(c2) == 1079 / 1771


def test_criterion_7a_fill_beats_logistic_on_seed7(seed7):
    with criterion(7, "a: FILL B(0.85) >= 0.85 and strictly above logistic"):
        cohort, _, distances = seed7
        report = grid_search(
            cohort, Metric.JACCARD, criterion=CriterionB(min_precision=0.85),
            distances=distances,
        )
        fill_precision = report.winner.metrics.precision
        assert fill_precision >= 0.85
        model = fit_logistic(cohort)
        labeled = cohort.labeled_mask
        scores = predict_scores(cohort, model)[labeled]
        labels = [Label.POS if v else Label.NEG for v in cohort.pos_mask[labeled]]
        cutoff = optimal_cutoff(scores, labels)
        _, precision_default, _ = evaluate_baseline(cohort, model, 0.5)
        _, precision_optimal, _ = evaluate_baseline(cohort, model, cutoff)
        assert precision_default < fill_precision
        assert precision_optimal < fill_precision
        # regression freeze from the first verified run of this fixture
        assert report.winner.metrics.true_positives == 73
        assert report.winner.metrics.false_positives == 6
        assert fill_precision == 73 / 79
        assert precision_default == 50 / 71
        assert precision_optimal == 13 / 19


def test_criterion_7b_frontier_monotonicity(seed7):
    with criterion(7, "b: winner TP under B(0.80) >= TP under B(0.95)"):
        cohort, _, _ = seed7
        cells = evaluate_grid(cohort, Metric.JACCARD, GRID_RADII, GRID_THRESHOLDS)
        tp_by_floor = {}
        for floor in (0.80, 0.95):
            try:
                tp_by_floor[floor] = select_winner(
                    cells, CriterionB(min_precision=floor)
                ).metrics.true_positives
            except NoFeasibleCell:
                tp_by_floor[floor] = None
        if tp_by_floor[0.80] is not None and tp_by_floor[0.95] is not None:
            assert tp_by_floor[0.80] >= tp_by_floor[0.95]
        else:
            # nesting still demands: feasible at 0.95 implies feasible at 0.80
            assert tp_by_floor[0.95] is None
        # and on the independent unit-test cohort
        rng = np.random.default_rng(99)
        other = random_cohort(rng, 80, 8, n_unknown=20)
        other_cells = evaluate_grid(
            other, Metric.JACCARD, (0.0, 0.25, 0.5, 0.75, 1.0), (0.001, 0.01, 0.05, 0.2)
        )
        pairs = {}
        for floor in (0.80, 0.95):
            try:
                pairs[floor] = select_winner(
                    other_cells, CriterionB(min_precision=floor)
                ).metrics.true_positives
            except NoFeasibleCell:
                pairs[floor] = None
        if pairs[0.95] is not None:
            assert pairs[0.80] is not None
            assert pairs[0.80] >= pairs[0.95]


def test_criterion_7c_hidden_truth_never_leaks(seed7, tmp_path):
    with criterion(7, "c: mutating hidden truth changes no classification output"):
        cohort, truth, distances = seed7
        hp = Hyperparameters(0.5, 0.01, Metric.JACCARD)
        model = FillModel.fit(cohort, hp)
        baseline_results = impute_unknowns(cohort, model, distances)

        # flip every UNKNOWN record's hidden label; outputs must not move
        mutated = [
            (Label.NEG if t is Label.POS else Label.POS)
            if lab is Label.UNKNOWN else t
            for t, lab in zip(truth, cohort.labels)
        ]
        again = impute_unknowns(cohort, model, distances)
        assert baseline_results == again

        # same check through the CLI with the sidecar file on disk
        cohort_path = tmp_path / "cohort.csv"
        write_cohort(cohort, cohort_path)
        write_truth(cohort.ids, truth, tmp_path / "truth.csv")
        out_a = tmp_path / "a"
        assert main([
            "impute", "--input", str(cohort_path), "--metric", "jaccard",
            "--radius", "0.5", "--pvalue", "0.01", "--out", str(out_a),
        ]) == 0
        write_truth(cohort.ids, mutated, tmp_path / "truth.csv")
        out_b = tmp_path / "b"
        assert main([
            "impute", "--input", str(cohort_path), "--metric", "jaccard",
            "--radius", "0.5", "--pvalue", "0.01", "--out", str(out_b),
        ]) == 0
        assert (out_a / "imputations.csv").read_bytes() == (
            out_b / "imputations.csv"
        ).read_bytes()


def test_criterion_8_thread_count_determinism(seed7, tmp_path):
    with criterion(8, "tune and impute byte-identical at 1, 4, 8 threads"):
        cohort, _, _ = seed7
        cohort_path = tmp_path / "cohort.csv"
        write_cohort(cohort, cohort_path)
        grid_args = [
            "--radius-grid", ",".join(str(r) for r in GRID_RADII),
            "--pvalue-grid", ",".join(str(t) for t in GRID_THRESHOLDS),
        ]
        tune_blobs, impute_blobs = [], []
        for threads in ("1", "4", "8"):
            tune_out = tmp_path / f"tune{threads}"
            assert main([
                "tune", "--input", str(cohort_path), "--metric", "jaccard",
                "--criterion", "b", "--min-precision", "0.85",
                *grid_args, "--threads", threads, "--out", str(tune_out),
            ]) == 0
            tune_blobs.append(
                (tune_out / "grid_report.json").read_bytes()
                + (tune_out / "grid_table.csv").read_bytes()
            )
            impute_out = tmp_path / f"impute{threads}"
            assert main([
                "impute", "--input", str(cohort_path), "--metric", "jaccard",
                "--radius", "0.5", "--pvalue", "0.01",
                "--threads", threads, "--out", str(impute_out),
            ]) == 0
            impute_blobs.append(
                (impute_out / "imputations.csv").read_bytes()
                + (impute_out / "impute_summary.json").read_bytes()
            )
        assert tune_blobs[0] == tune_blobs[1] == tune_blobs[2]
        assert impute_blobs[0] == impute_blobs[1] == impute_blobs[2]


def test_criterion_9_monotonicity_properties():
    with criterion(9, "monotone in T, nested in S, bh_fdr >= input (1000 each)"):
        rng = np.random.default_rng(ACCEPTANCE_SEED)

        # bh_fdr pointwise >= input
        for _ in range(1000):
            pvals = rng.random(int(rng.integers(1, 30))).tolist()
            adjusted = bh_fdr(pvals)
            assert all(a >= p for a, p in zip(adjusted, pvals))
            assert all(a <= 1.0 for a in adjusted)

        cohorts = []
        for i in range(4):
            c = random_cohort(
                np.random.default_rng(1000 + i), 40, 6, n_unknown=8
            )
            cohorts.append((c, distance_matrix(c, Metric.JACCARD)))

        # POS decisions monotone in the threshold
        for _ in range(1000):
            cohort, dm = cohorts[int(rng.integers(len(cohorts)))]
            rid = cohort.ids[int(rng.integers(len(cohort)))]
            radius = float(rng.uniform(0, 1))
            t1, t2 = sorted(rng.uniform(1e-6, 1.0, size=2).tolist())
            m1 = FillModel.fit(cohort, Hyperparameters(radius, t1, Metric.JACCARD))
            m2 = FillModel.fit(cohort, Hyperparameters(radius, t2, Metric.JACCARD))
            d1 = classify(rid, cohort, m1, dm).decision
            d2 = classify(rid, cohort, m2, dm).decision
            if d1.name == "POS":
                assert d2.name == "POS"

        # neighbor sets nest as the radius grows
        for _ in range(1000):
            cohort, dm = cohorts[int(rng.integers(len(cohorts)))]
            rid = cohort.ids[int(rng.integers(len(cohort)))]
            s1, s2 = sorted(rng.uniform(0, 1.1, size=2).tolist())
            m1 = FillModel.fit(cohort, Hyperparameters(s1, 0.05, Metric.JACCARD))
            m2 = FillModel.fit(cohort, Hyperparameters(s2, 0.05, Metric.JACCARD))
            n1 = set(neighbors_of(rid, cohort, m1, dm))
            n2 = set(neighbors_of(rid, cohort, m2, dm))
            assert n1 <= n2
