import math

import numpy as np
import pytest

from fill.baseline import (
    c_statistic,
    evaluate_baseline,
    evaluate_two_cutoffs,
    fit_logistic,
    optimal_cutoff,
    predict_scores,
)
from fill.cohort import Label
from fill.errors import SchemaMismatch, SingleClass

from conftest import make_cohort, random_cohort
from oracles import loop_c_statistic, loop_optimal_cutoff, naive_auc

POS, NEG = Label.POS, Label.NEG


class TestFitLogistic:
    def test_useless_feature_recovers_base_rate(self):
        # POS rate 0.3 in both feature groups: weight ~ 0, intercept ~ log-odds of 0.3
        rows, labels = [], []
        for value in (0, 1):
            rows += [[value]] * 100
            labels += ["POS"] * 30 + ["NEG"] * 70
        cohort = make_cohort(rows, labels)
        model = fit_logistic(cohort)
        assert model.converged
        assert abs(model.weights[0]) < 1e-4
        assert model.weights[1] == pytest.approx(math.log(0.3 / 0.7), abs=1e-4)

    def test_separable_stays_finite(self):
        rows = [[1, 0]] * 20 + [[0, 1]] * 20
        labels = ["POS"] * 20 + ["NEG"] * 20
        cohort = make_cohort(rows, labels)
        model = fit_logistic(cohort)
        assert model.converged
        assert np.all(np.isfinite(model.weights))
        scores = predict_scores(cohort, model)
        assert scores[:20].min() > scores[20:].max()

    def test_recovers_generating_log_odds(self):
        rng = np.random.default_rng(43)
        n = 10_000
        true_w = np.array([0.8, -1.2])
        intercept = -0.3
        X = rng.integers(0, 2, size=(n, 2))
        logits = X @ true_w + intercept
        y = rng.random(n) < 1.0 / (1.0 + np.exp(-logits))
        cohort = make_cohort(
            X.tolist(), ["POS" if v else "NEG" for v in y]
        )
        model = fit_logistic(cohort)
        assert model.converged
        assert model.weights[0] == pytest.approx(true_w[0], abs=0.1)
        assert model.weights[1] == pytest.approx(true_w[1], abs=0.1)
        assert model.weights[2] == pytest.approx(intercept, abs=0.1)

    def test_single_class_rejected(self):
        cohort = make_cohort([[1], [0]], ["POS", "POS"])
        with pytest.raises(SingleClass):
            fit_logistic(cohort)

    def test_unknowns_excluded_from_fit(self):
        rows = [[1], [0]] * 10 + [[1]] * 50
        labels = ["POS", "NEG"] * 10 + ["UNKNOWN"] * 50
        cohort = make_cohort(rows, labels)
        model = fit_logistic(cohort)
        assert np.all(np.isfinite(model.weights))


class TestOptimalCutoff:
    def test_perfectly_separated_prefers_half(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [NEG, NEG, POS, POS]
        assert optimal_cutoff(scores, labels) == 0.5

    def test_four_candidate_example(self):
        scores = [0.2, 0.4, 0.6, 0.8]
        labels = [NEG, POS, NEG, POS]
        # brute force over {0.2, 0.4, 0.5, 0.6, 0.8}: min error 1 at 0.4 and
        # 0.8; 0.4 sits closer to 0.5
        assert optimal_cutoff(scores, labels) == 0.4

    def test_degenerate_identical_scores(self):
        scores = [0.3, 0.3, 0.3]
        labels = [POS, POS, NEG]
        assert optimal_cutoff(scores, labels) == 0.3

    def test_never_worse_than_half(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = rng.random(n).round(2).tolist()
            labels = [POS if rng.random() < 0.5 else NEG for _ in range(n)]
            if all(l is POS for l in labels) or all(l is NEG for l in labels):
                continue
            cut = optimal_cutoff(scores, labels)
            def errors(c):
                return sum(1 for s, l in zip(scores, labels) if (s >= c) != (l is POS))
            assert errors(cut) <= errors(0.5)

    def test_equals_candidate_loop(self):
        rng = np.random.default_rng(71)
        for n in list(range(2, 40)) * 8:
            # rounding makes ties, and 0.5 is sometimes a score itself
            scores = rng.random(n).round(int(rng.integers(1, 4))).tolist()
            labels = [POS if rng.random() < 0.4 else NEG for _ in range(n)]
            if all(l is POS for l in labels) or all(l is NEG for l in labels):
                continue
            assert optimal_cutoff(scores, labels) == loop_optimal_cutoff(scores, labels)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            optimal_cutoff([0.4, 0.6], [POS, POS])


class TestCStatistic:
    def test_perfect_and_tied(self):
        assert c_statistic([0.1, 0.4, 0.35, 0.8], [NEG, POS, NEG, POS]) == 1.0
        assert c_statistic([0.2, 0.2, 0.6, 0.6], [NEG, POS, NEG, POS]) == 0.5

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            scores = rng.random(n).round(3).tolist()
            labels = [POS if rng.random() < 0.5 else NEG for _ in range(n)]
            if all(l is POS for l in labels) or all(l is NEG for l in labels):
                continue
            assert c_statistic(scores, labels) == pytest.approx(
                naive_auc(scores, labels), abs=1e-12
            )
            assert c_statistic(scores, labels) == loop_c_statistic(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(59)
        scores = rng.random(30).tolist()
        labels = [POS if rng.random() < 0.4 else NEG for _ in range(30)]
        transformed = [math.tanh(3.0 * s) + 2.0 for s in scores]
        assert c_statistic(scores, labels) == c_statistic(transformed, labels)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(61)
        scores = rng.random(4000).tolist()
        labels = [POS if rng.random() < 0.5 else NEG for _ in range(4000)]
        assert c_statistic(scores, labels) == pytest.approx(0.5, abs=0.05)


class TestEvaluateBaseline:
    def test_perfect_scores(self):
        rows = [[1]] * 10 + [[0]] * 10
        cohort = make_cohort(rows, ["POS"] * 10 + ["NEG"] * 10)
        model = fit_logistic(cohort)
        accuracy, precision, c_stat = evaluate_baseline(cohort, model, 0.5)
        assert accuracy == 1.0
        assert precision == 1.0
        assert c_stat == 1.0

    def test_hand_built_counts(self):
        rng = np.random.default_rng(67)
        cohort = random_cohort(rng, 50, 4)
        model = fit_logistic(cohort)
        cutoff = 0.45
        accuracy, precision, c_stat = evaluate_baseline(cohort, model, cutoff)
        scores = predict_scores(cohort, model)
        is_pos = cohort.pos_mask
        predictions = scores >= cutoff
        tp = int((predictions & is_pos).sum())
        fp = int((predictions & ~is_pos).sum())
        tn = int((~predictions & ~is_pos).sum())
        assert accuracy == (tp + tn) / 50
        if tp + fp:
            assert precision == tp / (tp + fp)
        labels = [POS if v else NEG for v in is_pos]
        assert c_stat == pytest.approx(naive_auc(scores.tolist(), labels), abs=1e-12)

    def test_schema_mismatch(self):
        c1 = make_cohort([[1, 0], [0, 1]], ["POS", "NEG"])
        c2 = make_cohort([[1], [0]], ["POS", "NEG"])
        model = fit_logistic(c1)
        with pytest.raises(SchemaMismatch):
            evaluate_baseline(c2, model, 0.5)

    def test_deterministic_and_order_free(self):
        rng = np.random.default_rng(71)
        cohort = random_cohort(rng, 40, 4)
        model = fit_logistic(cohort)
        first = evaluate_baseline(cohort, model, 0.5)
        second = evaluate_baseline(cohort, model, 0.5)
        assert first == second

    def test_two_cutoffs_at_half_and_optimum(self):
        cohort = random_cohort(np.random.default_rng(73), 60, 4, n_unknown=10)
        model = fit_logistic(cohort)
        labeled = cohort.labeled_mask
        scores = predict_scores(cohort, model)[labeled]
        labels = [POS if v else NEG for v in cohort.pos_mask[labeled]]
        best = optimal_cutoff(scores, labels)
        acc_d, prec_d, c_stat = evaluate_baseline(cohort, model, 0.5)
        acc_o, prec_o, _ = evaluate_baseline(cohort, model, best)
        assert evaluate_two_cutoffs(cohort, model) == (
            (acc_d, acc_o), (prec_d, prec_o), c_stat, (0.5, best)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_two_cutoffs_equal_evaluate_baseline(self, seed):
        """Scoring once gives evaluate_baseline's values at both cutoffs, including
        a precision of None when a cutoff predicts nothing POS."""
        rng = np.random.default_rng(seed)
        cohort = random_cohort(rng, int(rng.integers(6, 80)), int(rng.integers(1, 6)),
                               n_unknown=3, n_continuous=int(rng.integers(0, 2)))
        model = fit_logistic(cohort)
        labeled = cohort.labeled_mask
        labels = [POS if v else NEG for v in cohort.pos_mask[labeled]]
        best = optimal_cutoff(predict_scores(cohort, model)[labeled], labels)
        accuracies, precisions, c_stat, cutoffs = evaluate_two_cutoffs(cohort, model)
        assert cutoffs == (0.5, best)
        for cutoff, accuracy, precision in zip(cutoffs, accuracies, precisions):
            assert evaluate_baseline(cohort, model, cutoff) == (accuracy, precision, c_stat)
        unreachable = evaluate_baseline(cohort, model, 1.5)
        assert unreachable[1] is None and unreachable[2] == c_stat
