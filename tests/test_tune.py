import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from fill.classify import Decision, FillModel, Hyperparameters, base_rate, classify
from fill.cohort import Label
from fill.distance import Metric, distance_matrix
from fill.errors import EmptyGrid, NoFeasibleCell, TooFewLabeled
from fill.synth import default_spec, synth_cohort_with_truth
from fill.tune import (
    _neighborhood_counts,
    _tail_pvalues,
    CriterionA,
    CriterionB,
    GridCell,
    LooMetrics,
    default_radius_grid,
    default_threshold_grid,
    evaluate_grid,
    grid_search,
    loo_evaluate,
    precision_yield_frontier,
)

from conftest import make_cohort, random_cohort
from oracles import brute_force_cell, brute_force_winner


def hp(radius, threshold):
    return Hyperparameters(radius=radius, p_threshold=threshold, metric=Metric.JACCARD)


@pytest.fixture(scope="module")
def medium_cohort():
    rng = np.random.default_rng(41)
    return random_cohort(rng, 60, 6, n_unknown=15)


@pytest.fixture(scope="module")
def medium_distances(medium_cohort):
    return distance_matrix(medium_cohort, Metric.JACCARD)


class TestLooEvaluate:
    def test_radius_zero_duplicate_free(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        cohort = make_cohort(rows, ["POS", "NEG", "POS", "UNKNOWN"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        metrics = loo_evaluate(cohort, hp(0.0, 0.05), dm)
        assert metrics.true_positives == 0
        assert metrics.false_positives == 0
        assert metrics.precision is None
        assert metrics.yield_proportion == 0.0

    def test_too_few_labeled(self):
        cohort = make_cohort([[1], [0]], ["POS", "UNKNOWN"])
        dm = distance_matrix(cohort, Metric.JACCARD)
        with pytest.raises(TooFewLabeled):
            loo_evaluate(cohort, hp(0.5, 0.05), dm)

    def test_matches_classify_loop(self, medium_cohort, medium_distances):
        pair = hp(0.4, 0.05)
        metrics = loo_evaluate(medium_cohort, pair, medium_distances)
        model = FillModel.fit(medium_cohort, pair)
        tp = fp = newly = 0
        for rid, label in zip(medium_cohort.ids, medium_cohort.labels):
            res = classify(rid, medium_cohort, model, medium_distances, exclude=rid)
            if res.decision is Decision.POS:
                if label is Label.POS:
                    tp += 1
                elif label is Label.NEG:
                    fp += 1
                else:
                    newly += 1
        n_labeled = int(medium_cohort.labeled_mask.sum())
        assert metrics.true_positives == tp
        assert metrics.false_positives == fp
        assert metrics.yield_proportion == newly / n_labeled

    def test_matches_brute_force(self, medium_cohort):
        dm = distance_matrix(medium_cohort, Metric.JACCARD)
        cache = {}
        n_labeled = int(medium_cohort.labeled_mask.sum())
        n_pos = int(medium_cohort.pos_mask.sum())
        for radius in (0.0, 0.3, 0.6, 1.0):
            for threshold in (0.001, 0.05, 0.5):
                got = loo_evaluate(medium_cohort, hp(radius, threshold), dm)
                tp, fp, precision, yld = brute_force_cell(
                    medium_cohort, "jaccard", radius, threshold, cache
                )
                assert (got.true_positives, got.false_positives) == (tp, fp)
                assert got.precision == precision
                assert got.yield_proportion == yld
                assert got.true_positives + got.false_positives <= n_labeled
                assert got.true_positives <= n_pos


class TestMetricArithmetic:
    def test_precision_ratio_fixture(self):
        m = LooMetrics(46, 8, 46 / 54, 0.0)
        assert m.precision == 46 / 54
        assert f"{m.precision:.3f}" == "0.852"

    def test_yield_ratio_fixture(self):
        assert 605 / 2418 == pytest.approx(0.2502, abs=5e-5)


class TestGridSearch:
    def test_unique_feasible_cell_wins_criterion_a(self, medium_cohort, medium_distances):
        cells = evaluate_grid(
            medium_cohort, Metric.JACCARD, (0.0, 0.4, 0.8), (0.01, 0.2),
            distances=medium_distances,
        )
        tps = sorted({c.metrics.true_positives for c in cells}, reverse=True)
        # pick a bound that exactly one cell satisfies, if the data allows
        for bound in tps:
            matching = [c for c in cells if c.metrics.true_positives >= bound]
            if len(matching) == 1:
                report = grid_search(
                    medium_cohort, Metric.JACCARD, (0.0, 0.4, 0.8), (0.01, 0.2),
                    CriterionA(min_tp=bound), distances=medium_distances,
                )
                assert report.winner == matching[0]
                return
        pytest.skip("grid has no uniquely feasible bound")

    def test_winner_matches_brute_force(self, medium_cohort, medium_distances):
        radii = (0.0, 0.25, 0.5, 0.75, 1.0)
        thresholds = (0.001, 0.01, 0.05, 0.2)
        cells = evaluate_grid(
            medium_cohort, Metric.JACCARD, radii, thresholds,
            distances=medium_distances,
        )
        flat = [
            (c.radius, c.p_threshold, c.metrics.true_positives,
             c.metrics.false_positives, c.metrics.precision,
             c.metrics.yield_proportion)
            for c in cells
        ]
        for criterion, name, bound in [
            (CriterionA(min_tp=1), "a", 1),
            (CriterionA(min_tp=5), "a", 5),
            (CriterionB(min_precision=0.5), "b", 0.5),
            (CriterionB(min_precision=0.0), "b", 0.0),
        ]:
            expected = brute_force_winner(flat, name, bound)
            try:
                report = grid_search(
                    medium_cohort, Metric.JACCARD, radii, thresholds, criterion,
                    distances=medium_distances,
                )
                got = (report.winner.radius, report.winner.p_threshold)
            except NoFeasibleCell:
                got = None
            if expected is None:
                assert got is None
            else:
                assert got == (expected[0], expected[1])

    def test_no_feasible_cell_carries_grid(self, medium_cohort, medium_distances):
        with pytest.raises(NoFeasibleCell) as err:
            grid_search(
                medium_cohort, Metric.JACCARD, (0.0,), (0.001,),
                CriterionA(min_tp=10**6), distances=medium_distances,
            )
        assert len(err.value.grid) == 1
        assert isinstance(err.value.grid[0], GridCell)

    def test_empty_grid(self, medium_cohort, medium_distances):
        with pytest.raises(EmptyGrid):
            grid_search(medium_cohort, Metric.JACCARD, (), (0.05,),
                        distances=medium_distances)
        with pytest.raises(EmptyGrid):
            grid_search(medium_cohort, Metric.JACCARD, (0.5,), (),
                        distances=medium_distances)

    def test_deterministic_across_threads(self, medium_cohort, medium_distances):
        kwargs = dict(
            radius_grid=(0.0, 0.3, 0.6, 1.0),
            threshold_grid=(0.001, 0.05, 0.5),
            criterion=CriterionB(min_precision=0.0),
            distances=medium_distances,
        )
        reports = [
            grid_search(medium_cohort, Metric.JACCARD, threads=t, **kwargs)
            for t in (1, 4, 8)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_default_grids(self, medium_cohort, medium_distances):
        radii = default_radius_grid(medium_cohort, medium_distances)
        assert all(r >= 0 for r in radii)
        assert list(radii) == sorted(radii)
        assert len(radii) <= 41
        thresholds = default_threshold_grid()
        assert 1e-6 in thresholds and 0.05 in thresholds and 0.1 in thresholds
        assert len(thresholds) == 9


class TestFrontier:
    def test_infeasible_floor_flagged(self, medium_cohort, medium_distances):
        points = precision_yield_frontier(
            medium_cohort, Metric.JACCARD, (0.0,), (0.001,),
            thresholds=(0.80,), distances=medium_distances,
        )
        assert len(points) == 2  # requested floor + unconstrained
        assert points[0].min_precision == 0.80
        assert not points[0].feasible

    def test_feasible_floors_nest(self, medium_cohort, medium_distances):
        points = precision_yield_frontier(
            medium_cohort, Metric.JACCARD,
            (0.0, 0.25, 0.5, 0.75, 1.0), (0.001, 0.01, 0.05, 0.2),
            distances=medium_distances,
        )
        feasible = {p.min_precision: p for p in points if p.feasible}
        floors = sorted(feasible)
        for lo, hi in zip(floors, floors[1:]):
            assert feasible[lo].true_positives >= feasible[hi].true_positives
        for p in points:
            if p.feasible and p.min_precision > 0:
                assert p.achieved_precision >= p.min_precision

    def test_unconstrained_point_is_max_tp(self, medium_cohort, medium_distances):
        radii = (0.0, 0.25, 0.5, 0.75, 1.0)
        thresholds = (0.001, 0.01, 0.05, 0.2)
        points = precision_yield_frontier(
            medium_cohort, Metric.JACCARD, radii, thresholds,
            distances=medium_distances,
        )
        cells = evaluate_grid(
            medium_cohort, Metric.JACCARD, radii, thresholds,
            distances=medium_distances,
        )
        max_tp = max(
            c.metrics.true_positives for c in cells if c.metrics.precision is not None
        )
        unconstrained = [p for p in points if p.min_precision == 0.0][0]
        assert unconstrained.true_positives == max_tp


class TestCountKernel:
    # Off round values, so no tail that is an exact small fraction (such as
    # 1/2 or a base rate of 3/10) sits on a threshold where rounding decides.
    THRESHOLDS = (0.0100003, 0.0500003, 0.2500003, 0.5000003)

    @given(
        seed=st.integers(0, 2**32 - 1),
        metric=st.sampled_from(list(Metric)),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_grid_and_loo_match_brute_force(self, seed, metric, data):
        rng = np.random.default_rng(seed)
        n_records = int(rng.integers(3, 16))
        cohort = random_cohort(
            rng, n_records, int(rng.integers(1, 6)),
            n_unknown=int(rng.integers(0, n_records - 1)),
            n_continuous=2 if metric is Metric.GOWER else 0,
        )
        dm = distance_matrix(cohort, metric)
        # radii taken from the distances themselves exercise the closed ball's <= tie
        values = sorted(set(dm.values.ravel().tolist()))
        radii = data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=4))
        cells = evaluate_grid(cohort, metric, radii, self.THRESHOLDS, distances=dm)
        cache = {}
        for cell in cells:
            m = cell.metrics
            got = (m.true_positives, m.false_positives, m.precision, m.yield_proportion)
            assert got == brute_force_cell(
                cohort, metric.value, cell.radius, cell.p_threshold, cache
            )
            pair = Hyperparameters(cell.radius, cell.p_threshold, metric)
            assert loo_evaluate(cohort, pair, dm) == m

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_tail_decisions_match_scipy(self, seed):
        """No (n, k) the default grid uses flips a decision against scipy.

        The tail tables use a reverse cumulative sum, not an exactly rounded
        sum (math.fsum); over the (n, k, p0) of the benchmark cohorts the two
        differ by at most 1.9e-15 relative. Only a tail within 1e-9 relative
        of a threshold may be decided either way.
        """
        cohort, _ = synth_cohort_with_truth(default_spec(1400, 600, 60, seed=seed))
        dm = distance_matrix(cohort, Metric.JACCARD)
        radii = np.array(default_radius_grid(cohort, dm))
        n_arr, k_arr = _neighborhood_counts(cohort, dm, radii)
        n_used, k_used = np.unique(np.stack([n_arr.ravel(), k_arr.ravel()]), axis=1)
        p0 = base_rate(cohort)
        ours = _tail_pvalues(n_used, k_used, p0)
        reference = binom.sf(k_used - 1, n_used, p0)
        for t in default_threshold_grid():
            flipped = (ours < t) != (reference < t)
            near = np.abs(reference - t) <= 1e-9 * t
            assert not (flipped & ~near).any(), f"decision flips at T={t}"
