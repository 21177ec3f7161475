import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import fill.distance
import fill.tune
from fill.classify import Decision, FillModel, Hyperparameters, base_rate, classify
from fill.cohort import Label
from fill.distance import ROW_BLOCK, DistanceMatrix, Metric, distance_matrix
from fill.errors import EmptyGrid, IncompatibleMetric, InvalidGrid, NoFeasibleCell, TooFewLabeled
from fill.report import dumps_tree, frontier_tree
from fill.synth import default_spec, synth_cohort_with_truth
from fill.stats import binom_tail
from fill.tune import (
    _decision_thresholds,
    _neighborhood_counts,
    _quantile_radii,
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

from conftest import make_cohort, random_cohort, reversed_cohort
from oracles import brute_force_cell, brute_force_winner, full_table_k_star


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
        metrics = loo_evaluate(cohort, hp(0.0, 0.05))
        assert metrics.true_positives == 0
        assert metrics.false_positives == 0
        assert metrics.precision is None
        assert metrics.yield_proportion == 0.0

    def test_too_few_labeled(self):
        cohort = make_cohort([[1], [0]], ["POS", "UNKNOWN"])
        with pytest.raises(TooFewLabeled):
            loo_evaluate(cohort, hp(0.5, 0.05))

    def test_matches_classify_loop(self, medium_cohort, medium_distances):
        pair = hp(0.4, 0.05)
        metrics = loo_evaluate(medium_cohort, pair)
        model = FillModel.fit(medium_cohort, pair)
        tp = fp = newly = 0
        for rid, label in zip(medium_cohort.ids, medium_cohort.labels):
            res = classify(rid, medium_cohort, model, medium_distances)
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
        cache = {}
        n_labeled = int(medium_cohort.labeled_mask.sum())
        n_pos = int(medium_cohort.pos_mask.sum())
        for radius in (0.0, 0.3, 0.6, 1.0):
            for threshold in (0.001, 0.05, 0.5):
                got = loo_evaluate(medium_cohort, hp(radius, threshold))
                tp, fp, precision, yld = brute_force_cell(
                    medium_cohort, "jaccard", radius, threshold, cache
                )
                assert (got.true_positives, got.false_positives) == (tp, fp)
                assert got.precision == precision
                assert got.yield_proportion == yld
                assert got.true_positives + got.false_positives <= n_labeled
                assert got.true_positives <= n_pos


class TestCriteria:
    @pytest.mark.parametrize("min_tp", [0, 1, np.int64(3)])
    def test_min_tp_accepted(self, min_tp):
        assert CriterionA(min_tp).min_tp == min_tp

    @pytest.mark.parametrize("min_tp", [-1, 1.5, "3", None, True, False, np.bool_(True)])
    def test_min_tp_rejected(self, min_tp):
        with pytest.raises(ValueError, match="min_tp must be an integer >= 0"):
            CriterionA(min_tp)

    @pytest.mark.parametrize("floor", [0.0, 0.5, 1.0])
    def test_min_precision_accepted(self, floor):
        assert CriterionB(floor).min_precision == floor

    @pytest.mark.parametrize(
        "floor", [-0.01, 1.01, 2.0, float("nan"), "0.5", None, True, False, np.bool_(True)]
    )
    def test_min_precision_rejected(self, floor):
        with pytest.raises(ValueError, match=r"min_precision must be in \[0, 1\]"):
            CriterionB(floor)


class TestMetricArithmetic:
    def test_precision_ratio_fixture(self):
        m = LooMetrics(46, 8, 46 / 54, 0.0)
        assert m.precision == 46 / 54
        assert f"{m.precision:.3f}" == "0.852"

    def test_yield_ratio_fixture(self):
        assert 605 / 2418 == pytest.approx(0.2502, abs=5e-5)


class TestGridSearch:
    def test_unique_feasible_cell_wins_criterion_a(self, medium_cohort, medium_distances):
        cells = evaluate_grid(medium_cohort, Metric.JACCARD, (0.0, 0.4, 0.8), (0.01, 0.2))
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
        cells = evaluate_grid(medium_cohort, Metric.JACCARD, radii, thresholds)
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
        reports = [grid_search(medium_cohort, Metric.JACCARD, **kwargs) for _ in range(3)]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_invalid_radius_rejected(self, medium_cohort, bad):
        with pytest.raises(InvalidGrid):
            evaluate_grid(medium_cohort, Metric.JACCARD, (0.5, bad), (0.05,))

    @pytest.mark.parametrize("bad", [0.0, 2.0, float("nan")])
    def test_invalid_threshold_rejected(self, medium_cohort, bad):
        with pytest.raises(InvalidGrid):
            evaluate_grid(medium_cohort, Metric.JACCARD, (0.5,), (0.05, bad))

    @pytest.mark.parametrize("metric", list(Metric))
    def test_default_radius_grid_matches_triu_reference(self, metric, monkeypatch):
        rng = np.random.default_rng(5)
        cohort = random_cohort(
            rng, 80, 12, n_unknown=20, n_continuous=2 if metric is Metric.GOWER else 0
        )
        dm = distance_matrix(cohort, metric)
        labeled = np.flatnonzero(cohort.labeled_mask)
        sub = dm.values[np.ix_(labeled, labeled)]
        pairs = sub[np.triu_indices(labeled.size, k=1)]
        expected = tuple(sorted(set(np.quantile(pairs, np.linspace(0.0, 1.0, 41)).tolist())))
        # Jaccard and Manhattan take the code histogram here and Gower, whose
        # cohort has continuous columns, the upper triangle of distance
        # blocks; then every metric takes the upper triangle
        assert default_radius_grid(cohort, metric) == expected
        monkeypatch.setattr(fill.tune, "_codes_fit", lambda cohort: False)
        assert default_radius_grid(cohort, metric) == expected

    def test_default_grids(self, medium_cohort, medium_distances):
        radii = default_radius_grid(medium_cohort, Metric.JACCARD)
        assert all(r >= 0 for r in radii)
        assert list(radii) == sorted(radii)
        assert len(radii) <= 41
        thresholds = default_threshold_grid()
        assert 1e-6 in thresholds and 0.05 in thresholds and 0.1 in thresholds
        assert len(thresholds) == 9


class TestFrontier:
    def test_infeasible_floor_flagged(self, medium_cohort):
        points = precision_yield_frontier(
            medium_cohort, Metric.JACCARD, (0.0,), (0.001,), thresholds=(0.80,)
        )
        assert len(points) == 2  # requested floor + unconstrained
        assert points[0].min_precision == 0.80
        assert points[0].winner is None

    def test_numpy_floor_is_stored_as_float(self, medium_cohort):
        points = precision_yield_frontier(
            medium_cohort, Metric.JACCARD, (0.0,), (0.001,), thresholds=(np.float32(0.5),)
        )
        assert type(points[0].min_precision) is float and points[0].min_precision == 0.5
        assert '"min_precision": 0.5,' in dumps_tree(frontier_tree(points))

    def test_feasible_floors_nest(self, medium_cohort):
        points = precision_yield_frontier(
            medium_cohort, Metric.JACCARD,
            (0.0, 0.25, 0.5, 0.75, 1.0), (0.001, 0.01, 0.05, 0.2),
        )
        feasible = {p.min_precision: p.winner.metrics for p in points if p.winner}
        floors = sorted(feasible)
        for lo, hi in zip(floors, floors[1:]):
            assert feasible[lo].true_positives >= feasible[hi].true_positives
        for p in points:
            if p.winner and p.min_precision > 0:
                assert p.winner.metrics.precision >= p.min_precision

    def test_unconstrained_point_is_max_tp(self, medium_cohort):
        radii = (0.0, 0.25, 0.5, 0.75, 1.0)
        thresholds = (0.001, 0.01, 0.05, 0.2)
        points = precision_yield_frontier(medium_cohort, Metric.JACCARD, radii, thresholds)
        cells = evaluate_grid(medium_cohort, Metric.JACCARD, radii, thresholds)
        max_tp = max(
            c.metrics.true_positives for c in cells if c.metrics.precision is not None
        )
        unconstrained = [p for p in points if p.min_precision == 0.0][0]
        assert unconstrained.winner.metrics.true_positives == max_tp


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
        # Gower without continuous columns counts from pair codes, with them
        # from sorted rows
        cohort = random_cohort(
            rng, n_records, int(rng.integers(1, 6)),
            n_unknown=int(rng.integers(0, n_records - 1)),
            n_continuous=data.draw(st.sampled_from([0, 2])) if metric is Metric.GOWER else 0,
        )
        dm = distance_matrix(cohort, metric)
        # radii taken from the distances themselves exercise the closed ball's <= tie
        values = sorted(set(dm.values.ravel().tolist()))
        # inf: the record itself must stay out of its own ball
        radii = data.draw(
            st.lists(st.sampled_from(values + [float("inf")]), min_size=1, max_size=4)
        )
        cells = evaluate_grid(cohort, metric, radii, self.THRESHOLDS)
        cache = {}
        for cell in cells:
            m = cell.metrics
            got = (m.true_positives, m.false_positives, m.precision, m.yield_proportion)
            assert got == brute_force_cell(
                cohort, metric.value, cell.radius, cell.p_threshold, cache
            )
            pair = Hyperparameters(cell.radius, cell.p_threshold, metric)
            assert loo_evaluate(cohort, pair) == m

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_tail_decisions_match_scipy(self, seed):
        """No (n, k) the default grid uses flips a decision against scipy.

        The grid decides POS in count space, as K >= k*(N, T). k* is read
        from tail tables summed by a reverse cumulative sum, not an exactly
        rounded sum (math.fsum); over the (n, k, p0) of the benchmark
        cohorts the two differ by at most 1.9e-15 relative. Only a tail
        within 1e-9 relative of a threshold may be decided either way.
        """
        cohort, _ = synth_cohort_with_truth(default_spec(1400, 600, 60, seed=seed))
        radii = np.array(default_radius_grid(cohort, Metric.JACCARD))
        n_arr, k_arr = _neighborhood_counts(cohort, Metric.JACCARD, radii)
        n_used, k_used = np.unique(np.stack([n_arr.ravel(), k_arr.ravel()]), axis=1)
        p0 = base_rate(cohort)
        thresholds = default_threshold_grid()
        k_star = _decision_thresholds(np.unique(n_used), p0, thresholds)
        reference = binom.sf(k_used - 1, n_used, p0)
        for t, threshold in enumerate(thresholds):
            flipped = (k_used >= k_star[n_used, t]) != (reference < threshold)
            near = np.abs(reference - threshold) <= 1e-9 * threshold
            assert not (flipped & ~near).any(), f"decision flips at T={threshold}"

    @given(
        sizes=st.lists(st.integers(0, 120), min_size=1, max_size=6),
        p=st.sampled_from([0.0, 1.0, 875 / 2418, 0.5, 1e-3]),
    )
    @settings(deadline=None)
    def test_count_space_decision_equals_tail_decision(self, sizes, p):
        thresholds = default_threshold_grid()
        k_star = _decision_thresholds(np.unique(sizes), p, thresholds)
        for n in sizes:
            tail = binom_tail(n, p)
            k = np.arange(n + 2)
            for t, threshold in enumerate(thresholds):
                assert ((k >= k_star[n, t]) == (tail < threshold)).all()


    # sizes up to 3 000: the underflow cut engages above about n = 1 000 at p = 0.5
    @given(
        sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=8)
        | st.integers(0, 600).map(lambda n_max: list(range(n_max + 1))),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        thresholds=st.lists(
            st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0), min_size=1, max_size=4
        ),
    )
    @example(sizes=[0, 1, 2], p=0.0, thresholds=[1.0, 0.5, 1e-6])
    @example(sizes=[0, 1, 2], p=1.0, thresholds=[1.0, 0.5, 1e-6])
    @example(sizes=[0, 1, 2], p=0.4, thresholds=[1.0, 0.5, 1e-6])
    @example(sizes=list(range(ROW_BLOCK + 44)), p=0.43, thresholds=[1e-6, 0.1, 1.0])
    @example(sizes=[2999, 3000, 1500, 7], p=0.5, thresholds=[1e-6, 0.05, 1.0])
    @settings(deadline=None)
    def test_windowed_k_star_equals_full_table(self, sizes, p, thresholds):
        sizes = np.unique(sizes)
        k_star = _decision_thresholds(sizes, p, thresholds)
        assert np.array_equal(k_star, full_table_k_star(sizes, p, thresholds))


def full_table_cells(cohort, metric):
    """evaluate_grid's cells with k* read from whole tail tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fill.tune, "_decision_thresholds", full_table_k_star)
        return evaluate_grid(cohort, metric)


class TestWindowedTables:
    """The grid's cells do not change when its k* tables are windowed."""

    @pytest.mark.parametrize("seed", [7, 1009])
    def test_jaccard_cells_equal_full_table_cells(self, seed):
        cohort, _ = synth_cohort_with_truth(default_spec(1400, 600, 60, seed=seed))
        assert evaluate_grid(cohort, Metric.JACCARD) == full_table_cells(cohort, Metric.JACCARD)

    def test_gower_cells_and_radii_over_several_blocks(self):
        # 300 labeled records: the radius grid's pairs come from two row
        # blocks, and continuous values from {0, 1, 2} make many tied distances
        rng = np.random.default_rng(23)
        cohort = random_cohort(rng, 400, 6, n_unknown=100)
        cohort = make_cohort(
            cohort.binary.tolist(), [label.name for label in cohort.labels],
            continuous_rows=rng.integers(0, 3, size=(400, 2)), continuous_names=("c0", "c1"),
        )
        labeled = np.flatnonzero(cohort.labeled_mask)
        assert labeled.size > ROW_BLOCK
        values = distance_matrix(cohort, Metric.GOWER).values[np.ix_(labeled, labeled)]
        pairs = values[np.triu_indices(labeled.size, k=1)]
        assert np.unique(pairs).size < pairs.size // 100
        expected = tuple(sorted(set(np.quantile(pairs, np.linspace(0.0, 1.0, 41)).tolist())))
        assert default_radius_grid(cohort, Metric.GOWER) == expected
        assert evaluate_grid(cohort, Metric.GOWER) == full_table_cells(cohort, Metric.GOWER)

    @pytest.mark.parametrize("metric", [Metric.JACCARD, Metric.MANHATTAN])
    def test_code_cells_and_radii_over_several_blocks(self, metric):
        # the binary-only twin: 300 labeled records with UNKNOWN records
        # between them, so the code radius grid's upper triangle spans two
        # row blocks and the counts two labeled blocks
        rng = np.random.default_rng(23)
        cohort = random_cohort(rng, 400, 12, n_unknown=100)
        labeled = np.flatnonzero(cohort.labeled_mask)
        assert labeled.size == 300
        assert not cohort.labeled_mask[labeled[0] : labeled[-1]].all()
        assert fill.tune._codes_fit(cohort)
        values = distance_matrix(cohort, metric).values[np.ix_(labeled, labeled)]
        pairs = values[np.triu_indices(labeled.size, k=1)]
        expected = tuple(sorted(set(np.quantile(pairs, np.linspace(0.0, 1.0, 41)).tolist())))
        assert default_radius_grid(cohort, metric) == expected
        cells = evaluate_grid(cohort, metric)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fill.tune, "_codes_fit", lambda cohort: False)
            assert evaluate_grid(cohort, metric) == cells


class TestDistancesMatchCohort:
    def test_matrix_of_another_cohort_rejected(self, medium_cohort):
        other = distance_matrix(reversed_cohort(medium_cohort), Metric.JACCARD)
        with pytest.raises(ValueError, match="does not cover this cohort"):
            grid_search(medium_cohort, Metric.JACCARD, distances=other)

    def test_matrix_of_another_metric_rejected(self, medium_cohort, medium_distances):
        with pytest.raises(ValueError, match="jaccard, not manhattan"):
            grid_search(medium_cohort, Metric.MANHATTAN, (1.0,), (0.05,),
                        distances=medium_distances)
        with pytest.raises(ValueError, match="jaccard, not gower"):
            grid_search(medium_cohort, Metric.GOWER, (0.5,), (0.05,),
                        distances=medium_distances)


def refuse_matrix(*args, **kwargs):
    raise AssertionError("the grid built an n x n distance matrix")


def refuse_matrix_path(*args, **kwargs):
    raise AssertionError("the grid took the sorted-row path")


def matrix_path_cells(cohort, metric, radii):
    """evaluate_grid's cells with the sorted-row path forced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fill.tune, "_codes_fit", lambda cohort: False)
        for module in (fill.tune, fill.distance):
            patch.setattr(module, "distance_matrix", refuse_matrix)
        return evaluate_grid(cohort, metric, radii)


class TestRowBlockCounts:
    """The sorted-row path counts from distance blocks, never from a matrix."""

    def test_gower_counts_match_matrix(self):
        rng = np.random.default_rng(11)
        cohort = random_cohort(rng, 600, 8, n_unknown=150, n_continuous=2)
        values = distance_matrix(cohort, Metric.GOWER).values
        # matrix entries as radii hit the closed ball's <= tie
        radii = np.array(sorted(
            {0.0, values[3, 5], values[300, 580], *np.quantile(values, [0.01, 0.2]), np.inf}
        ))
        n_arr, k_arr = _neighborhood_counts(cohort, Metric.GOWER, radii)
        within = values[:, :, None] <= radii
        within[np.arange(len(cohort)), np.arange(len(cohort))] = False  # own record
        assert np.array_equal(n_arr, within[:, cohort.labeled_mask].sum(axis=1))
        assert np.array_equal(k_arr, within[:, cohort.pos_mask].sum(axis=1))

    def test_passed_gower_matrix_is_not_read(self):
        cohort = random_cohort(np.random.default_rng(12), 80, 6, n_unknown=20, n_continuous=2)
        blank = DistanceMatrix(cohort.ids, np.zeros((80, 80)), Metric.GOWER)
        expected = evaluate_grid(cohort, Metric.GOWER)
        with pytest.MonkeyPatch.context() as patch:
            for module in (fill.tune, fill.distance):
                patch.setattr(module, "distance_matrix", refuse_matrix)
            report = grid_search(
                cohort, Metric.GOWER, criterion=CriterionB(0.0), distances=blank
            )
            assert report.grid == expected

    def test_default_radius_grid_takes_a_metric(self, medium_cohort, medium_distances):
        with pytest.raises(TypeError, match="metric must be a Metric, not DistanceMatrix"):
            default_radius_grid(medium_cohort, medium_distances)

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, dm: default_radius_grid(c, "manhattan"),
            lambda c, dm: evaluate_grid(c, "manhattan", (0.5, 1, 2), (0.05,)),
            lambda c, dm: grid_search(c, "manhattan", (0.5, 1, 2), (0.05,)),
            lambda c, dm: grid_search(c, "jaccard", (0.5,), (0.05,), distances=dm),
            lambda c, dm: precision_yield_frontier(c, "manhattan", (0.5, 1, 2), (0.05,)),
        ],
        ids=[
            "default_radius_grid", "evaluate_grid", "grid_search",
            "grid_search_with_matrix", "precision_yield_frontier",
        ],
    )
    def test_string_metric_rejected(self, medium_cohort, medium_distances, call):
        with pytest.raises(TypeError, match="metric must be a Metric, not str"):
            call(medium_cohort, medium_distances)


class TestCodeCounts:
    """evaluate_grid counts every metric of a cohort without continuous
    features from pair codes."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        metric=st.sampled_from(list(Metric)),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=80)
    def test_cells_match_matrix_path(self, seed, metric, data):
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(1, 5))
        # rows drawn from a small pool repeat, and the pool holds an all-zero row
        pool = rng.integers(0, 2, size=(int(rng.integers(1, 7)), n_features))
        pool[0] = 0
        n_records = int(rng.integers((n_features + 1) ** 2, 31))
        binary = pool[rng.integers(0, len(pool), size=n_records)]
        n_labeled = data.draw(st.integers(2, n_records))
        labels = ["UNKNOWN"] * n_records
        for i in rng.choice(n_records, size=n_labeled, replace=False):
            labels[i] = "POS" if rng.random() < 0.4 else "NEG"
        cohort = make_cohort(binary.tolist(), labels)
        dm = distance_matrix(cohort, metric)
        values = sorted(set(dm.values.ravel().tolist()))
        # distances themselves hit the closed ball's <= tie; 0.5 is the
        # Jaccard value of several codes (1/2, 2/4); None is the default grid
        radii = data.draw(st.none() | st.lists(
            st.sampled_from(values + [0.0, 0.5, float("inf")]), min_size=1, max_size=5
        ))
        expected = matrix_path_cells(cohort, metric, radii)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fill.tune, "distance_matrix", refuse_matrix)
            patch.setattr(fill.tune, "_distance_source", refuse_matrix_path)
            assert evaluate_grid(cohort, metric, radii) == expected

    def test_equal_values_of_different_codes_merge(self):
        # Jaccard 1/2 (rows 0, 1) and 2/4 (rows 1, 2) are one radius
        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1]]
        cohort = make_cohort(rows * 5, ["POS", "NEG", "POS", "NEG", "UNKNOWN"] * 5)
        expected = matrix_path_cells(cohort, Metric.JACCARD, None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fill.tune, "distance_matrix", refuse_matrix)
            assert evaluate_grid(cohort, Metric.JACCARD) == expected
        assert 0.5 in {cell.radius for cell in expected}

    @pytest.mark.parametrize("metric", [Metric.JACCARD, Metric.MANHATTAN])
    def test_passed_matrix_is_not_read(self, medium_cohort, metric):
        dm = distance_matrix(medium_cohort, metric)
        expected = matrix_path_cells(medium_cohort, metric, None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fill.tune, "_codes_fit", lambda cohort: False)
            frontier = precision_yield_frontier(medium_cohort, metric)
        with pytest.MonkeyPatch.context() as patch:
            # distance blocks are the sorted-row path's only source
            patch.setattr(fill.tune, "distance_block", refuse_matrix_path)
            assert evaluate_grid(medium_cohort, metric) == expected
            report = grid_search(
                medium_cohort, metric, criterion=CriterionB(0.0), distances=dm
            )
            assert report.grid == expected
            assert precision_yield_frontier(medium_cohort, metric) == frontier
            # one threshold per radius: every radius of the grid
            for cell in expected[:: len(default_threshold_grid())]:
                pair = Hyperparameters(cell.radius, cell.p_threshold, metric)
                assert loo_evaluate(medium_cohort, pair) == cell.metrics

    @given(
        pairs=st.lists(
            st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0, 2.0, 7.0]) | st.floats(0, 60),
            min_size=1, max_size=80,
        ),
        unused=st.lists(st.floats(0, 60), max_size=20),
        copies=st.integers(1, 3),
    )
    def test_histogram_radii_match_numpy_quantile(self, pairs, unused, copies):
        pairs = np.array(pairs)
        expected = tuple(sorted(set(np.quantile(pairs, np.linspace(0.0, 1.0, 41)).tolist())))
        distinct, count = np.unique(pairs, return_counts=True)
        assert _quantile_radii(distinct, count) == expected
        # the code histogram's form: every value repeated, with zero counts
        # for values no pair has, for middle copies and for some first copies
        values = np.repeat(np.union1d(pairs, unused), copies)
        first = np.searchsorted(values, distinct)
        counts = np.zeros(values.size, dtype=np.int64)
        counts[first] = count // 2
        counts[first + copies - 1] += count - count // 2
        assert _quantile_radii(values, counts) == expected

    @pytest.mark.parametrize("metric", [Metric.JACCARD, Metric.MANHATTAN])
    def test_continuous_schema_still_incompatible(self, metric):
        cohort = random_cohort(np.random.default_rng(4), 30, 3, n_continuous=1)
        with pytest.raises(IncompatibleMetric):
            evaluate_grid(cohort, metric)
        # the sorted-row path checks the schema before the grid, too
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fill.tune, "_codes_fit", lambda cohort: False)
            with pytest.raises(IncompatibleMetric):
                evaluate_grid(cohort, metric, (-1.0,))

    @pytest.mark.parametrize("n_labeled", [0, 1])
    def test_too_few_labeled_messages_unchanged(self, n_labeled):
        rows = [[1], [0], [1], [0], [1], [1]]
        cohort = make_cohort(rows, ["POS"] * n_labeled + ["UNKNOWN"] * (6 - n_labeled))
        for radius_grid, message in [
            (None, "no labeled pairs to build a radius grid from"),
            ((0.5,), "leave-one-out needs at least 2 labeled records"),
        ]:
            with pytest.raises(TooFewLabeled, match=message):
                evaluate_grid(cohort, Metric.JACCARD, radius_grid)
