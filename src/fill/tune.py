"""Leave-one-out evaluation and (radius, threshold) grid search.

Two notions of "best" are supported: maximize precision subject to a
minimum number of true positives, or maximize true positives subject to a
precision floor. Ties are broken by a fixed total order so repeated runs
pick the same winner.
"""

from dataclasses import dataclass

import numpy as np

from .classify import Hyperparameters, base_rate
from .cohort import Cohort
from .distance import DistanceMatrix, Metric, distance_matrix
from .errors import EmptyGrid, NoFeasibleCell, TooFewLabeled
# binom_sf is not called here; it stays importable as fill.tune.binom_sf
# because perfbench/tracing.py wraps it and perfbench/test_check.py deletes it.
from .stats import binom_sf, binom_tail  # noqa: F401

# Distance rows bucketed per pass: the count kernel's temporaries hold
# _ROW_BLOCK x n_labeled entries instead of n x n_labeled.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class LooMetrics:
    """Counts from predicting each labeled record with itself held out.

    precision is None when no record was decided POS: an undefined ratio is
    reported as such, never silently as 0 or 1. yield_proportion relates
    newly classified UNKNOWN records to the labeled pool, so it can
    legitimately exceed 1.
    """

    true_positives: int
    false_positives: int
    precision: float | None
    yield_proportion: float


@dataclass(frozen=True)
class CriterionA:
    """Maximize precision subject to at least min_tp true positives."""

    min_tp: int = 10


@dataclass(frozen=True)
class CriterionB:
    """Maximize true positives subject to precision >= min_precision."""

    min_precision: float = 0.85


@dataclass(frozen=True)
class GridCell:
    radius: float
    p_threshold: float
    metrics: LooMetrics


@dataclass(frozen=True)
class GridSearchReport:
    grid: tuple[GridCell, ...]
    winner: GridCell
    criterion: object


@dataclass(frozen=True)
class FrontierPoint:
    min_precision: float
    feasible: bool
    achieved_precision: float | None = None
    yield_proportion: float | None = None
    winner_radius: float | None = None
    winner_p_threshold: float | None = None
    true_positives: int | None = None


def _neighborhood_counts(cohort, distances, radii):
    """N[i, r] labeled and K[i, r] POS records within radii[r] of record i.

    radii must be sorted ascending. Each labeled neighbor goes to the
    first radius whose closed ball holds it, or to the never bucket
    len(radii); the record itself always goes to the never bucket. A
    cumulative sum over the per-bucket counts then gives the counts at
    every radius from one pass over the distances.
    """
    labeled = np.flatnonzero(cohort.labeled_mask)
    pos = cohort.pos_mask[labeled]
    column_of = np.full(len(cohort), -1)
    column_of[labeled] = np.arange(labeled.size)
    n_buckets = len(radii) + 1
    n_arr = np.empty((len(cohort), len(radii)), dtype=np.int64)
    k_arr = np.empty_like(n_arr)
    for start in range(0, len(cohort), _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, len(cohort))
        bucket = np.searchsorted(radii, distances.values[start:stop, labeled], side="left")
        own = np.flatnonzero(column_of[start:stop] >= 0)
        bucket[own, column_of[start + own]] = len(radii)
        # one bincount per block: row r's buckets are shifted to r * n_buckets
        bucket += np.arange(0, (stop - start) * n_buckets, n_buckets)[:, None]
        for out, cols in ((n_arr, bucket), (k_arr, bucket[:, pos])):
            counts = np.bincount(cols.ravel(), minlength=(stop - start) * n_buckets)
            out[start:stop] = counts.reshape(-1, n_buckets)[:, :-1].cumsum(axis=1)
    return n_arr, k_arr


def _tail_pvalues(n_arr, k_arr, p0):
    """P(X >= K) for X ~ Binomial(N, p0), elementwise.

    One tail table per distinct N, each built and read while it is the
    only one alive: all tables together would hold O(n_labeled**2) floats.
    """
    flat_n = n_arr.ravel()
    flat_k = k_arr.ravel()
    order = np.argsort(flat_n)
    sizes, starts = np.unique(flat_n[order], return_index=True)
    ends = np.append(starts[1:], flat_n.size)
    p_arr = np.empty(flat_n.size, dtype=np.float64)
    for n, lo, hi in zip(sizes.tolist(), starts.tolist(), ends.tolist()):
        at = order[lo:hi]
        p_arr[at] = binom_tail(n, p0)[flat_k[at]]
    return p_arr.reshape(n_arr.shape)


def _cell_metrics(cohort, p_arr, threshold) -> LooMetrics:
    decided = p_arr < threshold
    labeled = cohort.labeled_mask
    pos = cohort.pos_mask
    tp = int((decided & pos).sum())
    fp = int((decided & labeled & ~pos).sum())
    n_labeled = int(labeled.sum())
    newly = int((decided & ~labeled).sum())
    precision = tp / (tp + fp) if tp + fp > 0 else None
    return LooMetrics(tp, fp, precision, newly / n_labeled)


def loo_evaluate(
    cohort: Cohort, hp: Hyperparameters, distances: DistanceMatrix
) -> LooMetrics:
    """Leave-one-out counts for one hyperparameter pair.

    Each labeled record is classified with itself removed from the
    evidence; the base rate stays fixed at the full labeled pool's value.
    UNKNOWN records are classified under the same pair to obtain the yield.
    """
    if int(cohort.labeled_mask.sum()) < 2:
        raise TooFewLabeled("leave-one-out needs at least 2 labeled records")
    n_arr, k_arr = _neighborhood_counts(cohort, distances, np.array([hp.radius]))
    p_arr = _tail_pvalues(n_arr, k_arr, base_rate(cohort))
    return _cell_metrics(cohort, p_arr[:, 0], hp.p_threshold)


def default_radius_grid(cohort: Cohort, distances: DistanceMatrix) -> tuple[float, ...]:
    """41 evenly spaced quantiles (0%, 2.5%, ..., 100%) of labeled-pair distances."""
    labeled = np.flatnonzero(cohort.labeled_mask)
    sub = distances.values[np.ix_(labeled, labeled)]
    pairs = sub[np.triu_indices(len(labeled), k=1)]
    if pairs.size == 0:
        raise TooFewLabeled("no labeled pairs to build a radius grid from")
    qs = np.quantile(pairs, np.linspace(0.0, 1.0, 41))
    return tuple(sorted(set(float(q) for q in qs)))


def default_threshold_grid() -> tuple[float, ...]:
    decades = [10.0 ** e for e in range(-6, 0)]
    return tuple(sorted(set(decades + [0.02, 0.03, 0.05])))


def _feasible(cell: GridCell, criterion) -> bool:
    m = cell.metrics
    if isinstance(criterion, CriterionA):
        return m.true_positives >= criterion.min_tp
    return m.precision is not None and m.precision >= criterion.min_precision


def _rank_key(cell: GridCell, criterion):
    # larger key wins; (radius, threshold) ascending settles exact ties
    m = cell.metrics
    precision = m.precision if m.precision is not None else -1.0
    if isinstance(criterion, CriterionA):
        return (precision, m.true_positives, -cell.radius, -cell.p_threshold)
    return (m.true_positives, precision, -cell.radius, -cell.p_threshold)


def evaluate_grid(
    cohort: Cohort,
    metric: Metric,
    radius_grid=None,
    threshold_grid=None,
    distances: DistanceMatrix | None = None,
    threads: int = 1,
) -> tuple[GridCell, ...]:
    """LOO metrics for every (radius, threshold) pair, sorted by (S, T).

    threads is accepted for compatibility and ignored: the grid is one
    vectorised pass.
    """
    if distances is None:
        distances = distance_matrix(cohort, metric)
    if radius_grid is None:
        radius_grid = default_radius_grid(cohort, distances)
    if threshold_grid is None:
        threshold_grid = default_threshold_grid()
    radii = tuple(sorted(set(float(s) for s in radius_grid)))
    thresholds = tuple(sorted(set(float(t) for t in threshold_grid)))
    if not radii or not thresholds:
        raise EmptyGrid("both grids must be non-empty")
    if any(s < 0 for s in radii):
        raise ValueError("radii must be >= 0")
    if any(not 0.0 < t <= 1.0 for t in thresholds):
        raise ValueError("thresholds must be in (0, 1]")
    if int(cohort.labeled_mask.sum()) < 2:
        raise TooFewLabeled("leave-one-out needs at least 2 labeled records")
    n_arr, k_arr = _neighborhood_counts(cohort, distances, np.array(radii))
    p_arr = _tail_pvalues(n_arr, k_arr, base_rate(cohort))
    return tuple(
        GridCell(radius, t, _cell_metrics(cohort, p_arr[:, r], t))
        for r, radius in enumerate(radii)
        for t in thresholds
    )


def select_winner(cells, criterion) -> GridCell:
    best = None
    best_key = None
    for cell in cells:
        if not _feasible(cell, criterion):
            continue
        key = _rank_key(cell, criterion)
        if best is None or key > best_key:
            best, best_key = cell, key
    if best is None:
        raise NoFeasibleCell(tuple(cells))
    return best


def grid_search(
    cohort: Cohort,
    metric: Metric,
    radius_grid=None,
    threshold_grid=None,
    criterion=CriterionA(),
    distances: DistanceMatrix | None = None,
    threads: int = 1,
) -> GridSearchReport:
    """Evaluate the grid and select the criterion's winner; threads is ignored."""
    cells = evaluate_grid(cohort, metric, radius_grid, threshold_grid, distances, threads)
    winner = select_winner(cells, criterion)
    return GridSearchReport(grid=cells, winner=winner, criterion=criterion)


def precision_yield_frontier(
    cohort: Cohort,
    metric: Metric,
    radius_grid=None,
    threshold_grid=None,
    thresholds=(0.80, 0.85, 0.90, 0.95),
    distances: DistanceMatrix | None = None,
    threads: int = 1,
) -> list[FrontierPoint]:
    """Best yield at each precision floor, plus the unconstrained point.

    The grid is evaluated once; each floor just re-selects a winner, so the
    feasible sets nest and yields are weakly monotone in the floor.
    threads is accepted for compatibility and ignored.
    """
    cells = evaluate_grid(cohort, metric, radius_grid, threshold_grid, distances, threads)
    points = []
    for floor in list(thresholds) + [0.0]:
        try:
            w = select_winner(cells, CriterionB(min_precision=floor))
        except NoFeasibleCell:
            points.append(FrontierPoint(min_precision=floor, feasible=False))
            continue
        points.append(
            FrontierPoint(
                min_precision=floor,
                feasible=True,
                achieved_precision=w.metrics.precision,
                yield_proportion=w.metrics.yield_proportion,
                winner_radius=w.radius,
                winner_p_threshold=w.p_threshold,
                true_positives=w.metrics.true_positives,
            )
        )
    return points
