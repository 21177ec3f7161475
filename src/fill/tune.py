"""Leave-one-out evaluation and (radius, threshold) grid search.

Two notions of "best" are supported: maximize precision subject to a
minimum number of true positives, or maximize true positives subject to a
precision floor. Ties are broken by a fixed total order so repeated runs
pick the same winner.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .classify import Hyperparameters, base_rate
from .cohort import Cohort
from .distance import ROW_BLOCK, DistanceMatrix, Metric, code_values, distance_block, pair_codes
from .distance import _require_binary_schema
from .errors import EmptyGrid, InvalidGrid, NoFeasibleCell, TooFewLabeled
# binom_sf and distance_matrix are not called here; they stay importable as
# fill.tune.binom_sf and fill.tune.distance_matrix because perfbench/tracing.py
# wraps both and perfbench/test_check.py deletes binom_sf.
from .distance import distance_matrix  # noqa: F401
from .stats import binom_sf, binom_tails  # noqa: F401


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

    def __post_init__(self):
        if not isinstance(self.min_tp, (int, np.integer)) or self.min_tp < 0:
            raise ValueError(f"min_tp must be an integer >= 0, got {self.min_tp!r}")


@dataclass(frozen=True)
class CriterionB:
    """Maximize true positives subject to precision >= min_precision."""

    min_precision: float = 0.85

    def __post_init__(self):
        if not 0.0 <= self.min_precision <= 1.0:
            raise ValueError(f"min_precision must be in [0, 1], got {self.min_precision!r}")


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
    """The criterion-B winner at one precision floor; None when no cell reaches it."""

    min_precision: float
    winner: GridCell | None


def _neighborhood_counts(cohort, metric, radii):
    """N[i, r] labeled and K[i, r] POS records within radii[r] of record i.

    radii must be sorted ascending. Each row block's distances to the
    labeled records are computed and sorted, labeled and POS columns
    apart, then one searchsorted per row counts the closed ball at every
    radius. The record's own entry is NaN: NaN sorts last and is never <=
    a radius, so the record stays out of its own ball even at radius inf.
    """
    labeled = np.flatnonzero(cohort.labeled_mask)
    pos = np.flatnonzero(cohort.pos_mask[labeled])
    column_of = np.full(len(cohort), -1)
    column_of[labeled] = np.arange(labeled.size)
    n_arr = np.empty((len(cohort), len(radii)), dtype=np.int64)
    k_arr = np.empty_like(n_arr)
    for start in range(0, len(cohort), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        block, _ = distance_block(cohort, metric, rows, labeled)
        own = np.flatnonzero(column_of[rows] >= 0)
        block[own, column_of[start + own]] = np.nan
        for out, columns in ((n_arr, block), (k_arr, block[:, pos])):
            columns.sort(axis=1)
            for i, row in enumerate(columns, start):
                out[i] = row.searchsorted(radii, "right")
    return n_arr, k_arr


def _code_blocks(cohort, rows):
    """(position in rows, codes) per block of ROW_BLOCK rows against the labeled.

    Codes are `pair_codes`; a record's own column holds the sentinel code
    (F + 1)**2, one past every real code.
    """
    binary = cohort.binary.astype(np.float64)
    labeled = np.flatnonzero(cohort.labeled_mask)
    columns = binary[labeled]
    column_of = np.full(len(cohort), -1)
    column_of[labeled] = np.arange(labeled.size)
    sentinel = (binary.shape[1] + 1) ** 2
    for start in range(0, rows.size, ROW_BLOCK):
        block = rows[start : start + ROW_BLOCK]
        codes = pair_codes(binary[block], columns)
        own = np.flatnonzero(column_of[block] >= 0)
        codes[own, column_of[block[own]]] = sentinel
        yield start, codes


def _codes_fit(cohort, metric) -> bool:
    """True for Jaccard and Manhattan while the code tables, (F + 1)**2
    entries for F binary features, are no larger than the n x n_labeled
    pairs they count."""
    pairs = len(cohort) * int(cohort.labeled_mask.sum())
    return metric is not Metric.GOWER and (cohort.binary.shape[1] + 1) ** 2 <= pairs


def _code_counts(cohort, values, radii):
    """N and K of `_neighborhood_counts`, counted from pair codes.

    A code's bucket is the number of radii below its value, so the pair is
    inside the ball of every radius from that bucket on; the sentinel's
    bucket is past the last radius. Each block's buckets are counted per
    row by one offset bincount, then summed up the radii.
    """
    width = len(radii) + 1
    bucket = np.append(np.searchsorted(radii, values, "left"), width - 1)
    pos = np.flatnonzero(cohort.pos_mask[cohort.labeled_mask])
    n_arr = np.empty((len(cohort), len(radii)), dtype=np.int64)
    k_arr = np.empty_like(n_arr)
    for start, codes in _code_blocks(cohort, np.arange(len(cohort))):
        rows = slice(start, start + len(codes))
        buckets = bucket[codes]
        buckets += width * np.arange(len(codes))[:, None]
        for out, columns in ((n_arr, buckets), (k_arr, buckets[:, pos])):
            tally = np.bincount(columns.ravel(), minlength=len(codes) * width)
            np.cumsum(tally.reshape(-1, width)[:, :-1], axis=1, out=out[rows])
    return n_arr, k_arr


def _decision_thresholds(sizes, p0, thresholds):
    """k*[n, t]: the least k with P(X >= k) < thresholds[t], X ~ Binomial(n, p0).

    Rows are indexed by neighborhood size and filled for the given sizes
    only. Every tail table is exactly non-increasing in k, so
    P(X >= k) < T holds iff k >= k*(n, T), and k* is the number of table
    entries >= T. Tables are built ROW_BLOCK sizes at a time.
    """
    k_star = np.zeros((int(sizes.max()) + 1, len(thresholds)), dtype=np.int64)
    for start in range(0, sizes.size, ROW_BLOCK):
        block = sizes[start : start + ROW_BLOCK]
        tails = binom_tails(block, p0)
        for t, threshold in enumerate(thresholds):
            k_star[block, t] = np.count_nonzero(tails >= threshold, axis=1)
    return k_star


def _tally(decided, pos, labeled):
    """(tp, fp, newly POS) summed over the rows (records) of decided."""
    return (
        np.count_nonzero(decided[pos], axis=0),
        np.count_nonzero(decided[labeled & ~pos], axis=0),
        np.count_nonzero(decided[~labeled], axis=0),
    )


def _loo_metrics(tp: int, fp: int, newly: int, n_labeled: int) -> LooMetrics:
    precision = tp / (tp + fp) if tp + fp > 0 else None
    return LooMetrics(tp, fp, precision, newly / n_labeled)


def _grid_metrics(cohort, counts, radii, thresholds) -> list[LooMetrics]:
    """Leave-one-out metrics of every (radius, threshold), radius-major.

    Each labeled record is classified with itself removed from the
    evidence; the base rate stays fixed at the full labeled pool's value.
    UNKNOWN records are classified under the same pair to obtain the
    yield. counts(radii) gives every record's N and K; decisions are made
    from them in count space, one row block at a time.
    """
    n_labeled = int(cohort.labeled_mask.sum())
    if n_labeled < 2:
        raise TooFewLabeled("leave-one-out needs at least 2 labeled records")
    thresholds = np.array(thresholds)
    n_arr, k_arr = counts(np.array(radii))
    k_star = _decision_thresholds(np.unique(n_arr), base_rate(cohort), thresholds)
    totals = np.zeros((3, len(radii), thresholds.size), dtype=np.int64)
    for start in range(0, len(cohort), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        decided = k_arr[rows, :, None] >= k_star[n_arr[rows]]
        totals += _tally(decided, cohort.pos_mask[rows], cohort.labeled_mask[rows])
    return [
        _loo_metrics(tp, fp, newly, n_labeled)
        for tp, fp, newly in zip(*(c.ravel().tolist() for c in totals))
    ]


def loo_evaluate(
    cohort: Cohort, hp: Hyperparameters, distances: DistanceMatrix | None = None
) -> LooMetrics:
    """Leave-one-out counts for one hyperparameter pair: the 1 x 1 `evaluate_grid`."""
    return evaluate_grid(cohort, hp.metric, (hp.radius,), (hp.p_threshold,), distances)[0].metrics


def _quantile_radii(values, counts) -> tuple[float, ...]:
    """The distinct radii of np.quantile(pairs, linspace(0, 1, 41)).

    pairs is given as its distinct values, ascending, and their counts.
    The quantiles are numpy's default (`linear`, Hyndman & Fan 1996 type
    7): the two order statistics around (n - 1) q, combined by numpy's own
    interpolation rule, so the radii are bitwise equal to np.quantile's.
    """
    last = int(counts.sum()) - 1
    virtual = last * np.linspace(0.0, 1.0, 41)
    below = np.minimum(np.floor(virtual), last)
    above = np.minimum(below + 1, last)
    gamma = virtual - below
    order = np.cumsum(counts)
    a = values[order.searchsorted(below, "right")]
    b = values[order.searchsorted(above, "right")]
    diff = b - a
    qs = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=qs, where=gamma >= 0.5)
    return tuple(sorted(set(qs.tolist())))


def _code_radius_grid(cohort, values) -> tuple[float, ...]:
    """`default_radius_grid` from a histogram of labeled-pair codes."""
    histogram = np.zeros(values.size + 1, dtype=np.int64)
    for _, codes in _code_blocks(cohort, np.flatnonzero(cohort.labeled_mask)):
        histogram += np.bincount(codes.ravel(), minlength=values.size + 1)
    # the sentinel bin holds the records themselves; every pair came twice
    histogram = histogram[:-1] // 2
    present = np.flatnonzero(histogram)
    if present.size == 0:
        raise TooFewLabeled("no labeled pairs to build a radius grid from")
    distinct, which = np.unique(values[present], return_inverse=True)
    counts = np.zeros(distinct.size, dtype=np.int64)
    np.add.at(counts, which, histogram[present])
    return _quantile_radii(distinct, counts)


def default_radius_grid(cohort: Cohort, metric: Metric) -> tuple[float, ...]:
    """41 evenly spaced quantiles (0%, 2.5%, ..., 100%) of labeled-pair distances."""
    if not isinstance(metric, Metric):
        raise TypeError(f"metric must be a Metric, not {type(metric).__name__}")
    labeled = np.flatnonzero(cohort.labeled_mask)
    # the upper triangle in triu_indices order, ROW_BLOCK rows at a time
    pairs = np.empty(labeled.size * (labeled.size - 1) // 2)
    at = 0
    for start in range(0, labeled.size, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, labeled.size))
        block, _ = distance_block(cohort, metric, labeled[rows], labeled)
        upper = block[np.arange(labeled.size) > rows[:, None]]
        pairs[at : at + upper.size] = upper
        at += upper.size
    if pairs.size == 0:
        raise TooFewLabeled("no labeled pairs to build a radius grid from")
    return _quantile_radii(*np.unique(pairs, return_counts=True))


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
) -> tuple[GridCell, ...]:
    """LOO metrics for every (radius, threshold) pair, sorted by (S, T).

    The cohort and metric choose the count path: a Jaccard or Manhattan
    cohort whose code tables fit (`_codes_fit`) is counted from pair
    codes; Gower, and binary cohorts whose tables do not fit, from sorted
    rows of distance blocks against the labeled records. Both paths give
    the same cells, and neither builds the n x n matrix: a passed
    `distances` is only checked to cover the cohort in this metric.
    """
    if distances is not None:
        distances.require_cover(cohort, metric)
    if _codes_fit(cohort, metric):
        values = code_values(cohort, metric)
        default_radii = partial(_code_radius_grid, cohort, values)
        counts = partial(_code_counts, cohort, values)
    else:
        _require_binary_schema(cohort, metric)
        default_radii = partial(default_radius_grid, cohort, metric)
        counts = partial(_neighborhood_counts, cohort, metric)
    if radius_grid is None:
        radius_grid = default_radii()
    if threshold_grid is None:
        threshold_grid = default_threshold_grid()
    radii = tuple(sorted(set(float(s) for s in radius_grid)))
    thresholds = tuple(sorted(set(float(t) for t in threshold_grid)))
    if not radii or not thresholds:
        raise EmptyGrid("both grids must be non-empty")
    if any(not s >= 0 for s in radii):
        raise InvalidGrid(f"radii must be >= 0, got {radius_grid!r}")
    if any(not 0.0 < t <= 1.0 for t in thresholds):
        raise InvalidGrid(f"thresholds must be in (0, 1], got {threshold_grid!r}")
    metrics = iter(_grid_metrics(cohort, counts, radii, thresholds))
    return tuple(GridCell(s, t, next(metrics)) for s in radii for t in thresholds)


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
) -> GridSearchReport:
    """Evaluate the grid and select the criterion's winner."""
    cells = evaluate_grid(cohort, metric, radius_grid, threshold_grid, distances)
    winner = select_winner(cells, criterion)
    return GridSearchReport(grid=cells, winner=winner, criterion=criterion)


def precision_yield_frontier(
    cohort: Cohort,
    metric: Metric,
    radius_grid=None,
    threshold_grid=None,
    thresholds=(0.80, 0.85, 0.90, 0.95),
    distances: DistanceMatrix | None = None,
) -> list[FrontierPoint]:
    """Best yield at each precision floor, plus the unconstrained point.

    The grid is evaluated once; each floor just re-selects a winner, so the
    feasible sets nest and yields are weakly monotone in the floor.
    """
    cells = evaluate_grid(cohort, metric, radius_grid, threshold_grid, distances)
    points = []
    for floor in list(thresholds) + [0.0]:
        try:
            winner = select_winner(cells, CriterionB(min_precision=floor))
        except NoFeasibleCell:
            winner = None
        points.append(FrontierPoint(floor, winner))
    return points
