"""Leave-one-out evaluation and (radius, threshold) grid search.

Two notions of "best" are supported: maximize precision subject to a
minimum number of true positives, or maximize true positives subject to a
precision floor. Ties are broken by a fixed total order so repeated runs
pick the same winner.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .classify import Hyperparameters, base_rate
from .cohort import Cohort
from .distance import (
    MAX_CODE_FEATURES, ROW_BLOCK, DistanceMatrix, Metric, code_factors, code_values,
    distance_block, pair_codes,
)
from .distance import _require_binary_schema
from .errors import EmptyGrid, InvalidGrid, NoFeasibleCell, TooFewLabeled
# binom_sf and distance_matrix are not called here; they stay importable as
# fill.tune.binom_sf and fill.tune.distance_matrix because perfbench/tracing.py
# wraps both and perfbench/test_check.py deletes binom_sf.
from .distance import distance_matrix  # noqa: F401
from .stats import binom_sf  # noqa: F401
from .stats import binom_tail_counts


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
    """Maximize precision subject to at least min_tp true positives.
    A numpy integer is stored as an int, so reports can write it; a bool
    is not an integer here."""

    min_tp: int = 10

    def __post_init__(self):
        tp = self.min_tp
        if isinstance(tp, bool) or not isinstance(tp, (int, np.integer)) or tp < 0:
            raise ValueError(f"min_tp must be an integer >= 0, got {tp!r}")
        object.__setattr__(self, "min_tp", int(tp))


@dataclass(frozen=True)
class CriterionB:
    """Maximize true positives subject to precision >= min_precision.
    A numpy float is stored as a float, so reports can write it; a bool
    or a non-number is rejected like an out-of-range floor."""

    min_precision: float = 0.85

    def __post_init__(self):
        floor = self.min_precision
        if isinstance(floor, bool) or not isinstance(floor, numbers.Real) or not 0 <= floor <= 1:
            raise ValueError(f"min_precision must be in [0, 1], got {floor!r}")
        object.__setattr__(self, "min_precision", float(floor))


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


def _labeled_blocks(cohort, block):
    """block(chunk, slice(start, None)) per ROW_BLOCK chunk of the labeled
    records, start the chunk's position among them: the chunk against the
    labeled from itself on, one column each, so every labeled pair (i, j),
    i < j, is above the diagonal of one block once. Each caller drops the
    diagonal and the cells below it."""
    labeled = np.flatnonzero(cohort.labeled_mask)
    for start in range(0, labeled.size, ROW_BLOCK):
        yield block(labeled[start : start + ROW_BLOCK], slice(start, None))


def _codes_fit(cohort) -> bool:
    """Whether the grid counts from pair codes, not from distance blocks: the
    cohort has no continuous features and at most MAX_CODE_FEATURES binary
    ones, F, so float32 codes are exact, and its code tables, (F + 1)**2
    entries, are no larger than the n x n_labeled pairs they count."""
    n_features = cohort.binary.shape[1]
    pairs = len(cohort) * int(cohort.labeled_mask.sum())
    return (
        not cohort.schema.continuous_names
        and n_features <= MAX_CODE_FEATURES
        and (n_features + 1) ** 2 <= pairs
    )


def _code_source(cohort):
    """(chunk, columns) -> `pair_codes` of the records at chunk against the
    labeled at columns, from factors built once."""
    left, right = code_factors(cohort.binary, cohort.binary[cohort.labeled_mask])
    return lambda chunk, columns: pair_codes(left[chunk], right[:, columns])


def _distance_source(cohort, metric):
    """(chunk, columns) -> `distance_block` of the records at chunk against
    the labeled at columns."""
    labeled = np.flatnonzero(cohort.labeled_mask)
    return lambda chunk, columns: distance_block(cohort, metric, chunk, labeled[columns])[0]


def _neighborhood_counts(cohort, metric, radii):
    """N[i, r] labeled and K[i, r] POS records within radii[r] of record i,
    record i itself left out.

    radii must be sorted ascending and >= 0, as `check_grids` leaves them.
    Each record is counted against all labeled records, then taken out of
    its own counts: its distance to itself is exactly 0.0 (mismatch 0,
    every Gower term |x - x| = 0, and its own pair code has value 0), so
    it is inside its every ball. When the code tables fit, a pair code's
    bucket is the number of radii below its value, so the pair is inside
    the ball of every radius from that bucket on. One bincount per block
    tallies its buckets keyed on (row, whether the column is POS, bucket);
    K sums the POS tally up the radii, and N is K plus the other tally's
    sums. Otherwise each row block's distances are sorted, labeled and POS
    columns apart, and one searchsorted per row counts the closed ball at
    every radius.
    """
    is_pos = cohort.pos_mask[cohort.labeled_mask]
    n_arr = np.empty((len(cohort), len(radii)), dtype=np.int64)
    k_arr = np.empty_like(n_arr)
    blocks = [slice(start, start + ROW_BLOCK) for start in range(0, len(cohort), ROW_BLOCK)]
    if _codes_fit(cohort):
        # the last bucket, past every radius, is dropped
        width = len(radii) + 1
        bucket = np.searchsorted(radii, code_values(cohort, metric), "left").astype(np.int32)
        codes = _code_source(cohort)
        key = np.add.outer(2 * width * np.arange(ROW_BLOCK), width * is_pos, dtype=np.int32)
        for block in blocks:
            buckets = bucket[codes(block, slice(None))]
            buckets += key[: len(buckets)]
            tally = np.bincount(buckets.ravel(), minlength=2 * width * len(buckets))
            tally = tally.reshape(-1, 2, width)[:, :, :-1]
            np.cumsum(tally[:, 1], axis=1, out=k_arr[block])
            np.cumsum(tally[:, 0], axis=1, out=n_arr[block])
            n_arr[block] += k_arr[block]
    else:
        pos = np.flatnonzero(is_pos)
        distances = _distance_source(cohort, metric)
        for block in blocks:
            values = distances(block, slice(None))
            for out, columns in ((n_arr[block], values), (k_arr[block], values[:, pos])):
                columns.sort(axis=1)
                for i, row in enumerate(columns):
                    out[i] = row.searchsorted(radii, "right")
    n_arr[cohort.labeled_mask] -= 1
    k_arr[cohort.pos_mask] -= 1
    return n_arr, k_arr


def _decision_thresholds(sizes, p0, thresholds):
    """k*[n, t]: the least k with P(X >= k) < thresholds[t], X ~ Binomial(n, p0).

    Rows are indexed by neighborhood size and filled for the given sizes
    only. Every tail table is exactly non-increasing in k, so
    P(X >= k) < T holds iff k >= k*(n, T), and k* is the number of table
    entries >= T. `binom_tail_counts` reads that number from a window of
    each table, ROW_BLOCK sizes at a time, and gives the full table's
    count. A window runs from two below the mode up to where the terms
    left out sum to below 2^-53 of the smallest threshold, or underflow to
    exact zeros, whichever comes first; its entries are the full table's
    within 2 (n + 4) 2^-53 relative, the error of two reverse cumsums plus
    the omitted mass. A row with an entry that decides a count within that
    band of its threshold, or whose window could miss an entry below T, is
    summed again from k = 0 over the table's whole nonzero range.
    """
    k_star = np.zeros((int(sizes.max()) + 1, len(thresholds)), dtype=np.int64)
    for start in range(0, sizes.size, ROW_BLOCK):
        block = sizes[start : start + ROW_BLOCK]
        k_star[block] = binom_tail_counts(block, p0, thresholds)
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


def _grid_metrics(cohort, metric, radii, thresholds) -> list[LooMetrics]:
    """Leave-one-out metrics of every (radius, threshold), radius-major.

    Each labeled record is classified with itself removed from the
    evidence; the base rate stays fixed at the full labeled pool's value.
    UNKNOWN records are classified under the same pair to obtain the
    yield. `_neighborhood_counts` gives every record's N and K; decisions
    are made from them in count space, one row block at a time.
    """
    n_labeled = int(cohort.labeled_mask.sum())
    if n_labeled < 2:
        raise TooFewLabeled("leave-one-out needs at least 2 labeled records")
    thresholds = np.array(thresholds)
    n_arr, k_arr = _neighborhood_counts(cohort, metric, np.array(radii))
    sizes = np.flatnonzero(np.bincount(n_arr.ravel()))
    k_star = _decision_thresholds(sizes, base_rate(cohort), thresholds)
    totals = np.zeros((3, len(radii), thresholds.size), dtype=np.int64)
    for start in range(0, len(cohort), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        decided = k_arr[rows, :, None] >= k_star[n_arr[rows]]
        totals += _tally(decided, cohort.pos_mask[rows], cohort.labeled_mask[rows])
    return [
        _loo_metrics(tp, fp, newly, n_labeled)
        for tp, fp, newly in zip(*(c.ravel().tolist() for c in totals))
    ]


def loo_evaluate(cohort: Cohort, hp: Hyperparameters) -> LooMetrics:
    """Leave-one-out counts for one hyperparameter pair: the 1 x 1 `evaluate_grid`."""
    return evaluate_grid(cohort, hp.metric, (hp.radius,), (hp.p_threshold,))[0].metrics


def _quantile_radii(values, counts) -> tuple[float, ...]:
    """The distinct radii of np.quantile(pairs, linspace(0, 1, 41)).

    pairs is given as ascending values, which may repeat, and their
    counts, which may be 0. The quantiles are numpy's default (`linear`,
    Hyndman & Fan 1996 type 7): the two order statistics around (n - 1) q,
    combined by numpy's own interpolation rule, so the radii are bitwise
    equal to np.quantile's.
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


def default_radius_grid(cohort: Cohort, metric: Metric) -> tuple[float, ...]:
    """41 evenly spaced quantiles (0%, 2.5%, ..., 100%) of labeled-pair distances.

    The pairs are counted the way `_neighborhood_counts` counts, each
    labeled pair once from the upper triangle of blocks: as a histogram of
    labeled-pair codes when the code tables fit, else as distances, whose
    quantiles are taken in place.
    """
    _require_binary_schema(cohort, metric)
    labeled = np.flatnonzero(cohort.labeled_mask)
    if _codes_fit(cohort):
        values = code_values(cohort, metric)
        histogram = np.zeros(values.size + 1, dtype=np.int64)
        for codes in _labeled_blocks(cohort, _code_source(cohort)):
            # the diagonal and below go to the last bin, which is dropped
            codes[:, : len(codes)][np.tri(len(codes), dtype=bool)] = values.size
            histogram += np.bincount(codes.ravel(), minlength=values.size + 1)
        order = np.argsort(values)
        counts = histogram[order]
        if not counts.any():
            raise TooFewLabeled("no labeled pairs to build a radius grid from")
        return _quantile_radii(values[order], counts)
    pairs = np.empty(labeled.size * (labeled.size - 1) // 2)
    at = 0
    for block in _labeled_blocks(cohort, _distance_source(cohort, metric)):
        # the upper triangle in triu_indices order
        upper = block[~np.tri(*block.shape, dtype=bool)]
        pairs[at : at + upper.size] = upper
        at += upper.size
    if pairs.size == 0:
        raise TooFewLabeled("no labeled pairs to build a radius grid from")
    # selects in place in the pair array, with no sorted copy of it
    radii = np.quantile(pairs, np.linspace(0.0, 1.0, 41), overwrite_input=True)
    return tuple(sorted(set(radii.tolist())))


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


def check_grids(radius_grid, threshold_grid):
    """(radii, thresholds): each given grid sorted and without repeats, and
    None for a grid left to its default. Raises EmptyGrid for an empty grid
    and InvalidGrid for a radius that is not >= 0 or a threshold outside
    (0, 1]."""
    radii, thresholds = (
        None if grid is None else tuple(sorted(set(map(float, grid))))
        for grid in (radius_grid, threshold_grid)
    )
    if radii == () or thresholds == ():
        raise EmptyGrid("both grids must be non-empty")
    if any(not s >= 0 for s in radii or ()):
        raise InvalidGrid(f"radii must be >= 0, got {radius_grid!r}")
    if any(not 0.0 < t <= 1.0 for t in thresholds or ()):
        raise InvalidGrid(f"thresholds must be in (0, 1], got {threshold_grid!r}")
    return radii, thresholds


def evaluate_grid(
    cohort: Cohort, metric: Metric, radius_grid=None, threshold_grid=None
) -> tuple[GridCell, ...]:
    """LOO metrics for every (radius, threshold) pair, sorted by (S, T).

    The counts and default radii come from pair codes or from distance
    blocks, as `_codes_fit` chooses from the cohort alone. Both give the
    same cells, and neither builds the n x n matrix.
    """
    _require_binary_schema(cohort, metric)
    radii, thresholds = check_grids(radius_grid, threshold_grid)
    if radii is None:
        radii = default_radius_grid(cohort, metric)
    if thresholds is None:
        thresholds = default_threshold_grid()
    metrics = iter(_grid_metrics(cohort, metric, radii, thresholds))
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
    """Evaluate the grid and select the criterion's winner. A passed
    `distances` is only checked, before the grid runs, to cover the cohort
    in this metric; the grid never reads it."""
    if distances is not None:
        distances.require_cover(cohort, metric)
    cells = evaluate_grid(cohort, metric, radius_grid, threshold_grid)
    winner = select_winner(cells, criterion)
    return GridSearchReport(grid=cells, winner=winner, criterion=criterion)


def precision_yield_frontier(
    cohort: Cohort,
    metric: Metric,
    radius_grid=None,
    threshold_grid=None,
    thresholds=(0.80, 0.85, 0.90, 0.95),
) -> list[FrontierPoint]:
    """Best yield at each precision floor, plus the unconstrained point.

    The grid is evaluated once; each floor just re-selects a winner, so the
    feasible sets nest and yields are weakly monotone in the floor.
    """
    cells = evaluate_grid(cohort, metric, radius_grid, threshold_grid)
    points = []
    for floor in list(thresholds) + [0.0]:
        criterion = CriterionB(min_precision=floor)
        try:
            winner = select_winner(cells, criterion)
        except NoFeasibleCell:
            winner = None
        points.append(FrontierPoint(criterion.min_precision, winner))
    return points
