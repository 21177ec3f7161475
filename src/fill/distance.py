"""Pairwise dissimilarities: Jaccard, Manhattan, and Gower.

One kernel, `_block`, computes every distance: the scalar functions are
1 x 1 calls into it, and the matrix and the grid take ROW_BLOCK rows at a
time from `distance_block`. Binary counts come from one exact float64
matmul and the Gower terms are added in schema order, so a given pair
gets the same bits from every entry point and block shape.

A Jaccard or Manhattan distance depends only on a pair's mismatch and
union counts, so `pair_codes` can stand in for a block of distances: one
integer code per pair, whose value `code_values` gives with `_block`'s
arithmetic.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import Cohort
from .errors import IncompatibleMetric, LengthMismatch

# Rows per pass of every row-blocked kernel, here and in `tune`.
ROW_BLOCK = 256


class Metric(Enum):
    JACCARD = "jaccard"
    MANHATTAN = "manhattan"
    GOWER = "gower"

    @classmethod
    def parse(cls, text: str) -> "Metric":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"not a metric: {text!r}") from None


def _block(bin_a, bin_b, metric: Metric, cont_a=None, cont_b=None, ranges=()):
    """Distances from every row of block a to every row of block b.

    Returns (values, empty): the float64 distances and the mask of pairs
    whose total weight is zero, which are defined as 0. Binary features use
    the asymmetric rule (0/0 positions are ignored); each continuous feature
    with a positive span scores |a - b| / span and adds 1.0 to the weight.
    """
    a = np.asarray(bin_a, dtype=np.float64)
    b = np.asarray(bin_b, dtype=np.float64)
    # Each cell sums at most F products of 0/1, so every partial sum is an
    # integer far below 2**53: BLAS gives the exact count in any summation
    # order, bitwise equal to an integer matmul.
    ones = a @ b.T
    weight = a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :]
    weight -= ones  # union
    score = np.subtract(weight, ones, out=ones)  # mismatch
    if metric is Metric.MANHATTAN:
        return score, np.zeros(score.shape, dtype=bool)
    if len(ranges):
        term = np.empty_like(score)
        for j, (lo, hi) in enumerate(ranges):
            span = hi - lo
            if span > 0:
                np.subtract.outer(cont_a[:, j], cont_b[:, j], out=term)
                np.abs(term, out=term)
                term /= span
                score += term
                weight += 1.0
    empty = weight == 0.0
    weight[empty] = 1.0  # score is 0 there, so the cell stays 0
    score /= weight
    return score, empty


def _binary_pair(a, b):
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise LengthMismatch(f"{a.shape} vs {b.shape}")
    return a.reshape(1, -1), b.reshape(1, -1)


def jaccard(a, b) -> float:
    """Jaccard dissimilarity for asymmetric binary vectors, in [0, 1].

    Positions where both vectors are 0 carry no information and are ignored.
    A pair with no informative position (both all-zero) is defined as 0.
    """
    values, _ = _block(*_binary_pair(a, b), Metric.JACCARD)
    return float(values[0, 0])


def manhattan(a, b) -> float:
    """Mismatch count between binary vectors (Hamming, unnormalized)."""
    values, _ = _block(*_binary_pair(a, b), Metric.MANHATTAN)
    return float(values[0, 0])


def gower(a_binary, b_binary, a_continuous, b_continuous, ranges) -> float:
    """Gower dissimilarity over mixed binary/continuous features, in [0, 1].

    Binary features use the asymmetric rule (0/0 pairs are excluded, like
    Jaccard); continuous features score |a-b| normalized by the cohort-wide
    range. Zero-range features carry zero weight. A pair with total weight
    zero is defined as 0.
    """
    a_binary = np.asarray(a_binary, dtype=np.uint8)
    b_binary = np.asarray(b_binary, dtype=np.uint8)
    if a_binary.shape != b_binary.shape or len(a_continuous) != len(b_continuous):
        raise LengthMismatch("records do not share a schema")
    if len(ranges) != len(a_continuous):
        raise LengthMismatch("ranges do not cover the continuous features")
    values, _ = _block(
        a_binary.reshape(1, -1),
        b_binary.reshape(1, -1),
        Metric.GOWER,
        np.asarray(a_continuous, dtype=np.float64).reshape(1, -1),
        np.asarray(b_continuous, dtype=np.float64).reshape(1, -1),
        ranges,
    )
    return float(values[0, 0])


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric matrix of dissimilarities with a zero diagonal.

    degenerate_pairs counts unordered pairs that hit the zero-weight
    convention (distance defined as 0); surfaced so runs can be audited.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    metric: Metric
    degenerate_pairs: int = 0

    def __post_init__(self):
        n = len(self.ids)
        if self.values.shape != (n, n):
            raise ValueError("matrix shape does not match id count")
        self.values.setflags(write=False)

    def require_cover(self, cohort: Cohort, metric: Metric) -> None:
        """Raise ValueError unless the rows are cohort's records, in its
        order, and the values are in metric's units."""
        if self.metric is not metric:
            raise ValueError(f"distance matrix is {self.metric.value}, not {metric.value}")
        if self.ids is not cohort.ids and self.ids != cohort.ids:
            raise ValueError("distance matrix does not cover this cohort")


def _require_binary_schema(cohort: Cohort, metric: Metric) -> None:
    if metric is not Metric.GOWER and cohort.schema.continuous_names:
        raise IncompatibleMetric(
            f"{metric.value} requires a schema without continuous features"
        )


def distance_block(cohort: Cohort, metric: Metric, rows, columns):
    """`_block` of the records at rows against those at columns (indices or slices)."""
    _require_binary_schema(cohort, metric)
    return _block(
        cohort.binary[rows], cohort.binary[columns], metric,
        cohort.continuous[rows], cohort.continuous[columns], cohort.continuous_ranges,
    )


def distance_matrix(cohort: Cohort, metric: Metric) -> DistanceMatrix:
    """Materialize the full n x n matrix for the chosen metric, in row blocks."""
    _require_binary_schema(cohort, metric)
    values = np.empty((len(cohort), len(cohort)))
    degenerate = 0
    for start in range(0, len(cohort), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        values[rows], empty = distance_block(cohort, metric, rows, slice(None))
        degenerate += np.count_nonzero(empty) - np.count_nonzero(empty.diagonal(start))
    np.fill_diagonal(values, 0.0)
    # empty is symmetric: off-diagonal cells count each unordered pair twice
    return DistanceMatrix(cohort.ids, values, metric, degenerate // 2)


def code_values(cohort: Cohort, metric: Metric) -> np.ndarray:
    """Distance of each pair code mismatch * (F + 1) + union, F binary features.

    The values are `_block`'s: mismatch for Manhattan, and mismatch / union
    for Jaccard, with union 0 (two all-zero records) at 0. Codes that no
    pair has (mismatch > union) get values too and are never looked up.
    """
    if metric is Metric.GOWER:
        raise IncompatibleMetric("gower distances have no pair codes")
    _require_binary_schema(cohort, metric)
    width = cohort.binary.shape[1] + 1
    mismatch, union = np.divmod(np.arange(width * width, dtype=np.float64), width)
    if metric is Metric.MANHATTAN:
        return mismatch
    return np.divide(mismatch, union, out=np.zeros_like(mismatch), where=union > 0)


def pair_codes(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Code mismatch * (F + 1) + union of every (row, column) pair, as intp.

    rows and columns are 0/1 float64 blocks over the same F features. The
    code is (|a| + |b|)(F + 2) - ones (2F + 3), with ones the shared-one
    count of `_block`; it is taken as one matmul of each block widened by
    two columns. Every product and partial sum is an integer far below
    2**53, so BLAS gives the exact code in any summation order.
    """
    width = rows.shape[1] + 2
    a = np.column_stack([rows, width * rows.sum(axis=1), np.ones(len(rows))])
    b = np.column_stack(
        [(1 - 2 * width) * columns, np.ones(len(columns)), width * columns.sum(axis=1)]
    )
    return (a @ b.T).astype(np.intp)
