"""Neighborhood contrast: why did a record look positive?

Labeled records are split into the record's neighbors and everyone else,
then each feature is tested for enrichment (Fisher exact for binary,
Welch t for continuous). P-values are pooled across all of the record's
features, binary and continuous together, before FDR adjustment: each
explanation is its own comparison family.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import FillModel
from .cohort import Cohort
from .distance import DistanceMatrix
from .errors import (
    EmptyComplement,
    EmptyNeighborhood,
    InsufficientSample,
    UnknownRecord,
    ZeroVarianceBoth,
)
from .stats import bh_fdr, fisher_exact, odds_ratio, welch_t

SIGNIFICANCE_LEVEL = 0.05


class FeatureKind(Enum):
    BINARY = "BINARY"
    CONTINUOUS = "CONTINUOUS"


@dataclass(frozen=True)
class FeatureComparison:
    feature: str
    kind: FeatureKind
    effect: float      # odds ratio (binary) or mean difference, neighbors minus rest
    raw_p: float
    adjusted_p: float


@dataclass(frozen=True)
class NeighborhoodExplanation:
    record_id: str
    neighbor_count: int
    comparisons: tuple[FeatureComparison, ...]
    significant: tuple[FeatureComparison, ...]


def compare_groups(cohort: Cohort, neighbor_mask, complement_mask):
    """Per-feature (name, kind, effect, raw_p) contrasting two disjoint record sets.

    Binary features build the 2x2 table rows = present/absent, columns =
    neighbor/other, so an odds ratio above 1 means enrichment among
    neighbors. All binary tables are counted in one pass and tested with
    one fisher_exact stack. Degenerate tables (a feature present or absent
    everywhere) keep the Haldane-corrected odds ratio with p = 1: a single
    attainable table carries no association evidence. Continuous features
    where the t-test is undefined (a singleton group, or two flat samples)
    likewise report p = 1 with the plain mean difference.
    """
    n_count = int(neighbor_mask.sum())
    c_count = int(complement_mask.sum())
    a = np.count_nonzero(cohort.binary[neighbor_mask], axis=0)
    b = np.count_nonzero(cohort.binary[complement_mask], axis=0)
    c = n_count - a
    d = c_count - b
    odds = odds_ratio(a, b, c, d)
    pvals = np.ones(a.size)
    live = (a + b > 0) & (c + d > 0) & (n_count > 0) & (c_count > 0)
    pvals[live] = fisher_exact(np.stack([a, b, c, d], axis=1)[live].reshape(-1, 2, 2)).p_value
    results = [
        (name, FeatureKind.BINARY, effect, raw_p)
        for name, effect, raw_p in zip(cohort.schema.binary_names, odds.tolist(), pvals.tolist())
    ]
    for j, name in enumerate(cohort.schema.continuous_names):
        col = cohort.continuous[:, j]
        xs = col[neighbor_mask]
        ys = col[complement_mask]
        diff = float(xs.mean()) - float(ys.mean())
        try:
            raw_p = welch_t(xs, ys).p_value
        except (InsufficientSample, ZeroVarianceBoth):
            raw_p = 1.0
        results.append((name, FeatureKind.CONTINUOUS, diff, raw_p))
    return results


def explain_record(
    record_id: str,
    cohort: Cohort,
    model: FillModel,
    distances: DistanceMatrix,
) -> NeighborhoodExplanation:
    """Contrast a record's labeled neighbors against labeled non-neighbors."""
    idx = cohort.id_index.get(record_id)
    if idx is None:
        raise UnknownRecord(record_id)
    row = distances.values[idx]
    labeled = cohort.labeled_mask.copy()
    labeled[idx] = False  # the record's own features define the query, not evidence
    neighbor_mask = labeled & (row <= model.hyperparameters.radius)
    complement_mask = labeled & ~neighbor_mask
    n_count = int(neighbor_mask.sum())
    if n_count == 0:
        raise EmptyNeighborhood(f"{record_id!r} has no labeled neighbors in radius")
    if int(complement_mask.sum()) == 0:
        raise EmptyComplement(f"every labeled record neighbors {record_id!r}")

    raw = compare_groups(cohort, neighbor_mask, complement_mask)
    adjusted = bh_fdr([p for _, _, _, p in raw])
    comparisons = tuple(
        FeatureComparison(name, kind, effect, raw_p, adj)
        for (name, kind, effect, raw_p), adj in zip(raw, adjusted)
    )
    significant = tuple(
        c for c in comparisons if c.adjusted_p < SIGNIFICANCE_LEVEL
    )
    return NeighborhoodExplanation(record_id, n_count, comparisons, significant)


def top_features(expl: NeighborhoodExplanation, k: int = 5) -> list[FeatureComparison]:
    """The k most significant features, Table-style: smallest adjusted p first."""
    ranked = sorted(
        expl.significant, key=lambda c: (c.adjusted_p, c.raw_p, c.feature)
    )
    return ranked[:k]


def format_feature_cell(c: FeatureComparison) -> str:
    if c.kind is FeatureKind.BINARY:
        return f"{c.feature} (OR {c.effect:.2f})"
    return f"{c.feature} (dMean {c.effect:.2f})"
