"""Neighborhood-likelihood label imputation.

A record is assigned the positive label only when its distance
neighborhood contains significantly more positives than the cohort-wide
base rate predicts, judged by a one-tailed binomial test. Everything here
is pure given (cohort, model, distances).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import Cohort, Label
from .distance import DistanceMatrix, Metric
from .errors import ModelCohortMismatch, NoLabeledRecords, UnknownRecord
from .stats import binom_sf


class Decision(Enum):
    POS = "POS"
    UNCLASSIFIED = "UNCLASSIFIED"


@dataclass(frozen=True)
class Hyperparameters:
    """Neighborhood radius (metric units) and p-value significance cutoff."""

    radius: float
    p_threshold: float
    metric: Metric

    def __post_init__(self):
        if not (self.radius >= 0.0):
            raise ValueError("radius must be >= 0")
        if not (0.0 < self.p_threshold <= 1.0):
            raise ValueError("p_threshold must be in (0, 1]")


@dataclass(frozen=True)
class FillModel:
    """Frozen evidence summary: who is labeled and how common POS is."""

    labeled_ids: tuple[str, ...]
    base_rate: float
    hyperparameters: Hyperparameters

    @classmethod
    def fit(cls, cohort: Cohort, hp: Hyperparameters) -> "FillModel":
        return cls(
            labeled_ids=tuple(
                rid for rid, lab in zip(cohort.ids, cohort.labels)
                if lab is not Label.UNKNOWN
            ),
            base_rate=base_rate(cohort),
            hyperparameters=hp,
        )


@dataclass(frozen=True)
class ClassificationResult:
    record_id: str
    neighborhood_n: int
    positive_k: int
    p_value: float
    decision: Decision
    neighbor_ids: tuple[str, ...]


def base_rate(cohort: Cohort) -> float:
    """Proportion of POS among labeled records; UNKNOWN never counts."""
    n_labeled = int(cohort.labeled_mask.sum())
    if n_labeled == 0:
        raise NoLabeledRecords("base rate is undefined without labeled records")
    return int(cohort.pos_mask.sum()) / n_labeled


def classify(
    record_id: str,
    cohort: Cohort,
    model: FillModel,
    distances: DistanceMatrix,
    exclude: str | None = None,
) -> ClassificationResult:
    """Test one record's neighborhood against the base rate.

    The neighbor set is every labeled record within the closed ball of
    radius S, never including the record itself nor `exclude` (the
    leave-one-out hook). Decision is POS iff the binomial tail p-value is
    strictly below the threshold.
    """
    idx = cohort.id_index.get(record_id)
    if idx is None:
        raise UnknownRecord(record_id)
    if distances.ids != cohort.ids:
        raise ValueError("distance matrix does not cover this cohort")
    row = distances.values[idx]
    mask = cohort.labeled_mask & (row <= model.hyperparameters.radius)
    mask = mask.copy()
    mask[idx] = False
    if exclude is not None:
        ex_idx = cohort.id_index.get(exclude)
        if ex_idx is None:
            raise UnknownRecord(exclude)
        mask[ex_idx] = False
    n = int(mask.sum())
    k = int((mask & cohort.pos_mask).sum())
    p = binom_sf(k, n, model.base_rate)
    decision = Decision.POS if p < model.hyperparameters.p_threshold else Decision.UNCLASSIFIED
    neighbor_ids = tuple(cohort.ids[i] for i in np.flatnonzero(mask))
    return ClassificationResult(record_id, n, k, p, decision, neighbor_ids)


def impute_unknowns(
    cohort: Cohort,
    model: FillModel,
    distances: DistanceMatrix,
    threads: int = 1,
) -> list[ClassificationResult]:
    """Classify every UNKNOWN record, in cohort order.

    threads is accepted for compatibility and ignored.
    """
    expected = tuple(
        rid for rid, lab in zip(cohort.ids, cohort.labels) if lab is not Label.UNKNOWN
    )
    if model.labeled_ids != expected:
        raise ModelCohortMismatch("model was fit on a different labeled set")
    return [classify(rid, cohort, model, distances) for rid in cohort.unknown_ids]
