"""Neighborhood-likelihood label imputation.

A record is assigned the positive label only when its distance
neighborhood contains significantly more positives than the cohort-wide
base rate predicts, judged by a one-tailed binomial test. Everything here
is pure given (cohort, model, distances).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import Cohort
from .distance import DistanceMatrix, Metric, _require_metric
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
        _require_metric(self.metric)
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
            labeled_ids=cohort.labeled_ids,
            base_rate=base_rate(cohort),
            hyperparameters=hp,
        )

    def require_fit(self, cohort: Cohort) -> None:
        """Raise ModelCohortMismatch unless fit on cohort's labeled records."""
        if self.labeled_ids is not cohort.labeled_ids and self.labeled_ids != cohort.labeled_ids:
            raise ModelCohortMismatch("model was fit on a different labeled set")


@dataclass(frozen=True)
class ClassificationResult:
    record_id: str
    neighborhood_n: int
    positive_k: int
    p_value: float
    decision: Decision


def base_rate(cohort: Cohort) -> float:
    """Proportion of POS among labeled records; UNKNOWN never counts."""
    n_labeled = int(cohort.labeled_mask.sum())
    if n_labeled == 0:
        raise NoLabeledRecords("base rate is undefined without labeled records")
    return int(cohort.pos_mask.sum()) / n_labeled


def neighborhood(
    record_id: str,
    cohort: Cohort,
    model: FillModel,
    distances: DistanceMatrix,
) -> tuple[int, np.ndarray]:
    """The record's row index and the mask of its labeled neighbors.

    Neighbors are the labeled records within the closed ball of radius S,
    never the record itself. model must be fit on cohort, and distances must
    cover cohort in the model's metric, or S would be read in wrong units.
    """
    model.require_fit(cohort)
    distances.require_cover(cohort, model.hyperparameters.metric)
    idx = cohort.id_index.get(record_id)
    if idx is None:
        raise UnknownRecord(record_id)
    mask = cohort.labeled_mask & (distances.values[idx] <= model.hyperparameters.radius)
    mask[idx] = False
    return idx, mask


def classify(
    record_id: str,
    cohort: Cohort,
    model: FillModel,
    distances: DistanceMatrix,
) -> ClassificationResult:
    """Test one record's neighborhood against the base rate.

    Decision is POS iff the binomial tail p-value of the positives among
    the record's `neighborhood` is strictly below the threshold.
    """
    _, mask = neighborhood(record_id, cohort, model, distances)
    n = int(mask.sum())
    k = int((mask & cohort.pos_mask).sum())
    p = binom_sf(k, n, model.base_rate)
    decision = Decision.POS if p < model.hyperparameters.p_threshold else Decision.UNCLASSIFIED
    return ClassificationResult(record_id, n, k, p, decision)


def impute_unknowns(
    cohort: Cohort,
    model: FillModel,
    distances: DistanceMatrix,
) -> list[ClassificationResult]:
    """Classify every UNKNOWN record, in cohort order; the model and the
    matrix are checked even when there is none."""
    model.require_fit(cohort)
    distances.require_cover(cohort, model.hyperparameters.metric)
    return [classify(rid, cohort, model, distances) for rid in cohort.unknown_ids]
