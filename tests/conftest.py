import numpy as np
import pytest

from fill.classify import neighborhood
from fill.cohort import Cohort, FeatureSchema, Label
from fill.tune import _loo_metrics, _tally


def make_cohort(binary_rows, labels, continuous_rows=None, continuous_names=(), ids=None):
    """Small-cohort builder for tests; labels given as 'POS'/'NEG'/'UNKNOWN'."""
    n = len(binary_rows)
    n_bin = len(binary_rows[0]) if n else 0
    schema = FeatureSchema(
        binary_names=tuple(f"b{i}" for i in range(n_bin)),
        continuous_names=tuple(continuous_names),
    )
    if ids is None:
        ids = [f"p{i}" for i in range(n)]
    if continuous_rows is None:
        continuous_rows = np.zeros((n, len(continuous_names)))
    return Cohort.make(
        schema,
        ids,
        np.array(binary_rows, dtype=np.uint8).reshape(n, n_bin),
        np.array(continuous_rows, dtype=np.float64).reshape(n, len(continuous_names)),
        [Label[lab] for lab in labels],
    )


@pytest.fixture
def tiny_mixed_cohort():
    """4 records, 2 binary + 1 continuous feature, one UNKNOWN."""
    return make_cohort(
        [[1, 0], [1, 1], [0, 1], [0, 0]],
        ["POS", "NEG", "POS", "UNKNOWN"],
        continuous_rows=[[35.0], [85.0], [60.0], [50.0]],
        continuous_names=("age",),
    )


def random_cohort(rng, n_records, n_binary, n_unknown=0, n_continuous=0):
    binary = rng.integers(0, 2, size=(n_records, n_binary))
    labels = ["POS" if rng.random() < 0.4 else "NEG" for _ in range(n_records)]
    for i in rng.choice(n_records, size=n_unknown, replace=False):
        labels[i] = "UNKNOWN"
    continuous = rng.normal(50, 15, size=(n_records, n_continuous))
    return make_cohort(
        binary.tolist(),
        labels,
        continuous_rows=continuous,
        continuous_names=tuple(f"c{i}" for i in range(n_continuous)),
    )


def neighbors_of(record_id, cohort, model, distances):
    """Ids of the record's labeled neighbors, read from `neighborhood`'s mask."""
    _, mask = neighborhood(record_id, cohort, model, distances)
    return tuple(cohort.ids[i] for i in np.flatnonzero(mask))


def reversed_cohort(cohort):
    """The same records in the opposite order: same size, other row order."""
    order = np.arange(len(cohort))[::-1]
    return Cohort.make(
        cohort.schema, cohort.ids[::-1], cohort.binary[order],
        cohort.continuous[order], cohort.labels[::-1],
    )


def cell_metrics(cohort, p_arr, threshold):
    """LOO metrics of per-record p-values decided at one threshold.

    The counts and ratios come from the grid's own tally and metric code.
    """
    tp, fp, newly = _tally(np.asarray(p_arr) < threshold, cohort.pos_mask, cohort.labeled_mask)
    return _loo_metrics(int(tp), int(fp), int(newly), int(cohort.labeled_mask.sum()))
