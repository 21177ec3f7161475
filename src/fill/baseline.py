"""Global logistic-regression comparison model.

Fit by iteratively reweighted least squares on the labeled records with a
small ridge penalty: presence/absence matrices routinely sit on the edge
of separation, and the penalty keeps the optimum finite instead of
letting weights run away.
"""

from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, Label
from .errors import Diverged, SchemaMismatch, SingleClass

# IRLS stops after _MAX_ITER Newton steps, or once no weight moves by
# _TOL; _RIDGE is the L2 penalty on every weight but the intercept.
_MAX_ITER = 100
_TOL = 1e-8
_RIDGE = 1e-6


@dataclass(frozen=True)
class LogisticModel:
    """weights holds one coefficient per feature plus the intercept (last)."""

    weights: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self):
        self.weights.setflags(write=False)


def design_matrix(cohort: Cohort) -> np.ndarray:
    """Binary features as 0/1, continuous scaled to [0, 1] by cohort range."""
    n = len(cohort)
    cols = [cohort.binary.astype(np.float64)]
    scaled = np.zeros((n, len(cohort.schema.continuous_names)))
    for j, (lo, hi) in enumerate(cohort.continuous_ranges):
        span = hi - lo
        if span > 0:
            scaled[:, j] = (cohort.continuous[:, j] - lo) / span
    cols.append(scaled)
    cols.append(np.ones((n, 1)))
    return np.hstack(cols)


def _penalized_ll(X, y, w):
    eta = X @ w
    # log-likelihood via logaddexp keeps saturated records finite
    ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return ll - 0.5 * _RIDGE * float(np.sum(w[:-1] ** 2))


def fit_logistic(cohort: Cohort) -> LogisticModel:
    """Ridge-penalized IRLS fit on the labeled records.

    The intercept is not penalized. Newton steps are halved whenever they
    fail to improve the penalized log-likelihood, which tames the
    quasi-separated cases without changing the optimum.
    """
    labeled = cohort.labeled_mask
    y = cohort.pos_mask[labeled].astype(np.float64)
    if labeled.sum() < 2 or y.min() == y.max():
        raise SingleClass("need labeled records from both classes")
    X = design_matrix(cohort)[labeled]
    n_weights = X.shape[1]
    penalty = np.full(n_weights, _RIDGE)
    penalty[-1] = 0.0
    w = np.zeros(n_weights)
    ll = _penalized_ll(X, y, w)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        eta = X @ w
        mu = 1.0 / (1.0 + np.exp(-eta))
        grad = X.T @ (y - mu) - penalty * w
        weights_irls = mu * (1.0 - mu)
        H = (X * weights_irls[:, None]).T @ X + np.diag(penalty)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            raise Diverged("singular IRLS system") from None
        if not np.all(np.isfinite(step)):
            raise Diverged("non-finite IRLS step")
        scale = 1.0
        for _ in range(30):
            candidate = w + scale * step
            cand_ll = _penalized_ll(X, y, candidate)
            if cand_ll >= ll or scale < 1e-9:
                break
            scale *= 0.5
        delta = scale * step
        w = w + delta
        ll = _penalized_ll(X, y, w)
        if not np.all(np.isfinite(w)):
            raise Diverged("non-finite weights")
        if float(np.max(np.abs(delta))) < _TOL:
            converged = True
            break
    return LogisticModel(weights=w, converged=converged, iterations=iterations)


def predict_scores(cohort: Cohort, model: LogisticModel) -> np.ndarray:
    X = design_matrix(cohort)
    if X.shape[1] != model.weights.shape[0]:
        raise SchemaMismatch(
            f"{X.shape[1]} design columns", f"{model.weights.shape[0]} weights"
        )
    return 1.0 / (1.0 + np.exp(-(X @ model.weights)))


def optimal_cutoff(scores, labels) -> float:
    """Probability cutoff minimizing misclassification count.

    Candidates are the observed scores plus 0.5 (the error curve is
    piecewise constant between observed scores). Prediction rule:
    POS iff score >= cutoff. Ties go to the candidate nearest 0.5, then
    to the smaller cutoff.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_pos = np.array([lab is Label.POS for lab in labels], dtype=bool)
    if not scores.size or scores.shape != is_pos.shape:
        raise ValueError("scores and labels must be non-empty and aligned")
    if is_pos.all() or not is_pos.any():
        raise SingleClass("optimal cutoff needs both classes")
    cand = np.unique(np.append(scores, 0.5))
    # errors: POS scored below the cutoff plus NEG scored at or above it
    neg = np.sort(scores[~is_pos])
    errors = np.sort(scores[is_pos]).searchsorted(cand) + neg.size - neg.searchsorted(cand)
    return float(cand[np.lexsort((cand, np.abs(cand - 0.5), errors))[0]])


def c_statistic(scores, labels) -> float:
    """Concordance probability via midranks (ties count one half)."""
    scores = np.asarray(scores, dtype=np.float64)
    is_pos = np.array([lab is Label.POS for lab in labels], dtype=bool)
    n_pos = int(is_pos.sum())
    n_neg = is_pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("c-statistic needs both classes")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    # a run of ties at 0-based positions i..j shares the 1-based midrank
    # 0.5 * (i + j) + 1, where i + j = 2 * ends - counts - 1
    ranks = (0.5 * (2 * ends - counts - 1) + 1.0)[inverse]
    rank_sum = float(ranks[is_pos].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate_baseline(cohort: Cohort, model: LogisticModel, cutoff: float):
    """(accuracy, precision, c_statistic) over the labeled records.

    precision is None when nothing is predicted POS.
    """
    scores, is_pos, labels = _labeled_scores(cohort, model)
    return (*_accuracy_precision(scores, is_pos, cutoff), c_statistic(scores, labels))


def evaluate_two_cutoffs(cohort: Cohort, model: LogisticModel):
    """`evaluate_baseline` at 0.5 and at the labeled records' `optimal_cutoff`, as the
    (accuracies, precisions, c_statistic, cutoffs) `report.write_baseline_report` takes.
    The records are scored once and the c-statistic is computed once."""
    scores, is_pos, labels = _labeled_scores(cohort, model)
    cutoff = optimal_cutoff(scores, labels)
    acc_d, prec_d = _accuracy_precision(scores, is_pos, 0.5)
    acc_o, prec_o = _accuracy_precision(scores, is_pos, cutoff)
    return (acc_d, acc_o), (prec_d, prec_o), c_statistic(scores, labels), (0.5, cutoff)


def _labeled_scores(cohort, model):
    """The labeled records' scores, POS mask and Label list."""
    labeled = cohort.labeled_mask
    is_pos = cohort.pos_mask[labeled]
    labels = [Label.POS if p else Label.NEG for p in is_pos]
    return predict_scores(cohort, model)[labeled], is_pos, labels


def _accuracy_precision(scores, is_pos, cutoff):
    predicted = scores >= cutoff
    tp = int((predicted & is_pos).sum())
    fp = int((predicted & ~is_pos).sum())
    tn = int((~predicted & ~is_pos).sum())
    return (tp + tn) / is_pos.size, tp / (tp + fp) if tp + fp > 0 else None
