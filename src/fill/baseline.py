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


def _penalized_ll(X, y, w, ridge):
    eta = X @ w
    # log-likelihood via logaddexp keeps saturated records finite
    ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return ll - 0.5 * ridge * float(np.sum(w[:-1] ** 2))


def fit_logistic(
    cohort: Cohort,
    max_iter: int = 100,
    tol: float = 1e-8,
    ridge: float = 1e-6,
) -> LogisticModel:
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
    penalty = np.full(n_weights, ridge)
    penalty[-1] = 0.0
    w = np.zeros(n_weights)
    ll = _penalized_ll(X, y, w, ridge)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
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
            cand_ll = _penalized_ll(X, y, candidate, ridge)
            if cand_ll >= ll or scale < 1e-9:
                break
            scale *= 0.5
        delta = scale * step
        w = w + delta
        ll = _penalized_ll(X, y, w, ridge)
        if not np.all(np.isfinite(w)):
            raise Diverged("non-finite weights")
        if float(np.max(np.abs(delta))) < tol:
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
    scores = [float(s) for s in scores]
    labels = list(labels)
    if not scores or len(scores) != len(labels):
        raise ValueError("scores and labels must be non-empty and aligned")
    is_pos = [lab is Label.POS for lab in labels]
    if all(is_pos) or not any(is_pos):
        raise SingleClass("optimal cutoff needs both classes")
    best = None
    for cand in sorted(set(scores) | {0.5}):
        errors = sum(
            1
            for s, pos in zip(scores, is_pos)
            if (s >= cand) != pos
        )
        key = (errors, abs(cand - 0.5), cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def c_statistic(scores, labels) -> float:
    """Concordance probability via midranks (ties count one half)."""
    scores = np.asarray(scores, dtype=np.float64)
    is_pos = np.array([lab is Label.POS for lab in labels], dtype=bool)
    n_pos = int(is_pos.sum())
    n_neg = is_pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("c-statistic needs both classes")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    sorted_scores = scores[order]
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = float(ranks[is_pos].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate_baseline(cohort: Cohort, model: LogisticModel, cutoff: float):
    """(accuracy, precision, c_statistic) over the labeled records.

    precision is None when nothing is predicted POS.
    """
    labeled = cohort.labeled_mask
    scores = predict_scores(cohort, model)[labeled]
    is_pos = cohort.pos_mask[labeled]
    predicted = scores >= cutoff
    tp = int((predicted & is_pos).sum())
    fp = int((predicted & ~is_pos).sum())
    tn = int((~predicted & ~is_pos).sum())
    accuracy = (tp + tn) / int(labeled.sum())
    precision = tp / (tp + fp) if tp + fp > 0 else None
    labels = [Label.POS if p else Label.NEG for p in is_pos]
    return accuracy, precision, c_statistic(scores, labels)
