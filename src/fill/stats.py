"""Small-sample statistical primitives.

Tail sums are computed in log space throughout: neighborhoods can reach a
few thousand records and naive products of binomial terms underflow long
before that.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .errors import (
    DegenerateTable,
    InsufficientSample,
    InvalidArguments,
    ZeroVarianceBoth,
)

# Tables with probability within this relative slack of the observed table
# count as ties in the two-sided Fisher sum; exact float equality would make
# tie inclusion depend on rounding noise.
_FISHER_REL_TOL = 1e-7
_LOG1P_TOL = math.log1p(_FISHER_REL_TOL)
# flattened cells (a, b, c, d) @ _MARGINS = (a + b, a + c, b + d, c + d)
_MARGINS = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]])

_logfact = gammaln(np.arange(256, dtype=np.float64))
_logfact_lock = threading.Lock()


def _log_factorials(n: int) -> np.ndarray:
    """Cached lgamma table: _log_factorials(n)[m] == log((m-1)!) for 1 <= m <= n.

    The shared table only grows, and the caller gets the table it checked,
    so a concurrent call for a smaller n can never hand back a short one.
    """
    global _logfact
    table = _logfact
    if n + 1 < table.size:
        return table
    with _logfact_lock:
        if n + 1 >= _logfact.size:
            _logfact = gammaln(np.arange(2 * (n + 1), dtype=np.float64))
        return _logfact


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


def binom_tail(n: int, p: float) -> np.ndarray:
    """t[k] = P(X >= k) for X ~ Binomial(n, p) and k = 0, ..., n + 1.

    Summed from exact log-binomial coefficients with the log-sum-exp
    pattern: the shift is taken over the full term range and the tail is
    one reverse cumulative sum. A running sum of non-negative terms never
    decreases, so t is exactly non-increasing in k; t[0] is 1 and t[n + 1]
    is 0 by definition.
    """
    n = int(n)
    if n < 0 or not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise InvalidArguments(f"binom_tail(n={n}, p={p})")
    tail = np.empty(n + 2, dtype=np.float64)
    tail[n + 1] = 0.0
    head = tail[: n + 1]
    if p == 0.0 or p == 1.0:
        head.fill(p)
    else:
        lf = _log_factorials(n + 1)
        j = np.arange(0, n + 1)
        # log C(n, j) = log n! - log j! - log (n - j)!; the slices are lf[j + 1], lf[n - j + 1]
        log_coef = lf[n + 1] - lf[1 : n + 2] - lf[n + 1 : 0 : -1]
        log_terms = log_coef + j * math.log(p) + (n - j) * math.log1p(-p)
        shift = float(log_terms.max())
        np.cumsum(np.exp(log_terms - shift)[::-1], out=head[::-1])
        head *= math.exp(shift)
        np.minimum(head, 1.0, out=head)
    tail[0] = 1.0
    return tail


@functools.lru_cache(maxsize=256)
def _shared_tail(n: int, p: float) -> np.ndarray:
    # Read-only: every binom_sf call for this (n, p) reads this one table.
    # Bounded, so it holds at most 256 tables of the largest n seen.
    tail = binom_tail(n, p)
    tail.setflags(write=False)
    return tail


def binom_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p); exactly binom_tail(n, p)[k].

    Recent tables are kept, so per-record calls that share a neighborhood
    size and base rate build the table once.
    """
    k = int(k)
    n = int(n)
    if k < 0 or n < 0 or k > n or not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise InvalidArguments(f"binom_sf(k={k}, n={n}, p={p})")
    return float(_shared_tail(n, float(p))[k])


def _log_hypergeom(x, c1, c2, r1, lf):
    # lf[1:][m] == lf[m + 1] == log(m!): the view folds the index offset
    f = lf[1:]
    return (
        f[c1] - f[x] - f[c1 - x]
        + f[c2] - f[r1 - x] - f[c2 - r1 + x]
        - (f[c1 + c2] - f[r1] - f[c1 + c2 - r1])
    )


def odds_ratio(a, b, c, d):
    """Sample odds ratio (a*d)/(b*c) of count arrays, elementwise.

    Where any cell is zero, 0.5 is added to every cell first
    (Haldane-Anscombe), so the ratio stays finite and positive.
    """
    # with no zero cell the shift is 0.0, and a float product of integers
    # is the correctly rounded exact product, so the plain ratio is the
    # same double as an integer product followed by true division
    shift = np.where(np.minimum(np.minimum(a, b), np.minimum(c, d)) == 0, 0.5, 0.0)
    return ((a + shift) * (d + shift)) / ((b + shift) * (c + shift))


def fisher_exact(table) -> TestResult:
    """Two-sided Fisher exact test on one 2x2 table or a k x 2 x 2 stack.

    The p-value sums every table (margins fixed) whose hypergeometric
    probability is at most the observed table's, ties included up to a
    1e-7 relative slack. The statistic is odds_ratio of the cells. A 2x2
    table gives float fields; a stack gives float64 arrays of length k,
    and each row equals the 2x2 call on that table bit for bit.
    Every table needs non-negative integer cells and no zero margin.
    """
    try:
        cells = np.asarray(table)
    except ValueError:
        raise InvalidArguments(f"not a 2x2 table or a k x 2 x 2 stack: {table!r}") from None
    single = cells.shape == (2, 2)
    if not single and (cells.ndim != 3 or cells.shape[1:] != (2, 2)):
        raise InvalidArguments(f"expected shape (2, 2) or (k, 2, 2), got {cells.shape}")
    kind = cells.dtype.kind
    if (
        kind not in "biuf"
        or (kind == "f" and not (np.isfinite(cells) & (cells == np.trunc(cells))).all())
        or (cells < 0).any()
    ):
        raise InvalidArguments(f"cells must be non-negative integers: {cells.tolist()}")
    flat = cells.reshape(-1, 4).astype(np.int64)
    margins = flat @ _MARGINS
    if not margins.all():
        i = int(margins.min(axis=1).argmin())
        raise DegenerateTable(f"zero margin in {flat[i].reshape(2, 2).tolist()}")

    # canonical orientation: simultaneous row+column swap leaves both the
    # odds ratio and the p-value invariant, so pick one representative,
    # (d, c, b, a) < (a, b, c, d) in tuple order, and the symmetry holds
    # exactly in floats too
    a, b, c, d = flat.T
    swap = (d < a) | ((d == a) & (c < b))
    a, b, c, d = np.where(swap[:, None], flat[:, ::-1], flat).T
    odds = odds_ratio(a, b, c, d)

    # each table's support lo..hi, padded to the widest one; padded cells
    # are clamped to hi for a safe index and excluded below. The swap
    # reverses (a, b, c, d), and with it the margins (r1, c1, c2, r2).
    margins = np.where(swap[:, None], margins[:, ::-1], margins)
    r1, c1, c2 = margins[:, 0:1], margins[:, 1:2], margins[:, 2:3]
    lo = np.maximum(0, r1 - c2)
    span = np.minimum(r1, c1) - lo
    steps = np.arange(int(span.max(initial=0)) + 1)
    lf = _log_factorials(int((c1 + c2).max(initial=0)) + 1)
    log_probs = _log_hypergeom(lo + np.minimum(steps, span), c1, c2, r1, lf)
    log_obs = log_probs[np.arange(a.size), a - lo[:, 0]][:, None]
    include = (steps <= span) & (log_probs <= log_obs + _LOG1P_TOL)
    # excluded cells become -inf before exp, so they add exact zeros
    log_probs = np.where(include, log_probs, -np.inf)
    peak = log_probs.max(axis=1, keepdims=True)
    # a left-to-right running sum: trailing padding adds exact zeros, so a
    # table's p-value does not depend on its stack or on the stack's width
    total = np.cumsum(np.exp(log_probs - peak), axis=1)[:, -1:]
    p = np.minimum(1.0, np.exp(peak + np.log(total)))[:, 0]
    if single:
        return TestResult(statistic=float(odds[0]), p_value=float(p[0]))
    return TestResult(statistic=odds, p_value=p)


def welch_t(xs, ys) -> TestResult:
    """Two-tailed Welch t-test for samples with unequal variances.

    Uses the Welch-Satterthwaite degrees of freedom and the regularized
    incomplete beta function for the tail probability.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2 or ys.size < 2:
        raise InsufficientSample("both samples need at least 2 values")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InvalidArguments("samples must be finite")
    vx = float(xs.var(ddof=1))
    vy = float(ys.var(ddof=1))
    nx, ny = xs.size, ys.size
    a = vx / nx
    b = vy / ny
    if a + b == 0.0:
        # covers both exact zero variances and a standard error that
        # underflows to zero, where the statistic is equally undefined
        raise ZeroVarianceBoth("t statistic undefined when both variances vanish")
    t = (float(xs.mean()) - float(ys.mean())) / math.sqrt(a + b)
    # Welch-Satterthwaite in ratio form, immune to under/overflow of a**2;
    # both ratios computed the same way keeps swapped samples bit-symmetric
    ra = a / (a + b)
    rb = b / (a + b)
    df = 1.0 / (ra * ra / (nx - 1) + rb * rb / (ny - 1))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TestResult(statistic=t, p_value=min(1.0, p))


def bh_fdr(pvals) -> list:
    """Benjamini-Hochberg step-up adjustment, returned in input order."""
    pvals = list(pvals)
    for p in pvals:
        if not (0.0 <= p <= 1.0):
            raise InvalidArguments(f"p-value out of [0, 1]: {p}")
    m = len(pvals)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: pvals[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        # at the top rank the scale factor is exactly 1: using pvals[i]
        # directly keeps adjusted >= raw, which p*m/m can round away from
        candidate = pvals[i] if rank == m else min(1.0, pvals[i] * m / rank)
        running = min(running, candidate)
        adjusted[i] = running
    return adjusted
