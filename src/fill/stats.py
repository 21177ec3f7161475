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
from numpy.lib.stride_tricks import as_strided

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
# _beta_cf (modified Lentz) keeps |c| and |d| above _CF_TINY, and stops once
# a term moves the fraction by under _CF_EPS relative; with b = 1/2 that
# takes O(sqrt(a)) terms, far below the cap
_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAX_TERMS = 20_000


# (rising, falling, top); see _log_factorials
_logfact = (None, None, -1)
_logfact_lock = threading.Lock()


def _log_factorials(n: int):
    """(rising, falling, top) with n <= top and, for 0 <= m <= top,
    rising[m] == falling[top - m] == math.lgamma(m + 1) == log(m!).

    Each read-only table is followed by as many zeros as it has entries, so
    a run of log(m!) that rises or falls by one per step from any m <= top,
    for at most top + 1 steps, is one window of rising or falling; steps
    past the table (m > top, or m < 0) read zeros. The shared tables only
    grow, and the caller gets the ones it checked, so a concurrent call for
    a smaller n can never hand back a short one.
    """
    global _logfact
    tables = _logfact
    if n <= tables[2]:
        return tables
    with _logfact_lock:
        if n > _logfact[2]:
            f = np.fromiter(map(math.lgamma, range(1, 2 * n + 3)), np.float64)
            zeros = np.zeros(f.size)
            rising, falling = np.concatenate([f, zeros]), np.concatenate([f[::-1], zeros])
            rising.setflags(write=False)
            falling.setflags(write=False)
            _logfact = (rising, falling, f.size - 1)
        return _logfact


def _windows(run, width):
    """Every window of `width` consecutive entries of a 1-D array, as a
    read-only (run.size - width + 1, width) view."""
    return as_strided(run, (run.size - width + 1, width), run.strides * 2, writeable=False)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


def binom_tail(n: int, p: float) -> np.ndarray:
    """t[k] = P(X >= k) for X ~ Binomial(n, p) and k = 0, ..., n + 1.

    t is exactly non-increasing in k, t[0] is 1 and t[n + 1] is 0.
    """
    n = int(n)
    if n < 0 or not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise InvalidArguments(f"binom_tail(n={n}, p={p})")
    return _tails(n, float(p))


def binom_tail_counts(sizes, p: float, thresholds) -> np.ndarray:
    """c[i, t]: the number of entries of binom_tail(sizes[i], p) that are >= thresholds[t].

    A table is non-increasing, so c[i, t] is also the least k with
    P(X >= k) < thresholds[t]. Each count equals the one read from the
    whole binom_tail table, but only a window of it is summed (see
    _tail_window). Thresholds must lie in (0, 1].
    """
    sizes = np.asarray(sizes)
    if (
        sizes.ndim != 1
        or (sizes.size and (sizes.dtype.kind not in "iu" or sizes.min() < 0))
        or not (0.0 <= p <= 1.0)
        or not math.isfinite(p)
    ):
        raise InvalidArguments(f"binom_tail_counts(sizes={sizes!r}, p={p})")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim != 1 or not ((thresholds > 0.0) & (thresholds <= 1.0)).all():
        raise InvalidArguments(f"binom_tail_counts(thresholds={thresholds!r})")
    n = sizes.astype(np.int64)[:, None]
    p = float(p)
    if p == 0.0 or p == 1.0 or n.size == 0 or thresholds.size == 0:
        # a table is 1 up to k = 0 (p = 0) or k = n (p = 1) and 0 after
        # it, and every threshold lies in (0, 1]
        return np.repeat(n + 1 if p == 1.0 else np.ones_like(n), thresholds.size, axis=1)
    lo, hi = _tail_window(n, p)
    window, edge = _window_tails(n, lo, hi, p)
    counts = lo + _count(window, thresholds)
    again = np.flatnonzero((lo[:, 0] > 0) & ((window[:, 0] < thresholds.max()) | edge))
    if again.size:
        window, _ = _window_tails(n[again], np.zeros_like(lo[again]), hi[again], p)
        counts[again] = _count(window, thresholds)
    return counts


def _count(tails, thresholds):
    # rows are non-increasing: bisect each (row, threshold) for its count,
    # keeping tails[:a] >= threshold > tails[b:]
    width = tails.shape[1]
    rows = np.arange(tails.shape[0])[:, None]
    a = np.zeros((tails.shape[0], thresholds.size), dtype=np.int64)
    b = np.full_like(a, width)
    for _ in range(width.bit_length()):
        mid = (a + b) // 2
        above = tails[rows, np.minimum(mid, width - 1)] >= thresholds
        a, b = np.where(above, np.minimum(mid + 1, b), a), np.where(above, b, mid)
    return a


def _tails(n: int, p: float) -> np.ndarray:
    """binom_tail(n, p) for a checked n and p.

    _window_tails sums a window [lo, hi) of the same table with the same
    _log_terms and _sum_tails, and its entries are these bits: from
    lo = mode - 2 up the shift and the reverse cumsum are unchanged, and
    from hi up every term is an exact 0 (see _tail_window).
    """
    tails = np.zeros(n + 2)
    if p == 0.0 or p == 1.0:
        tails[: n + 1] = p
    else:
        rising, falling, top = _log_factorials(n)
        # log j! and log (n - j)! for j = 0, ..., n, as views
        log_j, log_rest = rising[: n + 1], falling[top - n : top + 1]
        _sum_tails(tails[:-1], _log_terms(rising[n], log_j, log_rest, n, np.arange(n + 1), p))
    tails[0] = 1.0
    return tails


def _log_terms(log_n, log_j, log_rest, n, j, p):
    """log P(X = j) for X ~ Binomial(n, p), elementwise, with 0 < p < 1.

    log C(n, j) = log_n - log_j - log_rest, the log factorials of n, j and
    n - j read from _log_factorials. Every element depends only on its own
    (n, j), so a term has the same bits in a whole table and in any window
    of it.
    """
    return log_n - log_j - log_rest + j * math.log(p) + (n - j) * math.log1p(-p)


def _sum_tails(out, log_terms, valid=None):
    """out[..., c] = min(1, sum of the terms at columns >= c); returns the shifts.

    One table's log terms (1-D: small 2-D numpy calls cost more), or a
    stack of windows with `valid` marking the columns that hold a term.
    Log-sum-exp: a row's shift is its largest term and its tail is one
    reverse cumulative sum, scaled back. A left-out column is an exact 0,
    so a row has the same bits in any stack, and a running sum of
    non-negative terms never decreases, so a row is exactly non-increasing.
    """
    if valid is None:
        shift = float(log_terms.max())
        terms = np.exp(log_terms - shift)
        scale = math.exp(shift)
    else:
        shift = log_terms.max(axis=1, keepdims=True, initial=-np.inf, where=valid)
        terms = np.exp(log_terms - shift, out=np.zeros_like(log_terms), where=valid)
        # math.exp, not np.exp: the two can differ in the last place
        scale = np.fromiter(map(math.exp, shift.ravel().tolist()), np.float64)[:, None]
    np.cumsum(terms[..., ::-1], axis=-1, out=out[..., ::-1])
    out *= scale
    np.minimum(out, 1.0, out=out)
    return shift


# exp(x) is an exact 0 for every double x below about -745.13
_UNDERFLOW = -750.0


def _tail_window(n, p):
    """[lo, hi) per size: the k whose binom_tail entries binom_tail_counts sums.

    With 0 < p < 1, the window is exact:
    - lo = max(0, mode - 2). A table's shift is its largest term, at the
      mode, and its reverse cumsum runs from k = n down, so the entries at
      k >= lo have the same bits whether or not the terms below lo are
      summed.
    - hi is the first k above the mode whose log term is below the mode's
      by more than 750, found by bisection. The log pmf is concave, so
      from hi up every term is exp(< -745.13), an exact 0: it leaves the
      cumsum's bits unchanged, and the table is 0 from hi on.
    - binom_tail_counts sums a table again from lo = 0 when its entry at lo
      is below the largest threshold (then an entry below lo may be, too)
      or its window's largest term is the one at lo (then the shift may
      lie below lo). Otherwise every entry below lo is >= every threshold.
    """
    rising = _log_factorials(int(n.max()))[0]
    log_n = rising[n]
    mode = np.minimum(np.floor((n + 1) * p).astype(np.int64), n)
    cut = _log_terms(log_n, rising[mode], rising[n - mode], n, mode, p) + _UNDERFLOW
    # the log term at a stays >= cut; b is past n, or its log term is < cut
    a, b = mode, n + 1
    while (b - a > 1).any():
        mid = (a + b) // 2
        below = _log_terms(log_n, rising[mid], rising[n - mid], n, mid, p) < cut
        a, b = np.where(below, a, mid), np.where(below, mid, b)
    return np.maximum(mode - 2, 0), b


def _window_tails(n, lo, hi, p):
    """The tails at k = lo, ..., hi - 1 per row, 0 past hi, and whether a
    row's largest term is the one at lo."""
    width = int((hi - lo).max())
    j = lo + np.arange(width, dtype=np.float64)  # exact integers, as in _tails
    valid = j < hi
    # the rows of log j! and log (n - j)! are runs of the table, so they
    # are taken as windows; a column past hi, which no sum reads, may fall
    # in the zero padding
    rising, falling, top = _log_factorials(int(n.max()))
    log_j = _windows(rising, width)[lo[:, 0]]
    log_rest = _windows(falling, width)[top - (n - lo)[:, 0]]
    log_terms = _log_terms(rising[n], log_j, log_rest, n, j, p)
    window = np.empty(j.shape)
    shift = _sum_tails(window, log_terms, valid)
    window[lo[:, 0] == 0, 0] = 1.0  # P(X >= 0), as in _tails
    return window, log_terms[:, 0] >= shift[:, 0]


@functools.lru_cache(maxsize=256)
def _shared_tail(n: int, p: float) -> np.ndarray:
    # Read-only: every binom_sf call for this (n, p) reads this one table.
    # Bounded, so it holds at most 256 tables of the largest n seen.
    # binom_sf has checked n and p.
    tail = _tails(n, p)
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


def _log_hypergeom(r1, c1, c2, width):
    """log P(X = x | margins) for x = 0, ..., width - 1: one row per table.

    With f = log m!, the log probability is
    f[c1] - f[x] - f[c1 - x] + f[c2] - f[r1 - x] - f[c2 - r1 + x]
    - (f[c1 + c2] - f[r1] - f[c1 + c2 - r1]), summed left to right. Each
    term that moves with x reads a run of f, taken as a window of
    _log_factorials; a step past a table's support may read the zero
    padding, and no sum reads it.
    """
    rising, falling, top = _log_factorials(int((c1 + c2).max(initial=0)))
    down = _windows(falling, width)
    out = rising[c1][:, None] - rising[:width]
    out -= down[top - c1]
    out += rising[c2][:, None]
    out -= down[top - r1]
    out -= _windows(rising, width)[c2 - r1]
    total = c1 + c2
    out -= ((rising[total] - rising[r1]) - rising[total - r1])[:, None]
    return out


def odds_ratio(a, b, c, d):
    """Sample odds ratio (a*d)/(b*c) of count arrays, elementwise.

    Where any cell is zero, 0.5 is added to every cell first
    (Haldane-Anscombe), so the ratio stays finite and positive.
    """
    # with no zero cell the shift is 0.0, and a float product of integers
    # is the correctly rounded exact product, so the plain ratio is the
    # same double as an integer product followed by true division
    shift = 0.5 * (np.minimum(np.minimum(a, b), np.minimum(c, d)) == 0)
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

    # canonical orientation: simultaneous row+column swap leaves both the
    # odds ratio and the p-value invariant, so pick one representative,
    # (d, c, b, a) < (a, b, c, d) in tuple order, and the symmetry holds
    # exactly in floats too. The swap reverses the margins with the cells.
    a, b, c, d = flat.T
    swap = (d < a) | ((d == a) & (c < b))
    oriented = np.where(swap[:, None], flat[:, ::-1], flat)
    margins = oriented @ _MARGINS
    if not margins.all():
        i = int(margins.min(axis=1).argmin())
        raise DegenerateTable(f"zero margin in {flat[i].reshape(2, 2).tolist()}")
    a, b, c, d = oriented.T
    odds = odds_ratio(a, b, c, d)

    # the orientation leaves a <= d, so each table's support is
    # 0..min(r1, c1), padded to the widest one; padded cells are left out
    r1, c1, c2 = margins[:, :3].T
    span = np.minimum(r1, c1)
    width = int(span.max(initial=0)) + 1
    log_probs = _log_hypergeom(r1, c1, c2, width)
    log_obs = log_probs[np.arange(a.size), a][:, None]
    include = (np.arange(width) <= span[:, None]) & (log_probs <= log_obs + _LOG1P_TOL)
    kept = np.where(include, log_probs, -np.inf)
    peak = kept.max(axis=1, keepdims=True)
    # left-out cells are exp(-inf), exact zeros in a left-to-right running
    # sum, so a table's p-value does not depend on its stack or on the
    # stack's width
    terms = np.exp(np.subtract(kept, peak, out=kept), out=kept)
    total = np.cumsum(terms, axis=1, out=terms)[:, -1]
    p = np.minimum(1.0, np.exp(peak[:, 0] + np.log(total)))
    if single:
        return TestResult(statistic=float(odds[0]), p_value=float(p[0]))
    return TestResult(statistic=odds, p_value=p)


def sample_mean(x) -> float:
    """x.mean() of a 1-D float64 array, as a float: the same pairwise sum
    (np.add.reduce) and division, without mean()'s dispatch."""
    return float(np.add.reduce(x) / x.size)


def _sample_moments(x):
    """(mean, var(ddof=1)) of a 1-D float64 array of at least 2 values, as
    floats; the variance sums the squared deviations as x.var does, so
    both have the same bits as numpy's."""
    mean = sample_mean(x)
    deviations = x - mean
    return mean, float(np.add.reduce(deviations * deviations) / (x.size - 1))


def welch_t(xs, ys) -> TestResult:
    """Two-tailed Welch t-test for samples with unequal variances.

    Uses the Welch-Satterthwaite degrees of freedom and the regularized
    incomplete beta function for the tail probability (_t_two_tailed).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2 or ys.size < 2:
        raise InsufficientSample("both samples need at least 2 values")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InvalidArguments("samples must be finite")
    mx, vx = _sample_moments(xs)
    my, vy = _sample_moments(ys)
    nx, ny = xs.size, ys.size
    a = vx / nx
    b = vy / ny
    if a + b == 0.0:
        # covers both exact zero variances and a standard error that
        # underflows to zero, where the statistic is equally undefined
        raise ZeroVarianceBoth("t statistic undefined when both variances vanish")
    t = (mx - my) / math.sqrt(a + b)
    # Welch-Satterthwaite in ratio form, immune to under/overflow of a**2;
    # both ratios computed the same way keeps swapped samples bit-symmetric
    ra = a / (a + b)
    rb = b / (a + b)
    df = 1.0 / (ra * ra / (nx - 1) + rb * rb / (ny - 1))
    return TestResult(statistic=t, p_value=min(1.0, _t_two_tailed(t, df)))


def _t_two_tailed(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df > 0: I_x(df/2, 1/2), x = df / (df + t^2).

    The continued fraction converges fast only below x = (a + 1)/(a + b + 2),
    so above it the tail comes from I_x(a, b) = 1 - I_y(b, a), y = 1 - x.
    The value is I_x at the double x, so it tracks scipy.special.betainc(a, b, x).
    """
    tt = t * t
    x = df / (df + tt)
    if x == 0.0 or x == 1.0:
        return x
    y = 1.0 - x
    a = 0.5 * df
    log_front = (
        a * math.log(x) + 0.5 * math.log(y)
        + math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5)
    )
    if x < (a + 1.0) / (a + 2.5):
        return math.exp(log_front) * _beta_cf(a, 0.5, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(0.5, a, y) / 0.5


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (Press et al., Numerical Recipes,
    3rd ed., 6.4), evaluated by the modified Lentz method.

    Term k is num * x / ((a + k - 1)(a + k)), with num = m(b - m) for k = 2m
    and -(a + m)(a + b + m) for k = 2m + 1; the first term sets h directly.
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for k in range(2, _CF_MAX_TERMS):
        m = k // 2
        num = -(a + m) * (a + b + m) if k % 2 else m * (b - m)
        coef = num * x / ((a + k - 1.0) * (a + k))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _CF_TINY else _CF_TINY
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            break
    return h


def bh_fdr(pvals) -> list:
    """Benjamini-Hochberg step-up adjustment, returned in input order."""
    pvals = list(pvals)
    for p in pvals:
        if not (0.0 <= p <= 1.0):
            raise InvalidArguments(f"p-value out of [0, 1]: {p}")
    m = len(pvals)
    if m == 0:
        return []
    values = np.asarray(pvals, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    candidate = np.minimum(1.0, ranked * m / np.arange(1, m + 1))
    # at the top rank the scale factor is exactly 1: using the raw p
    # keeps adjusted >= raw, which p*m/m can round away from
    candidate[-1] = ranked[-1]
    adjusted = np.empty(m)
    adjusted[order] = np.minimum.accumulate(candidate[::-1])[::-1]
    return adjusted.tolist()
