"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and avoids the library's code
paths: plain loops, exact rational arithmetic, direct summation, and
quadrature. If the fast implementations and these disagree, the fast
implementations are wrong.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from fill.cohort import Label
from fill.stats import binom_tail


# --- cohort files, one cell at a time ---

def naive_write_cohort(cohort, path):
    """Write a cohort file with one str(int) per binary cell and one repr per continuous cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cohort.schema.header()) + "\n")
        for i, rid in enumerate(cohort.ids):
            cells = [rid, cohort.labels[i].value]
            cells.extend(str(int(v)) for v in cohort.binary[i])
            cells.extend(repr(float(v)) for v in cohort.continuous[i])
            fh.write(",".join(cells) + "\n")


# --- distances, naive double loops ---

def naive_jaccard(a, b):
    both = 0
    mismatch = 0
    for x, y in zip(a, b):
        if x == 1 and y == 1:
            both += 1
        elif x != y:
            mismatch += 1
    denom = both + mismatch
    if denom == 0:
        return 0.0
    return float(mismatch) / float(denom)


def naive_manhattan(a, b):
    return float(sum(1 for x, y in zip(a, b) if x != y))


def naive_gower(a_bits, b_bits, a_cont, b_cont, ranges):
    mismatch = 0
    union = 0
    for x, y in zip(a_bits, b_bits):
        if x == 1 and y == 1:
            union += 1
        elif x != y:
            mismatch += 1
            union += 1
    score = float(mismatch)
    weight = float(union)
    for x, y, (lo, hi) in zip(a_cont, b_cont, ranges):
        span = hi - lo
        if span > 0:
            score += abs(float(x) - float(y)) / span
            weight += 1.0
    if weight == 0.0:
        return 0.0
    return score / weight


# --- binomial tail ---

def exact_binom_sf(k, n, p_float) -> Fraction:
    """Tail sum with exact rational arithmetic on the exact float value."""
    p = Fraction(p_float)
    q = 1 - p
    total = Fraction(0)
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * q ** (n - j)
    return total


def direct_binom_sf(k, n, p) -> float:
    """Plain float summation; independent of any log-space path."""
    total = 0.0
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
    return min(1.0, total)


def full_table_k_star(sizes, p0, thresholds):
    """k*[n, t] for the given sizes, counted over each whole binom_tail table.

    The count of entries >= T in the full table of every size, one size
    and one threshold at a time: the k* the grid read before its tables
    were windowed. Indexed like tune._decision_thresholds.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    k_star = np.zeros((int(sizes.max()) + 1, len(thresholds)), dtype=np.int64)
    for n in sizes.tolist():
        tail = binom_tail(n, p0)
        for t, threshold in enumerate(thresholds):
            k_star[n, t] = np.count_nonzero(tail >= threshold)
    return k_star


# --- Fisher exact, exact integer enumeration ---

def exact_fisher_p(a, b, c, d) -> Fraction:
    """Two-sided p by enumerating hypergeometric numerators exactly."""
    r1, c1, c2 = a + b, a + c, b + d
    n = a + b + c + d
    obs = math.comb(c1, a) * math.comb(c2, r1 - a)
    total = 0
    for x in range(max(0, r1 - c2), min(r1, c1) + 1):
        num = math.comb(c1, x) * math.comb(c2, r1 - x)
        if num <= obs:
            total += num
    return Fraction(total, math.comb(n, r1))


# --- Welch t tail via quadrature of a hand-written density ---

def t_density(x, df):
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - ((df + 1) / 2.0) * math.log1p(x * x / df))


def quad_t_two_tailed(t, df) -> float:
    tail, _ = quad(t_density, abs(t), np.inf, args=(df,), epsabs=1e-13, epsrel=1e-12)
    return min(1.0, 2.0 * tail)


def welch_df(xs, ys):
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    nx, ny = len(xs), len(ys)
    mx = sum(xs) / nx
    my = sum(ys) / ny
    vx = sum((v - mx) ** 2 for v in xs) / (nx - 1)
    vy = sum((v - my) ** 2 for v in ys) / (ny - 1)
    a, b = vx / nx, vy / ny
    t = (mx - my) / math.sqrt(a + b)
    df = (a + b) ** 2 / (a * a / (nx - 1) + b * b / (ny - 1))
    return t, df


# --- concordance, all pairs ---

def naive_auc(scores, labels):
    pos = [s for s, lab in zip(scores, labels) if lab is Label.POS]
    neg = [s for s, lab in zip(scores, labels) if lab is not Label.POS]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_c_statistic(scores, labels):
    """Mann-Whitney U / (n_pos n_neg), midranks walked over sorted ties."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        i = j + 1
    is_pos = [lab is Label.POS for lab in labels]
    n_pos = sum(is_pos)
    rank_sum = float(np.sum([r for r, pos in zip(ranks, is_pos) if pos]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (len(scores) - n_pos))


def loop_optimal_cutoff(scores, labels):
    """The least (errors, |cutoff - 0.5|, cutoff) over every candidate."""
    best = None
    for cand in sorted(set(float(s) for s in scores) | {0.5}):
        errors = sum(1 for s, lab in zip(scores, labels) if (s >= cand) != (lab is Label.POS))
        key = (errors, abs(cand - 0.5), cand)
        if best is None or key < best:
            best = key
    return best[2]


# --- multiple testing, step-up loop ---

def loop_bh_fdr(pvals):
    """Benjamini-Hochberg walked from the top rank down, one p at a time."""
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        candidate = pvals[i] if rank == m else min(1.0, pvals[i] * m / rank)
        running = min(running, candidate)
        adjusted[i] = running
    return adjusted


# --- brute-force leave-one-out over a cohort ---

def _naive_distance(cohort, metric_name, i, j):
    a_bits = cohort.binary[i].tolist()
    b_bits = cohort.binary[j].tolist()
    if metric_name == "jaccard":
        return naive_jaccard(a_bits, b_bits)
    if metric_name == "manhattan":
        return naive_manhattan(a_bits, b_bits)
    return naive_gower(
        a_bits,
        b_bits,
        cohort.continuous[i].tolist(),
        cohort.continuous[j].tolist(),
        cohort.continuous_ranges,
    )


def brute_force_cell(cohort, metric_name, radius, threshold, pair_cache=None):
    """LOO tp/fp/precision/yield for one (S, T) computed from scratch."""
    n = len(cohort)
    labels = cohort.labels
    labeled_idx = [i for i in range(n) if labels[i] is not Label.UNKNOWN]
    pos_count = sum(1 for i in labeled_idx if labels[i] is Label.POS)
    p0 = pos_count / len(labeled_idx)

    def dist(i, j):
        if pair_cache is None:
            return _naive_distance(cohort, metric_name, i, j)
        key = (i, j) if i < j else (j, i)
        if key not in pair_cache:
            pair_cache[key] = _naive_distance(cohort, metric_name, i, j)
        return pair_cache[key]

    def decide(i):
        k = 0
        m = 0
        for j in labeled_idx:
            if j == i:
                continue
            if dist(i, j) <= radius:
                m += 1
                if labels[j] is Label.POS:
                    k += 1
        p = direct_binom_sf(k, m, p0)
        return p < threshold

    tp = fp = 0
    for i in labeled_idx:
        if decide(i):
            if labels[i] is Label.POS:
                tp += 1
            else:
                fp += 1
    newly = sum(
        1 for i in range(n) if labels[i] is Label.UNKNOWN and decide(i)
    )
    precision = tp / (tp + fp) if tp + fp > 0 else None
    return tp, fp, precision, newly / len(labeled_idx)


def brute_force_winner(cells, criterion_name, bound):
    """Independent re-selection; cells are (S, T, tp, fp, precision, yld)."""
    feasible = []
    for S, T, tp, fp, precision, yld in cells:
        if criterion_name == "a":
            if tp >= bound:
                feasible.append((S, T, tp, fp, precision, yld))
        else:
            if precision is not None and precision >= bound:
                feasible.append((S, T, tp, fp, precision, yld))
    if not feasible:
        return None
    def key(cell):
        S, T, tp, fp, precision, yld = cell
        prec = -1.0 if precision is None else precision
        if criterion_name == "a":
            return (-prec, -tp, S, T)
        return (-tp, -prec, S, T)
    return min(feasible, key=key)
