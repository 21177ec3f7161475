"""Independent check of fill's outputs, for the benchmark's wrong_outputs.

Nothing here calls fill. Cohorts are re-read from the CSV files the
benchmark wrote, distances come from the documented per-pair formulas,
binomial tails from scipy.stats.binom.sf, and the tune winner is
re-selected from the written grid by criterion B's rule. Every failed
comparison adds one to the count and one line to the notes.
"""

import csv
import json

import numpy as np
from scipy.stats import binom

P_REL_TOL = 1e-9   # p-values agree with scipy to this relative error
DIST_TOL = 1e-12   # distance cells agree to this absolute error
# Below this a float64 tail is subnormal and has lost its relative precision.
P_TINY = 1e-290
PREVALENCE = (0.01, 0.99)


class CohortData:
    """A cohort CSV read with the csv module, prevalence-filtered here."""

    def __init__(self, path, n_continuous=0, prevalence_filter=False):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        n_bin = len(header) - 2 - n_continuous
        self.ids = [r[0] for r in body]
        labels = [r[1] for r in body]
        binary = np.array([[int(v) for v in r[2:2 + n_bin]] for r in body], dtype=np.uint8)
        binary_names = header[2:2 + n_bin]
        self.continuous = np.array(
            [[float(v) for v in r[2 + n_bin:]] for r in body], dtype=np.float64
        ).reshape(len(body), n_continuous)
        self.labeled = np.array([lab != "UNKNOWN" for lab in labels])
        self.pos = np.array([lab == "POS" for lab in labels])
        if prevalence_filter:
            share = binary[self.labeled].sum(axis=0) / int(self.labeled.sum())
            keep = (share >= PREVALENCE[0]) & (share <= PREVALENCE[1])
            binary = binary[:, keep]
            binary_names = [n for n, k in zip(binary_names, keep) if k]
        self.binary = binary.astype(bool)
        self.binary_names = binary_names
        self.spans = [float(c.max() - c.min()) for c in self.continuous.T]
        self.base_rate = int(self.pos.sum()) / int(self.labeled.sum())
        self.index = {rid: i for i, rid in enumerate(self.ids)}
        # one Python int per record, bit j set iff binary feature j is present
        self._masks = [int("".join("1" if v else "0" for v in row) or "0", 2) for row in self.binary]

    def __len__(self):
        return len(self.ids)

    def direct_row(self, i):
        """Distances from record i by the per-pair formula, one pair at a time.

        Binary features count asymmetrically (0/0 pairs ignored); each
        continuous feature with a non-zero range adds |x - y| / range to the
        score and 1 to the weight; a pair of weight 0 is at distance 0.
        """
        a = self._masks[i]
        row = []
        for j, b in enumerate(self._masks):
            mismatch = (a ^ b).bit_count()
            score = float(mismatch)
            weight = float(mismatch + (a & b).bit_count())
            for col, span in zip(self.continuous.T, self.spans):
                if span > 0:
                    score += abs(float(col[i]) - float(col[j])) / span
                    weight += 1.0
            row.append(score / weight if weight else 0.0)
        return np.array(row)

    def row(self, i):
        """The same distances as direct_row, one vectorised row at a time."""
        own = self.binary[i]
        mismatch = np.count_nonzero(self.binary != own, axis=1)
        score = mismatch.astype(np.float64)
        weight = (mismatch + np.count_nonzero(self.binary & own, axis=1)).astype(np.float64)
        for col, span in zip(self.continuous.T, self.spans):
            if span > 0:
                score = score + np.abs(col - col[i]) / span
                weight = weight + 1.0
        return np.where(weight == 0.0, 0.0, score / np.where(weight == 0.0, 1.0, weight))

    def counts(self, i, radius):
        """(n, k): labeled and POS records within radius of i, i excluded."""
        within = self.row(i) <= radius
        within[i] = False
        return int((within & self.labeled).sum()), int((within & self.pos).sum())


def tail(k, n, p0):
    """P(X >= k) for X ~ Binomial(n, p0), elementwise."""
    return binom.sf(np.asarray(k) - 1, np.asarray(n), p0)


def p_agrees(got, want):
    scale = max(abs(got), abs(want))
    return scale < P_TINY or abs(got - want) <= P_REL_TOL * scale


def near_threshold(p, threshold):
    return abs(p - threshold) <= P_REL_TOL * threshold


class Checker:
    """Counts outputs that disagree with the independent recomputation."""

    def __init__(self):
        self.wrong = 0
        self.notes = []
        self.checked = 0

    def expect(self, ok, note):
        self.checked += 1
        if not ok:
            self.wrong += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    def features(self, data, names):
        self.expect(list(names) == data.binary_names, "prevalence filter kept other features")

    def rows(self, data, sample, fill_rows=None):
        """Sampled rows: direct formula vs vectorised rows vs fill's matrix."""
        for n, i in enumerate(sample):
            direct = data.direct_row(i)
            self.expect(np.allclose(direct, data.row(i), rtol=0, atol=DIST_TOL),
                        f"row {data.ids[i]}: vectorised distances differ from direct formula")
            if fill_rows is not None:
                self.expect(np.allclose(direct, fill_rows[n], rtol=0, atol=DIST_TOL),
                            f"row {data.ids[i]}: fill distances differ from direct formula")

    def imputations(self, data, results, radius, threshold):
        """results: (record_id, n, k, p_value, decision) for every UNKNOWN record."""
        unknown = [rid for rid, lab in zip(data.ids, data.labeled) if not lab]
        self.expect([r[0] for r in results] == unknown, "imputed records are not the UNKNOWN records in order")
        want = tail([r[2] for r in results], [r[1] for r in results], data.base_rate)
        for (rid, n, k, p, decision), p_ref in zip(results, want):
            i = data.index.get(rid)
            if i is None:
                continue
            self.expect((n, k) == data.counts(i, radius), f"{rid}: neighbourhood (n, k) = {(n, k)} is wrong")
            self.expect(p_agrees(p, float(p_ref)), f"{rid}: p = {p!r}, scipy gives {float(p_ref)!r}")
            if not near_threshold(p, threshold):
                self.expect(decision == ("POS" if p < threshold else "UNCLASSIFIED"),
                            f"{rid}: decision {decision} at p = {p!r}, T = {threshold!r}")

    def winner(self, data, grid, winner, min_precision):
        """grid: (S, T, tp, fp) cells; winner: (S, T, tp, fp) as reported."""
        best = None
        for s, t, tp, fp in grid:
            if tp + fp == 0 or tp / (tp + fp) < min_precision:
                continue
            key = (tp, tp / (tp + fp), -s, -t)
            if best is None or key > best[0]:
                best = (key, (s, t, tp, fp))
        self.expect(best is not None and best[1] == tuple(winner),
                    f"winner {winner} is not the criterion's choice {best and best[1]}")
        self.loo(data, *winner)

    def loo(self, data, radius, threshold, tp, fp):
        """Leave-one-out tp/fp at (S, T): every record, itself excluded."""
        counts = np.array([data.counts(i, radius) for i in range(len(data))]).reshape(-1, 2)
        p = tail(counts[:, 1], counts[:, 0], data.base_rate)
        decided = p < threshold
        ambiguous = int(np.count_nonzero(np.abs(p - threshold) <= P_REL_TOL * threshold))
        want_tp = int((decided & data.pos).sum())
        want_fp = int((decided & data.labeled & ~data.pos).sum())
        self.expect(abs(tp - want_tp) + abs(fp - want_fp) <= ambiguous,
                    f"winner LOO tp/fp = {tp}/{fp}, recomputed {want_tp}/{want_fp}")

    def explanations(self, data, explained, radius):
        """explained: (record_id, neighbor_count) pairs."""
        for rid, n in explained:
            self.expect(n == data.counts(data.index[rid], radius)[0],
                        f"{rid}: explanation has {n} neighbours")


def read_cli_outputs(files):
    """(grid, winner, min_precision, imputations, n_pos) from `fill tune`/`fill impute` files."""
    report = json.loads(files["grid_report.json"])
    table = list(csv.DictReader(files["grid_table.csv"].decode().splitlines()))
    grid = [(float(r["S"]), float(r["T"]), int(r["tp"]), int(r["fp"])) for r in table]
    w = report["winner"]
    winner = (w["radius"], w["p_threshold"], w["tp"], w["fp"])
    rows = list(csv.DictReader(files["imputations.csv"].decode().splitlines()))
    results = [(r["record_id"], int(r["n"]), int(r["k"]), float(r["p_value"]), r["decision"]) for r in rows]
    summary = json.loads(files["impute_summary.json"])
    return grid, winner, report["criterion"]["min_precision"], results, summary["n_imputed_pos"]


def check_cli(checker, data, files, sample):
    grid, winner, min_precision, results, n_pos = read_cli_outputs(files)
    checker.rows(data, sample)
    checker.winner(data, grid, winner, min_precision)
    checker.imputations(data, results, winner[0], winner[1])
    checker.expect(n_pos == sum(r[4] == "POS" for r in results), "impute summary miscounts POS records")
