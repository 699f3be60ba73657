"""Independent oracles used to verify the statistics engine and the report.

Deliberately built on different machinery than the engine: numpy/scipy
ranking, brute-force enumeration, permutation resampling, the no-ties
Spearman shortcut, and full scans of the score table for every report
aggregate.  Nothing here imports from blindeval.stats or blindeval.report.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.stats import rankdata

from blindeval.scoretable import CSV_COLUMNS, ScoreRow, ScoreTable


def brute_force_ranks(values):
    """Midranks by sorting indices and averaging positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for t in range(i, j + 1):
            ranks[order[t]] = sum(range(i + 1, j + 2)) / (j - i + 1)
        i = j + 1
    return ranks


def spearman_rho_shortcut(x, y):
    """No-ties shortcut 1 - 6*sum(d^2)/(n(n^2-1)) over brute-force ranks."""
    n = len(x)
    if len(set(x)) != n or len(set(y)) != n:
        raise ValueError("shortcut formula requires untied inputs")
    d2 = sum((a - b) ** 2 for a, b in zip(brute_force_ranks(x), brute_force_ranks(y)))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def rank_then_pearson(x, y):
    """Spearman as numpy Pearson over scipy midranks."""
    rx = rankdata(x)
    ry = rankdata(y)
    return float(np.corrcoef(rx, ry)[0, 1])


def wilcoxon_exact_two_sided(diffs):
    """Full 2^n enumeration of sign assignments over ranked |d|.

    Returns the two-sided p for the observed signs: the probability,
    under random signs, that min(T+, T-) is at most the observed min.
    """
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    ranks = rankdata([abs(d) for d in diffs])
    total = float(ranks.sum())
    observed_t_plus = float(sum(r for r, d in zip(ranks, diffs) if d > 0))
    observed_min = min(observed_t_plus, total - observed_t_plus)

    patterns = np.arange(2 ** n, dtype=np.int64)
    signs = (patterns[:, None] >> np.arange(n)) & 1      # 1 = positive
    t_plus = signs @ np.asarray(ranks)
    mins = np.minimum(t_plus, total - t_plus)
    favourable = int((mins <= observed_min + 1e-12).sum())
    return favourable / 2 ** n


def friedman_chi2(matrix):
    """Tie-corrected Friedman statistic, recomputed independently."""
    matrix = np.asarray(matrix, dtype=float)
    n, k = matrix.shape
    ranks = rankdata(matrix, axis=1)
    col_sums = ranks.sum(axis=0)
    raw = 12.0 / (n * k * (k + 1)) * (col_sums ** 2).sum() - 3.0 * n * (k + 1)
    ties = 0.0
    for row in matrix:
        _, counts = np.unique(row, return_counts=True)
        ties += (counts ** 3 - counts).sum()
    correction = 1.0 - ties / (n * k * (k * k - 1))
    return raw / correction


def friedman_permutation_p(matrix, n_perms=20_000, seed=0, convention="exclusive"):
    """Within-block shuffle oracle for the Friedman test.

    The permuted statistic is discrete; at n = 8..12 blocks the atom
    P(T = t_obs) can carry 1-2% of mass.  The continuous chi-square tail
    the engine reports corresponds to the atom-excluded tail, so the
    default convention is P(T > t_obs); "inclusive" gives the classical
    test convention P(T >= t_obs), which exceeds the exclusive value by
    exactly the atom.
    """
    matrix = np.asarray(matrix, dtype=float)
    n, k = matrix.shape
    observed = friedman_chi2(matrix)
    ranks = rankdata(matrix, axis=1)
    # per-block tie structure is invariant under within-block permutation,
    # so permuting the midrank rows is equivalent to permuting the values
    rng = np.random.default_rng(seed)
    tiled = np.broadcast_to(ranks, (n_perms, n, k))
    permuted = rng.permuted(tiled, axis=2)
    col_sums = permuted.sum(axis=1)
    raw = 12.0 / (n * k * (k + 1)) * (col_sums ** 2).sum(axis=1) - 3.0 * n * (k + 1)
    ties = 0.0
    for row in matrix:
        _, counts = np.unique(row, return_counts=True)
        ties += (counts ** 3 - counts).sum()
    correction = 1.0 - ties / (n * k * (k * k - 1))
    stats = raw / correction
    if convention == "inclusive":
        return float((stats >= observed - 1e-9).mean())
    return float((stats > observed + 1e-9).mean())


def kendall_w_oracle(rows):
    """Tie-corrected W recomputed with scipy ranks and numpy sums."""
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    ranks = rankdata(rows, axis=1)
    rank_sums = ranks.sum(axis=0)
    s2 = float((rank_sums ** 2).sum())
    ties = 0.0
    for row in rows:
        _, counts = np.unique(row, return_counts=True)
        ties += (counts ** 3 - counts).sum()
    return (12 * s2 - 3 * m * m * n * (n + 1) ** 2) / (m * m * n * (n * n - 1) - m * ties)


def table_from_csv(text):
    """A score table read back from ``scoretable.table_to_csv`` output."""
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == CSV_COLUMNS
    rows = [ScoreRow(c, role, m, cand, dim, int(score), int(rep))
            for c, role, m, cand, dim, score, rep in reader]
    return ScoreTable(rows)


def case_table_full_scan(table, case_id):
    """(candidate, slot, mean, n) per candidate of one case, in candidate
    order, scanning every row of the table for each candidate."""
    candidates = sorted({r.candidate_id for r in table if r.case_id == case_id})
    out = []
    for cand in candidates:
        scores = [r.score for r in table if r.case_id == case_id and r.candidate_id == cand]
        out.append((cand, table.slot_of[case_id, cand], sum(scores) / len(scores), len(scores)))
    return out


def radar_full_scan(table, dimensions):
    """(dimension, slot, mean, min, max, n) per dimension (in the given
    order) and treatment slot (sorted), scanning every row for each pair."""
    slots = sorted({table.slot_of[r.case_id, r.candidate_id] for r in table})
    out = []
    for dimension in dimensions:
        for slot in slots:
            scores = [r.score for r in table
                      if r.dimension == dimension and table.slot_of[r.case_id, r.candidate_id] == slot]
            if scores:
                out.append((dimension, slot, sum(scores) / len(scores),
                            min(scores), max(scores), len(scores)))
    return out


def battery_blocks_full_scan(table, blocking):
    """(slots, rows, excluded) of the version-difference battery: for each
    block (sorted) whose every treatment slot is scored, the mean per slot
    of the repeat-collapsed cells, scanning every row of the table for each
    block and slot."""
    fields = {"case": "case_id", "role": "role_id", "model": "model_id", "dimension": "dimension"}

    def block_of(r):
        return tuple(getattr(r, fields[b]) for b in blocking)

    slots = sorted({table.slot_of[r.case_id, r.candidate_id] for r in table})
    rows, excluded = [], 0
    for block in sorted({block_of(r) for r in table}):
        row = []
        for slot in slots:
            cells = {}
            for r in table:
                if block_of(r) == block and table.slot_of[r.case_id, r.candidate_id] == slot:
                    cell = (r.case_id, r.role_id, r.model_id, r.candidate_id, r.dimension)
                    cells.setdefault(cell, []).append(r.score)
            if not cells:
                break
            means = [sum(v) / len(v) for v in cells.values()]
            row.append(sum(means) / len(means))
        if len(row) == len(slots):
            rows.append(row)
        else:
            excluded += 1
    return slots, rows, excluded
