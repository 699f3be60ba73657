"""Independent oracles used to verify the statistics engine, the report,
the run-directory writer and the prose parser.

Deliberately built on different machinery than the engine: numpy/scipy
ranking, exact rational arithmetic, brute-force enumeration, permutation
resampling, the no-ties Spearman shortcut, full scans of the score table
for every report aggregate and every statistics matrix, the pivots as they
were when they kept a list of scores per cell and as they were when they
kept sums per unit, Kendall's W as it was when it held every judge's ranks
and the cross-model pairing as it was when it pivoted, the concept block the
golden questionnaire copy was written for, the two-step JSON writer
(``to_doc`` then json's own pretty-printer), the tree comparison as it was
when it held both trees whole, the score parser as it was before its lines
were prefiltered, and the heading splitter that reads a judge's reply as
the six questionnaire blocks.  Nothing here imports from blindeval.report
or blindeval.store, and from blindeval.stats only its result type.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import operator
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import rankdata

from blindeval.errors import DegenerateInputError, ParseError
from blindeval.parse import FencedBlockMissing, ParsedEvaluation
from blindeval.persona import BLOCKS
from blindeval.rundir import snapshot
from blindeval.scoretable import CSV_COLUMNS, ScoreRow, ScoreTable
from blindeval.special import chi2_sf
from blindeval.stats import TestResult

#: Block-1 concept list of the canonical questionnaire, as the golden copy
#: (``data/questionnaire_golden.txt``) carries it, including its original
#: separator idiosyncrasies (trailing slashes, final question mark).
DEMO_CONCEPT_BLOCK = (
    "- the nature of term 虚邪 (contra-seasonal pathogenic qi)/\n"
    "- the functional relationships among the five organs across the four seasons/\n"
    "- the nature of 标本中气 (root/ branch/ mediating qi of the meridians)\n"
    "- the patterns of interaction between the qi of Heaven and Earth and the related "
    "mechanisms of disease?"
)


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


def friedman_chi2_exact(matrix):
    """Tie-corrected Friedman statistic as an exact Fraction: midranks
    counted from each block's values, then the classic formula."""
    n, k = len(matrix), len(matrix[0])
    col_sums = [Fraction(0)] * k
    ties = 0
    for row in matrix:
        for j, v in enumerate(row):
            below = sum(u < v for u in row)
            equal = sum(u == v for u in row)
            col_sums[j] += Fraction(2 * below + equal + 1, 2)
        ties += sum(t ** 3 - t for t in Counter(row).values())
    raw = Fraction(12, n * k * (k + 1)) * sum(r * r for r in col_sums) - 3 * n * (k + 1)
    return raw / (1 - Fraction(ties, n * k * (k * k - 1)))


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


def csv_text(header, rows):
    """CSV text of ``header`` then ``rows`` with LF line ends, built in
    memory by ``csv.writer``: what ``store.write_csv`` should stream."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def table_from_csv(text):
    """A score table read back from the text ``scoretable.save_table_csv`` writes."""
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
    block."""
    fields = {"case": "case_id", "role": "role_id", "model": "model_id", "dimension": "dimension"}

    def block_of(r):
        return tuple(getattr(r, fields[b]) for b in blocking)

    slots = sorted({table.slot_of[r.case_id, r.candidate_id] for r in table})
    rows, excluded = [], 0
    for block in sorted({block_of(r) for r in table}):
        in_block = [r for r in table if block_of(r) == block]
        row = []
        for slot in slots:
            cells = {}
            for r in in_block:
                if table.slot_of[r.case_id, r.candidate_id] == slot:
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


def cross_model_pairs_full_scan(table):
    """(keys, x, y, excluded) of cross-model agreement: for each (case,
    role, candidate, dimension) key (sorted) scored by both models, each
    model's mean over repeats, scanning every row of the table for each key
    and model; ``excluded`` counts the keys that only one model scored."""
    model_a, model_b = sorted({r.model_id for r in table})

    def key_of(r):
        return (r.case_id, r.role_id, r.candidate_id, r.dimension)

    keys, x, y, excluded = [], [], [], 0
    for key in sorted({key_of(r) for r in table}):
        means = []
        for model in (model_a, model_b):
            scores = [r.score for r in table if key_of(r) == key and r.model_id == model]
            if scores:
                means.append(sum(scores) / len(scores))
        if len(means) == 2:
            keys.append(key)
            x.append(means[0])
            y.append(means[1])
        else:
            excluded += 1
    return keys, x, y, excluded


def cross_role_means_full_scan(table, model_id):
    """(roles, objects, matrix[role][object], excluded) of cross-role
    agreement for one model: for each (case, candidate) object (sorted)
    that every role of the model scored, each role's mean over dimensions
    of the repeat-collapsed cells, scanning every row of the table for each
    object and role; ``excluded`` counts the objects some role left out."""
    rows = [r for r in table if r.model_id == model_id]
    roles = sorted({r.role_id for r in rows})
    objects, columns, excluded = [], [], 0
    for obj in sorted({(r.case_id, r.candidate_id) for r in rows}):
        column = []
        for role in roles:
            cells = {}
            for r in rows:
                if (r.case_id, r.candidate_id) == obj and r.role_id == role:
                    cells.setdefault(r.dimension, []).append(r.score)
            if cells:
                means = [sum(v) / len(v) for v in cells.values()]
                column.append(sum(means) / len(means))
        if len(column) == len(roles):
            objects.append(obj)
            columns.append(column)
        else:
            excluded += 1
    matrix = [[column[i] for column in columns] for i in range(len(roles))]
    return roles, objects, matrix, excluded


def complete_units_by_lists(cells, columns):
    """``stats.complete_units`` as it was before it kept running sums: a
    dict of per-column score lists for each unit, each cell ``sum(v) / len(v)``."""
    grid: dict = {}
    for unit, column, score in cells:
        grid.setdefault(unit, {}).setdefault(column, []).append(score)
    units, rows = [], []
    for unit in sorted(grid):
        try:
            rows.append([sum(v) / len(v) for v in map(grid[unit].__getitem__, columns)])
        except KeyError:    # a column the unit was not scored in
            continue
        units.append(unit)
    return units, rows, len(grid) - len(units)


def complete_units_per_unit_sums(cells, columns):
    """``stats.complete_units`` as it was before its running sums became two
    flat lists: one list of column sums and counts per unit, each cell its
    sum (from 0) over its count, so a cell of one score is a new float."""
    slot = {column: 2 * j for j, column in enumerate(columns)}
    grid: dict = {}
    for unit, column, score in cells:
        acc = grid.get(unit) or grid.setdefault(unit, [0] * (2 * len(columns) + 2))
        j = slot.get(column, -2)    # an unlisted column: the spare last pair
        acc[j] += score
        acc[j + 1] += 1
    units, rows = [], []
    for unit in sorted(grid):
        acc = grid[unit]
        counts = acc[1:-2:2]
        if all(counts):
            units.append(unit)
            rows.append(list(map(operator.truediv, acc[:-2:2], counts)))
    return units, rows, len(grid) - len(units)


def cross_model_pairs_by_units(table):
    """(x, y, excluded) of cross-model agreement as it was paired before it
    matched cells run by run: ``complete_units_per_unit_sums`` over (case,
    role, candidate, dimension) units with the two models as columns."""
    pick = operator.itemgetter(0, 1, 3, 4)
    _, rows, excluded = complete_units_per_unit_sums(
        ((pick(cell), cell[2], score) for cell, score in table.collapsed()), table.model_ids())
    return [row[0] for row in rows], [row[1] for row in rows], excluded


def kendall_w_ranked_matrix(ratings):
    """``stats.kendall_w`` as it was before it added rank sums one judge at a
    time: every judge's ranks (scipy's midranks) held at once, then summed
    object by object, in the same float arithmetic as the engine."""
    m, n = len(ratings), len(ratings[0])
    ranked = [rankdata(row).tolist() for row in ratings]
    rank_sums = [sum(ranked[j][i] for j in range(m)) for i in range(n)]
    s2 = sum(r * r for r in rank_sums)
    ties = sum(float(sum(t ** 3 - t for t in Counter(row).values() if t > 1)) for row in ratings)
    denom = m * m * n * (n * n - 1) - m * ties
    if denom <= 0:
        raise DegenerateInputError("all judges gave fully tied ratings; W undefined")
    w = max(0.0, min(1.0, (12.0 * s2 - 3.0 * m * m * n * (n + 1) ** 2) / denom))
    chi2 = m * (n - 1) * w
    return TestResult(test_name="kendall_w", statistic=w, p_value=chi2_sf(chi2, n - 1), df=n - 1,
                      n_objects=n, n_judges=m, tie_correction_applied=ties > 0,
                      extras={"chi_square": chi2})


def collapsed_by_lists(rows):
    """``ScoreTable.collapsed`` as it was before it summed consecutive
    repeats: a list of scores per (case, role, model, candidate, dimension)."""
    sums: dict[tuple, list[float]] = {}
    for r in rows:
        sums.setdefault((r.case_id, r.role_id, r.model_id, r.candidate_id, r.dimension), []).append(r.score)
    return {k: sum(v) / len(v) for k, v in sums.items()}


def means_equal(new, oracle):
    """Whether two lists of means are equal: exactly where ``sum()`` adds
    floats left to right, as the list oracles' sums did up to Python 3.11,
    and to rounding on 3.12+, where ``sum()`` compensates float sums."""
    if sys.version_info < (3, 12):
        return new == oracle
    return len(new) == len(oracle) and all(map(math.isclose, new, oracle))


# --- the run-directory writer -------------------------------------------------


def to_doc(obj):
    """JSON-ready form: dataclasses become dicts, keys strings, tuples
    lists and frozensets sorted lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_doc(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(to_doc(v) for v in obj)
    return obj


def canonical_json(obj) -> str:
    """The canonical run-directory text of ``obj``, in two steps: ``to_doc``,
    then json's pretty-printer (its pure-Python encoder, as ``indent`` is
    set)."""
    return json.dumps(to_doc(obj), ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def trees_identical_by_snapshot(a, b):
    """Tree comparison over both trees' whole snapshots, held at once."""
    snap_a = snapshot(a)
    snap_b = snapshot(b)
    diffs = sorted(set(snap_a) ^ set(snap_b))
    diffs += sorted(k for k in set(snap_a) & set(snap_b) if snap_a[k] != snap_b[k])
    return (not diffs), diffs


# --- the score parser, every regex tried on every line ---------------------------

_DIM_PATTERNS = {
    "Clarity": r"clarity",
    "CognitiveLoad": r"cognitive\s*load",
    "Confidence": r"confidence(?:\s+in\s+understanding)?",
    "Preference": r"(?:translation\s+)?preference",
    "Transferability": r"transferability(?:\s+of\s+theory(?:\s+to\s+clinical\s+practice)?)?",
}
_DIM_NAME_RES = [(dim, re.compile(p)) for dim, p in _DIM_PATTERNS.items()]
_DIM_LEAD_RES = [(dim, re.compile(rf"^\s*{p}\s*[:\-]\s*(.+)$", re.IGNORECASE))
                 for dim, p in _DIM_PATTERNS.items()]
_DIM_SCORE_RES = [(dim, re.compile(rf"\b{p}\s*[:=]?\s*([1-5])(?:\s*/\s*5)?\b", re.IGNORECASE))
                  for dim, p in _DIM_PATTERNS.items()]
_FENCE_RE = re.compile(r"```scores[ \t]*\n(.*?)```", re.DOTALL)
_ENTRY_RE = re.compile(r"^\s*([A-Za-z][A-Za-z ]*?)\s*\[\s*(\d+)\s*\]\s*=\s*(-?\d+)\s*$")
_T_PAIR_RE = re.compile(r"\bT(?:ranslation)?\s*(\d+)\s*[=:]\s*([1-5])\b", re.IGNORECASE)
_TRANSLATION_LEAD_RE = re.compile(r"\btranslation\s+(\d+)\b", re.IGNORECASE)


def canonical_dimension(raw: str) -> str | None:
    squeezed = re.sub(r"\s+", " ", raw.strip().lower())
    for dim, name_re in _DIM_NAME_RES:
        if name_re.fullmatch(squeezed):
            return dim
    return None


def parse_evaluation(response_text: str, k: int) -> tuple[ParsedEvaluation, str]:
    """``blindeval.parse.parse_evaluation`` with every dimension regex tried
    on every line and every dimension name matched by regex."""
    try:
        return _parse_fenced(response_text, k), "fenced"
    except FencedBlockMissing:
        return _parse_prose(response_text, k), "prose_fallback"


def _parse_fenced(response_text: str, k: int) -> ParsedEvaluation:
    matches = _FENCE_RE.findall(response_text)
    if not matches:
        raise FencedBlockMissing("no fenced score block in response")
    warnings: list[str] = []
    if len(matches) > 1:
        warnings.append(f"{len(matches)} fenced score blocks found; using the last")
    scores: dict[int, dict[str, int]] = {}
    for lineno, line in enumerate(matches[-1].splitlines(), start=1):
        if not line.strip():
            continue
        m = _ENTRY_RE.match(line)
        if not m:
            raise ParseError(f"malformed score entry at block line {lineno}: {line.strip()!r}")
        dim = canonical_dimension(m.group(1))
        if dim is None:
            raise ParseError(f"unknown dimension at block line {lineno}: {line.strip()!r}")
        label, value = int(m.group(2)), int(m.group(3))
        if not 1 <= label <= k:
            raise ParseError(f"label {label} outside 1..{k} at block line {lineno}: {line.strip()!r}")
        if not 1 <= value <= 5:
            raise ParseError(f"score {value} outside 1..5 at block line {lineno}: {line.strip()!r}")
        if dim in scores.get(label, {}):
            warnings.append(f"duplicate entry for {dim}[{label}]; keeping the last")
        scores.setdefault(label, {})[dim] = value
    missing = 5 * k - sum(len(d) for d in scores.values())
    if missing > 0:
        warnings.append(f"{missing} of {5 * k} score cells missing from fenced block")
    return ParsedEvaluation(scores=scores, warnings=warnings)


def _parse_prose(response_text: str, k: int) -> ParsedEvaluation:
    candidates: dict[tuple[int, str], set[int]] = {}
    warnings: list[str] = []

    def offer(label, dim, value):
        if not 1 <= label <= k:
            warnings.append(f"prose mentions out-of-range label {label}; ignored")
            return
        candidates.setdefault((label, dim), set()).add(value)

    for line in _FENCE_RE.sub("", response_text).splitlines():
        consumed = False
        for dim, lead_re in _DIM_LEAD_RES:
            lead = lead_re.match(line)
            if lead:
                for label_str, value_str in _T_PAIR_RE.findall(lead.group(1)):
                    offer(int(label_str), dim, int(value_str))
                consumed = True
                break
        if consumed:
            continue
        lead = _TRANSLATION_LEAD_RE.search(line)
        if lead:
            rest = line[lead.end():]
            for dim, score_re in _DIM_SCORE_RES:
                for m in score_re.finditer(rest):
                    offer(int(lead.group(1)), dim, int(m.group(1)))

    scores: dict[int, dict[str, int]] = {}
    for (label, dim), values in sorted(candidates.items()):
        if len(values) > 1:
            warnings.append(
                f"conflicting prose values for {dim}[{label}]: {sorted(values)}; cell dropped")
            continue
        scores.setdefault(label, {})[dim] = next(iter(values))
    return ParsedEvaluation(scores=scores, warnings=warnings)


# --- the interview splitter ---------------------------------------------------------

def _heading_pattern(heading: str) -> re.Pattern:
    words = r"\s+".join(re.escape(w) for w in heading.split())  # words may wrap across lines
    return re.compile(
        rf"(?im)^[#*\s]*(?:(?:block|section|task|part|question|q)\s*)?"
        rf"(?:\d+|one|two|three|four|five|six)?\s*[.):\-]*\s*{words}\s*[:.]?\s*$")


_BLOCK_PATTERNS = [(block.block_id, _heading_pattern(block.heading)) for block in BLOCKS]


def segment_interview(response_text: str) -> dict[str, str]:
    """Split a response into the six questionnaire blocks.

    Keys on the block headings with fuzzy numbering (digits, number
    words, or none), one search each over the whole text; a repeated
    heading counts at its first occurrence.  Blocks a judge skipped are
    simply absent.
    """
    found = sorted((m.start(), m.end(), block_id) for block_id, pattern in _BLOCK_PATTERNS
                   if (m := pattern.search(response_text)))
    fence = _FENCE_RE.search(response_text)
    tail = fence.start() if fence else len(response_text)
    blocks: dict[str, str] = {}
    for idx, (start, end, block_id) in enumerate(found):
        stop = found[idx + 1][0] if idx + 1 < len(found) else tail
        blocks[block_id] = response_text[end:stop].strip("\n").strip()
    return blocks
