"""Nonparametric statistics engine, implemented from first principles.

Everything here is rank-based and exact about its own arithmetic: tied
ranks are midranks, tie corrections are applied where the classical
formulas define them, and all tail probabilities come from the in-repo
special functions rather than any statistics library.

Conventions
-----------
* ``average_ranks`` is the shared substrate: ranks 1..n with tied values
  receiving the mean of the ranks they span.
* Spearman's rho is defined as the Pearson correlation of the two
  midrank vectors (tie-robust).  The tests cross-check it without ties
  against the 6*sum(d^2) shortcut (``tests/oracles.py``).
* Kendall's W uses the tie-corrected form
      W = (12*S2 - 3*m^2*n*(n+1)^2) / (m^2*n*(n^2-1) - m*sum_j T_j)
  with T_j = sum(t^3 - t) over judge j's tie groups, tested via
  chi^2 = m*(n-1)*W on n-1 degrees of freedom.
* The Friedman statistic over n blocks of k treatments is
      chi2_F = n*(k-1)*W,  df = k-1,
  where W is Kendall's W with the blocks as judges of the treatments,
  computed by ``kendall_w`` (so it carries W's tie correction).
* The Wilcoxon signed-rank test drops zero differences (the classic
  rule), ranks |d| with midranks, and is exact by full enumeration of
  sign assignments for reduced n <= 20 (via a subset-sum count over
  doubled ranks), otherwise normal with tie and continuity corrections.
* Missing data has one rule, listwise deletion: ``complete_units`` builds
  every matrix over a ScoreTable and keeps only the units scored in every
  column.  The units dropped are counted: ``excluded=N`` in an agreement
  result's extras (shown only when N > 0), ``excluded_blocks`` in the battery.
* Every mean, of a cell's repeats or of a ``complete_units`` cell, is a
  running sum, left to right in table order, divided by the count.
* A ``StatsError`` means the table cannot support the statistic, and
  ``stats run`` writes it as a skip line; a malformed argument, such as an
  unknown blocking field, is a ``ValidationError``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace

from .errors import DegenerateInputError, StatsError, ValidationError
from .scoretable import ScoreTable
from .special import chi2_sf, normal_sf, student_t_two_sided


@dataclass(frozen=True)
class Correction:
    method: str
    family_size: int
    adjusted_p: float


@dataclass(frozen=True)
class TestResult:
    """A named statistic plus everything needed to report it."""

    test_name: str
    statistic: float
    p_value: float
    df: float | None = None
    n_objects: int | None = None
    n_judges: int | None = None
    n_treatments: int | None = None
    tie_correction_applied: bool = False
    correction: Correction | None = None
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise StatsError(f"{self.test_name}: p={self.p_value} outside [0, 1]")

    @property
    def reported_p(self) -> float:
        """Adjusted p when a correction is attached, raw p otherwise."""
        return self.correction.adjusted_p if self.correction else self.p_value


def average_ranks(values: list[float]) -> list[float]:
    """Midranks 1..n; ties share the mean of the ranks they span."""
    if not values:
        raise StatsError("cannot rank an empty list")
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = midrank
        i = j + 1
    return ranks


def tie_term(values: list[float]) -> float:
    """sum(t^3 - t) over the tie groups of one value vector."""
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return float(sum(t ** 3 - t for t in counts.values() if t > 1))


# --- correlation -------------------------------------------------------------

def spearman_rho(x: list[float], y: list[float]) -> TestResult:
    """Spearman's rho as Pearson on midranks, with a t-based two-sided p."""
    if len(x) != len(y):
        raise StatsError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise StatsError(f"need n >= 3 pairs, got {n}")
    if len(set(x)) < 2 or len(set(y)) < 2:
        raise DegenerateInputError("correlation undefined for a constant input vector")
    rx = average_ranks(x)
    ry = average_ranks(y)
    mean = (n + 1) / 2.0
    sxy = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    sxx = sum((a - mean) ** 2 for a in rx)
    syy = sum((b - mean) ** 2 for b in ry)
    rho = sxy / math.sqrt(sxx * syy)
    rho = max(-1.0, min(1.0, rho))
    if 1.0 - rho * rho <= 0.0:
        p = 0.0
        t = math.inf if rho > 0 else -math.inf
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = student_t_two_sided(t, n - 2)
    return TestResult(
        test_name="spearman_rho",
        statistic=rho,
        p_value=p,
        df=n - 2,
        n_objects=n,
        tie_correction_applied=True,   # midrank definition is inherently tie-robust
        extras={"t": t},
    )


# --- concordance -------------------------------------------------------------

def kendall_w(ratings: list[list[float]]) -> TestResult:
    """Kendall's coefficient of concordance over m judges x n objects."""
    m = len(ratings)
    if m < 2:
        raise StatsError(f"need at least 2 judges, got {m}")
    n = len(ratings[0])
    if n < 2:
        raise StatsError(f"need at least 2 objects, got {n}")
    if any(len(row) != n for row in ratings):
        raise StatsError("ragged ratings matrix")
    ranked = [average_ranks(row) for row in ratings]
    rank_sums = [sum(ranked[j][i] for j in range(m)) for i in range(n)]
    s2 = sum(r * r for r in rank_sums)
    ties = sum(tie_term(row) for row in ratings)
    denom = m * m * n * (n * n - 1) - m * ties
    if denom <= 0:
        raise DegenerateInputError("all judges gave fully tied ratings; W undefined")
    w = (12.0 * s2 - 3.0 * m * m * n * (n + 1) ** 2) / denom
    w = max(0.0, min(1.0, w))
    chi2 = m * (n - 1) * w
    p = chi2_sf(chi2, n - 1)
    return TestResult(
        test_name="kendall_w",
        statistic=w,
        p_value=p,
        df=n - 1,
        n_objects=n,
        n_judges=m,
        tie_correction_applied=ties > 0,
        extras={"chi_square": chi2},
    )


# --- k related samples -------------------------------------------------------

def friedman(blocks: list[list[float]]) -> TestResult:
    """Friedman rank test for k treatments across n matched blocks: the
    chi-square of Kendall's W with the blocks as judges."""
    n = len(blocks)
    if n < 2:
        raise StatsError(f"need at least 2 blocks, got {n}")
    w = kendall_w(blocks)
    return TestResult(
        test_name="friedman",
        statistic=w.extras["chi_square"],
        p_value=w.p_value,
        df=w.df,
        n_objects=w.n_judges,
        n_treatments=w.n_objects,
        tie_correction_applied=w.tie_correction_applied,
    )


# --- paired comparison -------------------------------------------------------

EXACT_LIMIT = 20  # 2^20 sign assignments; subset-sum count stays sub-second


def _exact_two_sided_p(doubled_ranks: list[int], t_plus_doubled: int) -> float:
    """P(min(T+, T-) <= observed) by counting sign assignments.

    Counts come from the subset-sum distribution of the doubled ranks
    (doubling makes midranks integral), so the returned value is an
    integer count divided by 2^n.
    """
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    observed_min = min(t_plus_doubled, total - t_plus_doubled)
    favourable = sum(c for s, c in enumerate(counts) if min(s, total - s) <= observed_min)
    return favourable / 2 ** len(doubled_ranks)


def wilcoxon_signed_rank(x: list[float], y: list[float], mode: str = "auto") -> TestResult:
    """Paired signed-rank test; two-sided.

    ``mode`` is "exact", "approx" or "auto" (exact iff the zero-reduced
    n is at most EXACT_LIMIT).
    """
    if mode not in ("exact", "approx", "auto"):
        raise StatsError(f"unknown mode {mode!r}")
    if len(x) != len(y):
        raise StatsError(f"length mismatch: {len(x)} vs {len(y)}")
    diffs = [d for d in (a - b for a, b in zip(x, y)) if d != 0.0]
    if not diffs:
        raise DegenerateInputError("all differences are zero; no information")
    magnitudes = [abs(d) for d in diffs]
    ranks = average_ranks(magnitudes)
    n = len(diffs)
    t_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    t_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    use_exact = mode == "exact" or (mode == "auto" and n <= EXACT_LIMIT)

    extras: dict[str, float] = {"t_plus": t_plus, "t_minus": t_minus}
    ties = tie_term(magnitudes)

    if use_exact:
        doubled = [round(2 * r) for r in ranks]
        p = _exact_two_sided_p(doubled, round(2 * t_plus))
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0
        if var <= 0:
            raise DegenerateInputError("zero variance after tie correction")
        sd = math.sqrt(var)
        if t_plus > mean:
            z = (t_plus - mean - 0.5) / sd
        elif t_plus < mean:
            z = (t_plus - mean + 0.5) / sd
        else:
            z = 0.0
        p = min(1.0, 2.0 * normal_sf(abs(z)))
        extras["z"] = z
        method = "approx"

    return TestResult(
        test_name=f"wilcoxon_signed_rank[{method}]",
        statistic=t_plus,
        p_value=p,
        n_objects=n,
        tie_correction_applied=ties > 0,
        extras=extras,
    )


def bonferroni(results: list[TestResult], family_size: int) -> list[TestResult]:
    """Attach Bonferroni-adjusted p-values; raw p-values are retained."""
    if family_size < len(results):
        raise StatsError(
            f"family_size {family_size} smaller than number of results {len(results)}")
    corrected = []
    for r in results:
        adj = min(1.0, family_size * r.p_value)
        corrected.append(replace(r, correction=Correction("bonferroni", family_size, adj)))
    return corrected


# --- agreement analyses over a ScoreTable -------------------------------------

def complete_units(cells, columns):
    """Pivot (unit, column, score) triples into a units x columns matrix.

    The columns are distinct.  Each unit keeps one flat list of running
    column sums and counts.  A cell is its scores' sum, left to right in
    the order given, over their count: the float ``sum(v) / len(v)`` gives
    on Python 3.10/3.11, and the same on 3.12+, where ``sum()`` compensates
    float sums.  Only units scored in every listed column are kept, sorted;
    ``excluded`` counts the rest.  Each unit's sums are dropped as its row
    is made, so the sums and the rows are never held whole at once.
    Returns (units, rows, excluded).
    """
    slot = {column: 2 * j for j, column in enumerate(columns)}
    grid: dict = {}
    for unit, column, score in cells:
        acc = grid.get(unit) or grid.setdefault(unit, [0] * (2 * len(columns) + 2))
        j = slot.get(column, -2)    # an unlisted column: the spare last pair
        acc[j] += score
        acc[j + 1] += 1
    n_units = len(grid)
    units, rows = [], []
    for unit in sorted(grid):
        acc = grid.pop(unit)
        counts = acc[1:-2:2]
        if all(counts):
            units.append(unit)
            rows.append(list(map(operator.truediv, acc[:-2:2], counts)))
    return units, rows, n_units - len(units)


def _noting_excluded(result: TestResult, excluded: int) -> TestResult:
    """The result with ``excluded=N`` in its extras when N units were dropped."""
    if not excluded:
        return result
    return replace(result, extras={**result.extras, "excluded": excluded})


@dataclass(frozen=True)
class AgreementResult:
    spearman: TestResult
    kendall: TestResult


def cross_model_agreement(table: ScoreTable) -> AgreementResult:
    """Spearman over paired per-cell scores plus Kendall's W treating each
    model as a judge of the matched observations; a (case, role,
    candidate, dimension) cell counts only when both models scored it."""
    models = table.model_ids()
    if len(models) != 2:
        raise StatsError(f"cross-model agreement needs exactly 2 models, table has {len(models)}")
    pick = operator.itemgetter(0, 1, 3, 4)
    _, rows, excluded = complete_units(
        ((pick(key), key[2], score) for key, score in table.collapsed()), models)
    x = [row[0] for row in rows]
    y = [row[1] for row in rows]
    return AgreementResult(spearman=_noting_excluded(spearman_rho(x, y), excluded),
                           kendall=_noting_excluded(kendall_w([x, y]), excluded))


def cross_role_agreement(table: ScoreTable, model_id: str) -> TestResult:
    """Kendall's W with roles as judges and (case x candidate) objects,
    each object summarized by its mean over dimensions; an object counts
    only when every role scored it."""
    cells = [((case_id, cand_id), role_id, score)
             for (case_id, role_id, mid, cand_id, _), score in table.collapsed()
             if mid == model_id]
    roles = sorted({role_id for _, role_id, _ in cells})
    if len(roles) < 2:
        raise StatsError(f"model {model_id!r} has {len(roles)} role(s); need at least 2")
    _, rows, excluded = complete_units(cells, roles)
    matrix = [[row[j] for row in rows] for j in range(len(roles))]
    return _noting_excluded(kendall_w(matrix), excluded)


# --- version difference battery ------------------------------------------------

DEFAULT_BLOCKING = ("case", "role", "model", "dimension")
_BLOCK_FIELDS = {"case": 0, "role": 1, "model": 2, "dimension": 4}


@dataclass(frozen=True)
class PairwiseComparison:
    slot_a: str
    slot_b: str
    result: TestResult | None          # None when the pair is degenerate
    note: str = ""


@dataclass(frozen=True)
class BatteryResult:
    friedman: TestResult
    pairwise: list[PairwiseComparison]
    treatments: list[str]
    n_blocks: int
    excluded_blocks: int
    family_size: int
    blocking: tuple[str, ...]


def battery_blocks(table: ScoreTable, blocking=DEFAULT_BLOCKING):
    """Group collapsed scores into blocks x treatment-slot matrices."""
    unknown = [b for b in blocking if b not in _BLOCK_FIELDS]
    if unknown:
        raise ValidationError(f"unknown blocking fields: {', '.join(unknown)}; "
                              f"allowed: {', '.join(sorted(_BLOCK_FIELDS))}")
    # (case, candidate, *blocking fields): a tuple for any number of fields,
    # so k[:2] names the slot and k[2:] is the block key
    pick = operator.itemgetter(0, 3, *(_BLOCK_FIELDS[b] for b in blocking))
    slot_of = table.slot_of
    slots = sorted(set(slot_of.values()))
    picked = ((pick(cell), score) for cell, score in table.collapsed())
    _, rows, excluded = complete_units(
        ((k[2:], slot_of[k[:2]], score) for k, score in picked), slots)
    return slots, rows, excluded


def version_difference_battery(table: ScoreTable, blocking=DEFAULT_BLOCKING) -> BatteryResult:
    """Friedman over candidate slots, then every pairwise Wilcoxon with a
    Bonferroni family of C(k, 2)."""
    slots, rows, excluded = battery_blocks(table, blocking)
    if not rows:
        raise StatsError("no complete blocks; cannot run the battery")
    friedman_result = friedman(rows)
    k = len(slots)
    family = k * (k - 1) // 2
    pairwise = []
    for ia, ib in itertools.combinations(range(k), 2):
        x = [row[ia] for row in rows]
        y = [row[ib] for row in rows]
        try:
            res = bonferroni([wilcoxon_signed_rank(x, y, mode="auto")], family)[0]
            note = ""
        except DegenerateInputError as exc:
            res, note = None, str(exc)
        pairwise.append(PairwiseComparison(slots[ia], slots[ib], res, note))
    return BatteryResult(
        friedman=friedman_result,
        pairwise=pairwise,
        treatments=slots,
        n_blocks=len(rows),
        excluded_blocks=excluded,
        family_size=family,
        blocking=tuple(blocking),
    )
