"""Long-format fact table feeding all statistics and figures.

One row per (case, role, model, candidate, dimension, repeat).  Rows are
unblinded: records keyed by public label are joined with each case's
BlindPlan when the table is built, and nothing downstream ever needs the
labels again.

Invariant: the rows are in key order (``ScoreRow.key``), whatever order they
came in, so duplicate keys are neighbours and a cell's repeats consecutive.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import types
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import NamedTuple

from .blinding import BlindPlan, plan_for, unblind
from .corpus import Corpus
from .errors import ValidationError
from .store import write_csv

LIKERT_MIN, LIKERT_MAX = 1, 5
#: (type, value) of every valid score, so that True, 3.0 and "3" fail
_VALID_SCORES = frozenset((int, s) for s in range(LIKERT_MIN, LIKERT_MAX + 1))


class ScoreRow(NamedTuple):
    """One score; its fields are in CSV_COLUMNS order."""
    case_id: str
    role_id: str
    model_id: str
    candidate_id: str
    dimension: str
    score: int
    repeat: int = 0

    def key(self):
        return _row_key(self)


#: A row's identity and sort order: every field but the score.
_row_key = operator.itemgetter(0, 1, 2, 3, 4, 6)
_score = operator.itemgetter(5)
_cell = operator.itemgetter(0, 1, 2, 3, 4)
_case = operator.itemgetter(0)
_case_and_candidate = operator.itemgetter(0, 3)


class ScoreTable:
    """Immutable rows in key order plus the per-case index and the repeat
    collapse, each built at most once, on first use.  Neither the sort nor
    the collapse makes a key tuple per row or per cell."""

    def __init__(self, rows: Iterable[ScoreRow], slot_map: dict[tuple[str, str], str] | None = None):
        self.rows = rows = _in_key_order(rows)
        if (not _scores_valid(list(map(_score, rows)))
                or any(itertools.starmap(operator.eq, itertools.pairwise(map(_row_key, rows))))):
            _raise_first_bad_row(rows)
        self._slot_map = dict(slot_map or {})

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @functools.cached_property
    def slot_of(self) -> Mapping[tuple[str, str], str]:
        """(case, candidate) -> treatment slot for every pair in the table: a
        substitute's slot from the slot map, otherwise the candidate id.
        Read-only, as it is shared by every caller."""
        slot_map = self._slot_map
        pairs = set(map(_case_and_candidate, self.rows))
        return types.MappingProxyType({pair: slot_map.get(pair, pair[1]) for pair in pairs})

    def model_ids(self) -> list[str]:
        return sorted({r.model_id for r in self.rows})

    def role_ids(self) -> list[str]:
        return sorted({r.role_id for r in self.rows})

    def case_ids(self) -> list[str]:
        return sorted(self._by_case)

    def case_rows(self, case_id: str) -> tuple[ScoreRow, ...]:
        """The rows of one case, in key order; empty for an unknown case."""
        return self._by_case.get(case_id, ())

    @functools.cached_property
    def _by_case(self) -> dict[str, tuple[ScoreRow, ...]]:
        # rows are in key order, so each case is one contiguous run of them
        return {case_id: tuple(run) for case_id, run in itertools.groupby(self.rows, _case)}

    def collapsed(self) -> Iterator[tuple[tuple[str, str, str, str, str], float]]:
        """(cell, mean over its repeats) for each (case, role, model,
        candidate, dimension) cell, in key order.  Every call reads the same
        two stored tuples, one row of each cell and the means; a cell's key
        tuple is made only while iterating."""
        rows, means = self._collapsed
        return zip(map(_cell, rows), means)

    @functools.cached_property
    def _collapsed(self) -> tuple[tuple[ScoreRow, ...], tuple[float, ...]]:
        cell_rows, means = [], []
        for _, repeats in itertools.groupby(self.rows, _cell):
            total = 0
            for count, row in enumerate(repeats, 1):
                total += row.score
            cell_rows.append(row)
            means.append(total / count)
        return tuple(cell_rows), tuple(means)

    def transformed(self, fn) -> "ScoreTable":
        """Same table with fn applied to every score; for invariance checks.

        Deliberately bypasses the Likert range gate: a monotone transform
        leaves every rank statistic untouched but exits the 1..5 range.
        The new table builds its own index and collapse.
        """
        clone = ScoreTable.__new__(ScoreTable)
        clone.rows = tuple(ScoreRow(r.case_id, r.role_id, r.model_id, r.candidate_id,
                                    r.dimension, fn(r.score), r.repeat) for r in self.rows)
        clone._slot_map = dict(self._slot_map)
        return clone


def _in_key_order(rows: Iterable[ScoreRow]) -> tuple[ScoreRow, ...]:
    """``tuple(sorted(rows, key=_row_key))``, with no key tuple per row: a
    sort by case, whose keys are the rows' own strings, then a sort of each
    case's run by the whole key.  Both sorts are stable, so rows with equal
    keys keep their input order."""
    rows = sorted(rows, key=_case)
    start = 0
    while start < len(rows):
        end = bisect.bisect_right(rows, _case(rows[start]), start, key=_case)
        rows[start:end] = sorted(rows[start:end], key=_row_key)
        start = end
    return tuple(rows)


def _scores_valid(scores: list) -> bool:
    """Whether every score is a valid one (the only statement of the rule)."""
    try:
        return set(zip(map(type, scores), scores)) <= _VALID_SCORES
    except TypeError:   # an unhashable score
        return False


def _raise_first_bad_row(rows: tuple[ScoreRow, ...]) -> None:
    """Raise for the first row, in key order, with a bad score or the key
    of the row before it."""
    previous = None
    for row in rows:
        score = row.score
        if not _scores_valid([score]):
            raise ValidationError(
                f"score {score!r} is not an integer in {LIKERT_MIN}..{LIKERT_MAX} in {row}")
        k = row.key()
        if k == previous:
            raise ValidationError(f"duplicate score key {k}")
        previous = k


def slot_map_from_corpus(corpus: Corpus) -> dict[tuple[str, str], str]:
    return {(case.id, cand.id): case.slot_key(cand)
            for case in corpus for cand in case.candidates}


def table_from_records(
    records,
    plans: dict[str, BlindPlan],
    corpus: Corpus | None = None,
    include_incomplete: bool = False,
) -> ScoreTable:
    """Unblind evaluation records into the fact table.

    Records must expose case_id, role_id, model_id, repeat_index, scores
    (public label -> dimension -> int) and a ``complete`` flag.  Records
    flagged incomplete are skipped unless ``include_incomplete`` is set,
    in which case their present cells are used as-is.
    """
    rows: list[ScoreRow] = []
    new_row = tuple.__new__     # ScoreRow(...) without its keyword handling
    for rec in records:
        if not rec.complete and not include_incomplete:
            continue
        case_id, role_id, model_id = rec.case_id, rec.role_id, rec.model_id
        repeat = rec.repeat_index
        plan = plan_for(plans, case_id)
        for label, per_dim in rec.scores.items():
            candidate_id = unblind(plan, int(label))
            rows.extend([new_row(ScoreRow, (case_id, role_id, model_id, candidate_id,
                                            dimension, int(score), repeat))
                         for dimension, score in per_dim.items()])
    slot_map = slot_map_from_corpus(corpus) if corpus is not None else None
    return ScoreTable(rows, slot_map)


# --- CSV ----------------------------------------------------------------------

CSV_COLUMNS = ["case", "role", "model", "candidate", "dimension", "score", "repeat"]


def save_table_csv(table: ScoreTable, path: Path) -> Path:
    """Write the table's rows to ``path`` as CSV, streamed row by row."""
    return write_csv(path, CSV_COLUMNS, table.rows)
