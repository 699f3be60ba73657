"""Long-format fact table feeding all statistics and figures.

One row per (case, role, model, candidate, dimension, repeat).  Rows are
unblinded: records keyed by public label are joined with each case's
BlindPlan when the table is built, and nothing downstream ever needs the
labels again.
"""

from __future__ import annotations

import csv
import functools
import io
import types
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from .blinding import BlindPlan, unblind
from .corpus import Corpus
from .errors import ValidationError

LIKERT_MIN, LIKERT_MAX = 1, 5


@dataclass(frozen=True)
class ScoreRow:
    case_id: str
    role_id: str
    model_id: str
    candidate_id: str
    dimension: str
    score: int
    repeat: int = 0

    def key(self):
        return (self.case_id, self.role_id, self.model_id,
                self.candidate_id, self.dimension, self.repeat)


class ScoreTable:
    """Immutable rows plus the per-case index and repeat collapse, each
    built at most once, on first use."""

    def __init__(self, rows: Iterable[ScoreRow], slot_map: dict[tuple[str, str], str] | None = None):
        self.rows = tuple(rows)
        seen = set()
        for row in self.rows:
            score = row.score
            if type(score) is not int or not LIKERT_MIN <= score <= LIKERT_MAX:
                raise ValidationError(
                    f"score {score!r} is not an integer in {LIKERT_MIN}..{LIKERT_MAX} in {row}")
            k = row.key()
            if k in seen:
                raise ValidationError(f"duplicate score key {k}")
            seen.add(k)
        self._slot_map = dict(slot_map or {})

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def slot(self, case_id: str, candidate_id: str) -> str:
        return self._slot_map.get((case_id, candidate_id), candidate_id)

    def model_ids(self) -> list[str]:
        return sorted({r.model_id for r in self.rows})

    def role_ids(self) -> list[str]:
        return sorted({r.role_id for r in self.rows})

    def case_ids(self) -> list[str]:
        return sorted(self._by_case)

    def case_rows(self, case_id: str) -> tuple[ScoreRow, ...]:
        """The rows of one case, in table order; empty for an unknown case."""
        return self._by_case.get(case_id, ())

    @functools.cached_property
    def _by_case(self) -> dict[str, tuple[ScoreRow, ...]]:
        groups: dict[str, list[ScoreRow]] = {}
        for r in self.rows:
            groups.setdefault(r.case_id, []).append(r)
        return {case_id: tuple(rows) for case_id, rows in groups.items()}

    def collapsed(self) -> Mapping[tuple, float]:
        """Mean over repeat indices: (case, role, model, candidate, dim) -> score.

        Read-only: every call returns a view of the same mapping."""
        return self._collapsed

    @functools.cached_property
    def _collapsed(self) -> Mapping[tuple, float]:
        sums: dict[tuple, list[float]] = {}
        for r in self.rows:
            sums.setdefault((r.case_id, r.role_id, r.model_id, r.candidate_id, r.dimension), []).append(r.score)
        return types.MappingProxyType({k: sum(v) / len(v) for k, v in sums.items()})

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
    for rec in records:
        if not rec.complete and not include_incomplete:
            continue
        plan = plans.get(rec.case_id)
        if plan is None:
            raise ValidationError(f"no blind plan for case {rec.case_id!r}")
        for label, per_dim in rec.scores.items():
            candidate_id = unblind(plan, int(label))
            for dimension, score in per_dim.items():
                rows.append(ScoreRow(
                    case_id=rec.case_id,
                    role_id=rec.role_id,
                    model_id=rec.model_id,
                    candidate_id=candidate_id,
                    dimension=dimension,
                    score=int(score),
                    repeat=getattr(rec, "repeat_index", 0),
                ))
    rows.sort(key=lambda r: r.key())
    slot_map = slot_map_from_corpus(corpus) if corpus is not None else None
    return ScoreTable(rows, slot_map)


# --- CSV ----------------------------------------------------------------------

CSV_COLUMNS = ["case", "role", "model", "candidate", "dimension", "score", "repeat"]


def table_to_csv(table: ScoreTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in sorted(table.rows, key=lambda r: r.key()):
        writer.writerow([r.case_id, r.role_id, r.model_id, r.candidate_id,
                         r.dimension, r.score, r.repeat])
    return buf.getvalue()


def table_from_csv(text: str, slot_map: dict[tuple[str, str], str] | None = None) -> ScoreTable:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_COLUMNS:
        raise ValidationError(f"unexpected CSV header {header!r}")
    rows = [ScoreRow(c, role, m, cand, dim, int(score), int(rep))
            for c, role, m, cand, dim, score, rep in reader]
    return ScoreTable(rows, slot_map)


def save_table_csv(table: ScoreTable, path: Path) -> Path:
    path = Path(path)
    path.write_text(table_to_csv(table), encoding="utf-8")
    return path
