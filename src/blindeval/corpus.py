"""Registry of source cases and their competing translation candidates.

Each case bundles one source passage with k >= 2 renderings of it.  A
candidate's origin records where the rendering came from (a human
translator, an unassisted model pass, or the scaffolded model pass); the
registry itself never shows origins to judges -- that separation is the
blinding module's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .errors import DuplicateIdError, ValidationError
from .store import Documents

ORIGIN_HUMAN = "human"
ORIGIN_BASELINE = "llm_baseline"
ORIGIN_ADJUSTED = "llm_adjusted"
ORIGINS = (ORIGIN_HUMAN, ORIGIN_BASELINE, ORIGIN_ADJUSTED)


@dataclass
class TranslationCandidate:
    id: str
    origin: str
    text: str
    translator_label: str = ""
    substituted_for: str | None = None


@dataclass
class SourceCase:
    id: str
    title: str
    source_text: str
    context_note: str
    translation_focus: str
    candidates: list[TranslationCandidate] = field(default_factory=list)

    def candidate_ids(self) -> list[str]:
        return [c.id for c in self.candidates]

    def get_candidate(self, candidate_id: str) -> TranslationCandidate:
        for c in self.candidates:
            if c.id == candidate_id:
                return c
        raise ValidationError(f"no candidate {candidate_id!r} in case {self.id!r}")

    def slot_key(self, candidate: TranslationCandidate) -> str:
        """Cross-case treatment slot: the absent slot a substitute stands
        in for, otherwise the candidate's own id."""
        return candidate.substituted_for or candidate.id


@dataclass(frozen=True)
class Violation:
    case_id: str
    message: str

    def __str__(self) -> str:
        return f"[{self.case_id}] {self.message}"


class Corpus:
    """Insertion-ordered case registry."""

    def __init__(self):
        self._cases: dict[str, SourceCase] = {}

    def __len__(self) -> int:
        return len(self._cases)

    def __iter__(self):
        return iter(self._cases.values())

    def __contains__(self, case_id: str) -> bool:
        return case_id in self._cases

    def get(self, case_id: str) -> SourceCase:
        if case_id not in self._cases:
            raise ValidationError(f"unknown case {case_id!r}")
        return self._cases[case_id]

    def add(self, case: SourceCase) -> None:
        if case.id in self._cases:
            raise DuplicateIdError(f"case id {case.id!r} already present")
        self._cases[case.id] = case


def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Collect every invariant violation; an empty list means valid.

    Pure inspection: never raises for bad data and never mutates.
    """
    out: list[Violation] = []
    for case in corpus:
        if not case.source_text:
            out.append(Violation(case.id, "source_text is empty"))
        if len(case.candidates) < 2:
            out.append(Violation(case.id, f"needs at least 2 candidates, has {len(case.candidates)}"))
        ids = case.candidate_ids()
        for cid in sorted({i for i in ids if ids.count(i) > 1}):
            out.append(Violation(case.id, f"duplicate candidate id {cid!r}"))
        for origin in (ORIGIN_BASELINE, ORIGIN_ADJUSTED):
            holders = [c.id for c in case.candidates if c.origin == origin]
            if len(holders) > 1:
                out.append(Violation(
                    case.id,
                    f"more than one candidate with origin={origin}: {', '.join(holders)}"))
        for cand in case.candidates:
            if cand.origin not in ORIGINS:
                out.append(Violation(case.id, f"candidate {cand.id!r} has unknown origin {cand.origin!r}"))
            if not cand.text:
                out.append(Violation(case.id, f"candidate {cand.id!r} has empty text"))
            if cand.substituted_for is not None and cand.substituted_for in ids:
                out.append(Violation(
                    case.id,
                    f"candidate {cand.id!r} claims to substitute for {cand.substituted_for!r}, "
                    f"but that slot is present in this case"))
    return out


# --- disk format -----------------------------------------------------------
#
# One JSON document per case at cases/<id>.json, fields exactly those of
# SourceCase; a candidate may omit translator_label and substituted_for.


def save_case(case: SourceCase, cases_dir: Path) -> Path:
    return Documents(cases_dir, SourceCase, attrgetter("id")).save(case)


def load_corpus(cases_dir: Path) -> Corpus:
    corpus = Corpus()
    for case in Documents(cases_dir, SourceCase, attrgetter("id")).load_all():
        corpus.add(case)
    return corpus
