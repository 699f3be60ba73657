"""Likert-score and interview extraction from judge responses.

Two routes: the strict fenced-block contract the prompt asks for, and a
prose-fallback extractor for judges that answer in free text.  The
fallback never fabricates: an ambiguous or missing cell stays missing
and the record is flagged incomplete downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .persona import DIMENSIONS


class FencedBlockMissing(ParseError):
    """No fenced score block found; caller should fall back to prose."""


@dataclass(frozen=True)
class ParsedEvaluation:
    scores: dict[int, dict[str, int]]   # public label -> dimension -> 1..5
    warnings: list[str] = field(default_factory=list)

    def is_complete(self, k: int) -> bool:
        return (set(self.scores) == set(range(1, k + 1))
                and all(set(d) == set(DIMENSIONS) for d in self.scores.values()))


_DIM_PATTERNS = {
    "Clarity": r"clarity",
    "CognitiveLoad": r"cognitive\s*load",
    "Confidence": r"confidence(?:\s+in\s+understanding)?",
    "Preference": r"(?:translation\s+)?preference",
    "Transferability": r"transferability(?:\s+of\s+theory(?:\s+to\s+clinical\s+practice)?)?",
}

# per dimension, compiled once: the whole name, a dimension-led prose line
# ("Clarity: T1=5, ...") and a score after the name ("Clarity 4/5")
_DIM_NAME_RES = [(dim, re.compile(p)) for dim, p in _DIM_PATTERNS.items()]
_DIM_LEAD_RES = [(dim, re.compile(rf"^\s*{p}\s*[:\-]\s*(.+)$", re.IGNORECASE))
                 for dim, p in _DIM_PATTERNS.items()]
_DIM_SCORE_RES = [(dim, re.compile(rf"\b{p}\s*[:=]?\s*([1-5])(?:\s*/\s*5)?\b", re.IGNORECASE))
                  for dim, p in _DIM_PATTERNS.items()]
# Necessary conditions, one search each: every lead pattern starts with one
# of these literals after the spaces (Preference's may start "translation"),
# and every score pattern contains one, under the same flags.  Most prose
# lines name no dimension, so they skip the five patterns above.
_DIM_LEAD_HINT_RE = re.compile(
    r"\s*(?:clarity|cognitive|confidence|translation|preference|transferability)", re.IGNORECASE)
_DIM_SCORE_HINT_RE = re.compile(
    r"clarity|cognitive|confidence|preference|transferability", re.IGNORECASE)
_CONTRACT_DIMENSIONS = {dim: dim for dim in DIMENSIONS}  # the spellings the prompt asks for

_FENCE_RE = re.compile(r"```scores[ \t]*\n(.*?)```", re.DOTALL)
_ENTRY_RE = re.compile(r"^\s*([A-Za-z][A-Za-z ]*?)\s*\[\s*(\d+)\s*\]\s*=\s*(-?\d+)\s*$")
_SPACES_RE = re.compile(r"\s+")


def _canonical_dimension(raw: str) -> str | None:
    if raw in _CONTRACT_DIMENSIONS:
        return raw
    squeezed = _SPACES_RE.sub(" ", raw.strip().lower())
    for dim, name_re in _DIM_NAME_RES:
        if name_re.fullmatch(squeezed):
            return dim
    return None


def parse_fenced(response_text: str, k: int) -> ParsedEvaluation:
    """Strict path: read the last fenced ``scores`` block.

    Raises FencedBlockMissing when there is no block at all, ParseError
    for malformed entries or out-of-range values.  Entries that are
    simply absent leave their cells missing (flagged via warnings).
    """
    matches = _FENCE_RE.findall(response_text)
    if not matches:
        raise FencedBlockMissing("no fenced score block in response")
    warnings: list[str] = []
    if len(matches) > 1:
        warnings.append(f"{len(matches)} fenced score blocks found; using the last")
    body = matches[-1]

    scores: dict[int, dict[str, int]] = {}
    for lineno, line in enumerate(body.splitlines(), start=1):
        if not line.strip():
            continue
        m = _ENTRY_RE.match(line)
        if not m:
            raise ParseError(f"malformed score entry at block line {lineno}: {line.strip()!r}")
        dim = _canonical_dimension(m.group(1))
        if dim is None:
            raise ParseError(f"unknown dimension at block line {lineno}: {line.strip()!r}")
        label = int(m.group(2))
        value = int(m.group(3))
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


_T_PAIR_RE = re.compile(r"\bT(?:ranslation)?\s*(\d+)\s*[=:]\s*([1-5])\b", re.IGNORECASE)
_TRANSLATION_LEAD_RE = re.compile(r"\btranslation\s+(\d+)\b", re.IGNORECASE)


def parse_prose(response_text: str, k: int) -> ParsedEvaluation:
    """Fallback path: integers adjacent to dimension keywords or labels.

    Handles dimension-led lines ("Clarity: T1=5, T2=4, ...") and
    translation-led lines ("Translation 2: Clarity 4/5").  A cell seen
    with two different values is dropped with a warning, never guessed.
    """
    candidates: dict[tuple[int, str], set[int]] = {}
    warnings: list[str] = []

    # strip any fenced code so its content is not double-read as prose
    text = _FENCE_RE.sub("", response_text)
    for line in text.splitlines():
        consumed = False
        if _DIM_LEAD_HINT_RE.match(line):
            for dim, lead_re in _DIM_LEAD_RES:
                lead = lead_re.match(line)
                if lead:
                    for label_str, value_str in _T_PAIR_RE.findall(lead.group(1)):
                        _offer(candidates, warnings, int(label_str), dim, int(value_str), k)
                    consumed = True
                    break
        if consumed:
            continue
        lead = _TRANSLATION_LEAD_RE.search(line)
        if lead:
            label = int(lead.group(1))
            rest = line[lead.end():]
            if not _DIM_SCORE_HINT_RE.search(rest):
                continue
            for dim, score_re in _DIM_SCORE_RES:
                for m in score_re.finditer(rest):
                    _offer(candidates, warnings, label, dim, int(m.group(1)), k)

    scores: dict[int, dict[str, int]] = {}
    for (label, dim), values in sorted(candidates.items()):
        if len(values) > 1:
            warnings.append(
                f"conflicting prose values for {dim}[{label}]: {sorted(values)}; cell dropped")
            continue
        scores.setdefault(label, {})[dim] = next(iter(values))
    return ParsedEvaluation(scores=scores, warnings=warnings)


def _offer(candidates, warnings, label: int, dim: str, value: int, k: int) -> None:
    if not 1 <= label <= k:
        warnings.append(f"prose mentions out-of-range label {label}; ignored")
        return
    candidates.setdefault((label, dim), set()).add(value)


def parse_evaluation(response_text: str, k: int) -> tuple[ParsedEvaluation, str]:
    """Fenced path first, prose fallback second.  Returns (parsed, mode)."""
    try:
        return parse_fenced(response_text, k), "fenced"
    except FencedBlockMissing:
        return parse_prose(response_text, k), "prose_fallback"
