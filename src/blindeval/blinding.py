"""Single-blind label assignment.

Judges only ever see translations under public labels 1..k.  A BlindPlan
is the recoverable code key: a seeded Fisher-Yates permutation mapping
each public label to the hidden candidate it shows.  Plans are immutable
once written and one plan serves all judges of a case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .corpus import SourceCase
from .errors import BlindingError, BlindingLeakError, ValidationError
from .rng import Splitmix64, mix_seed
from .store import from_doc, read_json, to_doc, write_json

ALGORITHM = "splitmix64/fisher-yates/v1"
FIXTURE_ALGORITHM = "fixture/paper-layout"


def fisher_yates(n: int, rng: Splitmix64) -> list[int]:
    """Permutation of 0..n-1 by backward Fisher-Yates.

    For i from n-1 down to 1 the element at i is swapped with a uniform
    j in [0, i].  Consumes exactly n-1 draws from ``rng``.
    """
    if n < 1:
        raise BlindingError("cannot permute an empty sequence")
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@dataclass(frozen=True)
class BlindPlan:
    case_id: str
    seed: int | None          # None for fixture plans
    algorithm: str
    permutation: tuple[str, ...]  # index 0 = public label 1
    created_at: str

    @property
    def k(self) -> int:
        return len(self.permutation)


def make_blind_plan(case: SourceCase, seed: int) -> BlindPlan:
    """Assign public labels 1..k to the case's candidates.

    The effective stream seed mixes the case id into the run seed so that
    one run-level seed still gives every case its own arrangement, while
    (case, seed) pairs regenerate identically across processes.
    """
    k = len(case.candidates)
    if k < 2:
        raise BlindingError(f"case {case.id!r} has {k} candidate(s); nothing to compare")
    rng = Splitmix64(mix_seed(seed, "blind", case.id))
    order = fisher_yates(k, rng)
    permutation = tuple(case.candidates[i].id for i in order)
    return BlindPlan(
        case_id=case.id,
        seed=seed,
        algorithm=ALGORITHM,
        permutation=permutation,
        created_at=_now(),
    )


def unblind(plan: BlindPlan, label: int) -> str:
    """Candidate id hidden behind a public label (1-based)."""
    if not 1 <= label <= plan.k:
        raise BlindingError(f"label {label} out of range; valid labels are 1..{plan.k}")
    return plan.permutation[label - 1]


def plan_for(plans: dict[str, BlindPlan], case_id: str) -> BlindPlan:
    """The blind plan of a case, which every unblinding step needs."""
    plan = plans.get(case_id)
    if plan is None:
        raise ValidationError(f"no blind plan for case {case_id!r}")
    return plan


# --- paper-layout fixture ----------------------------------------------------
#
# A named, seedless plan set replaying the four-case demo arrangement
# exactly.  Row values are slot codes: 1 = llm-baseline, 2 = llm-final,
# 3 = unschuld, 4 = li-zhaoguo; a substitute candidate fills its absent
# slot's code.

PAPER_LAYOUT_CODES: dict[str, tuple[int, int, int, int]] = {
    "case1": (2, 4, 1, 3),
    "case2": (4, 3, 2, 1),
    "case3": (1, 2, 3, 4),
    "case4": (3, 1, 4, 2),
}

_CODE_SLOTS = {1: "llm-baseline", 2: "llm-final", 3: "unschuld", 4: "li-zhaoguo"}


def paper_layout_plan(case: SourceCase) -> BlindPlan:
    codes = PAPER_LAYOUT_CODES.get(case.id)
    if codes is None:
        raise BlindingError(
            f"no paper-layout row for case {case.id!r}; fixture covers {sorted(PAPER_LAYOUT_CODES)}")
    slot_to_candidate = {case.slot_key(c): c.id for c in case.candidates}
    permutation = []
    for code in codes:
        slot = _CODE_SLOTS[code]
        if slot not in slot_to_candidate:
            raise BlindingError(f"case {case.id!r} has no candidate filling slot {slot!r}")
        permutation.append(slot_to_candidate[slot])
    return BlindPlan(
        case_id=case.id,
        seed=None,
        algorithm=FIXTURE_ALGORITHM,
        permutation=tuple(permutation),
        created_at=_now(),
    )


# --- leak detection ----------------------------------------------------------

def provenance_strings(case: SourceCase) -> list[str]:
    """Strings whose appearance in a judge-facing artifact would break the
    blind: candidate ids, origin tokens and translator attributions.

    The origin token "human" is excluded: it collides with ordinary prose
    ("harms the human body") and carries no per-candidate identity; label
    leakage for human translations is caught via translator_label.
    """
    needles: list[str] = []
    for cand in case.candidates:
        needles.append(cand.id)
        if cand.origin != "human":
            needles.append(cand.origin)
        if cand.substituted_for:
            needles.append(cand.substituted_for)
        label = cand.translator_label.strip()
        if label:
            needles.append(label)
            # individual name tokens, so a partial attribution still trips
            needles.extend(tok for tok in re.split(r"[\s,()]+", label) if len(tok) >= 4)
    seen: dict[str, None] = {}
    for n in needles:
        seen.setdefault(n.lower())
    return list(seen)


def scan_for_leaks(text: str, case: SourceCase) -> list[str]:
    """Provenance strings present in ``text`` (case-insensitive)."""
    lowered = text.lower()
    return [needle for needle in provenance_strings(case) if needle in lowered]


def assert_no_leaks(text: str, case: SourceCase, where: str) -> None:
    hits = scan_for_leaks(text, case)
    if hits:
        raise BlindingLeakError(
            f"{where} for case {case.id!r} leaks candidate provenance: {', '.join(sorted(hits))}")


# --- persistence -------------------------------------------------------------

def save_plan(plan: BlindPlan, blinding_dir: Path) -> Path:
    return write_json(Path(blinding_dir) / f"{plan.case_id}.json", to_doc(plan))


def load_plans(blinding_dir: Path) -> dict[str, BlindPlan]:
    plans = {}
    for path in sorted(Path(blinding_dir).glob("*.json")):
        plan = from_doc(BlindPlan, read_json(path), path)
        plans[plan.case_id] = plan
    return plans


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()
