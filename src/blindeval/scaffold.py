"""Staged, persisted prompt-refinement sessions.

The human expert drives: they diagnose the baseline, choose what
material to inject, and decide when to advance.  The harness only
templates the stage prompts, sends each one after the conversation so
far, and logs every turn.  A turn stores its stage and supplement and
names its transcript by ``call_id``; the prompt, the reply and the time
live only in that transcript.  Replaying a session means re-rendering
each turn's prompt from its stage and supplement and comparing it with
the last user message its transcript sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .corpus import ORIGIN_ADJUSTED, SourceCase, TranslationCandidate, save_case
from .errors import StageError, ValidationError
from .provider import ProviderConfig, TranscriptStore, complete
from .store import Documents

STAGE_BASELINE = "Baseline"
STAGE_DIAGNOSE = "Diagnose"
STAGE_INJECT = "InjectKnowledge"
STAGE_FIGURES = "IdentifyFigures"
STAGE_POLISH = "Polish"
STAGE_FINALIZED = "Finalized"

FAILURE_MODES = frozenset({"knowledge_gap", "figure_recognition_gap", "linguistic_gap"})


@dataclass(frozen=True)
class Diagnosis:
    adequate_rationale: bool
    failure_modes: frozenset = frozenset()
    notes: str = ""

    def __post_init__(self):
        object.__setattr__(self, "failure_modes", frozenset(self.failure_modes))
        unknown = self.failure_modes - FAILURE_MODES
        if unknown:
            raise ValidationError(f"unknown failure modes: {', '.join(sorted(unknown))}")
        if self.adequate_rationale and self.failure_modes:
            raise ValidationError("an adequate rationale cannot carry failure modes")

    def stage_queue(self) -> list[str]:
        queue = []
        if "knowledge_gap" in self.failure_modes:
            queue.append(STAGE_INJECT)
        if "figure_recognition_gap" in self.failure_modes:
            queue.append(STAGE_FIGURES)
        queue.append(STAGE_POLISH)  # never skippable
        return queue


@dataclass
class Turn:
    stage_at_send: str
    call_id: str           # names the transcript of the prompt and its reply
    supplement: str = ""   # stored so the prompt can be re-rendered on replay


@dataclass
class ScaffoldSession:
    session_id: str
    case_id: str
    translation_model: str
    stage: str = STAGE_BASELINE
    turns: list[Turn] = field(default_factory=list)
    diagnosis: Diagnosis | None = None
    final_text: str | None = None
    pending_stages: list[str] = field(default_factory=list)

    def require_stage(self, *stages: str) -> None:
        if self.stage not in stages:
            raise StageError(
                f"session {self.session_id!r} is at stage {self.stage}; "
                f"this step needs {' or '.join(stages)}")


# --- stage prompt templates -----------------------------------------------------

BASELINE_PROMPT = """\
Translate the following passage into English, then explain the reasoning \
behind your rendering: what the passage asserts medically, and how your \
wording conveys it.

Source passage:
{source_text}

Context: {context_note}"""

INJECT_PROMPT = """\
Here is background material bearing on the passage you translated. Read it, \
explain how it changes your understanding of the passage's medical reasoning, \
and revise your translation accordingly.

Background material:
{supplement}"""

FIGURES_PROMPT = """\
The passage relies on figurative structure described below: source-domain \
imagery and the referential links it licenses. Identify where these operate \
in the passage, explain how they build the diagnostic and therapeutic logic, \
and revise your translation to convey them.

Figure mappings:
{supplement}"""

POLISH_PROMPT = """\
Polish your current translation. Two fixed requirements:
(1) preserve the source text's structural ordering while improving readability and concision;
(2) render imagistic meanings, such as the qi-movement senses, as dynamic verbal expressions.
{supplement_section}Reply with the polished translation followed by a short note on what changed."""


def render_stage_prompt(stage: str, case: SourceCase, supplement: str = "") -> str:
    if stage == STAGE_BASELINE:
        return BASELINE_PROMPT.format(source_text=case.source_text, context_note=case.context_note)
    if stage == STAGE_INJECT:
        return INJECT_PROMPT.format(supplement=supplement)
    if stage == STAGE_FIGURES:
        return FIGURES_PROMPT.format(supplement=supplement)
    if stage == STAGE_POLISH:
        section = f"Reviewer guidance:\n{supplement}\n\n" if supplement else ""
        return POLISH_PROMPT.format(supplement_section=section)
    raise StageError(f"stage {stage} has no prompt template")


# --- session store ----------------------------------------------------------------

class SessionStore(Documents):
    """sessions/<id>.json holds each session, one document per session."""

    def __init__(self, directory: Path):
        super().__init__(directory, ScaffoldSession, attrgetter("session_id"))
        self.directory.mkdir(parents=True, exist_ok=True)

    def new_session_id(self, case_id: str, model: str) -> str:
        n = 1
        while self.exists(f"{case_id}-{model}-{n:02d}"):
            n += 1
        return f"{case_id}-{model}-{n:02d}"


@dataclass
class ScaffoldDeps:
    provider: ProviderConfig
    store: SessionStore
    transcripts: TranscriptStore
    transport: object = None


# --- operations --------------------------------------------------------------------

def start_session(case: SourceCase, deps: ScaffoldDeps) -> ScaffoldSession:
    """Open a fresh session and send its baseline translate-and-explain
    prompt.  The session is first written at Diagnose with that turn, so
    a failed baseline call leaves no session behind."""
    session = ScaffoldSession(
        session_id=deps.store.new_session_id(case.id, deps.provider.provider_id),
        case_id=case.id,
        translation_model=f"{deps.provider.provider_id}/{deps.provider.model}",
    )
    _send_turn(session, case, "", deps)
    session.stage = STAGE_DIAGNOSE
    deps.store.save(session)
    return session


def record_diagnosis(session: ScaffoldSession, diagnosis: Diagnosis,
                     store: SessionStore) -> ScaffoldSession:
    """Attach the human diagnosis; routes the session to its next stage."""
    session.require_stage(STAGE_DIAGNOSE)
    if not any(t.stage_at_send == STAGE_BASELINE for t in session.turns):
        raise StageError("cannot diagnose before a baseline turn exists")
    session.diagnosis = diagnosis
    session.pending_stages = diagnosis.stage_queue()
    session.stage = session.pending_stages.pop(0)
    store.save(session)
    return session


def advance(session: ScaffoldSession, supplement: str, case: SourceCase,
            deps: ScaffoldDeps, hold: bool = False) -> ScaffoldSession:
    """Send the current stage's templated prompt and move on.

    ``hold`` keeps the session at the current stage for another round
    (self-loops are allowed); Polish always holds, since only finalize
    leaves it.  The two injection stages require a non-empty supplement.
    """
    session.require_stage(STAGE_INJECT, STAGE_FIGURES, STAGE_POLISH)
    if session.stage in (STAGE_INJECT, STAGE_FIGURES) and not supplement.strip():
        raise ValidationError(f"stage {session.stage} requires a non-empty supplement")
    _send_turn(session, case, supplement, deps)
    if not hold and session.stage != STAGE_POLISH and session.pending_stages:
        session.stage = session.pending_stages.pop(0)
    deps.store.save(session)
    return session


def finalize(session: ScaffoldSession, chosen_text: str, case: SourceCase,
             store: SessionStore, cases_dir: Path) -> ScaffoldSession:
    """Freeze the session and register chosen_text as the adjusted candidate."""
    if session.stage == STAGE_FINALIZED:
        raise StageError(f"session {session.session_id!r} is already finalized")
    session.require_stage(STAGE_POLISH)
    if not any(t.stage_at_send == STAGE_POLISH for t in session.turns):
        raise StageError("cannot finalize before at least one Polish turn")
    if not chosen_text.strip():
        raise ValidationError("chosen translation text is empty")

    existing = [c for c in case.candidates if c.origin == ORIGIN_ADJUSTED]
    if existing:
        existing[0].text = chosen_text
    else:
        case.candidates.append(TranslationCandidate(
            id="llm-final",
            origin=ORIGIN_ADJUSTED,
            translator_label=session.translation_model,
            text=chosen_text,
        ))
    save_case(case, cases_dir)

    session.final_text = chosen_text
    session.stage = STAGE_FINALIZED
    store.save(session)
    return session


def _send_turn(session: ScaffoldSession, case: SourceCase, supplement: str,
               deps: ScaffoldDeps) -> None:
    """Send the current stage's prompt after the conversation so far (the
    previous turn's request and reply) and append the turn naming its
    transcript."""
    history = []
    if session.turns:
        history = deps.transcripts.load(session.turns[-1].call_id).conversation()
    prompt = render_stage_prompt(session.stage, case, supplement)
    _, transcript = complete(deps.provider, [*history, {"role": "user", "content": prompt}],
                             deps.transcripts, transport=deps.transport)
    session.turns.append(Turn(session.stage, transcript.call_id, supplement))
