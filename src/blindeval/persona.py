"""Reader roles and deterministic judge-prompt rendering.

A rendered prompt is persona + blinded case + labeled candidate texts +
the six-block questionnaire + a machine-readable output contract.  The
render is pure and hash-stamped, and it refuses to produce any text that
contains candidate provenance strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .blinding import BlindPlan, assert_no_leaks, unblind
from .corpus import SourceCase
from .errors import RenderError, ValidationError
from .store import read_text, write_text

DIMENSIONS = ("Clarity", "CognitiveLoad", "Confidence", "Preference", "Transferability")

#: Likert anchor wordings, one set per rating-bearing block.
ANCHORS = {
    "Clarity": ("unclear", "somewhat unclear", "average", "fairly clear", "very clear"),
    "CognitiveLoad": ("difficult", "somewhat difficult", "average", "relatively easy", "very easy"),
    "Confidence": ("no confidence", "low confidence", "average", "fairly confident", "very confident"),
    "Preference": ("would never choose", "unlikely to choose", "neutral", "somewhat likely", "very likely"),
    "Transferability": ("would not apply at all", "unlikely to apply", "neutral",
                        "likely to apply", "definitely would apply"),
}


@dataclass(frozen=True)
class QuestionBlock:
    block_id: str
    heading: str
    dimension: str | None  # None for the non-rating restatement block


BLOCKS = (
    QuestionBlock("understanding", "Degree of understanding and points of confusion", "Clarity"),
    QuestionBlock("restatement", "Concept restatement and meaning construction", None),
    QuestionBlock("cognitive_load", "Cognitive load", "CognitiveLoad"),
    QuestionBlock("confidence", "Confidence in understanding", "Confidence"),
    QuestionBlock("preference", "Translation preference", "Preference"),
    QuestionBlock("transferability", "Transferability of theory to clinical practice", "Transferability"),
)


@dataclass(frozen=True)
class ReaderRole:
    id: str
    persona_text: str

    def __post_init__(self):
        if not self.persona_text.strip():
            raise ValidationError(f"role {self.id!r} has empty persona text")


ROLE_PREAMBLE = (
    "You are now playing the role of {persona}\n"
    "\n"
    "Your native language is English, and you should fully immerse yourself in this role."
)

#: Slots: {count_word} is the written-out candidate count, {concepts} the
#: per-passage concept list of block 1.
INTRO_TEMPLATE = (
    "After reading the following {count_word} English translations of passages from "
    "the *Huangdi Neijing* (黄帝内经), complete the tasks below and "
    "demonstrate your actual process of understanding:"
)

BLOCKS_TEMPLATE = """\
1. Degree of understanding and points of confusion:

After reading the {count_word} translations, which translation gave you a clearer understanding of the following concepts:

{concepts}

Rate each of the {count_word} translations (1 2 3 4 5: unclear – somewhat unclear – average – fairly clear – very clear).

For each translation, circle all the words or expressions that you find confusing, unnatural, or not immediately understandable. Explain the specific reasons for each point of confusion.

2. Concept restatement and meaning construction

Using your own words, restate the main theoretical ideas presented in each of the {count_word} translations.

During this restatement, in what areas did you find yourself “filling in the gaps” or making guesses?

Which medical or health-related concepts that you already know did these translations make you think of?

3. Cognitive load

Rate the difficulty of understanding each of the {count_word} translations, noting that the rating is relative **within the domain of TCM theory**, not in comparison to casual or popular texts.

(1 2 3 4 5: difficult – somewhat difficult – average – relatively easy – very easy)

Where do the main sources of difficulty among the {count_word} translations come from?

4. Confidence in understanding

Overall, how confident are you in your understanding?

(1 2 3 4 5: no confidence – low confidence – average – fairly confident – very confident)

If you had to make clinical decisions—such as explaining to a patient or forming a treatment plan—based on this understanding, would you feel comfortable?

5. Translation preference

Personally, which translation would you prefer to use when explaining the concepts to your patients or colleagues?

Rate each translation (1 2 3 4 5: would never choose – unlikely to choose – neutral – somewhat likely – very likely).

Why do you have this preference?

6. Transferability of theory to clinical practice

To what extent, and in what way, would you apply the theories in the translations to real diagnostic or therapeutic situations?

Rate each translation (1 2 3 4 5: would not apply at all – unlikely to apply – neutral – likely to apply – definitely would apply), and explain how you would apply it.

Did this text change your understanding of health or disease? If so, how?"""

_COUNT_WORDS = {2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
                7: "seven", 8: "eight", 9: "nine", 10: "ten"}

CONTRACT_VERSION = "scores-block/v1"

OUTPUT_CONTRACT_TEMPLATE = """\
Output format requirement:

Answer every task above in prose, in block order. Then end your reply with one fenced code block tagged "scores" that restates every rating you gave, one entry per line, in exactly this machine-readable form:

```scores
Clarity[1]=3
CognitiveLoad[1]=4
```

Use the dimension names Clarity, CognitiveLoad, Confidence, Preference and Transferability; the bracketed number is the translation's label (1 to {k}); the value is your 1-5 rating from the matching block. The block must contain exactly {total} lines, one for each of the {count_word} translations on each of the five dimensions, and nothing else."""


def count_word(k: int) -> str:
    return _COUNT_WORDS.get(k, str(k))


@dataclass(frozen=True)
class QuestionnaireTemplate:
    """The intro and six-block text of the questionnaire; constructing one
    checks that the block text carries every heading and anchor set."""
    intro_template: str = INTRO_TEMPLATE
    blocks_template: str = BLOCKS_TEMPLATE

    def __post_init__(self):
        for block in BLOCKS:
            if block.heading not in self.blocks_template:
                raise ValidationError(f"block heading {block.heading!r} missing from template text")
            if block.dimension:
                joined = " – ".join(ANCHORS[block.dimension])
                if joined not in self.blocks_template:
                    raise ValidationError(
                        f"anchor set for {block.dimension} ({joined!r}) missing from template text")

    def render_blocks(self, concepts: str, k: int) -> str:
        return (self.blocks_template
                .replace("{count_word}", count_word(k))
                .replace("{concepts}", concepts))

    def render_intro(self, k: int) -> str:
        return self.intro_template.replace("{count_word}", count_word(k))


def default_template() -> QuestionnaireTemplate:
    return QuestionnaireTemplate()


@dataclass(frozen=True)
class RenderedPrompt:
    user_text: str
    render_hash: str

    def messages(self) -> list[dict[str, str]]:
        return [{"role": "user", "content": self.user_text}]


def concept_block_for_case(case: SourceCase) -> str:
    return f"- {case.translation_focus}?"


def render_evaluation_prompt(
    role: ReaderRole,
    case: SourceCase,
    plan: BlindPlan,
    template: QuestionnaireTemplate,
) -> RenderedPrompt:
    """One-shot questionnaire prompt; candidates appear in public label order."""
    if plan.case_id != case.id:
        raise RenderError(f"plan is for case {plan.case_id!r}, not {case.id!r}")
    if sorted(plan.permutation) != sorted(case.candidate_ids()):
        raise RenderError(f"plan for case {case.id!r} does not cover its candidates")

    k = plan.k
    concepts = concept_block_for_case(case)
    parts = [
        ROLE_PREAMBLE.format(persona=role.persona_text),
        template.render_intro(k),
        "Context: " + case.context_note,
    ]
    for label in range(1, k + 1):
        candidate = case.get_candidate(unblind(plan, label))
        parts.append(f"Translation {label}:\n{candidate.text}")
    parts.append(template.render_blocks(concepts, k))
    parts.append(OUTPUT_CONTRACT_TEMPLATE.format(k=k, total=5 * k, count_word=count_word(k)))
    user_text = "\n\n".join(parts)

    assert_no_leaks(user_text, case, where="rendered prompt")

    digest = hashlib.sha256()
    for piece in (role.id, role.persona_text, case.id, case.source_text, case.context_note,
                  case.translation_focus, "|".join(plan.permutation),
                  template.intro_template, template.blocks_template, CONTRACT_VERSION):
        digest.update(piece.encode("utf-8"))
        digest.update(b"\x00")
    for label in range(1, k + 1):
        digest.update(case.get_candidate(unblind(plan, label)).text.encode("utf-8"))
        digest.update(b"\x00")
    return RenderedPrompt(user_text=user_text, render_hash=digest.hexdigest())


# --- disk formats -------------------------------------------------------------

def save_role(role: ReaderRole, personas_dir: Path) -> Path:
    return write_text(Path(personas_dir) / f"{role.id}.txt", role.persona_text + "\n")


def load_roles(personas_dir: Path) -> dict[str, ReaderRole]:
    roles = {}
    for path in sorted(Path(personas_dir).glob("*.txt")):
        roles[path.stem] = ReaderRole(id=path.stem,
                                      persona_text=read_text(path).rstrip("\n"))
    return roles


TEMPLATE_FILENAME = "questionnaire.default"
_TEMPLATE_SEPARATOR = "\n\n<<<blocks>>>\n\n"


def save_template(template: QuestionnaireTemplate, templates_dir: Path) -> Path:
    return write_text(Path(templates_dir) / TEMPLATE_FILENAME,
                      template.intro_template + _TEMPLATE_SEPARATOR + template.blocks_template + "\n")


def load_template(templates_dir: Path) -> QuestionnaireTemplate:
    path = Path(templates_dir) / TEMPLATE_FILENAME
    text = read_text(path)
    if text.endswith("\n"):
        text = text[:-1]
    if _TEMPLATE_SEPARATOR not in text:
        raise ValidationError(f"{path} lacks the intro/blocks separator")
    intro, blocks = text.split(_TEMPLATE_SEPARATOR, 1)
    return QuestionnaireTemplate(intro_template=intro, blocks_template=blocks)
