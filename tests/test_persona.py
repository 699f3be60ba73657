from __future__ import annotations

from pathlib import Path

import pytest

from blindeval.blinding import make_blind_plan, paper_layout_plan, unblind
from blindeval.errors import BlindingLeakError, RenderError, ValidationError
from blindeval.persona import (ANCHORS, BLOCKS, DIMENSIONS, QuestionnaireTemplate, ReaderRole,
                               concept_block_for_case, count_word, default_template, load_roles,
                               load_template, render_evaluation_prompt, save_role, save_template)
from oracles import DEMO_CONCEPT_BLOCK

GOLDEN = (Path(__file__).parent / "data" / "questionnaire_golden.txt").read_text(encoding="utf-8")


def render_golden_part(template: QuestionnaireTemplate) -> str:
    """The intro and the six blocks, as a judge prompt carries them for
    four candidates, laid out as the golden copy is."""
    return template.render_intro(4) + "\n\n" + template.render_blocks(DEMO_CONCEPT_BLOCK, 4) + "\n"


def test_default_questionnaire_matches_golden_copy_exactly():
    assert render_golden_part(default_template()) == GOLDEN  # diff must be empty


def test_all_six_headings_present_in_golden():
    for block in BLOCKS:
        assert block.heading in GOLDEN


def test_all_five_anchor_sets_present_verbatim():
    for dim in DIMENSIONS:
        joined = " – ".join(ANCHORS[dim])
        assert joined in GOLDEN
        assert joined in default_template().blocks_template


def test_rating_blocks_and_dimensions_in_bijection():
    rating_dims = [b.dimension for b in BLOCKS if b.dimension]
    assert sorted(rating_dims) == sorted(DIMENSIONS)
    assert len(rating_dims) == 5


def test_template_missing_anchor_text_fails_validation():
    stripped = default_template().blocks_template.replace("very easy", "trivially easy")
    with pytest.raises(ValidationError, match="CognitiveLoad"):
        QuestionnaireTemplate(blocks_template=stripped)


def test_count_words():
    assert count_word(4) == "four"
    assert count_word(2) == "two"
    assert count_word(11) == "11"


# --- prompt rendering ---------------------------------------------------------


def test_candidates_appear_in_label_order(corpus, roles):
    case = corpus.get("case1")
    plan = paper_layout_plan(case)
    prompt = render_evaluation_prompt(roles["R2"], case, plan, default_template())
    # paper-layout case1: label 1 hides the scaffolded (final) text
    first = prompt.user_text.index("Translation 1:")
    assert case.get_candidate("llm-final").text in prompt.user_text
    section = prompt.user_text[first:prompt.user_text.index("Translation 2:")]
    assert case.get_candidate(unblind(plan, 1)).text in section
    positions = [prompt.user_text.index(f"Translation {i}:") for i in range(1, 5)]
    assert positions == sorted(positions)


def test_prompt_carries_the_golden_intro_and_blocks(corpus, roles):
    template = default_template()
    case = corpus.get("case1")
    prompt = render_evaluation_prompt(roles["R1"], case, make_blind_plan(case, seed=4), template)
    assert prompt.messages() == [{"role": "user", "content": prompt.user_text}]
    assert template.render_intro(4) in prompt.user_text
    assert template.render_blocks(concept_block_for_case(case), 4) in prompt.user_text


def test_prompt_contains_all_blocks_and_contract(corpus, roles):
    case = corpus.get("case2")
    plan = make_blind_plan(case, seed=4)
    prompt = render_evaluation_prompt(roles["R1"], case, plan, default_template())
    for block in BLOCKS:
        assert block.heading in prompt.user_text
    assert "You are now playing the role of" in prompt.user_text
    assert "fully immerse yourself in this role" in prompt.user_text
    assert "```scores" in prompt.user_text
    assert "exactly 20 lines" in prompt.user_text


def test_render_is_deterministic(corpus, roles):
    case = corpus.get("case3")
    plan = make_blind_plan(case, seed=12)
    a = render_evaluation_prompt(roles["R3"], case, plan, default_template())
    b = render_evaluation_prompt(roles["R3"], case, plan, default_template())
    assert a.render_hash == b.render_hash
    assert a.user_text == b.user_text


def test_render_hash_tracks_inputs(corpus, roles):
    case = corpus.get("case3")
    plan = make_blind_plan(case, seed=12)
    base = render_evaluation_prompt(roles["R3"], case, plan, default_template())
    other_role = render_evaluation_prompt(roles["R1"], case, plan, default_template())
    assert base.render_hash != other_role.render_hash


def test_plan_case_mismatch_rejected(corpus, roles):
    plan = make_blind_plan(corpus.get("case1"), seed=1)
    with pytest.raises(RenderError, match="case"):
        render_evaluation_prompt(roles["R1"], corpus.get("case2"), plan, default_template())


def test_poisoned_persona_trips_leak_detector(corpus):
    case = corpus.get("case1")
    plan = make_blind_plan(case, seed=5)
    poisoned = ReaderRole(id="RX", persona_text="a reader who loves Unschuld's style.")
    with pytest.raises(BlindingLeakError, match="unschuld"):
        render_evaluation_prompt(poisoned, case, plan, default_template())


def test_prompt_never_contains_provenance(corpus, roles):
    from blindeval.blinding import scan_for_leaks

    for case in corpus:
        plan = make_blind_plan(case, seed=33)
        for role in roles.values():
            prompt = render_evaluation_prompt(role, case, plan, default_template())
            assert scan_for_leaks(prompt.user_text, case) == []


# --- disk formats ---------------------------------------------------------------


def test_role_files_round_trip(roles, tmp_path):
    for role in roles.values():
        save_role(role, tmp_path)
    loaded = load_roles(tmp_path)
    assert sorted(loaded) == ["R1", "R2", "R3"]
    assert loaded["R2"].persona_text == roles["R2"].persona_text


def test_template_file_round_trip(tmp_path):
    save_template(default_template(), tmp_path)
    loaded = load_template(tmp_path)
    assert render_golden_part(loaded) == GOLDEN
