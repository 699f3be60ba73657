from __future__ import annotations

import json

import pytest

from blindeval.errors import StageError, ValidationError
from blindeval.provider import TranscriptStore, mock_config
from blindeval.scaffold import (Diagnosis, ScaffoldDeps, SessionStore, advance, finalize,
                                record_diagnosis, render_stage_prompt, replay_prompts,
                                request_baseline, start_session)

CASE2_ADJUSTED = ("Summer (Fire-Qi) ascends and thereby fuses the hardness of Autumn "
                  "(Metal-Qi). This is the dynamic balance of the conquest cycles.")


def canned_transport(reply="a careful rendering with reasoning."):
    def transport(config, request_text, api_key):
        return 200, json.dumps({"choices": [{"message": {"content": reply}}]})
    return transport


@pytest.fixture
def deps(tmp_path):
    return ScaffoldDeps(
        provider=mock_config("deepseek"),
        store=SessionStore(tmp_path / "sessions"),
        transcripts=TranscriptStore(tmp_path / "transcripts"),
        transport=canned_transport(),
    )


def _to_diagnose(case, deps):
    session = start_session(case, deps)
    return request_baseline(session, case, deps)


def test_start_session_is_baseline_with_no_turns(corpus, deps):
    session = start_session(corpus.get("case1"), deps)
    assert session.stage == "Baseline"
    assert session.turns == []


def test_two_sessions_get_distinct_ids(corpus, deps):
    a = start_session(corpus.get("case1"), deps)
    b = start_session(corpus.get("case1"), deps)
    assert a.session_id != b.session_id
    session_ids = [p.name for p in deps.store.directory.iterdir() if p.is_dir()]
    assert sorted(session_ids) == sorted([a.session_id, b.session_id])


def test_baseline_response_stored_verbatim(corpus, tmp_path):
    reply = 'When the wind blows contrarily it is called the "deficient wind".'
    deps = ScaffoldDeps(provider=mock_config("deepseek"),
                        store=SessionStore(tmp_path / "s"),
                        transcripts=TranscriptStore(tmp_path / "t"),
                        transport=canned_transport(reply))
    session = _to_diagnose(corpus.get("case1"), deps)
    assert session.stage == "Diagnose"
    assert session.turns[0].response_text == reply
    assert "deficient wind" in session.turns[0].response_text


def test_baseline_prompt_includes_source_and_reasoning_request(corpus):
    prompt = render_stage_prompt("Baseline", corpus.get("case1"))
    assert corpus.get("case1").source_text in prompt
    assert "reasoning" in prompt


def test_diagnosis_routes_to_figures(corpus, deps):
    session = _to_diagnose(corpus.get("case1"), deps)
    session = record_diagnosis(
        session, Diagnosis(False, frozenset({"figure_recognition_gap"})), deps)
    assert session.stage == "IdentifyFigures"
    assert session.pending_stages == ["Polish"]


def test_diagnosis_knowledge_and_figures_queue_in_order(corpus, deps):
    session = _to_diagnose(corpus.get("case4"), deps)
    session = record_diagnosis(
        session, Diagnosis(False, frozenset({"knowledge_gap", "figure_recognition_gap"})), deps)
    assert session.stage == "InjectKnowledge"
    assert session.pending_stages == ["IdentifyFigures", "Polish"]


def test_adequate_goes_straight_to_polish(corpus, deps):
    session = _to_diagnose(corpus.get("case2"), deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    assert session.stage == "Polish"


def test_linguistic_gap_only_goes_to_polish(corpus, deps):
    session = _to_diagnose(corpus.get("case2"), deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"linguistic_gap"})), deps)
    assert session.stage == "Polish"


def test_adequate_with_modes_is_invalid():
    with pytest.raises(ValidationError):
        Diagnosis(True, frozenset({"knowledge_gap"}))


def test_unknown_mode_is_invalid():
    with pytest.raises(ValidationError, match="mystery"):
        Diagnosis(False, frozenset({"mystery"}))


def test_diagnose_requires_baseline_turn(corpus, deps):
    session = start_session(corpus.get("case1"), deps)
    session.stage = "Diagnose"  # force past the gate without a turn
    with pytest.raises(StageError, match="baseline"):
        record_diagnosis(session, Diagnosis(True), deps)


def test_advance_through_figures_to_polish(corpus, deps):
    case = corpus.get("case1")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"figure_recognition_gap"})), deps)
    session = advance(session, "Taiyi sets the seasonal orientation; wind lacking it is void wind.",
                      case, deps)
    assert session.stage == "Polish"
    assert session.turns[-1].stage_at_send == "IdentifyFigures"
    assert "Taiyi" in session.turns[-1].prompt_text


def test_injection_stage_requires_supplement(corpus, deps):
    case = corpus.get("case1")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"knowledge_gap"})), deps)
    with pytest.raises(ValidationError, match="supplement"):
        advance(session, "   ", case, deps)


def test_hold_keeps_stage_for_another_round(corpus, deps):
    case = corpus.get("case1")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"knowledge_gap"})), deps)
    session = advance(session, "first excerpt", case, deps, hold=True)
    assert session.stage == "InjectKnowledge"
    session = advance(session, "second excerpt", case, deps)
    assert session.stage == "Polish"


def test_polish_prompt_contains_fixed_instructions(corpus, deps):
    case = corpus.get("case2")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    session = advance(session, "", case, deps)
    assert "preserve the source text's structural ordering" in session.turns[-1].prompt_text
    assert "dynamic verbal expressions" in session.turns[-1].prompt_text
    assert session.stage == "Polish"  # polish self-loops until finalize


def test_advance_after_finalize_is_a_stage_error(corpus, deps):
    case = corpus.get("case2")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    session = advance(session, "", case, deps)
    session = finalize(session, CASE2_ADJUSTED, case, corpus, deps)
    with pytest.raises(StageError):
        advance(session, "more", case, deps)


def test_finalize_registers_adjusted_candidate(corpus, deps, tmp_path):
    case = corpus.get("case2")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    session = advance(session, "", case, deps)
    session = finalize(session, CASE2_ADJUSTED, case, corpus, deps, cases_dir=tmp_path)
    assert session.stage == "Finalized"
    assert session.final_text == CASE2_ADJUSTED
    adjusted = [c for c in case.candidates if c.origin == "llm_adjusted"]
    assert len(adjusted) == 1
    assert "Summer (Fire-Qi) ascends" in adjusted[0].text
    assert (tmp_path / "case2.json").exists()


def test_finalize_requires_polish_turn(corpus, deps):
    case = corpus.get("case3")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    with pytest.raises(StageError, match="Polish"):
        finalize(session, "text", case, corpus, deps)


def test_finalize_twice_is_immutable(corpus, deps):
    case = corpus.get("case2")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    session = advance(session, "", case, deps)
    session = finalize(session, CASE2_ADJUSTED, case, corpus, deps)
    with pytest.raises(StageError, match="finalized"):
        finalize(session, "other text", case, corpus, deps)


def test_finalize_empty_text_rejected(corpus, deps):
    case = corpus.get("case2")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps)
    session = advance(session, "", case, deps)
    with pytest.raises(ValidationError):
        finalize(session, "  ", case, corpus, deps)


def test_session_replay_reproduces_prompts_byte_for_byte(corpus, deps):
    case = corpus.get("case1")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(
        session, Diagnosis(False, frozenset({"knowledge_gap", "figure_recognition_gap"})), deps)
    session = advance(session, "classical commentary excerpt", case, deps)
    session = advance(session, "void-wind mapping", case, deps)
    session = advance(session, "tighten the phrasing", case, deps)

    reloaded = deps.store.load(session.session_id)
    assert replay_prompts(reloaded, case) == [t.prompt_text for t in reloaded.turns]


def test_store_round_trip_preserves_state(corpus, deps):
    case = corpus.get("case3")
    session = _to_diagnose(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"linguistic_gap"})), deps)
    loaded = deps.store.load(session.session_id)
    assert loaded.stage == session.stage
    assert loaded.diagnosis == session.diagnosis
    assert [t.prompt_text for t in loaded.turns] == [t.prompt_text for t in session.turns]
    assert loaded.turns[0].provider_call_id == session.turns[0].provider_call_id
