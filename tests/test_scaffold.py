from __future__ import annotations

import json

import pytest

from blindeval.errors import StageError, TransportError, ValidationError
from blindeval.provider import TranscriptStore, mock_config
from blindeval.scaffold import (Diagnosis, ScaffoldDeps, ScaffoldSession, SessionStore, advance,
                                finalize, record_diagnosis, render_stage_prompt, start_session)

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


def sent_prompt(deps, turn):
    """The prompt ``turn`` sent: the last user message of its transcript."""
    messages = json.loads(deps.transcripts.load(turn.call_id).request_text)["messages"]
    return [m["content"] for m in messages if m["role"] == "user"][-1]


def test_start_session_sends_the_baseline_and_saves_once_at_diagnose(corpus, deps):
    session = start_session(corpus.get("case1"), deps)
    assert session.stage == "Diagnose"
    assert [t.stage_at_send for t in session.turns] == ["Baseline"]
    assert deps.store.load(session.session_id) == session


def test_failed_baseline_call_leaves_no_session(corpus, deps):
    def refusing(config, request_text, api_key):
        return 400, "bad request"
    deps.transport = refusing
    with pytest.raises(TransportError):
        start_session(corpus.get("case1"), deps)
    assert list(deps.store.directory.iterdir()) == []


def test_two_sessions_get_distinct_ids(corpus, deps):
    a = start_session(corpus.get("case1"), deps)
    b = start_session(corpus.get("case1"), deps)
    assert a.session_id != b.session_id
    session_files = [p.name for p in deps.store.directory.iterdir()]
    assert sorted(session_files) == sorted([f"{a.session_id}.json", f"{b.session_id}.json"])


def test_baseline_response_stored_verbatim(corpus, tmp_path):
    reply = 'When the wind blows contrarily it is called the "deficient wind".'
    deps = ScaffoldDeps(provider=mock_config("deepseek"),
                        store=SessionStore(tmp_path / "s"),
                        transcripts=TranscriptStore(tmp_path / "t"),
                        transport=canned_transport(reply))
    session = start_session(corpus.get("case1"), deps)
    assert session.stage == "Diagnose"
    assert deps.transcripts.load(session.turns[0].call_id).response_text == reply
    assert "deficient wind" not in deps.store.path_for(session.session_id).read_text()


def test_baseline_prompt_includes_source_and_reasoning_request(corpus):
    prompt = render_stage_prompt("Baseline", corpus.get("case1"))
    assert corpus.get("case1").source_text in prompt
    assert "reasoning" in prompt


def test_diagnosis_routes_to_figures(corpus, deps):
    session = start_session(corpus.get("case1"), deps)
    session = record_diagnosis(
        session, Diagnosis(False, frozenset({"figure_recognition_gap"})), deps.store)
    assert session.stage == "IdentifyFigures"
    assert session.pending_stages == ["Polish"]


def test_diagnosis_knowledge_and_figures_queue_in_order(corpus, deps):
    session = start_session(corpus.get("case4"), deps)
    session = record_diagnosis(
        session, Diagnosis(False, frozenset({"knowledge_gap", "figure_recognition_gap"})), deps.store)
    assert session.stage == "InjectKnowledge"
    assert session.pending_stages == ["IdentifyFigures", "Polish"]


def test_adequate_goes_straight_to_polish(corpus, deps):
    session = start_session(corpus.get("case2"), deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    assert session.stage == "Polish"


def test_linguistic_gap_only_goes_to_polish(corpus, deps):
    session = start_session(corpus.get("case2"), deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"linguistic_gap"})), deps.store)
    assert session.stage == "Polish"


def test_adequate_with_modes_is_invalid():
    with pytest.raises(ValidationError):
        Diagnosis(True, frozenset({"knowledge_gap"}))


def test_unknown_mode_is_invalid():
    with pytest.raises(ValidationError, match="mystery"):
        Diagnosis(False, frozenset({"mystery"}))


def test_diagnose_requires_baseline_turn(deps):
    # session files come from outside the program; one may name no turn
    session = ScaffoldSession("case1-deepseek-01", "case1", "deepseek/deepseek-chat",
                              stage="Diagnose")
    with pytest.raises(StageError, match="baseline"):
        record_diagnosis(session, Diagnosis(True), deps.store)


def test_advance_through_figures_to_polish(corpus, deps):
    case = corpus.get("case1")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"figure_recognition_gap"})),
                               deps.store)
    session = advance(session, "Taiyi sets the seasonal orientation; wind lacking it is void wind.",
                      case, deps)
    assert session.stage == "Polish"
    assert session.turns[-1].stage_at_send == "IdentifyFigures"
    assert "Taiyi" in sent_prompt(deps, session.turns[-1])


def test_injection_stage_requires_supplement(corpus, deps):
    case = corpus.get("case1")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"knowledge_gap"})), deps.store)
    with pytest.raises(ValidationError, match="supplement"):
        advance(session, "   ", case, deps)


def test_hold_keeps_stage_for_another_round(corpus, deps):
    case = corpus.get("case1")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"knowledge_gap"})), deps.store)
    session = advance(session, "first excerpt", case, deps, hold=True)
    assert session.stage == "InjectKnowledge"
    session = advance(session, "second excerpt", case, deps)
    assert session.stage == "Polish"


def test_polish_prompt_contains_fixed_instructions(corpus, deps):
    case = corpus.get("case2")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    session = advance(session, "", case, deps)
    prompt = sent_prompt(deps, session.turns[-1])
    assert "preserve the source text's structural ordering" in prompt
    assert "dynamic verbal expressions" in prompt
    assert session.stage == "Polish"  # polish self-loops until finalize


def test_advance_after_finalize_is_a_stage_error(corpus, deps, tmp_path):
    case = corpus.get("case2")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    session = advance(session, "", case, deps)
    session = finalize(session, CASE2_ADJUSTED, case, deps.store, tmp_path)
    with pytest.raises(StageError):
        advance(session, "more", case, deps)


def test_finalize_registers_adjusted_candidate(corpus, deps, tmp_path):
    case = corpus.get("case2")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    session = advance(session, "", case, deps)
    session = finalize(session, CASE2_ADJUSTED, case, deps.store, tmp_path)
    assert session.stage == "Finalized"
    assert session.final_text == CASE2_ADJUSTED
    adjusted = [c for c in case.candidates if c.origin == "llm_adjusted"]
    assert len(adjusted) == 1
    assert "Summer (Fire-Qi) ascends" in adjusted[0].text
    assert (tmp_path / "case2.json").exists()


def test_finalize_requires_polish_turn(corpus, deps, tmp_path):
    case = corpus.get("case3")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    with pytest.raises(StageError, match="Polish"):
        finalize(session, "text", case, deps.store, tmp_path)


def test_finalize_twice_is_immutable(corpus, deps, tmp_path):
    case = corpus.get("case2")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    session = advance(session, "", case, deps)
    session = finalize(session, CASE2_ADJUSTED, case, deps.store, tmp_path)
    with pytest.raises(StageError, match="finalized"):
        finalize(session, "other text", case, deps.store, tmp_path)


def test_finalize_empty_text_rejected(corpus, deps, tmp_path):
    case = corpus.get("case2")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(True), deps.store)
    session = advance(session, "", case, deps)
    with pytest.raises(ValidationError):
        finalize(session, "  ", case, deps.store, tmp_path)


def test_session_replay_reproduces_prompts_byte_for_byte(corpus, deps):
    case = corpus.get("case1")
    session = start_session(case, deps)
    session = record_diagnosis(
        session, Diagnosis(False, frozenset({"knowledge_gap", "figure_recognition_gap"})), deps.store)
    session = advance(session, "classical commentary excerpt", case, deps)
    session = advance(session, "void-wind mapping", case, deps)
    session = advance(session, "tighten the phrasing", case, deps)

    reloaded = deps.store.load(session.session_id)
    assert len(reloaded.turns) == 4
    replayed = [render_stage_prompt(t.stage_at_send, case, t.supplement) for t in reloaded.turns]
    assert replayed == [sent_prompt(deps, t) for t in reloaded.turns]


def test_each_stage_prompt_follows_the_conversation_so_far(corpus, deps):
    case = corpus.get("case1")
    deps.transport = lambda config, request_text, api_key: (200, json.dumps(
        {"choices": [{"message": {"content": f"reply {len(request_text)}"}}]}))
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"knowledge_gap"})), deps.store)
    session = advance(session, "classical commentary excerpt", case, deps)
    session = advance(session, "", case, deps)
    first, second, third = (deps.transcripts.load(t.call_id) for t in session.turns)
    messages = json.loads(third.request_text)["messages"]
    assert [m["role"] for m in messages] == ["user", "assistant", "user", "assistant", "user"]
    assert messages[1]["content"] == first.response_text
    assert messages[3]["content"] == second.response_text
    assert messages[:4] == second.conversation()
    assert messages[4]["content"] == render_stage_prompt("Polish", case)


def test_store_round_trip_preserves_state(corpus, deps):
    case = corpus.get("case3")
    session = start_session(case, deps)
    session = record_diagnosis(session, Diagnosis(False, frozenset({"linguistic_gap"})), deps.store)
    loaded = deps.store.load(session.session_id)
    assert loaded == session
    (turn,) = loaded.turns
    assert sent_prompt(deps, turn) == render_stage_prompt(turn.stage_at_send, case)
