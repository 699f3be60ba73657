from __future__ import annotations

import hashlib
import json
import re

import pytest

from blindeval.errors import ProviderConfigError, TransportError
from blindeval.persona import DIMENSIONS
from blindeval.provider import (ProviderConfig, Transcript, TranscriptStore, canonical_request,
                                complete, make_mock_transport, mock_config, mock_judge_response)
from blindeval.store import from_doc, read_json

PROMPT_K4 = "\n".join(
    ["Please read these.", ""]
    + [f"Translation {i}:\nsome rendering {i}" for i in range(1, 5)]
)


def load_transcript(store: TranscriptStore, call_id: str) -> Transcript:
    """The transcript of ``call_id`` as read back from disk."""
    path = store.path_for(call_id)
    return from_doc(Transcript, read_json(path), path)


def _ok_body(content="hello"):
    return json.dumps({"choices": [{"message": {"content": content}}]})


def test_mock_transport_is_deterministic(tmp_path):
    config = mock_config("gpt")
    transport = make_mock_transport(seed=7)
    store = TranscriptStore(tmp_path)
    messages = [{"role": "user", "content": PROMPT_K4}]
    text1, t1 = complete(config, messages, transport=transport, store=store)
    transport2 = make_mock_transport(seed=7)
    text2, t2 = complete(config, messages, transport=transport2, store=store)
    assert text1 == text2
    assert t1.request_digest == t2.request_digest


def test_retry_429_then_200_succeeds_with_two_attempts(tmp_path):
    calls = []

    def flaky(config, request_text, api_key):
        calls.append(1)
        if len(calls) == 1:
            return 429, "slow down"
        return 200, _ok_body("fine")

    config = mock_config("gpt")
    slept = []
    text, transcript = complete(config, [{"role": "user", "content": "x"}],
                                transport=flaky, store=TranscriptStore(tmp_path),
                                sleep=slept.append)
    assert text == "fine"
    assert transcript.attempts == 2
    assert len(slept) == 1


def test_exhausted_retries_carry_last_status(tmp_path):
    def always_500(config, request_text, api_key):
        return 500, "boom"

    config = ProviderConfig(provider_id="p", endpoint="none", model="m",
                            credential_env="", max_retries=2, backoff_base=0.0)
    with pytest.raises(TransportError) as excinfo:
        complete(config, [{"role": "user", "content": "x"}],
                 transport=always_500, store=TranscriptStore(tmp_path), sleep=lambda s: None)
    assert excinfo.value.status == 500
    assert excinfo.value.attempts == 3  # first try + 2 retries


def test_non_retryable_status_fails_immediately(tmp_path):
    calls = []

    def forbidden(config, request_text, api_key):
        calls.append(1)
        return 403, "nope"

    config = mock_config("p")
    with pytest.raises(TransportError):
        complete(config, [{"role": "user", "content": "x"}], transport=forbidden,
                 store=TranscriptStore(tmp_path))
    assert len(calls) == 1


def test_missing_credential_names_the_variable(monkeypatch, tmp_path):
    monkeypatch.delenv("ACME_API_KEY", raising=False)
    config = ProviderConfig(provider_id="acme", endpoint="none", model="m")
    with pytest.raises(ProviderConfigError, match="ACME_API_KEY"):
        complete(config, [{"role": "user", "content": "x"}], transport=lambda *a: (200, _ok_body()),
                 store=TranscriptStore(tmp_path))


def test_empty_messages_rejected(tmp_path):
    with pytest.raises(ProviderConfigError):
        complete(mock_config("p"), [], transport=lambda *a: (200, _ok_body()),
                 store=TranscriptStore(tmp_path))


def test_transcript_persisted_before_return(tmp_path):
    store = TranscriptStore(tmp_path)
    _, transcript = complete(mock_config("p"), [{"role": "user", "content": "x"}],
                             transport=lambda *a: (200, _ok_body()), store=store)
    assert (tmp_path / f"{transcript.call_id}.json").exists()
    on_disk = load_transcript(store, transcript.call_id)
    assert hashlib.sha256(on_disk.request_text.encode("utf-8")).hexdigest() == on_disk.request_digest


def test_temperature_recorded_in_transcript(tmp_path):
    store = TranscriptStore(tmp_path)
    config = mock_config("p")
    _, transcript = complete(config, [{"role": "user", "content": "x"}],
                             transport=lambda *a: (200, _ok_body()), store=store)
    assert transcript.temperature == config.temperature
    on_disk = load_transcript(store, transcript.call_id)
    assert on_disk.temperature == config.temperature


def test_integral_temperature_sends_the_same_request(tmp_path):
    # providers.json may write the temperature as 0 or 0.0; both are one setting
    entry = {"provider_id": "acme", "endpoint": "https://acme.invalid/v1", "model": "m",
             "credential_env": ""}
    as_int = from_doc(ProviderConfig, {**entry, "temperature": 0})
    as_float = from_doc(ProviderConfig, {**entry, "temperature": 0.0})
    messages = [{"role": "user", "content": "x"}]
    assert canonical_request(as_int, messages) == canonical_request(as_float, messages)
    assert '"temperature": 0.0' in canonical_request(as_int, messages)
    # the transcript on disk writes the setting as the request sent it
    store = TranscriptStore(tmp_path)
    _, transcript = complete(as_int, messages, transport=lambda *a: (200, _ok_body()),
                             store=store)
    on_disk = json.loads((tmp_path / f"{transcript.call_id}.json").read_text())
    assert type(on_disk["temperature"]) is float
    assert json.loads(on_disk["request_text"])["temperature"] == on_disk["temperature"]


def test_malformed_body_is_a_transport_error(tmp_path):
    with pytest.raises(TransportError, match="malformed"):
        complete(mock_config("p"), [{"role": "user", "content": "x"}],
                 transport=lambda *a: (200, "not json"), store=TranscriptStore(tmp_path))


@pytest.mark.parametrize("content", [None, 3, ["x"]], ids=["null", "number", "list"])
def test_non_string_content_is_a_transport_error_and_leaves_no_transcript(tmp_path, content):
    with pytest.raises(TransportError, match="malformed"):
        complete(mock_config("p"), [{"role": "user", "content": "x"}],
                 transport=lambda *a: (200, _ok_body(content)), store=TranscriptStore(tmp_path))
    assert list(tmp_path.iterdir()) == []


# --- mock judge ------------------------------------------------------------------


def test_mock_emits_k_times_five_scores_in_range():
    text = mock_judge_response(7, PROMPT_K4)
    entries = re.findall(r"(\w+)\[(\d)\]=(\d)", text)
    assert len(entries) == 20
    for dim, label, value in entries:
        assert dim in DIMENSIONS
        assert 1 <= int(label) <= 4
        assert 1 <= int(value) <= 5


def test_mock_same_seed_same_text():
    assert mock_judge_response(3, PROMPT_K4) == mock_judge_response(3, PROMPT_K4)


def test_mock_different_requests_differ():
    other = PROMPT_K4 + "\nextra line"
    assert mock_judge_response(3, PROMPT_K4) != mock_judge_response(3, other)


def test_every_tenth_seed_omits_fenced_block():
    fallback_seeds = [s for s in range(1, 101) if "```scores" not in mock_judge_response(s, PROMPT_K4)]
    assert fallback_seeds == [s for s in range(1, 101) if s % 10 == 0]
    assert len(fallback_seeds) >= 1


def test_fallback_seed_carries_prose_scores():
    text = mock_judge_response(10, PROMPT_K4)
    assert "```scores" not in text
    assert re.search(r"Clarity: T1=\d", text)


def test_failed_save_leaves_no_transcript_file(tmp_path, monkeypatch):
    store = TranscriptStore(tmp_path)

    def failing_save(self, transcript):
        raise OSError("disk full")

    monkeypatch.setattr(TranscriptStore, "save", failing_save)
    with pytest.raises(OSError, match="disk full"):
        complete(mock_config("p"), [{"role": "user", "content": "x"}],
                 transport=lambda *a: (200, _ok_body()), store=store)
    assert list(tmp_path.iterdir()) == []


def test_reservations_of_one_digest_get_distinct_call_ids(tmp_path):
    store = TranscriptStore(tmp_path)
    digest = "ab" * 32
    first = store.assign_call_id("p", digest)
    second = store.assign_call_id("p", digest)
    assert first == "p-" + digest[:16]
    assert second == first + "-2"
    assert list(tmp_path.iterdir()) == []
