from __future__ import annotations

import typing

import pytest

from blindeval import store
from blindeval.errors import RunDirectoryError, ValidationError
from blindeval.judge import EvaluationRecord
from blindeval.scaffold import Diagnosis, ScaffoldSession, Turn
from blindeval.store import from_doc, read_json, to_doc, write_json


def make_record(**overrides):
    fields = dict(case_id="case1", role_id="R1", model_id="gpt", repeat_index=0,
                  raw_response="reply", scores={2: {"Clarity": 4}, 1: {"Clarity": 3}},
                  interview={"b": "2", "a": "1"}, parse_mode="fenced", complete=True,
                  warnings=("w",), call_id="gpt-0123")
    fields.update(overrides)
    return EvaluationRecord(**fields)


def test_write_json_is_canonical(tmp_path):
    path = write_json(tmp_path / "doc.json", {"b": "虚邪", "a": [1, 2]})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": "虚邪"\n}\n')


def test_to_doc_converts_keys_tuples_and_frozensets():
    doc = to_doc(Diagnosis(adequate_rationale=False,
                           failure_modes=frozenset({"linguistic_gap", "knowledge_gap"})))
    assert doc == {"adequate_rationale": False, "notes": "",
                   "failure_modes": ["knowledge_gap", "linguistic_gap"]}
    record = to_doc(make_record())
    assert record["scores"] == {"2": {"Clarity": 4}, "1": {"Clarity": 3}}
    assert record["warnings"] == ["w"]


def test_round_trip_through_disk(tmp_path):
    record = make_record()
    write_json(tmp_path / "r.json", to_doc(record))
    assert from_doc(EvaluationRecord, read_json(tmp_path / "r.json")) == record

    session = ScaffoldSession(
        session_id="s", case_id="case1", translation_model="gpt/m",
        turns=[Turn("Baseline", "p", "r", "t", "c")],
        diagnosis=Diagnosis(adequate_rationale=False, failure_modes={"knowledge_gap"}))
    assert from_doc(ScaffoldSession, to_doc(session)) == session


def test_unreadable_files_raise_run_directory_error_naming_them(tmp_path):
    (tmp_path / "cut.json").write_text('{"case_id": "ca', encoding="utf-8")
    (tmp_path / "bytes.json").write_bytes(b'{"a": "\xff"}')
    (tmp_path / "utf16.json").write_text('{"a": 1}', encoding="utf-16")  # with a BOM
    for name in ("cut.json", "bytes.json", "utf16.json", "missing.json"):
        with pytest.raises(RunDirectoryError, match=name):
            read_json(tmp_path / name)


def test_crlf_document_reads_as_the_lf_one(tmp_path):
    doc = to_doc(make_record(raw_response="line 1\nline 2"))
    (tmp_path / "crlf.json").write_bytes(store.dumps(doc).replace("\n", "\r\n").encode("utf-8"))
    assert b"\r\n" in (tmp_path / "crlf.json").read_bytes()
    assert read_json(tmp_path / "crlf.json") == read_json(write_json(tmp_path / "lf.json", doc))


def test_from_doc_rejects_wrong_types_naming_the_field():
    doc = to_doc(make_record())
    doc["scores"] = [1, 2]
    with pytest.raises(ValidationError, match=r"^r\.json: EvaluationRecord\.scores: expected dict"):
        from_doc(EvaluationRecord, doc, "r.json")
    doc = to_doc(make_record())
    doc["repeat_index"] = True
    with pytest.raises(ValidationError, match="repeat_index"):
        from_doc(EvaluationRecord, doc)
    doc = to_doc(make_record())
    doc["scores"] = {"one": {}}
    with pytest.raises(ValidationError, match="integer key"):
        from_doc(EvaluationRecord, doc)


def test_from_doc_names_the_key_or_index_at_fault():
    with pytest.raises(ValidationError,
                       match=r"^providers\.json: \[acme\]: expected dict, got int$"):
        from_doc(dict[str, dict], {"ok": {}, "acme": 3}, "providers.json")
    doc = to_doc(make_record())
    doc["scores"]["1"]["Clarity"] = "3"
    with pytest.raises(ValidationError, match=(r"^r\.json: EvaluationRecord\.scores\[1\]\[Clarity\]: "
                                               r"expected int, got str$")):
        from_doc(EvaluationRecord, doc, "r.json")
    doc = to_doc(make_record())
    doc["warnings"] = ["w", None]
    with pytest.raises(ValidationError,
                       match=r"^EvaluationRecord\.warnings\[1\]: expected str, got NoneType$"):
        from_doc(EvaluationRecord, doc)
    session = to_doc(ScaffoldSession(session_id="s", case_id="case1", translation_model="gpt/m",
                                     turns=[Turn("Baseline", "p", "r", "t", "c")]))
    session["turns"][0]["prompt_text"] = 1
    with pytest.raises(ValidationError,
                       match=r"^ScaffoldSession\.turns\[0\]: Turn\.prompt_text: expected str, got int$"):
        from_doc(ScaffoldSession, session)


@pytest.mark.parametrize("field, value, message", [
    ("scores", {"1": {"Clarity": True}}, r"scores\[1\]\[Clarity\]: expected int, got bool"),
    ("interview", {"a": "1", "b": 2}, r"interview\[b\]: expected str, got int"),
    ("warnings", ["w", 3], r"warnings\[1\]: expected str, got int"),
])
def test_containers_of_leaves_keep_exact_types_and_locate_faults(field, value, message):
    doc = to_doc(make_record())
    doc[field] = value
    with pytest.raises(ValidationError, match=rf"^r\.json: EvaluationRecord\.{message}$"):
        from_doc(EvaluationRecord, doc, "r.json")


def test_float_container_keeps_integral_numbers_as_written():
    raw = {"a": 1, "b": 0.5}
    decoded = from_doc(dict[str, float], raw)
    assert decoded == raw and type(decoded["a"]) is int and decoded is not raw
    with pytest.raises(ValidationError, match=r"^\[a\]: expected float or int, got bool$"):
        from_doc(dict[str, float], {"a": True})


def test_from_doc_reports_the_first_fault_in_decoding_order():
    doc = to_doc(make_record())
    doc["scores"] = {"one": 3, "2": {}}
    with pytest.raises(ValidationError, match=r"^EvaluationRecord\.scores: expected an integer key"):
        from_doc(EvaluationRecord, doc)
    doc["scores"] = {"1": 3, "two": {}}
    with pytest.raises(ValidationError, match=r"^EvaluationRecord\.scores\[1\]: expected dict, got int$"):
        from_doc(EvaluationRecord, doc)


def test_from_doc_rejects_unknown_and_missing_fields():
    doc = to_doc(make_record())
    doc["extra"] = 1
    del doc["call_id"]
    with pytest.raises(ValidationError, match="unknown EvaluationRecord fields: extra"):
        from_doc(EvaluationRecord, doc)
    del doc["extra"]
    with pytest.raises(ValidationError, match="missing EvaluationRecord fields: call_id"):
        from_doc(EvaluationRecord, doc)


def test_decoder_is_built_once_per_type(monkeypatch):
    calls = []
    real = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda cls: calls.append(cls) or real(cls))
    store._decoder.cache_clear()
    try:
        doc = to_doc(make_record())
        for _ in range(3):
            from_doc(EvaluationRecord, doc)
        assert calls == [EvaluationRecord]
    finally:
        store._decoder.cache_clear()
