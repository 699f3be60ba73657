from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeval import store
from blindeval.errors import RunDirectoryError, ValidationError
from blindeval.judge import EvaluationRecord
from blindeval.provider import Transcript
from blindeval.scaffold import FAILURE_MODES, Diagnosis, ScaffoldSession, Turn
from blindeval.store import from_doc, read_json, write_json
from oracles import canonical_json, to_doc


def make_record(**overrides):
    fields = dict(case_id="case1", role_id="R1", model_id="gpt", repeat_index=0,
                  scores={2: {"Clarity": 4}, 1: {"Clarity": 3}}, parse_mode="fenced",
                  complete=True, warnings=("w",), call_id="gpt-0123")
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
        turns=[Turn("Baseline", "c")],
        diagnosis=Diagnosis(adequate_rationale=False, failure_modes={"knowledge_gap"}))
    assert from_doc(ScaffoldSession, to_doc(session)) == session


def test_unreadable_files_raise_run_directory_error_naming_them(tmp_path):
    (tmp_path / "cut.json").write_text('{"case_id": "ca', encoding="utf-8")
    (tmp_path / "bytes.json").write_bytes(b'{"a": "\xff"}')
    (tmp_path / "utf16.json").write_text('{"a": 1}', encoding="utf-16")  # with a BOM
    (tmp_path / "surrogate.json").write_text('{"a": ["x\\ud800"]}', encoding="utf-8")
    for name in ("cut.json", "bytes.json", "utf16.json", "surrogate.json", "missing.json"):
        with pytest.raises(RunDirectoryError, match=name):
            read_json(tmp_path / name)


def test_escapes_that_spell_characters_read_as_them(tmp_path):
    (tmp_path / "doc.json").write_text('{"\\u0001": "\\ud83d\\ude00\\u00e9"}', encoding="utf-8")
    assert read_json(tmp_path / "doc.json") == {"\x01": "\U0001f600\u00e9"}


# --- keyed documents -------------------------------------------------------------


def record_docs(directory):
    return store.Documents(directory, EvaluationRecord, EvaluationRecord.key)


def test_documents_save_and_load_round_trip(tmp_path):
    record = make_record(repeat_index=2)
    path = record_docs(tmp_path).save(record)
    assert path == tmp_path / "case1_R1_gpt_r2.json" == record_docs(tmp_path).path_for(record.key())
    assert path.read_text(encoding="utf-8") == store.dumps(record)
    assert record_docs(tmp_path).exists("case1_R1_gpt_r2")
    assert record_docs(tmp_path).load("case1_R1_gpt_r2") == record


def test_documents_load_all_in_file_name_order(tmp_path):
    keys = ["c10", "c9", "C2", "c1.5", "c-1"]
    for case_id in keys:
        record_docs(tmp_path).save(make_record(case_id=case_id))
    (tmp_path / "notes.txt").write_text("not a document", encoding="utf-8")
    loaded = record_docs(tmp_path).load_all()
    assert [r.case_id for r in loaded] == sorted(keys) == ["C2", "c-1", "c1.5", "c10", "c9"]


@pytest.mark.parametrize("case_id", [
    "../escaped", "a/b", "a\\b", ".hidden", "-x", "", "a__b", "x" * 65, "caf\u00e9", "c\ud800",
    "c\n"])
def test_documents_refuse_an_id_outside_the_grammar_and_write_nothing(tmp_path, case_id):
    directory = tmp_path / "records"
    directory.mkdir()
    record = make_record(case_id=case_id)
    with pytest.raises(ValidationError, match="is not 1-64 ASCII letters"):
        record_docs(directory).save(record)
    with pytest.raises(ValidationError):
        record_docs(directory).load(record.key())
    assert [p for p in tmp_path.rglob("*")] == [directory]


def test_check_id_refuses_the_key_separator():
    assert store.check_id("case1.v2-x") == "case1.v2-x"
    assert store.check_id("9" * 64) == "9" * 64
    with pytest.raises(ValidationError, match="'c_R1'"):
        store.check_id("c_R1")


def test_documents_refuse_a_document_under_another_name(tmp_path):
    path = record_docs(tmp_path).save(make_record())
    path.rename(tmp_path / "case2_R1_gpt.json")
    for load in (lambda: list(record_docs(tmp_path).load_all()),
                 lambda: record_docs(tmp_path).load("case2_R1_gpt")):
        with pytest.raises(ValidationError, match=r"case2_R1_gpt\.json: holds 'case1_R1_gpt'"):
            load()


def test_crlf_document_reads_as_the_lf_one(tmp_path):
    doc = to_doc(make_record(warnings=("line 1\nline 2",)))
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
                                     turns=[Turn("Baseline", "c")]))
    session["turns"][0]["call_id"] = 1
    with pytest.raises(ValidationError,
                       match=r"^ScaffoldSession\.turns\[0\]: Turn\.call_id: expected str, got int$"):
        from_doc(ScaffoldSession, session)


@dataclass(frozen=True)
class Containers:
    """A container of each kind of leaf that run-directory documents hold."""
    scores: dict[int, dict[str, int]]
    interview: dict[str, str]
    warnings: tuple[str, ...]


@pytest.mark.parametrize("field, value, message", [
    ("scores", {"1": {"Clarity": True}}, r"scores\[1\]\[Clarity\]: expected int, got bool"),
    ("interview", {"a": "1", "b": 2}, r"interview\[b\]: expected str, got int"),
    ("warnings", ["w", 3], r"warnings\[1\]: expected str, got int"),
])
def test_containers_of_leaves_keep_exact_types_and_locate_faults(field, value, message):
    doc = {"scores": {"1": {"Clarity": 3}}, "interview": {"a": "1"}, "warnings": ["w"]}
    assert from_doc(Containers, doc) == Containers({1: {"Clarity": 3}}, {"a": "1"}, ("w",))
    doc[field] = value
    with pytest.raises(ValidationError, match=rf"^r\.json: Containers\.{message}$"):
        from_doc(Containers, doc, "r.json")


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


# --- the one-pass writer against the two-step oracle -------------------------------


@dataclass(frozen=True)
class Leafy:
    zeta: object
    alpha: object = None


@dataclass
class Nest:
    inner: Leafy
    items: object
    mid: object


_AWKWARD = ["", "\x00\x1f\x7f", "\U0001F600 虚邪", "\u2028\u2029", '"\\/', "\ud7ff\ue000"]
leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
          | st.sampled_from([2, 10, True, 1, False, 0, -0.0, 1e16, 1e-7, math.nan, math.inf,
                             -math.inf, *_AWKWARD]))
# keys that collide or sort differently once written as strings, drawn often
awkward_keys = st.sampled_from([2, 10, 1, True, "1", "True", "10", "2"])
keys = awkward_keys | awkward_keys | st.text(max_size=6) | st.integers()
trees = st.recursive(
    leaves | st.frozensets(st.text(max_size=4)) | st.frozensets(st.integers()),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=5)
                      | st.builds(Leafy, children, children)
                      | st.builds(Nest, st.builds(Leafy, children), children, children)),
    max_leaves=24)


@given(trees)
@settings(max_examples=300)
def test_dumps_matches_the_two_step_oracle(tree):
    assert store.dumps(tree) == canonical_json(tree)


@pytest.mark.parametrize("tree, text", [
    ({2: "b", 10: "a"}, '{\n  "10": "a",\n  "2": "b"\n}\n'),
    ({1: "int", "1": "str"}, '{\n  "1": "str"\n}\n'),
    ([True, 1, {}, [], ()], '[\n  true,\n  1,\n  {},\n  [],\n  []\n]\n'),
    (frozenset({"b", "a"}), '[\n  "a",\n  "b"\n]\n'),
    ([-0.0, 1e16, math.nan, -math.inf], '[\n  -0.0,\n  1e+16,\n  NaN,\n  -Infinity\n]\n'),
    (Leafy(zeta="\U0001F600\x01"), '{\n  "alpha": null,\n  "zeta": "\U0001F600\\u0001"\n}\n'),
])
def test_dumps_known_texts(tree, text):
    assert store.dumps(tree) == canonical_json(tree) == text


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object(), [Leafy(zeta={"k": {3}})]])
def test_dumps_raises_jsons_type_error(bad, tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json(bad)
    with pytest.raises(TypeError, match="not JSON serializable"):
        store.dumps(bad)
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", bad)
    assert not (tmp_path / "bad.json").exists()


texts = st.text(max_size=20)
finite = st.floats(allow_nan=False)
records = st.builds(
    EvaluationRecord, case_id=texts, role_id=texts, model_id=texts, repeat_index=st.integers(),
    scores=st.dictionaries(st.integers(), st.dictionaries(texts, st.integers())),
    parse_mode=texts, complete=st.booleans(),
    warnings=st.lists(texts).map(tuple), call_id=texts)
transcripts = st.builds(Transcript, call_id=texts, provider_id=texts, request_digest=texts,
                        request_text=st.text(), response_text=st.text(), latency_s=finite,
                        attempts=st.integers(), timestamp=texts, temperature=finite)
sessions = st.builds(
    ScaffoldSession, session_id=texts, case_id=texts, translation_model=texts, stage=texts,
    turns=st.lists(st.builds(Turn, texts, texts, texts), max_size=3),
    diagnosis=st.none() | st.builds(Diagnosis, st.just(True), notes=texts)
    | st.builds(Diagnosis, st.just(False), st.frozensets(st.sampled_from(sorted(FAILURE_MODES))), texts),
    final_text=st.none() | texts, pending_stages=st.lists(texts, max_size=3))


@pytest.mark.parametrize("cls, values", [(EvaluationRecord, records), (Transcript, transcripts),
                                         (ScaffoldSession, sessions)])
@given(data=st.data())
def test_from_doc_round_trips_what_dumps_writes(cls, values, data):
    obj = data.draw(values)
    text = store.dumps(obj)
    assert text == canonical_json(obj)
    assert from_doc(cls, json.loads(text)) == obj
