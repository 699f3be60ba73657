from __future__ import annotations

import pytest

from blindeval.corpus import (Corpus, SourceCase, TranslationCandidate, load_corpus, save_case,
                              validate_corpus)
from blindeval.errors import DuplicateIdError, ValidationError
from blindeval.store import from_doc, write_json
from oracles import to_doc


def make_case(case_id="c1", n_candidates=2, **overrides):
    candidates = overrides.pop("candidates", None)
    if candidates is None:
        candidates = [
            TranslationCandidate(id=f"cand{i}", origin="human",
                                 translator_label=f"Translator {i}", text=f"text {i}")
            for i in range(n_candidates)
        ]
    fields = dict(id=case_id, title="a case", source_text="some source",
                  context_note="context", translation_focus="focus", candidates=candidates)
    fields.update(overrides)
    return SourceCase(**fields)


def test_add_to_empty_corpus():
    corpus = Corpus()
    corpus.add(make_case("case1"))
    assert len(corpus) == 1
    assert "case1" in corpus


def test_duplicate_id_rejected_naming_the_id():
    corpus = Corpus()
    corpus.add(make_case("case1"))
    with pytest.raises(DuplicateIdError, match="case1"):
        corpus.add(make_case("case1"))


def test_demo_corpus_shape(corpus):
    # four cases, four candidates each
    assert len(corpus) == 4
    assert sum(len(case.candidates) for case in corpus) == 16


def test_insertion_order_preserved():
    corpus = Corpus()
    for cid in ("zz", "aa", "mm"):
        corpus.add(make_case(cid))
    assert [c.id for c in corpus] == ["zz", "aa", "mm"]


def test_validate_clean_corpus(corpus):
    assert validate_corpus(corpus) == []


def test_validate_is_idempotent_and_pure(corpus):
    first = validate_corpus(corpus)
    second = validate_corpus(corpus)
    assert first == second
    assert len(corpus) == 4


def test_two_adjusted_candidates_flagged():
    candidates = [
        TranslationCandidate(id="a", origin="llm_adjusted", translator_label="x", text="t"),
        TranslationCandidate(id="b", origin="llm_adjusted", translator_label="y", text="t"),
    ]
    corpus = Corpus()
    corpus.add(make_case("bad", candidates=candidates))
    violations = validate_corpus(corpus)
    assert len(violations) == 1
    assert violations[0].case_id == "bad"
    assert "llm_adjusted" in violations[0].message


def test_substitution_with_slot_present_flagged():
    candidates = [
        TranslationCandidate(id="left", origin="human", translator_label="L", text="t"),
        TranslationCandidate(id="right", origin="human", translator_label="R", text="t",
                             substituted_for="left"),
    ]
    corpus = Corpus()
    corpus.add(make_case("bad", candidates=candidates))
    violations = validate_corpus(corpus)
    assert len(violations) == 1
    assert "left" in violations[0].message


def test_substitution_with_slot_absent_is_fine():
    candidates = [
        TranslationCandidate(id="a", origin="human", translator_label="A", text="t"),
        TranslationCandidate(id="b", origin="human", translator_label="B", text="t",
                             substituted_for="missing-slot"),
    ]
    corpus = Corpus()
    corpus.add(make_case("ok", candidates=candidates))
    assert validate_corpus(corpus) == []


def test_empty_source_and_candidate_text_flagged():
    case = make_case("bad", source_text="")
    case.candidates[0].text = ""
    corpus = Corpus()
    corpus.add(case)
    messages = [v.message for v in validate_corpus(corpus)]
    assert any("source_text" in m for m in messages)
    assert any("empty text" in m for m in messages)


def test_single_candidate_flagged():
    corpus = Corpus()
    corpus.add(make_case("lonely", n_candidates=1))
    assert any("at least 2" in v.message for v in validate_corpus(corpus))


def test_roundtrip_preserves_all_fields(corpus, tmp_path):
    for case in corpus:
        save_case(case, tmp_path)
    loaded = load_corpus(tmp_path)
    assert [c.id for c in loaded] == sorted(c.id for c in corpus)
    for case in corpus:
        assert loaded.get(case.id) == case


def test_loader_rejects_unknown_fields():
    doc = to_doc(make_case())
    doc["surprise"] = 1
    with pytest.raises(ValidationError, match="surprise"):
        from_doc(SourceCase, doc)


def test_loader_rejects_unknown_candidate_fields():
    doc = to_doc(make_case())
    doc["candidates"][0]["rating"] = 5
    with pytest.raises(ValidationError, match="rating"):
        from_doc(SourceCase, doc)


def test_loader_rejects_missing_fields():
    doc = to_doc(make_case())
    del doc["context_note"]
    with pytest.raises(ValidationError, match="context_note"):
        from_doc(SourceCase, doc)


def test_slot_key_uses_substitution(corpus):
    case4 = corpus.get("case4")
    sub = case4.get_candidate("li-zhaoguo-sub")
    assert case4.slot_key(sub) == "unschuld"
    assert case4.slot_key(case4.get_candidate("li-zhaoguo")) == "li-zhaoguo"


def test_case_file_may_omit_translator_label_and_substituted_for(tmp_path):
    doc = to_doc(make_case())
    for entry in doc["candidates"]:
        del entry["translator_label"], entry["substituted_for"]
    write_json(tmp_path / "c1.json", doc)
    case = load_corpus(tmp_path).get("c1")
    assert [c.translator_label for c in case.candidates] == ["", ""]
    assert [c.substituted_for for c in case.candidates] == [None, None]
