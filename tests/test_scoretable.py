from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeval.errors import ValidationError
from blindeval.scoretable import (CSV_COLUMNS, ScoreRow, ScoreTable, _in_key_order,
                                  save_table_csv, table_from_records)
from conftest import run_mock_grid
from oracles import collapsed_by_lists, csv_text, means_equal, table_from_csv


def test_duplicate_key_rejected():
    row = ScoreRow("c", "r", "m", "cand", "Clarity", 3)
    with pytest.raises(ValidationError, match="duplicate"):
        ScoreTable([row, row])


def test_duplicate_key_error_names_the_first_repeat_in_row_order():
    a = ScoreRow("c", "r", "m", "cand", "Clarity", 3)
    b = ScoreRow("c", "r", "m", "cand", "Preference", 4)
    rows = [a, b, a._replace(score=2), b._replace(score=5)]
    with pytest.raises(ValidationError, match=re.escape(f"duplicate score key {a.key()}")):
        ScoreTable(rows)


def test_duplicate_keys_far_apart_in_the_input_rejected():
    rows = [ScoreRow(f"c{i:03d}", "r", "m", "cand", "Clarity", 3) for i in range(200)]
    rows.append(rows[0]._replace(score=4))
    with pytest.raises(ValidationError, match=re.escape(f"duplicate score key {rows[0].key()}")):
        ScoreTable(rows)


def test_rows_are_in_key_order_whatever_the_input_order(mock_table):
    rows = list(mock_table.rows)
    random.Random(11).shuffle(rows)
    table = ScoreTable(rows)
    assert table.rows == tuple(sorted(rows, key=ScoreRow.key))
    assert table.rows == mock_table.rows


_row_fields = st.tuples(st.sampled_from(["c1", "c2", "c10"]), st.sampled_from(["r1", "r2"]),
                        st.sampled_from(["gpt", "gemini"]), st.sampled_from("ab"),
                        st.sampled_from(["Clarity", "Preference"]), st.integers(0, 6),
                        st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(fields=st.lists(_row_fields, max_size=60), seed=st.integers(0, 2**16))
def test_case_first_sort_equals_one_sort_by_the_whole_key(fields, seed):
    # duplicate keys with different scores show the order among equal keys
    rows = [ScoreRow(*f) for f in fields]
    random.Random(seed).shuffle(rows)
    assert _in_key_order(rows) == tuple(sorted(rows, key=ScoreRow.key))


@settings(max_examples=200, deadline=None)
@given(fields=st.lists(_row_fields, max_size=60), seed=st.integers(0, 2**16))
def test_a_bad_row_is_named_as_after_one_sort_by_the_whole_key(fields, seed):
    rows = [ScoreRow(*f) for f in fields]
    random.Random(seed).shuffle(rows)

    def outcome(given_rows):
        try:
            return ScoreTable(given_rows).rows
        except ValidationError as exc:
            return str(exc)
    assert outcome(rows) == outcome(sorted(rows, key=ScoreRow.key))


def test_score_out_of_range_rejected():
    with pytest.raises(ValidationError):
        ScoreTable([ScoreRow("c", "r", "m", "cand", "Clarity", 6)])


@pytest.mark.parametrize("score", [0, 6])
def test_scores_outside_the_likert_range_rejected_naming_the_row(score):
    rows = [ScoreRow("c", "r", "m", "cand", "Clarity", 3, repeat=i) for i in range(50)]
    rows.append(ScoreRow("c", "r", "m", "cand", "Clarity", score, repeat=50))
    with pytest.raises(ValidationError,
                       match=rf"score {score} is not an integer in 1\.\.5 in ScoreRow\(.*repeat=50\)"):
        ScoreTable(rows)


@pytest.mark.parametrize("score", ["3", None, True, 3.0])
def test_non_integer_score_rejected_naming_the_row(score):
    row = ScoreRow("c", "r", "m", "cand", "Clarity", score)
    with pytest.raises(ValidationError, match=r"not an integer in 1\.\.5 in ScoreRow\(case_id='c'"):
        ScoreTable([row])


def test_rows_are_fixed_at_construction():
    rows = [ScoreRow("c", "r", "m", "cand", "Clarity", 3)]
    table = ScoreTable(rows)
    rows.append(ScoreRow("c", "r", "m", "cand", "Clarity", 9, repeat=1))
    assert len(table) == 1
    assert isinstance(table.rows, tuple)


def test_repeat_index_disambiguates():
    rows = [ScoreRow("c", "r", "m", "cand", "Clarity", 3, repeat=i) for i in range(3)]
    table = ScoreTable(rows)
    assert len(table) == 3
    assert list(table.collapsed()) == [(("c", "r", "m", "cand", "Clarity"), 3.0)]


def test_collapse_averages_repeats():
    rows = [ScoreRow("c", "r", "m", "cand", "Clarity", s, repeat=i)
            for i, s in enumerate([2, 5])]
    assert list(ScoreTable(rows).collapsed()) == [(("c", "r", "m", "cand", "Clarity"), 3.5)]


@settings(max_examples=100, deadline=None)
@given(scores=st.dictionaries(st.tuples(st.sampled_from(["c1", "c2"]), st.sampled_from(["r1", "r2"]),
                                        st.just("m"), st.sampled_from("ab"),
                                        st.sampled_from(["Clarity", "Preference"]), st.integers(0, 3)),
                              st.integers(1, 5), max_size=40),
       seed=st.integers(0, 2**16))
def test_collapsed_matches_the_list_oracle(scores, seed):
    rows = [ScoreRow(*key[:5], score, key[5]) for key, score in scores.items()]
    random.Random(seed).shuffle(rows)
    table = ScoreTable(rows)
    assert dict(table.collapsed()) == collapsed_by_lists(rows)
    # scores in thirds, summed in table order by both
    thirds = table.transformed(lambda s: s / 3)
    collapsed, oracle = dict(thirds.collapsed()), collapsed_by_lists(thirds.rows)
    assert collapsed.keys() == oracle.keys()
    assert means_equal(list(collapsed.values()), [oracle[cell] for cell in collapsed])


def test_collapsed_yields_each_cell_once_in_key_order(mock_table):
    collapsed = list(mock_table.collapsed())
    cells = [cell for cell, _ in collapsed]
    assert cells == sorted(set(cells))
    assert cells == sorted(collapsed_by_lists(mock_table.rows))
    assert list(mock_table.collapsed()) == collapsed


def test_slot_of_cannot_be_changed_by_a_caller():
    table = ScoreTable([ScoreRow("c", "r", "m", "cand", "Clarity", 3)], {("c", "cand"): "final"})
    slot_of = table.slot_of
    with pytest.raises(TypeError):
        slot_of["c", "cand"] = "baseline"
    with pytest.raises(TypeError):
        del slot_of["c", "cand"]
    assert table.slot_of == {("c", "cand"): "final"}


def test_transformed_table_has_its_own_index_and_collapse():
    rows = [ScoreRow(case, "r", "m", "cand", "Clarity", s, repeat=i)
            for case in ("c1", "c2") for i, s in enumerate([2, 5])]
    table = ScoreTable(rows)
    cell = ("c1", "r", "m", "cand", "Clarity")
    assert dict(table.collapsed())[cell] == 3.5
    assert [r.score for r in table.case_rows("c1")] == [2, 5]

    doubled = table.transformed(lambda s: 10 * s)
    assert dict(doubled.collapsed())[cell] == 35.0
    assert [r.score for r in doubled.case_rows("c1")] == [20, 50]
    assert doubled.case_ids() == ["c1", "c2"]
    assert dict(table.collapsed())[cell] == 3.5
    assert [r.score for r in table.case_rows("c1")] == [2, 5]


def test_case_rows_keep_table_order_and_are_empty_for_unknown_cases():
    rows = [ScoreRow(case, "r", "m", cand, "Clarity", 3)
            for cand in ("b", "a") for case in ("c2", "c1")]
    table = ScoreTable(rows)
    assert table.case_rows("c1") == (rows[3], rows[1])
    assert table.case_rows("nope") == ()
    assert table.case_ids() == ["c1", "c2"]


def test_csv_round_trip(mock_table, tmp_path):
    text = save_table_csv(mock_table, tmp_path / "scores.csv").read_bytes().decode("utf-8")
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    loaded = table_from_csv(text)
    assert sorted(r.key() for r in loaded) == sorted(r.key() for r in mock_table)
    assert loaded.rows == mock_table.rows


def test_row_fields_are_in_csv_column_order():
    assert ScoreRow._fields == ("case_id", "role_id", "model_id", "candidate_id",
                                "dimension", "score", "repeat")
    assert [f.removesuffix("_id") for f in ScoreRow._fields] == CSV_COLUMNS


def test_csv_is_in_key_order_whatever_the_row_order(mock_table, tmp_path):
    rows = list(mock_table.rows)
    random.Random(3).shuffle(rows)
    shuffled = save_table_csv(ScoreTable(rows), tmp_path / "shuffled.csv")
    assert shuffled.read_bytes() == save_table_csv(mock_table, tmp_path / "scores.csv").read_bytes()


def test_the_streamed_csv_is_the_csv_text(tmp_path):
    # fields the encoder must quote, and text that is not ASCII
    odd = ["c,1", 'say "hi"', "two\nlines", "cr\r\nlf", "草木", " padded "]
    rows = [ScoreRow(case, role, "m", "cand", "Clarity", 1 + i % 5, i)
            for i, (case, role) in enumerate(zip(odd, reversed(odd)))]
    table = ScoreTable(rows)
    written = save_table_csv(table, tmp_path / "scores.csv").read_bytes()
    assert written == csv_text(CSV_COLUMNS, table.rows).encode("utf-8")
    assert b"\r\n" in written and written.endswith(b"\n")


def _synthetic_rows(n_cases):
    # every string exists before the rows, so the rows' own allocation is the tuples
    cases = [f"case{c:04d}" for c in range(n_cases)]
    rng = random.Random(17)
    rows = [ScoreRow(case, role, model, cand, dim, rng.randint(1, 5), repeat)
            for case in cases for role in ("R1", "R2") for model in ("gpt", "gemini")
            for cand in ("human", "llm-final") for dim in ("Clarity", "Preference", "Confidence",
                                                          "CognitiveLoad", "Transferability")
            for repeat in (0, 1)]
    rng.shuffle(rows)
    return rows


def test_building_a_table_holds_no_key_per_row():
    # 20,000 rows; a sort keyed by the whole row key held a 6-tuple per row,
    # as much again as the rows themselves
    tracemalloc.start()
    try:
        rows = _synthetic_rows(250)
        rows_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table = ScoreTable(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 20_000
    assert peak - rows_bytes < rows_bytes / 2, (
        f"building peaked at {(peak - rows_bytes) / 1e6:.2f} MB over rows of {rows_bytes / 1e6:.2f} MB")


def test_saving_the_csv_holds_no_copy_of_the_file(tmp_path):
    # building the whole text first held it about three times over; what is
    # left is mostly the csv writer's own record buffer, a fixed 128 KB
    table = ScoreTable(_synthetic_rows(250))
    path = tmp_path / "scores.csv"
    tracemalloc.start()
    try:
        save_table_csv(table, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 4, f"saving peaked at {peak / 1e6:.2f} MB for a file of {size / 1e6:.2f} MB"


def test_from_records_unblinds_by_plan(corpus, roles, plans, tmp_path):
    _, records, _ = run_mock_grid(corpus, roles, plans, tmp_path / "records")
    table = table_from_records(records, plans, corpus)
    assert len(table) == 24 * 4 * 5  # records x labels x dimensions
    # every candidate id in the table is a real corpus candidate
    for row in table:
        assert row.candidate_id in corpus.get(row.case_id).candidate_ids()
    # the case4 substitute maps onto the absent slot
    assert table.slot_of["case4", "li-zhaoguo-sub"] == "unschuld"


def test_incomplete_records_excluded_by_default(corpus, roles, plans, tmp_path):
    _, records, _ = run_mock_grid(corpus, roles, plans, tmp_path / "records")
    crippled = records[0]
    partial_scores = {label: dict(per) for label, per in crippled.scores.items()}
    del partial_scores[1]["Clarity"]
    import dataclasses
    crippled = dataclasses.replace(crippled, scores=partial_scores, complete=False)
    records = [crippled] + records[1:]

    table = table_from_records(records, plans, corpus)
    assert len(table) == 23 * 20

    included = table_from_records(records, plans, corpus, include_incomplete=True)
    assert len(included) == 23 * 20 + 19


def test_missing_plan_rejected(corpus, roles, plans, tmp_path):
    _, records, _ = run_mock_grid(corpus, roles, plans, tmp_path / "records")
    del plans["case2"]
    with pytest.raises(ValidationError, match="case2"):
        table_from_records(records, plans, corpus)
