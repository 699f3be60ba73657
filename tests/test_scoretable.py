from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeval.errors import ValidationError
from blindeval.scoretable import (CSV_COLUMNS, ScoreRow, ScoreTable, table_from_records,
                                  table_to_csv)
from conftest import run_mock_grid
from oracles import collapsed_by_lists, means_equal, table_from_csv


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
    assert table.collapsed()[("c", "r", "m", "cand", "Clarity")] == 3.0


def test_collapse_averages_repeats():
    rows = [ScoreRow("c", "r", "m", "cand", "Clarity", s, repeat=i)
            for i, s in enumerate([2, 5])]
    assert ScoreTable(rows).collapsed()[("c", "r", "m", "cand", "Clarity")] == 3.5


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
    assert table.collapsed() == collapsed_by_lists(rows)
    # scores in thirds, summed in table order by both
    thirds = table.transformed(lambda s: s / 3)
    collapsed, oracle = thirds.collapsed(), collapsed_by_lists(thirds.rows)
    assert collapsed.keys() == oracle.keys()
    assert means_equal(list(collapsed.values()), [oracle[cell] for cell in collapsed])


def test_collapsed_cannot_be_changed_by_a_caller():
    rows = [ScoreRow("c", "r", "m", "cand", "Clarity", s, repeat=i) for i, s in enumerate([2, 5])]
    table = ScoreTable(rows)
    key = ("c", "r", "m", "cand", "Clarity")
    collapsed = table.collapsed()
    with pytest.raises(TypeError):
        collapsed[key] = 1.0
    with pytest.raises(TypeError):
        del collapsed[key]
    assert table.collapsed() == {key: 3.5}


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
    assert table.collapsed()[("c1", "r", "m", "cand", "Clarity")] == 3.5
    assert [r.score for r in table.case_rows("c1")] == [2, 5]

    doubled = table.transformed(lambda s: 10 * s)
    assert doubled.collapsed()[("c1", "r", "m", "cand", "Clarity")] == 35.0
    assert [r.score for r in doubled.case_rows("c1")] == [20, 50]
    assert doubled.case_ids() == ["c1", "c2"]
    assert table.collapsed()[("c1", "r", "m", "cand", "Clarity")] == 3.5
    assert [r.score for r in table.case_rows("c1")] == [2, 5]


def test_case_rows_keep_table_order_and_are_empty_for_unknown_cases():
    rows = [ScoreRow(case, "r", "m", cand, "Clarity", 3)
            for cand in ("b", "a") for case in ("c2", "c1")]
    table = ScoreTable(rows)
    assert table.case_rows("c1") == (rows[3], rows[1])
    assert table.case_rows("nope") == ()
    assert table.case_ids() == ["c1", "c2"]


def test_csv_round_trip(mock_table):
    text = table_to_csv(mock_table)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    loaded = table_from_csv(text)
    assert sorted(r.key() for r in loaded) == sorted(r.key() for r in mock_table)
    assert loaded.rows == mock_table.rows


def test_row_fields_are_in_csv_column_order():
    assert ScoreRow._fields == ("case_id", "role_id", "model_id", "candidate_id",
                                "dimension", "score", "repeat")
    assert [f.removesuffix("_id") for f in ScoreRow._fields] == CSV_COLUMNS


def test_csv_is_in_key_order_whatever_the_row_order(mock_table):
    rows = list(mock_table.rows)
    random.Random(3).shuffle(rows)
    assert table_to_csv(ScoreTable(rows)) == table_to_csv(mock_table)


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
