from __future__ import annotations

import csv
import io
import random

import pytest

from blindeval import report
from blindeval.corpus import Corpus
from blindeval.persona import DIMENSIONS
from blindeval.report import (aggregate, build_report, case_csv, case_table, radar_csv,
                              radar_data, report_markdown, role_range_data, roles_csv)
from blindeval.scoretable import ScoreRow, ScoreTable, save_table_csv
from oracles import case_table_full_scan, csv_text, radar_full_scan, table_from_csv

DIMS = ("Clarity", "CognitiveLoad", "Confidence", "Preference", "Transferability")


def uniform_table(score=4):
    rows = [ScoreRow("c1", r, m, cand, d, score)
            for r in ("r1", "r2") for m in ("m1",) for cand in ("a", "b") for d in DIMS]
    return ScoreTable(rows)


def test_radar_all_fours():
    for summary in radar_data(uniform_table(4)):
        assert summary.mean == 4.0
        assert summary.min == summary.max == 4
        assert summary.n == 2


def test_radar_fixed_dimension_order():
    dims = [s.dimension for s in radar_data(uniform_table())]
    assert dims == sorted(dims, key=lambda d: DIMS.index(d))
    assert dims[0] == "Clarity" and dims[-1] == "Transferability"


def test_role_range_single_score_group():
    table = ScoreTable([ScoreRow("c1", "r1", "m1", "a", "Clarity", 3)])
    [summary] = role_range_data(table)
    assert summary.range == 0
    assert summary.n == 1


def test_role_range_two_and_five():
    rows = [ScoreRow("c1", "r1", "m1", "a", "Clarity", 2),
            ScoreRow("c1", "r1", "m1", "a", "Preference", 5)]
    [summary] = role_range_data(ScoreTable(rows))
    assert summary.mean == 3.5
    assert summary.range == 3


def test_case_table_all_fives():
    rows = [ScoreRow("c1", "r1", "m1", "a", d, 5) for d in DIMS]
    [row] = case_table(ScoreTable(rows), "c1")
    assert row.mean_display == "5.00"


def test_case_table_renders_reference_style_values():
    # means injected as precomputed fixtures: 87x5 + 13x4 -> 4.87,
    # 50x4 + 50x3 -> 3.50, displayed in the two-column layout
    rows = []
    for i in range(100):
        rows.append(ScoreRow("c1", "r1", "m1", "base", "Clarity", 5 if i < 87 else 4, repeat=i))
        rows.append(ScoreRow("c1", "r1", "m1", "adj", "Clarity", 4 if i < 50 else 3, repeat=i))
    table = ScoreTable(rows)
    by_id = {r.candidate_id: r for r in case_table(table, "c1")}
    assert by_id["base"].mean_display == "4.87"
    assert by_id["adj"].mean_display == "3.50"
    rows = case_csv(case_table(table, "c1"))
    assert ("base", "base", "4.87", "4.87", 100) in rows
    assert ("adj", "adj", "3.5", "3.50", 100) in rows


def test_case_table_unknown_case():
    with pytest.raises(Exception):
        case_table(uniform_table(), "nope")


def test_every_mean_recomputable_from_exported_csv(mock_table, tmp_path):
    exported = save_table_csv(mock_table, tmp_path / "scores.csv").read_text(encoding="utf-8")
    reloaded = table_from_csv(exported)
    slot_of = mock_table.slot_of

    groups = {}
    for row in reloaded:
        key = (row.dimension, slot_of[(row.case_id, row.candidate_id)])
        groups.setdefault(key, []).append(row.score)
    for summary in radar_data(mock_table):
        expected = sum(groups[(summary.dimension, summary.candidate)]) / summary.n
        assert abs(summary.mean - expected) < 1e-9

    role_groups = {}
    for row in reloaded:
        key = (row.role_id, slot_of[(row.case_id, row.candidate_id)])
        role_groups.setdefault(key, []).append(row.score)
    for summary in role_range_data(mock_table):
        values = role_groups[(summary.role, summary.candidate)]
        assert abs(summary.mean - sum(values) / len(values)) < 1e-9
        assert summary.range == max(values) - min(values)

    for case_id in mock_table.case_ids():
        for row in case_table(mock_table, case_id):
            values = [r.score for r in reloaded
                      if r.case_id == case_id and r.candidate_id == row.candidate_id]
            assert abs(row.mean - sum(values) / len(values)) < 1e-9


def test_csv_emission_is_parseable(mock_table, corpus, plans, tmp_path):
    build_report(tmp_path, mock_table, corpus, plans)
    for name, header, rows in (
            ("radar.csv", report.RADAR_COLUMNS, radar_csv(radar_data(mock_table))),
            ("roles.csv", report.ROLES_COLUMNS, roles_csv(role_range_data(mock_table)))):
        text = (tmp_path / name).read_bytes().decode("utf-8")
        assert text == csv_text(header, rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert len(parsed) > 1
        assert all(len(r) == len(header) for r in parsed)


def test_report_generation_deterministic(mock_table, corpus, plans, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    build_report(a_dir, mock_table, corpus, plans)
    build_report(b_dir, mock_table, corpus, plans)
    for path in sorted(a_dir.rglob("*")):
        if path.is_file():
            twin = b_dir / path.relative_to(a_dir)
            assert path.read_bytes() == twin.read_bytes()


def test_report_markdown_contents(mock_table, corpus, plans):
    text = report_markdown(mock_table, corpus, plans, aggregate(mock_table))
    assert "## Code keys (unblinded)" in text
    assert "llm-final" in text
    assert "li-zhaoguo-sub fills the absent unschuld slot" in text
    # non-reproducible reference values are documented, never asserted
    assert "3.91-4.58" in text
    assert "217.56" in text
    assert "reverse-engineered" in text


def test_report_files_written(mock_table, corpus, plans, tmp_path):
    written = build_report(tmp_path / "report", mock_table, corpus, plans)
    names = {p.relative_to(tmp_path / "report").as_posix() for p in written}
    assert {"radar.csv", "roles.csv", "report.md"} <= names
    assert {"cases/case1.csv", "cases/case2.csv", "cases/case3.csv", "cases/case4.csv"} <= names


def multi_case_table():
    """Three cases over 2 roles x 2 models, rows shuffled: c2 lacks
    candidate c and its b2 fills slot b; c3 has two repeats per cell."""
    rng = random.Random(3)
    rows = [ScoreRow(case_id, role, model, cand, dim, rng.randint(1, 5), repeat)
            for case_id, cands, repeats in (("c1", "abc", 1), ("c2", ("a", "b2"), 1),
                                             ("c3", "abc", 2))
            for role in ("r1", "r2") for model in ("m1", "m2") for cand in cands
            for dim in DIMS for repeat in range(repeats)]
    rng.shuffle(rows)
    return ScoreTable(rows, {("c2", "b2"): "b"})


def _csv_rows(path):
    return list(csv.reader(path.read_text(encoding="utf-8").splitlines()))[1:]


def test_report_aggregates_match_full_scan_oracles(tmp_path):
    table = multi_case_table()
    expected_cases = {case_id: case_table_full_scan(table, case_id) for case_id in ("c1", "c2", "c3")}
    assert [row[0] for row in expected_cases["c2"]] == ["a", "b2"]
    assert {row[3] for row in expected_cases["c3"]} == {2 * 2 * 5 * 2}
    expected_radar = radar_full_scan(table, DIMENSIONS)

    for case_id, expected in expected_cases.items():
        assert [(r.candidate_id, r.slot, r.mean, r.n) for r in case_table(table, case_id)] == expected
    assert [(s.dimension, s.candidate, s.mean, s.min, s.max, s.n)
            for s in radar_data(table)] == expected_radar

    build_report(tmp_path, table, Corpus(), {})
    # the files print means to 12 significant digits
    assert _csv_rows(tmp_path / "radar.csv") == [
        [d, slot, f"{mean:.12g}", str(lo), str(hi), str(n)] for d, slot, mean, lo, hi, n in expected_radar]
    markdown = (tmp_path / "report.md").read_text(encoding="utf-8")
    for case_id, expected in expected_cases.items():
        assert _csv_rows(tmp_path / "cases" / f"{case_id}.csv") == [
            [cand, slot, f"{mean:.12g}", f"{mean:.2f}", str(n)] for cand, slot, mean, n in expected]
        rows = "".join(f"| {cand} | {mean:.2f} | {n} |\n" for cand, _, mean, n in expected)
        assert f"### {case_id}\n\n| candidate | mean | n |\n|---|---|---|\n{rows}" in markdown


def test_build_report_computes_each_aggregate_once(monkeypatch, tmp_path):
    calls = []
    for name in ("radar_data", "role_range_data", "case_table"):
        real = getattr(report, name)
        monkeypatch.setattr(report, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    build_report(tmp_path, multi_case_table(), Corpus(), {})
    assert sorted(calls) == ["case_table"] * 3 + ["radar_data", "role_range_data"]
