from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blindeval.errors import ParseError
from blindeval.parse import (FencedBlockMissing, parse_evaluation, parse_fenced, parse_prose,
                             segment_interview)
from blindeval.persona import DIMENSIONS
from blindeval.provider import mock_judge_response

PROMPT_K4 = "\n".join(f"Translation {i}:\nrendering {i}" for i in range(1, 5))


def cell_count(parsed) -> int:
    return sum(len(per_dim) for per_dim in parsed.scores.values())


def fenced_block(k=4, override=None):
    lines = ["```scores"]
    for dim in DIMENSIONS:
        for label in range(1, k + 1):
            value = 3
            if override and (dim, label) in override:
                value = override[(dim, label)]
            lines.append(f"{dim}[{label}]={value}")
    lines.append("```")
    return "\n".join(lines)


def test_well_formed_mock_round_trip():
    response = mock_judge_response(7, PROMPT_K4)
    parsed = parse_fenced(response, 4)
    assert cell_count(parsed) == 20
    assert parsed.is_complete(4)
    assert len(parsed.blocks) == 6
    assert parsed.warnings == []


def test_out_of_range_score_is_a_range_error():
    text = "prose\n\n```scores\nClarity[2]=6\n```"
    with pytest.raises(ParseError, match="outside 1..5"):
        parse_fenced(text, 4)


def test_out_of_range_label_rejected():
    text = "```scores\nClarity[9]=3\n```"
    with pytest.raises(ParseError, match="outside 1..4"):
        parse_fenced(text, 4)


def test_malformed_entry_reports_line_context():
    text = "```scores\nClarity[1]=4\nwhat is this\n```"
    with pytest.raises(ParseError, match="line 2"):
        parse_fenced(text, 4)


def test_unknown_dimension_rejected():
    text = "```scores\nSparkle[1]=4\n```"
    with pytest.raises(ParseError, match="unknown dimension"):
        parse_fenced(text, 4)


def test_last_fenced_block_wins_with_warning():
    first = fenced_block(override={("Clarity", 1): 1})
    second = fenced_block(override={("Clarity", 1): 5})
    parsed = parse_fenced("I rated.\n" + first + "\n\nWait, correcting:\n" + second, 4)
    assert parsed.scores[1]["Clarity"] == 5
    assert any("using the last" in w for w in parsed.warnings)


def test_missing_cells_are_flagged_not_fabricated():
    text = "```scores\nClarity[1]=4\nClarity[2]=3\n```"
    parsed = parse_fenced(text, 4)
    assert cell_count(parsed) == 2
    assert not parsed.is_complete(4)
    assert any("missing" in w for w in parsed.warnings)


def test_no_fenced_block_signals_fallback():
    with pytest.raises(FencedBlockMissing):
        parse_fenced("just prose, no scores", 4)


def test_dimension_spelling_variants_accepted():
    text = "```scores\nCognitive Load[1]=2\ncognitiveload[2]=4\n```"
    parsed = parse_fenced(text, 4)
    assert parsed.scores[1]["CognitiveLoad"] == 2
    assert parsed.scores[2]["CognitiveLoad"] == 4


# --- prose fallback ----------------------------------------------------------------


def test_single_pattern_extraction():
    parsed = parse_prose("Translation 2: Clarity 4/5", 4)
    assert parsed.scores == {2: {"Clarity": 4}}


def test_dimension_led_line_fills_four_cells():
    parsed = parse_prose("Clarity: T1=5, T2=4, T3=2, T4=3", 4)
    assert parsed.scores == {1: {"Clarity": 5}, 2: {"Clarity": 4}, 3: {"Clarity": 2}, 4: {"Clarity": 3}}


def test_prose_without_digits_yields_nothing():
    parsed = parse_prose("A thoughtful essay with no ratings at all.", 4)
    assert parsed.scores == {}
    assert not parsed.is_complete(4)


def test_conflicting_prose_values_drop_the_cell():
    text = "Clarity: T1=5\nClarity: T1=2"
    parsed = parse_prose(text, 4)
    assert 1 not in parsed.scores or "Clarity" not in parsed.scores.get(1, {})
    assert any("conflicting" in w for w in parsed.warnings)


def test_out_of_range_label_in_prose_ignored_with_warning():
    parsed = parse_prose("Clarity: T9=5", 4)
    assert parsed.scores == {}
    assert any("out-of-range label" in w for w in parsed.warnings)


def test_mock_fallback_seed_completes_via_prose():
    response = mock_judge_response(20, PROMPT_K4)
    parsed, mode = parse_evaluation(response, 4)
    assert mode == "prose_fallback"
    assert parsed.is_complete(4)


def test_mock_seeds_1_to_1000_complete_by_one_path_or_other():
    # deliberate fallback seeds (multiples of 10) go through prose; all
    # others parse strictly; every record ends complete
    for seed in range(1, 1001):
        response = mock_judge_response(seed, PROMPT_K4)
        if seed % 10 == 0:
            with pytest.raises(FencedBlockMissing):
                parse_fenced(response, 4)
            parsed = parse_prose(response, 4)
        else:
            parsed = parse_fenced(response, 4)
        assert parsed.is_complete(4), seed


def test_parsing_is_pure():
    response = mock_judge_response(13, PROMPT_K4)
    assert parse_evaluation(response, 4) == parse_evaluation(response, 4)


# --- interview segmentation -----------------------------------------------------------


def test_segments_six_blocks_from_mock():
    blocks = segment_interview(mock_judge_response(5, PROMPT_K4))
    assert sorted(blocks) == ["cognitive_load", "confidence", "preference",
                              "restatement", "transferability", "understanding"]
    assert "translation 1" in blocks["understanding"]


def test_segmentation_tolerates_numbering_styles():
    text = """\
Task One. Degree of understanding and points of confusion
clear enough overall

2) Concept restatement and meaning construction
my restatement here

### Cognitive load
felt fine

four - Confidence in understanding
quite confident

5. Translation preference:
the second one

Transferability of theory to clinical practice
daily practice notes
"""
    blocks = segment_interview(text)
    assert len(blocks) == 6
    assert blocks["restatement"] == "my restatement here"
    assert blocks["transferability"] == "daily practice notes"


def test_scores_fence_excluded_from_last_block():
    text = "6. Transferability of theory to clinical practice\nthoughts\n\n```scores\nClarity[1]=4\n```"
    blocks = segment_interview(text)
    assert blocks["transferability"] == "thoughts"


def test_skipped_blocks_absent():
    blocks = segment_interview("3. Cognitive load\nhard to say")
    assert list(blocks) == ["cognitive_load"]


@given(st.text(max_size=400))
def test_prose_parser_never_crashes_and_stays_in_range(text):
    parsed = parse_prose(text, 4)
    for per_dim in parsed.scores.values():
        for dim, value in per_dim.items():
            assert dim in DIMENSIONS
            assert 1 <= value <= 5


@given(st.text(max_size=400))
def test_segmentation_never_crashes(text):
    blocks = segment_interview(text)
    assert set(blocks) <= {"understanding", "restatement", "cognitive_load",
                           "confidence", "preference", "transferability"}
