from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from blindeval.cli import main
from blindeval.errors import ParseError
from blindeval.parse import FencedBlockMissing, parse_evaluation, parse_fenced, parse_prose
from blindeval.persona import BLOCKS, DIMENSIONS
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
    assert len(oracles.segment_interview(response)) == 6
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
    blocks = oracles.segment_interview(mock_judge_response(5, PROMPT_K4))
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
    blocks = oracles.segment_interview(text)
    assert len(blocks) == 6
    assert blocks["restatement"] == "my restatement here"
    assert blocks["transferability"] == "daily practice notes"


def test_scores_fence_excluded_from_last_block():
    text = "6. Transferability of theory to clinical practice\nthoughts\n\n```scores\nClarity[1]=4\n```"
    blocks = oracles.segment_interview(text)
    assert blocks["transferability"] == "thoughts"


def test_skipped_blocks_absent():
    blocks = oracles.segment_interview("3. Cognitive load\nhard to say")
    assert list(blocks) == ["cognitive_load"]


@given(st.text(max_size=400))
def test_prose_parser_never_crashes_and_stays_in_range(text):
    parsed = parse_prose(text, 4)
    for per_dim in parsed.scores.values():
        for dim, value in per_dim.items():
            assert dim in DIMENSIONS
            assert 1 <= value <= 5


def test_repeated_heading_counts_at_its_first_match():
    # the second "Cognitive load" line's match takes the ":" line with it,
    # but the search for "Confidence" starts a match on that line
    text = "Cognitive load\nCognitive load\n:\nConfidence\tin \n  understanding"
    assert oracles.segment_interview(text) == {"cognitive_load": "Cognitive load", "confidence": ""}


# --- differential: the prefiltered parser against every regex on every line -----


def outcome(parser, text, k):
    try:
        return parser(text, k)
    except ParseError as exc:
        return type(exc), str(exc)


_SPELLINGS = ["clarity", "cognitive load", "cognitiveload", "confidence",
              "confidence in understanding", "preference", "translation preference",
              "transferability", "transferability of theory to clinical practice",
              "clarify", "cognition load", "trust"]


@st.composite
def dimension_names(draw):
    words = draw(st.sampled_from(_SPELLINGS)).split(" ")
    gaps = draw(st.lists(st.sampled_from([" ", "   ", "\t", ""]), min_size=len(words),
                         max_size=len(words)))
    name = "".join(w + g for w, g in zip(words, gaps)).rstrip(" \t")
    return draw(st.sampled_from([str.lower, str.upper, str.title, str.swapcase]))(name)


numbers = st.integers(-1, 12).map(str)
pairs = st.builds(lambda tag, label, sep, value: f"{tag}{label}{sep}{value}",
                  st.sampled_from(["T", "t", "Translation ", "translation", "T "]), numbers,
                  st.sampled_from(["=", ": ", " = ", ":"]), numbers)
lines = st.one_of(
    # dimension-led: "cognitive   LOAD - T1=4, Translation 3: 2"
    st.builds(lambda lead, name, sep, ps: f"{lead}{name}{sep}{', '.join(ps)}",
              st.sampled_from(["", "  ", "- ", "**"]), dimension_names(),
              st.sampled_from([": ", " - ", ":", " = ", " "]), st.lists(pairs, max_size=4)),
    # translation-led: "Translation 2: Clarity 4/5, cognitive load=3"
    st.builds(lambda lead, label, scores: f"{lead} {label}: {', '.join(scores)}",
              st.sampled_from(["Translation", "translation", "For translation", "TRANSLATION"]),
              numbers,
              st.lists(st.builds(lambda name, sep, v, tail: f"{name}{sep}{v}{tail}",
                                 dimension_names(), st.sampled_from([" ", "=", ": ", ""]),
                                 numbers, st.sampled_from(["", "/5", " / 5", "/10"])),
                       max_size=4)),
    pairs,
    st.text(max_size=40),
)
fences = st.builds(
    lambda entries: "```scores\n" + "\n".join(entries) + "\n```",
    st.lists(st.builds(lambda name, label, value: f"{name}[{label}]={value}",
                       dimension_names(), numbers, numbers), max_size=6))
# prose, with none, one or several score fences among it
replies = st.lists(st.lists(lines, max_size=12).map("\n".join) | fences,
                   min_size=1, max_size=3).map("\n".join)


@given(replies, st.integers(2, 5))
@example("cognitive   LOAD - T1=4, Translation 2: 5\nTranslation 3: cognitive load=2", 4)
@example("Translation 3: Clarity 4/5\nTranslation 3: CLARITY: 2\nTranslation 7: confidence 3", 4)
@example("Clarity: T1=5, T9=4\ncognitive\tload: t 2 = 3\n```scores\ncognitive   LOAD[2]=3\n```", 4)
@settings(max_examples=300)
def test_parse_evaluation_matches_the_unfiltered_reference(text, k):
    assert outcome(parse_evaluation, text, k) == outcome(oracles.parse_evaluation, text, k)


@pytest.fixture(scope="module")
def demo_replies(tmp_path_factory):
    target = tmp_path_factory.mktemp("demo") / "run"
    assert main(["demo", str(target), "--seed", "7"]) == 0
    out = []
    for path in sorted((target / "records").glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        transcript = json.loads(
            (target / "transcripts" / f"{record['call_id']}.json").read_text(encoding="utf-8"))
        plan = json.loads((target / "blinding" / f"{record['case_id']}.json").read_text(encoding="utf-8"))
        out.append((transcript["response_text"], len(plan["permutation"]), record["parse_mode"]))
    return out


def test_demo_replies_parse_as_the_unfiltered_reference(demo_replies):
    assert {mode for _, _, mode in demo_replies} == {"fenced", "prose_fallback"}
    for text, k, mode in demo_replies:
        parsed = parse_evaluation(text, k)
        assert parsed == oracles.parse_evaluation(text, k)
        assert parsed[1] == mode


def test_contract_spellings_canonicalise_as_the_reference():
    for dim in DIMENSIONS:
        assert oracles.canonical_dimension(dim) == dim
    assert parse_fenced("```scores\ncognitive   LOAD[2]=3\n```", 4).scores == {2: {"CognitiveLoad": 3}}


# --- interview segmentation over judge-like replies --------------------------------

_NUMBERINGS = ["", "1.", "2)", "3 -", "4:", "five", "Six.", "Task One.", "Q3", "q 4)", "Block 2",
               "section two)", "PART 5 -", "question six:", "12..", "seven"]


@st.composite
def headings(draw):
    """A block heading as a judge might write it: any prefix and numbering,
    any case, and any run of spaces, tabs or line breaks between its words."""
    words = draw(st.sampled_from(BLOCKS)).heading.split()
    gaps = draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n", " \n  ", "\n\n"]),
                         min_size=len(words) - 1, max_size=len(words) - 1))
    name = words[0] + "".join(g + w for g, w in zip(gaps, words[1:]))
    name = draw(st.sampled_from([str, str.lower, str.upper, str.title, str.swapcase]))(name)
    lead = draw(st.sampled_from(["", "#", "## ", "**", "* ", "  ", "\n", "# **"]))
    number = draw(st.sampled_from(_NUMBERINGS))
    gap = draw(st.sampled_from(["", " ", "  ", "\n"]))
    tail = draw(st.sampled_from(["", ":", ".", " :", "  ", ":  ", "**", "?", " \t"]))
    return f"{lead}{number}{gap}{name}{tail}"


body_lines = st.one_of(
    st.sampled_from(["", "   ", ":", ".", "Translation 2 was clearer.", "1.", "##"]),
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=30),
    fences)
sections = st.builds(lambda heading, body: "\n".join([heading, *body]),
                     headings(), st.lists(body_lines, max_size=3))
# headings repeated, missing and in any order, or a mock judge's reply
interviews = st.one_of(
    st.lists(st.one_of(sections, sections, body_lines), min_size=1, max_size=10).map("\n".join),
    st.integers(1, 1000).map(lambda seed: mock_judge_response(seed, PROMPT_K4)))


@given(st.text(max_size=400) | interviews)
@example("1. Cognitive load\n\n\n2. Cognitive load\nsecond\n### Translation\npreference\nok")
@example("Degree of understanding\nand points of confusion:\n\n\nConcept restatement and meaning "
         "construction\n```scores\n3. Cognitive load\n```\nConfidence in understanding\nsure")
def test_segmentation_never_crashes(text):
    blocks = oracles.segment_interview(text)
    assert set(blocks) <= {block.block_id for block in BLOCKS}
    assert all(body == body.strip() for body in blocks.values())
