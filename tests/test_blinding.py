from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindeval.blinding import (fisher_yates, label_of, load_plans, make_blind_plan,
                                paper_layout_plan, save_plan, scan_for_leaks, unblind)
from blindeval.errors import BlindingError
from blindeval.rng import Splitmix64

MASK = (1 << 64) - 1


def _splitmix_reference(state):
    """Independent re-derivation of the generator update equations."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def test_generator_matches_published_vector():
    # seed 0 must yield the well-known first splitmix64 output
    assert Splitmix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_fisher_yates_hand_traced_golden():
    # Hand trace for seed 42, n = 4.  The three draws of the reference
    # recurrence are 13679457532755275413, 2949826092126892291 and
    # 5139283748462763858, giving j = 1, 1, 0:
    #   [0,1,2,3] -i=3,j=1-> [0,3,2,1] -i=2,j=1-> [0,2,3,1] -i=1,j=0-> [2,0,3,1]
    state, draws = 42, []
    for bound in (4, 3, 2):
        state, u = _splitmix_reference(state)
        draws.append(u % bound)
    assert draws == [1, 1, 0]
    assert fisher_yates(4, Splitmix64(42)) == [2, 0, 3, 1]


def test_fisher_yates_seed_zero_golden():
    assert fisher_yates(4, Splitmix64(0)) == [2, 1, 0, 3]


def test_single_element():
    assert fisher_yates(1, Splitmix64(123)) == [0]


def test_empty_input_rejected():
    with pytest.raises(BlindingError):
        fisher_yates(0, Splitmix64(1))


def test_consumes_exactly_n_minus_one_draws():
    class CountingRng(Splitmix64):
        draws = 0

        def next_u64(self):
            self.draws += 1
            return super().next_u64()

    rng = CountingRng(99)
    fisher_yates(6, rng)
    assert rng.draws == 5


def test_uniformity_chi_square_sanity():
    # 10,000 seeds at n=4: every one of the 24 permutations within +-25%
    # of the expected 10000/24
    counts = {perm: 0 for perm in itertools.permutations(range(4))}
    for seed in range(10_000):
        counts[tuple(fisher_yates(4, Splitmix64(seed)))] += 1
    expected = 10_000 / 24
    for perm, count in counts.items():
        assert expected * 0.75 <= count <= expected * 1.25, (perm, count)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**64 - 1))
def test_fisher_yates_always_bijective(n, seed):
    perm = fisher_yates(n, Splitmix64(seed))
    assert sorted(perm) == list(range(n))


# --- plans ---------------------------------------------------------------------


def test_plan_is_bijection(corpus):
    for case in corpus:
        plan = make_blind_plan(case, seed=3)
        assert sorted(plan.permutation) == sorted(case.candidate_ids())


def test_plan_deterministic_across_regeneration(corpus):
    case = corpus.get("case1")
    a = make_blind_plan(case, seed=11)
    b = make_blind_plan(case, seed=11)
    assert a.permutation == b.permutation
    assert a.algorithm == b.algorithm


def test_plan_deterministic_across_process_restart(corpus):
    import subprocess
    import sys

    snippet = (
        "from blindeval.fixtures import demo_corpus\n"
        "from blindeval.blinding import make_blind_plan\n"
        "case = demo_corpus().get('case1')\n"
        "print(','.join(make_blind_plan(case, seed=11).permutation))\n"
    )
    out = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                         text=True, check=True).stdout.strip()
    assert tuple(out.split(",")) == make_blind_plan(corpus.get("case1"), seed=11).permutation


def test_plan_differs_across_cases_with_same_seed(corpus):
    perms = {make_blind_plan(case, seed=5).permutation for case in corpus}
    # all cases share candidate-id sets except case4, so identical
    # arrangements across all four would be a seed-mixing bug
    assert len(perms) > 1


def test_requires_two_candidates(corpus):
    case = corpus.get("case1")
    lonely = type(case)(id="x", title="t", source_text="s", context_note="c",
                        translation_focus="f", candidates=case.candidates[:1])
    with pytest.raises(BlindingError):
        make_blind_plan(lonely, seed=1)


def test_unblind_round_trip(corpus):
    for case in corpus:
        plan = make_blind_plan(case, seed=17)
        recovered = [unblind(plan, label) for label in range(1, plan.k + 1)]
        assert sorted(recovered) == sorted(case.candidate_ids())


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_unblind_blind_identity_property(seed):
    from blindeval.fixtures import demo_corpus

    for case in demo_corpus():
        plan = make_blind_plan(case, seed)
        assert {unblind(plan, label) for label in range(1, plan.k + 1)} == set(case.candidate_ids())


def test_out_of_range_label_names_valid_range(corpus):
    plan = make_blind_plan(corpus.get("case1"), seed=1)
    with pytest.raises(BlindingError, match="1..4"):
        unblind(plan, 5)
    with pytest.raises(BlindingError):
        unblind(plan, 0)


def test_label_of_inverts_unblind(corpus):
    plan = make_blind_plan(corpus.get("case2"), seed=9)
    for label in range(1, 5):
        assert label_of(plan, unblind(plan, label)) == label


# --- paper-layout fixture --------------------------------------------------------


def test_fixture_case1_label1_is_final(corpus):
    plan = paper_layout_plan(corpus.get("case1"))
    assert unblind(plan, 1) == "llm-final"


def test_fixture_case1_full_row(corpus):
    plan = paper_layout_plan(corpus.get("case1"))
    assert list(plan.permutation) == ["llm-final", "li-zhaoguo", "llm-baseline", "unschuld"]


def test_fixture_case2_row(corpus):
    plan = paper_layout_plan(corpus.get("case2"))
    assert list(plan.permutation) == ["li-zhaoguo", "unschuld", "llm-final", "llm-baseline"]


def test_fixture_case3_label1_is_baseline(corpus):
    plan = paper_layout_plan(corpus.get("case3"))
    assert unblind(plan, 1) == "llm-baseline"
    assert list(plan.permutation) == ["llm-baseline", "llm-final", "unschuld", "li-zhaoguo"]


def test_fixture_case4_substitute_fills_absent_slot(corpus):
    plan = paper_layout_plan(corpus.get("case4"))
    # first position carries the substituted slot's candidate
    assert unblind(plan, 1) == "li-zhaoguo-sub"
    assert list(plan.permutation) == ["li-zhaoguo-sub", "llm-baseline", "li-zhaoguo", "llm-final"]


def test_fixture_unknown_case_rejected(corpus):
    case = corpus.get("case1")
    other = type(case)(id="case9", title="t", source_text="s", context_note="c",
                       translation_focus="f", candidates=case.candidates)
    with pytest.raises(BlindingError, match="case9"):
        paper_layout_plan(other)


# --- persistence and leak scanning -------------------------------------------------


def test_plan_json_round_trip(corpus, tmp_path):
    plan = make_blind_plan(corpus.get("case3"), seed=21)
    save_plan(plan, tmp_path)
    assert load_plans(tmp_path)["case3"] == plan


def test_scan_flags_translator_name(corpus):
    case = corpus.get("case1")
    assert "unschuld" in scan_for_leaks("I preferred Unschuld's wording.", case)


def test_scan_flags_origin_token(corpus):
    case = corpus.get("case1")
    assert scan_for_leaks("this is the llm_adjusted one", case) == ["llm_adjusted"]


def test_scan_ignores_ordinary_prose(corpus):
    case = corpus.get("case1")
    # "human" appears in candidate texts themselves ("harms the human body")
    assert scan_for_leaks(case.candidates[0].text, case) == []
