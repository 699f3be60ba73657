from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blindeval.errors import DegenerateInputError, StatsError, ValidationError
from blindeval.report import format_test_result, results_text
from blindeval.scoretable import ScoreRow, ScoreTable, slot_map_from_corpus
from blindeval.stats import (DEFAULT_BLOCKING, average_ranks, battery_blocks, bonferroni,
                             complete_units, cross_model_agreement, cross_role_agreement,
                             friedman, kendall_w, spearman_rho, version_difference_battery,
                             wilcoxon_signed_rank)
from concordance_fixtures import RATINGS_W073, RATINGS_W078
from oracles import (battery_blocks_full_scan, brute_force_ranks, complete_units_by_lists,
                     cross_model_pairs_full_scan, cross_role_means_full_scan, friedman_chi2_exact,
                     friedman_permutation_p, kendall_w_oracle, means_equal, rank_then_pearson,
                     spearman_rho_shortcut, wilcoxon_exact_two_sided)


# --- average_ranks -----------------------------------------------------------------

def test_ranks_distinct_values():
    assert average_ranks([10, 20, 30]) == [1, 2, 3]


def test_ranks_tie_midrank():
    assert average_ranks([5, 5, 7]) == [1.5, 1.5, 3]


def test_ranks_against_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(50):
        values = [rng.randint(1, 6) for _ in range(12)]
        assert average_ranks(values) == brute_force_ranks(values)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=60))
def test_rank_sum_identity(values):
    n = len(values)
    assert math.isclose(sum(average_ranks(values)), n * (n + 1) / 2, abs_tol=1e-9)


def test_empty_ranks_rejected():
    with pytest.raises(StatsError):
        average_ranks([])


# --- spearman ------------------------------------------------------------------------

def test_spearman_identity():
    result = spearman_rho([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
    assert result.statistic == pytest.approx(1.0)
    assert result.p_value == 0.0


def test_spearman_antitone():
    result = spearman_rho([1, 2, 3, 4], [9, 7, 5, 3])
    assert result.statistic == pytest.approx(-1.0)
    assert result.p_value == 0.0


def test_spearman_tied_fixture_matches_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(5, 12)
        x = [rng.randint(1, 4) for _ in range(n)]
        y = [rng.randint(1, 4) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman_rho(x, y).statistic == pytest.approx(rank_then_pearson(x, y), abs=1e-12)


def test_spearman_constant_vector_rejected():
    with pytest.raises(DegenerateInputError):
        spearman_rho([3, 3, 3, 3], [1, 2, 3, 4])


def test_spearman_needs_three_pairs():
    with pytest.raises(StatsError):
        spearman_rho([1, 2], [2, 1])


def test_spearman_p_value_matches_t_distribution():
    import scipy.stats as spst

    x = [1, 4, 2, 5, 3, 6, 8, 7, 9, 10]
    y = [2, 3, 1, 6, 4, 5, 9, 8, 10, 7]
    result = spearman_rho(x, y)
    rho, n = result.statistic, 10
    t = rho * math.sqrt((n - 2) / (1 - rho * rho))
    assert result.p_value == pytest.approx(2 * spst.t.sf(abs(t), n - 2), rel=1e-9)


def test_shortcut_agrees_without_ties():
    x = [3, 1, 4, 1.5, 5, 9, 2.6]
    y = [2, 7, 1, 8.5, 2.8, 1.8, 6]
    assert spearman_rho(x, y).statistic == pytest.approx(spearman_rho_shortcut(x, y), abs=1e-12)


# --- kendall ---------------------------------------------------------------------------

def test_identical_untied_rankings_give_w_one():
    rows = [[1, 2, 3, 4, 5]] * 3
    result = kendall_w(rows)
    assert result.statistic == pytest.approx(1.0)
    assert result.extras["chi_square"] == pytest.approx(3 * 4 * 1.0)


def test_identical_tied_rankings_give_w_one():
    rows = [[1, 1, 2]] * 2
    assert kendall_w(rows).statistic == pytest.approx(1.0)


def test_concordance_fixture_w073():
    result = kendall_w(RATINGS_W073)
    assert result.df == 15
    assert result.n_judges == 3 and result.n_objects == 16
    assert abs(result.extras["chi_square"] - 32.85) <= 0.01
    assert result.extras["chi_square"] == pytest.approx(3 * 15 * result.statistic, abs=1e-9)


def test_concordance_fixture_w078():
    result = kendall_w(RATINGS_W078)
    assert result.df == 15
    assert abs(result.extras["chi_square"] - 35.10) <= 0.01
    assert result.tie_correction_applied  # third judge carries a tie


def test_kendall_matches_oracle_on_random_likert():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randint(1, 5) for _ in range(10)] for _ in range(4)]
        try:
            ours = kendall_w(rows).statistic
        except DegenerateInputError:
            continue
        assert ours == pytest.approx(max(0.0, kendall_w_oracle(rows)), abs=1e-12)


def test_kendall_degenerate_all_tied():
    with pytest.raises(DegenerateInputError):
        kendall_w([[2, 2, 2], [3, 3, 3]])


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=3, max_value=8),
       st.randoms(use_true_random=False))
def test_kendall_identity_without_ties(m, n, rnd):
    rows = []
    for _ in range(m):
        row = list(range(1, n + 1))
        rnd.shuffle(row)
        rows.append(row)
    result = kendall_w(rows)
    assert result.extras["chi_square"] == pytest.approx(m * (n - 1) * result.statistic, abs=1e-9)
    assert not result.tie_correction_applied


# --- friedman ---------------------------------------------------------------------------

def test_friedman_maximal_statistic_is_n_times_k_minus_1():
    blocks = [[1, 2, 3, 4]] * 10
    result = friedman(blocks)
    assert result.statistic == pytest.approx(30.0)
    assert result.df == 3
    assert result.p_value < 0.001


def test_friedman_all_equal_everywhere_degenerate():
    with pytest.raises(DegenerateInputError):
        friedman([[2, 2, 2, 2]] * 5)


def test_friedman_ragged_blocks_rejected():
    with pytest.raises(StatsError):
        friedman([[1, 2, 3], [1, 2]])


def test_friedman_statistic_matches_independent_recomputation():
    rng = random.Random(11)
    for _ in range(10):
        blocks = [[rng.randint(1, 5) for _ in range(4)] for _ in range(9)]
        try:
            ours = friedman(blocks).statistic
        except DegenerateInputError:
            continue
        from oracles import friedman_chi2
        assert ours == pytest.approx(friedman_chi2(blocks), abs=1e-10)


def test_friedman_is_exact_to_the_digits_it_prints():
    # the tie-corrected difference-of-sums form loses digits here (0.06382978723405706)
    example = [[2, 1, 2, 2], [3, 1, 1, 4], [3, 4, 3, 3], [5, 4, 5, 4], [4, 5, 5, 2], [1, 2, 1, 3]]
    assert friedman_chi2_exact(example) == Fraction(3, 47)
    rng = random.Random(4242)
    batch = [example] + [[[rng.randint(1, 5) for _ in range(k)] for _ in range(n)]
                         for n, k in ((rng.randint(2, 12), rng.randint(2, 5)) for _ in range(300))]
    checked = 0
    for blocks in batch:
        try:
            result = friedman(blocks)
        except DegenerateInputError:
            continue
        checked += 1
        assert result.statistic == pytest.approx(
            float(friedman_chi2_exact(blocks)), rel=1e-15, abs=0)
        w = kendall_w(blocks)
        assert result.statistic == w.extras["chi_square"]
        assert (result.df, result.n_objects, result.n_treatments) == (w.df, w.n_judges, w.n_objects)
        assert result.n_judges is None and result.extras == {}
    assert checked > 250


def test_friedman_p_close_to_permutation_oracle_quick():
    rng = random.Random(5)
    blocks = [[rng.randint(1, 5) for _ in range(4)] for _ in range(10)]
    ours = friedman(blocks)
    oracle_p = friedman_permutation_p(blocks, n_perms=20_000, seed=99)
    assert abs(ours.p_value - oracle_p) < 0.02


# --- wilcoxon -------------------------------------------------------------------------

def test_all_positive_differences_extreme_p():
    x = [2, 3, 4, 5, 6]
    y = [1, 1, 1, 1, 1]
    result = wilcoxon_signed_rank(x, y, mode="exact")
    assert result.statistic == 15
    assert result.p_value == 2 / 2 ** 5  # 0.0625


def test_all_zero_differences_rejected():
    with pytest.raises(DegenerateInputError):
        wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])


def test_zero_differences_dropped():
    result = wilcoxon_signed_rank([1, 5, 2, 7], [1, 3, 4, 2], mode="exact")
    assert result.n_objects == 3  # the zero pair vanished


def test_approx_matches_scipy():
    from scipy.stats import wilcoxon as scipy_wilcoxon

    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(12, 30)
        d = [rng.choice([-3, -2, -1, 0, 0, 1, 2, 3, 4]) for _ in range(n)]
        if all(v == 0 for v in d) or all(v >= 0 for v in d) or all(v <= 0 for v in d):
            continue
        ours = wilcoxon_signed_rank(d, [0] * n, mode="approx")
        ref = scipy_wilcoxon(d, zero_method="wilcox", correction=True,
                             alternative="two-sided", method="approx")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_exact_matches_enumeration_oracle_with_ties():
    rng = random.Random(17)
    for _ in range(10):
        d = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(8)]  # ties in |d| guaranteed
        ours = wilcoxon_signed_rank(d, [0] * 8, mode="exact")
        assert ours.p_value == wilcoxon_exact_two_sided(d)


def test_approx_close_to_exact_for_moderate_n():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(15, 18)
        d = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n)]
        exact = wilcoxon_signed_rank(d, [0] * n, mode="exact")
        approx = wilcoxon_signed_rank(d, [0] * n, mode="approx")
        assert abs(exact.p_value - approx.p_value) < 0.03


def test_auto_threshold():
    small = wilcoxon_signed_rank(list(range(1, 11)), [0] * 10, mode="auto")
    assert small.test_name.endswith("[exact]")
    big = wilcoxon_signed_rank(list(range(1, 26)), [0] * 25, mode="auto")
    assert big.test_name.endswith("[approx]")


@given(st.lists(st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0),
                min_size=1, max_size=10))
def test_exact_p_is_achievable_tail_probability(diffs):
    result = wilcoxon_signed_rank(diffs, [0] * len(diffs), mode="exact")
    count = result.p_value * 2 ** len(diffs)
    assert count == pytest.approx(round(count), abs=1e-9)
    assert 0 < result.p_value <= 1


# --- bonferroni -----------------------------------------------------------------------

def test_bonferroni_simple_and_clamped():
    r1 = wilcoxon_signed_rank([2, 3, 4, 5, 6, 7, 8, 9], [1] * 8, mode="exact")
    out = bonferroni([r1], family_size=6)
    assert out[0].correction.adjusted_p == pytest.approx(min(1.0, 6 * r1.p_value))
    assert out[0].p_value == r1.p_value  # raw retained
    high = wilcoxon_signed_rank([2, 1, 3, 1, 4, 1], [1, 2, 1, 3, 1, 4], mode="exact")
    clamped = bonferroni([high], family_size=6)[0]
    assert clamped.correction.adjusted_p <= 1.0


def test_bonferroni_family_too_small_rejected():
    r = friedman([[1, 2, 3, 4]] * 4)
    with pytest.raises(StatsError):
        bonferroni([r, r], family_size=1)


def test_pairwise_family_for_four_candidates():
    assert len(list(itertools.combinations(range(4), 2))) == 6


# --- table-level analyses -----------------------------------------------------------

def _table(rows):
    return ScoreTable([ScoreRow(*row) for row in rows])


def _grid_rows(cases, roles, models, candidates, dims, score_fn):
    rows = []
    for c in cases:
        for r in roles:
            for m in models:
                for cand_i, cand in enumerate(candidates):
                    for d_i, d in enumerate(dims):
                        rows.append(ScoreRow(c, r, m, cand, d, score_fn(c, r, m, cand_i, d_i)))
    return rows


DIMS = ("Clarity", "CognitiveLoad", "Confidence", "Preference", "Transferability")


def test_cross_model_identity_tables():
    rows = _grid_rows(["c1"], ["r1"], ["m1", "m2"], ["a", "b", "c"], DIMS,
                      lambda c, r, m, ci, di: 1 + (ci + di) % 5)
    result = cross_model_agreement(ScoreTable(rows))
    assert result.spearman.statistic == pytest.approx(1.0)
    assert result.kendall.statistic == pytest.approx(1.0)


def test_cross_model_perfect_inversion():
    def score(c, r, m, ci, di):
        base = 1 + (ci + di) % 5
        return base if m == "m1" else 6 - base

    rows = _grid_rows(["c1"], ["r1"], ["m1", "m2"], ["a", "b", "c"], DIMS, score)
    result = cross_model_agreement(ScoreTable(rows))
    assert result.spearman.statistic == pytest.approx(-1.0)


def test_cross_model_needs_exactly_two_models():
    rows = _grid_rows(["c1"], ["r1"], ["m1"], ["a", "b"], DIMS, lambda *a: 3)
    with pytest.raises(StatsError, match="exactly 2"):
        cross_model_agreement(ScoreTable(rows))


def test_cross_model_unpaired_cells_listed():
    rows = _grid_rows(["c1"], ["r1"], ["m1", "m2"], ["a", "b"], DIMS,
                      lambda c, r, m, ci, di: 1 + (ci + di) % 5)
    rows = [r for r in rows if not (r.model_id == "m2" and r.dimension == "Clarity"
                                    and r.candidate_id == "a")]
    result = cross_model_agreement(ScoreTable(rows))
    for test in (result.spearman, result.kendall):
        assert test.n_objects == 9      # the 10 cells less the one m2 left out
        assert test.extras["excluded"] == 1


def test_complete_units_keeps_units_scored_in_every_column():
    cells = [("u2", "a", 1), ("u1", "b", 4), ("u1", "a", 2), ("u3", "a", 5),
             ("u2", "b", 3), ("u1", "a", 3), ("u2", "c", 1)]
    units, rows, excluded = complete_units(cells, ["a", "b"])
    assert units == ["u1", "u2"]
    assert rows == [[2.5, 4.0], [1.0, 3.0]]
    assert excluded == 1                # u3 has no "b"


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]), st.sampled_from("abcd"),
                                st.one_of(st.integers(1, 5), st.integers(1, 15).map(lambda n: n / 3))),
                      max_size=40),
       columns=st.lists(st.sampled_from("abc"), unique=True))
def test_complete_units_matches_the_list_oracle(cells, columns):
    # repeated (unit, column) cells, units missing a column, cells in columns
    # not listed ("d", and whichever of a-c was not drawn), scores in thirds
    units, rows, excluded = complete_units(cells, columns)
    oracle_units, oracle_rows, oracle_excluded = complete_units_by_lists(cells, columns)
    assert (units, excluded) == (oracle_units, oracle_excluded)
    assert list(map(len, rows)) == list(map(len, oracle_rows))
    assert means_equal([v for row in rows for v in row], [v for row in oracle_rows for v in row])


def test_table_statistics_hold_no_copy_per_row():
    # 10,080 rows: 56 cases x 3 roles x 2 models x 3 candidates x 5 dims x 2
    # repeats.  Keeping a list per cell (collapse) and a dict of lists per
    # unit (complete_units) peaked at 2.2 MB; running sums peak at 1.8 MB.
    rng = random.Random(5)
    rows = [ScoreRow(f"case{c:03d}", role, model, cand, dim, rng.randint(1, 5), repeat)
            for c in range(56) for role in ("R1", "R2", "R3") for model in ("gpt", "gemini")
            for cand in ("human", "llm-baseline", "llm-final") for dim in DIMS for repeat in (0, 1)]
    table = ScoreTable(rows)
    tracemalloc.start()
    try:
        table.collapsed()
        cross_model_agreement(table)
        version_difference_battery(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"collapse and statistics peaked at {peak / 1e6:.2f} MB"


def test_cross_model_matches_oracle_on_mock_grid(mock_table):
    keys, x, y, excluded = cross_model_pairs_full_scan(mock_table)
    assert len(keys) == 4 * 3 * 4 * 5  # case x role x candidate x dimension
    assert excluded == 0
    result = cross_model_agreement(mock_table)
    assert result.spearman.statistic == pytest.approx(rank_then_pearson(x, y), abs=1e-12)
    assert result.kendall.statistic == pytest.approx(max(0.0, kendall_w_oracle([x, y])), abs=1e-12)
    # a complete grid reports no excluded count
    assert "excluded" not in result.spearman.extras and "excluded" not in result.kendall.extras


def test_cross_role_identical_object_means_w_one():
    # object means depend on (case, candidate) only, so roles agree perfectly
    rows = _grid_rows(["c1", "c22"], ["r1", "r2", "r3"], ["m1"], ["a", "b"], DIMS,
                      lambda c, r, m, ci, di: 1 + (ci + len(c)) % 5)
    result = cross_role_agreement(ScoreTable(rows), "m1")
    assert result.statistic == pytest.approx(1.0)


def test_cross_role_reference_geometry(mock_table):
    result = cross_role_agreement(mock_table, "gpt")
    assert result.n_judges == 3
    assert result.n_objects == 16  # 4 cases x 4 candidate slots
    assert result.df == 15


def test_cross_role_matches_oracle_recomputation(mock_table):
    roles, objects, matrix, excluded = cross_role_means_full_scan(mock_table, "gemini")
    assert (len(roles), len(objects), excluded) == (3, 16, 0)
    result = cross_role_agreement(mock_table, "gemini")
    assert result.statistic == pytest.approx(max(0.0, kendall_w_oracle(matrix)), abs=1e-12)
    assert "excluded" not in result.extras


def test_cross_role_needs_two_roles():
    rows = _grid_rows(["c1"], ["r1"], ["m1"], ["a", "b"], DIMS, lambda *a: 2)
    with pytest.raises(StatsError):
        cross_role_agreement(ScoreTable(rows), "m1")


# --- version difference battery ---------------------------------------------------------

def dominance_table(n_cases=1, roles=("r1", "r2", "r3"), models=("m1", "m2"),
                    dims=("Clarity", "CognitiveLoad", "Confidence")):
    """Candidate b strictly dominates; others vary mildly below it."""
    rng = random.Random(99)
    rows = []
    for c in range(n_cases):
        for r in roles:
            for m in models:
                for d in dims:
                    others = {"a": rng.choice([2, 3]), "c": rng.choice([1, 2]),
                              "d": rng.choice([1, 3])}
                    rows.append(ScoreRow(f"c{c}", r, m, "b", d, 5))
                    for cand, score in others.items():
                        rows.append(ScoreRow(f"c{c}", r, m, cand, d, score))
    return ScoreTable(rows)


def test_dominance_fixture_battery():
    table = dominance_table()  # 18 blocks -> exact Wilcoxon everywhere
    battery = version_difference_battery(table)
    assert battery.friedman.p_value < 0.01
    assert battery.family_size == 6
    assert battery.n_blocks == 18
    b_pairs = [p for p in battery.pairwise if "b" in (p.slot_a, p.slot_b)]
    assert len(b_pairs) == 3
    for pair in b_pairs:
        assert pair.result.test_name.endswith("[exact]")
        assert pair.result.reported_p < 0.05
        # verify against the enumeration oracle
        x = 18 * [5]
        other = pair.slot_a if pair.slot_b == "b" else pair.slot_b
        rows = {(r.case_id, r.role_id, r.model_id, r.dimension): r.score
                for r in table if r.candidate_id == other}
        diffs = [5 - rows[k] for k in sorted(rows)]
        sign = 1 if pair.slot_a == "b" else -1
        assert pair.result.p_value == wilcoxon_exact_two_sided([sign * d for d in diffs])


def test_battery_k2_degenerates_to_single_pair():
    rows = _grid_rows(["c1"], ["r1", "r2", "r3"], ["m1"], ["a", "b"], DIMS,
                      lambda c, r, m, ci, di: 1 + (ci * 2 + di) % 5)
    battery = version_difference_battery(ScoreTable(rows))
    assert battery.family_size == 1
    assert len(battery.pairwise) == 1


def test_battery_excludes_incomplete_blocks():
    rows = _grid_rows(["c1"], ["r1", "r2", "r3"], ["m1"], ["a", "b", "c"], DIMS,
                      lambda c, r, m, ci, di: 1 + (ci + di) % 5)
    rows = [r for r in rows if not (r.role_id == "r2" and r.dimension == "Clarity"
                                    and r.candidate_id == "c")]
    battery = version_difference_battery(ScoreTable(rows))
    assert battery.excluded_blocks == 1
    assert battery.n_blocks == 14


def test_battery_zero_complete_blocks_rejected():
    rows = [ScoreRow("c1", "r1", "m1", "a", "Clarity", 3),
            ScoreRow("c1", "r2", "m1", "b", "Clarity", 4)]
    with pytest.raises(StatsError, match="complete"):
        version_difference_battery(ScoreTable(rows))


def test_battery_blocking_scheme_configurable(mock_table):
    default = version_difference_battery(mock_table)
    coarse = version_difference_battery(mock_table, blocking=("case", "role", "model"))
    assert default.n_blocks == 120
    assert coarse.n_blocks == 24
    with pytest.raises(ValidationError, match="unknown blocking"):
        version_difference_battery(mock_table, blocking=("case", "banana"))


@pytest.fixture
def battery_table(mock_table, corpus):
    """The mock table with repeats on one role and one (case, candidate)
    pair dropped, so that a case block goes incomplete."""
    dropped = (mock_table.rows[0].case_id, mock_table.rows[0].candidate_id)
    role = mock_table.rows[0].role_id
    rows = [r for r in mock_table if (r.case_id, r.candidate_id) != dropped]
    rows += [r._replace(score=r.score % 5 + 1, repeat=1) for r in rows if r.role_id == role]
    return ScoreTable(rows, slot_map_from_corpus(corpus))


@pytest.mark.parametrize("blocking", [("dimension",), ("case",), ("role", "dimension"), ()])
def test_battery_blocks_match_full_scan_oracle(battery_table, blocking):
    slots, rows, excluded = battery_blocks(battery_table, blocking)
    oracle_slots, oracle_rows, oracle_excluded = battery_blocks_full_scan(battery_table, blocking)
    assert slots == oracle_slots
    assert excluded == oracle_excluded
    assert rows == [pytest.approx(row, rel=1e-12) for row in oracle_rows]
    if blocking == ("case",):
        assert oracle_excluded == 1
    if len(oracle_rows) < 2:    # one block: Friedman needs two
        with pytest.raises(StatsError, match="at least 2 blocks"):
            version_difference_battery(battery_table, blocking)
        return
    battery = version_difference_battery(battery_table, blocking)
    assert battery.blocking == blocking
    assert battery.n_blocks == len(oracle_rows)
    assert battery.excluded_blocks == oracle_excluded
    assert battery.friedman.statistic == pytest.approx(friedman(oracle_rows).statistic, rel=1e-12)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_statistic_follows_listwise_deletion(mock_table, corpus, data):
    # the mock grid with whole models, whole roles and random cells dropped,
    # and random cells repeated
    rows = list(mock_table)
    index = st.integers(0, len(rows) - 1)
    models = data.draw(st.sets(st.sampled_from(mock_table.model_ids())), label="dropped models")
    roles = data.draw(st.sets(st.sampled_from(mock_table.role_ids())), label="dropped roles")
    dropped = data.draw(st.sets(index, max_size=40), label="dropped")
    repeated = data.draw(st.sets(index, max_size=40), label="repeated")
    kept = [r for i, r in enumerate(rows) if i not in dropped]
    repeats = [rows[i]._replace(score=rows[i].score % 5 + 1, repeat=1) for i in repeated]
    table = ScoreTable([r for r in kept + repeats
                        if r.model_id not in models and r.role_id not in roles],
                       slot_map_from_corpus(corpus))

    # every section is written; one the table cannot support is the skip
    # line of the StatsError its statistic raises
    lines = results_text(table, DEFAULT_BLOCKING).splitlines()

    def unless_skipped(name, compute, prefix=""):
        try:
            return compute()
        except StatsError as exc:
            assert f"{prefix}{name}: skipped ({exc})" in lines
            return None

    cross_model = unless_skipped("cross_model_agreement", lambda: cross_model_agreement(table))
    if cross_model:
        keys, x, y, excluded = cross_model_pairs_full_scan(table)
        for result in (cross_model.spearman, cross_model.kendall):
            assert format_test_result(result) in lines
            assert result.n_objects == len(keys)
            assert result.extras.get("excluded", 0) == excluded
        assert cross_model.spearman.statistic == pytest.approx(rank_then_pearson(x, y), abs=1e-12)
        assert cross_model.kendall.statistic == pytest.approx(
            max(0.0, kendall_w_oracle([x, y])), abs=1e-12)

    for model in table.model_ids():
        result = unless_skipped("cross_role_agreement",
                                lambda: cross_role_agreement(table, model), f"[{model}] ")
        if result:
            _, objects, matrix, excluded = cross_role_means_full_scan(table, model)
            assert f"[{model}] {format_test_result(result)}" in lines
            assert result.n_objects == len(objects)
            assert result.extras.get("excluded", 0) == excluded
            assert result.statistic == pytest.approx(max(0.0, kendall_w_oracle(matrix)), abs=1e-12)

    battery = unless_skipped("version_difference_battery", lambda: version_difference_battery(table))
    if battery:
        _, blocks, excluded = battery_blocks_full_scan(table, DEFAULT_BLOCKING)
        assert f"complete blocks: {len(blocks)}  excluded incomplete: {excluded}" in lines
        assert any(line.startswith(format_test_result(battery.friedman)) for line in lines)
        assert battery.friedman.statistic == pytest.approx(float(friedman_chi2_exact(blocks)),
                                                           rel=1e-12)


def test_permutation_symmetry_of_friedman(mock_table, corpus):
    # relabeling candidates permutes pairwise results, leaves Friedman unchanged
    battery = version_difference_battery(mock_table)
    renamed = {k: {"llm-baseline": "zz-baseline"}.get(v, v)
               for k, v in slot_map_from_corpus(corpus).items()}
    relabeled = ScoreTable(mock_table.rows, renamed)
    battery2 = version_difference_battery(relabeled)
    assert battery2.friedman.statistic == pytest.approx(battery.friedman.statistic, abs=1e-12)
    rename = lambda s: "zz-baseline" if s == "llm-baseline" else s
    pairs1 = {frozenset((rename(p.slot_a), rename(p.slot_b))): p.result.p_value
              for p in battery.pairwise if p.result}
    pairs2 = {frozenset((p.slot_a, p.slot_b)): p.result.p_value
              for p in battery2.pairwise if p.result}
    assert pairs1 == pairs2


def test_monotone_invariance_on_mock_table(mock_table):
    transformed = mock_table.transformed(lambda s: 2 * s + 3)
    rho_a = cross_model_agreement(mock_table)
    rho_b = cross_model_agreement(transformed)
    assert abs(rho_a.spearman.statistic - rho_b.spearman.statistic) < 1e-9
    assert abs(rho_a.kendall.statistic - rho_b.kendall.statistic) < 1e-9
    w_a = cross_role_agreement(mock_table, "gpt")
    w_b = cross_role_agreement(transformed, "gpt")
    assert abs(w_a.statistic - w_b.statistic) < 1e-9
    f_a = version_difference_battery(mock_table).friedman
    f_b = version_difference_battery(transformed).friedman
    assert abs(f_a.statistic - f_b.statistic) < 1e-9
