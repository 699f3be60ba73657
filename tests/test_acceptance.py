"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with -s or
-rA to see them).  Oracles are independent of the engine paths they
check: numpy/scipy ranking, brute-force enumeration, permutation
resampling, and a hand-checked golden text file.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from blindeval.blinding import make_blind_plan, scan_for_leaks, unblind
from blindeval.cli import main
from blindeval.fixtures import DEMO_CONCEPT_BLOCK, demo_corpus
from blindeval.persona import ANCHORS, BLOCKS, DIMENSIONS, default_template
from blindeval.rundir import trees_identical
from blindeval.stats import (cross_model_agreement, cross_role_agreement, friedman, kendall_w,
                             spearman_rho, version_difference_battery, wilcoxon_signed_rank)
from concordance_fixtures import RATINGS_W073, RATINGS_W078
from oracles import friedman_permutation_p, rank_then_pearson, wilcoxon_exact_two_sided
from test_stats import dominance_table

GOLDEN_PATH = Path(__file__).parent / "data" / "questionnaire_golden.txt"


@contextmanager
def criterion(number: int, title: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {title}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number}] PASS: {title} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    target = tmp_path_factory.mktemp("acceptance") / "demo"
    assert main(["demo", str(target), "--seed", "7"]) == 0
    return target


def test_criterion_1_kendall_identity_against_reported_numbers():
    with criterion(1, "Kendall chi2 = m(n-1)W reproduces 32.85 and 35.10 within 0.01"):
        start = time.monotonic()
        r073 = kendall_w(RATINGS_W073)
        r078 = kendall_w(RATINGS_W078)
        assert r073.n_judges == 3 and r073.n_objects == 16 and r073.df == 15
        assert r078.n_judges == 3 and r078.n_objects == 16 and r078.df == 15
        assert abs(r073.extras["chi_square"] - 32.85) <= 0.01
        assert abs(r078.extras["chi_square"] - 35.10) <= 0.01
        # the identity itself
        assert r073.extras["chi_square"] == pytest.approx(3 * 15 * r073.statistic, abs=1e-9)
        assert r078.extras["chi_square"] == pytest.approx(3 * 15 * r078.statistic, abs=1e-9)
        assert time.monotonic() - start < 1.0


def test_criterion_2_exact_wilcoxon_oracle_equivalence():
    with criterion(2, "exact Wilcoxon p bit-for-bit equal to 2^8 enumeration; approx within 0.03"):
        start = time.monotonic()
        rng = random.Random(2024)
        n = 8
        bit_patterns = np.arange(2 ** n, dtype=np.int64)
        signs = ((bit_patterns[:, None] >> np.arange(n)) & 1).astype(float)  # 1 = positive
        for _ in range(50):
            abs_d = [rng.choice([1, 1, 2, 2, 3, 4]) for _ in range(n)]  # ties guaranteed
            ranks = rankdata(abs_d)
            total = float(ranks.sum())
            t_plus_all = signs @ ranks
            mins_all = np.minimum(t_plus_all, total - t_plus_all)
            for pattern in range(2 ** n):
                observed_min = mins_all[pattern]
                oracle_p = int((mins_all <= observed_min).sum()) / 2 ** n
                diffs = [a if (pattern >> i) & 1 else -a for i, a in enumerate(abs_d)]
                engine_p = wilcoxon_signed_rank(diffs, [0] * n, mode="exact").p_value
                assert engine_p == oracle_p  # bit-for-bit
        for _ in range(12):
            m = rng.randint(15, 20)
            diffs = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(m)]
            exact = wilcoxon_signed_rank(diffs, [0] * m, mode="exact").p_value
            approx = wilcoxon_signed_rank(diffs, [0] * m, mode="approx").p_value
            assert abs(exact - approx) < 0.03
        assert time.monotonic() - start < 10.0


def test_criterion_3_friedman_permutation_oracle():
    with criterion(3, "Friedman large-sample p within 0.02 of 20,000-permutation oracle"):
        start = time.monotonic()
        rng = random.Random(31337)
        checked = 0
        while checked < 20:
            n = rng.randint(8, 12)
            blocks = [[rng.randint(1, 5) for _ in range(4)] for _ in range(n)]
            try:
                engine = friedman(blocks)
            except Exception:
                continue  # fully tied table; resample
            oracle_p = friedman_permutation_p(blocks, n_perms=20_000, seed=checked)
            assert abs(engine.p_value - oracle_p) < 0.02, (blocks, engine.p_value, oracle_p)
            # classical atom-included convention as a supplementary guard;
            # it exceeds the exclusive tail by the whole P(T = t) atom,
            # which at 8..12 blocks is itself worth up to ~2%
            inclusive = friedman_permutation_p(blocks, n_perms=20_000, seed=checked,
                                               convention="inclusive")
            assert abs(engine.p_value - inclusive) < 0.04
            checked += 1
        assert time.monotonic() - start < 30.0


def test_criterion_4_spearman_rank_then_pearson_oracle():
    with criterion(4, "Spearman rho equals independent rank-then-Pearson oracle to 1e-12"):
        rng = random.Random(404)
        checked = 0
        while checked < 100:
            n = rng.randint(10, 30)
            x = [rng.randint(1, 5) for _ in range(n)]   # tied-value fixtures
            y = [rng.randint(1, 5) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman_rho(x, y).statistic == pytest.approx(rank_then_pearson(x, y), abs=1e-12)
            checked += 1


def test_criterion_5_monotone_invariance(mock_table):
    with criterion(5, "score -> 2*score+3 changes rho, W and Friedman chi2 by < 1e-9"):
        transformed = mock_table.transformed(lambda s: 2 * s + 3)
        base_mm = cross_model_agreement(mock_table)
        trans_mm = cross_model_agreement(transformed)
        assert abs(base_mm.spearman.statistic - trans_mm.spearman.statistic) < 1e-9
        assert abs(base_mm.kendall.statistic - trans_mm.kendall.statistic) < 1e-9
        for model in ("gpt", "gemini"):
            assert abs(cross_role_agreement(mock_table, model).statistic
                       - cross_role_agreement(transformed, model).statistic) < 1e-9
        assert abs(version_difference_battery(mock_table).friedman.statistic
                   - version_difference_battery(transformed).friedman.statistic) < 1e-9


def test_criterion_6_blinding_round_trip_and_leak_scan(demo_run):
    with criterion(6, "1,000 (case, seed) round trips hold; demo prompts carry no provenance"):
        corpus = demo_corpus()
        cases = list(corpus)
        rng = random.Random(606)
        for _ in range(1000):
            case = cases[rng.randrange(len(cases))]
            seed = rng.getrandbits(64)
            plan = make_blind_plan(case, seed)
            recovered = {unblind(plan, label) for label in range(1, plan.k + 1)}
            assert recovered == set(case.candidate_ids())

        scanned = 0
        for record_path in sorted((demo_run / "records").glob("*.json")):
            record = json.loads(record_path.read_text(encoding="utf-8"))
            case = corpus.get(record["case_id"])
            transcript = json.loads(
                (demo_run / "transcripts" / f"{record['call_id']}.json").read_text(encoding="utf-8"))
            assert scan_for_leaks(transcript["request_text"], case) == []
            scanned += 1
        assert scanned == 24


def test_criterion_7_end_to_end_determinism(demo_run, tmp_path):
    with criterion(7, "demo --seed 7 twice is byte-identical (timestamps normalized), < 60 s, 24 cells"):
        start = time.monotonic()
        twin = tmp_path / "demo-twin"
        assert main(["demo", str(twin), "--seed", "7"]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert len(list((twin / "records").glob("*.json"))) == 24  # 4 x 3 x 2 grid
        same, diffs = trees_identical(demo_run, twin)
        assert same, diffs


def test_criterion_8_dominance_battery_substitute():
    with criterion(8, "dominance fixture: Friedman p < 0.01, dominant pairs significant after Bonferroni"):
        table = dominance_table()
        battery = version_difference_battery(table)
        assert battery.friedman.p_value < 0.01
        assert battery.family_size == 6
        dominant = [p for p in battery.pairwise if "b" in (p.slot_a, p.slot_b)]
        assert len(dominant) == 3
        for pair in dominant:
            assert pair.result is not None
            assert pair.result.correction.family_size == 6
            assert pair.result.correction.adjusted_p < 0.05
            # enumeration oracle verification of the underlying exact p
            other = pair.slot_a if pair.slot_b == "b" else pair.slot_b
            scores = {(r.case_id, r.role_id, r.model_id, r.dimension): r.score
                      for r in table if r.candidate_id == other}
            sign = 1 if pair.slot_a == "b" else -1
            diffs = [sign * (5 - scores[key]) for key in sorted(scores)]
            assert pair.result.p_value == wilcoxon_exact_two_sided(diffs)


def test_criterion_9_questionnaire_fidelity():
    with criterion(9, "default questionnaire equals the checked-in golden copy (diff empty)"):
        golden = GOLDEN_PATH.read_text(encoding="utf-8")
        template = default_template()
        rendered = (template.render_intro(4) + "\n\n"
                    + template.render_blocks(DEMO_CONCEPT_BLOCK, 4) + "\n")
        assert rendered == golden
        for block in BLOCKS:
            assert block.heading in rendered
        for dim in DIMENSIONS:
            assert " – ".join(ANCHORS[dim]) in rendered
