from __future__ import annotations

import gc
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from blindeval import blinding, cli, judge
from blindeval.cli import main
from blindeval.corpus import load_corpus
from blindeval.fixtures import demo_corpus
from blindeval.provider import TranscriptStore
from blindeval.rundir import RunDirectory, snapshot, trees_identical
from blindeval.scaffold import SessionStore, render_stage_prompt
from blindeval.store import write_json


@pytest.fixture
def run_dir(tmp_path):
    target = tmp_path / "run"
    assert main(["init", str(target), "--seed", "5"]) == 0
    return target


def _add_demo_cases(run_dir, tmp_path):
    files = []
    for case in demo_corpus():
        path = tmp_path / f"{case.id}.src.json"
        path = write_json(path, case)
        files.append(str(path))
    assert main(["-C", str(run_dir), "case", "add", *files]) == 0


def _write_fixture_assets(run_dir):
    from blindeval import persona
    from blindeval.fixtures import DEMO_ROLES

    for role in DEMO_ROLES:
        persona.save_role(role, run_dir / "personas")
    persona.save_template(persona.default_template(), run_dir / "templates")


def test_init_creates_manifest_and_subdirs(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["schema_version"] == 3
    assert manifest["global_seed"] == 5
    for sub in ("cases", "blinding", "records", "report"):
        assert (run_dir / sub).is_dir()


def test_init_ships_the_default_questionnaire(run_dir):
    template = (run_dir / "templates" / "questionnaire.default").read_text(encoding="utf-8")
    assert "{count_word}" in template and "{concepts}" in template
    assert "Cognitive load" in template


def test_init_twice_refused(run_dir, capsys):
    assert main(["init", str(run_dir)]) == 1
    assert "error:" in capsys.readouterr().err


def test_uninitialized_directory_is_a_single_line_error(tmp_path, capsys):
    assert main(["-C", str(tmp_path), "case", "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


def test_schema_mismatch_refused(run_dir, capsys):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["schema_version"] = 99
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["-C", str(run_dir), "case", "list"]) == 1
    assert "schema version" in capsys.readouterr().err


def test_case_add_list_show(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    capsys.readouterr()
    assert main(["-C", str(run_dir), "case", "list", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in listed] == ["case1", "case2", "case3", "case4"]
    assert all(c["candidates"] == 4 for c in listed)

    assert main(["-C", str(run_dir), "case", "show", "case2", "--json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["id"] == "case2"

    assert main(["-C", str(run_dir), "case", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{c['id']}\t4 candidates\t{c['title']}" for c in listed]
    assert main(["-C", str(run_dir), "case", "show", "case2"]) == 0
    case = demo_corpus().get("case2")
    assert capsys.readouterr().out.splitlines() == [
        f"case2: {case.title}", f"source: {case.source_text}", f"context: {case.context_note}",
        *(f"  - {c.id} [{c.origin}] {c.translator_label}" for c in case.candidates)]


def test_case_add_duplicate_rejected(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    assert main(["-C", str(run_dir), "case", "add", str(tmp_path / "case1.src.json")]) == 1
    assert "case1" in capsys.readouterr().err


def test_case_add_of_an_invalid_case_prints_its_violations_and_saves_nothing(run_dir, tmp_path,
                                                                             capsys):
    case = demo_corpus().get("case1")
    case.candidates = case.candidates[:1]
    path = write_json(tmp_path / "case1.src.json", case)
    capsys.readouterr()
    assert main(["-C", str(run_dir), "case", "add", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "[case1] needs at least 2 candidates, has 1",
        "error: ValidationError: case 'case1' violates corpus invariants; not saved"]
    assert list((run_dir / "cases").iterdir()) == []


def test_blind_seeded_and_idempotent(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    assert main(["-C", str(run_dir), "blind", "--seed", "9"]) == 0
    first = (run_dir / "blinding" / "case1.json").read_text()
    assert main(["-C", str(run_dir), "blind", "--seed", "9"]) == 0  # no-op rerun
    assert (run_dir / "blinding" / "case1.json").read_text() == first


def test_blind_refuses_silent_rearrangement(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    assert main(["-C", str(run_dir), "blind", "--seed", "9"]) == 0
    assert main(["-C", str(run_dir), "blind", "--seed", "10"]) == 1
    assert "refusing" in capsys.readouterr().err
    assert main(["-C", str(run_dir), "blind", "--seed", "10", "--force"]) == 0


def test_blind_force_refuses_to_rekey_judged_cases(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    plans = {p.name: p.read_bytes() for p in (target / "blinding").iterdir()}
    capsys.readouterr()
    assert main(["-C", str(target), "blind", "--seed", "8", "--force"]) == 1
    _single_error_line(capsys, "'case1'", "remove its records")
    assert {p.name: p.read_bytes() for p in (target / "blinding").iterdir()} == plans
    # with its records gone, a case may be re-blinded
    for path in (target / "records").glob("case1_*.json"):
        path.unlink()
    assert main(["-C", str(target), "blind", "--seed", "8", "--force"]) == 1
    _single_error_line(capsys, "'case2'")
    assert {p.name: p.read_bytes() for p in (target / "blinding").iterdir()} == plans
    for path in (target / "records").iterdir():
        path.unlink()
    assert main(["-C", str(target), "blind", "--seed", "8", "--force"]) == 0
    assert (target / "blinding" / "case1.json").read_bytes() != plans["case1.json"]


def test_blind_paper_layout_fixture(run_dir, tmp_path):
    _add_demo_cases(run_dir, tmp_path)
    assert main(["-C", str(run_dir), "blind", "--fixture", "paper-layout"]) == 0
    plan = json.loads((run_dir / "blinding" / "case1.json").read_text())
    assert plan["permutation"] == ["llm-final", "li-zhaoguo", "llm-baseline", "unschuld"]
    assert plan["seed"] is None


def test_evaluate_requires_plans(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "evaluate", "--models", "gpt", "--mock"]) == 1
    assert "blind" in capsys.readouterr().err


def test_evaluate_mock_and_resume(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R1,R2,R3",
                 "--models", "gpt,gemini", "--mock", "--concurrency", "4"]) == 0
    out = capsys.readouterr().out
    assert "\ndispatch: 4 worker(s); cap gemini=4, gpt=4\ncase1_R1_gemini: done\n" in out
    assert "24 record(s) done, 0 failed, 24 job(s) total" in out
    n_transcripts = len(list((run_dir / "transcripts").glob("*.json")))

    # interrupt simulation: drop one record, resume completes only that one
    (run_dir / "records" / "case2_R2_gpt.json").unlink()
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R1,R2,R3",
                 "--models", "gpt,gemini", "--mock", "--resume"]) == 0
    assert capsys.readouterr().out.startswith("dispatch: 1 worker(s); cap gemini=4, gpt=4\n")
    assert len(list((run_dir / "records").glob("*.json"))) == 24
    assert len(list((run_dir / "transcripts").glob("*.json"))) == n_transcripts + 1


def test_repeated_models_and_roles_plan_each_cell_once(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    capsys.readouterr()
    assert main(["-C", str(run_dir), "evaluate", "--models", "gpt,gpt", "--roles", "R1,R1",
                 "--mock"]) == 0
    assert "4 record(s) done, 0 failed, 4 job(s) total" in capsys.readouterr().out
    assert len(list((run_dir / "transcripts").glob("*.json"))) == 4
    assert len(list((run_dir / "records").glob("*.json"))) == 4


@pytest.mark.parametrize("personas, cases, models, names", [
    (False, True, "gpt,gemini", "personas"),
    (True, False, "gpt,gemini", "cases"),
    (True, True, ",", "--models"),
])
def test_an_empty_grid_is_a_single_line_error(run_dir, tmp_path, capsys, personas, cases,
                                              models, names):
    if cases:
        _add_demo_cases(run_dir, tmp_path)
        assert main(["-C", str(run_dir), "blind"]) == 0
    if personas:
        _write_fixture_assets(run_dir)
    capsys.readouterr()
    assert main(["-C", str(run_dir), "evaluate", "--models", models, "--mock"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ValidationError: no ") and err.count("\n") == 1
    assert names in err
    assert list((run_dir / "records").iterdir()) == []


def test_unknown_role_is_an_error(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R9", "--models", "gpt", "--mock"]) == 1
    assert "R9" in capsys.readouterr().err


def test_parse_replay_rewrites_records(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--models", "gpt", "--mock"]) == 0
    record_path = run_dir / "records" / "case1_R1_gpt.json"
    before = json.loads(record_path.read_text())
    doc = dict(before)
    doc["scores"] = {}
    doc["complete"] = False
    record_path.write_text(json.dumps(doc))
    assert main(["-C", str(run_dir), "parse", "--replay", "case1_R1_gpt"]) == 0
    after = json.loads(record_path.read_text())
    assert after["scores"] == before["scores"]
    assert after["complete"]


def test_stats_and_report_on_demo_output(tmp_path, capsys):
    target = tmp_path / "demo"
    assert main(["demo", str(target), "--seed", "7"]) == 0
    capsys.readouterr()

    results = (target / "report" / "results.txt").read_text()
    assert "friedman" in results
    assert "df=3" in results
    assert results.count("bonferroni(family=6)") == 6
    assert "kendall_w" in results

    assert main(["-C", str(target), "stats", "export"]) == 0
    scores = (target / "report" / "scores.csv").read_text()
    assert scores.splitlines()[0] == "case,role,model,candidate,dimension,score,repeat"
    assert len(scores.splitlines()) == 1 + 480

    assert main(["-C", str(target), "stats", "run", "--blocking", "case,role,model"]) == 0
    rerun = (target / "report" / "results.txt").read_text()
    assert "blocking: case, role, model" in rerun

    assert main(["-C", str(target), "report", "build"]) == 0
    assert (target / "report" / "report.md").exists()


def test_stats_run_drops_the_units_an_incomplete_record_leaves_open(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    # a reply that missed one cell: the record the parser makes of it
    path = target / "records" / "case1_R1_gpt.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    del record["scores"]["1"]["Clarity"]
    write_json(path, {**record, "complete": False})
    results = target / "report" / "results.txt"

    def lines(*argv):
        assert main(["-C", str(target), "stats", "run", *argv]) == 0
        text = results.read_text(encoding="utf-8")
        return ([line for line in text.splitlines() if line.startswith(("spearman", "kendall"))],
                {line[1:line.index("]")]: line for line in text.splitlines()
                 if line.startswith("[")},
                next(line for line in text.splitlines() if line.startswith("complete blocks")))

    # the record is left out: its 20 cells lack a gpt score, and 4 objects its role
    cross_model, cross_role, blocks = lines()
    assert len(cross_model) == 2 and all("excluded=20" in line.split("  ") for line in cross_model)
    assert "excluded=4" in cross_role["gpt"].split("  ") and "excluded" not in cross_role["gemini"]
    assert blocks == "complete blocks: 115  excluded incomplete: 0"
    # its 19 cells are used: one cell pair and one block go unmatched
    cross_model, cross_role, blocks = lines("--include-incomplete")
    assert len(cross_model) == 2 and all("excluded=1" in line.split("  ") for line in cross_model)
    assert not any("excluded" in line for line in cross_role.values())
    assert blocks == "complete blocks: 119  excluded incomplete: 1"


def test_stats_run_single_model_skips_agreement(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R1", "--models", "gpt", "--mock"]) == 0
    assert main(["-C", str(run_dir), "stats", "run"]) == 0
    results = (run_dir / "report" / "results.txt").read_text().splitlines()
    assert ("cross_model_agreement: skipped "
            "(cross-model agreement needs exactly 2 models, table has 1)") in results
    assert "[gpt] cross_role_agreement: skipped (model 'gpt' has 1 role(s); need at least 2)" in results
    assert "complete blocks: 20  excluded incomplete: 0" in results  # the battery still runs


def test_stats_run_writes_each_section_the_grid_supports(run_dir, tmp_path, capsys):
    # the two models share no cell and gemini has one role, yet the battery
    # has complete blocks
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R1,R2", "--models", "gpt", "--mock"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R3", "--models", "gemini", "--mock"]) == 0
    capsys.readouterr()
    assert main(["-C", str(run_dir), "stats", "run"]) == 0
    assert capsys.readouterr().err == ""
    text = (run_dir / "report" / "results.txt").read_text()
    assert ("## cross-model agreement\n"
            "cross_model_agreement: skipped (need n >= 3 pairs, got 0)\n") in text
    results = text.splitlines()
    assert "[gemini] cross_role_agreement: skipped (model 'gemini' has 1 role(s); need at least 2)" in results
    assert any(line.startswith("[gpt] kendall_w: ") and "m=2" in line.split("  ") for line in results)
    assert "complete blocks: 60  excluded incomplete: 0" in results
    assert any(line.startswith("friedman: statistic=") for line in results)
    assert sum(line.startswith("  ") and "bonferroni(family=6)" in line for line in results) == 6


def test_stats_run_with_one_block_skips_only_the_battery(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    results = target / "report" / "results.txt"

    def agreement_and_battery(*argv):
        assert main(["-C", str(target), "stats", "run", *argv]) == 0
        text = results.read_text(encoding="utf-8")
        return text.split("## version differences")

    agreement, battery = agreement_and_battery("--blocking", "")
    assert battery.splitlines()[:2] == [
        " (blocking: )", "version_difference_battery: skipped (need at least 2 blocks, got 1)"]
    assert agreement == agreement_and_battery()[0]
    assert "skipped" not in agreement


def test_two_versions_scored_alike_are_a_degenerate_pair_beside_friedman(full_run, tmp_path):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    plans = blinding.load_plans(target / "blinding")
    for path in (target / "records").glob("*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        label = plans[record["case_id"]].permutation.index
        scores = record["scores"]
        scores[str(label("llm-final") + 1)] = scores[str(label("llm-baseline") + 1)]
        write_json(path, record)
    assert main(["-C", str(target), "stats", "run"]) == 0
    results = (target / "report" / "results.txt").read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("friedman: statistic=") for line in results)
    assert ("  llm-baseline vs llm-final: degenerate (all differences are zero; no information)"
            in results)
    assert sum("bonferroni(family=6)" in line for line in results) == 5


def test_an_unknown_blocking_field_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    before = (target / "report" / "results.txt").read_bytes()
    capsys.readouterr()
    assert main(["-C", str(target), "stats", "run", "--blocking", "case,banana"]) == 1
    _single_error_line(capsys, "error: ValidationError", "unknown blocking fields: banana")
    assert (target / "report" / "results.txt").read_bytes() == before


def test_a_table_of_incomplete_records_is_one_error_for_every_analysis_verb(full_run, tmp_path,
                                                                           capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    (target / "report" / "results.txt").unlink()
    (target / "report" / "scores.csv").unlink()
    for path in (target / "records").glob("*.json"):
        write_json(path, {**json.loads(path.read_text(encoding="utf-8")), "complete": False})
    for verb in (["stats", "export"], ["stats", "run"], ["report", "build"]):
        capsys.readouterr()
        assert main(["-C", str(target), *verb]) == 1
        _single_error_line(capsys, "error: ValidationError", "no evaluation records")
    assert not (target / "report" / "scores.csv").exists()
    assert main(["-C", str(target), "stats", "run", "--include-incomplete"]) == 0
    assert "complete blocks: 120" in (target / "report" / "results.txt").read_text()


def test_demo_runs_are_byte_identical_modulo_timestamps(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["demo", str(a), "--seed", "7"]) == 0
    assert main(["demo", str(b), "--seed", "7"]) == 0
    same, diffs = trees_identical(a, b)
    assert same, diffs


#: sha256 of the normalised `demo --seed 7` tree; a change that means to
#: change the demo's outputs updates it and says so.
DEMO_SEED_7_DIGEST = "081fe793090754373fdd8070fedb9ca6e39a833d7437fdee605e589dacf6f955"


def test_demo_tree_digest_is_pinned(tmp_path):
    target = tmp_path / "demo"
    assert main(["demo", str(target), "--seed", "7"]) == 0
    tree = json.dumps(snapshot(target), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(tree).hexdigest() == DEMO_SEED_7_DIGEST


def test_demo_seed_7_exercises_both_parse_routes(tmp_path):
    target = tmp_path / "d"
    assert main(["demo", str(target), "--seed", "7"]) == 0
    modes = {json.loads(p.read_text())["parse_mode"]
             for p in (target / "records").glob("*.json")}
    assert modes == {"fenced", "prose_fallback"}


def test_demo_seed_changes_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["demo", str(a), "--seed", "7"]) == 0
    assert main(["demo", str(b), "--seed", "8"]) == 0
    same, _ = trees_identical(a, b)
    assert not same


def test_lock_blocks_second_invocation(run_dir, capsys):
    run = RunDirectory.open(run_dir)
    with run.lock():
        assert main(["-C", str(run_dir), "case", "list"]) == 1
        assert "locked" in capsys.readouterr().err
    assert main(["-C", str(run_dir), "case", "list"]) == 0


def test_no_lock_left_behind_after_commands(run_dir):
    assert main(["-C", str(run_dir), "case", "list"]) == 0
    assert not (run_dir / ".lock").exists()


def test_stale_lock_of_exited_process_is_taken_over(run_dir):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (run_dir / ".lock").write_text(str(child.pid))
    assert main(["-C", str(run_dir), "case", "list"]) == 0
    assert not (run_dir / ".lock").exists()


# --- unreadable files end in one error line naming the file --------------------


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """A demo run plus one scaffold session: every kind of run-directory file."""
    target = tmp_path_factory.mktemp("full") / "run"
    assert main(["demo", str(target), "--seed", "7"]) == 0
    assert main(["-C", str(target), "scaffold", "start", "--case", "case1",
                 "--model", "deepseek", "--mock"]) == 0
    return target


def _single_error_line(capsys, *names):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for name in names:
        assert name in lines[0], err


@pytest.mark.parametrize("relpath, argv", [
    ("manifest.json", ["case", "list"]),
    ("cases/case1.json", ["stats", "run"]),
    ("blinding/case1.json", ["report", "build"]),
    ("records/case1_R1_gpt.json", ["stats", "run"]),
    ("records/case1_R1_gpt.json", ["evaluate", "--models", "gpt", "--mock", "--resume"]),
    ("sessions/case1-deepseek-01.json", ["scaffold", "diagnose", "--adequate",
                                         "--session", "case1-deepseek-01"]),
])
def test_truncated_file_is_a_single_line_error(full_run, tmp_path, capsys, relpath, argv):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    path = target / relpath
    path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
    capsys.readouterr()
    assert main(["-C", str(target), *argv]) == 1
    _single_error_line(capsys, relpath)


def test_unknown_provider_key_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    (target / "providers.json").write_text(json.dumps(
        {"acme": {"endpoint": "http://localhost:1", "model": "m", "temprature": 0.5}}))
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", "--models", "acme", "--roles", "R1"]) == 1
    _single_error_line(capsys, "providers.json", "temprature")


@pytest.mark.parametrize("key, value", [("max_retries", -1), ("max_concurrent", 0)])
def test_out_of_range_provider_setting_is_a_single_line_error(full_run, tmp_path, capsys,
                                                               key, value):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    (target / "providers.json").write_text(json.dumps(
        {"acme": {"endpoint": "http://localhost:1", "model": "m", key: value}}))
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", "--models", "acme", "--roles", "R1"]) == 1
    _single_error_line(capsys, "error: ValidationError", "providers.json", key)
    assert not any((target / "transcripts").glob("acme-*"))


def test_no_command_prints_the_help_and_exits_2(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("usage:") and err == ""


def test_blind_with_no_cases_is_a_single_line_error(run_dir, capsys):
    capsys.readouterr()
    assert main(["-C", str(run_dir), "blind"]) == 1
    _single_error_line(capsys, "error: ValidationError", "no cases to blind")
    assert list((run_dir / "blinding").iterdir()) == []
    assert list((run_dir / "transcripts").iterdir()) == []


def _empty_persona(target):
    (target / "personas" / "R1.txt").write_text("\n", encoding="utf-8")


def _template_without_separator(target):
    path = target / "templates" / "questionnaire.default"
    path.write_text(path.read_text(encoding="utf-8").replace("<<<blocks>>>", ""),
                    encoding="utf-8")


@pytest.mark.parametrize("damage, options, message", [
    (None, ["--models", "acme", "--roles", "R1"], "unknown provider 'acme'"),
    (None, ["--models", "gpt", "--mock", "--repeats", "0"], "repeats must be >= 1"),
    (None, ["--models", "gpt", "--mock", "--concurrency", "0"], "concurrency limit must be >= 1"),
    (_empty_persona, ["--models", "gpt", "--mock"], "role 'R1' has empty persona text"),
    (_template_without_separator, ["--models", "gpt", "--mock"],
     "lacks the intro/blocks separator"),
], ids=["unknown-model", "repeats-0", "concurrency-0", "empty-persona", "template-separator"])
def test_a_refused_evaluate_is_a_single_line_error_and_calls_no_judge(full_run, tmp_path, capsys,
                                                                      damage, options, message):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    if damage:
        damage(target)
    transcripts = sorted((target / "transcripts").iterdir())
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", *options]) == 1
    _single_error_line(capsys, "error: ValidationError", message)
    assert sorted((target / "transcripts").iterdir()) == transcripts


def test_case_add_of_non_json_file_is_a_single_line_error(run_dir, tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("id: case9\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["-C", str(run_dir), "case", "add", str(path)]) == 1
    _single_error_line(capsys, "notes.txt")


@pytest.mark.parametrize("verb", [["stats", "export"], ["stats", "run"], ["report", "build"]])
def test_analysis_verbs_pause_the_cyclic_gc_and_restore_it(full_run, run_dir, tmp_path, capsys,
                                                            monkeypatch, verb):
    target = tmp_path / "demo"
    shutil.copytree(full_run, target)
    seen = []
    build = cli.table_from_records
    monkeypatch.setattr(cli, "table_from_records",
                        lambda *a, **kw: seen.append(gc.isenabled()) or build(*a, **kw))
    assert gc.isenabled()
    assert main(["-C", str(target), *verb]) == 0
    assert seen == [False] and gc.isenabled()

    capsys.readouterr()
    assert main(["-C", str(run_dir), *verb]) == 1
    _single_error_line(capsys, "no evaluation records")
    assert gc.isenabled()

    gc.disable()
    try:
        assert main(["-C", str(target), *verb]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [
    ["case", "show", "nosuch"],
    ["scaffold", "start", "--case", "nosuch", "--model", "deepseek", "--mock"],
])
def test_unknown_case_is_a_single_line_error(full_run, tmp_path, capsys, argv):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    capsys.readouterr()
    assert main(["-C", str(target), *argv]) == 1
    _single_error_line(capsys, "unknown case 'nosuch'")


def test_every_demo_record_is_its_transcript_rejudged(full_run):
    plans = blinding.load_plans(full_run / "blinding")
    transcripts = TranscriptStore(full_run / "transcripts")
    records = judge.RecordStore(full_run / "records").load_all()
    assert len(records) == 24
    for record in records:
        assert transcripts.path_for(record.call_id).is_file()
        reply = transcripts.load(record.call_id).response_text
        assert judge.judge_reply(record, plans, reply, record.call_id) == record


def test_replay_all_leaves_the_demo_tree_unchanged(full_run, tmp_path):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    assert main(["-C", str(target), "parse", "--replay", "all"]) == 0
    assert trees_identical(full_run, target) == (True, [])


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_replay_with_an_unreadable_transcript_rewrites_no_record(full_run, tmp_path, capsys,
                                                                 damage):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    # the first record in replay order reads differently once re-judged
    first = target / "records" / "case1_R1_gemini.json"
    write_json(first, {**json.loads(first.read_text(encoding="utf-8")),
                       "scores": {}, "complete": False})
    # the last one's transcript cannot be read
    last = json.loads((target / "records" / "case4_R3_gpt.json").read_text(encoding="utf-8"))
    transcript = target / "transcripts" / f"{last['call_id']}.json"
    if damage == "missing":
        transcript.unlink()
    else:
        transcript.write_bytes(transcript.read_bytes()[:40])
    records = {p.name: p.read_bytes() for p in (target / "records").iterdir()}
    capsys.readouterr()
    assert main(["-C", str(target), "parse", "--replay", "all"]) == 1
    _single_error_line(capsys, "error: RunDirectoryError", transcript.name)
    assert {p.name: p.read_bytes() for p in (target / "records").iterdir()} == records


def test_replay_without_blind_plan_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    (target / "blinding" / "case1.json").unlink()
    capsys.readouterr()
    assert main(["-C", str(target), "parse", "--replay", "all"]) == 1
    _single_error_line(capsys, "no blind plan for case 'case1'")


def test_template_missing_a_block_heading_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    path = target / "templates" / "questionnaire.default"
    path.write_text(path.read_text(encoding="utf-8").replace("Cognitive load", "Effort"),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", "--models", "gpt", "--mock"]) == 1
    _single_error_line(capsys, "'Cognitive load'")


@pytest.mark.parametrize("argv", [
    ["advance", "--mock", "--supplement-file"],
    ["finalize", "--text-file"],
])
@pytest.mark.parametrize("content", [None, b"caf\xe9\n"], ids=["missing", "latin1"])
def test_unreadable_scaffold_text_file_is_a_single_line_error(full_run, tmp_path, capsys,
                                                              argv, content):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    path = tmp_path / "supplement.txt"
    if content is not None:
        path.write_bytes(content)
    capsys.readouterr()
    assert main(["-C", str(target), "scaffold", argv[0], "--session", "case1-deepseek-01",
                 *argv[1:], str(path)]) == 1
    _single_error_line(capsys, "supplement.txt")


def test_non_utf8_persona_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    (target / "personas" / "R1.txt").write_bytes(b"a reader who writes caf\xe9\n")
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", "--models", "gpt", "--mock"]) == 1
    _single_error_line(capsys, "R1.txt")


def test_missing_template_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    (target / "templates" / "questionnaire.default").unlink()
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", "--models", "gpt", "--mock"]) == 1
    _single_error_line(capsys, "questionnaire.default")


def test_crlf_persona_renders_as_the_lf_one(full_run, tmp_path):
    from blindeval import persona

    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    roles = persona.load_roles(target / "personas")
    for path in (target / "personas").glob("*.txt"):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert persona.load_roles(target / "personas") == roles


def test_every_demo_json_file_is_canonical_bytes(full_run):
    # snapshot() re-serializes JSON, so the pinned digest cannot see the format
    paths = sorted(full_run.rglob("*.json"))
    assert {p.relative_to(full_run).parts[0] for p in paths} == {
        "manifest.json", "cases", "blinding", "records", "transcripts", "sessions"}
    for path in paths:
        data = path.read_bytes()
        doc = json.loads(data.decode("utf-8"))
        canonical = json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        assert data == canonical.encode("utf-8"), path


def test_every_demo_file_is_utf8_with_lf_line_ends(full_run):
    paths = sorted(p for p in full_run.rglob("*") if p.is_file())
    names = {str(p.relative_to(full_run)) for p in paths}
    assert {"report/scores.csv", "report/radar.csv", "report/roles.csv", "report/cases/case1.csv",
            "report/report.md", "report/results.txt", "personas/R1.txt",
            "templates/questionnaire.default"} <= names
    for path in paths:
        text = path.read_bytes().decode("utf-8")
        assert "\r" not in text and text.endswith("\n"), path


def test_a_mock_session_is_one_file_whose_turns_name_their_transcripts(run_dir, tmp_path):
    _add_demo_cases(run_dir, tmp_path)
    transcripts = TranscriptStore(run_dir / "transcripts")

    def scaffold(*argv):
        assert main(["-C", str(run_dir), "scaffold", *argv]) == 0
        return sorted(p.name for p in transcripts.directory.iterdir())

    session = ["--session", "case1-deepseek-01"]
    scaffold("start", "--case", "case1", "--model", "deepseek", "--mock")
    sent = scaffold("diagnose", *session, "--modes", "knowledge_gap")
    assert len(sent) == 1  # diagnose makes no call
    scaffold("advance", *session, "--supplement", "x", "--mock")
    sent = scaffold("advance", *session, "--mock")
    assert scaffold("finalize", *session, "--text", "T") == sent  # nor does finalize

    path = run_dir / "sessions" / "case1-deepseek-01.json"
    assert list(path.parent.iterdir()) == [path]
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "turn_count" not in doc
    assert [set(turn) for turn in doc["turns"]] == [{"stage_at_send", "call_id", "supplement"}] * 3
    case = load_corpus(run_dir / "cases").get("case1")
    turns = SessionStore(path.parent).load("case1-deepseek-01").turns
    assert [t.stage_at_send for t in turns] == ["Baseline", "InjectKnowledge", "Polish"]
    assert sorted(f"{t.call_id}.json" for t in turns) == sent
    for turn in turns:
        transcript = transcripts.load(turn.call_id)
        assert json.loads(transcript.request_text)["messages"][-1] == {
            "role": "user",
            "content": render_stage_prompt(turn.stage_at_send, case, turn.supplement)}
        assert transcript.response_text not in path.read_text(encoding="utf-8")
    assert [c.text for c in case.candidates if c.origin == "llm_adjusted"] == ["T"]


def test_the_paper_pipeline_registers_the_scaffolded_candidate_and_judges_it(run_dir, tmp_path,
                                                                            capsys):
    """The human-in-the-loop path, verb by verb: a case without a prompt-adjusted
    rendering gets one from a refinement session, then is blinded, judged,
    analysed and reported with it."""
    from blindeval.fixtures import DEMO_ROLES

    case = demo_corpus().get("case1")
    case.candidates = [c for c in case.candidates if c.origin != "llm_adjusted"]
    path = write_json(tmp_path / "case1.src.json", case)

    def run(*argv):
        assert main(["-C", str(run_dir), *argv]) == 0, capsys.readouterr().err

    run("case", "add", str(path))
    for role in DEMO_ROLES:
        (run_dir / "personas" / f"{role.id}.txt").write_text(role.persona_text + "\n",
                                                             encoding="utf-8")
    session = ["--session", "case1-deepseek-01"]
    run("scaffold", "start", "--case", "case1", "--model", "deepseek", "--mock")
    run("scaffold", "diagnose", *session, "--modes", "knowledge_gap")
    run("scaffold", "advance", *session, "--supplement", "qi: the body's vital activity", "--mock")
    run("scaffold", "advance", *session, "--mock")
    run("scaffold", "finalize", *session, "--text", "The scaffolded rendering.")
    final = load_corpus(run_dir / "cases").get("case1").candidates[-1]
    assert (final.id, final.origin, final.translator_label, final.text) == (
        "llm-final", "llm_adjusted", "deepseek/mock-deepseek", "The scaffolded rendering.")

    run("blind")
    assert "llm-final" in blinding.load_plans(run_dir / "blinding")["case1"].permutation
    run("evaluate", "--models", "gpt,gemini", "--mock")
    assert "6 record(s) done, 0 failed, 6 job(s) total" in capsys.readouterr().out
    run("stats", "run")
    run("report", "build")
    assert "llm-final" in (run_dir / "report" / "report.md").read_text(encoding="utf-8")


def test_a_failed_baseline_call_leaves_no_session(run_dir, tmp_path, capsys, monkeypatch):
    _add_demo_cases(run_dir, tmp_path)
    monkeypatch.delenv("DEEPSEEK_API_KEY", raising=False)
    start = ["-C", str(run_dir), "scaffold", "start", "--case", "case1", "--model", "deepseek"]
    capsys.readouterr()
    assert main(start) == 1
    _single_error_line(capsys, "DEEPSEEK_API_KEY")
    assert list((run_dir / "sessions").iterdir()) == []

    assert main([*start, "--mock"]) == 0
    path = run_dir / "sessions" / "case1-deepseek-01.json"
    assert list(path.parent.iterdir()) == [path]
    session = SessionStore(path.parent).load("case1-deepseek-01")
    assert session.stage == "Diagnose"
    assert [t.stage_at_send for t in session.turns] == ["Baseline"]


def test_a_printed_reason_is_one_line_with_control_characters_escaped():
    reason = "502 from proxy:\r\n<html>\n\t<body>\x1b[31mBad\x00 gateway </body>\x85</html>\n"
    assert cli.one_line(reason) == r"502 from proxy: <html> <body>\x1b[31mBad\x00 gateway </body> </html>"


# --- ids that cannot escape or collide, strings that encode, files that hold their name --


def _listing(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_case_add_of_an_escaping_id_is_a_single_line_error(run_dir, tmp_path, capsys):
    case = demo_corpus().get("case1")
    case.id = "../escaped"
    path = write_json(tmp_path / "escaped.src.json", case)
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(["-C", str(run_dir), "case", "add", str(path)]) == 1
    _single_error_line(capsys, "error: ValidationError", "'../escaped'")
    assert _listing(tmp_path) == before


def test_evaluate_of_an_escaping_model_id_is_refused_before_any_call(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(["-C", str(target), "evaluate", "--mock", "--models", "../../esc",
                 "--roles", "R1"]) == 1
    _single_error_line(capsys, "error: ValidationError", "'../../esc'")
    assert _listing(tmp_path) == before


def test_ids_whose_record_keys_collide_are_refused_before_any_call(run_dir, tmp_path, capsys):
    for case_id in ("c", "c_R1"):
        case = demo_corpus().get("case1")
        case.id = case_id
        assert main(["-C", str(run_dir), "case", "add",
                     str(write_json(tmp_path / f"{case_id}.src.json", case))]) == 0
    for role_id in ("R1", "R1_R1"):
        (run_dir / "personas" / f"{role_id}.txt").write_text(f"Reader {role_id}.\n",
                                                             encoding="utf-8")
    assert main(["-C", str(run_dir), "blind"]) == 0
    capsys.readouterr()
    # (c, R1_R1) and (c_R1, R1) would both be record c_R1_R1_gpt
    assert main(["-C", str(run_dir), "evaluate", "--models", "gpt", "--mock"]) == 1
    _single_error_line(capsys, "error: ValidationError", "'c_R1'")
    assert list((run_dir / "transcripts").iterdir()) == []
    assert list((run_dir / "records").iterdir()) == []


def _with_surrogate(path, key):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] += "\ud800"
    path.write_text(json.dumps(doc), encoding="ascii")  # the surrogate as a \u escape


@pytest.mark.parametrize("relpath, key, argv", [
    (None, "title", ["case", "add"]),
    ("cases/case1.json", "title", ["case", "list"]),
    ("records/case1_R1_gpt.json", "model_id", ["stats", "run"]),
], ids=["case-add", "case-list", "stats-run"])
def test_a_lone_surrogate_is_a_single_line_error(full_run, tmp_path, capsys, relpath, key, argv):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    path = target / relpath if relpath else tmp_path / "case9.src.json"
    if not relpath:
        case = demo_corpus().get("case1")
        case.id = "case9"
        write_json(path, case)
        argv = [*argv, str(path)]
    _with_surrogate(path, key)
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(["-C", str(target), *argv]) == 1
    _single_error_line(capsys, "error: RunDirectoryError", path.name, "surrogates not allowed")
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["stats", "run"],
    ["parse", "--replay", "all"],
    ["evaluate", "--models", "gpt", "--mock", "--resume"],
])
def test_a_record_under_another_records_name_is_a_single_line_error(full_run, tmp_path, capsys,
                                                                      argv):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    records = target / "records"
    shutil.copyfile(records / "case1_R1_gpt.json", records / "case1_R2_gpt.json")
    tree = {p: p.read_bytes() for p in target.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["-C", str(target), *argv]) == 1
    _single_error_line(capsys, "error: ValidationError", "case1_R2_gpt.json",
                       "holds 'case1_R1_gpt'")
    assert {p: p.read_bytes() for p in target.rglob("*") if p.is_file()} == tree


@pytest.mark.parametrize("sub", ["cases", "blinding"])
def test_a_missing_document_directory_is_a_single_line_error(full_run, tmp_path, capsys, sub):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    shutil.rmtree(target / sub)
    capsys.readouterr()
    assert main(["-C", str(target), "stats", "run"]) == 1
    _single_error_line(capsys, "error: RunDirectoryError", f"cannot read {target / sub}")


def test_a_record_with_a_huge_repeat_index_is_a_single_line_error(full_run, tmp_path, capsys):
    target = tmp_path / "run"
    shutil.copytree(full_run, target)
    path = target / "records" / "case1_R1_gpt.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["repeat_index"] = 10 ** 400
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    capsys.readouterr()
    assert main(["-C", str(target), "parse", "--replay", "all"]) == 1
    _single_error_line(capsys, "error: ValidationError", "case1_R1_gpt.json", "_r1000")
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == records
