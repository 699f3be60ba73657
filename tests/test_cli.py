from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from blindeval.cli import main
from blindeval.fixtures import demo_corpus
from blindeval.rundir import RunDirectory, snapshot, trees_identical
from blindeval.store import to_doc, write_json


@pytest.fixture
def run_dir(tmp_path):
    target = tmp_path / "run"
    assert main(["init", str(target), "--seed", "5"]) == 0
    return target


def _add_demo_cases(run_dir, tmp_path):
    files = []
    for case in demo_corpus():
        path = tmp_path / f"{case.id}.src.json"
        path = write_json(path, to_doc(case))
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
    assert manifest["schema_version"] == 1
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


def test_case_add_duplicate_rejected(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    assert main(["-C", str(run_dir), "case", "add", str(tmp_path / "case1.src.json")]) == 1
    assert "case1" in capsys.readouterr().err


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


def test_stats_run_single_model_skips_agreement(run_dir, tmp_path, capsys):
    _add_demo_cases(run_dir, tmp_path)
    _write_fixture_assets(run_dir)
    assert main(["-C", str(run_dir), "blind"]) == 0
    assert main(["-C", str(run_dir), "evaluate", "--roles", "R1", "--models", "gpt", "--mock"]) == 0
    assert main(["-C", str(run_dir), "stats", "run"]) == 0
    results = (run_dir / "report" / "results.txt").read_text()
    assert "needs exactly two models; skipped" in results
    assert "friedman" in results  # battery still runs on 20 blocks


def test_demo_runs_are_byte_identical_modulo_timestamps(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["demo", str(a), "--seed", "7"]) == 0
    assert main(["demo", str(b), "--seed", "7"]) == 0
    same, diffs = trees_identical(a, b)
    assert same, diffs


#: sha256 of the normalised `demo --seed 7` tree; a change that means to
#: change the demo's outputs updates it and says so.
DEMO_SEED_7_DIGEST = "2741bc8981808cdf199197973d0ba3e74453fbdd3f01b13a3cca60e53db18351"


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
    ("sessions/case1-deepseek-01/session.json", ["scaffold", "diagnose", "--adequate",
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


def test_case_add_of_non_json_file_is_a_single_line_error(run_dir, tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("id: case9\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["-C", str(run_dir), "case", "add", str(path)]) == 1
    _single_error_line(capsys, "notes.txt")


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
