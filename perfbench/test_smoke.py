"""Smoke test of the benchmark itself, at a tiny scale.

    PYTHONPATH=src python3 -m pytest -q perfbench

It is outside the tier-1 suite, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
from workloads import workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    proc = bench(ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    env, result = json.loads(env_line)["env"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert env["seed"] == SEED and env["workload"] == name
    assert env["python"] and env["nproc"] >= 1 and env["commit"]
    assert len(env["reference_sha256"]) == 64


def test_reference_digest_depends_on_the_outputs_only(tmp_path):
    def digest(name: str, seed: int) -> str:
        task = {"workload": "grid-local", "seed": seed, "tiny": True, "dir": str(tmp_path / name)}
        worker.step_setup(task)
        return worker.step_reference(task)["sha256"]

    assert digest("a", SEED) == digest("b", SEED) != digest("c", SEED + 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(tmp_path, "--workload", "grid-local", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_output_check_rejects_a_tampered_record(tmp_path):
    wl = workload("analyze-large", tiny=True)
    task = {"workload": wl.name, "seed": SEED, "tiny": True}
    ref, dut = str(tmp_path / "ref"), str(tmp_path / "dut")
    setups = [worker.step_setup({**task, "dir": d}) for d in (ref, dut)]
    reference = worker.step_reference({**task, "dir": ref})
    assert reference["ok"]
    measure = {**task, "part": "analysis", "dir": dut, "ref": ref, "seconds": 0, "trace": False}
    assert worker.step_measure(measure)["samples"][0]["ok"]

    record = sorted(Path(dut, "records").glob("*.json"))[0]
    doc = json.loads(record.read_text(encoding="utf-8"))
    label = min(doc["scores"])
    doc["scores"][label]["Clarity"] = doc["scores"][label]["Clarity"] % 5 + 1
    record.write_text(json.dumps(doc), encoding="utf-8")

    tampered = worker.step_measure(measure)
    sample = tampered["samples"][0]
    assert not sample["ok"]
    assert f"records/{record.name}" in sample["diffs"]
    runs = {"setups": setups, "reference": reference, "plain": [tampered], "traced": []}
    result = run.summarise(wl, runs, trace=False)
    assert not result["correct"] and result["failed"] > 0


def test_tracer_counts_agree_with_the_profiler(tmp_path, monkeypatch):
    wl = workload("analyze-large", tiny=True)
    root = tmp_path / "run"
    worker.set_up(root, wl, SEED)
    tracer = spans.Tracer()
    monkeypatch.setattr(worker, "TRACER", tracer)
    spans.install(tracer, patch_attr=monkeypatch.setattr)
    profile = cProfile.Profile()
    profile.enable()
    verbs = worker.run_verbs(root)
    profile.disable()
    assert verbs["verb_rcs"] == [0, 0, 0]

    profiled: dict[tuple[str, str], int] = {}
    for (path, _, func), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        key = (Path(path).name, func)
        profiled[key] = profiled.get(key, 0) + ncalls
    dump = json.loads(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    metrics = spans.layer_metrics([dump], grids=0, analyses=1, concurrency=1, cases=wl.cases)
    expected = {
        "scoretable.build_calls": ("scoretable.py", "table_from_records"),
        "judge.load_all_calls": ("judge.py", "load_all"),
        "scoretable.collapsed_calls": ("scoretable.py", "collapsed"),
        "report.radar_data_calls": ("report.py", "radar_data"),
        "report.case_table_calls": ("report.py", "case_table"),
        "stats.average_ranks_calls": ("stats.py", "average_ranks"),
    }
    for metric, key in expected.items():
        assert metrics[metric] == profiled[key], metric
    exact = profiled.get(("stats.py", "_exact_two_sided_p"), 0)
    assert metrics["stats.wilcoxon_exact_calls"] == exact
    wilcoxon = profiled[("stats.py", "wilcoxon_signed_rank")]
    assert metrics["stats.wilcoxon_approx_calls"] == wilcoxon - exact


def test_spans_of_one_job_share_its_key(tmp_path, monkeypatch):
    wl = workload("grid-remote", tiny=True)
    run_dir = worker.build_run_dir(tmp_path / "run", wl, SEED)
    tracer = spans.Tracer()
    monkeypatch.setattr(worker, "TRACER", tracer)
    spans.install(tracer, patch_attr=monkeypatch.setattr)
    grid = worker.run_grid(run_dir, wl, SEED)

    names_by_job: dict[str, set] = {}
    for span in tracer.spans:
        names_by_job.setdefault(span[2], set()).add(span[3])
    jobs = {key for key in names_by_job if key}
    assert len(jobs) == grid["records"] == wl.jobs
    per_job = {"judge.execute_job", "persona.render", "blinding.leak_scan", "provider.complete",
               "provider.attempt", "provider.transcript_save", "parse.fenced", "judge.record_save"}
    assert all(per_job <= names_by_job[key] for key in jobs)
    by_id = {span[0]: span for span in tracer.spans}
    assert all(by_id[span[1]][2] == span[2] for span in tracer.spans if span[1] is not None)
    assert sum(n == "provider.attempt" for _, _, _, n, *_ in tracer.spans) == grid["attempts"]
