from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time
from collections import Counter

import pytest

from blindeval import judge, persona, provider
from blindeval.blinding import scan_for_leaks
from blindeval.errors import ValidationError
from blindeval.rng import mix_seed
from blindeval.rundir import trees_identical
from conftest import run_mock_grid

WAIT_S = 5.0  # bound on every wait in the threaded tests below


def test_plan_grid_full_study_geometry(corpus, plans):
    jobs = judge.plan_grid(corpus, ["R1", "R2", "R3"], ["gpt", "gemini"], plans)
    assert len(jobs) == 24  # 4 cases x 3 roles x 2 models


def test_plan_grid_single_cell(corpus, plans):
    jobs = judge.plan_grid(corpus, ["R1"], ["gpt"], plans)
    assert len(jobs) == 4  # one per case
    assert jobs[0].sort_key() < jobs[1].sort_key()


def test_plan_grid_one_by_one_by_one(corpus, plans):
    single = type(corpus)()
    single.add(corpus.get("case1"))
    jobs = judge.plan_grid(single, ["R1"], ["gpt"], {"case1": plans["case1"]})
    assert len(jobs) == 1


def test_plan_grid_deterministic_order(corpus, plans):
    jobs = judge.plan_grid(corpus, ["R3", "R1", "R2"], ["gpt", "gemini"], plans)
    keys = [j.sort_key() for j in jobs]
    assert keys == sorted(keys)


def test_missing_plan_names_case(corpus, plans):
    del plans["case3"]
    with pytest.raises(ValidationError, match="case3"):
        judge.plan_grid(corpus, ["R1"], ["gpt"], plans)


def test_run_grid_order_independent_of_concurrency(corpus, roles, plans, tmp_path):
    _, records1, _ = run_mock_grid(corpus, roles, plans, tmp_path / "r1", concurrency=1)
    _, records4, _ = run_mock_grid(corpus, roles, plans, tmp_path / "r4", concurrency=4)
    assert [r.key() for r in records1] == [r.key() for r in records4]
    assert [r.scores for r in records1] == [r.scores for r in records4]
    assert len(records1) == 24


def test_records_complete_and_persisted(corpus, roles, plans, tmp_path):
    jobs, records, ctx = run_mock_grid(corpus, roles, plans, tmp_path / "records")
    assert all(r.complete for r in records)
    assert all(j.status == judge.STATUS_DONE for j in jobs)
    files = list((tmp_path / "records").glob("*.json"))
    assert len(files) == 24


def _grid_with_one_broken_call(corpus, roles, plans, tmp_path, broken_reply):
    """A serial mock grid whose fifth gpt call gets ``broken_reply``; its
    jobs and records."""
    seed = 7
    transports = {
        "gpt": provider.make_mock_transport(mix_seed(seed, "mock-provider", "gpt")),
        "gemini": provider.make_mock_transport(mix_seed(seed, "mock-provider", "gemini")),
    }
    calls = {"n": 0}

    def broken_gpt(config, request_text, api_key):
        calls["n"] += 1
        if calls["n"] == 5:  # exactly one grid cell dies
            return broken_reply
        return transports["gpt"](config, request_text, api_key)

    ctx = judge.JudgeContext(
        corpus=corpus, plans=plans, roles=roles,
        template=persona.default_template(),
        providers={m: provider.ProviderConfig(
            provider_id=m, endpoint="mock://", model=m, credential_env="",
            max_retries=0, backoff_base=0.0) for m in ("gpt", "gemini")},
        records_dir=tmp_path / "records",
        transcripts=provider.TranscriptStore(tmp_path / "transcripts"),
        transports={"gpt": broken_gpt, "gemini": transports["gemini"]},
    )
    (tmp_path / "records").mkdir()
    jobs = judge.plan_grid(corpus, sorted(roles), ["gpt", "gemini"], plans)
    return jobs, judge.run_grid(jobs, ctx, concurrency_limit=1)


def test_failing_provider_isolated(corpus, roles, plans, tmp_path):
    jobs, records = _grid_with_one_broken_call(corpus, roles, plans, tmp_path,
                                               (500, "permanently broken"))
    failed = [j for j in jobs if j.status == judge.STATUS_FAILED]
    assert len(failed) == 1
    assert "TransportError" in failed[0].failure
    assert len(records) == 23
    # record count + failure count = job count
    assert len(records) + len(failed) == len(jobs)


def test_null_content_reply_fails_only_its_job(corpus, roles, plans, tmp_path):
    # hosted APIs answer a refused or filtered request with null content
    refused = json.dumps({"choices": [{"message": {"content": None}}]})
    jobs, records = _grid_with_one_broken_call(corpus, roles, plans, tmp_path, (200, refused))
    failed = [j for j in jobs if j.status == judge.STATUS_FAILED]
    assert len(failed) == 1
    assert "TransportError" in failed[0].failure and "malformed" in failed[0].failure
    assert len(records) == 23
    # the refused call leaves no transcript behind
    assert len(list((tmp_path / "transcripts").glob("*.json"))) == 23


def test_resume_runs_only_pending_jobs(corpus, roles, plans, tmp_path):
    records_dir = tmp_path / "records"
    jobs, records, ctx = run_mock_grid(corpus, roles, plans, records_dir,
                                       transcripts_dir=tmp_path / "transcripts")
    n_transcripts = len(list((tmp_path / "transcripts").glob("*.json")))
    assert n_transcripts == 24

    # simulate an interrupt: two records lost
    (records_dir / "case1_R1_gpt.json").unlink()
    (records_dir / "case4_R3_gemini.json").unlink()

    jobs2 = judge.plan_grid(corpus, sorted(roles), ["gpt", "gemini"], plans)
    records2 = judge.run_grid(jobs2, ctx, concurrency_limit=2, resume=True)
    assert len(records2) == 24
    # only the two missing cells were re-executed
    assert len(list((tmp_path / "transcripts").glob("*.json"))) == n_transcripts + 2
    # resumed output equals the original (mock determinism)
    assert [r.scores for r in records2] == [r.scores for r in records]


def test_rerun_without_resume_reexecutes_everything(corpus, roles, plans, tmp_path):
    records_dir = tmp_path / "records"
    _, records, ctx = run_mock_grid(corpus, roles, plans, records_dir)
    jobs2 = judge.plan_grid(corpus, sorted(roles), ["gpt", "gemini"], plans)
    records2 = judge.run_grid(jobs2, ctx, concurrency_limit=2, resume=False)
    assert [r.scores for r in records2] == [r.scores for r in records]


def test_no_unblinding_in_persisted_outputs(corpus, roles, plans, tmp_path):
    _, _, _ = run_mock_grid(corpus, roles, plans, tmp_path / "records")
    for path in (tmp_path / "records").glob("*.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        case = corpus.get(doc["case_id"])
        assert scan_for_leaks(path.read_text(encoding="utf-8"), case) == []
        assert set(doc["scores"]) <= {"1", "2", "3", "4"}  # public labels only


def test_record_round_trip(corpus, roles, plans, tmp_path):
    _, records, _ = run_mock_grid(corpus, roles, plans, tmp_path / "records")
    store = judge.RecordStore(tmp_path / "records")
    for record in records:
        assert store.load(record.key()) == record
    assert list(store.load_all()) == records


def test_repeats_carry_repeat_index(corpus, roles, plans, tmp_path):
    ctx = judge.JudgeContext(
        corpus=corpus, plans=plans, roles=roles,
        template=persona.default_template(),
        providers={"gpt": provider.mock_config("gpt")},
        records_dir=tmp_path / "records",
        transcripts=provider.TranscriptStore(tmp_path / "transcripts"),
        transports={"gpt": provider.make_mock_transport(3)},
    )
    (tmp_path / "records").mkdir()
    jobs = judge.plan_grid(corpus, ["R1"], ["gpt"], plans, repeats=2)
    assert len(jobs) == 8
    records = judge.run_grid(jobs, ctx, concurrency_limit=2)
    assert sorted({r.repeat_index for r in records}) == [0, 1]
    assert any(p.name.endswith("_r1.json") for p in (tmp_path / "records").glob("*.json"))


# --- dispatch: per-provider caps, worker count, repeats -------------------------

def _capped_grid(corpus, roles, plans, root, transport, caps, repeats=1):
    """Jobs and context of a mock grid over the models in ``caps``, each
    provider capped at its value, every model served by ``transport``."""
    root.mkdir(parents=True, exist_ok=True)
    ctx = judge.JudgeContext(
        corpus=corpus, plans=plans, roles=roles,
        template=persona.default_template(),
        providers={m: dataclasses.replace(provider.mock_config(m), max_concurrent=cap)
                   for m, cap in caps.items()},
        records_dir=root / "records",
        transcripts=provider.TranscriptStore(root / "transcripts"),
        transports={m: transport for m in caps},
    )
    return judge.plan_grid(corpus, sorted(roles), sorted(caps), plans, repeats=repeats), ctx


def _run_bounded(jobs, ctx, **kwargs):
    """``run_grid`` on a daemon thread, so a dispatcher that deadlocks fails
    the test instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["records"] = judge.run_grid(jobs, ctx, **kwargs)
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=6 * WAIT_S)
    assert not thread.is_alive(), "run_grid did not finish"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["records"]


class InFlightProbe:
    """Mock transport that counts its calls in flight per provider.  Each call
    waits until ``hold`` calls of its provider have been in flight at once,
    so a cap of at least ``hold`` is reached whatever the thread timing; after
    one wait times out, no call waits again."""

    def __init__(self, hold=1, seed=3):
        self.hold = hold
        self.replies = provider.make_mock_transport(seed)
        self.now = Counter()
        self.peak = Counter()
        self.threads = set()
        self.gave_up = False
        self.changed = threading.Condition()

    def __call__(self, config, request_text, api_key):
        pid = config.provider_id
        with self.changed:
            self.threads.add(threading.get_ident())
            self.now[pid] += 1
            self.peak[pid] = max(self.peak[pid], self.now[pid])
            self.changed.notify_all()
            if not self.changed.wait_for(lambda: self.gave_up or self.peak[pid] >= self.hold,
                                         timeout=WAIT_S):
                self.gave_up = True
        time.sleep(0.002)
        with self.changed:
            self.now[pid] -= 1
        return self.replies(config, request_text, api_key)


def test_run_grid_bounds_each_providers_calls_in_flight(corpus, roles, plans, tmp_path):
    probe = InFlightProbe(hold=2)
    jobs, ctx = _capped_grid(corpus, roles, plans, tmp_path, probe, {"gpt": 2, "gemini": 2})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost slot update shows
    try:
        records = _run_bounded(jobs, ctx, concurrency_limit=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(records) == 24
    assert probe.peak == {"gpt": 2, "gemini": 2}


def test_run_grid_starts_no_more_workers_than_caps_or_jobs(corpus, roles, plans, tmp_path):
    probe = InFlightProbe()
    jobs, ctx = _capped_grid(corpus, roles, plans, tmp_path, probe, {"gpt": 2, "gemini": 1})
    seen = []
    _run_bounded(jobs, ctx, concurrency_limit=8, on_dispatch=lambda *a: seen.append(a))
    assert seen == [(3, {"gemini": 1, "gpt": 2})]
    assert len(probe.threads) <= 3

    (tmp_path / "records" / "case2_R1_gpt.json").unlink()
    jobs = judge.plan_grid(corpus, sorted(roles), ["gemini", "gpt"], plans)
    _run_bounded(jobs, ctx, concurrency_limit=8, resume=True,
                 on_dispatch=lambda *a: seen.append(a))
    assert seen[1] == (1, {"gemini": 1, "gpt": 2})


def test_fast_provider_never_waits_behind_a_full_slow_provider(corpus, roles, plans, tmp_path):
    # "slow"'s first call keeps its only slot until every "fast" call has been
    # made; a worker that took the next job in plan order would block on
    # "slow" instead, and no "fast" call would be made in the meantime
    replies = provider.make_mock_transport(3)
    n_fast = 12
    calls = Counter()
    all_fast_made = threading.Event()
    waited = []
    lock = threading.Lock()

    def transport(config, request_text, api_key):
        with lock:
            calls[config.provider_id] += 1
            n = calls[config.provider_id]
        if config.provider_id == "fast" and n == n_fast:
            all_fast_made.set()
        if config.provider_id == "slow" and n == 1:
            waited.append(all_fast_made.wait(timeout=WAIT_S))
        return replies(config, request_text, api_key)

    jobs, ctx = _capped_grid(corpus, roles, plans, tmp_path, transport, {"fast": 1, "slow": 1})
    records = _run_bounded(jobs, ctx, concurrency_limit=2)
    assert len(records) == 2 * n_fast
    assert waited == [True]


def test_each_grid_sizes_its_own_provider_caps(corpus, roles, plans, tmp_path):
    peaks = []
    for cap in (1, 3):
        probe = InFlightProbe(hold=cap)
        jobs, ctx = _capped_grid(corpus, roles, plans, tmp_path / f"cap{cap}", probe,
                                 {"cap-probe": cap})
        _run_bounded(jobs, ctx, concurrency_limit=4)
        peaks.append(probe.peak["cap-probe"])
    assert peaks == [1, 3]


class FirstOfDigestDelayed:
    """Mock transport that delays the first request of each digest, so a
    later repeat of a cell would finish before the first one if both ran."""

    def __init__(self, seed=3, delay_s=0.05):
        self.replies = provider.make_mock_transport(seed)
        self.delay_s = delay_s
        self.seen = set()
        self.lock = threading.Lock()

    def __call__(self, config, request_text, api_key):
        request = (config.provider_id, request_text)
        with self.lock:
            first = request not in self.seen
            self.seen.add(request)
        if first:
            time.sleep(self.delay_s)
        return self.replies(config, request_text, api_key)


def test_concurrent_repeats_give_the_serial_tree(corpus, roles, plans, tmp_path):
    caps = {"gpt": 4, "gemini": 4}
    for name, concurrency in (("serial", 1), ("concurrent", 4)):
        jobs, ctx = _capped_grid(corpus, {"R1": roles["R1"]}, plans, tmp_path / name,
                                 FirstOfDigestDelayed(), caps, repeats=2)
        assert len(_run_bounded(jobs, ctx, concurrency_limit=concurrency)) == 16
    same, diffs = trees_identical(tmp_path / "serial", tmp_path / "concurrent")
    assert same, diffs
    record = json.loads((tmp_path / "concurrent/records/case1_R1_gpt_r1.json").read_text())
    assert record["call_id"].endswith("-2")


def test_unexpected_error_stops_dispatch_and_propagates(corpus, roles, plans, tmp_path):
    replies = provider.make_mock_transport(3)
    calls = []

    def transport(config, request_text, api_key):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("local fault")
        return replies(config, request_text, api_key)

    jobs, ctx = _capped_grid(corpus, roles, plans, tmp_path, transport, {"gpt": 2, "gemini": 2})
    with pytest.raises(RuntimeError, match="local fault"):
        _run_bounded(jobs, ctx, concurrency_limit=2)
    statuses = Counter(job.status for job in jobs)
    assert statuses[judge.STATUS_PENDING] >= len(jobs) - 4
    assert statuses[judge.STATUS_FAILED] == 0
