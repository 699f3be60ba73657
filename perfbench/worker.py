"""One step of a benchmark run, executed in a fresh interpreter.

Usage (from the repository root, the package is not installed):

    PYTHONPATH=src python3 perfbench/worker.py '<task json>'

A task is a set-up (``setup``), the untimed reference (``reference``) or a
measurement (``measure``).  The step prints one JSON line with its results;
``run.py`` starts the steps and aggregates them.

The judge is the benchmark's own transport around
``provider.mock_judge_response``.  Its injected latency, its 429/503 replies
and its prose-or-fenced choice are pure functions of (workload seed, request
digest, attempt number), so the same attempts fail on every commit whatever
the thread scheduling.  An attempt that is the last one ``max_retries``
allows never fails, so every injected error recovers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import resource
import sys
import threading
import time
from pathlib import Path

from blindeval import blinding, cli, fixtures, judge, persona, rundir
from blindeval.corpus import Corpus, save_case
from blindeval.provider import mock_config, mock_judge_response
from blindeval.rng import Splitmix64, mix_seed

import spans
from workloads import MODELS, VERBS, Workload, workload

_VERB_SPANS = ("cli.stats_export", "cli.stats_run", "cli.report_build")
PASS_JOBS = 240      # jobs per timed judge.run_grid call: a whole grid-remote or grid-local grid
_UNIT = 2.0 ** -64


def replicated_corpus(replicas: int) -> Corpus:
    """The demo corpus copied ``replicas`` times into distinct cases.

    Each copy gets its own id and a context note tagged with the replica
    number, so no two prompts share a digest.  The tag contains no candidate
    id and no name token from a translator label, so the leak scan passes.
    """
    corpus = Corpus()
    for i in range(replicas):
        for case in fixtures.demo_corpus():
            case.id = f"{case.id}x{i:03d}"
            case.context_note += f" [replica {i:03d}]"
            corpus.add(case)
    return corpus


class JudgeTransport:
    """Deterministic judge behind ``provider.complete`` (see module docstring)."""

    def __init__(self, seed: int, wl: Workload, repeat: int, inject_latency: bool):
        self.seed = seed
        self.wl = wl
        self.repeat = repeat
        self.inject_latency = inject_latency
        self.calls = 0
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, config, request_text: str, api_key):
        digest = hashlib.sha256(request_text.encode("utf-8")).hexdigest()
        with self._lock:
            attempt = self._attempts.get(digest, 0) + 1
            self._attempts[digest] = attempt
            self.calls += 1
        rng = Splitmix64(mix_seed(self.seed, "perfbench", digest, str(attempt)))
        low, high = self.wl.latency_ms
        latency_s = (low + (high - low) * rng.next_u64() * _UNIT) / 1e3
        fails = rng.next_u64() * _UNIT < self.wl.error_share and attempt <= config.max_retries
        status = (429, 503)[rng.below(2)]
        prose = rng.next_u64() * _UNIT < self.wl.prose_share
        if self.inject_latency and latency_s > 0:
            time.sleep(latency_s)
        if fails:
            return status, json.dumps({"error": {"code": status}})
        # mock_judge_response answers in prose exactly when its seed is a multiple of 10
        reply_seed = mix_seed(self.seed, "reply", digest, str(self.repeat), str(attempt))
        reply_seed = reply_seed - reply_seed % 10 if prose else reply_seed | 1
        user_text = json.loads(request_text)["messages"][-1]["content"]
        reply = mock_judge_response(reply_seed, user_text)
        return 200, json.dumps({"choices": [{"message": {"content": reply}}]}, ensure_ascii=False)


TRACER = spans.Tracer()


@contextlib.contextmanager
def timed(out: list, name: str | None = None):
    """Append the block's wall time to ``out``; trace it as span ``name``."""
    TRACER.enabled = TRACER.installed
    t0 = time.perf_counter()
    try:
        if name:
            with TRACER.span(name):
                yield
        else:
            yield
    finally:
        out.append(time.perf_counter() - t0)
        TRACER.enabled = False


def build_run_dir(root: Path, wl: Workload, seed: int) -> rundir.RunDirectory:
    run = rundir.RunDirectory.init(root, seed=seed)
    persona.save_template(persona.default_template(), run.path("templates"))
    for role in fixtures.DEMO_ROLES:
        persona.save_role(role, run.path("personas"))
    for case in replicated_corpus(wl.replicas):
        save_case(case, run.path("cases"))
        blinding.save_plan(blinding.make_blind_plan(case, seed), run.path("blinding"))
    return run


def run_grid(run: rundir.RunDirectory, wl: Workload, seed: int, reference: bool = False) -> dict:
    """Judge the whole grid once; only ``judge.run_grid`` is timed.

    The reference pass is serial, without injected latency or backoff, and
    meets the same injected errors, so it writes the same tree.  Each repeat
    has its own transport, seeded per repeat so that the replies differ, and
    is judged in ``judge.run_grid`` calls of at most ``PASS_JOBS`` jobs.  Each
    call is one pass, one ``jobs_per_s`` sample: the 2,400-job grid that
    ``analyze-large`` writes in set-up gives 10 samples per set-up, not 2.
    """
    base = cli.build_judge_context(run, list(MODELS), mock=True, seed=seed)
    backoff = 0.0 if reference else wl.backoff_s
    providers = {m: dataclasses.replace(mock_config(m), backoff_base=backoff,
                                        max_concurrent=wl.max_concurrent) for m in MODELS}
    jobs = judge.plan_grid(base.corpus, sorted(base.roles), list(MODELS), base.plans,
                           repeats=wl.repeats)
    seconds: list[float] = []
    passes = []
    attempts = 0
    for repeat in range(wl.repeats):
        transport = JudgeTransport(seed, wl, repeat, inject_latency=not reference)
        traced = TRACER.wrap("provider.attempt", transport) if TRACER.installed else transport
        ctx = dataclasses.replace(base, providers=providers,
                                  transports={m: traced for m in MODELS})
        batch = [j for j in jobs if j.repeat_index == repeat]
        for i in range(0, len(batch), PASS_JOBS):
            gc.collect()
            with timed(seconds):
                done = judge.run_grid(batch[i:i + PASS_JOBS], ctx,
                                      concurrency_limit=1 if reference else wl.concurrency)
            passes.append({"records": len(done), "seconds": seconds[-1]})
        attempts += transport.calls
    return {"grid_s": sum(seconds), "passes": passes, "jobs": len(jobs),
            "records": sum(p["records"] for p in passes), "attempts": attempts,
            "failed_jobs": sum(j.status == judge.STATUS_FAILED for j in jobs)}


def run_cli(root: Path, verb: tuple[str, ...]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["-C", str(root), *verb])


def run_verbs(root: Path) -> dict:
    """``stats export``, ``stats run`` and ``report build`` through ``cli.main``, timed."""
    seconds: list[float] = []
    rcs = []
    gc.collect()
    for verb, name in zip(VERBS, _VERB_SPANS):
        with timed(seconds, name):
            rcs.append(run_cli(root, verb))
    return {"verb_s": seconds, "verb_rcs": rcs}


def set_aside_outputs(run: rundir.RunDirectory, trash: Path) -> None:
    """Move the previous pass's outputs into a new directory under ``trash``.

    Nothing is deleted while a run measures: on the ext4 host the benchmark
    was built on, creating a file cost ~0.5 ms of system time while many
    inodes near it had been freed in the last minute or so, against ~0.04 ms
    otherwise (see ``run.spread_run_directories``), and each pass creates
    ~500 files next to the previous pass's.  ``run.py`` removes the whole
    work directory when the run ends.
    """
    dest = trash / str(len(list(trash.iterdir())) if trash.exists() else 0)
    dest.mkdir(parents=True)
    for sub in ("records", "transcripts", "report"):
        run.path(sub).rename(dest / sub)
        run.path(sub).mkdir()


def set_up(root: Path, wl: Workload, seed: int) -> dict:
    """Build one run directory (and, for the analysis workload, its records)."""
    t0 = time.perf_counter()
    run = build_run_dir(root, wl, seed)
    grid = run_grid(run, wl, seed) if wl.timed == "analysis" else None
    return {"setup_s": time.perf_counter() - t0, "grid": grid}


# --- steps --------------------------------------------------------------------

def step_setup(task: dict) -> dict:
    """Build the run directory ``dir``, timed."""
    return set_up(Path(task["dir"]), workload(task["workload"], task["tiny"]), task["seed"])


def step_reference(task: dict) -> dict:
    """The untimed reference tree every measured iteration must reproduce."""
    wl = workload(task["workload"], task["tiny"])
    run = rundir.RunDirectory.open(Path(task["dir"]))
    grid = run_grid(run, wl, task["seed"], reference=True) if wl.timed == "grid" else None
    verbs = run_verbs(run.root)
    tree = json.dumps(rundir.snapshot(run.root), sort_keys=True).encode("utf-8")
    return {"ok": not any(verbs["verb_rcs"]) and not (grid and grid["failed_jobs"]),
            "sha256": hashlib.sha256(tree).hexdigest()}


def step_measure(task: dict) -> dict:
    """Timed passes until ``seconds`` have passed (at least one).

    A ``grid`` pass sets the outputs aside, times one grid, then runs the verbs
    untimed, only to produce the tree the check needs: an analysis timed in
    the process that has just run a grid spreads by ~20%.  An ``analysis``
    pass times the three verbs.
    Each pass is compared with the reference tree under
    ``rundir.trees_identical``, which ignores only the declared volatile keys.
    """
    wl = workload(task["workload"], task["tiny"])
    run = rundir.RunDirectory.open(Path(task["dir"]))
    if task["trace"]:
        spans.install(TRACER)
    samples = []
    start = time.perf_counter()
    while True:
        if task["part"] == "grid":
            set_aside_outputs(run, Path(task["trash"]))
            sample = run_grid(run, wl, task["seed"])
            sample["verb_rcs"] = [run_cli(run.root, verb) for verb in VERBS]
        else:
            verbs = run_verbs(run.root)
            sample = {"analysis_s": sum(verbs["verb_s"]), "verb_rcs": verbs["verb_rcs"]}
        ok, diffs = rundir.trees_identical(run.root, Path(task["ref"]))
        sample.update(ok=ok, diffs=diffs[:5])
        samples.append(sample)
        if time.perf_counter() - start >= task["seconds"]:
            break
    if task["trace"]:
        TRACER.dump(task["spans"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"samples": samples, "rss_mb": rss_mb}


STEPS = {"setup": step_setup, "reference": step_reference, "measure": step_measure}


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    print(json.dumps(STEPS[task["step"]](task)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
