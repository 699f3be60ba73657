"""The benchmark's workloads, as plain data.

Every workload is the bundled demo corpus replicated into distinct cases,
judged by 3 reader roles x 2 mock models, then analysed by the
``stats export``, ``stats run`` and ``report build`` verbs.  The workloads
differ in where the time goes, so that each layer does most of its work in
one workload and little in another:

* ``grid-remote`` (judge-bound): a seeded latency on every provider attempt,
  a small share of 429/503 replies that recover within ``max_retries`` after
  a real backoff, about 10% prose replies and ``--concurrency 2`` against a
  dispatch gate of one call in flight per provider, so two workers on the
  same provider queue at the gate.  Hosted-judge latency dominates real
  runs, so this is where dispatch, gate and retry changes show; CPU savings
  in ``parse`` or ``persona`` should barely move it.

  Where the traffic figures come from: the 50 ms mean latency is the mock
  latency the ROADMAP's throughput figures were measured with.  The rest are
  synthetic picks, not measurements of a hosted judge: the +-25 ms uniform
  jitter, the 2% share of 429/503 replies and a 50 ms ``backoff_base`` (one
  mean latency, so a retry waits about as long as one more call; the
  program's default is 1 s).  The gate of one per provider is also a pick
  (the program's default is 4), made so that the gate binds with the two
  worker threads the workloads use.  At these figures local work is a small
  share of a grid-remote job (``judge.local_share`` in a traced run, 8% at
  seed 7), which bounds what this workload can show of CPU-side savings.
* ``grid-local`` (local work): the same cases with no latency, no errors,
  ``--concurrency 1`` and half the replies in prose, so every in-process step
  of a job (render and leak scan, request digest, transcript writes, both
  parse routes, record save) is on the critical path.
* ``analyze-large`` (read-heavy): 50x the demo with 2 repeats whose replies
  differ per repeat.  The records are written by a serial grid in set-up
  (two threads on CPU-bound work would only pass the interpreter lock back
  and forth); the timed part is the three analysis verbs, where table,
  statistics and report work grows with the grid.

This module imports nothing from ``blindeval`` so that the orchestrator can
read it without the package on its path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MODELS = ("gemini", "gpt")
ROLES = 3            # the demo personas
DEMO_CASES = 4
VERBS = (("stats", "export"), ("stats", "run"), ("report", "build"))


@dataclass(frozen=True)
class Workload:
    name: str
    replicas: int                  # copies of the 4-case demo corpus
    repeats: int                   # judge repeats per (case, role, model) cell
    concurrency: int               # run_grid worker threads
    latency_ms: tuple[float, float]  # injected per attempt, uniform in [low, high)
    error_share: float             # share of attempts answered 429/503
    prose_share: float             # share of replies without the fenced block
    backoff_s: float               # ProviderConfig.backoff_base
    max_concurrent: int            # ProviderConfig.max_concurrent: the dispatch gate's size
    timed: str                     # "grid": grid passes are timed too; "analysis": analyses only

    @property
    def cases(self) -> int:
        return DEMO_CASES * self.replicas

    @property
    def jobs(self) -> int:
        return self.cases * ROLES * len(MODELS) * self.repeats


WORKLOADS = {
    w.name: w for w in (
        Workload("grid-remote", replicas=10, repeats=1, concurrency=2, latency_ms=(25.0, 75.0),
                 error_share=0.02, prose_share=0.1, backoff_s=0.05, max_concurrent=1, timed="grid"),
        Workload("grid-local", replicas=10, repeats=1, concurrency=1, latency_ms=(0.0, 0.0),
                 error_share=0.0, prose_share=0.5, backoff_s=0.0, max_concurrent=4, timed="grid"),
        Workload("analyze-large", replicas=50, repeats=2, concurrency=1, latency_ms=(0.0, 0.0),
                 error_share=0.0, prose_share=0.1, backoff_s=0.0, max_concurrent=4, timed="analysis"),
    )
}


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it to one replica for the smoke test."""
    w = WORKLOADS[name]
    return replace(w, replicas=1) if tiny else w
