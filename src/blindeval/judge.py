"""Plans and executes the blinded evaluation grid.

One job per (case, role, model) cell, optionally repeated.  Jobs run
concurrently up to a limit and up to each provider's cap, each persists
its own record file as it finishes, and none unblinds anything: records
are keyed by public label only.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .blinding import BlindPlan, plan_for
from .corpus import Corpus
from .errors import HarnessError, ValidationError
from .parse import parse_evaluation
from .persona import QuestionnaireTemplate, ReaderRole, render_evaluation_prompt
from .provider import ProviderConfig, TranscriptStore, complete
from .store import Documents, Reading, check_id

STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


class GridCell:
    """Key of one (case, role, model, repeat) grid cell, shared by the job
    that fills the cell and the record it leaves."""

    def cell(self) -> tuple[str, str, str]:
        """The (case, role, model) cell, shared by every repeat of it."""
        return (self.case_id, self.role_id, self.model_id)

    def key(self) -> str:
        base = f"{self.case_id}_{self.role_id}_{self.model_id}"
        return base if self.repeat_index == 0 else f"{base}_r{self.repeat_index}"

    def sort_key(self):
        return (self.case_id, self.role_id, self.model_id, self.repeat_index)


@dataclass
class EvaluationJob(GridCell):
    case_id: str
    role_id: str
    model_id: str
    repeat_index: int = 0
    status: str = STATUS_PENDING
    failure: str = ""


@dataclass(frozen=True)
class EvaluationRecord(GridCell):
    case_id: str
    role_id: str
    model_id: str
    repeat_index: int
    scores: dict[int, dict[str, int]]
    parse_mode: str               # fenced | prose_fallback
    complete: bool
    warnings: tuple[str, ...]
    call_id: str


def plan_grid(
    corpus: Corpus,
    roles: list[str],
    models: list[str],
    plans: dict[str, BlindPlan],
    repeats: int = 1,
) -> list[EvaluationJob]:
    """Full grid, deterministically ordered by (case, role, model)."""
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    for value in (*(case.id for case in corpus), *roles, *models):
        check_id(value)  # each is one part of a record key, so no two keys collide
    for case in corpus:
        if case.id not in plans:
            raise ValidationError(f"case {case.id!r} has no blind plan; run blinding first")
    jobs = []
    for case in corpus:
        for role in sorted(set(roles)):
            for model in sorted(set(models)):
                for rep in range(repeats):
                    jobs.append(EvaluationJob(case.id, role, model, repeat_index=rep))
    jobs.sort(key=EvaluationJob.sort_key)
    return jobs


@dataclass
class JudgeContext:
    corpus: Corpus
    plans: dict[str, BlindPlan]
    roles: dict[str, ReaderRole]
    template: QuestionnaireTemplate
    providers: dict[str, ProviderConfig]
    records_dir: Path
    transcripts: TranscriptStore
    transports: dict[str, object] = field(default_factory=dict)  # model_id -> transport


class RecordStore(Documents):
    """records/<key>.json holds each evaluation record; each job writes only its own."""

    def __init__(self, directory: Path):
        super().__init__(directory, EvaluationRecord, EvaluationRecord.key)
        self.directory.mkdir(parents=True, exist_ok=True)

    def load_all(self) -> Reading:
        """Every record in (case, role, model, repeat) order; see ``store.Reading``."""
        return super().load_all(_sort_key_of_name)


#: a record key: ids hold no "_", so a file name splits into its cell and repeat
_KEY = re.compile(r"([^_]*)_([^_]*)_([^_]*)(?:_r(-?[0-9]+))?")


def _sort_key_of_name(doc_id: str):
    """The ``sort_key`` of the record named ``doc_id``; reading refuses any other name."""
    key = _KEY.fullmatch(doc_id)
    return (*key.group(1, 2, 3), int(key[4] or 0)) if key else (doc_id, "", "", 0)


def execute_job(job: EvaluationJob, ctx: JudgeContext) -> EvaluationRecord:
    case = ctx.corpus.get(job.case_id)
    plan = plan_for(ctx.plans, job.case_id)
    prompt = render_evaluation_prompt(ctx.roles[job.role_id], case, plan, ctx.template)
    response, transcript = complete(
        ctx.providers[job.model_id], prompt.messages(),
        transport=ctx.transports.get(job.model_id),
        store=ctx.transcripts)
    return judge_reply(job, ctx.plans, response, transcript.call_id)


def judge_reply(cell: GridCell, plans: dict[str, BlindPlan], raw_response: str,
                call_id: str) -> EvaluationRecord:
    """Parse a judge's reply into the record of its grid cell; shared by
    ``evaluate`` and ``parse --replay``."""
    k = plan_for(plans, cell.case_id).k
    parsed, mode = parse_evaluation(raw_response, k)
    return EvaluationRecord(
        case_id=cell.case_id,
        role_id=cell.role_id,
        model_id=cell.model_id,
        repeat_index=cell.repeat_index,
        scores=parsed.scores,
        parse_mode=mode,
        complete=parsed.is_complete(k),
        warnings=tuple(parsed.warnings),
        call_id=call_id,
    )


class _Dispatch:
    """Hands a grid's pending jobs to free workers.

    A free worker gets the first pending job, in plan order, whose provider
    has a free slot and no earlier repeat of whose cell is in flight; it
    holds both until ``release``.  Repeats of a cell render the same prompt,
    so running them one at a time keeps their transcript call ids (``-2``,
    ``-3``, ...) in repeat order at any concurrency.
    """

    def __init__(self, jobs: list[EvaluationJob], caps: dict[str, int]):
        self._pending = list(jobs)
        self._free = dict(caps)
        self._busy_cells: set[tuple[str, str, str]] = set()
        self._changed = threading.Condition()

    def take(self) -> EvaluationJob | None:
        """The next job, once a slot for it is free; None when none is left."""
        with self._changed:
            while self._pending:
                for i, job in enumerate(self._pending):
                    if self._free[job.model_id] and job.cell() not in self._busy_cells:
                        del self._pending[i]
                        self._free[job.model_id] -= 1
                        self._busy_cells.add(job.cell())
                        return job
                self._changed.wait()
            return None

    def release(self, job: EvaluationJob) -> None:
        with self._changed:
            self._free[job.model_id] += 1
            self._busy_cells.discard(job.cell())
            self._changed.notify_all()

    def stop(self) -> None:
        """Start no further job; the jobs not started stay pending."""
        with self._changed:
            self._pending.clear()
            self._changed.notify_all()


def _run_job(job: EvaluationJob, ctx: JudgeContext, store: RecordStore) -> EvaluationRecord | None:
    job.status = STATUS_RUNNING
    try:
        record = execute_job(job, ctx)
    except HarnessError as exc:
        job.status = STATUS_FAILED
        job.failure = f"{type(exc).__name__}: {exc}"
        return None
    store.save(record)
    job.status = STATUS_DONE
    return record


def run_grid(
    jobs: list[EvaluationJob],
    ctx: JudgeContext,
    concurrency_limit: int = 1,
    resume: bool = False,
    on_dispatch=None,
) -> list[EvaluationRecord]:
    """Execute every pending job; failures never abort siblings.

    Each job runs at most once.  With ``resume``, jobs whose record file
    already exists are loaded instead of re-executed.  The rest run on
    min(``concurrency_limit``, sum of the caps, pending jobs) worker
    threads; a provider's cap is its ``max_concurrent``, the most jobs of
    this grid it has in flight.  ``on_dispatch(workers, caps)`` is called
    before the first job starts.  An exception other than a
    ``HarnessError`` stops dispatch and propagates once the jobs in flight
    end.  The returned collection is sorted by (case, role, model, repeat)
    regardless of completion order; job statuses mirror what happened.
    """
    if concurrency_limit < 1:
        raise ValidationError("concurrency limit must be >= 1")
    store = RecordStore(ctx.records_dir)
    records: dict[str, EvaluationRecord] = {}

    to_run = []
    for job in jobs:
        if resume and store.exists(job.key()):
            records[job.key()] = store.load(job.key())
            job.status = STATUS_DONE
        else:
            to_run.append(job)

    caps = {m: ctx.providers[m].max_concurrent for m in sorted({j.model_id for j in jobs})}
    workers = min(concurrency_limit, sum(caps.values()), len(to_run))
    if on_dispatch is not None:
        on_dispatch(workers, caps)
    dispatch = _Dispatch(to_run, caps)

    def worker() -> list[EvaluationRecord]:
        done = []
        while (job := dispatch.take()) is not None:
            try:
                record = _run_job(job, ctx, store)
            except BaseException:
                dispatch.stop()
                raise
            finally:
                dispatch.release(job)
            if record is not None:
                done.append(record)
        return done

    if workers:
        from concurrent.futures import ThreadPoolExecutor  # analysis-only processes never load it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker) for _ in range(workers)]
            try:
                for future in futures:
                    records.update((record.key(), record) for record in future.result())
            finally:
                dispatch.stop()  # an interrupt here leaves no job to start

    return sorted(records.values(), key=EvaluationRecord.sort_key)
