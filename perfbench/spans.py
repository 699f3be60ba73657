"""In-memory span tracer for the benchmark's traced runs, and the per-layer
metrics derived from its spans.

``install`` replaces public functions of ``blindeval`` with timing wrappers,
each at the name its caller looks up: ``judge`` imports ``complete`` and
``render_evaluation_prompt`` directly, so they are wrapped in ``judge``;
``parse_evaluation`` finds ``parse_fenced`` and ``parse_prose`` in ``parse``;
``cli`` imports ``table_from_records``, ``save_table_csv`` and
``load_corpus`` directly.  A span records its name, start, end, the span
that caused it (per thread) and the key of the grid job it belongs to, so
every span of one job shares an identifier.  Spans stay in memory until the
process dumps them when its run ends; ``layer_metrics`` turns the dumps
into the per-layer metrics.

Recording is switched on only inside the regions the benchmark times.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.installed = False
        self.enabled = False
        self.spans: list[tuple] = []   # (id, parent, job, name, t0_ns, t1_ns, n)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _open(self, job):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        if job is None:
            job = getattr(local, "job", None)
        stack.append(span_id)
        return span_id, parent, job

    def _close(self, span_id, parent, job, name, t0, n):
        t1 = time.perf_counter_ns()
        self._local.stack.pop()
        with self._lock:
            self.spans.append((span_id, parent, job, name, t0, t1, n))

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id, parent, job = self._open(None)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, parent, job, name, t0, None)

    def wrap(self, name: str, fn, job_of=None, size_of=None, sets_job=False):
        """Timing wrapper; ``job_of(*args)`` names the job, ``size_of(result)``
        the number of items a call handled, ``sets_job`` makes the job current
        for nested spans on this thread."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            job = job_of(*args, **kwargs) if job_of else None
            span_id, parent, job = self._open(job)
            local = self._local
            outer_job = getattr(local, "job", None)
            if sets_job:
                local.job = job
            n = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                n = size_of(result) if size_of else None
                return result
            finally:
                local.job = outer_job
                self._close(span_id, parent, job, name, t0, n)

        return traced

    def counter(self, name: str, fn, label_of=None):
        """Counting wrapper for functions too hot to span; ``label_of(result)``
        splits the count by outcome."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                key = f"{name}.{label_of(result)}" if label_of else name
                with self._lock:
                    self.counts[key] += 1
            return result

        return counted

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer, patch_attr=setattr) -> None:
    """Wrap the public functions on the measured paths (see module docstring).

    ``patch_attr`` replaces each attribute; a test passes one that undoes it.
    """
    from blindeval import blinding, cli, judge, parse, persona, provider, report, scoretable, stats

    tracer.installed = True

    def patch(owner, attr, name, **kw):
        patch_attr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    patch(judge, "run_grid", "judge.run_grid")
    patch(judge, "execute_job", "judge.execute_job",
          job_of=lambda job, ctx: job.key(), sets_job=True)
    patch(judge, "render_evaluation_prompt", "persona.render")
    patch(persona, "assert_no_leaks", "blinding.leak_scan")
    patch(judge, "complete", "provider.complete")
    patch(provider.TranscriptStore, "assign_call_id", "provider.transcript_reserve")
    patch(provider.TranscriptStore, "save", "provider.transcript_save")
    patch(parse, "parse_fenced", "parse.fenced")
    patch(parse, "parse_prose", "parse.prose")
    patch(judge.RecordStore, "save", "judge.record_save", job_of=lambda store, record: record.key())
    patch(judge.RecordStore, "load_all", "judge.load_all", size_of=len)
    patch(cli, "load_corpus", "corpus.load")
    patch(blinding, "load_plans", "blinding.load_plans")
    patch(cli, "table_from_records", "scoretable.build")
    patch(cli, "save_table_csv", "scoretable.csv")
    patch(scoretable.ScoreTable, "collapsed", "scoretable.collapsed")
    patch(stats, "cross_model_agreement", "stats.cross_model")
    patch(stats, "cross_role_agreement", "stats.cross_role")
    patch(stats, "version_difference_battery", "stats.battery")
    patch(report, "build_report", "report.build")
    patch(report, "case_table", "report.case_table")
    patch(report, "radar_data", "report.radar_data")
    patch_attr(stats, "average_ranks", tracer.counter("stats.average_ranks", stats.average_ranks))
    patch_attr(stats, "wilcoxon_signed_rank", tracer.counter(
        "stats.wilcoxon", stats.wilcoxon_signed_rank,
        label_of=lambda r: "exact" if r.test_name.endswith("[exact]") else "approx"))


# --- derivation ---------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover, in ns."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))
    out = {}
    for s in spans:
        covered, end = 0, s[4]
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, end), min(c1, s[5])
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s[0]] = s[5] - s[4] - covered
    return out


def layer_metrics(dumps: list[dict], grids: int, analyses: int, concurrency: int,
                  cases: int) -> dict:
    """Per-layer metrics from traced dumps covering ``grids`` grid passes and
    ``analyses`` analyses.  Counts and totals of the grid layers are per grid
    pass, those of the analysis layers per analysis; ``.p50``/``.p99``
    timings are per call."""
    spans = [tuple(s) for d in dumps for s in d["spans"]]
    counts = Counter()
    for d in dumps:
        counts.update(d["counts"])
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
    selfs = self_times(spans)
    kids = defaultdict(list)
    for s in spans:
        kids[s[1]].append(s)
    per_grid, per_analysis = max(1, grids), max(1, analyses)

    def ms(s):
        return (s[5] - s[4]) / 1e6

    def calls(name, per=per_analysis):
        return len(by_name[name]) / per

    def total_s(name):
        return sum(ms(s) for s in by_name[name]) / 1e3 / per_analysis

    out = {}

    def timing(metric, values):
        out[f"{metric}.p50"] = percentile(values, 50)
        out[f"{metric}.p99"] = percentile(values, 99)

    timing("persona.render_ms", [ms(s) for s in by_name["persona.render"]])
    out["persona.render_calls"] = calls("persona.render", per_grid)
    timing("blinding.leak_scan_ms", [ms(s) for s in by_name["blinding.leak_scan"]])
    timing("parse.fenced_ms", [ms(s) for s in by_name["parse.fenced"]])
    timing("parse.prose_ms", [ms(s) for s in by_name["parse.prose"]])
    out["parse.fenced_calls"] = calls("parse.fenced", per_grid)
    out["parse.prose_calls"] = calls("parse.prose", per_grid)

    completes = by_name["provider.complete"]
    timing("provider.attempt_ms", [ms(s) for s in by_name["provider.attempt"]])
    timing("provider.wait_ms", [selfs[s[0]] / 1e6 for s in completes])
    out["provider.wait_s"] = sum(selfs[s[0]] for s in completes) / 1e9 / per_grid
    out["provider.attempts"] = calls("provider.attempt", per_grid)
    out["provider.retries"] = (len(by_name["provider.attempt"]) - len(completes)) / per_grid
    timing("provider.transcript_write_ms",
           [sum(ms(c) for c in kids[s[0]] if c[3].startswith("provider.transcript_"))
            for s in completes])

    timing("judge.record_save_ms", [ms(s) for s in by_name["judge.record_save"]])
    timing("judge.job_self_ms", [selfs[s[0]] / 1e6 for s in by_name["judge.execute_job"]])
    capacity = sum(ms(s) for s in by_name["judge.run_grid"]) * concurrency
    busy = sum(ms(s) for s in by_name["judge.execute_job"] + by_name["judge.record_save"])
    out["judge.worker_busy_share"] = busy / capacity if capacity else 0.0
    # the rest of a worker's busy time is the program's own work on the job
    judge_side = (sum(ms(s) for s in by_name["provider.attempt"])
                  + sum(selfs[s[0]] for s in completes) / 1e6)
    out["judge.local_share"] = 1 - judge_side / busy if busy else 0.0
    out["judge.load_all_calls"] = calls("judge.load_all")
    loaded = sum(s[6] or 0 for s in by_name["judge.load_all"])
    out["judge.record_load_ms"] = (sum(ms(s) for s in by_name["judge.load_all"]) / loaded
                                   if loaded else 0.0)

    out["corpus.load_s"] = total_s("corpus.load")
    out["blinding.load_plans_s"] = total_s("blinding.load_plans")
    out["scoretable.build_s"] = total_s("scoretable.build")
    out["scoretable.build_calls"] = calls("scoretable.build")
    out["scoretable.collapsed_calls"] = calls("scoretable.collapsed")
    out["scoretable.collapsed_s"] = total_s("scoretable.collapsed")
    out["scoretable.csv_s"] = total_s("scoretable.csv")

    out["stats.cross_model_s"] = total_s("stats.cross_model")
    out["stats.cross_role_s"] = total_s("stats.cross_role")
    out["stats.battery_s"] = total_s("stats.battery")
    out["stats.average_ranks_calls"] = counts["stats.average_ranks"] / per_analysis
    out["stats.wilcoxon_exact_calls"] = counts["stats.wilcoxon.exact"] / per_analysis
    out["stats.wilcoxon_approx_calls"] = counts["stats.wilcoxon.approx"] / per_analysis

    out["report.build_s"] = total_s("report.build")
    out["report.case_table_calls"] = calls("report.case_table")
    out["report.case_table_calls_per_case"] = calls("report.case_table") / cases
    out["report.case_table_s"] = total_s("report.case_table")
    out["report.radar_data_calls"] = calls("report.radar_data")

    out["cli.stats_export_s"] = total_s("cli.stats_export")
    out["cli.stats_run_s"] = total_s("cli.stats_run")
    out["cli.report_build_s"] = total_s("cli.report_build")
    return out
