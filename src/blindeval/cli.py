"""Command surface over a run directory.

Each verb reads and writes only its own subdirectories; every command
exits 0 on success and prints one machine-parseable ``error:`` line on
failure.  All randomness flows from explicit seeds recorded in the
manifest; with --mock no command touches the network.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
from pathlib import Path
from urllib.parse import urlsplit

from . import blinding, fixtures, judge, persona, report, scaffold, stats
from .corpus import SourceCase, load_corpus, save_case, validate_corpus
from .errors import HarnessError, ProviderConfigError, ValidationError
from .provider import (KNOWN_PROVIDERS, ProviderConfig, TranscriptStore, make_mock_transport,
                       make_scaffold_mock_transport, mock_config)
from .rng import mix_seed
from .rundir import RunDirectory
from .scoretable import save_table_csv, table_from_records
from .store import dumps, from_doc, read_json, read_text, write_text


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return dispatch(args)
    except HarnessError as exc:
        print(f"error: {type(exc).__name__}: {one_line(str(exc))}", file=sys.stderr)
        return 1


#: control characters left after whitespace is collapsed -> their \xNN escape
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7f, 0xa0))}


def one_line(text: str) -> str:
    """``text`` as one line: each run of whitespace (line ends included)
    becomes one space, and any other control character its ``\\xNN`` escape."""
    return " ".join(text.split()).translate(_CONTROL_ESCAPES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blindeval")
    parser.add_argument("-C", "--dir", default=".", help="run directory (default: cwd)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("init", help="create a run directory")
    p.add_argument("target")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("case", help="manage source cases")
    case_sub = p.add_subparsers(dest="case_command", required=True)
    q = case_sub.add_parser("add")
    q.add_argument("files", nargs="+")
    q = case_sub.add_parser("list")
    q.add_argument("--json", action="store_true")
    q = case_sub.add_parser("show")
    q.add_argument("case_id")
    q.add_argument("--json", action="store_true")

    p = sub.add_parser("blind", help="assign public labels to candidates")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fixture", choices=["paper-layout"], default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("scaffold", help="staged prompt-refinement sessions")
    sc = p.add_subparsers(dest="scaffold_command", required=True)
    q = sc.add_parser("start")
    q.add_argument("--case", required=True, dest="case_id")
    q.add_argument("--model", required=True)
    q.add_argument("--mock", action="store_true")
    q = sc.add_parser("diagnose")
    q.add_argument("--session", required=True)
    q.add_argument("--adequate", action="store_true")
    q.add_argument("--modes", default="")
    q.add_argument("--notes", default="")
    q = sc.add_parser("advance")
    q.add_argument("--session", required=True)
    q.add_argument("--supplement", default="")
    q.add_argument("--supplement-file", default=None)
    q.add_argument("--hold", action="store_true")
    q.add_argument("--mock", action="store_true")
    q = sc.add_parser("finalize")
    q.add_argument("--session", required=True)
    q.add_argument("--text", default="")
    q.add_argument("--text-file", default=None)

    p = sub.add_parser("evaluate", help="run the blinded judging grid")
    p.add_argument("--roles", default="")
    p.add_argument("--models", required=True)
    p.add_argument("--mock", action="store_true")
    p.add_argument("--concurrency", type=int, default=2)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--repeats", type=int, default=1)

    p = sub.add_parser("parse", help="re-judge stored transcripts")
    p.add_argument("--replay", required=True, metavar="KEY|all")

    p = sub.add_parser("stats", help="score table export and test battery")
    st = p.add_subparsers(dest="stats_command", required=True)
    st.add_parser("export")
    q = st.add_parser("run")
    q.add_argument("--blocking", default=",".join(stats.DEFAULT_BLOCKING))
    q.add_argument("--include-incomplete", action="store_true")

    p = sub.add_parser("report", help="aggregation and figure data")
    rep = p.add_subparsers(dest="report_command", required=True)
    rep.add_parser("build")

    p = sub.add_parser("demo", help="full pipeline on the bundled fixture with mocks")
    p.add_argument("target")
    p.add_argument("--seed", type=int, default=7)

    return parser


def dispatch(args) -> int:
    if args.command == "init":
        run = _init_run(Path(args.target), args.seed)
        print(f"initialized run directory {run.root} (seed {run.global_seed})")
        return 0
    if args.command == "demo":
        return cmd_demo(Path(args.target), args.seed)

    run = RunDirectory.open(Path(args.dir))
    with run.lock():
        return VERBS[args.command](run, args)


def _init_run(target: Path, seed: int) -> RunDirectory:
    """A new run directory holding the default questionnaire template."""
    run = RunDirectory.init(target, seed=seed)
    persona.save_template(persona.default_template(), run.path("templates"))
    return run


# --- verbs -------------------------------------------------------------------


def cmd_case(run: RunDirectory, args) -> int:
    corpus = load_corpus(run.path("cases"))
    if args.case_command == "add":
        for file in args.files:
            case = from_doc(SourceCase, read_json(file), file)
            corpus.add(case)
            violations = [v for v in validate_corpus(corpus) if v.case_id == case.id]
            if violations:
                for v in violations:
                    print(str(v), file=sys.stderr)
                raise ValidationError(f"case {case.id!r} violates corpus invariants; not saved")
            save_case(case, run.path("cases"))
            print(f"added case {case.id} ({len(case.candidates)} candidates)")
        return 0
    if args.case_command == "list":
        if args.json:
            print(json.dumps([{"id": c.id, "title": c.title, "candidates": len(c.candidates)}
                              for c in corpus], ensure_ascii=False))
        else:
            for c in corpus:
                print(f"{c.id}\t{len(c.candidates)} candidates\t{c.title}")
        return 0
    case = corpus.get(args.case_id)  # show
    if args.json:
        print(dumps(case), end="")
    else:
        print(f"{case.id}: {case.title}")
        print(f"source: {case.source_text}")
        print(f"context: {case.context_note}")
        for cand in case.candidates:
            print(f"  - {cand.id} [{cand.origin}] {cand.translator_label}")
    return 0


def cmd_blind(run: RunDirectory, args) -> int:
    corpus = load_corpus(run.path("cases"))
    if not len(corpus):
        raise ValidationError("no cases to blind; add cases first")
    seed = run.global_seed if args.seed is None else args.seed
    existing = blinding.load_plans(run.path("blinding"))
    plans = [blinding.paper_layout_plan(case) if args.fixture == "paper-layout"
             else blinding.make_blind_plan(case, seed) for case in corpus]
    # a re-run with the same plans is a no-op
    plans = [p for p in plans if p.case_id not in existing
             or existing[p.case_id].permutation != p.permutation]
    replaced = [p.case_id for p in plans if p.case_id in existing]
    if replaced and not args.force:
        raise ValidationError(
            f"case {replaced[0]!r} already has a different blind plan; "
            "refusing to change the blind (pass --force to override)")
    if replaced:
        # records are keyed by public label, so a new plan would unblind them wrongly
        judged = {r.case_id for r in judge.RecordStore(run.path("records")).load_all()}
        for case_id in replaced:
            if case_id in judged:
                raise ValidationError(
                    f"case {case_id!r} has evaluation records keyed by its blind plan; "
                    "refusing to change the blind even with --force (remove its records first)")
    for plan in plans:
        blinding.save_plan(plan, run.path("blinding"))
        print(f"blinded {plan.case_id}: labels 1..{plan.k} assigned ({plan.algorithm})")
    return 0


def _scaffold_deps(run: RunDirectory, store: scaffold.SessionStore, model: str,
                   mock: bool) -> scaffold.ScaffoldDeps:
    if mock:
        config = mock_config(model)
        transport = make_scaffold_mock_transport(mix_seed(run.global_seed, "mock-scaffold", model))
    else:
        config = resolve_provider(run, model)
        transport = None
    return scaffold.ScaffoldDeps(
        provider=config,
        store=store,
        transcripts=TranscriptStore(run.path("transcripts")),
        transport=transport,
    )


def cmd_scaffold(run: RunDirectory, args) -> int:
    corpus = load_corpus(run.path("cases"))
    store = scaffold.SessionStore(run.path("sessions"))
    if args.scaffold_command == "start":
        case = corpus.get(args.case_id)
        deps = _scaffold_deps(run, store, args.model, args.mock)
        session = scaffold.start_session(case, deps)
        print(f"session {session.session_id} at stage {session.stage} "
              f"({len(session.turns)} turn(s))")
        return 0

    session = store.load(args.session)
    case = corpus.get(session.case_id)
    if args.scaffold_command == "diagnose":
        modes = frozenset(m for m in args.modes.split(",") if m)
        diagnosis = scaffold.Diagnosis(
            adequate_rationale=args.adequate, failure_modes=modes, notes=args.notes)
        session = scaffold.record_diagnosis(session, diagnosis, store)
        print(f"session {session.session_id} routed to stage {session.stage}")
        return 0
    if args.scaffold_command == "advance":
        supplement = args.supplement
        if args.supplement_file:
            supplement = read_text(args.supplement_file)
        model = session.translation_model.split("/", 1)[0]
        deps = _scaffold_deps(run, store, model, args.mock)
        session = scaffold.advance(session, supplement, case, deps, hold=args.hold)
        print(f"session {session.session_id} at stage {session.stage} "
              f"({len(session.turns)} turn(s))")
        return 0
    text = args.text  # finalize
    if args.text_file:
        text = read_text(args.text_file)
    session = scaffold.finalize(session, text, case, store, run.path("cases"))
    print(f"session {session.session_id} finalized; adjusted candidate registered")
    return 0


def resolve_provider(run: RunDirectory, model_id: str) -> ProviderConfig:
    """providers.json in the run root overrides the built-in presets.  An
    endpoint that is not an http(s) URL is refused here, before any call:
    every attempt at it would fail alike."""
    path = run.root / "providers.json"
    if path.exists():
        overrides = from_doc(dict[str, dict], read_json(path), path)
        if model_id in overrides:
            config = from_doc(ProviderConfig, {**overrides[model_id], "provider_id": model_id}, path)
            url = urlsplit(config.endpoint)
            if url.scheme not in ("http", "https") or not url.netloc:
                raise ProviderConfigError(f"provider {model_id!r} in {path}: endpoint "
                                          f"{config.endpoint!r} is not an http(s) URL")
            return config
    if model_id in KNOWN_PROVIDERS:
        return KNOWN_PROVIDERS[model_id]
    raise ValidationError(
        f"unknown provider {model_id!r}; define it in providers.json or use --mock")


def build_judge_context(run: RunDirectory, models: list[str], mock: bool, seed: int) -> judge.JudgeContext:
    corpus = load_corpus(run.path("cases"))
    plans = blinding.load_plans(run.path("blinding"))
    roles = persona.load_roles(run.path("personas"))
    template = persona.load_template(run.path("templates"))
    providers: dict[str, ProviderConfig] = {}
    transports: dict[str, object] = {}
    for model in models:
        if mock:
            providers[model] = mock_config(model)
            transports[model] = make_mock_transport(mix_seed(seed, "mock-provider", model))
        else:
            providers[model] = resolve_provider(run, model)
    return judge.JudgeContext(
        corpus=corpus,
        plans=plans,
        roles=roles,
        template=template,
        providers=providers,
        records_dir=run.path("records"),
        transcripts=TranscriptStore(run.path("transcripts")),
        transports=transports,
    )


def cmd_evaluate(run: RunDirectory, args) -> int:
    models = [m for m in args.models.split(",") if m]
    ctx = build_judge_context(run, models, args.mock, run.global_seed)
    # an empty grid would report zero jobs done and exit 0
    if not len(ctx.corpus):
        raise ValidationError(f"no cases to evaluate: {run.path('cases')} is empty; "
                              "add cases with case add")
    if not ctx.roles:
        raise ValidationError(f"no reader roles to evaluate: {run.path('personas')} is empty; "
                              "add a <role>.txt file per role")
    if not models:
        raise ValidationError("no models to evaluate: --models names none")
    roles = [r for r in args.roles.split(",") if r] or sorted(ctx.roles)
    unknown = [r for r in roles if r not in ctx.roles]
    if unknown:
        raise ValidationError(f"unknown roles: {', '.join(unknown)}; "
                              f"available: {', '.join(sorted(ctx.roles))}")
    jobs = judge.plan_grid(ctx.corpus, roles, models, ctx.plans, repeats=args.repeats)

    def report_dispatch(workers: int, caps: dict[str, int]) -> None:
        limits = ", ".join(f"{model}={cap}" for model, cap in caps.items())
        print(f"dispatch: {workers} worker(s); cap {limits}", flush=True)

    records = judge.run_grid(jobs, ctx, concurrency_limit=args.concurrency, resume=args.resume,
                             on_dispatch=report_dispatch)
    failed = [j for j in jobs if j.status == judge.STATUS_FAILED]
    for job in jobs:
        line = f"{job.key()}: {job.status}"
        if job.failure:
            line += f" ({one_line(job.failure)})"
        print(line)
    print(f"{len(records)} record(s) done, {len(failed)} failed, {len(jobs)} job(s) total")
    if failed:
        raise ValidationError(f"{len(failed)} evaluation job(s) failed; rerun with --resume")
    return 0


def cmd_parse(run: RunDirectory, args) -> int:
    plans = blinding.load_plans(run.path("blinding"))
    store = judge.RecordStore(run.path("records"))
    transcripts = TranscriptStore(run.path("transcripts"))
    records = store.load_all() if args.replay == "all" else [store.load(args.replay)]
    # every record is re-judged before any is written, so an unreadable
    # transcript or a missing plan leaves all of them as they were
    renewed = [judge.judge_reply(old, plans, transcripts.load(old.call_id).response_text,
                                 old.call_id)
               for old in records]
    for new in renewed:
        store.save(new)
        print(f"re-parsed {new.key()}: mode={new.parse_mode} complete={new.complete}")
    return 0


def _build_table(run: RunDirectory, include_incomplete: bool = False):
    corpus = load_corpus(run.path("cases"))
    plans = blinding.load_plans(run.path("blinding"))
    records = judge.RecordStore(run.path("records")).load_all()
    table = table_from_records(records, plans, corpus, include_incomplete=include_incomplete)
    if not len(table):
        raise ValidationError("no evaluation records with scores to analyze; run evaluate first "
                              "(incomplete records count only in stats run --include-incomplete)")
    return table, corpus, plans


@contextlib.contextmanager
def _no_cyclic_gc():
    """Pause the cyclic garbage collector, restoring its previous state on
    every exit.  The analysis verbs leave no reference cycles, so refcounting
    frees all they drop, while a collection pass would walk every score row
    still alive (a tuple subclass stays tracked).  The grid verbs keep the
    collector: their retries leave exception and traceback cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_no_cyclic_gc()
def cmd_stats(run: RunDirectory, args) -> int:
    if args.stats_command == "export":
        table, _, _ = _build_table(run)
        path = save_table_csv(table, run.path("report") / "scores.csv")
        print(f"wrote {path} ({len(table)} rows)")
        return 0
    table, _, _ = _build_table(run, include_incomplete=args.include_incomplete)  # run
    text = report.results_text(table, tuple(b for b in args.blocking.split(",") if b))
    path = write_text(run.path("report") / "results.txt", text)
    print(f"wrote {path}")
    print(text, end="")
    return 0


@_no_cyclic_gc()
def cmd_report(run: RunDirectory, args) -> int:
    table, corpus, plans = _build_table(run)
    written = report.build_report(run.path("report"), table, corpus, plans)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_demo(target: Path, seed: int) -> int:
    """Whole pipeline on the bundled corpus with mock judges: the fixture
    cases and personas, then the verbs from blind to report build."""
    run = _init_run(target, seed)
    with run.lock():
        corpus = fixtures.demo_corpus()
        for case in corpus:
            save_case(case, run.path("cases"))
        for role in fixtures.DEMO_ROLES:
            persona.save_role(role, run.path("personas"))
        print(f"demo: wrote {len(corpus)} cases, {len(fixtures.DEMO_ROLES)} personas")
        parser = build_parser()
        for verb in (["blind"], ["evaluate", "--models", "gpt,gemini", "--mock", "--concurrency", "4"],
                     ["stats", "export"], ["stats", "run"], ["report", "build"]):
            args = parser.parse_args(verb)
            VERBS[args.command](run, args)
    return 0


VERBS = {"case": cmd_case, "blind": cmd_blind, "scaffold": cmd_scaffold, "evaluate": cmd_evaluate,
         "parse": cmd_parse, "stats": cmd_stats, "report": cmd_report}


if __name__ == "__main__":
    sys.exit(main())
