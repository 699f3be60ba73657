"""Command surface over a run directory.

Each verb reads and writes only its own subdirectories; every command
exits 0 on success and prints one machine-parseable ``error:`` line on
failure.  All randomness flows from explicit seeds recorded in the
manifest; with --mock no command touches the network.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import blinding, fixtures, judge, persona, report, scaffold, stats
from .corpus import SourceCase, load_corpus, save_case, validate_corpus
from .errors import HarnessError, ValidationError
from .provider import (KNOWN_PROVIDERS, ProviderConfig, TranscriptStore, make_mock_transport,
                       make_scaffold_mock_transport, mock_config)
from .rng import mix_seed
from .rundir import RunDirectory
from .scoretable import save_table_csv, table_from_records
from .store import dumps, from_doc, read_json, to_doc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return dispatch(args)
    except HarnessError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--concurrency", type=int, default=2)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--repeats", type=int, default=1)

    p = sub.add_parser("parse", help="re-parse stored raw responses")
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
        run = RunDirectory.init(Path(args.target), seed=args.seed)
        persona.save_template(persona.default_template(), run.path("templates"))
        print(f"initialized run directory {run.root} (seed {run.global_seed})")
        return 0
    if args.command == "demo":
        return cmd_demo(Path(args.target), args.seed)

    run = RunDirectory.open(Path(args.dir))
    with run.lock():
        return VERBS[args.command](run, args)


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
    if args.case_command == "show":
        case = corpus.get(args.case_id)
        if args.json:
            print(dumps(to_doc(case)), end="")
        else:
            print(f"{case.id}: {case.title}")
            print(f"source: {case.source_text}")
            print(f"context: {case.context_note}")
            for cand in case.candidates:
                print(f"  - {cand.id} [{cand.origin}] {cand.translator_label}")
        return 0
    raise ValidationError(f"unknown case subcommand {args.case_command!r}")


def cmd_blind(run: RunDirectory, args) -> int:
    corpus = load_corpus(run.path("cases"))
    if not len(corpus):
        raise ValidationError("no cases to blind; add cases first")
    seed = run.global_seed if args.seed is None else args.seed
    existing = blinding.load_plans(run.path("blinding"))
    for case in corpus:
        if args.fixture == "paper-layout":
            plan = blinding.paper_layout_plan(case)
        else:
            plan = blinding.make_blind_plan(case, seed)
        old = existing.get(case.id)
        if old is not None and old.permutation != plan.permutation and not args.force:
            raise ValidationError(
                f"case {case.id!r} already has a different blind plan; "
                "refusing to change the blind (pass --force to override)")
        if old is not None and old.permutation == plan.permutation:
            continue  # idempotent re-run
        blinding.save_plan(plan, run.path("blinding"))
        print(f"blinded {case.id}: labels 1..{plan.k} assigned ({plan.algorithm})")
    return 0


def _scaffold_deps(run: RunDirectory, model: str, mock: bool) -> scaffold.ScaffoldDeps:
    if mock:
        config = mock_config(model)
        transport = make_scaffold_mock_transport(mix_seed(run.global_seed, "mock-scaffold", model))
    else:
        config = resolve_provider(run, model)
        transport = None
    return scaffold.ScaffoldDeps(
        provider=config,
        store=scaffold.SessionStore(run.path("sessions")),
        transcripts=TranscriptStore(run.path("transcripts")),
        transport=transport,
    )


def cmd_scaffold(run: RunDirectory, args) -> int:
    corpus = load_corpus(run.path("cases"))
    store = scaffold.SessionStore(run.path("sessions"))
    if args.scaffold_command == "start":
        case = corpus.get(args.case_id)
        deps = _scaffold_deps(run, args.model, args.mock)
        session = scaffold.start_session(case, deps)
        session = scaffold.request_baseline(session, case, deps)
        print(f"session {session.session_id} at stage {session.stage} "
              f"({len(session.turns)} turn(s))")
        return 0

    session = store.load(args.session)
    case = corpus.get(session.case_id)
    model = session.translation_model.split("/", 1)[0]
    if args.scaffold_command == "diagnose":
        modes = frozenset(m for m in args.modes.split(",") if m)
        diagnosis = scaffold.Diagnosis(
            adequate_rationale=args.adequate, failure_modes=modes, notes=args.notes)
        deps = _scaffold_deps(run, model, mock=True)  # no model call in this step
        session = scaffold.record_diagnosis(session, diagnosis, deps)
        print(f"session {session.session_id} routed to stage {session.stage}")
        return 0
    if args.scaffold_command == "advance":
        supplement = args.supplement
        if args.supplement_file:
            supplement = Path(args.supplement_file).read_text(encoding="utf-8")
        deps = _scaffold_deps(run, model, args.mock)
        session = scaffold.advance(session, supplement, case, deps, hold=args.hold)
        print(f"session {session.session_id} at stage {session.stage} "
              f"({len(session.turns)} turn(s))")
        return 0
    if args.scaffold_command == "finalize":
        text = args.text
        if args.text_file:
            text = Path(args.text_file).read_text(encoding="utf-8")
        deps = _scaffold_deps(run, model, mock=True)  # no model call in this step
        session = scaffold.finalize(session, text, case, corpus, deps,
                                    cases_dir=run.path("cases"))
        print(f"session {session.session_id} finalized; adjusted candidate registered")
        return 0
    raise ValidationError(f"unknown scaffold subcommand {args.scaffold_command!r}")


def resolve_provider(run: RunDirectory, model_id: str) -> ProviderConfig:
    """providers.json in the run root overrides the built-in presets."""
    path = run.root / "providers.json"
    if path.exists():
        overrides = from_doc(dict[str, dict], read_json(path), path)
        if model_id in overrides:
            return from_doc(ProviderConfig, {**overrides[model_id], "provider_id": model_id}, path)
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
    seed = run.global_seed if args.seed is None else args.seed
    ctx = build_judge_context(run, models, args.mock, seed)
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
            line += f" ({job.failure})"
        print(line)
    print(f"{len(records)} record(s) done, {len(failed)} failed, {len(jobs)} job(s) total")
    if failed:
        raise ValidationError(f"{len(failed)} evaluation job(s) failed; rerun with --resume")
    return 0


def cmd_parse(run: RunDirectory, args) -> int:
    plans = blinding.load_plans(run.path("blinding"))
    store = judge.RecordStore(run.path("records"))
    if args.replay == "all":
        records = store.load_all()
    else:
        records = [store.load(args.replay)]
    for old in records:
        new = judge.judge_reply(old, plans, old.raw_response, old.call_id)
        store.save(new)
        print(f"re-parsed {new.key()}: mode={new.parse_mode} complete={new.complete}")
    return 0


def _build_table(run: RunDirectory, include_incomplete: bool = False):
    corpus = load_corpus(run.path("cases"))
    plans = blinding.load_plans(run.path("blinding"))
    records = judge.RecordStore(run.path("records")).load_all()
    if not records:
        raise ValidationError("no evaluation records; run evaluate first")
    table = table_from_records(records, plans, corpus, include_incomplete=include_incomplete)
    return table, corpus, plans


def cmd_stats(run: RunDirectory, args) -> int:
    if args.stats_command == "export":
        table, _, _ = _build_table(run)
        path = save_table_csv(table, run.path("report") / "scores.csv")
        print(f"wrote {path} ({len(table)} rows)")
        return 0
    if args.stats_command == "run":
        table, _, _ = _build_table(run, include_incomplete=args.include_incomplete)
        blocking = tuple(b for b in args.blocking.split(",") if b)
        cross_model = None
        if len(table.model_ids()) == 2:
            cross_model = stats.cross_model_agreement(table)
        cross_role = {}
        for model_id in table.model_ids():
            if len({r.role_id for r in table if r.model_id == model_id}) >= 2:
                cross_role[model_id] = stats.cross_role_agreement(table, model_id)
        battery = stats.version_difference_battery(table, blocking)
        text = report.results_text(cross_model, cross_role, battery)
        path = run.path("report") / "results.txt"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
        print(text, end="")
        return 0
    raise ValidationError(f"unknown stats subcommand {args.stats_command!r}")


def cmd_report(run: RunDirectory, args) -> int:
    if args.report_command != "build":
        raise ValidationError(f"unknown report subcommand {args.report_command!r}")
    table, corpus, plans = _build_table(run)
    written = report.build_report(run.path("report"), table, corpus, plans)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_demo(target: Path, seed: int) -> int:
    """Whole pipeline on the bundled corpus with mock judges: the fixture
    cases and personas, then the verbs from blind to report build."""
    run = RunDirectory.init(target, seed=seed)
    with run.lock():
        corpus = fixtures.demo_corpus()
        for case in corpus:
            save_case(case, run.path("cases"))
        for role in fixtures.DEMO_ROLES:
            persona.save_role(role, run.path("personas"))
        persona.save_template(persona.default_template(), run.path("templates"))
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
