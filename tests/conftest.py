from __future__ import annotations

from pathlib import Path

import pytest

from blindeval import blinding, judge, persona, provider
from blindeval.fixtures import DEMO_ROLES, demo_corpus
from blindeval.rng import mix_seed
from blindeval.scoretable import table_from_records

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def corpus():
    return demo_corpus()


@pytest.fixture
def roles():
    return {role.id: role for role in DEMO_ROLES}


@pytest.fixture
def plans(corpus):
    return {case.id: blinding.make_blind_plan(case, seed=7) for case in corpus}


def run_mock_grid(corpus, roles, plans, records_dir, seed=7, models=("gpt", "gemini"),
                  concurrency=2, transcripts_dir=None):
    """Mock grid run shared by several test modules; its transcripts go to
    ``transcripts_dir``, by default a sibling of ``records_dir``."""
    records_dir = Path(records_dir)
    if transcripts_dir is None:
        transcripts_dir = records_dir.with_name(records_dir.name + "_transcripts")
    ctx = judge.JudgeContext(
        corpus=corpus,
        plans=plans,
        roles=roles,
        template=persona.default_template(),
        providers={m: provider.mock_config(m) for m in models},
        records_dir=records_dir,
        transcripts=provider.TranscriptStore(Path(transcripts_dir)),
        transports={m: provider.make_mock_transport(mix_seed(seed, "mock-provider", m))
                    for m in models},
    )
    jobs = judge.plan_grid(corpus, sorted(roles), list(models), plans)
    records = judge.run_grid(jobs, ctx, concurrency_limit=concurrency)
    return jobs, records, ctx


@pytest.fixture
def mock_table(corpus, roles, plans, tmp_path):
    _, records, _ = run_mock_grid(corpus, roles, plans, tmp_path / "records_tmp")
    (tmp_path / "records_tmp").mkdir(exist_ok=True)
    return table_from_records(records, plans, corpus)
