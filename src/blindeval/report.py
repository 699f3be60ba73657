"""Aggregation and figure-ready data emission.

Everything emitted here is recomputable from the exported score CSV;
files are written with stable ordering and stable float formatting so a
rebuilt report is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import stats
from .corpus import Corpus
from .errors import StatsError, ValidationError
from .persona import DIMENSIONS
from .scoretable import ScoreTable
from .store import write_csv, write_text

#: Reference values reported by the source study; the raw per-rating data
#: behind them is unpublished, so the harness documents rather than
#: recomputes them (see the report footer).
EXTERNAL_REFERENCE_NOTES = (
    "cross-model agreement: Spearman rho = 0.68, Kendall W = 0.79",
    "cross-role agreement: W = 0.73 (chi2(15) = 32.85) and W = 0.78 (chi2(15) = 35.10)",
    "version differences: Friedman chi2 = 217.56",
    "dimension means: Clarity spanning 3.91-4.58 across versions",
    "case-level averages such as 4.87 (baseline) vs 3.50 (adjusted) for the first passage",
)


@dataclass(frozen=True)
class DimensionSummary:
    candidate: str       # treatment slot
    dimension: str
    mean: float
    min: int
    max: int
    n: int


@dataclass(frozen=True)
class RoleSummary:
    role: str
    candidate: str
    mean: float
    range: int          # max - min over all scores in the group
    n: int


def radar_data(table: ScoreTable) -> list[DimensionSummary]:
    """Mean/min/max per (dimension, candidate slot) over all raw scores."""
    groups: dict[tuple[str, str], list[int]] = {}
    slot_of = table.slot_of
    for row in table:
        groups.setdefault((row.dimension, slot_of[row.case_id, row.candidate_id]), []).append(row.score)
    slots = sorted({slot for _, slot in groups})
    out = []
    for dimension in DIMENSIONS:
        for slot in slots:
            values = groups.get((dimension, slot))
            if not values:
                continue
            out.append(DimensionSummary(
                candidate=slot,
                dimension=dimension,
                mean=sum(values) / len(values),
                min=min(values),
                max=max(values),
                n=len(values),
            ))
    return out


def role_range_data(table: ScoreTable) -> list[RoleSummary]:
    """Mean and range (max - min) per (role, candidate slot)."""
    groups: dict[tuple[str, str], list[int]] = {}
    slot_of = table.slot_of
    for row in table:
        groups.setdefault((row.role_id, slot_of[row.case_id, row.candidate_id]), []).append(row.score)
    out = []
    for (role, slot) in sorted(groups):
        values = groups[(role, slot)]
        out.append(RoleSummary(
            role=role,
            candidate=slot,
            mean=sum(values) / len(values),
            range=max(values) - min(values),
            n=len(values),
        ))
    return out


@dataclass(frozen=True)
class CaseTableRow:
    candidate_id: str
    slot: str
    mean: float        # full precision
    n: int

    @property
    def mean_display(self) -> str:
        return f"{self.mean:.2f}"


def case_table(table: ScoreTable, case_id: str) -> list[CaseTableRow]:
    """Grand mean over (role x model x dimension) per candidate of a case."""
    groups: dict[str, list[int]] = {}
    for row in table.case_rows(case_id):
        groups.setdefault(row.candidate_id, []).append(row.score)
    if not groups:
        raise ValidationError(f"no scores for case {case_id!r}")
    slot_of = table.slot_of
    return [CaseTableRow(candidate_id=cid,
                         slot=slot_of[case_id, cid],
                         mean=sum(v) / len(v),
                         n=len(v))
            for cid, v in sorted(groups.items())]


@dataclass(frozen=True)
class Aggregates:
    """Every figure a report shows, computed once and shared by its files."""
    radar: list[DimensionSummary]
    roles: list[RoleSummary]
    cases: dict[str, list[CaseTableRow]]   # case id -> case_table rows, in case order


def aggregate(table: ScoreTable) -> Aggregates:
    return Aggregates(radar=radar_data(table), roles=role_range_data(table),
                      cases={case_id: case_table(table, case_id) for case_id in table.case_ids()})


# --- file emission ---------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


RADAR_COLUMNS = ["dimension", "candidate", "mean", "min", "max", "n"]
ROLES_COLUMNS = ["role", "candidate", "mean", "range", "n"]
CASE_COLUMNS = ["candidate", "slot", "mean", "mean_2dp", "n"]


def radar_csv(radar: list[DimensionSummary]) -> list[tuple]:
    """The rows of ``radar.csv`` under RADAR_COLUMNS."""
    return [(s.dimension, s.candidate, _fmt(s.mean), s.min, s.max, s.n) for s in radar]


def roles_csv(roles: list[RoleSummary]) -> list[tuple]:
    """The rows of ``roles.csv`` under ROLES_COLUMNS."""
    return [(s.role, s.candidate, _fmt(s.mean), s.range, s.n) for s in roles]


def case_csv(rows: list[CaseTableRow]) -> list[tuple]:
    """The rows of ``cases/<case>.csv`` under CASE_COLUMNS."""
    return [(r.candidate_id, r.slot, _fmt(r.mean), r.mean_display, r.n) for r in rows]


def format_test_result(result: stats.TestResult) -> str:
    parts = [f"{result.test_name}: statistic={_fmt(result.statistic)}",
             f"p={_fmt(result.p_value)}"]
    if result.df is not None:
        parts.append(f"df={_fmt(result.df)}")
    for label, value in (("n", result.n_objects), ("m", result.n_judges), ("k", result.n_treatments)):
        if value is not None:
            parts.append(f"{label}={value}")
    parts.append(f"tie_correction={'yes' if result.tie_correction_applied else 'no'}")
    for name in sorted(result.extras):
        parts.append(f"{name}={_fmt(result.extras[name])}")
    if result.correction:
        parts.append(f"{result.correction.method}(family={result.correction.family_size})"
                     f" adjusted_p={_fmt(result.correction.adjusted_p)}")
    return "  ".join(parts)


def _significance_mark(p: float) -> str:
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _battery_lines(battery: stats.BatteryResult) -> list[str]:
    lines = [f"treatments: {', '.join(battery.treatments)}",
             f"complete blocks: {battery.n_blocks}  excluded incomplete: {battery.excluded_blocks}",
             format_test_result(battery.friedman) + _significance_mark(battery.friedman.p_value),
             f"pairwise Wilcoxon, Bonferroni family = {battery.family_size}:"]
    for pair in battery.pairwise:
        if pair.result is None:
            lines.append(f"  {pair.slot_a} vs {pair.slot_b}: degenerate ({pair.note})")
        else:
            mark = _significance_mark(pair.result.reported_p)
            lines.append(f"  {pair.slot_a} vs {pair.slot_b}: " + format_test_result(pair.result) + mark)
    return lines


def results_text(table: ScoreTable, blocking: tuple[str, ...]) -> str:
    """Cross-model agreement, cross-role agreement per model and the
    version-difference battery, each computed on its own: a statistic that
    raises StatsError is written as ``<statistic>: skipped (<reason>)`` and
    the others are still written."""
    def section(name, lines_of):
        try:
            return lines_of()
        except StatsError as exc:
            return [f"{name}: skipped ({exc})"]

    def cross_model():
        result = stats.cross_model_agreement(table)
        return [format_test_result(result.spearman), format_test_result(result.kendall)]

    lines = ["# statistics results", "", "## cross-model agreement"]
    lines += section("cross_model_agreement", cross_model)
    lines += ["", "## cross-role agreement (judges = roles, objects = case x candidate means)"]
    for model_id in table.model_ids():
        lines += [f"[{model_id}] {line}" for line in section("cross_role_agreement", lambda: [
            format_test_result(stats.cross_role_agreement(table, model_id))])]
    lines += ["", f"## version differences (blocking: {', '.join(blocking)})"]
    lines += section("version_difference_battery",
                     lambda: _battery_lines(stats.version_difference_battery(table, blocking)))
    lines += ["", "significance flags: * p<0.05, ** p<0.01 (adjusted p where a correction applies)"]
    return "\n".join(lines) + "\n"


def report_markdown(table: ScoreTable, corpus: Corpus, plans: dict, aggregates: Aggregates) -> str:
    lines = ["# Evaluation report", ""]
    lines.append(f"Scores: {len(table)} rows over cases {', '.join(table.case_ids())}; "
                 f"roles {', '.join(table.role_ids())}; models {', '.join(table.model_ids())}.")
    lines.append("")

    lines.append("## Mean score per dimension and candidate")
    lines.append("")
    slots = sorted(set(table.slot_of.values()))
    lines.append("| dimension | " + " | ".join(slots) + " |")
    lines.append("|---" * (len(slots) + 1) + "|")
    radar = {(s.dimension, s.candidate): s for s in aggregates.radar}
    for dimension in DIMENSIONS:
        cells = []
        for slot in slots:
            s = radar.get((dimension, slot))
            cells.append(f"{s.mean:.2f}" if s else "-")
        lines.append(f"| {dimension} | " + " | ".join(cells) + " |")
    lines.append("")

    lines.append("## Mean and range by reader role")
    lines.append("")
    lines.append("| role | candidate | mean | range | n |")
    lines.append("|---|---|---|---|---|")
    for s in aggregates.roles:
        lines.append(f"| {s.role} | {s.candidate} | {s.mean:.2f} | {s.range} | {s.n} |")
    lines.append("")

    lines.append("## Per-case averages")
    lines.append("")
    for case_id, rows in aggregates.cases.items():
        lines.append(f"### {case_id}")
        lines.append("")
        lines.append("| candidate | mean | n |")
        lines.append("|---|---|---|")
        for row in rows:
            lines.append(f"| {row.candidate_id} | {row.mean_display} | {row.n} |")
        lines.append("")

    lines.append("## Code keys (unblinded)")
    lines.append("")
    for case_id in sorted(plans):
        plan = plans[case_id]
        case = corpus.get(case_id) if case_id in corpus else None
        pairs = []
        for label in range(1, plan.k + 1):
            cid = plan.permutation[label - 1]
            attribution = ""
            if case is not None:
                cand = case.get_candidate(cid)
                attribution = f" ({cand.origin}, {cand.translator_label})"
            pairs.append(f"{label} = {cid}{attribution}")
        lines.append(f"- {case_id}: " + "; ".join(pairs))
    lines.append("")

    substitutions = [(case.id, cand.id, cand.substituted_for)
                     for case in corpus for cand in case.candidates if cand.substituted_for]
    if substitutions:
        lines.append("## Substitution notes")
        lines.append("")
        for case_id, cand_id, slot in substitutions:
            lines.append(f"- {case_id}: candidate {cand_id} fills the absent {slot} slot.")
        lines.append("")

    lines.append("## Footnotes")
    lines.append("")
    lines.append("- Case averages are grand means over role x model x dimension; "
                 "cell counts are reported because grand mean equals mean-of-means "
                 "only for balanced grids.")
    lines.append("- Role ranges are max - min over all scores in the (role, candidate) "
                 "group, i.e. across cases, models and dimensions.")
    lines.append("- The cross-role object construction (case x candidate means over "
                 "dimensions) is reverse-engineered from the reported degrees of "
                 "freedom of the source study and flagged as such.")
    lines.append("- Reference values from the source study are documented targets, "
                 "not recomputable from this run's data:")
    for note in EXTERNAL_REFERENCE_NOTES:
        lines.append(f"    - {note}")
    return "\n".join(lines) + "\n"


def build_report(
    report_dir: Path,
    table: ScoreTable,
    corpus: Corpus,
    plans: dict,
) -> list[Path]:
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "cases").mkdir(exist_ok=True)
    aggregates = aggregate(table)
    written = [write_csv(report_dir / "radar.csv", RADAR_COLUMNS, radar_csv(aggregates.radar)),
               write_csv(report_dir / "roles.csv", ROLES_COLUMNS, roles_csv(aggregates.roles))]
    written += [write_csv(report_dir / "cases" / f"{case_id}.csv", CASE_COLUMNS, case_csv(rows))
                for case_id, rows in aggregates.cases.items()]
    written.append(write_text(report_dir / "report.md",
                              report_markdown(table, corpus, plans, aggregates)))
    return written
