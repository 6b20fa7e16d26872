"""Two-role repair flow: a checker confirms a detected defect and summarizes
the statement's semantics; an updater then rewrites the statement guided by
retrieved exemplar changes. All backend failures are captured in the result
record — the pipeline itself never raises."""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

from .backends import BackendError, LlmBackend
from .model import (
    DefectLabel,
    Detection,
    LabeledSample,
    LogCentricChange,
    LoggingStatement,
    MethodContext,
    Provenance,
    ProvenanceKind,
    UpdateResult,
)
from .parser import ParserConfig, parse_statement_text
from .retrieval import EmptyPool, ExemplarPool, select_exemplars


class MalformedReply(ValueError):
    """The backend's reply does not follow the requested format."""


class NotALoggingStatement(ValueError):
    """The updater's reply parses, but not as a logger call."""


# ---------------------------------------------------------------------------
# Checker verdict
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CheckerVerdict:
    confirmed: bool
    rationale: str
    semantic_notes: str

    def __post_init__(self) -> None:
        if not self.confirmed and not self.rationale.strip():
            raise ValueError("a rejection must carry a rationale")


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------
CHECKER_TEMPLATE = (
    "You review one logging statement inside its enclosing method for a "
    "specific defect type.\n\n"
    "Defect type: {defect_type}\n"
    "Definition: {defect_definition}\n\n"
    "Method source:\n{context}\n\n"
    "Target statement:\n{statement}\n\n"
    "Reply with exactly three labeled lines:\n"
    "VERDICT: YES or NO (YES means the statement really has this defect)\n"
    "RATIONALE: one or two sentences justifying the verdict\n"
    "SEMANTICS: a short summary of what the statement and its surrounding "
    "code do"
)

UPDATER_TEMPLATE = (
    "You fix one defective logging statement.\n\n"
    "Defect type: {defect_type}\n"
    "Statement and code semantics (from review):\n{checker_output}\n\n"
    "Method source:\n{context}\n\n"
    "Past fixes of similar statements:\n{exemplars}\n\n"
    "Target statement:\n{statement}\n\n"
    "Rewrite the target statement so the defect is gone while preserving "
    "its intent, level, and argument structure as far as correctness "
    "allows. Reply with exactly one code line between <UPDATED> and "
    "</UPDATED>."
)


def defect_definition(label: DefectLabel) -> str:
    """One-paragraph definition of a defect type, from the bundled data."""
    if label is DefectLabel.NON_DEFECT:
        raise ValueError("NON_DEFECT has no definition file")
    name = label.name.lower()
    return resources.files("logfix.data").joinpath(
        f"defect_definitions/{name}.txt").read_text(encoding="utf-8").strip()


def build_checker_prompt(
    stmt: LoggingStatement,
    context: MethodContext,
    label: DefectLabel,
) -> str:
    if label is DefectLabel.NON_DEFECT:
        raise ValueError("checker prompts are only built for defect labels")
    return CHECKER_TEMPLATE.format(
        statement=stmt.raw_text,
        context=context.source_text,
        defect_type=label.value,
        defect_definition=defect_definition(label),
    )


_VERDICT_RE = re.compile(r"\bverdict\s*:\s*(yes|no)\b", re.IGNORECASE)
_RATIONALE_RE = re.compile(
    r"rationale\s*:\s*(.+?)(?=\n\s*semantics\s*:|\Z)",
    re.IGNORECASE | re.DOTALL)
_SEMANTICS_RE = re.compile(r"semantics\s*:\s*(.+)", re.IGNORECASE | re.DOTALL)


def parse_checker_reply(text: str) -> CheckerVerdict:
    verdicts = {m.group(1).lower() for m in _VERDICT_RE.finditer(text)}
    if not verdicts:
        raise MalformedReply("reply has no VERDICT field")
    if len(verdicts) > 1:
        raise MalformedReply("reply contains both YES and NO verdicts")
    confirmed = verdicts.pop() == "yes"
    rationale_m = _RATIONALE_RE.search(text)
    rationale = rationale_m.group(1).strip() if rationale_m else ""
    semantics_m = _SEMANTICS_RE.search(text)
    semantics = semantics_m.group(1).strip() if semantics_m else ""
    if not confirmed and not rationale:
        raise MalformedReply("rejection without a rationale")
    return CheckerVerdict(confirmed=confirmed, rationale=rationale,
                          semantic_notes=semantics)


def _render_exemplars(exemplars: list[LogCentricChange] | tuple) -> str:
    if not exemplars:
        return "No examples available."
    blocks = []
    for i, change in enumerate(exemplars, start=1):
        blocks.append(
            f"Example {i} (before -> after):\n"
            f"Before: {change.before.raw_text}\n"
            f"After:  {change.after.raw_text}"
        )
    return "\n\n".join(blocks)


def build_updater_prompt(
    stmt: LoggingStatement,
    context: MethodContext,
    label: DefectLabel,
    verdict: CheckerVerdict,
    exemplars: list[LogCentricChange] | tuple = (),
) -> str:
    if not verdict.confirmed:
        raise ValueError("updater prompts require a confirmed verdict")
    return UPDATER_TEMPLATE.format(
        statement=stmt.raw_text,
        context=context.source_text,
        defect_type=label.value,
        checker_output=verdict.semantic_notes or verdict.rationale,
        exemplars=_render_exemplars(exemplars),
    )


def parse_tagged_reply(
    reply: str,
    tag: str,
    original: LoggingStatement,
    config: ParserConfig | None = None,
) -> LoggingStatement:
    """The statement between the first <tag> and </tag> of a backend reply,
    re-parsed at `original`'s place. The updater's replies use UPDATED,
    semantic mutations use MUTATED."""
    found = re.search(rf"<{tag}>\s*(.*?)\s*</{tag}>", reply, re.DOTALL)
    if not found:
        raise MalformedReply(f"reply lacks <{tag}> sentinels")
    content = found.group(1)
    parsed = parse_statement_text(content, config, original)
    if parsed is None:
        raise NotALoggingStatement(
            f"{tag.lower()} text is not a logger call: {content!r}")
    return parsed.statement


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RepairConfig:
    exemplar_count: int = 3
    workers: int = 4
    parser_config: ParserConfig | None = None


def run_pipeline(
    detection: Detection,
    pool: ExemplarPool,
    backend: LlmBackend,
    config: RepairConfig | None = None,
) -> UpdateResult:
    """Confirm and rewrite one detected statement. Never raises: backend
    and format failures become diagnostics on the result."""
    config = config or RepairConfig()
    context, stmt = detection.method, detection.statement
    label = detection.predicted_label
    diagnostics: list[str] = []
    calls = 0
    verdict = updated = None
    exemplars: list[LogCentricChange] = []

    def ask(prompt: str, parse, role: str):
        """The parsed reply to `prompt`, or None. A malformed reply is
        asked again once; a reply that is no logger call is not."""
        nonlocal calls
        for _ in range(2):
            calls += 1
            try:
                return parse(backend.complete(prompt))
            except NotALoggingStatement as exc:
                diagnostics.append(f"{role}-invalid:{exc}")
                return None
            except MalformedReply as exc:
                diagnostics.append(f"{role}-malformed:{exc}")
        return None

    try:
        if label is not DefectLabel.NON_DEFECT:
            verdict = ask(build_checker_prompt(stmt, context, label),
                          parse_checker_reply, "checker")
        if verdict is not None and verdict.confirmed:
            try:
                exemplars = select_exemplars(
                    stmt, label, pool, config.exemplar_count,
                    project_id=context.project_id)
            except EmptyPool:
                diagnostics.append("empty-exemplar-pool")
            updated = ask(
                build_updater_prompt(stmt, context, label, verdict, exemplars),
                lambda reply: parse_tagged_reply(reply, "UPDATED", stmt,
                                                 config.parser_config),
                "updater")
    except BackendError as exc:
        diagnostics.append(f"backend-error:{exc}")
    if updated is not None and updated.arity_mismatch:
        diagnostics.append(
            "structural-mismatch: "
            f"{len(updated.placeholders)} placeholders vs "
            f"{len(updated.variables)} variables")
    diagnostics.append(f"backend-calls:{calls}")
    return UpdateResult(
        sample=LabeledSample(context, stmt, label,
                             Provenance(kind=ProvenanceKind.MINED)),
        predicted_label=label,
        confidence=detection.confidence,
        checker_confirmed=verdict is not None and verdict.confirmed,
        checker_rationale=verdict.rationale if verdict else "",
        checker_semantics=verdict.semantic_notes if verdict else "",
        exemplars=tuple(exemplars),
        updated_statement=updated,
        diagnostics=tuple(diagnostics),
    )


def run_pipeline_batch(
    detections: list[Detection],
    pool: ExemplarPool,
    backend: LlmBackend,
    config: RepairConfig | None = None,
) -> list[UpdateResult]:
    """Run the pipeline over many detections. Predicted defects run on
    `config.workers` threads that share `backend` and `pool`; a statement
    predicted NON_DEFECT calls no backend, so its result is built on the
    calling thread. Output order matches input."""
    config = config or RepairConfig()
    results = [run_pipeline(d, pool, backend, config)
               if d.predicted_label is DefectLabel.NON_DEFECT else None
               for d in detections]
    defects = [i for i, result in enumerate(results) if result is None]
    if defects:
        with ThreadPoolExecutor(max_workers=config.workers) as executor:
            futures = [executor.submit(run_pipeline, detections[i], pool,
                                       backend, config) for i in defects]
            for i, future in zip(defects, futures):
                results[i] = future.result()
    return results
