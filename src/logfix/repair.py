"""Two-role repair flow: a checker confirms a detected defect and summarizes
the statement's semantics; an updater then rewrites the statement guided by
retrieved exemplar changes. All backend failures are captured in the result
record — the pipeline itself never raises."""

from __future__ import annotations

import re
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .backends import BackendError, LlmBackend
from .model import (
    DefectLabel,
    LabeledSample,
    LogCentricChange,
    LoggingStatement,
    MethodContext,
    Provenance,
    ProvenanceKind,
    UpdateResult,
    statement_id,
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
class PromptRole(Enum):
    CHECKER = "CHECKER"
    UPDATER = "UPDATER"


@dataclass(frozen=True)
class PromptTemplate:
    role: PromptRole
    text: str

    def slots(self) -> set[str]:
        return {name for _, name, _, _ in string.Formatter().parse(self.text)
                if name}

    def render(self, **values: str) -> str:
        missing = self.slots() - values.keys()
        if missing:
            raise ValueError(f"unfilled prompt slots: {sorted(missing)}")
        return self.text.format(**{k: values[k] for k in self.slots()})


CHECKER_FORMAT_INSTRUCTIONS = (
    "Reply with exactly three labeled lines:\n"
    "VERDICT: YES or NO (YES means the statement really has this defect)\n"
    "RATIONALE: one or two sentences justifying the verdict\n"
    "SEMANTICS: a short summary of what the statement and its surrounding "
    "code do"
)

UPDATER_FORMAT_INSTRUCTIONS = (
    "Rewrite the target statement so the defect is gone while preserving "
    "its intent, level, and argument structure as far as correctness "
    "allows. Reply with exactly one code line between <UPDATED> and "
    "</UPDATED>."
)

DEFAULT_CHECKER_TEMPLATE = PromptTemplate(
    role=PromptRole.CHECKER,
    text=(
        "You review one logging statement inside its enclosing method for a "
        "specific defect type.\n\n"
        "Defect type: {defect_type}\n"
        "Definition: {defect_definition}\n\n"
        "Method source:\n{context}\n\n"
        "Target statement:\n{statement}\n\n"
        "{format_instructions}"
    ),
)

DEFAULT_UPDATER_TEMPLATE = PromptTemplate(
    role=PromptRole.UPDATER,
    text=(
        "You fix one defective logging statement.\n\n"
        "Defect type: {defect_type}\n"
        "Statement and code semantics (from review):\n{checker_output}\n\n"
        "Method source:\n{context}\n\n"
        "Past fixes of similar statements:\n{exemplars}\n\n"
        "Target statement:\n{statement}\n\n"
        "{format_instructions}"
    ),
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
    template: PromptTemplate | None = None,
) -> str:
    if label is DefectLabel.NON_DEFECT:
        raise ValueError("checker prompts are only built for defect labels")
    template = template or DEFAULT_CHECKER_TEMPLATE
    return template.render(
        statement=stmt.raw_text,
        context=context.source_text,
        defect_type=label.value,
        defect_definition=defect_definition(label),
        format_instructions=CHECKER_FORMAT_INSTRUCTIONS,
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
    template: PromptTemplate | None = None,
) -> str:
    if not verdict.confirmed:
        raise ValueError("updater prompts require a confirmed verdict")
    template = template or DEFAULT_UPDATER_TEMPLATE
    return template.render(
        statement=stmt.raw_text,
        context=context.source_text,
        defect_type=label.value,
        checker_output=verdict.semantic_notes or verdict.rationale,
        exemplars=_render_exemplars(exemplars),
        format_instructions=UPDATER_FORMAT_INSTRUCTIONS,
    )


_UPDATED_RE = re.compile(r"<UPDATED>\s*(.*?)\s*</UPDATED>", re.DOTALL)


def parse_updater_reply(
    text: str,
    original: LoggingStatement,
    config: ParserConfig | None = None,
) -> LoggingStatement:
    found = _UPDATED_RE.search(text)
    if not found:
        raise MalformedReply("reply lacks <UPDATED> sentinels")
    content = found.group(1).strip()
    parsed = parse_statement_text(content, config)
    if parsed is None:
        raise NotALoggingStatement(
            f"updated text is not a logger call: {content!r}")
    p = parsed.statement
    loc = original.location
    return LoggingStatement(
        id=statement_id(loc.path, loc.start_line, loc.end_line, p.raw_text),
        level=p.level,
        static_text=p.static_text,
        placeholders=p.placeholders,
        variables=p.variables,
        raw_text=p.raw_text,
        location=loc,
        method_id=original.method_id,
        parse_degraded=p.parse_degraded,
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RepairConfig:
    exemplar_count: int = 3
    max_output_tokens: int = 512
    temperature: float = 0.0
    workers: int = 4
    # Minimum spacing between calls to a backend whose `rate_limited` is
    # true; the others are never throttled.
    min_request_interval: float = 0.5
    checker_template: PromptTemplate | None = None
    updater_template: PromptTemplate | None = None
    parser_config: ParserConfig | None = None


class _RateLimiter:
    def __init__(self, interval: float) -> None:
        self.interval = interval
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        if self.interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_at - now
            self._next_at = max(now, self._next_at) + self.interval
        if delay > 0:
            time.sleep(delay)


class _NullLimiter:
    def wait(self) -> None:
        return


def _limiter_for(backend: LlmBackend, config: RepairConfig):
    if backend.rate_limited:
        return _RateLimiter(config.min_request_interval)
    return _NullLimiter()


def run_pipeline(
    context: MethodContext,
    stmt: LoggingStatement,
    detection: tuple[DefectLabel, float],
    pool: ExemplarPool,
    backend: LlmBackend,
    config: RepairConfig | None = None,
    _limiter=None,
) -> UpdateResult:
    """Confirm and rewrite one statement whose detected (label, confidence)
    is `detection`. Never raises: backend and format failures become
    diagnostics on the result."""
    config = config or RepairConfig()
    limiter = _limiter if _limiter is not None else _limiter_for(backend, config)
    predicted, confidence = detection
    diagnostics: list[str] = []
    calls = 0

    sample = LabeledSample(
        context=context, target=stmt, label=predicted,
        provenance=Provenance(kind=ProvenanceKind.MINED))

    def result(checker_confirmed=False, rationale="", semantics="",
               exemplars=(), updated=None) -> UpdateResult:
        diagnostics.append(f"backend-calls:{calls}")
        return UpdateResult(
            sample=sample,
            predicted_label=predicted,
            confidence=confidence,
            checker_confirmed=checker_confirmed,
            checker_rationale=rationale,
            checker_semantics=semantics,
            exemplars=tuple(exemplars),
            updated_statement=updated,
            diagnostics=tuple(diagnostics),
        )

    if predicted is DefectLabel.NON_DEFECT:
        return result()

    def call(prompt: str) -> str:
        nonlocal calls
        limiter.wait()
        calls += 1
        return backend.complete(
            prompt,
            max_output_tokens=config.max_output_tokens,
            temperature=config.temperature,
        )

    checker_prompt = build_checker_prompt(stmt, context, predicted,
                                          config.checker_template)
    verdict = None
    for attempt in range(2):
        try:
            verdict = parse_checker_reply(call(checker_prompt))
            break
        except BackendError as exc:
            diagnostics.append(f"backend-error:{exc}")
            return result()
        except MalformedReply as exc:
            diagnostics.append(f"checker-malformed:{exc}")
    if verdict is None:
        return result()
    if not verdict.confirmed:
        return result(rationale=verdict.rationale,
                      semantics=verdict.semantic_notes)

    try:
        exemplars = select_exemplars(
            stmt, predicted, pool, config.exemplar_count,
            project_id=context.project_id)
    except EmptyPool:
        exemplars = []
        diagnostics.append("empty-exemplar-pool")

    updater_prompt = build_updater_prompt(
        stmt, context, predicted, verdict, exemplars,
        config.updater_template)
    updated = None
    for attempt in range(2):
        try:
            updated = parse_updater_reply(call(updater_prompt), stmt,
                                          config.parser_config)
            break
        except BackendError as exc:
            diagnostics.append(f"backend-error:{exc}")
            return result(True, verdict.rationale, verdict.semantic_notes,
                          exemplars)
        except NotALoggingStatement as exc:
            diagnostics.append(f"updater-invalid:{exc}")
            break
        except MalformedReply as exc:
            diagnostics.append(f"updater-malformed:{exc}")
    if updated is not None and updated.arity_mismatch:
        diagnostics.append(
            "structural-mismatch: "
            f"{len(updated.placeholders)} placeholders vs "
            f"{len(updated.variables)} variables")
    return result(True, verdict.rationale, verdict.semantic_notes,
                  exemplars, updated)


def run_pipeline_batch(
    items: list[tuple[MethodContext, LoggingStatement,
                      tuple[DefectLabel, float]]],
    pool: ExemplarPool,
    backend: LlmBackend,
    config: RepairConfig | None = None,
) -> list[UpdateResult]:
    """Run the pipeline over many (context, statement, detection) items
    with a bounded worker pool; backend calls share one rate limiter and
    exemplar selection shares `pool`. Output order matches input."""
    config = config or RepairConfig()
    limiter = _limiter_for(backend, config)
    if config.workers <= 1 or len(items) <= 1:
        return [run_pipeline(ctx, stmt, detection, pool, backend, config,
                             _limiter=limiter)
                for ctx, stmt, detection in items]
    with ThreadPoolExecutor(max_workers=config.workers) as executor:
        futures = [
            executor.submit(run_pipeline, ctx, stmt, detection, pool,
                            backend, config, _limiter=limiter)
            for ctx, stmt, detection in items
        ]
        return [f.result() for f in futures]
