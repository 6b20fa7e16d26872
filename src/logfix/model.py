"""Domain types for logging statements, defect labels, and corpora.

Everything downstream (parser, miner, synthesizer, detector, repair,
evaluation) speaks in these types. All types are immutable after
construction; identifiers are content hashes so equal content gets equal
ids across runs. The JSON Lines helpers at the bottom define the canonical
on-disk corpus formats.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Iterator


class UnknownLevel(ValueError):
    """A string that does not name one of the recognized log levels."""


class LogLevel(Enum):
    TRACE = "TRACE"
    DEBUG = "DEBUG"
    INFO = "INFO"
    WARN = "WARN"
    ERROR = "ERROR"
    FATAL = "FATAL"


def parse_level(text: str) -> LogLevel:
    """Parse a level name case-insensitively; canonical form is uppercase."""
    try:
        return LogLevel[text.strip().upper()]
    except KeyError:
        raise UnknownLevel(f"not a log level: {text!r}") from None


class DefectLabel(Enum):
    NON_DEFECT = "NON_DEFECT"
    STATEMENT_CODE = "STATEMENT_CODE"
    STATIC_DYNAMIC = "STATIC_DYNAMIC"
    TEMPORAL = "TEMPORAL"
    READABILITY = "READABILITY"


# Fixed class order for the classifier head; index 0 is the clean class,
# which also wins argmax ties.
LABELS: tuple[DefectLabel, ...] = tuple(DefectLabel)
LABEL_INDEX: dict[DefectLabel, int] = {lab: i for i, lab in enumerate(LABELS)}
NUM_CLASSES = len(LABELS)


class PlaceholderKind(Enum):
    BRACE = "BRACE"      # {} pair
    PERCENT = "PERCENT"  # %s, %d, ... conversion
    CONCAT = "CONCAT"    # synthetic, marks a string-concatenation junction


class ProvenanceKind(Enum):
    WELL_MAINTAINED = "WELL_MAINTAINED"
    MUTATED = "MUTATED"
    MINED = "MINED"


@dataclass(frozen=True)
class SourceLocation:
    path: str
    start_line: int  # 1-based, inclusive
    end_line: int    # 1-based, inclusive


@dataclass(frozen=True)
class Placeholder:
    """A substitution site in a statement's static text.

    `offset` is a character offset into static_text. `text` is the marker as
    written ("{}", "%s", ...); empty for CONCAT junctions, which have no
    visible marker.
    """

    kind: PlaceholderKind
    offset: int
    text: str = ""


def content_hash(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def statement_id(path: str, start_line: int, end_line: int, raw_text: str) -> str:
    return content_hash(path, f"{start_line}-{end_line}", raw_text)


@dataclass(frozen=True)
class LoggingStatement:
    """One logger call, decomposed but with the verbatim source preserved.

    static_text is the concatenation of the literal fragments of the format
    argument with placeholder markers left in place. variables holds the
    argument expressions bound to placeholders, ordered by the offset of the
    placeholder that consumes them (trailing unbound arguments are appended).
    raw_text is the exact source slice from the receiver through the
    terminating semicolon; render() returns it byte-for-byte.
    """

    id: str
    level: LogLevel
    static_text: str
    placeholders: tuple[Placeholder, ...]
    variables: tuple[str, ...]
    raw_text: str
    location: SourceLocation
    method_id: str
    parse_degraded: bool = False

    @property
    def arity_mismatch(self) -> bool:
        return len(self.placeholders) != len(self.variables)

    def render(self) -> str:
        return self.raw_text


@dataclass(frozen=True)
class MethodContext:
    """A method (or constructor) that contains at least one logging statement."""

    method_id: str
    project_id: str
    qualified_name: str
    source_text: str
    statement_ids: tuple[str, ...]
    location: SourceLocation


@dataclass(frozen=True)
class Provenance:
    kind: ProvenanceKind
    strategy: str | None = None
    original_raw_text: str | None = None


@dataclass(frozen=True)
class LabeledSample:
    context: MethodContext
    target: LoggingStatement
    label: DefectLabel
    provenance: Provenance


@dataclass(frozen=True)
class LogCentricChange:
    """A before/after statement pair from a commit that touched only log text."""

    project_id: str
    commit_id: str
    before: LoggingStatement
    after: LoggingStatement
    context: MethodContext

    @cached_property
    def change_id(self) -> str:
        return content_hash(self.project_id, self.commit_id, self.before.id, self.after.id)


@dataclass(frozen=True)
class EvaluationRecord:
    """Origin/updated scores for one metric, plus the improvement coefficient.

    ic is None when the origin score is already perfect (degenerate origin).
    """

    metric_name: str
    m_origin: float
    m_updated: float
    ic: float | None


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of running one statement through the repair pipeline."""

    sample: LabeledSample
    predicted_label: DefectLabel
    confidence: float
    checker_confirmed: bool
    checker_rationale: str
    checker_semantics: str
    exemplars: tuple[LogCentricChange, ...]
    updated_statement: LoggingStatement | None
    diagnostics: tuple[str, ...] = ()


def validate_sample(sample: LabeledSample) -> list[str]:
    """Return human-readable descriptions of every violated invariant."""
    problems: list[str] = []
    ctx, tgt = sample.context, sample.target
    if not ctx.statement_ids:
        problems.append("context lists no logging statements")
    if tgt.method_id != ctx.method_id:
        problems.append("target statement does not belong to its context method")
    if tgt.location.path != ctx.location.path:
        problems.append("target statement path differs from context path")
    if not (ctx.location.start_line <= tgt.location.start_line
            and tgt.location.end_line <= ctx.location.end_line):
        problems.append("target statement lines fall outside the method's line span")
    prov = sample.provenance
    if prov.kind is ProvenanceKind.MUTATED:
        if sample.label is DefectLabel.NON_DEFECT:
            problems.append("mutated sample labeled NON_DEFECT")
        if prov.original_raw_text is None:
            problems.append("mutated sample missing original_raw_text")
        elif prov.original_raw_text == tgt.raw_text:
            problems.append("mutation left the statement unchanged")
    elif prov.kind is ProvenanceKind.WELL_MAINTAINED:
        if sample.label is not DefectLabel.NON_DEFECT:
            problems.append("well-maintained sample not labeled NON_DEFECT")
    return problems


# ---------------------------------------------------------------------------
# JSON (de)serialization. Field names match the dataclass definitions exactly.
# ---------------------------------------------------------------------------

def location_to_dict(loc: SourceLocation) -> dict[str, Any]:
    return {"path": loc.path, "start_line": loc.start_line, "end_line": loc.end_line}


def location_from_dict(d: dict[str, Any]) -> SourceLocation:
    return SourceLocation(d["path"], int(d["start_line"]), int(d["end_line"]))


def statement_to_dict(s: LoggingStatement) -> dict[str, Any]:
    return {
        "id": s.id,
        "level": s.level.value,
        "static_text": s.static_text,
        "placeholders": [
            {"kind": p.kind.value, "offset": p.offset, "text": p.text}
            for p in s.placeholders
        ],
        "variables": list(s.variables),
        "raw_text": s.raw_text,
        "location": location_to_dict(s.location),
        "method_id": s.method_id,
        "arity_mismatch": s.arity_mismatch,
        "parse_degraded": s.parse_degraded,
    }


def statement_from_dict(d: dict[str, Any]) -> LoggingStatement:
    return LoggingStatement(
        id=d["id"],
        level=LogLevel(d["level"]),
        static_text=d["static_text"],
        placeholders=tuple(
            Placeholder(PlaceholderKind(p["kind"]), int(p["offset"]), p.get("text", ""))
            for p in d["placeholders"]
        ),
        variables=tuple(d["variables"]),
        raw_text=d["raw_text"],
        location=location_from_dict(d["location"]),
        method_id=d["method_id"],
        parse_degraded=bool(d.get("parse_degraded", False)),
    )


def context_to_dict(c: MethodContext) -> dict[str, Any]:
    return {
        "method_id": c.method_id,
        "project_id": c.project_id,
        "qualified_name": c.qualified_name,
        "source_text": c.source_text,
        "statement_ids": list(c.statement_ids),
        "location": location_to_dict(c.location),
    }


def context_from_dict(d: dict[str, Any]) -> MethodContext:
    return MethodContext(
        method_id=d["method_id"],
        project_id=d["project_id"],
        qualified_name=d["qualified_name"],
        source_text=d["source_text"],
        statement_ids=tuple(d["statement_ids"]),
        location=location_from_dict(d["location"]),
    )


def sample_to_dict(s: LabeledSample) -> dict[str, Any]:
    return {
        "context": context_to_dict(s.context),
        "target": statement_to_dict(s.target),
        "label": s.label.value,
        "provenance": {
            "kind": s.provenance.kind.value,
            "strategy": s.provenance.strategy,
            "original_raw_text": s.provenance.original_raw_text,
        },
    }


def sample_from_dict(d: dict[str, Any]) -> LabeledSample:
    p = d["provenance"]
    return LabeledSample(
        context=context_from_dict(d["context"]),
        target=statement_from_dict(d["target"]),
        label=DefectLabel(d["label"]),
        provenance=Provenance(
            kind=ProvenanceKind(p["kind"]),
            strategy=p.get("strategy"),
            original_raw_text=p.get("original_raw_text"),
        ),
    )


def change_to_dict(c: LogCentricChange) -> dict[str, Any]:
    return {
        "project_id": c.project_id,
        "commit_id": c.commit_id,
        "before": statement_to_dict(c.before),
        "after": statement_to_dict(c.after),
        "context": context_to_dict(c.context),
    }


def change_from_dict(d: dict[str, Any]) -> LogCentricChange:
    return LogCentricChange(
        project_id=d["project_id"],
        commit_id=d["commit_id"],
        before=statement_from_dict(d["before"]),
        after=statement_from_dict(d["after"]),
        context=context_from_dict(d["context"]),
    )


def result_to_dict(r: UpdateResult) -> dict[str, Any]:
    return {
        "sample": sample_to_dict(r.sample),
        "predicted_label": r.predicted_label.value,
        "confidence": r.confidence,
        "checker_confirmed": r.checker_confirmed,
        "checker_rationale": r.checker_rationale,
        "checker_semantics": r.checker_semantics,
        "exemplars": [change_to_dict(e) for e in r.exemplars],
        "updated_statement": statement_to_dict(r.updated_statement) if r.updated_statement else None,
        "diagnostics": list(r.diagnostics),
    }


def result_from_dict(d: dict[str, Any]) -> UpdateResult:
    upd = d.get("updated_statement")
    return UpdateResult(
        sample=sample_from_dict(d["sample"]),
        predicted_label=DefectLabel(d["predicted_label"]),
        confidence=float(d["confidence"]),
        checker_confirmed=bool(d["checker_confirmed"]),
        checker_rationale=d["checker_rationale"],
        checker_semantics=d["checker_semantics"],
        exemplars=tuple(change_from_dict(e) for e in d.get("exemplars", [])),
        updated_statement=statement_from_dict(upd) if upd else None,
        diagnostics=tuple(d.get("diagnostics", [])),
    )


# ---------------------------------------------------------------------------
# JSONL streaming. One record per line, UTF-8, insertion-ordered keys.
# ---------------------------------------------------------------------------

def dumps_line(d: dict[str, Any]) -> str:
    return json.dumps(d, ensure_ascii=False)


def write_jsonl(path: str, dicts: Iterable[dict[str, Any]]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(dumps_line(d))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> Iterator[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_samples(path: str, samples: Iterable[LabeledSample]) -> int:
    return write_jsonl(path, (sample_to_dict(s) for s in samples))


def read_samples(path: str) -> list[LabeledSample]:
    return [sample_from_dict(d) for d in read_jsonl(path)]


def write_changes(path: str, changes: Iterable[LogCentricChange]) -> int:
    return write_jsonl(path, (change_to_dict(c) for c in changes))


def read_changes(path: str) -> list[LogCentricChange]:
    return [change_from_dict(d) for d in read_jsonl(path)]


def method_record_to_dict(context: MethodContext,
                          statements: Iterable[LoggingStatement]) -> dict[str, Any]:
    return {
        "method": context_to_dict(context),
        "statements": [statement_to_dict(s) for s in statements],
    }


def method_record_from_dict(d: dict[str, Any]) -> tuple[MethodContext, list[LoggingStatement]]:
    return (
        context_from_dict(d["method"]),
        [statement_from_dict(s) for s in d["statements"]],
    )
