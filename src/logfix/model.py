"""Domain types for logging statements, defect labels, and corpora.

Everything downstream (parser, miner, synthesizer, detector, repair,
evaluation) speaks in these types. All types are immutable after
construction; identifiers are content hashes so equal content gets equal
ids across runs. They are the on-disk format as well: `to_dict` and
`from_dict` at the bottom write and read them as JSON Lines records.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from functools import cache, cached_property
from operator import attrgetter
from types import UnionType
from typing import (Any, Callable, Iterable, Iterator, TextIO, TypeVar,
                    Union, get_args, get_origin, get_type_hints)

T = TypeVar("T")


class LogLevel(Enum):
    """A log level; `LogLevel(name)` reads a name case-insensitively, and the
    canonical form is uppercase."""

    TRACE = "TRACE"
    DEBUG = "DEBUG"
    INFO = "INFO"
    WARN = "WARN"
    ERROR = "ERROR"
    FATAL = "FATAL"

    @classmethod
    def _missing_(cls, value: object) -> LogLevel | None:
        # None makes Enum raise "'LOUD' is not a valid LogLevel"
        return (cls.__members__.get(value.strip().upper())
                if isinstance(value, str) else None)


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
    """A short id over `parts`. A part holding a surrogate escape, as a
    file name from `os.walk` that is not UTF-8 does, hashes as its bytes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogateescape"))
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
    terminating semicolon.
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
class Detection:
    """The detector's verdict on one statement, as `detect` writes it."""

    method: MethodContext
    statement: LoggingStatement
    predicted_label: DefectLabel
    confidence: float


@dataclass(frozen=True)
class MethodRecord:
    """A method and its logging statements, as `extract` writes them."""

    method: MethodContext
    statements: tuple[LoggingStatement, ...]


@dataclass(frozen=True)
class TruthRecord:
    """The true label of one statement and the statement as it should read
    (itself, if it is clean); `evaluate` scores results against these."""

    statement_id: str
    label: DefectLabel
    statement: LoggingStatement


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of running one statement through the repair pipeline."""

    sample: LabeledSample
    predicted_label: DefectLabel
    confidence: float
    checker_confirmed: bool
    checker_rationale: str
    checker_semantics: str
    exemplars: tuple[LogCentricChange, ...] = ()
    updated_statement: LoggingStatement | None = None
    diagnostics: tuple[str, ...] = ()


def statement_offset(context: MethodContext, stmt: LoggingStatement) -> int:
    """Where `stmt`'s raw text starts in its method's source text, looked
    for on the statement's own line, so that of two equal statements the
    right one is found; -1 when the text is not there."""
    line = stmt.location.start_line - context.location.start_line
    lines = context.source_text.split("\n")
    if not 0 <= line < len(lines):
        return -1
    start = sum(map(len, lines[:line])) + line
    at = context.source_text.find(stmt.raw_text, start)
    return at if start <= at < start + len(lines[line]) else -1


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
    elif statement_offset(ctx, tgt) < 0:
        problems.append("context does not hold the target's raw text at its line")
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
# JSON (de)serialization. A record's keys are its dataclass fields, in
# declaration order: an Enum is written as its value, a tuple as a list, a
# frozenset as a sorted list, a dict or a nested dataclass as an object and
# None as null. Reading ignores keys the
# class lacks, gives a missing key its field's default, reads a JSON integer
# into a float field and 0/1 into a bool field, and rejects a value of the
# wrong JSON type with a ValueError that names the class and the field.
# ---------------------------------------------------------------------------

# The JSON types each scalar field accepts, and how to say so.
_SCALARS: dict[type, tuple[tuple[type, ...], str]] = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool, int), "a boolean"),
}


def _converters(tp: Any) -> tuple[Callable | None, Callable | None,
                                  tuple[type, ...], str]:
    """(encode, decode, accepted JSON types, their description) for values
    of type `tp`; encode/decode are None where the JSON value is the value
    itself."""
    origin = get_origin(tp)
    if origin in (Union, UnionType):  # X | None
        (inner,) = [arg for arg in get_args(tp) if arg is not type(None)]
        encode, decode, kinds, expected = _converters(inner)
        return (None if encode is None
                else lambda v: None if v is None else encode(v),
                None if decode is None
                else lambda v: None if v is None else decode(v),
                (*kinds, type(None)), f"{expected} or null")
    # tuple[X, ...] and frozenset[X] are lists of X, dict[str, X] an object
    if origin in (tuple, frozenset, dict):
        item = get_args(tp)[1 if origin is dict else 0]
        encode, decode, kinds, expected = _converters(item)
        kinds_set = frozenset(kinds)

        def checked(items: Iterable) -> Iterable:
            if not kinds_set.issuperset(map(type, items)):
                wrong = next(x for x in items if type(x) not in kinds)
                raise ValueError(
                    f"each item must be {expected}, got {_show(wrong)}")
            return items if decode is None else map(decode, items)
        if origin is dict:
            return (dict if encode is None
                    else lambda v: {k: encode(x) for k, x in v.items()},
                    lambda v: dict(zip(v, checked(v.values()))),
                    (dict,), "an object")
        if origin is frozenset:
            # written sorted, as the order of a set differs from run to run
            return (sorted if encode is None
                    else lambda v: sorted(map(encode, v)),
                    lambda v: frozenset(checked(v)), (list,), "a list")
        return (list if encode is None else lambda v: [encode(x) for x in v],
                lambda v: tuple(checked(v)), (list,), "a list")
    if isinstance(tp, type) and issubclass(tp, Enum):
        # a value no member has goes to the class, which rejects it
        members = {member.value: member for member in tp}
        return (attrgetter("_value_"), lambda v: members.get(v) or tp(v),
                (str,), "a string")
    if is_dataclass(tp):
        return *_codec(tp), (dict,), "an object"
    if tp in _SCALARS:
        return None, None if tp in (str, int) else tp, *_SCALARS[tp]
    raise TypeError(f"no JSON form for {tp!r}")


def _show(value: Any) -> str:
    return json.dumps(value, ensure_ascii=False)[:60]


@cache
def _codec(cls: type) -> tuple[Callable[[Any], dict[str, Any]],
                               Callable[[dict[str, Any]], Any]]:
    """The encoder and the decoder of a dataclass, built once per class.
    The decoder takes a dict; `from_dict` checks that the record is one.
    A class with no `__post_init__` and no `default_factory` has nothing
    for its `__init__` to do beyond setting the fields, so its records are
    built by setting them directly."""
    hints = get_type_hints(cls)
    direct = not hasattr(cls, "__post_init__") and all(
        f.default_factory is MISSING for f in fields(cls))
    encoders, readers = [], []
    for f in fields(cls):
        encode, decode, kinds, expected = _converters(hints[f.name])
        encoders.append((f.name, encode))
        readers.append((f.name, decode, kinds, expected, f.default,
                        f.default is MISSING and f.default_factory is MISSING))

    def encoder(obj: Any) -> dict[str, Any]:
        return {name: getattr(obj, name) if encode is None
                else encode(getattr(obj, name)) for name, encode in encoders}

    def decoder(data: dict[str, Any]) -> Any:
        values = {}
        for name, decode, kinds, expected, default, required in readers:
            value = data.get(name, MISSING)
            if value is MISSING:
                if required:
                    raise ValueError(f"{cls.__name__}.{name} is missing")
                if direct:
                    values[name] = default
                continue
            if type(value) not in kinds:
                raise ValueError(f"{cls.__name__}.{name} must be "
                                 f"{expected}, got {_show(value)}")
            if decode is not None:
                try:
                    value = decode(value)
                except ValueError as exc:
                    raise ValueError(
                        f"{cls.__name__}.{name}: {exc}") from None
            values[name] = value
        if not direct:
            return cls(**values)
        obj = object.__new__(cls)
        # pairs, not the dict: merging a dict would give each record a key
        # table of its own instead of the one its class's instances share
        obj.__dict__.update(values.items())
        return obj
    return encoder, decoder


def to_dict(obj: Any) -> dict[str, Any]:
    """The JSON object of a dataclass instance."""
    return _codec(type(obj))[0](obj)


def from_dict(cls: type[T], data: dict[str, Any]) -> T:
    """The `cls` instance a JSON object holds. A ValueError names the class
    and the field of a missing key whose field has no default, or of a value
    of the wrong type (and the path to it, for a nested record)."""
    if type(data) is not dict:
        raise ValueError(f"{cls.__name__} must be an object, got {_show(data)}")
    return _codec(cls)[1](data)


statement_to_dict = to_dict  # the name perfbench/inputs.py imports


# ---------------------------------------------------------------------------
# JSONL streaming. One record per line, UTF-8, insertion-ordered keys.
# ---------------------------------------------------------------------------

def dumps_line(d: dict[str, Any]) -> str:
    return json.dumps(d, ensure_ascii=False)


@contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """A UTF-8 text handle that replaces the file at `path`.

    A regular file there is renamed `<path>.tmp`, overwritten from its start,
    cut at the end of the new text and renamed back. So it keeps its inode
    and reuses its blocks, where truncating would free them, which stalls
    for tenths of a second on a filesystem that discards freed blocks. A run
    killed mid-write leaves `<path>.tmp`, not a partial `<path>`, and the
    next run takes it over; an exception inside the block removes both.
    Anything else, such as a new path, a link, a device or a file that
    cannot be set aside, is opened with `open(path, "w")`.
    """
    tmp, fd = path + ".tmp", None
    old = path if os.path.lexists(path) else tmp  # tmp: left by a killed run
    with suppress(OSError):
        if stat.S_ISREG(os.lstat(old).st_mode):
            os.replace(old, tmp)
            try:
                fd = os.open(tmp, os.O_WRONLY)
            except OSError:
                os.replace(tmp, old)
    if fd is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
            fh.truncate()
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_jsonl(path: str, dicts: Iterable[dict[str, Any]]) -> int:
    n = 0
    with open_output(path) as fh:
        for d in dicts:
            fh.write(dumps_line(d))
            fh.write("\n")
            n += 1
    return n


def read_json(path: str) -> Any:
    """The file's JSON value; a file that is not JSON is a ValueError
    naming the file, the line and the column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc.msg}: line "
                             f"{exc.lineno} column {exc.colno}") from None


def read_jsonl(path: str) -> Iterator[dict[str, Any]]:
    """Each non-blank line's JSON value; a line that is not JSON is a
    ValueError naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {number} is not JSON: "
                                 f"{exc.msg}: column {exc.colno}") from None
            yield value


def write_samples(path: str, samples: Iterable[LabeledSample]) -> int:
    return write_jsonl(path, map(to_dict, samples))


def read_samples(path: str) -> list[LabeledSample]:
    return [from_dict(LabeledSample, d) for d in read_jsonl(path)]


def write_changes(path: str, changes: Iterable[LogCentricChange]) -> int:
    return write_jsonl(path, map(to_dict, changes))


def read_changes(path: str) -> list[LogCentricChange]:
    return [from_dict(LogCentricChange, d) for d in read_jsonl(path)]

