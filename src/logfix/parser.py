"""Brace-matching extraction of methods and logging statements from Java-like source.

This is not a grammar: a method is a name before a matched "(" whose
parameter list is followed by a balanced brace block (or, for a record's
compact constructor, the record's name before one), and a logger call is a
receiver/method-name pattern. Each text is lexed once (`lex`), through the
matches of one token pattern (a comment, a string or char literal, or a
bracket): comments are replaced by spaces, so offsets and line numbers stay
valid, string and char literals are masked, and every bracket outside them
is matched. The scanners read only that result, so quotes, braces, and
commas inside literals never confuse them, and each reads every word once:
extraction time is linear in the text, however long its identifiers or
literals. A method candidate's body is tested before its name is read.
Malformed input degrades: regions that cannot be matched are skipped and
reported, never raised out of extraction.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import islice

from logfix.model import (
    LoggingStatement,
    LogLevel,
    MethodContext,
    Placeholder,
    PlaceholderKind,
    SourceLocation,
    content_hash,
    statement_id,
)

DEFAULT_LOGGER_RECEIVERS = frozenset(
    {"log", "LOG", "logger", "LOGGER", "Log", "Logger"}
)

DEFAULT_LEVEL_METHODS: dict[str, LogLevel] = {
    "trace": LogLevel.TRACE, "tracef": LogLevel.TRACE,
    "finer": LogLevel.TRACE, "finest": LogLevel.TRACE,
    "debug": LogLevel.DEBUG, "debugf": LogLevel.DEBUG, "fine": LogLevel.DEBUG,
    "info": LogLevel.INFO, "infof": LogLevel.INFO,
    "warn": LogLevel.WARN, "warnf": LogLevel.WARN, "warning": LogLevel.WARN,
    "error": LogLevel.ERROR, "errorf": LogLevel.ERROR, "severe": LogLevel.ERROR,
    "fatal": LogLevel.FATAL, "fatalf": LogLevel.FATAL,
}


@dataclass(frozen=True)
class ParserConfig:
    logger_receivers: frozenset[str] = DEFAULT_LOGGER_RECEIVERS
    level_methods: dict[str, LogLevel] = field(
        default_factory=lambda: dict(DEFAULT_LEVEL_METHODS))
    max_method_lines: int = 500

    def __post_init__(self) -> None:
        if self.max_method_lines < 1:
            raise ValueError(f"max_method_lines must be >= 1, "
                             f"got {self.max_method_lines}")
        lowered = {k.lower(): v for k, v in self.level_methods.items()}
        object.__setattr__(self, "level_methods", lowered)


class UnbalancedBraces(Exception):
    """A brace block that never closes. Collected, not raised, by extraction."""


class MethodTooLong(Exception):
    """A method longer than ParserConfig.max_method_lines, skipped.
    Collected, not raised, by extraction."""


# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------

# One token of the lexer: a // comment up to its line end, a /* */ comment
# up to its */ or the end of the text, a string or char literal, or a
# bracket. In a literal a backslash escapes the next character, even a
# newline; an unescaped newline ends the literal without belonging to it
# (Java literals cannot span lines). Each alternative starts with one
# literal character, so `re` skips ahead to the next token's first character.
_TOKEN_RE = re.compile(
    r"//[^\n]*"
    r"|/\*[^*]*(?:\*(?!/)[^*]*)*(?:\*/)?"
    r"|\"[^\"\\\n]*(?:\\[\s\S]?[^\"\\\n]*)*\"?"
    r"|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?"
    r"|\(|\)|\{|\}")
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


@dataclass(frozen=True)
class Lexed:
    """One lexical pass over a text.

    `stripped` is the text with // and /* */ comments replaced by spaces
    (newlines kept), so offsets and line numbers stay valid in both.
    mask[i] == 1 when stripped[i] sits inside a string/char literal, quotes
    included. `closes` maps each matched '(' and '{' outside literals to its
    closing bracket; each kind is matched on its own, ignoring the other.
    """

    stripped: str
    mask: bytearray
    starts: list[int]
    closes: dict[int, int]

    def close(self, open_idx: int) -> int:
        """Index of the bracket closing the one at open_idx, or -1."""
        return self.closes.get(open_idx, -1)

    def line_of(self, offset: int) -> int:
        return bisect_right(self.starts, offset)


def lex(source: str) -> Lexed:
    """Strip comments, mask literals and match brackets in one scan."""
    pieces: list[str] = []
    mask = bytearray(len(source))
    closes: dict[int, int] = {}
    parens: list[int] = []
    braces: list[int] = []
    pos = 0  # source[pos:] is not yet copied into pieces
    for m in _TOKEN_RE.finditer(source):
        token = m.group()
        i = m.start()
        c = token[0]
        if c == "/":
            pieces.append(source[pos:i])
            pieces.append(_NOT_NEWLINE_RE.sub(" ", token))
            pos = m.end()
        elif c in "\"'":
            mask[i:m.end()] = b"\x01" * len(token)
        else:
            stack = parens if c in "()" else braces
            if c in "({":
                stack.append(i)
            elif stack:
                closes[stack.pop()] = i
    pieces.append(source[pos:])
    stripped = "".join(pieces)
    starts = [0]
    starts.extend(m.end() for m in re.finditer("\n", stripped))
    return Lexed(stripped, mask, starts, closes)


def _top_level_spans(text: str, mask: bytearray, start: int, end: int,
                     stops: re.Pattern[str]) -> list[tuple[int, int]]:
    """The spans of text[start:end] between its separators at bracket depth
    0, the last one included even when empty. `stops` matches one character
    at a time: the brackets the caller counts and its separator; characters
    `mask` marks as inside a literal are skipped."""
    spans: list[tuple[int, int]] = []
    depth = 0
    a = start
    for stop in stops.finditer(text, start, end):
        i = stop.start()
        if mask[i]:
            continue
        c = stop.group()
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif depth == 0:
            spans.append((a, i))
            a = i + 1
    spans.append((a, end))
    return spans


# ---------------------------------------------------------------------------
# Message decomposition
# ---------------------------------------------------------------------------

# A {} marker, an escaped %%, or a %-conversion treated as a substitution
# site (%n is not one).
_MARKER_RE = re.compile(
    r"\{\}|%%|%[-+ #0,(]*\d*(?:\.\d+)?[sSdfxXeEgGoObBcChHaA]")


def _scan_markers(static_text: str, base: int = 0) -> list[Placeholder]:
    """Find {} and %-style markers in one literal fragment."""
    found: list[Placeholder] = []
    for m in _MARKER_RE.finditer(static_text):
        marker = m.group()
        if marker == "{}":
            found.append(Placeholder(PlaceholderKind.BRACE, base + m.start(), "{}"))
        elif marker != "%%":
            found.append(Placeholder(PlaceholderKind.PERCENT, base + m.start(), marker))
    return found


def _trimmed(span: tuple[int, int], text: str) -> tuple[int, int]:
    a, b = span
    while a < b and text[a].isspace():
        a += 1
    while b > a and text[b - 1].isspace():
        b -= 1
    return a, b


# what the concatenation splitter looks at: brackets and '+'
_CONCAT_STOP_RE = re.compile(r"[()\[\]{}+]")


def _split_format_expr(text: str, mask: bytearray, start: int,
                       end: int) -> list[tuple[bool, int, int]] | None:
    """Split the concatenation chain text[start:end] into literal and
    expression fragments: (is_literal, a, b) per fragment, where text[a:b]
    is a literal's content between its quotes or an expression's text.

    `mask` is the literal mask of `text`. Every top-level '+' is a cut: a
    unary +/++ never separates the operands of a string concatenation in
    practice. Returns None when the chain holds no top-level string literal.
    """
    frags: list[tuple[bool, int, int]] = []
    saw_literal = False
    for span in _top_level_spans(text, mask, start, end, _CONCAT_STOP_RE):
        a, b = _trimmed(span, text)
        if a == b:
            continue
        if b - a >= 2 and text[a] == '"' and text[b - 1] == '"':
            saw_literal = True
            frags.append((True, a + 1, b - 1))
        else:
            frags.append((False, a, b))
    if not saw_literal:
        return None
    return frags


# ---------------------------------------------------------------------------
# Statement scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedStatement:
    """A statement plus the source spans synthesis needs to edit it."""

    statement: LoggingStatement
    # (static_start, static_end, raw_start, raw_end) per literal fragment;
    # static offsets index static_text, raw offsets index raw_text
    literal_fragments: tuple[tuple[int, int, int, int], ...]
    # raw_text span of each variables[i]
    variable_spans: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class _Call:
    start: int          # receiver start (offset into the scanned text)
    end: int            # one past ';' (or ')' when no semicolon follows)
    level: LogLevel
    arg_spans: tuple[tuple[int, int], ...]


@cache
def _call_re(receivers: frozenset[str]) -> re.Pattern[str]:
    # Built once per receiver set. Each receiver checks that no identifier
    # character precedes it after matching it, so the pattern starts with a
    # literal and `re` skips ahead to the receivers' first letters instead
    # of trying every offset. An empty receiver set matches a bare
    # `.method(`, as the empty alternation always did.
    recv = "|".join(rf"{re.escape(r)}(?<![\w$]{re.escape(r)})"
                    for r in sorted(receivers) or [""])
    return re.compile(rf"(?:{recv})\s*\.\s*([A-Za-z_$][\w$]*)\s*\(")


# what the argument splitter looks at: brackets and commas
_ARG_STOP_RE = re.compile(r"[()\[\]{},]")


def _scan_calls(lexed: Lexed, config: ParserConfig) -> list[_Call]:
    stripped, mask = lexed.stripped, lexed.mask
    calls: list[_Call] = []
    call_re = _call_re(frozenset(config.logger_receivers))
    pos = 0
    n = len(stripped)
    while pos < n:
        m = call_re.search(stripped, pos)
        if not m:
            break
        if mask[m.start()]:
            pos = m.start() + 1
            continue
        level = config.level_methods.get(m.group(1).lower())
        if level is None:
            pos = m.end()
            continue
        open_idx = m.end() - 1
        close = lexed.close(open_idx)
        if close < 0:
            # unterminated argument list: degrade to end of line
            eol = stripped.find("\n", open_idx)
            end = eol if eol >= 0 else n
            calls.append(_Call(m.start(), end, level, ()))
            pos = end
            continue
        spans = (_top_level_spans(stripped, mask, open_idx + 1, close,
                                  _ARG_STOP_RE)
                 if close > open_idx + 1 else [])
        end = close + 1
        if end < n and stripped[end] == ";":
            end += 1
        calls.append(_Call(m.start(), end, level, tuple(spans)))
        pos = end
    return calls


def _build_statement(original: str, lexed: Lexed, call: _Call, path: str,
                     method_id: str,
                     at: LoggingStatement | None = None) -> ParsedStatement:
    """Decompose one scanned call, placed at its lines in `path` or, when
    given, at `at`'s location and method.

    Argument analysis runs on the comment-stripped text so comments inside
    the argument list cannot corrupt the decomposition; raw_text is sliced
    from the original source (offsets are interchangeable, stripping keeps
    lengths).
    """
    raw_text = original[call.start:call.end]
    if at is None:
        loc = SourceLocation(path, lexed.line_of(call.start),
                             lexed.line_of(max(call.start, call.end - 1)))
    else:
        loc, method_id = at.location, at.method_id
    sid = statement_id(loc.path, loc.start_line, loc.end_line, raw_text)

    # the format is the first argument containing a top-level string
    # literal; a call without one (or without a closed argument list, which
    # leaves no argument spans) is degraded
    stripped = lexed.stripped
    frags = None
    for fmt_idx, span in enumerate(call.arg_spans):
        a, b = _trimmed(span, stripped)
        if stripped.find('"', a, b) >= 0:
            frags = _split_format_expr(stripped, lexed.mask, a, b)
            if frags is not None:
                break
    if frags is None:
        stmt = LoggingStatement(
            id=sid, level=call.level, static_text="", placeholders=(),
            variables=(), raw_text=raw_text, location=loc,
            method_id=method_id, parse_degraded=True)
        return ParsedStatement(stmt, (), ())

    # each placeholder binds its variable where it is found: a
    # concatenated expression itself, a {} or % marker the next argument
    # after the format; arguments left over after the last one are appended
    trailing = iter(call.arg_spans[fmt_idx + 1:])
    static_parts: list[str] = []
    placeholders: list[Placeholder] = []
    fragments: list[tuple[int, int, int, int]] = []
    spans: list[tuple[int, int]] = []  # of each variable within `stripped`
    offset = 0
    for is_literal, a, b in frags:
        if is_literal:
            literal = stripped[a:b]
            markers = _scan_markers(literal, offset)
            placeholders.extend(markers)
            spans.extend(_trimmed(arg, stripped)
                         for arg in islice(trailing, len(markers)))
            fragments.append((offset, offset + len(literal),
                              a - call.start, b - call.start))
            static_parts.append(literal)
            offset += len(literal)
        else:
            placeholders.append(Placeholder(PlaceholderKind.CONCAT, offset, ""))
            spans.append((a, b))
    spans.extend(_trimmed(arg, stripped) for arg in trailing)

    stmt = LoggingStatement(
        id=sid, level=call.level, static_text="".join(static_parts),
        placeholders=tuple(placeholders),
        variables=tuple(stripped[a:b] for a, b in spans),
        raw_text=raw_text, location=loc, method_id=method_id)
    var_spans = tuple((a - call.start, b - call.start) for a, b in spans)
    return ParsedStatement(stmt, tuple(fragments), var_spans)


# ---------------------------------------------------------------------------
# Method extraction
# ---------------------------------------------------------------------------

# Read against the reversed text from just before a "(": the whitespace and
# the identifier-character run ending there, so each run is read once.
_RUN_BEFORE_PAREN_RE = re.compile(r"\s*([\w$]+)")
# Read against the reversed text from just before a name: the whitespace,
# then a "." or "@", or else the word before the name.
_BEFORE_NAME_RE = re.compile(r"\s*([.@]?)([\w$]*)")
_IDENT_START_RE = re.compile(r"[A-Za-z_$]")
# the space and any throws clause between a parameter list and a body
_BEFORE_BODY_RE = re.compile(r"\s*(?:throws\s+[\w$.\s,<>]*)?")
# `\b` before each keyword, checked after matching it so that the pattern
# starts with a literal and `re` skips ahead to the next c, i, e or r;
# `record`, also a plain identifier, only before a name and "(" or "<"
_CLASS_RE = re.compile(
    "(?:" + "|".join(rf"{kw}(?<!\w{kw})"
                     for kw in ("class", "interface", "enum"))
    + r"|record(?<!\wrecord)(?=\s+[A-Za-z_$][\w$]*\s*[(<])"
    + r")\s+([A-Za-z_$][\w$]*)")
_NOT_A_METHOD = {
    "if", "for", "while", "switch", "catch", "return", "new", "do", "else",
    "try", "finally", "throw", "assert", "super", "this", "synchronized",
}


@dataclass(frozen=True)
class _MethodSpan:
    name: str
    header_start: int
    open_brace: int
    close_brace: int


def _scan_method_spans(lexed: Lexed, path: str,
                       errors: list[UnbalancedBraces]) -> list[_MethodSpan]:
    """Method declarations: a name, a parameter list, an optional throws
    clause, and a body, all matched by `lex`.

    A name is an identifier-character run followed by optional whitespace
    and a matched "(", minus any leading characters that cannot start an
    identifier (digits, non-ASCII word characters). Only a "(" that `lex`
    matched can open a parameter list, so the scan starts from those. Most
    of them are calls, not followed by a "{", so that is tested first, and
    only then is the run before the "(" read backwards.
    """
    stripped, mask = lexed.stripped, lexed.mask
    n = len(stripped)
    backwards = stripped[::-1]
    spans: list[_MethodSpan] = []
    for open_paren, close in sorted(lexed.closes.items()):
        if stripped[open_paren] != "(":
            continue
        after = _BEFORE_BODY_RE.match(stripped, close + 1).end()
        if after >= n or stripped[after] != "{":
            continue
        run = _RUN_BEFORE_PAREN_RE.match(backwards, n - open_paren)
        if run is None:
            continue
        run_end = n - run.start(1)
        first = _IDENT_START_RE.search(stripped, n - run.end(1), run_end)
        if first is None:
            continue
        start = first.start()
        if mask[start]:
            continue
        name = stripped[start:run_end]
        if name in _NOT_A_METHOD:
            continue
        # a "." or "@" before the name makes it a call or an annotation, and
        # `new` or `record` (read reversed) a constructor call or a record
        before = _BEFORE_NAME_RE.match(backwards, n - start)
        if before.group(1) or before.group(2) in ("wen", "drocer"):
            continue
        body_close = lexed.close(after)
        if body_close < 0:
            errors.append(UnbalancedBraces(
                f"{path}:{lexed.line_of(after)}: unbalanced braces in "
                f"method {name}"))
            continue
        header_start = lexed.starts[lexed.line_of(start) - 1]
        spans.append(_MethodSpan(name, header_start, after, body_close))
    return spans


def _scan_class_spans(lexed: Lexed) -> list[tuple[str, int, int, bool]]:
    """(name, body's "{", body's "}", whether it is a record) per class."""
    stripped, mask = lexed.stripped, lexed.mask
    out = []
    for m in _CLASS_RE.finditer(stripped):
        if mask[m.start()]:
            continue
        open_idx = stripped.find("{", m.end())
        while open_idx >= 0 and mask[open_idx]:
            open_idx = stripped.find("{", open_idx + 1)
        close = lexed.close(open_idx)
        if close < 0:
            continue
        out.append((m.group(1), open_idx, close,
                    m.group().startswith("record")))
    return out


def _scan_compact_constructors(
        lexed: Lexed, class_spans: list[tuple[str, int, int, bool]],
) -> list[_MethodSpan]:
    """Compact canonical constructors: a `Name {` block directly inside the
    body of record `Name`, which has no parameter list, as a method named
    `Name`. Each record body's top-level blocks are visited once, in text
    order."""
    stripped, mask = lexed.stripped, lexed.mask
    spans = []
    for name, body_open, body_close, is_record in class_spans:
        if not is_record:
            continue
        name_before_brace = re.compile(
            rf"(?<![\w$.@]){re.escape(name)}\s*\Z")
        pos = body_open + 1  # just after the last top-level block
        while True:
            brace = stripped.find("{", pos, body_close)
            while brace >= 0 and mask[brace]:
                brace = stripped.find("{", brace + 1, body_close)
            close = lexed.close(brace)  # -1 when there is no brace
            if close < 0:
                break
            m = name_before_brace.search(stripped, pos, brace)
            if m is not None:
                header_start = lexed.starts[lexed.line_of(m.start()) - 1]
                spans.append(_MethodSpan(name, header_start, brace, close))
            pos = close + 1
    return sorted(spans, key=lambda s: s.open_brace)


def _calls_by_method(method_spans: list[_MethodSpan],
                     calls: list[_Call]) -> dict[int, list[_Call]]:
    """Each call under the index of the innermost method whose body holds
    it; calls outside every method body are left out.

    Method bodies are brace blocks `lex` matched, so two of them are nested
    or disjoint. One pass over the calls in text order keeps a stack of the
    bodies opened before the call; the innermost body that holds it is the
    top once the bodies closed before it are popped.
    """
    by_open = sorted(range(len(method_spans)),
                     key=lambda i: method_spans[i].open_brace)
    grouped: dict[int, list[_Call]] = {}
    opened: list[int] = []
    k = 0
    for call in calls:  # in text order
        while (k < len(by_open)
               and method_spans[by_open[k]].open_brace < call.start):
            opened.append(by_open[k])
            k += 1
        while opened and method_spans[opened[-1]].close_brace <= call.start:
            opened.pop()
        if opened:
            grouped.setdefault(opened[-1], []).append(call)
    return grouped


def decode_source(data: bytes) -> str:
    """UTF-8 text with newlines translated, as text-mode reading gives it.
    Raises UnicodeDecodeError for bytes that are not UTF-8."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


@dataclass
class ExtractionResult:
    records: list[tuple[MethodContext, list[ParsedStatement]]]
    errors: list[UnbalancedBraces | MethodTooLong]


def extract_file(source: str, path: str, config: ParserConfig | None = None,
                 project_id: str = "") -> ExtractionResult:
    """Extract every method that contains at least one logging statement.

    Statements attribute to the innermost enclosing named method; methods
    without statements are dropped. Never raises on malformed input.
    """
    config = config or ParserConfig()
    lexed = lex(source)
    errors: list[UnbalancedBraces | MethodTooLong] = []

    method_spans = _scan_method_spans(lexed, path, errors)
    class_spans = _scan_class_spans(lexed)
    compact = _scan_compact_constructors(lexed, class_spans)
    if compact:  # both in text order; merging keeps each list's own order
        method_spans = list(heapq.merge(method_spans, compact,
                                        key=lambda s: s.open_brace))
    calls = _scan_calls(lexed, config)

    grouped = _calls_by_method(method_spans, calls)
    records: list[tuple[MethodContext, list[ParsedStatement]]] = []
    for i in sorted(grouped):
        ms = method_spans[i]
        start_line = lexed.line_of(ms.header_start)
        end_line = lexed.line_of(ms.close_brace)
        lines = end_line - start_line + 1
        if lines > config.max_method_lines:
            errors.append(MethodTooLong(
                f"{path}:{start_line}: method {ms.name} has {lines} lines, "
                f"over the line cap of {config.max_method_lines}; skipped"))
            continue
        source_text = source[ms.header_start:ms.close_brace + 1]
        enclosing = [name for name, o, c, _ in class_spans
                     if o < ms.open_brace and ms.close_brace < c]
        qualified = ".".join(enclosing + [ms.name])
        method_id = content_hash(path, f"{start_line}-{end_line}", source_text)
        parsed: list[ParsedStatement] = []
        for call in sorted(grouped[i], key=lambda c: c.start):
            parsed.append(_build_statement(
                source, lexed, call, path, method_id))
        context = MethodContext(
            method_id=method_id,
            project_id=project_id,
            qualified_name=qualified,
            source_text=source_text,
            statement_ids=tuple(p.statement.id for p in parsed),
            location=SourceLocation(path, start_line, end_line),
        )
        records.append((context, parsed))
    return ExtractionResult(records, errors)


def parse_statement_text(raw: str, config: ParserConfig | None = None,
                         at: LoggingStatement | None = None,
                         ) -> ParsedStatement | None:
    """Parse one statement from bare text (no enclosing method required),
    at `<text>` in no method, or where `at` sits: a re-parsed mutation or
    LLM reply takes the location and method of the statement it replaces,
    and its id is derived from them and its own raw text. Returns None when
    the text contains no recognizable logger call."""
    config = config or ParserConfig()
    text = raw.strip()
    lexed = lex(text)
    calls = _scan_calls(lexed, config)
    if not calls:
        return None
    return _build_statement(text, lexed, calls[0], "<text>", "", at)


def render_statement(parsed: ParsedStatement) -> str:
    """Rebuild a statement's raw text from its parsed pieces.

    Every literal fragment and bound variable is spliced back into its
    recorded raw span; a byte-identical result is the invariant that proves
    the span bookkeeping. Degraded statements carry no spans and render as
    their raw text unchanged.
    """
    stmt = parsed.statement
    raw = stmt.raw_text
    edits: list[tuple[int, int, str]] = []
    for ss, se, rs, re_ in parsed.literal_fragments:
        edits.append((rs, re_, stmt.static_text[ss:se]))
    for (rs, re_), var in zip(parsed.variable_spans, stmt.variables):
        edits.append((rs, re_, var))
    edits.sort()
    out: list[str] = []
    pos = 0
    for rs, re_, piece in edits:
        if rs < pos:
            raise ValueError("overlapping spans in parsed statement")
        out.append(raw[pos:rs])
        out.append(piece)
        pos = re_
    out.append(raw[pos:])
    return "".join(out)


# ---------------------------------------------------------------------------
# Scope inspection (used by the synthesizer's variable swaps)
# ---------------------------------------------------------------------------

_PRIMITIVES = {"int", "long", "short", "byte", "boolean", "double", "float",
               "char", "var", "String"}
_LOCAL_DECL_RE = re.compile(
    r"(?m)^\s*(?:final\s+)?"
    r"(?:[A-Z][\w$]*(?:<[^;=\n]*?>)?(?:\[\])*|int|long|short|byte|boolean|double|float|char|var)"
    r"(?:\[\])*\s+([a-z_$][\w$]*)\s*[=;:]")
_FOR_DECL_RE = re.compile(
    r"\bfor\s*\(\s*(?:final\s+)?[\w$.<>\[\],\s]+?\s+([a-z_$][\w$]*)\s*[:=]")


# what the parameter splitter looks at: brackets, generics and commas
_PARAM_STOP_RE = re.compile(r"[<>()\[\],]")
_IDENT_RE = re.compile(r"[A-Za-z_$][\w$]*")


def collect_scope_identifiers(method_source: str) -> list[str]:
    """Parameter and local-variable names visible inside a method, in order."""
    lexed = lex(method_source)
    stripped = lexed.stripped
    # the body opens at the first `{` outside literals, and the parameter
    # list is the `(` group before it that closes last
    open_brace = min((i for i in lexed.closes if stripped[i] == "{"),
                     default=len(stripped))
    body = stripped[open_brace:]
    names: list[str] = []
    parens = [i for i in lexed.closes if i < open_brace and stripped[i] == "("]
    if parens:
        lp = max(parens, key=lexed.closes.__getitem__)
        # a parameter's name is the last of its two or more words
        for a, b in _top_level_spans(stripped, lexed.mask, lp + 1,
                                     lexed.closes[lp], _PARAM_STOP_RE):
            words = _IDENT_RE.findall(stripped, a, b)
            if len(words) >= 2:
                names.append(words[-1])
    for m in _LOCAL_DECL_RE.finditer(body):
        names.append(m.group(1))
    for m in _FOR_DECL_RE.finditer(body):
        names.append(m.group(1))
    seen = set()
    out = []
    for n in names:
        if n not in seen and n not in _PRIMITIVES:
            seen.add(n)
            out.append(n)
    return out
