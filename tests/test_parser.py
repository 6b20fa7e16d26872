"""Statement decomposition, method extraction, and raw-text round-trips."""

import dataclasses
import hashlib
import random
import re
import sys
import time

import pytest

from conftest import (
    FIXTURES,
    JAVA_DIR,
    fuzz_texts,
    parsed_of,
    single_method,
    statement_of,
)
from logfix.model import (LoggingStatement, LogLevel, PlaceholderKind,
                          statement_id)
from logfix.parser import (
    ParserConfig,
    UnbalancedBraces,
    _BEFORE_NAME_RE,
    _FOR_DECL_RE,
    _LOCAL_DECL_RE,
    _PRIMITIVES,
    _calls_by_method,
    _scan_calls,
    _scan_class_spans,
    _scan_markers,
    _scan_method_spans,
    _split_format_expr,
    collect_scope_identifiers,
    extract_file,
    lex,
    parse_statement_text,
    render_statement,
)


# ---------------------------------------------------------------------------
# Single-statement parsing
# ---------------------------------------------------------------------------
def test_parse_brace_placeholders():
    raw = 'log.info("loaded {} rows from {}", count, table);'
    stmt = statement_of(raw)
    assert stmt.level is LogLevel.INFO
    assert stmt.static_text == "loaded {} rows from {}"
    assert [p.kind for p in stmt.placeholders] == [PlaceholderKind.BRACE] * 2
    assert stmt.variables == ("count", "table")
    assert stmt.raw_text == raw
    assert not stmt.arity_mismatch
    assert not stmt.parse_degraded


def test_parse_percent_placeholders():
    raw = 'log.tracef("Transaction with Xid=%s", tx.getXid());'
    stmt = statement_of(raw)
    assert stmt.level is LogLevel.TRACE
    assert [p.kind for p in stmt.placeholders] == [PlaceholderKind.PERCENT]
    assert stmt.placeholders[0].text == "%s"
    assert stmt.variables == ("tx.getXid()",)


def test_leading_throwable_is_not_a_variable():
    raw = 'log.error(t, "Error compiling %s with %s", a, b);'
    stmt = statement_of(raw)
    assert stmt.level is LogLevel.ERROR
    assert stmt.variables == ("a", "b")
    assert not stmt.arity_mismatch


def test_concatenation_becomes_concat_placeholder():
    raw = 'logger.warn("failed after " + retries + " tries");'
    stmt = statement_of(raw)
    kinds = [p.kind for p in stmt.placeholders]
    assert kinds == [PlaceholderKind.CONCAT]
    assert stmt.variables == ("retries",)
    assert stmt.static_text == "failed after  tries"
    # the junction sits between the two literal fragments
    assert stmt.placeholders[0].offset == len("failed after ")


def test_plus_inside_braces_does_not_cut_a_concatenation():
    raw = 'log.info("sum " + new int[]{a + b}[0]);'
    parsed = parsed_of(raw)
    stmt = parsed.statement
    assert stmt.variables == ("new int[]{a + b}[0]",)
    assert [(p.kind, p.offset) for p in stmt.placeholders] == [
        (PlaceholderKind.CONCAT, 4)]
    assert render_statement(parsed) == raw


def test_trailing_unbound_argument_is_an_arity_mismatch():
    stmt = statement_of('log.debug("one {}", a, b);')
    assert stmt.variables == ("a", "b")
    assert len(stmt.placeholders) == 1
    assert stmt.arity_mismatch


def test_level_method_table():
    cases = {
        "trace": LogLevel.TRACE, "finest": LogLevel.TRACE,
        "debug": LogLevel.DEBUG, "fine": LogLevel.DEBUG,
        "info": LogLevel.INFO, "warn": LogLevel.WARN,
        "warning": LogLevel.WARN, "error": LogLevel.ERROR,
        "severe": LogLevel.ERROR, "fatal": LogLevel.FATAL,
    }
    for method, level in cases.items():
        assert statement_of(f'log.{method}("x");').level is level, method


def test_non_logger_text_returns_none():
    assert parse_statement_text('System.out.println("x");') is None
    assert parse_statement_text('foo.info("x");') is None
    assert parse_statement_text("int x = 3;") is None
    assert parse_statement_text("") is None


def test_degraded_when_no_string_literal():
    stmt = statement_of("log.info(buildMessage());")
    assert stmt.parse_degraded
    assert stmt.static_text == ""
    assert stmt.variables == ()
    assert stmt.raw_text == "log.info(buildMessage());"


def test_escape_sequences_preserved_verbatim():
    raw = 'log.info("line one\\nvalue {} two", x);'
    parsed = parsed_of(raw)
    stmt = parsed.statement
    assert "\\n" in stmt.static_text
    assert "\n" not in stmt.static_text
    assert render_statement(parsed) == raw


def test_custom_receivers_and_level_methods():
    config = ParserConfig(
        logger_receivers=frozenset({"mylog"}),
        level_methods={"note": LogLevel.INFO},
    )
    assert parse_statement_text('log.info("x");', config) is None
    stmt = parse_statement_text('mylog.note("x");', config).statement
    assert stmt.level is LogLevel.INFO


def test_strip_comments_preserves_offsets():
    src = 'a /* gone */ b // tail\nc'
    out = lex(src).stripped
    assert len(out) == len(src)
    assert "gone" not in out
    assert "tail" not in out
    assert out.index("b") == src.index("b")
    assert out.index("c") == src.index("c")


# ---------------------------------------------------------------------------
# Lexing: the single pass against the five scanners it replaced, each of
# which walked the text on its own
# ---------------------------------------------------------------------------
def _ref_strip_comments(source: str) -> str:
    """Replace // and /* */ comments with spaces, preserving all offsets."""
    out = list(source)
    i, n = 0, len(source)
    CODE, LINE, BLOCK, STR, CHR = range(5)
    state = CODE
    while i < n:
        c = source[i]
        if state == CODE:
            if c == "/" and i + 1 < n and source[i + 1] == "/":
                out[i] = out[i + 1] = " "
                i += 2
                state = LINE
            elif c == "/" and i + 1 < n and source[i + 1] == "*":
                out[i] = out[i + 1] = " "
                i += 2
                state = BLOCK
            elif c == '"':
                i += 1
                state = STR
            elif c == "'":
                i += 1
                state = CHR
            else:
                i += 1
        elif state == LINE:
            if c == "\n":
                state = CODE
            else:
                out[i] = " "
            i += 1
        elif state == BLOCK:
            if c == "*" and i + 1 < n and source[i + 1] == "/":
                out[i] = out[i + 1] = " "
                i += 2
                state = CODE
            else:
                if c != "\n":
                    out[i] = " "
                i += 1
        elif state == STR:
            if c == "\\" and i + 1 < n:
                i += 2
            elif c == '"' or c == "\n":
                # a raw newline ends the literal defensively; Java literals
                # cannot span lines anyway
                i += 1
                state = CODE
            else:
                i += 1
        else:  # CHR
            if c == "\\" and i + 1 < n:
                i += 2
            elif c == "'" or c == "\n":
                i += 1
                state = CODE
            else:
                i += 1
    return "".join(out)


def _ref_literal_mask(text: str) -> bytearray:
    """mask[i] == 1 when text[i] sits inside a string/char literal (quotes included)."""
    mask = bytearray(len(text))
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            mask[i] = 1
            i += 1
            while i < n:
                d = text[i]
                mask[i] = 1
                if d == "\\" and i + 1 < n:
                    mask[i + 1] = 1
                    i += 2
                    continue
                i += 1
                if d == quote or d == "\n":
                    if d == "\n":
                        mask[i - 1] = 0
                    break
        else:
            i += 1
    return mask


def _ref_match_paren(text: str, mask: bytearray, open_idx: int) -> int:
    """Index of the ')' matching text[open_idx] == '(', or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if mask[i]:
            continue
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _ref_match_brace(text: str, mask: bytearray, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if mask[i]:
            continue
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _ref_line_starts(text: str) -> list[int]:
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def _reference_lex(source: str):
    stripped = _ref_strip_comments(source)
    mask = _ref_literal_mask(stripped)
    closes = {}
    for i, c in enumerate(stripped):
        if not mask[i] and c == "(":
            closes[i] = _ref_match_paren(stripped, mask, i)
        elif not mask[i] and c == "{":
            closes[i] = _ref_match_brace(stripped, mask, i)
    return stripped, mask, _ref_line_starts(stripped), closes


def test_lexer_matches_reference_scanners():
    texts = list(fuzz_texts(10_000))
    fixtures = sorted(FIXTURES.rglob("*.java"))
    assert len(fixtures) >= 50
    texts.extend(path.read_text(encoding="utf-8") for path in fixtures)
    # corners of the token pattern: a "/" that does not close the comment
    # it opens, an unclosed comment, a backslash before a newline or the
    # end of the text, a quote as the last character, and a line comment
    # with no final newline
    texts.extend(["/*/ x */(", "f(x) {\n/*", "f(x) /* a * b *",
                  '"a\\\nb" (', "'\\\n' {", 'x("\\', "x = '", 'x = "',
                  "f(); // done", "{ // }"])
    for text in texts:
        stripped, mask, starts, closes = _reference_lex(text)
        lexed = lex(text)
        assert lexed.stripped == stripped, text
        assert lexed.mask == mask, text
        assert lexed.starts == starts, text
        assert {i: lexed.close(i) for i in closes} == closes, text


# ---------------------------------------------------------------------------
# Reference scanners, as first written: the method, class and call finders,
# whose regexes try every offset (the identifier ones backtrack over the rest
# of each word, so they are quadratic in the longest word or literal), the
# placeholder and concatenation splitters, which step one character at a
# time, and the attribution of calls to methods, which compares every call
# with every method. The parser's scanners must return exactly what these
# return.
# ---------------------------------------------------------------------------
_REF_IDENT_PAREN_RE = re.compile(r"([A-Za-z_$][\w$]*)\s*\(")
_REF_THROWS_RE = re.compile(r"\s*throws\s+[\w$.\s,<>]*")
# `record` is a keyword only before a record header
_REF_CLASS_RE = re.compile(r"\b(?:class|interface|enum"
                           r"|record(?=\s+[A-Za-z_$][\w$]*\s*[(<]))"
                           r"\s+([A-Za-z_$][\w$]*)")
_REF_NOT_A_METHOD = {
    "if", "for", "while", "switch", "catch", "return", "new", "do", "else",
    "try", "finally", "throw", "assert", "super", "this", "synchronized",
}


def _ref_prev_word(text: str, idx: int) -> str:
    j = idx
    while j > 0 and text[j - 1].isspace():
        j -= 1
    i = j
    while i > 0 and (text[i - 1].isalnum() or text[i - 1] in "_$"):
        i -= 1
    return text[i:j]


def _reference_method_spans(lexed, path):
    """(name, header_start, open_brace, close_brace) per method, and
    the error message of each unbalanced body."""
    stripped, mask = lexed.stripped, lexed.mask
    spans, errors = [], []
    for m in _REF_IDENT_PAREN_RE.finditer(stripped):
        if mask[m.start()]:
            continue
        name = m.group(1)
        if name in _REF_NOT_A_METHOD:
            continue
        k = m.start()
        while k > 0 and stripped[k - 1].isspace():
            k -= 1
        if k > 0 and stripped[k - 1] in ".@":
            continue
        if _ref_prev_word(stripped, m.start()) in ("new", "record"):
            continue
        close = lexed.close(m.end() - 1)
        if close < 0:
            continue
        after = close + 1
        tm = _REF_THROWS_RE.match(stripped, after)
        if tm:
            after = tm.end()
        while after < len(stripped) and stripped[after].isspace():
            after += 1
        if after >= len(stripped) or stripped[after] != "{":
            continue
        body_close = lexed.close(after)
        if body_close < 0:
            errors.append(f"{path}:{lexed.line_of(after)}: unbalanced "
                          f"braces in method {name}")
            continue
        header_start = stripped.rfind("\n", 0, m.start()) + 1
        spans.append((name, header_start, after, body_close))
    return spans, errors


def _reference_class_spans(lexed):
    stripped, mask = lexed.stripped, lexed.mask
    out = []
    for m in _REF_CLASS_RE.finditer(stripped):
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


def _reference_calls(lexed, config):
    """(start, end, level, arg_spans) per logger call."""
    stripped, mask = lexed.stripped, lexed.mask
    recv = "|".join(re.escape(r) for r in sorted(config.logger_receivers))
    call_re = re.compile(
        rf"(?<![\w$])(?:{recv})\s*\.\s*([A-Za-z_$][\w$]*)\s*\(")
    calls = []
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
            eol = stripped.find("\n", open_idx)
            end = eol if eol >= 0 else n
            calls.append((m.start(), end, level, ()))
            pos = end
            continue
        spans = []
        depth = 0
        a = open_idx + 1
        for i in range(open_idx + 1, close):
            if mask[i]:
                continue
            c = stripped[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == "," and depth == 0:
                spans.append((a, i))
                a = i + 1
        if close > open_idx + 1:
            spans.append((a, close))
        end = close + 1
        if end < n and stripped[end] == ";":
            end += 1
        calls.append((m.start(), end, level, tuple(spans)))
        pos = end
    return calls


# what the finders look for, in random order: keywords, receivers, names
# with digits and non-ASCII letters, annotations, brackets and literals
_FINDER_FRAGMENTS = ["class", "interface", "enum", "record", "new", "if",
                     "throws", "void", "run", "x1", "1x", "é", "$", "_",
                     "@", ".", ",", ";", "(", ")", "{", "}", "[", "]", '"',
                     "'", "\\", "\n", " ", "\t", "//", "/*", "*/", "log",
                     "LOG", "Logger", "this.log", "$log", "info", "warn",
                     "subclass", "élog", "run(", "1x (", "() {", ") {",
                     ") throws E {", "@A(", "log.info(", "new A("]
_FINDER_CONFIGS = [
    ParserConfig(),
    ParserConfig(logger_receivers=frozenset()),
    ParserConfig(logger_receivers=frozenset({"", "$log", "this.log", "LOG"})),
]


def _finder_texts() -> list[str]:
    texts = list(fuzz_texts(10_000))
    fixtures = sorted(FIXTURES.rglob("*.java"))
    assert len(fixtures) >= 50
    texts.extend(path.read_text(encoding="utf-8") for path in fixtures)
    rng = random.Random(7)
    texts.extend("".join(rng.choices(_FINDER_FRAGMENTS,
                                     k=rng.randrange(0, 40)))
                 for _ in range(5_000))
    # corners: "$" and non-ASCII letters before keywords and receivers,
    # names after digits, brackets and commas inside arguments
    texts.extend([
        "$class A { void run() { log.info(\"x\"); } }",
        "éclass B { }", "_enum C { }", "subclass D { }", "x.class E { }",
        "class F {\nrun() {\n}\n1run() {\n}\né2run () {\n}\n}",
        'void g() { log.info("{} {}", m[i, j], k); LOG.warn("a", f(1, 2)); }',
        'void h() { $log.info("x"); élog.info("y"); x.log.info("z"); }',
        "record R(int a) { }", "record S<T> (T t) { }", "$record U() { }",
        "if (record instanceof Foo) { }", "record V implements W { }",
    ])
    return texts


def test_finders_match_reference_finders():
    for text in _finder_texts():
        lexed = lex(text)
        errors = []
        spans = _scan_method_spans(lexed, "A.java", errors)
        assert ([(s.name, s.header_start, s.open_brace, s.close_brace)
                 for s in spans],
                [str(e) for e in errors]
                ) == _reference_method_spans(lexed, "A.java"), text
        assert _scan_class_spans(lexed) == _reference_class_spans(lexed), text
        for config in _FINDER_CONFIGS:
            assert [(c.start, c.end, c.level, c.arg_spans)
                    for c in _scan_calls(lexed, config)
                    ] == _reference_calls(lexed, config), text


_REF_PERCENT_RE = re.compile(r"%[-+ #0,(]*\d*(?:\.\d+)?[sSdfxXeEgGoObBcChHaA]")


def _reference_markers(static_text):
    """(kind, offset, text) per placeholder marker, one character at a
    time."""
    found = []
    i, n = 0, len(static_text)
    while i < n:
        c = static_text[i]
        if c == "{" and i + 1 < n and static_text[i + 1] == "}":
            found.append((PlaceholderKind.BRACE, i, "{}"))
            i += 2
        elif c == "%":
            if i + 1 < n and static_text[i + 1] == "%":
                i += 2
                continue
            m = _REF_PERCENT_RE.match(static_text, i)
            if m:
                found.append((PlaceholderKind.PERCENT, i, m.group()))
                i = m.end()
            else:
                i += 1
        else:
            i += 1
    return found


def _reference_split_format_expr(expr, mask):
    """(is_literal, text, span) per fragment, or None without a top-level
    literal; the '+' cuts are found one character at a time."""
    cuts = []
    depth = 0
    for i, c in enumerate(expr):
        if mask[i]:
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "+" and depth == 0:
            cuts.append(i)
    pieces = []
    prev = 0
    for cut in cuts:
        pieces.append((prev, cut))
        prev = cut + 1
    pieces.append((prev, len(expr)))
    frags = []
    saw_literal = False
    for a, b in pieces:
        piece = expr[a:b]
        stripped = piece.strip()
        if not stripped:
            continue
        lead = a + (len(piece) - len(piece.lstrip()))
        if (stripped.startswith('"') and stripped.endswith('"')
                and len(stripped) >= 2):
            saw_literal = True
            frags.append((True, stripped[1:-1],
                          (lead + 1, lead + 1 + len(stripped) - 2)))
        else:
            frags.append((False, stripped, (lead, lead + len(stripped))))
    return frags if saw_literal else None


_FORMAT_FRAGMENTS = ["{", "}", "{}", "%", "%%", "%s", "%d", "%-5.2f", "%n",
                     "%(", "%,d", "%08X", "%.3e", "a", " ", "+", "++", "(",
                     ")", "[", "]", '"', "'", "\\", "x.y()", "é"]


def test_format_splitting_matches_the_reference_scanners():
    rng = random.Random(11)
    texts = _finder_texts() + ["".join(rng.choices(_FORMAT_FRAGMENTS,
                                                   k=rng.randrange(0, 30)))
                               for _ in range(5_000)]
    for text in texts:
        assert [(p.kind, p.offset, p.text) for p in _scan_markers(text)
                ] == _reference_markers(text), text
        mask = lex(text).mask
        expected = _reference_split_format_expr(text, mask)
        # split alone and as the tail of a longer text, spans moved by its
        # start
        for pad in (0, 3):
            padded = " " * pad + text
            frags = _split_format_expr(padded, bytearray(pad) + mask, pad,
                                       pad + len(text))
            assert (None if frags is None
                    else [(is_literal, padded[a:b], (a - pad, b - pad))
                          for is_literal, a, b in frags]) == expected, text


def _reference_decompose(raw):
    """(static_text, placeholders, variables, literal_fragments,
    variable_spans) of the first call in `raw`, or None for a degraded one,
    bound in two passes as the parser once did it: placeholders first, with
    concatenated expressions queued by slot, then a walk over the
    placeholders that hands each marker the next trailing argument."""
    text = raw.strip()
    lexed = lex(text)
    call = _scan_calls(lexed, ParserConfig())[0]
    stripped = lexed.stripped
    arg_texts = []
    for a, b in call.arg_spans:
        arg = stripped[a:b]
        lead = a + len(arg) - len(arg.lstrip())
        arg_texts.append((lead, lead + len(arg.strip()), arg.strip()))
    fmt_idx = frags = None
    for i, (a, b, arg) in enumerate(arg_texts):
        if '"' in arg:
            split = _reference_split_format_expr(arg, lexed.mask[a:b])
            if split is not None:
                fmt_idx = i
                frags = [(lit, t, (sa + a, sb + a))
                         for lit, t, (sa, sb) in split]
                break
    if fmt_idx is None:
        return None
    static_parts, placeholders, fragments = [], [], []
    concat_map = {}
    offset = 0
    for is_literal, frag_text, (a, b) in frags:
        raw_a, raw_b = a - call.start, b - call.start
        if is_literal:
            placeholders.extend((kind, offset + at, marker) for kind, at, marker
                                in _reference_markers(frag_text))
            fragments.append((offset, offset + len(frag_text), raw_a, raw_b))
            static_parts.append(frag_text)
            offset += len(frag_text)
        else:
            concat_map[len(placeholders)] = (frag_text, (raw_a, raw_b))
            placeholders.append((PlaceholderKind.CONCAT, offset, ""))
    trailing = [(a - call.start, b - call.start, arg)
                for a, b, arg in arg_texts[fmt_idx + 1:]]
    variables, var_spans = [], []
    t = 0
    for idx, (kind, _, _) in enumerate(placeholders):
        if kind is PlaceholderKind.CONCAT:
            expr, span = concat_map[idx]
            variables.append(expr)
            var_spans.append(span)
        elif t < len(trailing):
            a, b, arg = trailing[t]
            variables.append(arg)
            var_spans.append((a, b))
            t += 1
    for a, b, arg in trailing[t:]:
        variables.append(arg)
        var_spans.append((a, b))
    return ("".join(static_parts), placeholders, tuple(variables),
            tuple(fragments), tuple(var_spans))


_GEN_LITERAL_PIECES = ["a", "b c", " ", "=", "{}", "%s", "%d", "%5.2f", "%%",
                       "%n", "{", "}", "+", ",", "(", ")", '\\"', "é"]
_GEN_EXPRESSIONS = ["n", "user.getId()", "m.get(k, v)", "a[i]", "(x + y)",
                    'f("s", t)', "'c'", "e", "new int[]{1, 2}", "i++",
                    "/* c */ n"]
_GEN_SPACES = ["", " ", "  ", "\n    "]


def _generated_call(rng):
    """A logger call whose arguments mix leading expressions, a
    concatenation of literals and expressions with {}/%s/%% markers, and
    trailing expressions. A call without the concatenation, or whose
    concatenation holds no literal, is degraded (about 3 in 10)."""
    def expr():
        return rng.choice(_GEN_EXPRESSIONS)

    def space():
        return rng.choice(_GEN_SPACES)

    args = [expr() for _ in range(rng.choice([0, 0, 0, 1, 2]))]
    if rng.random() < 0.85:
        chain = []
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.6:
                pieces = rng.choices(_GEN_LITERAL_PIECES, k=rng.randrange(5))
                chain.append('"' + "".join(pieces) + '"')
            else:
                chain.append(expr())
        args.append(f"{space()}+{space()}".join(chain))
    args.extend(expr() for _ in range(rng.randrange(4)))
    sep = f",{space()}"
    receiver = rng.choice(["log", "LOG", "logger"])
    level = rng.choice(["info", "debug", "warn", "error", "trace"])
    return f"{receiver}.{level}({space()}{sep.join(args)}{space()});"


def test_one_pass_binding_matches_the_two_pass_reference():
    rng = random.Random(23)
    degraded = 0
    for _ in range(12_000):
        raw = _generated_call(rng)
        parsed = parse_statement_text(raw)
        stmt = parsed.statement
        expected = _reference_decompose(raw)
        if expected is None:
            degraded += 1
            assert stmt.parse_degraded, raw
            expected = ("", [], (), (), ())
        assert (stmt.static_text,
                [(p.kind, p.offset, p.text) for p in stmt.placeholders],
                stmt.variables, parsed.literal_fragments,
                parsed.variable_spans) == expected, raw
        assert render_statement(parsed) == stmt.raw_text, raw
    # both kinds of call are common
    assert 1_000 < degraded < 4_000, degraded


def test_backward_name_classes_match_the_str_predicates():
    # The word and space classes read backwards before a method name accept
    # exactly what `str.isalnum()` or "_$" and `str.isspace()` accept.
    matched = []
    expected = []
    for code in range(sys.maxunicode + 1):
        c = chr(code)
        m = _BEFORE_NAME_RE.fullmatch(c)
        matched.append(m and m.groups())
        if c.isspace():
            expected.append(("", ""))
        elif c in ".@":
            expected.append((c, ""))
        elif c.isalnum() or c in "_$":
            expected.append(("", c))
        else:
            expected.append(None)
    assert matched == expected


def _reference_calls_by_method(method_spans, calls):
    """The first attribution: every call against every method, keeping the
    smallest body that holds the call."""
    grouped = {}
    for call in calls:
        best = None
        best_size = None
        for i, ms in enumerate(method_spans):
            if ms.open_brace < call.start and call.start < ms.close_brace:
                size = ms.close_brace - ms.open_brace
                if best_size is None or size < best_size:
                    best, best_size = i, size
        if best is not None:
            grouped.setdefault(best, []).append(call)
    return grouped


def test_calls_go_to_the_innermost_method_as_the_reference_has_it():
    nested = ("class A {\n  void outer() {\n    log.info(\"a\");\n"
              "    Runnable r = new Runnable() {\n      public void run() {\n"
              "        log.info(\"b\");\n      }\n    };\n"
              "    log.info(\"c\");\n  }\n  void next() { log.warn(\"d\"); }\n}\n")
    for text in _finder_texts() + [nested]:
        lexed = lex(text)
        spans = _scan_method_spans(lexed, "A.java", [])
        calls = _scan_calls(lexed, ParserConfig())
        assert _calls_by_method(spans, calls) == (
            _reference_calls_by_method(spans, calls)), text
    result = extract_file(nested, "A.java")
    assert [(ctx.qualified_name, [p.statement.static_text for p in parsed])
            for ctx, parsed in result.records] == [
        ("A.outer", ["a", "c"]), ("A.run", ["b"]), ("A.next", ["d"])]


@pytest.mark.parametrize("filler", [
    '"' + "aB3x" * 7_500 + '"',  # a 30,000-character literal
    "a1" * 15_000,               # a 30,000-character identifier
])
def test_extract_file_is_linear_in_the_longest_word(filler):
    source = ("class A {\n    void run() {\n"
              f"        Object o = {filler};\n"
              '        log.info("ran {}", o);\n    }\n}\n')
    began = time.perf_counter()
    result = extract_file(source, "A.java")
    assert time.perf_counter() - began < 0.5
    assert [ctx.qualified_name for ctx, _ in result.records] == ["A.run"]


def test_extract_file_is_linear_in_methods_times_calls():
    # 10,000 empty methods and one with 2,000 calls: comparing every call
    # with every method took 2 s, ten times what extraction takes now
    lines = "".join(
        "        " + " ".join(f'log.info("step {i} {j}");' for j in range(20))
        + "\n" for i in range(100))
    source = ("class A {\n"
              + "".join(f"    void m{i}() {{ }}\n" for i in range(10_000))
              + f"    void run() {{\n{lines}    }}\n}}\n")
    began = time.perf_counter()
    result = extract_file(source, "A.java")
    assert time.perf_counter() - began < 1.0
    [(ctx, parsed)] = result.records
    assert ctx.qualified_name == "A.run" and len(parsed) == 2_000


def test_comment_inside_argument_list_is_ignored():
    raw = 'log.info("v {}", /* the value */ v);'
    stmt = statement_of(raw)
    assert stmt.variables == ("v",)
    assert stmt.raw_text == raw


# ---------------------------------------------------------------------------
# Method extraction
# ---------------------------------------------------------------------------
SOURCE = """\
package demo;

public class Worker {
    private static final Logger log = LoggerFactory.getLogger(Worker.class);

    public void run(int count) {
        int seen = 0;
        log.info("starting worker with {}", count);
        for (int i = 0; i < count; i++) {
            seen += step(i);
        }
        log.debug("worker saw {}", seen);
    }

    private int step(int i) {
        return i + 1;
    }
}
"""


def test_extract_file_keeps_only_logging_methods():
    result = extract_file(SOURCE, "Worker.java", None, "demo")
    assert not result.errors
    assert [ctx.qualified_name for ctx, _ in result.records] == ["Worker.run"]
    ctx, parsed = result.records[0]
    assert ctx.project_id == "demo"
    assert len(parsed) == 2
    assert ctx.statement_ids == tuple(p.statement.id for p in parsed)
    for p in parsed:
        assert p.statement.method_id == ctx.method_id
        assert ctx.location.start_line <= p.statement.location.start_line
        assert p.statement.location.end_line <= ctx.location.end_line
    assert ctx.source_text.lstrip().startswith("public void run(int count)")
    assert ctx.source_text.endswith("}")


def test_extract_file_statement_lines_match_source():
    result = extract_file(SOURCE, "Worker.java", None, "demo")
    stmt = result.records[0][1][0].statement
    line = SOURCE.splitlines()[stmt.location.start_line - 1]
    assert stmt.raw_text in line


def test_a_path_that_is_not_utf8_hashes_as_its_bytes():
    # what os.walk gives for the file name b"Worker\xe9.java"
    path = b"Worker\xe9.java".decode("utf-8", "surrogateescape")
    [(ctx, [first, _])] = extract_file(SOURCE, path).records
    stmt = first.statement
    loc = stmt.location
    assert loc.path == path and ctx.method_id == stmt.method_id
    digest = hashlib.sha256(
        b"Worker\xe9.java\x00"
        + f"{loc.start_line}-{loc.end_line}\x00{stmt.raw_text}\x00".encode())
    assert stmt.id == digest.hexdigest()[:16]


def test_nested_class_qualified_name():
    src = """\
class Outer {
    class Inner {
        void act() {
            log.info("hi");
        }
    }
}
"""
    ctx, _ = single_method(src)
    assert ctx.qualified_name == "Outer.Inner.act"


@pytest.mark.parametrize("src, qualified", [
    # a method on the line of its class's "{"
    ('class A { void f() { log.info("x"); } }', "A.f"),
    ('record R(int a) { void h() { log.info("x"); } }', "R.h"),
    ('record P<T>(T a) implements Q {\n  void h() { log.info("x"); }\n}',
     "P.h"),
    # `record` as a name opens no class
    ("class B {\n"
     "    void g(Object record) {\n"
     "        boolean b = record instanceof Foo;\n"
     '        class L { void k() { log.info("x"); } }\n'
     "    }\n"
     "}\n", "B.L.k"),
])
def test_qualified_name_takes_the_classes_that_hold_the_body(src, qualified):
    ctx, _ = single_method(src)
    assert ctx.qualified_name == qualified


def test_a_compact_canonical_constructor_is_a_method_named_after_its_record():
    src = """\
record P(int a) {
    P {
        log.info("checking {}", a);
    }
    void h() { log.warn("h {}", a); }
    record Q(int b) { public Q { if (b < 0) { log.debug("q {}", b); } } }
    static { log.info("static block"); }
    P(String s) { this(s.length()); log.info("from {}", s); }
}
class B { B { log.info("an initializer, not a constructor"); } }
record R(int r) { Q { log.info("not its record's name"); } }
"""
    result = extract_file(src, "P.java")
    assert result.errors == []
    assert [(ctx.qualified_name, ctx.location.start_line,
             [p.statement.static_text for p in parsed])
            for ctx, parsed in result.records] == [
        ("P.P", 2, ["checking {}"]),
        ("P.h", 5, ["h {}"]),
        ("P.Q.Q", 6, ["q {}"]),
        ("P.P", 8, ["from {}"]),
    ]
    ctx, parsed = result.records[0]
    assert ctx.source_text == ("    P {\n        log.info(\"checking {}\", a);"
                               "\n    }")
    assert parsed[0].statement.method_id == ctx.method_id


def test_unbalanced_braces_collected_not_raised():
    result = extract_file("class A { void m() { log.info(\"x\");",
                          "A.java", None, "")
    assert all(isinstance(e, UnbalancedBraces) for e in result.errors)
    assert [str(e) for e in result.errors] == [
        "A.java:1: unbalanced braces in method m"]


def test_method_line_cap_skips_method():
    body = "\n".join(f"        int v{i} = {i};" for i in range(30))
    src = f"class A {{ void m() {{\n{body}\n        log.info(\"x\");\n    }}\n}}"
    config = ParserConfig(max_method_lines=10)
    result = extract_file(src, "A.java", config, "")
    assert result.records == []
    assert [str(e) for e in result.errors] == [
        "A.java:1: method m has 33 lines, over the line cap of 10; skipped"]
    assert "line cap" in str(result.errors[0])
    assert "unbalanced" not in str(result.errors[0])
    assert not isinstance(result.errors[0], UnbalancedBraces)


# ---------------------------------------------------------------------------
# Scope identifiers
# ---------------------------------------------------------------------------
def test_collect_scope_identifiers_params_locals_and_loops():
    src = """\
void copy(Path source, int limit) {
    long total = 0;
    String name = source.toString();
    for (int i = 0; i < limit; i++) {
        total += i;
    }
}
"""
    names = collect_scope_identifiers(src)
    assert names == ["source", "limit", "total", "name", "i"]


def test_collect_scope_identifiers_dedups():
    src = "void m(int a) {\n    int a = 2;\n    int b = 3;\n}"
    assert collect_scope_identifiers(src) == ["a", "b"]


def _reference_split_params(params):
    """Parameter names from a signature's parenthesized parameter list, the
    first splitter's way: one character at a time, literals not masked."""
    names = []
    depth = 0
    piece = []
    pieces = []
    for c in params:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            pieces.append("".join(piece))
            piece = []
        else:
            piece.append(c)
    pieces.append("".join(piece))
    for p in pieces:
        p = p.strip()
        if not p:
            continue
        toks = re.findall(r"[A-Za-z_$][\w$]*", p)
        if len(toks) >= 2:
            names.append(toks[-1])
    return names


def _reference_scope_identifiers(method_source):
    """collect_scope_identifiers with the first parameter splitter."""
    stripped = lex(method_source).stripped
    open_brace = stripped.find("{")
    header = stripped[:open_brace] if open_brace >= 0 else stripped
    body = stripped[open_brace:] if open_brace >= 0 else ""
    names = []
    lp, rp = header.find("("), header.rfind(")")
    if 0 <= lp < rp:
        names.extend(_reference_split_params(header[lp + 1:rp]))
    names.extend(m.group(1) for m in _LOCAL_DECL_RE.finditer(body))
    names.extend(m.group(1) for m in _FOR_DECL_RE.finditer(body))
    return [n for n in dict.fromkeys(names) if n not in _PRIMITIVES]


def _fixture_methods():
    for path in sorted(FIXTURES.rglob("*.java")):
        source = path.read_text(encoding="utf-8")
        for ctx, _ in extract_file(source, path.name).records:
            yield ctx.source_text


def test_scope_parameters_match_the_reference_splitter():
    headers = [
        "void f(Map<String, List<Integer>> byName, int limit) {\n}",
        "void f(int[] values, String[][] grid, char c[]) {\n}",
        "void f(String format, Object... args) {\n}",
        "void f(final int x, final Map<K, V> m) {\n}",
        "void f(int x /* , int hidden */, int y // , int z\n) {\n}",
        "void f() {\n}",
        "void f( ) {\n}",
        "void f(@Named(\"id\") String x, @Min(1) int y) {\n}",
    ]
    methods = list(_fixture_methods())
    assert len(methods) == 307
    for src in methods + headers:
        assert collect_scope_identifiers(src) == (
            _reference_scope_identifiers(src)), src


def test_scope_parameters_skip_brackets_inside_literals():
    src = 'void f(@Named("a)b") String x, @Tag("<,") int y) {\n}'
    assert collect_scope_identifiers(src) == ["x", "y"]


@pytest.mark.parametrize("header", [
    '@Path("{id}") void get(String id, int n) {',
    '@Path("(id") void get(String id, int n) {',
    'void get(@Named("{a)") String id, int n) {',
    '@Path(value = "x") void get(String id, int n) {',
])
def test_scope_parameters_skip_brackets_in_header_literals(header):
    # the body's `{` and the parameter list's `(` are found outside literals,
    # also in an annotation on the method's own line
    src = header + "\n  int k = 1;\n}"
    assert collect_scope_identifiers(src) == ["id", "n", "k"]


# ---------------------------------------------------------------------------
# Round-trips and robustness
# ---------------------------------------------------------------------------
def test_render_round_trip_on_bundled_sources():
    for path in sorted(JAVA_DIR.glob("*.java")):
        source = path.read_text(encoding="utf-8")
        result = extract_file(source, path.name, None, "rt")
        assert not result.errors, (path, result.errors)
        assert any(parsed for _, parsed in result.records), path
        for _, parsed in result.records:
            for p in parsed:
                assert render_statement(p) == p.statement.raw_text, path


def test_render_round_trip_via_bare_parse():
    for raw in (
        'log.info("a {} b", x);',
        'logger.warn("n=" + n + " done");',
        'LOG.error(err, "failed %s", name);',
        'log.debug("plain");',
    ):
        assert render_statement(parsed_of(raw)) == raw


def _reference_relocate(statement: LoggingStatement,
                        original: LoggingStatement) -> LoggingStatement:
    """A bare re-parse put where `original` sits, as the parser once did it
    in a second step: location and method from `original`, the id derived
    afresh from them and the new raw text."""
    loc = original.location
    return dataclasses.replace(
        statement,
        id=statement_id(loc.path, loc.start_line, loc.end_line,
                        statement.raw_text),
        location=loc, method_id=original.method_id)


_ODD_CALLS = """class Odd {
    void act(int count, String name) {
        log.info("moved {} rows "
                 + "to {}",
                 count,
                 name);
        log.debug(count);
        LOG.warn(
            name);
        log.error("never closed {}", name
    }
}
"""


def test_placed_parse_matches_the_reference_relocate():
    statements = []
    sources = [(path.name, path.read_text(encoding="utf-8"))
               for path in sorted(FIXTURES.rglob("*.java"))]
    for name, source in sources + [("Odd.java", _ODD_CALLS)]:
        for _, parsed in extract_file(source, name).records:
            statements.extend(p.statement for p in parsed)
    assert sum(s.parse_degraded for s in statements) == 3
    assert sum(s.location.end_line > s.location.start_line
               for s in statements) == 2
    config = ParserConfig()
    # each statement's text placed at itself and at its neighbour
    for stmt, other in zip(statements, statements[1:] + statements[:1]):
        bare = parse_statement_text(stmt.raw_text, config)
        assert parse_statement_text(stmt.raw_text, config, None) == bare
        assert bare.statement.location.path == "<text>"
        assert bare.statement.method_id == ""
        for at in (stmt, other):
            placed = parse_statement_text(stmt.raw_text, config, at)
            assert placed == dataclasses.replace(
                bare, statement=_reference_relocate(bare.statement, at))
        assert parse_statement_text(stmt.raw_text, config, stmt).statement \
            == stmt


def test_extraction_survives_random_garbage():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randrange(0, 200)
        data = bytes(rng.randrange(256) for _ in range(n))
        text = data.decode("latin-1")
        extract_file(text, "Garbage.java")  # must not raise
