"""Statement decomposition, method extraction, and raw-text round-trips."""

import random

import pytest

from conftest import (
    FIXTURES,
    JAVA_DIR,
    fuzz_texts,
    parsed_of,
    single_method,
    statement_of,
)
from logfix.model import LogLevel, PlaceholderKind
from logfix.parser import (
    ParserConfig,
    UnbalancedBraces,
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
    assert stmt.render() == raw


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
    for text in texts:
        stripped, mask, starts, closes = _reference_lex(text)
        lexed = lex(text)
        assert lexed.stripped == stripped, text
        assert lexed.mask == mask, text
        assert lexed.starts == starts, text
        assert {i: lexed.close(i) for i in closes} == closes, text


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


def test_unbalanced_braces_collected_not_raised():
    result = extract_file("class A { void m() { log.info(\"x\");",
                          "A.java", None, "")
    assert all(isinstance(e, UnbalancedBraces) for e in result.errors)


def test_method_line_cap_skips_method():
    body = "\n".join(f"        int v{i} = {i};" for i in range(30))
    src = f"class A {{ void m() {{\n{body}\n        log.info(\"x\");\n    }}\n}}"
    config = ParserConfig(max_method_lines=10)
    result = extract_file(src, "A.java", config, "")
    assert result.records == []
    assert result.errors
    assert "line cap" in str(result.errors[0])


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


def test_extraction_survives_random_garbage():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randrange(0, 200)
        data = bytes(rng.randrange(256) for _ in range(n))
        text = data.decode("latin-1")
        extract_file(text, "Garbage.java")  # must not raise
