"""Tests for the two-role repair flow: prompts, reply parsing, and the
never-raising pipeline."""
from __future__ import annotations

import time

import pytest

from conftest import make_change, single_method
from logfix.backends import BackendError, HttpBackend, MockBackend
from logfix.model import (
    DefectLabel,
    result_to_dict,
    statement_id,
)
from logfix.repair import (
    CHECKER_FORMAT_INSTRUCTIONS,
    CheckerVerdict,
    DEFAULT_CHECKER_TEMPLATE,
    DEFAULT_UPDATER_TEMPLATE,
    MalformedReply,
    NotALoggingStatement,
    PromptTemplate,
    PromptRole,
    RepairConfig,
    _NullLimiter,
    _RateLimiter,
    _limiter_for,
    build_checker_prompt,
    build_updater_prompt,
    defect_definition,
    parse_checker_reply,
    parse_updater_reply,
    run_pipeline,
    run_pipeline_batch,
)
from logfix.retrieval import build_pool

CHANNEL_SOURCE = """\
class Net {
    void teardown(Channel ch, String remoteAddr) {
        LOG.debug("channel {} closed", remoteAddr);
    }
}
"""

DEFECT_LABELS = (
    DefectLabel.STATEMENT_CODE,
    DefectLabel.STATIC_DYNAMIC,
    DefectLabel.TEMPORAL,
    DefectLabel.READABILITY,
)

FAST = RepairConfig(min_request_interval=0.0)

YES_REPLY = (
    "VERDICT: YES\n"
    "RATIONALE: the message contradicts the code\n"
    "SEMANTICS: the method tears a channel down\n"
)


def detected(label: DefectLabel, confidence: float = 0.9):
    """The (label, confidence) that detect reports for a statement,
    making pipeline behavior independent of the input text."""
    return label, confidence


def make_changes(project: str = "proj", n: int = 4):
    return [
        make_change(project, f"c{i}",
                    f'log.info("before {i}");', f'log.info("after {i}");')
        for i in range(n)
    ]


def make_pool(project: str = "proj", n: int = 4):
    return build_pool(make_changes(project, n))


class QueueBackend:
    """Replays a fixed list of replies; an Exception entry is raised."""

    name = "queue"
    rate_limited = True

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls: list[str] = []

    def complete(self, prompt: str, max_output_tokens: int = 512,
                 temperature: float = 0.0) -> str:
        self.calls.append(prompt)
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


# ---------------------------------------------------------------------------
# Prompt templates and definitions
# ---------------------------------------------------------------------------
class TestPromptTemplate:
    def test_slot_discovery(self):
        assert DEFAULT_CHECKER_TEMPLATE.slots() == {
            "defect_type", "defect_definition", "context", "statement",
            "format_instructions",
        }
        assert DEFAULT_UPDATER_TEMPLATE.slots() == {
            "defect_type", "checker_output", "context", "exemplars",
            "statement", "format_instructions",
        }

    def test_render_fills_slots(self):
        template = PromptTemplate(role=PromptRole.CHECKER,
                                  text="a={a} b={b}")
        assert template.render(a="1", b="2") == "a=1 b=2"

    def test_render_rejects_missing_slots(self):
        template = PromptTemplate(role=PromptRole.CHECKER, text="{a} {b}")
        with pytest.raises(ValueError, match="b"):
            template.render(a="1")

    def test_render_ignores_extra_values(self):
        template = PromptTemplate(role=PromptRole.UPDATER, text="{a}")
        assert template.render(a="x", unrelated="y") == "x"


class TestDefectDefinitions:
    def test_every_defect_type_has_one(self):
        texts = {label: defect_definition(label) for label in DEFECT_LABELS}
        for text in texts.values():
            assert len(text) > 40
        assert len(set(texts.values())) == len(DEFECT_LABELS)

    def test_non_defect_has_none(self):
        with pytest.raises(ValueError):
            defect_definition(DefectLabel.NON_DEFECT)


class TestCheckerPrompt:
    def test_contains_all_inputs(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        prompt = build_checker_prompt(stmts[0], ctx,
                                      DefectLabel.STATEMENT_CODE)
        assert stmts[0].raw_text in prompt
        assert ctx.source_text in prompt
        assert "STATEMENT_CODE" in prompt
        assert defect_definition(DefectLabel.STATEMENT_CODE) in prompt
        assert CHECKER_FORMAT_INSTRUCTIONS in prompt

    def test_rejects_non_defect(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        with pytest.raises(ValueError):
            build_checker_prompt(stmts[0], ctx, DefectLabel.NON_DEFECT)


class TestParseCheckerReply:
    def test_yes_with_fields(self):
        verdict = parse_checker_reply(YES_REPLY)
        assert verdict.confirmed is True
        assert verdict.rationale == "the message contradicts the code"
        assert verdict.semantic_notes == "the method tears a channel down"

    def test_case_insensitive_no(self):
        verdict = parse_checker_reply(
            "verdict: no\nrationale: statement already matches the code\n"
        )
        assert verdict.confirmed is False
        assert "already matches" in verdict.rationale

    def test_multiline_semantics(self):
        verdict = parse_checker_reply(
            "VERDICT: YES\nRATIONALE: r\nSEMANTICS: first line\nsecond line"
        )
        assert verdict.semantic_notes == "first line\nsecond line"

    def test_missing_verdict(self):
        with pytest.raises(MalformedReply):
            parse_checker_reply("RATIONALE: no verdict given")

    def test_contradictory_verdicts(self):
        with pytest.raises(MalformedReply):
            parse_checker_reply("VERDICT: YES\nVERDICT: NO\nRATIONALE: r")

    def test_rejection_requires_rationale(self):
        with pytest.raises(MalformedReply):
            parse_checker_reply("VERDICT: NO")
        with pytest.raises(ValueError):
            CheckerVerdict(confirmed=False, rationale="  ",
                           semantic_notes="")


class TestUpdaterPrompt:
    def test_contains_exemplars_and_target(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        verdict = CheckerVerdict(True, "r", "closes a channel")
        exemplars = make_changes(n=2)
        prompt = build_updater_prompt(stmts[0], ctx,
                                      DefectLabel.STATEMENT_CODE,
                                      verdict, exemplars)
        assert "Example 1 (before -> after):" in prompt
        assert 'Before: log.info("before 0");' in prompt
        assert 'After:  log.info("after 0");' in prompt
        assert "Example 2" in prompt
        assert f"Target statement:\n{stmts[0].raw_text}" in prompt
        assert "closes a channel" in prompt

    def test_empty_exemplars_note(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        verdict = CheckerVerdict(True, "rationale only", "")
        prompt = build_updater_prompt(stmts[0], ctx, DefectLabel.READABILITY,
                                      verdict, ())
        assert "No examples available." in prompt
        # With no semantics line, the rationale stands in for it.
        assert "rationale only" in prompt

    def test_requires_confirmed_verdict(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        verdict = CheckerVerdict(False, "not a defect", "")
        with pytest.raises(ValueError):
            build_updater_prompt(stmts[0], ctx, DefectLabel.READABILITY,
                                 verdict)


class TestParseUpdaterReply:
    def test_valid_reply_keeps_identity_fields(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        original = stmts[0]
        updated = parse_updater_reply(
            'text before <UPDATED>  LOG.debug("channel {} opened", '
            'remoteAddr);  </UPDATED> text after',
            original,
        )
        assert updated.raw_text == 'LOG.debug("channel {} opened", remoteAddr);'
        assert updated.location == original.location
        assert updated.method_id == original.method_id
        assert updated.id == statement_id(
            original.location.path, original.location.start_line,
            original.location.end_line, updated.raw_text,
        )
        assert updated.id != original.id

    def test_missing_sentinels(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        with pytest.raises(MalformedReply):
            parse_updater_reply("here is the fix: log.info(...)", stmts[0])

    def test_non_statement_content(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        with pytest.raises(NotALoggingStatement):
            parse_updater_reply("<UPDATED>return count + 1;</UPDATED>",
                                stmts[0])


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------
class TestRunPipeline:
    def test_non_defect_short_circuits(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend()
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.NON_DEFECT),
                              make_pool(), backend)
        assert result.predicted_label is DefectLabel.NON_DEFECT
        assert result.checker_confirmed is False
        assert result.updated_statement is None
        assert result.exemplars == ()
        assert result.diagnostics == ("backend-calls:0",)
        assert backend.calls == []

    def test_happy_path_two_calls(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend()
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend)
        assert result.predicted_label is DefectLabel.STATEMENT_CODE
        assert result.confidence == 0.9
        assert result.checker_confirmed is True
        assert result.checker_rationale
        assert result.checker_semantics
        assert len(result.exemplars) == 3  # default exemplar budget
        # The default mock echoes the target, so the update is the original.
        assert result.updated_statement is not None
        assert result.updated_statement.raw_text == stmts[0].raw_text
        assert result.diagnostics == ("backend-calls:2",)
        assert len(backend.calls) == 2

    def test_rejected_defect_skips_the_updater(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "VERDICT",
            "VERDICT: NO\nRATIONALE: message matches the code\n"
            "SEMANTICS: channel teardown\n",
        )])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend)
        assert result.checker_confirmed is False
        assert result.checker_rationale == "message matches the code"
        assert result.checker_semantics == "channel teardown"
        assert result.updated_statement is None
        assert result.exemplars == ()
        assert result.diagnostics == ("backend-calls:1",)

    def test_checker_malformed_retries_once(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[("VERDICT", "gibberish")])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.READABILITY),
                              make_pool(), backend)
        malformed = [d for d in result.diagnostics
                     if d.startswith("checker-malformed:")]
        assert len(malformed) == 2
        assert result.diagnostics[-1] == "backend-calls:2"
        assert result.checker_confirmed is False
        assert result.updated_statement is None

    def test_checker_recovers_on_second_attempt(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = QueueBackend([
            "malformed stuff",
            YES_REPLY,
            '<UPDATED>LOG.debug("channel {} opened", remoteAddr);</UPDATED>',
        ])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend, FAST)
        assert result.checker_confirmed is True
        assert result.updated_statement is not None
        assert result.updated_statement.raw_text == (
            'LOG.debug("channel {} opened", remoteAddr);'
        )
        assert sum(d.startswith("checker-malformed:")
                   for d in result.diagnostics) == 1
        assert result.diagnostics[-1] == "backend-calls:3"

    def test_checker_backend_error_stops_the_run(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = QueueBackend([BackendError("boom")])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend, FAST)
        assert result.checker_confirmed is False
        assert result.updated_statement is None
        assert any(d.startswith("backend-error:") for d in result.diagnostics)
        assert result.diagnostics[-1] == "backend-calls:1"

    def test_updater_backend_error_keeps_checker_output(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = QueueBackend([YES_REPLY, BackendError("boom")])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend, FAST)
        assert result.checker_confirmed is True
        assert result.checker_semantics
        assert len(result.exemplars) == 3
        assert result.updated_statement is None
        assert any(d.startswith("backend-error:") for d in result.diagnostics)
        assert result.diagnostics[-1] == "backend-calls:2"

    def test_updater_invalid_statement_is_not_retried(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "<UPDATED>", "<UPDATED>this is prose, not code</UPDATED>",
        )])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend)
        assert result.checker_confirmed is True
        assert result.updated_statement is None
        assert sum(d.startswith("updater-invalid:")
                   for d in result.diagnostics) == 1
        assert result.diagnostics[-1] == "backend-calls:2"

    def test_updater_malformed_retries_once(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[("<UPDATED>", "no sentinels here")])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend)
        assert result.updated_statement is None
        assert sum(d.startswith("updater-malformed:")
                   for d in result.diagnostics) == 2
        assert result.diagnostics[-1] == "backend-calls:3"

    def test_structural_mismatch_is_flagged_but_kept(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[(
            "<UPDATED>",
            '<UPDATED>LOG.debug("channel {} closed {}", remoteAddr);'
            "</UPDATED>",
        )])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend)
        assert result.updated_statement is not None
        assert result.updated_statement.arity_mismatch is True
        assert any(d.startswith("structural-mismatch:")
                   for d in result.diagnostics)

    def test_empty_exemplar_pool_is_survivable(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend()
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.TEMPORAL),
                              build_pool([]), backend)
        assert "empty-exemplar-pool" in result.diagnostics
        assert result.exemplars == ()
        assert result.updated_statement is not None
        prompt = backend.calls[-1]
        assert "No examples available." in prompt

    def test_project_scoped_label_uses_own_project_only(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)  # project "proj"
        pool = build_pool(make_changes(project="proj", n=2)
                          + make_changes(project="other", n=5))
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.READABILITY),
                              pool, MockBackend())
        assert result.exemplars
        assert all(e.project_id == "proj" for e in result.exemplars)

    def test_never_raises_even_on_unexpected_backend_reply(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = QueueBackend([YES_REPLY, "", "", ""])
        result = run_pipeline(ctx, stmts[0],
                              detected(DefectLabel.STATEMENT_CODE),
                              make_pool(), backend, FAST)
        assert result.updated_statement is None
        assert result.diagnostics[-1].startswith("backend-calls:")


class TestRunPipelineBatch:
    @staticmethod
    def make_items():
        sources = [
            CHANNEL_SOURCE,
            "class A {\n    void a() {\n"
            '        log.info("loading {} entries", n);\n    }\n}\n',
            "class B {\n    void b() {\n"
            '        log.warn("retry {} failed", attempt);\n    }\n}\n',
        ]
        items = []
        for i, source in enumerate(sources):
            ctx, stmts = single_method(source, path=f"S{i}.java")
            items.append((ctx, stmts[0],
                          detected(DefectLabel.STATEMENT_CODE)))
        return items

    def test_order_matches_input(self):
        items = self.make_items()
        results = run_pipeline_batch(items, make_pool(), MockBackend())
        assert [r.sample.target.id for r in results] == [
            stmt.id for _, stmt, _ in items
        ]

    def test_parallel_equals_serial(self):
        items = self.make_items()
        pool = make_pool()
        serial = run_pipeline_batch(items, pool, MockBackend(),
                                    RepairConfig(workers=1))
        parallel = run_pipeline_batch(items, pool, MockBackend(),
                                      RepairConfig(workers=4))
        assert ([result_to_dict(r) for r in serial]
                == [result_to_dict(r) for r in parallel])

    def test_mock_backend_is_never_throttled(self):
        items = self.make_items()
        config = RepairConfig(min_request_interval=30.0)
        started = time.perf_counter()
        results = run_pipeline_batch(items, make_pool(), MockBackend(),
                                     config)
        assert len(results) == 3
        assert time.perf_counter() - started < 5.0


class TestRateLimiter:
    def test_enforces_spacing(self):
        limiter = _RateLimiter(0.05)
        started = time.perf_counter()
        for _ in range(3):
            limiter.wait()
        # First call is free; the next two wait 0.05 each.
        assert time.perf_counter() - started >= 0.09

    def test_zero_interval_is_free(self):
        limiter = _RateLimiter(0.0)
        started = time.perf_counter()
        for _ in range(100):
            limiter.wait()
        assert time.perf_counter() - started < 0.5

    def test_selection_by_backend_kind(self):
        class UnlimitedQueue(QueueBackend):
            rate_limited = False

        config = RepairConfig()
        assert isinstance(_limiter_for(MockBackend(), config), _NullLimiter)
        assert isinstance(_limiter_for(HttpBackend("http://localhost", "m"),
                                       config), _RateLimiter)
        assert isinstance(_limiter_for(QueueBackend([]), config),
                          _RateLimiter)
        # The class attribute decides, not the backend's type.
        assert isinstance(_limiter_for(UnlimitedQueue([]), config),
                          _NullLimiter)
