"""Tests for the two-role repair flow: prompts, reply parsing, and the
never-raising pipeline."""
from __future__ import annotations

import string
import threading
import time

import pytest
import requests

from conftest import make_change, single_method
from logfix.backends import (
    TOKEN_ENV_VAR,
    BackendError,
    HttpBackend,
    MockBackend,
)
from logfix.model import (
    DefectLabel,
    Detection,
    statement_id,
    to_dict,
)
from logfix.repair import (
    CHECKER_TEMPLATE,
    CheckerVerdict,
    MalformedReply,
    NotALoggingStatement,
    RepairConfig,
    UPDATER_TEMPLATE,
    build_checker_prompt,
    build_updater_prompt,
    defect_definition,
    parse_checker_reply,
    parse_tagged_reply,
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

YES_REPLY = (
    "VERDICT: YES\n"
    "RATIONALE: the message contradicts the code\n"
    "SEMANTICS: the method tears a channel down\n"
)


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

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
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
        def slots(template):
            return {name for _, name, _, _ in string.Formatter().parse(template)
                    if name}

        assert slots(CHECKER_TEMPLATE) == {
            "defect_type", "defect_definition", "context", "statement",
        }
        assert slots(UPDATER_TEMPLATE) == {
            "defect_type", "checker_output", "context", "exemplars",
            "statement",
        }


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
        assert "Reply with exactly three labeled lines:" in prompt

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
        updated = parse_tagged_reply(
            'text before <UPDATED>  LOG.debug("channel {} opened", '
            'remoteAddr);  </UPDATED> text after',
            "UPDATED", original,
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
            parse_tagged_reply("here is the fix: log.info(...)", "UPDATED",
                               stmts[0])

    def test_non_statement_content(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        with pytest.raises(NotALoggingStatement):
            parse_tagged_reply("<UPDATED>return count + 1;</UPDATED>",
                               "UPDATED", stmts[0])

    def test_only_the_requested_tag_is_read(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        reply = '<MUTATED>LOG.debug("channel {} opened", remoteAddr);</MUTATED>'
        with pytest.raises(MalformedReply, match="<UPDATED>"):
            parse_tagged_reply(reply, "UPDATED", stmts[0])
        mutated = parse_tagged_reply(reply, "MUTATED", stmts[0])
        assert mutated.raw_text == 'LOG.debug("channel {} opened", remoteAddr);'



# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------
class TestRunPipeline:
    def test_non_defect_short_circuits(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend()
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.NON_DEFECT, 0.9),
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.READABILITY, 0.9),
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), backend)
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), backend)
        assert result.checker_confirmed is False
        assert result.updated_statement is None
        assert any(d.startswith("backend-error:") for d in result.diagnostics)
        assert result.diagnostics[-1] == "backend-calls:1"

    def test_null_http_content_is_a_backend_error(self, monkeypatch):
        # an OpenAI-style refusal: the reply's content is null
        class NullContent:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": None}}]}

        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        monkeypatch.setattr(requests, "post", lambda *a, **kw: NullContent())
        ctx, stmts = single_method(CHANNEL_SOURCE)
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), HttpBackend("https://example.invalid", "m"))
        assert result.checker_confirmed is False
        assert result.updated_statement is None
        assert result.diagnostics == (
            "backend-error:malformed backend response: message content is "
            "None, not text", "backend-calls:1")

    def test_updater_backend_error_keeps_checker_output(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = QueueBackend([YES_REPLY, BackendError("boom")])
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), backend)
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), backend)
        assert result.checker_confirmed is True
        assert result.updated_statement is None
        assert sum(d.startswith("updater-invalid:")
                   for d in result.diagnostics) == 1
        assert result.diagnostics[-1] == "backend-calls:2"

    def test_updater_malformed_retries_once(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend(transcript=[("<UPDATED>", "no sentinels here")])
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), backend)
        assert result.updated_statement is not None
        assert result.updated_statement.arity_mismatch is True
        assert any(d.startswith("structural-mismatch:")
                   for d in result.diagnostics)

    def test_empty_exemplar_pool_is_survivable(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = MockBackend()
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.TEMPORAL, 0.9),
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
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.READABILITY, 0.9),
            pool, MockBackend())
        assert result.exemplars
        assert all(e.project_id == "proj" for e in result.exemplars)

    def test_never_raises_even_on_unexpected_backend_reply(self):
        ctx, stmts = single_method(CHANNEL_SOURCE)
        backend = QueueBackend([YES_REPLY, "", "", ""])
        result = run_pipeline(
            Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE, 0.9),
            make_pool(), backend)
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
            items.append(Detection(ctx, stmts[0], DefectLabel.STATEMENT_CODE,
                                   0.9))
        return items

    def test_order_matches_input(self):
        items = self.make_items()
        results = run_pipeline_batch(items, make_pool(), MockBackend())
        assert [r.sample.target.id for r in results] == [
            d.statement.id for d in items
        ]

    def test_parallel_equals_serial(self):
        items = self.make_items()
        pool = make_pool()
        serial = run_pipeline_batch(items, pool, MockBackend(),
                                    RepairConfig(workers=1))
        parallel = run_pipeline_batch(items, pool, MockBackend(),
                                      RepairConfig(workers=4))
        assert ([to_dict(r) for r in serial]
                == [to_dict(r) for r in parallel])

    def test_mock_backend_is_never_throttled(self):
        items = self.make_items()
        started = time.perf_counter()
        results = run_pipeline_batch(items, make_pool(), MockBackend())
        assert len(results) == 3
        assert time.perf_counter() - started < 5.0

    @staticmethod
    def interleaved_items():
        """Nine items whose predicted labels alternate between each defect
        type and NON_DEFECT."""
        labels = ([DefectLabel.NON_DEFECT, *DEFECT_LABELS] * 2)[:9]
        items = []
        for i, label in enumerate(labels):
            ctx, stmts = single_method(
                f"class C{i} {{\n    void m{i}(int n) {{\n"
                f'        log.info("loading {{}} entries {i}", n);\n'
                "    }\n}\n", path=f"C{i}.java")
            items.append(Detection(ctx, stmts[0], label, 0.5 + i / 100))
        return items

    def test_only_predicted_defects_reach_the_executor(self, executor_record):
        items = self.interleaved_items()
        backend = MockBackend()
        results = run_pipeline_batch(items, make_pool(), backend,
                                     RepairConfig(workers=2))
        defects = [d.statement for d in items
                   if d.predicted_label is not DefectLabel.NON_DEFECT]
        assert executor_record["executors"] == 1
        assert executor_record["submitted"] == defects and len(defects) == 7
        assert len(backend.calls) == 2 * len(defects)
        assert [r.sample.target for r in results] == [d.statement
                                                      for d in items]

    def test_no_defects_start_no_threads(self, executor_record):
        items = [Detection(d.method, d.statement, DefectLabel.NON_DEFECT, 0.9)
                 for d in self.interleaved_items()]
        threads = threading.active_count()
        backend = MockBackend()
        results = run_pipeline_batch(items, make_pool(), backend)
        assert executor_record == {"executors": 0, "submitted": []}
        assert threading.active_count() == threads
        assert backend.calls == []
        assert [r.diagnostics for r in results] == [("backend-calls:0",)] * 9
        assert run_pipeline_batch([], make_pool(), backend) == []

    def test_results_and_call_order_do_not_depend_on_workers(self):
        items = self.interleaved_items()
        pool = make_pool()
        runs = {}
        for workers in (1, 2, 4):
            backend = MockBackend()
            results = run_pipeline_batch(items, pool, backend,
                                         RepairConfig(workers=workers))
            runs[workers] = [to_dict(r) for r in results], backend.calls
        assert [r["sample"]["target"]["id"] for r in runs[1][0]] == [
            d.statement.id for d in items]
        assert runs[2][0] == runs[1][0] and runs[4][0] == runs[1][0]
        # one worker calls the backend in input order, checker then updater
        targets = [d.statement.raw_text for d in items
                   if d.predicted_label is not DefectLabel.NON_DEFECT]
        assert [c.rsplit("Target statement:\n", 1)[1].split("\n")[0]
                for c in runs[1][1]] == [t for t in targets for _ in "cu"]
