"""Tests for the completion backends: mock transcripts and HTTP transport."""
from __future__ import annotations

import json
import threading

import pytest
import requests

from logfix.backends import (
    BackendError,
    HttpBackend,
    LlmBackend,
    MockBackend,
    TOKEN_ENV_VAR,
    load_transcript,
)


class TestMockBackend:
    def test_satisfies_the_backend_protocol(self):
        assert isinstance(MockBackend(), LlmBackend)
        assert MockBackend().name == "mock"
        assert MockBackend().rate_limited is False

    def test_updater_prompts_echo_the_target_line(self):
        backend = MockBackend()
        prompt = (
            "Rewrite the statement between <UPDATED> and </UPDATED>.\n"
            "Target statement:\n"
            'log.info("hello {}", name);\n'
        )
        reply = backend.complete(prompt)
        assert reply == '<UPDATED>log.info("hello {}", name);</UPDATED>'

    def test_checker_prompts_get_a_yes_verdict(self):
        reply = MockBackend().complete("... reply with VERDICT: ...")
        assert reply.startswith("VERDICT: YES")
        assert "RATIONALE:" in reply
        assert "SEMANTICS:" in reply

    def test_unrecognized_prompts_get_ok(self):
        assert MockBackend().complete("tell me a story") == "OK"

    def test_transcript_first_match_wins(self):
        backend = MockBackend(transcript=[
            ("worker", "first"),
            ("worker thread", "second"),
        ])
        assert backend.complete("the worker thread died") == "first"

    def test_transcript_patterns_span_lines(self):
        backend = MockBackend(transcript=[("alpha.*omega", "matched")])
        assert backend.complete("alpha\nbeta\nomega") == "matched"

    def test_unmatched_prompt_falls_through_to_heuristics(self):
        backend = MockBackend(transcript=[("never-present", "scripted")])
        reply = backend.complete("... VERDICT please ...")
        assert reply.startswith("VERDICT: YES")

    def test_calls_are_recorded_in_order(self):
        backend = MockBackend()
        backend.complete("one")
        backend.complete("two")
        assert backend.calls == ["one", "two"]

    def test_concurrent_calls_are_all_recorded(self):
        backend = MockBackend()
        threads = [
            threading.Thread(target=backend.complete, args=(f"p{i}",))
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(backend.calls) == sorted(f"p{i}" for i in range(16))


class TestTranscriptFiles:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "transcript.json"
        entries = [
            {"pattern": "VERDICT", "reply": "VERDICT: NO\nRATIONALE: fine\n"},
            {"pattern": "rewrite", "reply": "<UPDATED>x</UPDATED>"},
        ]
        path.write_text(json.dumps(entries), encoding="utf-8")
        transcript = load_transcript(str(path))
        assert transcript == [
            ("VERDICT", "VERDICT: NO\nRATIONALE: fine\n"),
            ("rewrite", "<UPDATED>x</UPDATED>"),
        ]
        backend = MockBackend(transcript=transcript)
        assert backend.complete("give a VERDICT").startswith("VERDICT: NO")


class TestHttpBackend:
    def test_missing_token_raises_without_any_request(self, monkeypatch):
        monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("no HTTP request may be sent without a token")

        monkeypatch.setattr(requests, "post", forbidden)
        backend = HttpBackend(endpoint="https://example.invalid/v1", model="m")
        with pytest.raises(BackendError, match=TOKEN_ENV_VAR):
            backend.complete("hello")

    def test_request_payload_and_token_header(self, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        seen = {}

        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": "the reply"}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers,
                        timeout=timeout)
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        backend = HttpBackend(
            endpoint="https://example.invalid/v1/chat", model="m-1",
            timeout_seconds=9.0,
        )
        reply = backend.complete("the prompt", max_output_tokens=128,
                                 temperature=0.3)
        assert reply == "the reply"
        assert seen["url"] == "https://example.invalid/v1/chat"
        assert seen["headers"] == {"Authorization": "Bearer sekrit"}
        assert seen["timeout"] == 9.0
        assert seen["payload"]["model"] == "m-1"
        assert seen["payload"]["max_tokens"] == 128
        assert seen["payload"]["temperature"] == 0.3
        assert seen["payload"]["messages"] == [
            {"role": "user", "content": "the prompt"}
        ]

    def test_transport_failure_becomes_backend_error(self, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")

        def fake_post(*args, **kwargs):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "post", fake_post)
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        with pytest.raises(BackendError, match="request failed"):
            backend.complete("x")

    def test_malformed_body_becomes_backend_error(self, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")

        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"unexpected": "shape"}

        monkeypatch.setattr(requests, "post",
                            lambda *a, **kw: FakeResponse())
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        with pytest.raises(BackendError, match="malformed"):
            backend.complete("x")

    def test_protocol_conformance(self):
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        assert isinstance(backend, LlmBackend)
        assert backend.rate_limited is True
