"""Tests for the completion backends: mock transcripts and HTTP transport."""
from __future__ import annotations

import json
import sys
import threading
import time

import pytest
import requests

from logfix import backends
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


class NullContentResponse:
    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"role": "assistant",
                                         "content": None}}]}


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
        reply = backend.complete("the prompt")
        assert reply == "the reply"
        assert seen["url"] == "https://example.invalid/v1/chat"
        assert seen["headers"] == {"Authorization": "Bearer sekrit"}
        assert seen["timeout"] == 9.0
        assert seen["payload"]["model"] == "m-1"
        assert seen["payload"]["max_tokens"] == 512
        assert seen["payload"]["temperature"] == 0.0
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

    def test_null_content_becomes_backend_error(self, monkeypatch):
        # OpenAI-style endpoints send null content for refusals and tool
        # calls
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        monkeypatch.setattr(requests, "post",
                            lambda *a, **kw: NullContentResponse())
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        with pytest.raises(BackendError, match="malformed backend response: "
                           "message content is None, not text"):
            backend.complete("x")

    def test_protocol_conformance(self):
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        assert isinstance(backend, LlmBackend)


class OkResponse:
    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": "ok"}}]}


def forbidden_sleep(seconds):  # pragma: no cover - must not run
    raise AssertionError(f"unexpected wait of {seconds} s")


class TestHttpBackendPacing:
    """Request slots are spaced MIN_REQUEST_INTERVAL apart per instance and
    each request is sent after its slot; the patched `requests.post`
    records when each request is sent."""

    @pytest.fixture
    def starts(self, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
        recorded: list[float] = []
        lock = threading.Lock()

        def fake_post(*args, **kwargs):
            with lock:
                recorded.append(time.monotonic())
            return OkResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        return recorded

    def test_enforces_spacing(self, monkeypatch, starts):
        interval = 0.2
        monkeypatch.setattr(backends, "MIN_REQUEST_INTERVAL", interval)
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        # The slot each request takes, recorded before the pacing lock is
        # released: a thread may be descheduled between its slot and its
        # post, so the post times themselves can be closer than the interval.
        slots: list[float] = []
        lock = backend._pace_lock

        class RecordingLock:
            def __enter__(self):
                return lock.__enter__()

            def __exit__(self, *exc_info):
                slots.append(backend._next_at - interval)
                return lock.__exit__(*exc_info)

        backend._pace_lock = RecordingLock()
        began = time.monotonic()
        threads = [
            threading.Thread(target=lambda n=n: [backend.complete("p")
                                                 for _ in range(n)])
            for n in (1, 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(starts) == len(slots) == 3
        # The first request is not delayed; each later one waits its turn.
        assert slots[0] - began < interval / 2
        assert slots[1] - slots[0] >= interval
        assert slots[2] - slots[1] >= interval
        assert all(sent >= slot for sent, slot in zip(sorted(starts), slots))

    def test_many_threads_share_one_schedule(self, monkeypatch, starts):
        interval = 0.01
        monkeypatch.setattr(backends, "MIN_REQUEST_INTERVAL", interval)
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        barrier = threading.Barrier(8)

        def calls():
            barrier.wait(timeout=10)
            for _ in range(5):
                backend.complete("p")

        threads = [threading.Thread(target=calls) for _ in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(starts) == 40
        starts.sort()
        # A lost update of the schedule would let two requests start
        # together; half the interval leaves room for scheduling jitter.
        assert min(b - a for a, b in zip(starts, starts[1:])) >= interval / 2

    def test_zero_interval_is_free(self, monkeypatch, starts):
        monkeypatch.setattr(backends, "MIN_REQUEST_INTERVAL", 0.0)
        monkeypatch.setattr(time, "sleep", forbidden_sleep)
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        for _ in range(100):
            backend.complete("p")
        assert len(starts) == 100

    def test_missing_token_raises_before_any_wait(self, monkeypatch, starts):
        monkeypatch.setattr(backends, "MIN_REQUEST_INTERVAL", 30.0)
        monkeypatch.setattr(time, "sleep", forbidden_sleep)
        backend = HttpBackend(endpoint="https://example.invalid", model="m")
        backend.complete("first")  # the next slot is now 30 s away
        monkeypatch.delenv(TOKEN_ENV_VAR)
        with pytest.raises(BackendError, match=TOKEN_ENV_VAR):
            backend.complete("second")
        assert len(starts) == 1

    def test_instances_are_paced_separately(self, monkeypatch, starts):
        monkeypatch.setattr(backends, "MIN_REQUEST_INTERVAL", 30.0)
        monkeypatch.setattr(time, "sleep", forbidden_sleep)
        for _ in range(3):
            HttpBackend(endpoint="https://example.invalid",
                        model="m").complete("p")
        assert len(starts) == 3
