"""LLM backend contract plus the two shipped implementations.

MockBackend replays canned (prompt-pattern -> reply) transcripts and falls
back to deterministic heuristics, so the whole pipeline runs offline and
byte-reproducibly. HttpBackend talks to a chat-completion style endpoint;
the bearer token comes from the LOGFIX_LLM_TOKEN environment variable, never
from config files or flags.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import astuple, dataclass
from typing import Protocol, runtime_checkable

import requests

from .model import from_dict

TOKEN_ENV_VAR = "LOGFIX_LLM_TOKEN"
# Seconds between the starts of two requests from one HttpBackend.
MIN_REQUEST_INTERVAL = 0.5


class BackendError(Exception):
    """Transport-level failure talking to a completion backend."""


@runtime_checkable
class LlmBackend(Protocol):
    name: str

    def complete(self, prompt: str) -> str:
        ...


@dataclass(frozen=True)
class TranscriptEntry:
    pattern: str  # a regex searched for in the prompt
    reply: str


def load_transcript(path: str) -> list[tuple[str, str]]:
    """A transcript file is a JSON list of TranscriptEntry objects."""
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if type(entries) is not list:
        raise ValueError(f"transcript {path!r} must be a list of "
                         f"TranscriptEntry objects")
    return [astuple(from_dict(TranscriptEntry, e)) for e in entries]


_TARGET_LINE_RE = re.compile(r"Target statement:\s*\n(.+)")


class MockBackend:
    """Deterministic stand-in for a real model.

    The first transcript pattern that matches the prompt wins. Unmatched
    prompts get heuristic replies: checker prompts are confirmed, updater
    prompts echo the target statement back between the sentinels. That keeps
    an unscripted pipeline run structurally complete; tests script the
    interesting behaviors.
    """

    name = "mock"

    def __init__(self, transcript: list[tuple[str, str]] | None = None):
        self.transcript = [(re.compile(p, re.DOTALL), r)
                           for p, r in (transcript or [])]
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self._lock:
            self.calls.append(prompt)
        for pattern, reply in self.transcript:
            if pattern.search(prompt):
                return reply
        if "<UPDATED>" in prompt:
            m = _TARGET_LINE_RE.search(prompt)
            line = m.group(1).strip() if m else ""
            return f"<UPDATED>{line}</UPDATED>"
        if "VERDICT" in prompt:
            return ("VERDICT: YES\n"
                    "RATIONALE: The statement does not match its context.\n"
                    "SEMANTICS: The statement should describe what the "
                    "surrounding code actually does at this point.")
        return "OK"


class HttpBackend:
    """Minimal chat-completion client (OpenAI-style request/response shape).

    Requests start at least MIN_REQUEST_INTERVAL seconds apart, across all
    threads that share the instance; the first one is not delayed.
    """

    name = "http"

    def __init__(self, endpoint: str, model: str,
                 timeout_seconds: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.timeout_seconds = timeout_seconds
        self._pace_lock = threading.Lock()
        self._next_at = 0.0

    def _pace(self) -> None:
        # Waiting under the lock queues the threads, and the next slot is
        # taken from the clock after the wait, so starts keep the interval
        # even when a sleep overshoots.
        with self._pace_lock:
            delay = self._next_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._next_at = time.monotonic() + MIN_REQUEST_INTERVAL

    def complete(self, prompt: str) -> str:
        token = os.environ.get(TOKEN_ENV_VAR, "")
        if not token:
            raise BackendError(
                f"no API token: set the {TOKEN_ENV_VAR} environment variable")
        self._pace()
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "max_tokens": 512,
            "temperature": 0.0,
        }
        try:
            resp = requests.post(
                self.endpoint,
                json=payload,
                headers={"Authorization": f"Bearer {token}"},
                timeout=self.timeout_seconds,
            )
            resp.raise_for_status()
            body = resp.json()
            return body["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
            raise BackendError(f"backend request failed: {exc}") from exc
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
