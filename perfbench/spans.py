"""In-memory span tracing of logfix's layers, from outside the program.

The tracer replaces functions at the module attributes their callers look up
(``logfix.repair.select_exemplars``, ``logfix.detector.tokenize``, ...) with
wrappers that record one span per call: name, start, end and the span that
was open on the same thread when the call began. ``fix`` runs its pipeline
on a thread pool, so the open-span stack is thread-local.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording a span per call; `observe(result)` sees each
        return value."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
            if observe is not None:
                observe(result)
            return result
        return traced

    def patch(self, target: str, attr: str, name: str, observe=None) -> bool:
        """Wrap `target.attr`, where `target` names a module ("logfix.cli")
        or a class in one ("logfix.backends:MockBackend"). Returns False
        when this version of logfix has no such attribute."""
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        if class_name:
            owner = getattr(owner, class_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            return False
        setattr(owner, attr, self.wrap(name, fn, observe))
        return True

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def self_time(self, name: str) -> float:
        """Time in `name` spans not covered by their direct child spans."""
        ids = {s.span_id for s in self.spans if s.name == name}
        covered = sum(s.seconds for s in self.spans if s.parent in ids)
        return self.total(name) - covered


def percentile_ms(values: list[float], q: int) -> float:
    """The q-th percentile of durations in seconds, in ms; 0 without data."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


class _TimedSubprocess:
    """Stand-in for the ``subprocess`` module inside ``logfix.mining``: the
    same module, with ``run`` traced so that git I/O shows as its own span."""

    def __init__(self, tracer: Tracer) -> None:
        self.run = tracer.wrap("mining.git", subprocess.run)

    def __getattr__(self, name: str):
        return getattr(subprocess, name)


# (owner, attribute, span name). Several owners of one function share a span
# name; each call goes through exactly one of them.
PATCH_POINTS = (
    ("logfix.cli", "extract_file", "parser.extract_file"),
    ("logfix.mining", "extract_file", "parser.extract_file"),
    ("logfix.repair", "parse_statement_text", "parser.parse_statement_text"),
    ("logfix.synthesis", "parse_statement_text", "parser.parse_statement_text"),
    ("logfix.tokenization", "split_tokens", "tokenization.split_tokens"),
    ("logfix.retrieval", "split_tokens", "tokenization.split_tokens"),
    ("logfix.metrics", "split_tokens", "tokenization.split_tokens"),
    ("logfix.cli", "train", "detector.train"),
    ("logfix.detector", "loss_and_grads", "detector.loss_and_grads"),
    ("logfix.cli", "predict", "detector.predict"),
    ("logfix.repair", "predict", "detector.predict"),
    ("logfix.detector", "predict", "detector.predict"),
    ("logfix.cli", "load_checkpoint", "detector.load_checkpoint"),
    ("logfix.detector", "load_checkpoint", "detector.load_checkpoint"),
    ("logfix.cli", "extract_lccs", "mining.extract_lccs"),
    ("logfix.mining", "diff_lines", "mining.diff_lines"),
    ("logfix.mining:GitHistoryProvider", "commit_pairs", "mining.commit_pairs"),
    ("logfix.cli", "synthesize_corpus", "synthesis.synthesize_corpus"),
    ("logfix.synthesis", "mutate_readability", "synthesis.mutate"),
    ("logfix.synthesis", "mutate_tense", "synthesis.mutate"),
    ("logfix.synthesis", "mutate_semantic", "synthesis.mutate"),
    ("logfix.cli", "run_pipeline_batch", "repair.run_pipeline_batch"),
    ("logfix.repair", "run_pipeline", "repair.run_pipeline"),
    ("logfix.repair", "select_exemplars", "retrieval.select_exemplars"),
    ("logfix.retrieval", "build_index", "retrieval.build_index"),
    ("logfix.retrieval", "bm25_score", "retrieval.bm25_score"),
    ("logfix.backends:MockBackend", "complete", "backends.complete"),
    ("logfix.cli", "evaluate_update", "metrics.evaluate_update"),
    ("logfix.cli", "detection_metrics", "metrics.detection_metrics"),
    ("logfix.metrics", "detection_metrics", "metrics.detection_metrics"),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every patch point; returns the ones this version of logfix
    lacks, whose metrics then read 0."""
    missing = [f"{target}.{attr}" for target, attr, name in PATCH_POINTS
               if not tracer.patch(target, attr, name)]

    def truncated(seq) -> None:
        tracer.count("tokenization.truncated",
                     int(getattr(seq, "truncated", False)))

    if not tracer.patch("logfix.detector", "tokenize",
                        "tokenization.tokenize", truncated):
        missing.append("logfix.detector.tokenize")
    mining = sys.modules.get("logfix.mining")
    if mining is None or not hasattr(mining, "subprocess"):
        missing.append("logfix.mining.subprocess")
    else:
        mining.subprocess = _TimedSubprocess(tracer)
    return missing


def layer_metrics(t: Tracer, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition. `facts` holds the counts
    read from the workload's outputs: statements, defects (predicted),
    confirmed, backend_errors, empty_pool, mutants, commits and lccs."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    select = t.durations("retrieval.select_exemplars")
    pipeline = t.durations("repair.run_pipeline")
    tokenize_calls = t.calls("tokenization.tokenize")
    mutations = t.calls("synthesis.mutate")
    defects = facts.get("defects", 0)
    commits = facts.get("commits", 0)
    metrics = {
        "retrieval.select_exemplars.s": sum(select),
        "retrieval.select_exemplars.calls": len(select),
        "retrieval.select_exemplars.p50_ms": percentile_ms(select, 50),
        "retrieval.select_exemplars.p95_ms": percentile_ms(select, 95),
        "retrieval.build_index.s": t.total("retrieval.build_index"),
        "retrieval.builds_per_query": ratio(
            t.calls("retrieval.build_index"), len(select)),
        "retrieval.bm25_score.calls": t.calls("retrieval.bm25_score"),
        "retrieval.empty_pool": facts.get("empty_pool", 0),
        "tokenization.truncated_ratio": ratio(
            t.counts.get("tokenization.truncated", 0), tokenize_calls),
        "detector.train.self_s": t.self_time("detector.train"),
        "detector.predict_per_statement": ratio(
            t.calls("detector.predict"), facts.get("statements", 0)),
        "detector.load_checkpoint.s": t.total("detector.load_checkpoint"),
        "mining.commit_pairs.s": t.total("mining.commit_pairs"),
        "mining.git_ms_per_commit": ratio(t.total("mining.git") * 1e3, commits),
        "mining.extract_lccs.self_s": t.self_time("mining.extract_lccs"),
        "mining.diff_lines.s": t.total("mining.diff_lines"),
        "mining.lcc_yield": ratio(facts.get("lccs", 0), commits),
        "synthesis.synthesize_corpus.s": t.total("synthesis.synthesize_corpus"),
        "synthesis.mutation_calls": mutations,
        "synthesis.accept_ratio": ratio(facts.get("mutants", 0), mutations),
        "repair.run_pipeline.self_s": t.self_time("repair.run_pipeline"),
        "repair.run_pipeline.p50_ms": percentile_ms(pipeline, 50),
        "repair.run_pipeline.p95_ms": percentile_ms(pipeline, 95),
        "repair.confirmed_ratio": ratio(facts.get("confirmed", 0), defects),
        "backends.calls_per_defect": ratio(t.calls("backends.complete"), defects),
        "backends.errors": facts.get("backend_errors", 0),
        "metrics.evaluate_update.s": t.total("metrics.evaluate_update"),
        "metrics.detection_metrics.s": t.total("metrics.detection_metrics"),
        "trace.spans": len(t.spans),
    }
    for name in ("tokenization.split_tokens", "tokenization.tokenize",
                 "detector.loss_and_grads", "detector.predict",
                 "parser.extract_file", "parser.parse_statement_text",
                 "backends.complete"):
        metrics[f"{name}.s"] = t.total(name)
        metrics[f"{name}.calls"] = t.calls(name)
    return metrics
