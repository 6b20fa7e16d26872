"""Shared test fixtures: bundled source corpora, small construction helpers,
and one session-scoped trained detector reused by the training-dependent
tests (training it once keeps the suite fast)."""

from __future__ import annotations

import random
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import pytest

from logfix import repair
from logfix.detector import ClassifierHead, EncoderModel, TrainConfig, train
from logfix.model import (
    DefectLabel,
    LabeledSample,
    LogCentricChange,
    LoggingStatement,
    MethodContext,
    Provenance,
    ProvenanceKind,
    SourceLocation,
)
from logfix.parser import ParsedStatement, extract_file, parse_statement_text
from logfix.synthesis import synthesize_corpus

FIXTURES = Path(__file__).parent / "fixtures"
CLEAN_DIR = FIXTURES / "clean"
JAVA_DIR = FIXTURES / "java"
E2E_DIR = FIXTURES / "e2e"
E2E_SRC_DIR = E2E_DIR / "src"
E2E_TRUTH = E2E_DIR / "truth.jsonl"
HISTORY_DIR = FIXTURES / "history"

CLEAN_PROJECT = "clean-corpus"
CORPUS_SEED = 0
PER_TYPE = 500
# Learning rate tuned on the bundled synthetic corpus: every rate in the
# 1e-3..5e-3 band reaches a perfect validation F1 by epoch 4; 3e-3 sits in
# the middle of that band.
TUNED_CONFIG = TrainConfig(learning_rate=3e-3)


_FUZZ_FRAGMENTS = ['{', '}', '(', ')', '"', "'", ';', '\\', '\n', '\t',
                   ' ', '/*', '*/', '//', 'log.info', 'LOG', 'class',
                   'void', 'try', '{}', 'é', '€', '\x00', 'x']


def fuzz_texts(count: int, seed: int = 0) -> Iterator[str]:
    """Parser fuzz inputs: even trials join Java-ish fragments, odd trials
    are random bytes read as latin-1."""
    rng = random.Random(seed)
    for trial in range(count):
        if trial % 2 == 0:
            yield ''.join(rng.choices(_FUZZ_FRAGMENTS,
                                      k=rng.randrange(0, 60)))
        else:
            yield bytes(rng.randrange(256)
                        for _ in range(rng.randrange(0, 160))
                        ).decode('latin-1')


def load_clean_samples() -> list[LabeledSample]:
    """Every statement of the bundled clean corpus as a NON_DEFECT sample."""
    samples: list[LabeledSample] = []
    for path in sorted(CLEAN_DIR.glob("*.java")):
        source = path.read_text(encoding="utf-8")
        result = extract_file(source, path.name, None, CLEAN_PROJECT)
        assert not result.errors, (path, result.errors)
        for ctx, parsed in result.records:
            for p in parsed:
                samples.append(LabeledSample(
                    context=ctx,
                    target=p.statement,
                    label=DefectLabel.NON_DEFECT,
                    provenance=Provenance(kind=ProvenanceKind.WELL_MAINTAINED),
                ))
    return samples


def parsed_of(raw: str) -> ParsedStatement:
    parsed = parse_statement_text(raw)
    assert parsed is not None, f"not a logging statement: {raw!r}"
    return parsed


def statement_of(raw: str) -> LoggingStatement:
    return parsed_of(raw).statement


def single_method(source: str, path: str = "Test.java",
                  project: str = "proj") -> tuple[MethodContext, list[LoggingStatement]]:
    """Extract a source snippet that holds exactly one logging method."""
    result = extract_file(source, path, None, project)
    assert not result.errors, result.errors
    assert len(result.records) == 1, [c.qualified_name
                                      for c, _ in result.records]
    ctx, parsed = result.records[0]
    return ctx, [p.statement for p in parsed]


def make_change(project: str, commit: str, before_raw: str,
                after_raw: str) -> LogCentricChange:
    """A minimal historical change wrapping two statement texts."""
    before = statement_of(before_raw)
    after = statement_of(after_raw)
    context = MethodContext(
        method_id="",
        project_id=project,
        qualified_name="Holder.act",
        source_text=f"void act() {{\n    {after_raw}\n}}",
        statement_ids=(after.id,),
        location=SourceLocation("<text>", 1, 3),
    )
    return LogCentricChange(project_id=project, commit_id=commit,
                            before=before, after=after, context=context)


@dataclass
class TrainedState:
    clean: list[LabeledSample]
    corpus: list[LabeledSample]
    config: TrainConfig
    model: EncoderModel
    head: ClassifierHead
    history: list[dict]
    synthesis_seconds: float
    train_seconds: float


@pytest.fixture(scope="session")
def clean_samples() -> list[LabeledSample]:
    return load_clean_samples()


@pytest.fixture(scope="session")
def trained_state(clean_samples: list[LabeledSample]) -> TrainedState:
    """Synthesize the full defect corpus and train the classifier once."""
    t0 = time.perf_counter()
    mutants = synthesize_corpus(clean_samples, PER_TYPE, seed=CORPUS_SEED)
    t1 = time.perf_counter()
    corpus = clean_samples + mutants
    model, head, history = train(corpus, TUNED_CONFIG)
    t2 = time.perf_counter()
    return TrainedState(
        clean=clean_samples,
        corpus=corpus,
        config=TUNED_CONFIG,
        model=model,
        head=head,
        history=history,
        synthesis_seconds=t1 - t0,
        train_seconds=t2 - t1,
    )


@pytest.fixture(scope="session")
def small_corpus(clean_samples: list[LabeledSample]) -> list[LabeledSample]:
    """A 35-sample corpus for fast training-path tests."""
    base = clean_samples[:15]
    return base + synthesize_corpus(base, 5, seed=1)


SMALL_CONFIG = TrainConfig(learning_rate=3e-3, epochs=2, dim=16,
                           vocab_size=256, batch_size=8)


@pytest.fixture
def executor_record(monkeypatch) -> dict:
    """Counts the executors the repair pipeline starts, and lists the
    statements submitted to them in submission order."""
    record = {"executors": 0, "submitted": []}

    class Recording(repair.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            record["executors"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            record["submitted"].append(args[0].statement)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(repair, "ThreadPoolExecutor", Recording)
    return record
