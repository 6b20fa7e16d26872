"""Byte-level pins on what the pipeline writes for the e2e fixtures and the
clean pool, and on the fix stage's use of threads over the benchmark's
audit tree.

The chain runs extract, mine, fix and evaluate with the mock backend. Fix
reads detection records made here from the truth file's labels with a fixed
confidence, so no detector (and no numpy) is in the path. Synthesis runs
over the whole clean pool, by rules alone and with a mock backend whose
transcript answers some of the semantic prompts. A change to the record
codec, the repair flow or the mutation rules that moves one byte of these
files fails here; change a digest only with a deliberate change of the file
format or of what a rule writes.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from conftest import E2E_SRC_DIR, E2E_TRUTH, HISTORY_DIR, load_clean_samples
from logfix.cli import main
from logfix.detector import TrainConfig
from logfix.model import (
    DefectLabel,
    Detection,
    LabeledSample,
    LogCentricChange,
    MethodRecord,
    UpdateResult,
    dumps_line,
    from_dict,
    read_jsonl,
    to_dict,
    write_jsonl,
    write_samples,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIDENCE = 0.75
DIGESTS = {
    "methods.jsonl":
        "765cf102a6f4409b2317e41ed99600b5ea376990dd7633bfc029575302a68b30",
    "changes.jsonl":
        "55e0d43fe1ae9c24ac20a43cfae604b2fee090089303624e60d8dcb4655d10bf",
    "results.jsonl":
        "0f04f6e36b2249951145ebcf8ce01298dd332b658d8fd9ae15e88e73d886bceb",
    "report.json":
        "ed7e80167115614bf3601d0dbaa7bfa6c2f45f0694840918cce6466063402201",
    "corpus-rules.jsonl":
        "4037538c1eb939f690ff8d6e72ebb9a60c9c519ef1b7606897ecfc827f3b980d",
    "corpus-mock.jsonl":
        "5f65eb858941c1a11823c093659bfdb1606ae5ca7edfa1f60d362c77bb8d4357",
}
# (goal, statement the prompt asks to rewrite, reply) for the mock backend:
# two usable rewrites, then a reply without tags, one that leaves the
# statement as it was and one that is no logger call, which all fall back
# to the rules.
SEMANTIC_REPLIES = (
    ("opposite action",
     'logger.trace("Loading listener {} after inbound segment {}", '
     'listenerSlot, segmentId);',
     '<MUTATED>logger.trace("Unloading listener {} after inbound segment '
     '{}", listenerSlot, segmentId);</MUTATED>'),
    ("different variable",
     'log.error("Subscribing remote bundle {} for primary executor {}", '
     'bundleKey, executorOrdinal);',
     '<MUTATED>log.error("Subscribing remote bundle {} for primary executor '
     '{}", executorOrdinal, bundleKey);</MUTATED>'),
    ("opposite action",
     'logger.warn("Registering threshold {} after online ballot {}", '
     'thresholdId, ballotCode);',
     "I would rather not."),
    ("opposite action",
     'logger.info("Registering session {} on internal manifest {}", '
     'sessionOrdinal, manifestKey);',
     '<MUTATED>logger.info("Registering session {} on internal manifest '
     '{}", sessionOrdinal, manifestKey);</MUTATED>'),
    ("different variable",
     'logger.trace("Opening cursor {} after online pipeline {}", cursorId, '
     'pipelineCode);',
     "<MUTATED>cursorId = pipelineCode;</MUTATED>"),
)


def detection_records(methods: Path, truth_path: Path) -> list[dict]:
    """A detection record for every extracted statement, labelled as the
    truth file labels it."""
    truth = {row["statement_id"]: row["label"]
             for row in read_jsonl(str(truth_path))}
    return [{"method": d["method"], "statement": stmt,
             "predicted_label": truth[stmt["id"]], "confidence": CONFIDENCE}
            for d in read_jsonl(str(methods)) for stmt in d["statements"]]


@pytest.fixture(scope="module")
def chain(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    assert main(["extract", "--root", str(E2E_SRC_DIR), "--project", "e2e",
                 "--out", str(out / "methods.jsonl")]) == 0
    assert main(["mine", "--repo", str(HISTORY_DIR), "--project", "e2e",
                 "--out", str(out / "changes.jsonl")]) == 0
    write_jsonl(str(out / "detections.jsonl"),
                detection_records(out / "methods.jsonl", E2E_TRUTH))
    for jobs in ("1", "2", "4"):
        assert main(["fix", "--in", str(out / "detections.jsonl"),
                     "--lcc", str(out / "changes.jsonl"), "--jobs", jobs,
                     "--out", str(out / f"results-{jobs}.jsonl")]) == 0
    assert main(["evaluate", "--results", str(out / "results-1.jsonl"),
                 "--truth", str(E2E_TRUTH),
                 "--out", str(out / "report.json")]) == 0
    write_samples(str(out / "clean.jsonl"), load_clean_samples()[:20])
    assert main(["synthesize", "--in", str(out / "clean.jsonl"),
                 "--out", str(out / "corpus.jsonl"), "--per-type", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpora")
    write_samples(str(out / "pool.jsonl"), load_clean_samples())
    transcript = [{"pattern": rf"{goal}.*Statement to rewrite:\n"
                              rf"{re.escape(stmt)}\n",
                   "reply": reply}
                  for goal, stmt, reply in SEMANTIC_REPLIES]
    (out / "transcript.json").write_text(json.dumps(transcript),
                                         encoding="utf-8")
    (out / "config.json").write_text(json.dumps(
        {"backend": {"transcript": str(out / "transcript.json")}}),
        encoding="utf-8")
    synthesize = ["synthesize", "--in", str(out / "pool.jsonl"),
                  "--per-type", "50"]
    assert main([*synthesize, "--out", str(out / "corpus-rules.jsonl")]) == 0
    assert main([*synthesize, "--out", str(out / "corpus-mock.jsonl"),
                 "--llm", "--config", str(out / "config.json")]) == 0
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_their_digests(chain):
    assert sha256(chain / "methods.jsonl") == DIGESTS["methods.jsonl"]
    assert sha256(chain / "changes.jsonl") == DIGESTS["changes.jsonl"]
    for jobs in ("1", "2", "4"):
        assert (sha256(chain / f"results-{jobs}.jsonl")
                == DIGESTS["results.jsonl"]), jobs
    assert sha256(chain / "report.json") == DIGESTS["report.json"]


def test_corpora_match_their_digests(corpora):
    for name in ("corpus-rules.jsonl", "corpus-mock.jsonl"):
        assert sha256(corpora / name) == DIGESTS[name], name


def test_the_mock_corpus_holds_the_transcript_rewrites(corpora):
    def targets(name):
        return {d["target"]["raw_text"]
                for d in read_jsonl(str(corpora / name))}

    written = targets("corpus-mock.jsonl") - targets("corpus-rules.jsonl")
    rewrites = {re.search("<MUTATED>(.*)</MUTATED>", reply).group(1)
                for _, _, reply in SEMANTIC_REPLIES[:2]}
    assert rewrites <= written


def test_every_record_round_trips_byte_for_byte(chain):
    def lines(name):
        return (chain / name).read_text(encoding="utf-8").splitlines()

    kinds = {"changes.jsonl": LogCentricChange,
             "detections.jsonl": Detection,
             "results-1.jsonl": UpdateResult,
             "corpus.jsonl": LabeledSample,
             "clean.jsonl": LabeledSample,
             "methods.jsonl": MethodRecord}
    for name, cls in kinds.items():
        assert lines(name), name
        for line in lines(name):
            assert dumps_line(to_dict(from_dict(cls, json.loads(line)))) \
                == line, name
    config = TrainConfig(learning_rate=3e-3, epochs=4)
    line = dumps_line(to_dict(config))
    assert dumps_line(to_dict(from_dict(TrainConfig, json.loads(line)))) \
        == line


def test_fix_on_the_audit_tree_threads_only_its_defects(
        tmp_path, executor_record):
    # The benchmark's audit input: 2,500 statements, 32 planted defects.
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", REPO_ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    sizes = inputs.make_audit(str(REPO_ROOT), str(tmp_path), 11,
                              **inputs.SIZES["full"]["audit"])
    assert (sizes["statements"], sizes["defects"]) == (2500, 32)
    methods, detections = tmp_path / "methods.jsonl", tmp_path / "det.jsonl"
    assert main(["extract", "--root", str(tmp_path / "tree"), "--project",
                 inputs.AUDIT_PROJECT, "--out", str(methods)]) == 0
    records = detection_records(methods, tmp_path / "truth.jsonl")
    write_jsonl(str(detections), records)
    results = tmp_path / "results.jsonl"
    assert main(["fix", "--in", str(detections), "--lcc",
                 str(tmp_path / "pool.jsonl"), "--jobs", "2",
                 "--out", str(results)]) == 0
    assert executor_record["executors"] == 1
    assert [s.id for s in executor_record["submitted"]] == [
        r["statement"]["id"] for r in records
        if r["predicted_label"] != DefectLabel.NON_DEFECT.value]
    assert len(executor_record["submitted"]) == 32
    assert len(list(read_jsonl(str(results)))) == 2500
