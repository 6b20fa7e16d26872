"""Byte-level pins on what the pipeline writes for the e2e fixtures, and on
the fix stage's use of threads over the benchmark's audit tree.

The chain runs extract, mine and fix with the mock backend. Fix reads
detection records made here from the truth file's labels with a fixed
confidence, so no detector (and no numpy) is in the path. A change to the
record codec or the repair flow that moves one byte of these files fails
here; change a digest only with a deliberate change of the file format.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
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
    UpdateResult,
    dumps_line,
    from_dict,
    method_record_from_dict,
    method_record_to_dict,
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
}


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
    write_samples(str(out / "clean.jsonl"), load_clean_samples()[:20])
    assert main(["synthesize", "--in", str(out / "clean.jsonl"),
                 "--out", str(out / "corpus.jsonl"), "--per-type", "3"]) == 0
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_their_digests(chain):
    assert sha256(chain / "methods.jsonl") == DIGESTS["methods.jsonl"]
    assert sha256(chain / "changes.jsonl") == DIGESTS["changes.jsonl"]
    for jobs in ("1", "2", "4"):
        assert (sha256(chain / f"results-{jobs}.jsonl")
                == DIGESTS["results.jsonl"]), jobs


def test_every_record_round_trips_byte_for_byte(chain):
    def lines(name):
        return (chain / name).read_text(encoding="utf-8").splitlines()

    kinds = {"changes.jsonl": LogCentricChange,
             "detections.jsonl": Detection,
             "results-1.jsonl": UpdateResult,
             "corpus.jsonl": LabeledSample,
             "clean.jsonl": LabeledSample}
    for name, cls in kinds.items():
        assert lines(name), name
        for line in lines(name):
            assert dumps_line(to_dict(from_dict(cls, json.loads(line)))) \
                == line, name
    for line in lines("methods.jsonl"):
        record = method_record_to_dict(
            *method_record_from_dict(json.loads(line)))
        assert dumps_line(record) == line
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
