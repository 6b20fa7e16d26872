"""The benchmark harness under perfbench/ drives logfix through its public
names and wraps a fixed list of module attributes for tracing. This runs its
smallest workload end to end, so a change that breaks what the harness uses
fails here rather than in a benchmark run."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
MISSING_PATCH_POINTS = ["logfix.cli.predict", "logfix.repair.predict"]


def worker(*args: str) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", *args], cwd=REPO_ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def traced_run(tmp_path, workload: str) -> dict:
    work = tmp_path / workload
    setup_record = tmp_path / "setup.json"
    run_record = tmp_path / "run.json"
    worker("setup", workload, "tiny", "11", str(work), str(setup_record))
    worker("run", workload, str(work), "1", str(run_record))
    return json.loads(run_record.read_text(encoding="utf-8"))


def test_traced_mine_workload_runs_clean(tmp_path):
    record = traced_run(tmp_path, "mine")
    assert record["problems"] == []
    assert set(record["exits"].values()) == {0}
    # Every other patch point still names a logfix attribute; `detect`
    # classifies through `detector.predict_many`, so `cli` imports no
    # `predict`.
    assert record["missing_patch_points"] == MISSING_PATCH_POINTS
    # the mining layers' counts: 36 file versions parsed over the 30
    # commits, and 10 log-only commits that each yield one change
    layers = record["layers"]
    assert {name: layers[name] for name in (
        "parser.extract_file.calls", "mining.lcc_yield",
    )} == {
        "parser.extract_file.calls": 36,
        "mining.lcc_yield": pytest.approx(1 / 3),
    }


def test_traced_audit_workload_runs_clean(tmp_path):
    # audit reads and writes every record kind: methods, detections, the
    # exemplar pool, results and the truth file the harness writes itself
    record = traced_run(tmp_path, "audit")
    assert record["problems"] == []
    assert set(record["exits"].values()) == {0}
    assert record["missing_patch_points"] == MISSING_PATCH_POINTS
    # the online layers' call counts: 250 statements, 8 predicted defects
    # (a checker and an updater call each) and three index builds, one
    # over all projects and one per project. `detect` classifies in
    # batches, not through `predict`, and tokenizes each of the 250
    # statements and 250 methods once.
    layers = record["layers"]
    assert {name: layers[name] for name in (
        "backends.complete.calls", "retrieval.select_exemplars.calls",
        "retrieval.builds_per_query", "detector.predict.calls",
        "tokenization.tokenize.calls", "parser.parse_statement_text.calls",
    )} == {
        "backends.complete.calls": 16,
        "retrieval.select_exemplars.calls": 8,
        "retrieval.builds_per_query": 0.375,
        "detector.predict.calls": 0,
        "tokenization.tokenize.calls": 500,
        "parser.parse_statement_text.calls": 8,
    }


def test_traced_train_workload_runs_clean(tmp_path):
    # train runs synthesize, train and the held-out check; tracing it pins
    # the detector and tokenizer names the harness wraps
    record = traced_run(tmp_path, "train")
    assert record["problems"] == []
    assert set(record["exits"].values()) == {0}
    assert record["missing_patch_points"] == MISSING_PATCH_POINTS
    # 2,250 samples split 8:1:1: 57 steps over 1,800 training pairs in
    # each of 10 epochs; the 225 validation and the 225 held-out pairs are
    # tokenized once, a statement and a method each; the held-out pairs
    # are predicted one by one. Synthesis parses each of the 250 clean
    # statements once and each of its 2,594 mutants once.
    layers = record["layers"]
    assert {name: layers[name] for name in (
        "detector.loss_and_grads.calls", "tokenization.tokenize.calls",
        "detector.predict.calls", "parser.parse_statement_text.calls",
    )} == {
        "detector.loss_and_grads.calls": 570,
        "tokenization.tokenize.calls": 900,
        "detector.predict.calls": 225,
        "parser.parse_statement_text.calls": 250 + 2594,
    }
