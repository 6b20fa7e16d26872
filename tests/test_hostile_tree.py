"""The stages over a generated hostile source tree: `extract` skips what it
cannot read with one note per file, places every statement on the line the
parser counts, `detect` and `fix` give the same bytes on every run and for
every `--jobs` value, and `synthesize` gives the same bytes on a rerun and
exits 2, without a traceback, when its pool runs out."""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import HISTORY_DIR
from hostile_tree import write_hostile_tree
from logfix.cli import main
from logfix.detector import (TrainConfig, init_head, init_model, predict,
                             save_checkpoint)
from logfix.model import MethodRecord, from_dict, read_jsonl
from logfix.parser import decode_source
from logfix.tokenization import fit_vocabulary, tokenize


@pytest.fixture(scope="module")
def extracted(tmp_path_factory):
    """The tree, its config, and `extract`'s exit code, output file and
    printed text."""
    root = tmp_path_factory.mktemp("hostile")
    tree = write_hostile_tree(root / "tree", seed=7)
    config = root / "config.json"
    config.write_text(json.dumps({"parser": {
        "max_method_lines": tree.line_cap}}), encoding="utf-8")
    methods = root / "methods.jsonl"
    printed = io.StringIO()
    with redirect_stdout(printed), redirect_stderr(printed):
        code = main(["extract", "--root", str(tree.root), "--project",
                     "hostile", "--config", str(config),
                     "--out", str(methods)])
    return tree, config, methods, code, printed.getvalue()


def test_extract_notes_each_skipped_file_and_counts_lines_at_newlines(
        extracted):
    tree, _, methods, code, printed = extracted
    assert code == 0
    assert "Traceback" not in printed
    *notes, summary = printed.splitlines()
    assert notes == tree.notes
    records = [from_dict(MethodRecord, d) for d in read_jsonl(str(methods))]
    statements = [(r.method, s) for r in records for s in r.statements]
    assert summary.startswith(f"extract: 11 files -> {len(records)} methods, "
                              f"{len(statements)} statements -> ")
    assert {s.static_text.removesuffix(" {}")
            for _, s in statements} == tree.messages
    assert {"Span.Span", "Span.widen", "OneLine.act"} <= {
        r.method.qualified_name for r in records}
    for method, stmt in statements:
        path = tree.root / method.location.path
        text = decode_source(path.read_bytes())
        at = text.index(stmt.raw_text)
        assert stmt.location.start_line == 1 + text.count("\n", 0, at), (
            method.location.path, stmt.raw_text)


def test_detect_and_fix_are_byte_identical_across_runs_and_jobs(
        extracted, tmp_path):
    tree, config, methods, code, _ = extracted
    assert code == 0
    # A seeded untrained checkpoint whose head reads only the statement
    # half, its NON_DEFECT bias set to the median margin of the other
    # classes: it flags some statements and passes the others.
    vocab, _ = fit_vocabulary(sorted(tree.messages), max_size=64)
    model = init_model(vocab, 16, seed=1)
    model.embedding *= 50.0
    head = init_head(16)
    head.weight[:16] = np.random.default_rng(1).normal(0.0, 1.0, (16, 5))
    train_config = TrainConfig(dim=16, vocab_size=64)
    records = [from_dict(MethodRecord, d) for d in read_jsonl(str(methods))]
    margins = []
    for record in records:
        for stmt in record.statements:
            logp = np.log(predict(record.method, stmt, model, head,
                                  train_config.max_tokens)[1])
            margins.append(logp[1:].max() - logp[0])
    head.bias[0] += np.median(margins)
    checkpoint = tmp_path / "model.json"
    save_checkpoint(str(checkpoint), model, head, train_config)
    [wordy] = [r.method for r in records
               if r.method.qualified_name == tree.over_max_tokens]
    assert tokenize(wordy.source_text, vocab,
                    train_config.max_tokens).truncated
    pool = tmp_path / "changes.jsonl"
    assert main(["mine", "--repo", str(HISTORY_DIR), "--project", "hostile",
                 "--out", str(pool)]) == 0

    def run(name: str, *argv: str) -> bytes:
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    detect = ["detect", "--in", str(methods), "--model", str(checkpoint)]
    detections = run("d1.jsonl", *detect)
    assert run("d2.jsonl", *detect) == detections
    labels = {json.loads(line)["predicted_label"]
              for line in detections.splitlines()}
    assert "NON_DEFECT" in labels and len(labels) > 1
    fixes = {run(f"fix-{jobs}-{n}.jsonl", "fix", "--in", str(tmp_path /
                                                            "d1.jsonl"),
                 "--lcc", str(pool), "--config", str(config), "--jobs", jobs)
             for jobs in ("1", "2") for n in (1, 2)}
    [fixed] = fixes
    assert len(fixed.splitlines()) == len(detections.splitlines())
    assert any(json.loads(line)["updated_statement"]
               for line in fixed.splitlines())


def test_synthesize_is_byte_identical_on_rerun_and_exhausts_cleanly(
        extracted, tmp_path, capsys):
    _, config, methods, code, _ = extracted
    assert code == 0

    def synthesize(name: str, per_type: int) -> int:
        return main(["synthesize", "--in", str(methods), "--config",
                     str(config), "--per-type", str(per_type), "--seed", "7",
                     "--out", str(tmp_path / name)])

    assert synthesize("c1.jsonl", 2) == 0
    assert synthesize("c2.jsonl", 2) == 0
    corpus = (tmp_path / "c1.jsonl").read_bytes()
    assert corpus and (tmp_path / "c2.jsonl").read_bytes() == corpus
    capsys.readouterr()
    # the tree's few statements give only two STATIC_DYNAMIC mutants
    assert synthesize("c3.jsonl", 3) == 2
    err = capsys.readouterr().err
    assert "STATIC_DYNAMIC: pool exhausted at 2/3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c3.jsonl").exists()
