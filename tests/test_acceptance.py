"""Top-level acceptance checks, one per subsystem guarantee.

Each test prints a single [PASS]/[FAIL] line on the real stdout (outside
pytest's capture) so a plain `pytest -v` run shows the verdict table, and
each asserts its own wall-clock budget.
"""
from __future__ import annotations

import json
import math
import random
import re
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    CLEAN_DIR,
    CORPUS_SEED,
    E2E_SRC_DIR,
    E2E_TRUTH,
    HISTORY_DIR,
    JAVA_DIR,
    fuzz_texts,
    make_change,
)
from logfix.cli import main
from logfix.detector import (
    TrainingBatch,
    composite_loss,
    init_head,
    init_model,
    loss_and_grads,
    predict,
    save_checkpoint,
    stratified_split,
)
from logfix.metrics import (
    UPDATE_METRIC_NAMES,
    bleu_k,
    detection_metrics,
    improvement_coefficient,
    origin_for,
    rouge_k,
    rouge_l,
    variable_prf,
)
from logfix.mining import FixtureHistoryProvider, extract_lccs
from logfix.model import DefectLabel, read_jsonl
from logfix.parser import extract_file, render_statement
from logfix.retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    bm25_score,
    build_index,
    build_pool,
    select_exemplars,
)
from logfix.synthesis import (
    mutate_readability,
    mutate_semantic,
    mutate_tense,
    synthesize_corpus,
)
from logfix.tokenization import fit_vocabulary, split_tokens

DEFECTS = (DefectLabel.STATEMENT_CODE, DefectLabel.STATIC_DYNAMIC,
           DefectLabel.TEMPORAL, DefectLabel.READABILITY)


@contextmanager
def verdict(capfd, number: int, title: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {title}")


def one_hot(indices: list[int]) -> np.ndarray:
    out = np.zeros((len(indices), 5))
    for row, idx in enumerate(indices):
        out[row, idx] = 1.0
    return out


def anchor_statement(filename: str, needle: str):
    """(context, statement) for the unique bundled statement matching needle."""
    source = (JAVA_DIR / filename).read_text(encoding="utf-8")
    result = extract_file(source, filename, None, "anchor")
    hits = [(ctx, p.statement)
            for ctx, parsed in result.records
            for p in parsed if needle in p.statement.raw_text]
    assert len(hits) == 1, (filename, needle, len(hits))
    return hits[0]


def test_1_composite_loss_hand_value_and_ce_reduction(capfd):
    with verdict(capfd, 1, "composite loss hand value; alpha=0 is plain CE"):
        t0 = time.perf_counter()
        batch = TrainingBatch(
            statement_vectors=np.array([[1.0, 0.0]]),
            context_vectors=np.array([[0.0, 1.0]]),
            labels=one_hot([0]),
            probabilities=np.array([[0.5, 0.125, 0.125, 0.125, 0.125]]),
        )
        assert composite_loss(batch, 0.5) == pytest.approx(
            math.log(2.0) + 0.5, abs=1e-6)

        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            probs = rng.dirichlet(np.ones(5), size=n)
            idx = rng.integers(0, 5, size=n)
            batch = TrainingBatch(
                statement_vectors=rng.normal(size=(n, 6)),
                context_vectors=rng.normal(size=(n, 6)),
                labels=one_hot(list(idx)),
                probabilities=probs,
            )
            ce = float(np.mean(-np.log(probs[np.arange(n), idx])))
            got = composite_loss(batch, 0.0)
            assert abs(got - ce) <= 1e-12 * max(1.0, abs(ce))
        assert time.perf_counter() - t0 < 1.0


def test_2_analytic_gradients_match_finite_differences(capfd):
    with verdict(capfd, 2, "analytic gradients match finite differences"):
        t0 = time.perf_counter()
        dim, n, h, alpha = 16, 4, 1e-6, 0.5
        vocab, _ = fit_vocabulary(["stub tokens"], max_size=16)
        for trial in range(10):
            rng = np.random.default_rng(trial)
            model = init_model(vocab, dim, seed=trial)
            head = init_head(dim)
            # A zero head would zero the projection gradients, so the check
            # needs a randomly initialized one.
            head.weight[:] = rng.normal(size=head.weight.shape) * 0.5
            head.bias[:] = rng.normal(size=head.bias.shape) * 0.1
            pooled_stmt = rng.normal(size=(n, dim))
            pooled_ctx = rng.normal(size=(n, dim))
            labels = one_hot(list(rng.integers(0, 5, size=n)))

            def loss_at() -> float:
                return loss_and_grads(model, head, pooled_stmt, pooled_ctx,
                                      labels, alpha, dropout_masks=None)[0]

            _, grads, _ = loss_and_grads(model, head, pooled_stmt,
                                         pooled_ctx, labels, alpha,
                                         dropout_masks=None)
            params = {"head_weight": head.weight, "head_bias": head.bias,
                      "w1": model.w1, "b1": model.b1,
                      "w2": model.w2, "b2": model.b2}
            for name, array in params.items():
                analytic = grads[name]
                flat = array.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = loss_at()
                    flat[i] = keep - h
                    down = loss_at()
                    flat[i] = keep
                    fd = (up - down) / (2.0 * h)
                    a = analytic.reshape(-1)[i]
                    rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
                    assert rel < 1e-4, (trial, name, i, a, fd)
        assert time.perf_counter() - t0 < 30.0


def test_3_trained_detector_reaches_macro_f1(capfd, trained_state):
    with verdict(capfd, 3, "detector reaches >=0.90 held-out macro F1"):
        ts = trained_state
        assert len(ts.clean) == 250
        mutants = [s for s in ts.corpus
                   if s.label is not DefectLabel.NON_DEFECT]
        assert Counter(s.label for s in mutants) == {
            label: 500 for label in DEFECTS}
        t0 = time.perf_counter()
        _, _, test = stratified_split(ts.corpus, ts.config.seed)
        preds = [predict(s.context, s.target, ts.model, ts.head,
                         max_tokens=ts.config.max_tokens)[0] for s in test]
        golds = [s.label for s in test]
        report = detection_metrics(preds, golds)
        assert report.f1_macro >= 0.90, report.f1_macro
        predict_seconds = time.perf_counter() - t0
        total = ts.synthesis_seconds + ts.train_seconds + predict_seconds
        assert total < 600.0, total


def test_4_mutation_battery_and_anchor_edits(capfd, clean_samples):
    with verdict(capfd, 4, "mutations are minimal, unique, never identity"):
        t0 = time.perf_counter()
        mutants = synthesize_corpus(clean_samples, 250, seed=CORPUS_SEED)
        assert len(mutants) == 1000
        assert Counter(s.label for s in mutants) == {
            label: 250 for label in DEFECTS}
        assert all(s.target.raw_text != s.provenance.original_raw_text
                   for s in mutants)
        keys = {(s.context.source_text, s.target.raw_text) for s in mutants}
        assert len(keys) == 1000

        # Single-word damage: the statement's whitespace tokens differ from
        # the origin's in exactly one position.
        for sample in mutants:
            if sample.label not in (DefectLabel.READABILITY,
                                    DefectLabel.TEMPORAL):
                continue
            before = sample.provenance.original_raw_text.split()
            after = sample.target.raw_text.split()
            assert len(before) == len(after), sample.target.raw_text
            changed = sum(1 for b, a in zip(before, after) if b != a)
            assert changed == 1, (before, after)

        ctx, stmt = anchor_statement("StreamExecutorService.java",
                                     '"To stop Stream executor"')
        mutated, record = mutate_readability(stmt, rng_seed=0)
        assert "executer" in mutated.static_text
        assert "lexicon" in record.detail

        ctx, stmt = anchor_statement("SequenceGeneratorSource.java",
                                     "do starting")
        result = mutate_tense(stmt, rng_seed=0)
        assert result is not None
        mutated, record = result
        assert record.detail == "start: PRESENT_PARTICIPLE -> PAST"
        assert "started" in mutated.static_text

        ctx, stmt = anchor_statement("NettyChannelMonitor.java",
                                     "channel {} closed")
        mutated, record = mutate_semantic(stmt, ctx,
                                          DefectLabel.STATEMENT_CODE)
        assert record.detail == "antonym closed -> opened"
        assert "opened" in mutated.static_text

        ctx, stmt = anchor_statement("RecursiveFolderRemover.java",
                                     "Deleting folder")
        mutated, record = mutate_semantic(stmt, ctx,
                                          DefectLabel.STATIC_DYNAMIC)
        assert "variable-swap" in record.detail
        assert mutated.variables == ("exc",)
        assert time.perf_counter() - t0 < 30.0


def test_5_similarity_scores_and_project_scoping(capfd):
    with verdict(capfd, 5, "ranking scores match the closed formula"):
        t0 = time.perf_counter()
        texts = [
            ("projA", 'log.info("starting worker {}", workerId);'),
            ("projA", 'log.info("worker {} stopped", workerId);'),
            ("projA", 'log.warn("retrying fetch {} after {}", url, delay);'),
            ("projA", 'log.debug("cache miss for key {}", key);'),
            ("projA", 'log.error("failed to close channel {}", channel);'),
            ("projB", 'log.info("starting worker pool of {}", size);'),
            ("projB", 'log.info("flushed {} records", count);'),
            ("projB", 'log.trace("queue depth {}", depth);'),
            ("projB", 'log.warn("slow response from {}", endpoint);'),
            ("projB", 'log.info("worker {} heartbeat", workerId);'),
        ]
        changes = [
            make_change(project, f"c{i:02d}", raw,
                        raw.replace("{}", "{} now", 1))
            for i, (project, raw) in enumerate(texts)
        ]
        index = build_index(changes)
        docs = [split_tokens(c.before.raw_text) for c in changes]
        avg_len = sum(len(d) for d in docs) / len(docs)

        def closed_form(query: str, position: int) -> float:
            doc = docs[position]
            counts = Counter(doc)
            score = 0.0
            for token in split_tokens(query):
                df = sum(1 for d in docs if token in d)
                idf = math.log((len(docs) - df + 0.5) / (df + 0.5) + 1.0)
                tf = counts[token]
                if tf == 0:
                    continue
                norm = DEFAULT_K1 * (1.0 - DEFAULT_B
                                     + DEFAULT_B * len(doc) / avg_len)
                score += idf * tf * (DEFAULT_K1 + 1.0) / (tf + norm)
            return score

        queries = [
            'log.info("starting worker {}", workerId);',
            'log.warn("slow worker fetch");',
            "cache channel records",
            "starting starting worker",
            "nothing shared here",
        ]
        for query in queries:
            for position, change in enumerate(changes):
                got = bm25_score(query, change.change_id, index)
                assert got == pytest.approx(
                    closed_form(query, position), abs=1e-9)

        target = changes[0].before
        pool = build_pool(changes)
        for label in (DefectLabel.TEMPORAL, DefectLabel.READABILITY):
            picked = select_exemplars(target, label, pool, k=4,
                                      project_id="projB")
            assert picked
            assert all(c.project_id == "projB" for c in picked)
        for label in (DefectLabel.STATEMENT_CODE, DefectLabel.STATIC_DYNAMIC):
            picked = select_exemplars(target, label, pool, k=4,
                                      project_id="projB")
            assert {c.project_id for c in picked} == {"projA", "projB"}
        assert time.perf_counter() - t0 < 1.0


def oracle_bleu(cand: list[str], ref: list[str], k: int) -> float:
    if not cand:
        return 0.0
    logs = []
    for n in range(1, k + 1):
        cgrams = Counter(tuple(cand[i:i + n])
                         for i in range(len(cand) - n + 1))
        rgrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        total = sum(cgrams.values())
        clipped = sum(min(count, rgrams[gram])
                      for gram, count in cgrams.items())
        if n == 1:
            precision = clipped / total if total else 0.0
        elif clipped == 0:
            precision = 1.0 / (total + 1)
        else:
            precision = clipped / total
        if precision == 0.0:
            return 0.0
        logs.append(math.log(precision))
    brevity = 1.0 if len(cand) >= len(ref) else math.exp(
        1.0 - len(ref) / len(cand))
    return brevity * math.exp(sum(logs) / k)


def oracle_rouge(cand: list[str], ref: list[str], k: int) -> float:
    cgrams = Counter(tuple(cand[i:i + k]) for i in range(len(cand) - k + 1))
    rgrams = Counter(tuple(ref[i:i + k]) for i in range(len(ref) - k + 1))
    ctotal, rtotal = sum(cgrams.values()), sum(rgrams.values())
    if ctotal == 0 and rtotal == 0:
        return 1.0
    overlap = sum(min(count, rgrams[gram]) for gram, count in cgrams.items())
    p = overlap / ctotal if ctotal else 0.0
    r = overlap / rtotal if rtotal else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def oracle_rouge_l(cand: list[str], ref: list[str]) -> float:
    if not cand:
        return 0.0
    table = [[0] * (len(ref) + 1) for _ in range(len(cand) + 1)]
    for i, x in enumerate(cand, start=1):
        for j, y in enumerate(ref, start=1):
            table[i][j] = (table[i - 1][j - 1] + 1 if x == y
                           else max(table[i - 1][j], table[i][j - 1]))
    lcs = table[-1][-1]
    p, r = lcs / len(cand), lcs / len(ref)
    return 2 * p * r / (p + r) if p + r else 0.0


def test_6_text_metrics_match_oracles(capfd):
    with verdict(capfd, 6, "text and improvement metrics match oracles"):
        t0 = time.perf_counter()
        rng = random.Random(0)
        words = ["alpha", "beta", "gamma", "delta", "commit", "worker"]
        for _ in range(100):
            cand = rng.choices(words, k=rng.randrange(0, 11))
            ref = rng.choices(words, k=rng.randrange(1, 11))
            for k in (1, 2, 4):
                assert bleu_k(cand, ref, k) == pytest.approx(
                    oracle_bleu(cand, ref, k), abs=1e-9)
            for k in (1, 2):
                assert rouge_k(cand, ref, k) == pytest.approx(
                    oracle_rouge(cand, ref, k), abs=1e-9)
            assert rouge_l(cand, ref) == pytest.approx(
                oracle_rouge_l(cand, ref), abs=1e-9)

        assert variable_prf(["a", "b"], ["b", "c"]) == (0.5, 0.5, 0.5)

        assert improvement_coefficient(0.7071, 0.848) == pytest.approx(
            0.4812, abs=5e-4)
        for _ in range(100):
            m_origin = rng.uniform(0.0, 0.999)
            m_updated = rng.uniform(0.0, 0.999)
            ic = improvement_coefficient(m_origin, m_updated)
            assert origin_for(m_updated, ic) == pytest.approx(
                m_origin, abs=1e-9)
        assert time.perf_counter() - t0 < 5.0


def test_7_history_mining_finds_the_log_only_commits(capfd):
    with verdict(capfd, 7, "mining keeps exactly the log-text-only commits"):
        t0 = time.perf_counter()
        provider = FixtureHistoryProvider(str(HISTORY_DIR))
        changes = extract_lccs(provider.commit_pairs(), project_id="e2e")
        assert len(changes) == 2
        by_commit = {c.commit_id: c for c in changes}
        assert set(by_commit) == {"typofix", "tensefix"}
        typo = by_commit["typofix"]
        assert "Intellflo" in typo.before.static_text
        assert "IntelliFlo" in typo.after.static_text
        tense = by_commit["tensefix"]
        assert tense.before.static_text == "Receiver thread started"
        assert tense.after.static_text == "Starting receiver thread"
        assert all(c.project_id == "e2e" for c in changes)
        assert time.perf_counter() - t0 < 5.0


def test_8_cli_pipeline_end_to_end(capfd, trained_state, tmp_path):
    with verdict(capfd, 8, "extract-detect-fix-evaluate round trip"):
        ts = trained_state
        ckpt = tmp_path / "model.json"
        save_checkpoint(str(ckpt), ts.model, ts.head, ts.config)
        truth = {row["statement_id"]: row["label"]
                 for row in read_jsonl(str(E2E_TRUTH))}
        t0 = time.perf_counter()

        methods = tmp_path / "methods.jsonl"
        assert main(["extract", "--root", str(E2E_SRC_DIR),
                     "--project", "e2e", "--out", str(methods)]) == 0
        lcc = tmp_path / "changes.jsonl"
        assert main(["mine", "--repo", str(HISTORY_DIR),
                     "--project", "e2e", "--out", str(lcc)]) == 0
        assert len(list(read_jsonl(str(lcc)))) == 2

        detections = tmp_path / "detections.jsonl"
        assert main(["detect", "--in", str(methods), "--model", str(ckpt),
                     "--out", str(detections)]) == 0
        rows = list(read_jsonl(str(detections)))
        assert len(rows) == len(truth) == 20
        for row in rows:
            assert row["predicted_label"] == truth[row["statement"]["id"]]

        results = tmp_path / "results.jsonl"
        assert main(["fix", "--in", str(detections), "--model", str(ckpt),
                     "--lcc", str(lcc), "--out", str(results)]) == 0
        defect_raw = None
        for row in read_jsonl(str(results)):
            label = truth[row["sample"]["target"]["id"]]
            assert row["predicted_label"] == label
            if label == "NON_DEFECT":
                assert row["diagnostics"][-1] == "backend-calls:0"
                assert row["updated_statement"] is None
            else:
                assert row["checker_confirmed"] is True
                assert row["updated_statement"] is not None
                assert row["diagnostics"][-1] == "backend-calls:2"
                defect_raw = defect_raw or row["sample"]["target"]["raw_text"]

        rerun = tmp_path / "rerun.jsonl"
        assert main(["fix", "--in", str(detections), "--model", str(ckpt),
                     "--lcc", str(lcc), "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == results.read_bytes()

        # Scripted rejection of one confirmed defect: the checker call is
        # the only one spent on it.
        transcript = tmp_path / "transcript.json"
        transcript.write_text(json.dumps([{
            "pattern": re.escape(defect_raw),
            "reply": "VERDICT: NO\nRATIONALE: reported text is accurate\n",
        }]), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {
            "kind": "mock", "transcript": str(transcript)}}),
            encoding="utf-8")
        rejected = tmp_path / "rejected.jsonl"
        assert main(["fix", "--in", str(detections), "--model", str(ckpt),
                     "--lcc", str(lcc), "--config", str(config),
                     "--out", str(rejected)]) == 0
        hits = [row for row in read_jsonl(str(rejected))
                if row["sample"]["target"]["raw_text"] == defect_raw]
        assert hits
        for row in hits:
            assert row["checker_confirmed"] is False
            assert row["updated_statement"] is None
            assert row["diagnostics"][-1] == "backend-calls:1"

        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--results", str(results),
                     "--truth", str(E2E_TRUTH),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["detection"]["f1_macro"] == 1.0
        assert report["detection"]["samples"] == 20
        assert set(report["update"]) == set(UPDATE_METRIC_NAMES)
        for table in report["update"].values():
            assert table["samples"] == 10.0
        assert time.perf_counter() - t0 < 30.0


def test_9_parser_survives_fuzz_and_renders_faithfully(capfd):
    with verdict(capfd, 9, "parser never crashes; rendering is lossless"):
        t0 = time.perf_counter()
        for text in fuzz_texts(10_000):
            extract_file(text, "Fuzz.java")

        checked = 0
        for directory in (JAVA_DIR, CLEAN_DIR, E2E_SRC_DIR):
            for path in sorted(directory.glob("*.java")):
                source = path.read_text(encoding="utf-8")
                result = extract_file(source, path.name, None, "roundtrip")
                for _, parsed in result.records:
                    for p in parsed:
                        assert render_statement(p) == p.statement.raw_text
                        checked += 1
        assert checked >= 250
        assert time.perf_counter() - t0 < 60.0
