"""Tests for detection metrics, BLEU/ROUGE, variable sets, and the
improvement coefficient."""
from __future__ import annotations

import math

import pytest

from conftest import statement_of
from logfix import metrics
from logfix.metrics import (
    DegenerateOrigin,
    EmptyReference,
    LengthMismatch,
    UPDATE_METRIC_NAMES,
    aggregate_update_records,
    bleu_k,
    detection_metrics,
    evaluate_update,
    f1_macro,
    improvement_coefficient,
    origin_for,
    rouge_k,
    rouge_l,
    static_text_tokens,
    variable_prf,
)
from logfix.model import DefectLabel

ND = DefectLabel.NON_DEFECT
SC = DefectLabel.STATEMENT_CODE
SD = DefectLabel.STATIC_DYNAMIC
TM = DefectLabel.TEMPORAL
RD = DefectLabel.READABILITY


class TestDetectionMetrics:
    def test_hand_computed_confusion(self):
        golds = [ND, ND, SC, SC, TM]
        preds = [ND, SC, SC, TM, TM]
        report = detection_metrics(preds, golds)
        nd = report.per_class[ND]
        assert (nd.precision, nd.recall) == (1.0, 0.5)
        assert nd.f1 == pytest.approx(2 / 3)
        sc = report.per_class[SC]
        assert (sc.precision, sc.recall, sc.f1) == (0.5, 0.5, 0.5)
        tm = report.per_class[TM]
        assert tm.precision == 0.5 and tm.recall == 1.0
        assert tm.f1 == pytest.approx(2 / 3)
        # READABILITY and STATIC_DYNAMIC are absent and contribute zero.
        assert report.per_class[RD].f1 == 0.0
        assert report.per_class[SD].f1 == 0.0
        expected_macro = (2 / 3 + 0.5 + 2 / 3 + 0.0 + 0.0) / 5
        assert report.f1_macro == pytest.approx(expected_macro)
        assert f1_macro(preds, golds) == pytest.approx(expected_macro)

    def test_perfect_predictions(self):
        labels = [ND, SC, SD, TM, RD]
        assert f1_macro(labels, labels) == 1.0

    def test_macro_divides_by_all_classes_even_when_absent(self):
        # Only one class present and predicted: macro is 1/5, not 1.
        assert f1_macro([ND, ND], [ND, ND]) == pytest.approx(0.2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            detection_metrics([ND], [ND, SC])
        with pytest.raises(LengthMismatch):
            detection_metrics([], [])

    def test_tally_counts(self):
        # SC: one true positive and one false negative; ND: one false
        # positive.
        report = detection_metrics([ND, SC], [SC, SC])
        assert report.per_class[SC].precision == 1.0
        assert report.per_class[SC].recall == 0.5
        assert report.per_class[ND].precision == 0.0
        assert report.per_class[ND].recall == 0.0


class TestBleu:
    def test_identity_scores_one(self):
        tokens = "starting the worker now".split()
        for k in (1, 2, 4):
            assert bleu_k(tokens, tokens, k) == pytest.approx(1.0)

    def test_hand_computed_bigram_case(self):
        cand = "a b c".split()
        ref = "a b d".split()
        # unigram: 2/3; bigram: 1/2 matched ("a b"); no brevity penalty.
        expected = math.sqrt((2 / 3) * (1 / 2))
        assert bleu_k(cand, ref, 2) == pytest.approx(expected, abs=1e-12)

    def test_brevity_penalty(self):
        cand = ["a", "b"]
        ref = ["a", "b", "c", "d"]
        # unigram 1.0, bigram 1.0, penalty exp(1 - 4/2).
        assert bleu_k(cand, ref, 2) == pytest.approx(math.exp(-1.0))

    def test_zero_unigram_overlap_is_zero(self):
        assert bleu_k(["x"], ["y"], 1) == 0.0
        assert bleu_k(["x", "z"], ["y", "w"], 4) == 0.0

    def test_smoothing_applies_to_higher_orders_only(self):
        cand = ["a", "c"]
        ref = ["a", "b"]
        # unigram: 1/2. bigram: no match among 1 bigram -> smoothed 1/2.
        assert bleu_k(cand, ref, 2) == pytest.approx(math.sqrt(0.25))

    def test_single_token_identity_still_scores_one(self):
        # Shorter than every higher-order n-gram: smoothing keeps ones.
        assert bleu_k(["ok"], ["ok"], 4) == pytest.approx(
            (1.0 / 1.0) ** 0.25 * 1.0
        )

    def test_empty_candidate_and_reference(self):
        assert bleu_k([], ["a"], 2) == 0.0
        with pytest.raises(EmptyReference):
            bleu_k(["a"], [], 2)
        with pytest.raises(ValueError):
            bleu_k(["a"], ["a"], 0)


class TestRouge:
    def test_identity(self):
        tokens = "connection closed by peer".split()
        assert rouge_k(tokens, tokens, 1) == 1.0
        assert rouge_k(tokens, tokens, 2) == 1.0
        assert rouge_l(tokens, tokens) == 1.0

    def test_hand_computed_unigram_f1(self):
        cand = "a b c".split()
        ref = "a b d e".split()
        precision, recall = 2 / 3, 2 / 4
        expected = 2 * precision * recall / (precision + recall)
        assert rouge_k(cand, ref, 1) == pytest.approx(expected)

    def test_both_sides_shorter_than_k(self):
        assert rouge_k(["a"], ["b"], 2) == 1.0

    def test_one_side_shorter_than_k(self):
        assert rouge_k(["a"], ["a", "b"], 2) == 0.0

    def test_rouge_k_needs_k_of_one_or_more_and_a_reference(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            rouge_k(["a"], ["a"], 0)
        with pytest.raises(EmptyReference):
            rouge_k(["a"], [], 1)

    def test_lcs_length_of_an_empty_sequence_is_zero(self):
        assert metrics._lcs_length([], ["a", "b"]) == 0
        assert metrics._lcs_length(["a", "b"], []) == 0
        assert metrics._lcs_length(list("abcbdab"), list("bdcaba")) == 4

    def test_rouge_l_subsequence(self):
        cand = "the worker started late".split()
        ref = "worker started".split()
        # LCS = 2; precision 2/4, recall 2/2.
        assert rouge_l(cand, ref) == pytest.approx(2 * 0.5 * 1.0 / 1.5)

    def test_rouge_l_empty_candidate(self):
        assert rouge_l([], ["a"]) == 0.0
        with pytest.raises(EmptyReference):
            rouge_l(["a"], [])


class TestVariableMetrics:
    def test_half_overlap(self):
        assert variable_prf(["a", "b"], ["b", "c"]) == (0.5, 0.5, 0.5)

    def test_both_empty_is_perfect(self):
        assert variable_prf([], []) == (1.0, 1.0, 1.0)

    def test_one_empty_side(self):
        assert variable_prf([], ["x"]) == (0.0, 0.0, 0.0)
        assert variable_prf(["x"], []) == (0.0, 0.0, 0.0)

    def test_whitespace_normalization(self):
        assert variable_prf(["user .getId( )"], ["user .getId( )  "]) == (
            1.0, 1.0, 1.0)
        assert variable_prf(["a +  b"], ["a + b"]) == (1.0, 1.0, 1.0)


class TestImprovementCoefficient:
    def test_reference_value(self):
        assert improvement_coefficient(0.7071, 0.848) == pytest.approx(
            0.4810, abs=5e-4
        )

    def test_bounds_and_signs(self):
        assert improvement_coefficient(0.5, 1.0) == 1.0
        assert improvement_coefficient(0.5, 0.5) == 0.0
        assert improvement_coefficient(0.5, 0.25) == -0.5
        assert improvement_coefficient(0.0, 0.75) == 0.75

    def test_perfect_origin(self):
        assert improvement_coefficient(1.0, 1.0) == 0.0
        with pytest.raises(DegenerateOrigin):
            improvement_coefficient(1.0, 0.9)
        with pytest.raises(ValueError):
            improvement_coefficient(1.2, 0.9)

    def test_inversion_round_trip(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            m_origin = rng.uniform(0.0, 0.999)
            m_updated = rng.uniform(0.0, 1.0)
            ic = improvement_coefficient(m_origin, m_updated)
            assert origin_for(m_updated, ic) == pytest.approx(
                m_origin, abs=1e-9
            )

    def test_inversion_rejects_unit_ic(self):
        with pytest.raises(ValueError):
            origin_for(1.0, 1.0)


class TestStaticTextTokens:
    def test_placeholders_are_cut_out(self):
        stmt = statement_of('log.info("loaded {} rows from {}", count, table);')
        assert static_text_tokens(stmt) == ["loaded", "rows", "from"]

    def test_concatenation_junctions_have_no_marker_text(self):
        stmt = statement_of('logger.warn("failed after " + retries + " tries");')
        assert static_text_tokens(stmt) == ["failed", "after", "tries"]

    def test_camel_case_is_split(self):
        stmt = statement_of('log.info("IntelliFlo received refreshCommand");')
        assert static_text_tokens(stmt) == [
            "intelli", "flo", "received", "refresh", "command",
        ]


class TestEvaluateUpdate:
    def test_full_battery_for_a_real_fix(self):
        original = statement_of('log.info("strating worker {}", id);')
        updated = statement_of('log.info("starting worker {}", id);')
        truth = statement_of('log.info("starting worker {}", id);')
        pairs = evaluate_update(original, updated, truth)
        assert len(pairs) == len(UPDATE_METRIC_NAMES)
        by_name = dict(zip(UPDATE_METRIC_NAMES, pairs))
        # The update equals the truth: every updated score is 1.
        for _, m_updated in pairs:
            assert m_updated == pytest.approx(1.0)
        # Unigram overlap before the fix: 1 of 2 static-text tokens.
        assert by_name["bleu-1"][0] == pytest.approx(0.5)
        assert improvement_coefficient(*by_name["bleu-1"]) == pytest.approx(
            1.0)
        # Variables never changed: perfect before and after, IC 0.
        assert by_name["var-f1"][0] == 1.0
        assert improvement_coefficient(*by_name["var-f1"]) == 0.0

    def test_none_update_scores_as_original(self, monkeypatch):
        original = statement_of('log.info("strating worker {}", id);')
        truth = statement_of('log.info("starting worker {}", id);')
        scored = []

        def counting(stmt):
            scored.append(stmt)
            return static_text_tokens(stmt)

        monkeypatch.setattr(metrics, "static_text_tokens", counting)
        pairs = evaluate_update(original, None, truth)
        for m_origin, m_updated in pairs:
            assert m_updated == m_origin
        # The truth once, the original once.
        assert scored == [truth, original]

    def test_degenerate_origin_yields_none_ic(self):
        original = statement_of('log.info("done {}", a);')
        worse = statement_of('log.info("failed {}", b);')
        truth = statement_of('log.info("done {}", a);')
        pairs = evaluate_update(original, worse, truth)
        by_name = dict(zip(UPDATE_METRIC_NAMES, pairs))
        assert by_name["bleu-1"] == (1.0, 0.0)
        assert aggregate_update_records([pairs])["bleu-1"]["mean_ic"] is None


class TestAggregation:
    def test_keys_and_means(self):
        original = statement_of('log.info("strating worker {}", id);')
        updated = statement_of('log.info("starting worker {}", id);')
        truth = statement_of('log.info("starting worker {}", id);')
        per_sample = [
            evaluate_update(original, updated, truth),
            evaluate_update(original, None, truth),
        ]
        table = aggregate_update_records(per_sample)
        assert set(table) == set(UPDATE_METRIC_NAMES)
        row = table["bleu-1"]
        assert set(row) == {
            "mean_origin", "mean_updated", "mean_ic", "ic_of_means", "samples",
        }
        assert row["samples"] == 2.0
        assert row["mean_origin"] == pytest.approx(0.5)
        assert row["mean_updated"] == pytest.approx(0.75)
        expected_ic = (row["mean_updated"] - row["mean_origin"]) / (
            1 - row["mean_origin"]
        )
        assert row["ic_of_means"] == pytest.approx(expected_ic)
        # Per-sample ICs: 1.0 (fixed) and 0.0 (unchanged).
        assert row["mean_ic"] == pytest.approx(0.5)

    def test_empty_input(self):
        assert aggregate_update_records([]) == {}
