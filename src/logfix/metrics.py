"""Evaluation metrics: detection P/R/F1-macro, BLEU-K, ROUGE-K/L,
variable-set P/R/F1, and the improvement coefficient."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .model import LABELS, DefectLabel, LoggingStatement
from .tokenization import split_tokens


class LengthMismatch(ValueError):
    """Prediction and gold sequences differ in length (or are empty)."""


class EmptyReference(ValueError):
    """A text-similarity metric was given an empty reference."""


class DegenerateOrigin(ArithmeticError):
    """IC is undefined: the original already scored 1 and the update fell."""


# ---------------------------------------------------------------------------
# Detection metrics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class DetectionReport:
    per_class: dict[DefectLabel, ClassMetrics]
    f1_macro: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def detection_metrics(preds: list[DefectLabel],
                      golds: list[DefectLabel]) -> DetectionReport:
    """Per-class precision/recall/F1 plus the unweighted macro over all
    five classes (absent classes score zero rather than being skipped)."""
    if len(preds) != len(golds) or not golds:
        raise LengthMismatch(
            f"{len(preds)} predictions vs {len(golds)} gold labels")
    pairs = list(zip(preds, golds))
    tp = Counter(gold for pred, gold in pairs if pred is gold)
    fp = Counter(pred for pred, gold in pairs if pred is not gold)
    fn = Counter(gold for pred, gold in pairs if pred is not gold)
    per_class: dict[DefectLabel, ClassMetrics] = {}
    for label in LABELS:
        precision = _safe_div(tp[label], tp[label] + fp[label])
        recall = _safe_div(tp[label], tp[label] + fn[label])
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[label] = ClassMetrics(precision, recall, f1)
    macro = sum(m.f1 for m in per_class.values()) / len(LABELS)
    return DetectionReport(per_class=per_class, f1_macro=macro)


def f1_macro(preds: list[DefectLabel], golds: list[DefectLabel]) -> float:
    return detection_metrics(preds, golds).f1_macro


# ---------------------------------------------------------------------------
# Text-similarity metrics
# ---------------------------------------------------------------------------
def _clipped_matches(candidate: list[str], reference: list[str],
                     n: int) -> tuple[int, int, int]:
    """Candidate n-grams found in the reference, each counted at most as
    often as the reference holds it, then the n-gram count of each side."""
    cand, ref = (Counter(tuple(tokens[i:i + n])
                         for i in range(len(tokens) - n + 1))
                 for tokens in (candidate, reference))
    return sum((cand & ref).values()), cand.total(), ref.total()


def bleu_k(candidate: list[str], reference: list[str], k: int) -> float:
    """Sentence-level BLEU with brevity penalty; zero n-gram matches for
    n > 1 get add-one smoothing so short identical texts still score 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not reference:
        raise EmptyReference("reference token sequence is empty")
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, k + 1):
        clipped, total, _ = _clipped_matches(candidate, reference, n)
        if n == 1:
            precision = _safe_div(clipped, total)
        elif clipped == 0:
            precision = 1.0 / (total + 1)
        else:
            precision = clipped / total
        if precision == 0.0:
            return 0.0
        log_sum += math.log(precision)
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum / k)


def rouge_k(candidate: list[str], reference: list[str], k: int) -> float:
    """F1 over shared k-grams. When neither side has any k-gram (texts
    shorter than k) the score is 1 so identity is preserved."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not reference:
        raise EmptyReference("reference token sequence is empty")
    overlap, cand_total, ref_total = _clipped_matches(candidate, reference, k)
    if cand_total == 0 and ref_total == 0:
        return 1.0
    precision = _safe_div(overlap, cand_total)
    recall = _safe_div(overlap, ref_total)
    return _safe_div(2 * precision * recall, precision + recall)


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: list[str], reference: list[str]) -> float:
    """F1 built from the longest-common-subsequence length."""
    if not reference:
        raise EmptyReference("reference token sequence is empty")
    if not candidate:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return _safe_div(2 * precision * recall, precision + recall)


# ---------------------------------------------------------------------------
# Variable-set metrics
# ---------------------------------------------------------------------------
_WS_RE = re.compile(r"\s+")


def _normalize_var(text: str) -> str:
    return _WS_RE.sub(" ", text.strip())


def variable_prf(updated: Iterable[str],
                 truth: Iterable[str]) -> tuple[float, float, float]:
    """Exact-string precision/recall/F1 over the two sets of variables,
    each with its whitespace runs folded to one space.

    Both sets empty counts as a perfect (1,1,1); an empty side against a
    non-empty one scores 0 for the undefined ratio.
    """
    updated_set = {_normalize_var(v) for v in updated}
    truth_set = {_normalize_var(v) for v in truth}
    if not updated_set and not truth_set:
        return (1.0, 1.0, 1.0)
    overlap = len(updated_set & truth_set)
    precision = _safe_div(overlap, len(updated_set))
    recall = _safe_div(overlap, len(truth_set))
    f1 = _safe_div(2 * precision * recall, precision + recall)
    return (precision, recall, f1)


# ---------------------------------------------------------------------------
# Improvement coefficient
# ---------------------------------------------------------------------------
def improvement_coefficient(m_origin: float, m_updated: float) -> float:
    """Fraction of the maximum possible improvement that was achieved:
    (m_updated - m_origin) / (1 - m_origin). Negative for regressions."""
    if m_origin > 1.0:
        raise ValueError(f"m_origin must be <= 1, got {m_origin}")
    if m_origin == 1.0:
        if m_updated == 1.0:
            return 0.0
        raise DegenerateOrigin(
            f"origin already scored 1.0 but update scored {m_updated}")
    return (m_updated - m_origin) / (1.0 - m_origin)


def origin_for(m_updated: float, ic: float) -> float:
    """Inverse of improvement_coefficient in its first argument: the origin
    score that yields `ic` given the updated score."""
    if ic == 1.0:
        raise ValueError("ic = 1 does not determine a unique origin")
    return (m_updated - ic) / (1.0 - ic)


# ---------------------------------------------------------------------------
# Update evaluation battery
# ---------------------------------------------------------------------------
UPDATE_METRIC_NAMES: tuple[str, ...] = (
    "bleu-1", "bleu-2", "bleu-4",
    "rouge-1", "rouge-2", "rouge-l",
    "var-precision", "var-recall", "var-f1",
)


def static_text_tokens(stmt: LoggingStatement) -> list[str]:
    """Static text with placeholder markers cut out, segmented into
    lowercase sub-word tokens."""
    text = stmt.static_text
    pieces: list[str] = []
    pos = 0
    for ph in sorted(stmt.placeholders, key=lambda p: p.offset):
        end = ph.offset + len(ph.text)
        if ph.offset > pos:
            pieces.append(text[pos:ph.offset])
        pos = max(pos, end)
    pieces.append(text[pos:])
    return split_tokens(" ".join(piece for piece in pieces if piece))


def _ic_or_none(m_origin: float, m_updated: float) -> float | None:
    try:
        return improvement_coefficient(m_origin, m_updated)
    except DegenerateOrigin:
        return None


def evaluate_update(
    original: LoggingStatement,
    updated: LoggingStatement | None,
    truth: LoggingStatement,
) -> list[tuple[float, float]]:
    """Score an update against ground truth: the (origin, updated) score
    pair of each metric in UPDATE_METRIC_NAMES order, six on the static
    text and three on the variable sets.

    `updated=None` (no rewrite produced) scores the update as the unchanged
    original.
    """
    ref = static_text_tokens(truth)

    def scores(stmt: LoggingStatement) -> list[float]:
        """`stmt`'s score on each metric, in UPDATE_METRIC_NAMES order."""
        tokens = static_text_tokens(stmt)
        return [bleu_k(tokens, ref, 1), bleu_k(tokens, ref, 2),
                bleu_k(tokens, ref, 4), rouge_k(tokens, ref, 1),
                rouge_k(tokens, ref, 2), rouge_l(tokens, ref),
                *variable_prf(stmt.variables, truth.variables)]

    origin = scores(original)
    return list(zip(origin, origin if updated is None else scores(updated)))


def aggregate_update_records(
    per_sample: list[list[tuple[float, float]]],
) -> dict[str, dict[str, float | None]]:
    """Mean before/after per metric, plus both IC variants: the mean of
    per-sample ICs (samples with a degenerate origin left out) and the IC
    of the mean scores (headline)."""
    out: dict[str, dict[str, float | None]] = {}
    for name, column in zip(UPDATE_METRIC_NAMES, zip(*per_sample)):
        mean_origin = sum(origin for origin, _ in column) / len(column)
        mean_updated = sum(updated for _, updated in column) / len(column)
        ics = [ic for ic in (_ic_or_none(*pair) for pair in column)
               if ic is not None]
        out[name] = {
            "mean_origin": mean_origin,
            "mean_updated": mean_updated,
            "mean_ic": sum(ics) / len(ics) if ics else None,
            "ic_of_means": _ic_or_none(mean_origin, mean_updated),
            "samples": float(len(column)),
        }
    return out
