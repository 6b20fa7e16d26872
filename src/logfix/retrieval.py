"""BM25 retrieval of historical logging changes to use as repair exemplars."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import DefectLabel, LogCentricChange, LoggingStatement
from .tokenization import split_tokens

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Defect types whose fixes tend to follow project-local conventions are
# retrieved from the target's own project only; the semantic types may
# borrow patterns from any project.
SAME_PROJECT_LABELS = frozenset(
    {DefectLabel.TEMPORAL, DefectLabel.READABILITY})


class UnknownDocument(KeyError):
    """The document id is not in the index."""


class EmptyPool(LookupError):
    """No candidate changes remain after scoping; callers fall back to
    zero-exemplar prompting."""


@dataclass
class Bm25Index:
    """Okapi BM25 over one pool of changes. `postings` maps each term to
    the ascending positions of the documents holding it and, per document,
    the term's whole contribution idf·tf·(k1+1)/(tf+norm) to its score."""

    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    changes: list[LogCentricChange] = field(default_factory=list)
    doc_lengths: list[int] = field(default_factory=list)
    doc_freq: dict[str, int] = field(default_factory=dict)
    avg_length: float = 0.0
    postings: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    # each position's rank in (commit_id, change_id, position) order, which
    # breaks score ties
    tie_rank: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.intp))
    _position: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.changes)

    def idf(self, token: str) -> float:
        df = self.doc_freq.get(token, 0)
        return math.log((self.size - df + 0.5) / (df + 0.5) + 1.0)


def query_tokens(text: str) -> list[str]:
    """Tokenization used on both the indexed documents and queries."""
    return split_tokens(text)


def build_index(lccs: Sequence[LogCentricChange], k1: float = DEFAULT_K1,
                b: float = DEFAULT_B,
                tokens: Sequence[list[str]] | None = None) -> Bm25Index:
    """Index every change by its before-statement text (the query side is a
    defective statement, so symmetry puts like with like). `tokens`, when
    given, holds each change's `query_tokens` of that text, in order."""
    # Outside these bounds a term weight can turn negative or divide by zero.
    if k1 < 0:
        raise ValueError(f"BM25 k1 must be >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"BM25 b must lie in [0, 1], got {b}")
    index = Bm25Index(k1=k1, b=b, changes=list(lccs))
    if tokens is None:
        tokens = [query_tokens(c.before.raw_text) for c in index.changes]
    doc_counts = []
    for position, (change, doc) in enumerate(zip(index.changes, tokens)):
        counts = Counter(doc)
        index._position[change.change_id] = position
        doc_counts.append(counts)
        index.doc_lengths.append(len(doc))
        for token in counts:
            index.doc_freq[token] = index.doc_freq.get(token, 0) + 1
    if index.changes:
        index.avg_length = sum(index.doc_lengths) / len(index.changes)
    avg = index.avg_length or 1.0
    idf = {token: index.idf(token) for token in index.doc_freq}
    postings: dict[str, tuple[list[int], list[float]]] = {}
    for position, counts in enumerate(doc_counts):
        length = index.doc_lengths[position]
        norm = k1 * (1.0 - b + b * length / avg)
        for token, tf in counts.items():
            positions, weights = postings.setdefault(token, ([], []))
            positions.append(position)
            weights.append(idf[token] * tf * (k1 + 1.0) / (tf + norm))
    index.postings = {
        token: (np.array(positions, dtype=np.intp),
                np.array(weights, dtype=np.float64))
        for token, (positions, weights) in postings.items()}
    order = sorted(range(index.size), key=lambda p: (
        index.changes[p].commit_id, index.changes[p].change_id))
    index.tie_rank = np.empty(index.size, dtype=np.intp)
    index.tie_rank[order] = np.arange(index.size)
    return index


def bm25_score(query: str | list[str], doc_id: str, index: Bm25Index) -> float:
    """Okapi BM25 score of one document for the query; every query-token
    occurrence contributes its term's weight."""
    if doc_id not in index._position:
        raise UnknownDocument(doc_id)
    position = index._position[doc_id]
    tokens = query_tokens(query) if isinstance(query, str) else query
    score = 0.0
    for token in tokens:
        if token not in index.postings:
            continue
        positions, weights = index.postings[token]
        at = int(np.searchsorted(positions, position))
        if at < len(positions) and positions[at] == position:
            score += float(weights[at])
    return score


@dataclass(frozen=True)
class ExemplarPool:
    """The BM25 indexes that exemplar selection ranks in: one over every
    change, and one per project over that project's changes. Each scope has
    its own idf and average length. Read-only once built, so threads may
    share one pool."""

    all_projects: Bm25Index
    by_project: dict[str, Bm25Index]


def build_pool(lccs: Sequence[LogCentricChange], k1: float = DEFAULT_K1,
               b: float = DEFAULT_B) -> ExemplarPool:
    """Index every retrieval scope of `lccs` once; each change is tokenized
    once for all of its scopes."""
    tokens = [query_tokens(c.before.raw_text) for c in lccs]
    projects: dict[str, tuple[list[LogCentricChange], list[list[str]]]] = {}
    for change, doc in zip(lccs, tokens):
        changes, docs = projects.setdefault(change.project_id, ([], []))
        changes.append(change)
        docs.append(doc)
    return ExemplarPool(
        all_projects=build_index(lccs, k1, b, tokens),
        by_project={project: build_index(changes, k1, b, docs)
                    for project, (changes, docs) in projects.items()},
    )


def select_exemplars(
    target: LoggingStatement,
    label: DefectLabel,
    pool: ExemplarPool | Sequence[LogCentricChange],
    k: int = 3,
    *,
    project_id: str | None = None,
) -> list[LogCentricChange]:
    """Top-k changes most similar to the target statement.

    TEMPORAL and READABILITY targets only see changes from `project_id`
    (their fixes are project-convention-bound); the other defect types rank
    the whole corpus. Ties break by commit id, then change id. A plain
    sequence of changes is indexed on the spot with the default k1 and b;
    callers that select many times pass one `build_pool` result instead.
    """
    if label is DefectLabel.NON_DEFECT:
        raise ValueError("exemplar selection needs a defect label")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if label in SAME_PROJECT_LABELS and project_id is None:
        raise ValueError(
            f"{label.value} scoping needs the target's project_id")
    if not isinstance(pool, ExemplarPool):
        pool = build_pool(pool)
    if label in SAME_PROJECT_LABELS:
        index = pool.by_project.get(project_id)
    else:
        index = pool.all_projects
    if index is None or index.size == 0:
        raise EmptyPool(
            f"no candidate changes in scope for {label.value}")
    # One addition per (query token, document) in query-token order, as
    # bm25_score does, so the scores equal its scores bit for bit.
    scores = np.zeros(index.size)
    for token in query_tokens(target.raw_text):
        if token in index.postings:
            positions, weights = index.postings[token]
            scores[positions] += weights
    ranked = np.lexsort((index.tie_rank, -scores))[:k]
    return [index.changes[p] for p in ranked]
