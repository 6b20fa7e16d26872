"""BM25 retrieval of historical logging changes to use as repair exemplars."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Bm25Index:
    """Okapi BM25 over one pool of changes. `postings` maps each term to
    the ascending positions of the documents holding it and, per document,
    the term's whole contribution idf·tf·(k1+1)/(tf+norm) to its score."""

    changes: list[LogCentricChange]
    postings: dict[str, tuple[np.ndarray, np.ndarray]]
    # each position's rank in (commit_id, change_id, position) order, which
    # breaks score ties
    tie_rank: np.ndarray


def build_index(lccs: Sequence[LogCentricChange], k1: float = DEFAULT_K1,
                b: float = DEFAULT_B,
                tokens: Sequence[list[str]] | None = None) -> Bm25Index:
    """Index every change by its before-statement text (the query side is a
    defective statement, so symmetry puts like with like). `tokens`, when
    given, holds each change's `split_tokens` of that text, in order."""
    # Outside these bounds a term weight can turn negative or divide by zero.
    # A NaN fails every comparison, so it fails these checks too.
    if not 0 <= k1 < math.inf:
        raise ValueError(f"BM25 k1 must be finite and >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"BM25 b must lie in [0, 1], got {b}")
    changes = list(lccs)
    size = len(changes)
    if tokens is None:
        tokens = [split_tokens(c.before.raw_text) for c in changes]
    doc_counts = [Counter(doc) for doc in tokens]
    doc_freq: dict[str, int] = {}
    for counts in doc_counts:
        for token in counts:
            doc_freq[token] = doc_freq.get(token, 0) + 1
    avg = (sum(map(len, tokens)) / size if size else 0) or 1.0
    idf = {token: math.log((size - df + 0.5) / (df + 0.5) + 1.0)
           for token, df in doc_freq.items()}
    postings: dict[str, tuple[list[int], list[float]]] = {}
    for position, (doc, counts) in enumerate(zip(tokens, doc_counts)):
        norm = k1 * (1.0 - b + b * len(doc) / avg)
        for token, tf in counts.items():
            positions, weights = postings.setdefault(token, ([], []))
            positions.append(position)
            weights.append(idf[token] * tf * (k1 + 1.0) / (tf + norm))
    order = sorted(range(size), key=lambda p: (changes[p].commit_id,
                                               changes[p].change_id))
    tie_rank = np.empty(size, dtype=np.intp)
    tie_rank[order] = np.arange(size)
    return Bm25Index(changes, {
        token: (np.array(positions, dtype=np.intp),
                np.array(weights, dtype=np.float64))
        for token, (positions, weights) in postings.items()}, tie_rank)


def bm25_score(query: str | list[str], doc_id: str, index: Bm25Index) -> float:
    """Okapi BM25 score of one document for the query; every query-token
    occurrence contributes its term's weight."""
    position = next((p for p, change in enumerate(index.changes)
                     if change.change_id == doc_id), None)
    if position is None:
        raise UnknownDocument(doc_id)
    tokens = split_tokens(query) if isinstance(query, str) else query
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
    tokens = [split_tokens(c.before.raw_text) for c in lccs]
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
    pool: ExemplarPool,
    k: int = 3,
    *,
    project_id: str | None = None,
) -> list[LogCentricChange]:
    """Top-k changes most similar to the target statement.

    TEMPORAL and READABILITY targets only see changes from `project_id`
    (their fixes are project-convention-bound); the other defect types rank
    the whole corpus. Ties break by commit id, then change id.
    """
    if label is DefectLabel.NON_DEFECT:
        raise ValueError("exemplar selection needs a defect label")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if label in SAME_PROJECT_LABELS and project_id is None:
        raise ValueError(
            f"{label.value} scoping needs the target's project_id")
    if label in SAME_PROJECT_LABELS:
        index = pool.by_project.get(project_id)
    else:
        index = pool.all_projects
    if index is None or not index.changes:
        raise EmptyPool(
            f"no candidate changes in scope for {label.value}")
    # One addition per (query token, document) in query-token order, as
    # bm25_score does, so the scores equal its scores bit for bit.
    scores = np.zeros(len(index.changes))
    for token in split_tokens(target.raw_text):
        if token in index.postings:
            positions, weights = index.postings[token]
            scores[positions] += weights
    ranked = np.lexsort((index.tie_rank, -scores))[:k]
    return [index.changes[p] for p in ranked]
