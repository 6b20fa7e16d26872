"""Tests for BM25 indexing, scoring, and type-aware exemplar selection."""
from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest

from conftest import make_change, statement_of
from logfix.model import DefectLabel
from logfix.retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    EmptyPool,
    SAME_PROJECT_LABELS,
    UnknownDocument,
    bm25_score,
    build_index,
    build_pool,
    query_tokens,
    select_exemplars,
)

DOC_TEXTS = [
    'log.info("starting worker {}", id);',
    'log.warn("worker {} failed", id);',
    'log.info("connection closed by {}", peer);',
    'log.debug("retrying connection to {}", host);',
]


def make_pool(texts=DOC_TEXTS, project="proj"):
    return [
        make_change(project, f"c{i}", text, 'log.info("fixed");')
        for i, text in enumerate(texts)
    ]


def brute_force_score(query: str, doc_text: str, pool_texts: list[str],
                      k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    docs = [query_tokens(t) for t in pool_texts]
    counts = Counter(query_tokens(doc_text))
    length = len(query_tokens(doc_text))
    avg = sum(len(d) for d in docs) / len(docs)
    n = len(docs)
    score = 0.0
    for token in query_tokens(query):
        tf = counts.get(token, 0)
        if tf == 0:
            continue
        df = sum(1 for d in docs if token in d)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg))
    return score


class TestIndex:
    def test_statistics(self):
        pool = make_pool()
        index = build_index(pool)
        assert index.size == 4
        assert index.avg_length == pytest.approx(
            sum(len(query_tokens(t)) for t in DOC_TEXTS) / 4
        )
        # "worker" appears in two documents, "log" in all four.
        assert index.doc_freq["worker"] == 2
        assert index.doc_freq["log"] == 4

    def test_empty_index(self):
        index = build_index([])
        assert index.size == 0
        assert index.avg_length == 0.0


class TestScoring:
    def test_matches_brute_force_formula(self):
        pool = make_pool()
        index = build_index(pool)
        queries = [
            'log.info("starting worker {}", id);',
            "worker connection",
            'logger.error("nothing in common");',
        ]
        for query in queries:
            for change, text in zip(pool, DOC_TEXTS):
                assert bm25_score(query, change.change_id, index) == (
                    pytest.approx(
                        brute_force_score(query, text, DOC_TEXTS), abs=1e-9
                    )
                )

    def test_no_overlap_scores_zero(self):
        pool = make_pool()
        index = build_index(pool)
        assert bm25_score("zqx vbn", pool[0].change_id, index) == 0.0

    def test_query_may_be_pretokenized(self):
        pool = make_pool()
        index = build_index(pool)
        doc_id = pool[1].change_id
        text = "worker failed again"
        assert bm25_score(text, doc_id, index) == pytest.approx(
            bm25_score(query_tokens(text), doc_id, index)
        )

    def test_repeated_query_token_counts_each_occurrence(self):
        pool = make_pool()
        index = build_index(pool)
        doc_id = pool[0].change_id
        single = bm25_score(["worker"], doc_id, index)
        double = bm25_score(["worker", "worker"], doc_id, index)
        assert double == pytest.approx(2 * single)

    def test_unknown_document(self):
        index = build_index(make_pool())
        with pytest.raises(UnknownDocument):
            bm25_score("worker", "not-a-doc-id", index)


class TestSelectExemplars:
    def test_ranks_most_similar_first(self):
        pool = make_pool()
        target = statement_of('log.info("starting worker {}", job);')
        chosen = select_exemplars(target, DefectLabel.STATEMENT_CODE, pool, k=2)
        assert chosen[0] is pool[0]
        assert len(chosen) == 2

    def test_k_truncates_and_may_exceed_pool(self):
        pool = make_pool()
        target = statement_of('log.info("worker");')
        assert len(select_exemplars(
            target, DefectLabel.STATEMENT_CODE, pool, k=1)) == 1
        assert len(select_exemplars(
            target, DefectLabel.STATEMENT_CODE, pool, k=50)) == len(pool)

    def test_ties_break_by_commit_then_change_id(self):
        # Four identical documents score identically; ordering must then be
        # lexicographic by (commit_id, change_id).
        text = 'log.info("same text");'
        pool = [
            make_change("proj", commit, text, 'log.info("fixed");')
            for commit in ("c-delta", "c-alpha", "c-charlie", "c-bravo")
        ]
        target = statement_of(text)
        chosen = select_exemplars(target, DefectLabel.STATIC_DYNAMIC, pool, k=4)
        assert [c.commit_id for c in chosen] == [
            "c-alpha", "c-bravo", "c-charlie", "c-delta",
        ]

    def test_same_project_scoping(self):
        ours = make_pool(project="ours")
        theirs = make_pool(
            ['log.info("starting worker {}", id);'] * 3, project="theirs"
        )
        target = statement_of('log.info("starting worker {}", id);')
        for label in sorted(SAME_PROJECT_LABELS, key=lambda l: l.value):
            chosen = select_exemplars(
                target, label, ours + theirs, k=10, project_id="ours"
            )
            assert chosen
            assert all(c.project_id == "ours" for c in chosen)

    def test_semantic_labels_search_all_projects(self):
        ours = make_pool(project="ours")
        theirs = make_pool(project="theirs")
        target = statement_of('log.info("starting worker {}", id);')
        chosen = select_exemplars(
            target, DefectLabel.STATEMENT_CODE, ours + theirs, k=10,
            project_id="ours",
        )
        assert {c.project_id for c in chosen} == {"ours", "theirs"}

    def test_scoped_labels_require_project_id(self):
        pool = make_pool()
        target = statement_of('log.info("x");')
        with pytest.raises(ValueError):
            select_exemplars(target, DefectLabel.TEMPORAL, pool, k=3)
        # An empty-string project id is a value, odd though it is.
        with pytest.raises(EmptyPool):
            select_exemplars(
                target, DefectLabel.TEMPORAL, pool, k=3, project_id=""
            )

    def test_rejects_non_defect_and_bad_k(self):
        pool = make_pool()
        target = statement_of('log.info("x");')
        with pytest.raises(ValueError):
            select_exemplars(target, DefectLabel.NON_DEFECT, pool, k=3)
        with pytest.raises(ValueError):
            select_exemplars(target, DefectLabel.READABILITY, pool, k=0,
                             project_id="proj")

    def test_empty_pool(self):
        target = statement_of('log.info("x");')
        with pytest.raises(EmptyPool):
            select_exemplars(target, DefectLabel.STATEMENT_CODE, [], k=3)

    def test_bm25_parameters_outside_their_range_are_rejected(self):
        with pytest.raises(ValueError):
            build_index(make_pool(), k1=-0.1)
        for b in (-0.1, 1.5):
            with pytest.raises(ValueError):
                build_pool(make_pool(), b=b)


# ---------------------------------------------------------------------------
# Reference: BM25 and exemplar selection as they were before postings and
# build_pool, rebuilding the scoped index for every query and scoring every
# document of the scope from its raw term counts.
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class ReferenceIndex:
    k1: float
    b: float
    doc_ids: list = dataclasses.field(default_factory=list)
    doc_tokens: list = dataclasses.field(default_factory=list)
    doc_lengths: list = dataclasses.field(default_factory=list)
    doc_freq: dict = dataclasses.field(default_factory=dict)
    avg_length: float = 0.0
    position: dict = dataclasses.field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.doc_ids)

    def idf(self, token: str) -> float:
        df = self.doc_freq.get(token, 0)
        return math.log((self.size - df + 0.5) / (df + 0.5) + 1.0)


def reference_build_index(lccs, k1, b) -> ReferenceIndex:
    index = ReferenceIndex(k1=k1, b=b)
    total = 0
    for change in lccs:
        tokens = query_tokens(change.before.raw_text)
        counts = Counter(tokens)
        doc_id = change.change_id
        index.position[doc_id] = len(index.doc_ids)
        index.doc_ids.append(doc_id)
        index.doc_tokens.append(counts)
        index.doc_lengths.append(len(tokens))
        total += len(tokens)
        for token in counts:
            index.doc_freq[token] = index.doc_freq.get(token, 0) + 1
    index.avg_length = total / len(index.doc_ids) if index.doc_ids else 0.0
    return index


def reference_bm25_score(tokens, doc_id, index: ReferenceIndex) -> float:
    position = index.position[doc_id]
    counts = index.doc_tokens[position]
    length = index.doc_lengths[position]
    avg = index.avg_length or 1.0
    norm = index.k1 * (1.0 - index.b + index.b * length / avg)
    score = 0.0
    for token in tokens:
        tf = counts.get(token, 0)
        if tf == 0:
            continue
        score += index.idf(token) * tf * (index.k1 + 1.0) / (tf + norm)
    return score


def reference_select_exemplars(target, label, lccs, k, *, project_id,
                               k1, b):
    if label in SAME_PROJECT_LABELS:
        pool = [c for c in lccs if c.project_id == project_id]
    else:
        pool = list(lccs)
    if not pool:
        raise EmptyPool(label.value)
    index = reference_build_index(pool, k1, b)
    tokens = query_tokens(target.raw_text)
    scored = [
        (reference_bm25_score(tokens, change.change_id, index), change)
        for change in pool
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1].commit_id,
                                  pair[1].change_id))
    return [change for _, change in scored[:k]]


WORDS = ("worker", "started", "stopped", "cache", "miss", "retrying",
         "fetch", "channel", "closed", "queue", "depth", "flushed")


def seeded_changes(seed: int) -> list:
    """Two projects of random statements. Some before-texts repeat (score
    ties, within and across projects), and some changes are exact copies
    (equal change ids)."""
    rng = random.Random(seed)
    texts = []
    for _ in range(24):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))
        args = ", id" * rng.randint(0, 2)
        texts.append(f'log.{rng.choice(["info", "warn", "debug"])}'
                     f'("{words}"{args});')
    changes = []
    for i in range(60):
        project = rng.choice(["alpha", "beta"])
        text = rng.choice(texts[:8]) if i % 4 == 0 else rng.choice(texts)
        changes.append(make_change(project, f"c{rng.randint(0, 30):02d}",
                                   text, 'log.info("fixed");'))
    changes += [changes[3], changes[10]]
    rng.shuffle(changes)
    return changes


@pytest.mark.parametrize("k1,b", [(DEFAULT_K1, DEFAULT_B), (2.0, 0.0),
                                  (0.0, 1.0)])
def test_pool_selection_equals_the_per_query_rebuild(k1, b):
    changes = seeded_changes(20241017)
    pool = build_pool(changes, k1=k1, b=b)
    scope_sizes = Counter(c.project_id for c in changes)
    assert set(scope_sizes) == {"alpha", "beta"}
    queries = [c.before for c in changes[:20]]
    queries.append(statement_of('log.info("worker {} cache", id);'))
    # no token in common with any indexed statement
    queries.append(dataclasses.replace(queries[0], raw_text="zqx vbn"))
    labels = sorted(set(DefectLabel) - {DefectLabel.NON_DEFECT},
                    key=lambda label: label.value)
    assert len(labels) == 4
    for target in queries:
        for label in labels:
            for project in ("alpha", "beta"):
                ranking = reference_select_exemplars(
                    target, label, changes, len(changes), project_id=project,
                    k1=k1, b=b)
                for k in (1, 3, scope_sizes[project] + 5, len(changes) + 5):
                    got = select_exemplars(target, label, pool, k,
                                           project_id=project)
                    want = ranking[:k]
                    assert len(got) == len(want)
                    assert all(g is w for g, w in zip(got, want))


def test_stored_weights_sum_to_the_reference_score_exactly():
    changes = seeded_changes(7)
    index = build_index(changes)
    reference = reference_build_index(changes, DEFAULT_K1, DEFAULT_B)
    for query in [c.before.raw_text for c in changes[:10]] + ["zqx vbn"]:
        tokens = query_tokens(query)
        for change in changes:
            assert (bm25_score(tokens, change.change_id, index)
                    == reference_bm25_score(tokens, change.change_id,
                                            reference))
