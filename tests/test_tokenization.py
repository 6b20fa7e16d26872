"""Sub-word segmentation, casing markers, and vocabulary behavior."""

import re
import time

import pytest

from conftest import FIXTURES, fuzz_texts
from logfix.tokenization import (
    CAPS_MARKER,
    Vocabulary,
    fit_vocabulary,
    split_tokens,
    tokenize,
)


def test_split_tokens_camel_snake_and_digits():
    assert split_tokens("fooBarBaz") == ["foo", "bar", "baz"]
    assert split_tokens("foo_bar") == ["foo", "bar"]
    assert split_tokens("maxRetries3") == ["max", "retries", "3"]
    assert split_tokens("HTTPServer") == ["http", "server"]
    assert split_tokens("x") == ["x"]


# The segmentation as first written: a Python loop over each word and each
# character between words. split_tokens must give exactly its tokens.
_REF_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_REF_SUBWORD_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def _reference_split_subwords(word: str) -> list[str]:
    out: list[str] = []
    for chunk in word.split("_"):
        for m in _REF_SUBWORD_RE.finditer(chunk):
            out.append(m.group().lower())
    return out


def _reference_split_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    for m in _REF_WORD_RE.finditer(text):
        for ch in text[pos:m.start()]:
            if not ch.isspace():
                tokens.append(ch)
        word = m.group()
        if len(word) >= 2 and word.isupper():
            tokens.append(CAPS_MARKER)
        tokens.extend(_reference_split_subwords(word))
        pos = m.end()
    for ch in text[pos:]:
        if not ch.isspace():
            tokens.append(ch)
    return tokens


def _segmentation_texts() -> list[str]:
    texts = list(fuzz_texts(10_000))
    fixtures = sorted(FIXTURES.rglob("*.java"))
    assert len(fixtures) >= 50
    texts.extend(path.read_text(encoding="utf-8") for path in fixtures)
    # casing and word-boundary corners, and each of the first 12,288 code
    # points alone and inside a word (non-ASCII letters and case, Unicode
    # spaces, control characters)
    texts.extend(["_AB x", "A_", "a_B", "AB1", "1A", "__", "A1", "fooBAR",
                  "fooBARBaz", "IO.x", "X_y", "ÀB", "BÀ", "\u0130x"])
    texts.extend(chr(c) for c in range(0x3000))
    texts.extend(f"aB{chr(c)}CD" for c in range(0x3000))
    return texts


def test_split_tokens_matches_the_reference_segmentation():
    for text in _segmentation_texts():
        assert split_tokens(text) == _reference_split_tokens(text), text


def test_tokenize_ids_are_the_vocabulary_ids_of_the_tokens():
    texts = list(fuzz_texts(2_000))
    # a small vocabulary, so most texts hold out-of-vocabulary tokens
    vocab, _ = fit_vocabulary(texts[:200], max_size=40, oov_buckets=7,
                              max_tokens=25)
    for text in texts:
        tokens = split_tokens(text)
        seq = tokenize(text, vocab)
        assert seq.ids == tuple(vocab.id_of(t) for t in tokens[:25]), text
        assert seq.truncated == (len(tokens) > 25)


def test_split_tokens_is_linear_on_long_words():
    # one 30,000-character word of letters and digits, and one literal-like
    # run of mixed case; both take milliseconds
    for text in ("a1" * 15_000, '"' + "aB3x" * 7_500 + '"'):
        began = time.perf_counter()
        tokens = split_tokens(text)
        assert time.perf_counter() - began < 0.5
        assert tokens == _reference_split_tokens(text)


def test_split_tokens_marks_fully_uppercase_words():
    assert split_tokens("parsing URL now") == ["parsing", CAPS_MARKER, "url", "now"]
    assert split_tokens("IO") == [CAPS_MARKER, "io"]
    # single letters never get the marker
    assert split_tokens("A b") == ["a", "b"]


def test_split_tokens_keeps_punctuation_as_single_tokens():
    assert split_tokens('log.info("x {} y", id);') == [
        "log", ".", "info", "(", '"', "x", "{", "}", "y", '"', ",",
        "id", ")", ";",
    ]


def test_split_tokens_empty_and_whitespace_only():
    assert split_tokens("") == []
    assert split_tokens("  \n\t ") == []


def test_split_tokens_trailing_punctuation_after_last_word():
    assert split_tokens("done!!") == ["done", "!", "!"]


def test_fit_vocabulary_ranks_by_frequency_then_alphabetically():
    vocab, _ = fit_vocabulary(["b b a a c"])
    # a and b tie at 2, alphabetical order puts a first; c trails at 1
    assert vocab.token_to_id == {"a": 0, "b": 1, "c": 2}


def test_fit_vocabulary_respects_max_size():
    vocab, _ = fit_vocabulary(["b b a a c"], max_size=2)
    assert vocab.token_to_id == {"a": 0, "b": 1}


def test_vocabulary_size_includes_oov_buckets():
    vocab, _ = fit_vocabulary(["alpha beta"], oov_buckets=8)
    assert vocab.size == len(vocab.token_to_id) + 8


def test_oov_ids_are_stable_and_live_after_known_tokens():
    vocab, _ = fit_vocabulary(["alpha beta"], oov_buckets=8)
    known = len(vocab.token_to_id)
    first = vocab.id_of("gamma")
    assert known <= first < vocab.size
    assert vocab.id_of("gamma") == first
    # a second construction gives the same bucket (hash is process-stable)
    again, _ = fit_vocabulary(["alpha beta"], oov_buckets=8)
    assert again.id_of("gamma") == first


def test_known_tokens_resolve_to_their_rank():
    vocab = Vocabulary(token_to_id={"x": 0, "y": 1}, oov_buckets=4)
    assert vocab.id_of("x") == 0
    assert vocab.id_of("y") == 1


@pytest.mark.parametrize("key", ["oov_buckets", "max_tokens"])
def test_a_vocabulary_needs_a_bucket_and_a_token(key):
    # with no bucket, an unknown token would divide by zero in `id_of`
    with pytest.raises(ValueError, match=f"Vocabulary.{key} must be >= 1"):
        Vocabulary(token_to_id={"x": 0}, **{"oov_buckets": 4, key: 0})


def test_tokenize_truncates_and_flags():
    vocab, _ = fit_vocabulary(["a b c d e"], max_tokens=3)
    seq = tokenize("a b c d e", vocab)
    assert seq.truncated
    assert len(seq.ids) == 3
    assert not tokenize("a b", vocab).truncated
    # an explicit limit overrides the vocabulary default
    full = tokenize("a b c d e", vocab, max_tokens=10)
    assert not full.truncated
    assert len(full.ids) == 5


def test_tokenize_empty_text():
    vocab, _ = fit_vocabulary(["a"])
    seq = tokenize("", vocab)
    assert seq.ids == ()
    assert not seq.truncated


def test_fit_vocabulary_sequences_are_tokenize_through_it():
    texts = ["LOG.info(\"Starting worker {}\", id);", "b b a a c",
             "void run() { log.warn(\"retrying\"); }", ""]
    vocab, seqs = fit_vocabulary(texts, max_size=6, oov_buckets=4,
                                 max_tokens=5)
    assert (vocab.oov_buckets, vocab.max_tokens) == (4, 5)
    assert len(vocab.token_to_id) == 6
    assert seqs == [tokenize(text, vocab) for text in texts]
    assert [seq.truncated for seq in seqs] == [True, False, True, False]
