"""Sub-word segmentation, casing markers, and vocabulary behavior."""

from logfix.tokenization import (
    CAPS_MARKER,
    Vocabulary,
    build_vocabulary,
    fit_vocabulary,
    split_subwords,
    split_tokens,
    tokenize,
)


def test_split_subwords_camel_snake_and_digits():
    assert split_subwords("fooBarBaz") == ["foo", "bar", "baz"]
    assert split_subwords("foo_bar") == ["foo", "bar"]
    assert split_subwords("maxRetries3") == ["max", "retries", "3"]
    assert split_subwords("HTTPServer") == ["http", "server"]
    assert split_subwords("x") == ["x"]


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


def test_build_vocabulary_ranks_by_frequency_then_alphabetically():
    vocab = build_vocabulary(["b b a a c"])
    # a and b tie at 2, alphabetical order puts a first; c trails at 1
    assert vocab.token_to_id == {"a": 0, "b": 1, "c": 2}


def test_build_vocabulary_respects_max_size():
    vocab = build_vocabulary(["b b a a c"], max_size=2)
    assert vocab.token_to_id == {"a": 0, "b": 1}


def test_vocabulary_size_includes_oov_buckets():
    vocab = build_vocabulary(["alpha beta"], oov_buckets=8)
    assert vocab.size == len(vocab.token_to_id) + 8


def test_oov_ids_are_stable_and_live_after_known_tokens():
    vocab = build_vocabulary(["alpha beta"], oov_buckets=8)
    known = len(vocab.token_to_id)
    first = vocab.id_of("gamma")
    assert known <= first < vocab.size
    assert vocab.id_of("gamma") == first
    # a second construction gives the same bucket (hash is process-stable)
    again = build_vocabulary(["alpha beta"], oov_buckets=8)
    assert again.id_of("gamma") == first


def test_known_tokens_resolve_to_their_rank():
    vocab = Vocabulary(token_to_id={"x": 0, "y": 1}, oov_buckets=4)
    assert vocab.id_of("x") == 0
    assert vocab.id_of("y") == 1


def test_tokenize_truncates_and_flags():
    vocab = build_vocabulary(["a b c d e"], max_tokens=3)
    seq = tokenize("a b c d e", vocab)
    assert seq.truncated
    assert len(seq.ids) == 3
    assert not tokenize("a b", vocab).truncated
    # an explicit limit overrides the vocabulary default
    full = tokenize("a b c d e", vocab, max_tokens=10)
    assert not full.truncated
    assert len(full.ids) == 5


def test_tokenize_empty_text():
    vocab = build_vocabulary(["a"])
    seq = tokenize("", vocab)
    assert seq.ids == ()
    assert not seq.truncated


def test_fit_vocabulary_equals_build_vocabulary_then_tokenize():
    texts = ["LOG.info(\"Starting worker {}\", id);", "b b a a c",
             "void run() { log.warn(\"retrying\"); }", ""]
    vocab, seqs = fit_vocabulary(texts, max_size=6, oov_buckets=4,
                                 max_tokens=5)
    assert vocab == build_vocabulary(texts, max_size=6, oov_buckets=4,
                                     max_tokens=5)
    assert seqs == [tokenize(text, vocab) for text in texts]
    assert [seq.truncated for seq in seqs] == [True, False, True, False]
