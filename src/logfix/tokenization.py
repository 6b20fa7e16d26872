"""Code-aware text segmentation shared by the detector and retrieval.

Splits on whitespace and punctuation, then splits identifiers into
camelCase / snake_case / letter-digit sub-words, lowercased. A sentinel
token is inserted before fully-uppercase words so casing abuse survives the
lowercasing (mean pooling only sees the bag of tokens).
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

CAPS_MARKER = "<caps>"
# Tokens kept per text; `TrainConfig.max_tokens` defaults to it too.
DEFAULT_MAX_TOKENS = 1024

# One pass over a word of `_WORD_RE` below (over a whole text it gives the
# same tokens). A word is a run of ASCII letters, digits and "_"; its
# sub-words are the camelCase / letter-digit pieces between the "_"s.
_TOKEN_RE = re.compile(
    # the caps marker: an empty match where a word of two or more characters
    # starts that has an uppercase letter and no lowercase one (tried only
    # at a word's start, so each word is read a bounded number of times)
    r"(?<![A-Za-z0-9_])(?=[A-Za-z0-9_]{2})"
    r"(?=[0-9_]*[A-Z][A-Z0-9_]*(?![A-Za-z0-9_]))"
    # sub-words: an acronym (up to the capital that starts the next piece),
    # a capitalized or lowercase piece, or a number
    r"|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+"
    # any other non-space character is a token of its own
    r"|[^\sA-Za-z0-9_]")


# A text's words, each a run of ASCII letters, digits and "_" or one other
# non-space character; `_TOKEN_RE` never matches across their edges, so a
# text's tokens are its words' tokens, in order.
_WORD_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")

# Each memo keeps up to MEMO_WORDS words of at most MEMO_WORD_CHARS
# characters; a longer word, or one that comes once the memo is full, is
# worked out again at each occurrence. (Threads that miss at once may each
# add a word past the bound.)
MEMO_WORDS = 1 << 15
MEMO_WORD_CHARS = 64


class _WordMemo(dict):
    """A bounded memo of `compute(word)`; look words up with `[word]`."""

    def __init__(self, compute) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, word: str) -> tuple:
        value = self.compute(word)
        if len(word) <= MEMO_WORD_CHARS and len(self) < MEMO_WORDS:
            self[word] = value
        return value


def _words(text: str) -> list[str]:
    """The words of `text`: the one place a text is split, for both
    `split_tokens` and `tokenize`."""
    return _WORD_RE.findall(text)


def _segment(word: str) -> tuple[str, ...]:
    return tuple(CAPS_MARKER if not piece
                 else piece.lower() if piece.isascii() else piece
                 for piece in _TOKEN_RE.findall(word))


_SEGMENTS = _WordMemo(_segment)


def split_tokens(text: str) -> list[str]:
    """Segment arbitrary source text into sub-word and punctuation tokens.

    Sub-words are lowercased; other characters, non-ASCII ones included,
    are kept as they are. Each distinct word is segmented once (`_SEGMENTS`)."""
    return list(chain.from_iterable(map(_SEGMENTS.__getitem__, _words(text))))


def _bucket_hash(token: str) -> int:
    # crc32 rather than hash(): stable across processes and runs.
    return zlib.crc32(token.encode("utf-8"))


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id map plus a set of overflow buckets for unseen tokens."""

    token_to_id: dict[str, int]
    oov_buckets: int
    # each word's token ids, memoized for `tokenize`
    word_ids: _WordMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.oov_buckets < 1:
            raise ValueError(f"Vocabulary.oov_buckets must be >= 1, "
                             f"got {self.oov_buckets}")
        object.__setattr__(self, "word_ids", _WordMemo(
            lambda word: tuple(map(self.id_of, _SEGMENTS[word]))))

    @property
    def size(self) -> int:
        """Total id space: known tokens followed by the OOV buckets."""
        return len(self.token_to_id) + self.oov_buckets

    def id_of(self, token: str) -> int:
        known = self.token_to_id.get(token)
        if known is not None:
            return known
        return len(self.token_to_id) + _bucket_hash(token) % self.oov_buckets


@dataclass(frozen=True)
class TokenSequence:
    ids: np.ndarray  # np.intp, one per kept token
    truncated: bool


def fit_vocabulary(texts: Iterable[str], max_size: int = 4096,
                   oov_buckets: int = 32, max_tokens: int = DEFAULT_MAX_TOKENS,
                   ) -> tuple[Vocabulary, list[TokenSequence]]:
    """Frequency-ranked vocabulary over the segmentation of `texts`, and
    each text's `tokenize` through it; every text is segmented once.

    Ties break alphabetically so the same corpus always yields the same map.
    """
    # Every segmentation is held until the ranking is known, as indices
    # into `first_seen`: an occurrence then costs one pointer to a shared
    # int rather than a string object of its own (~50 bytes).
    first_seen: dict[str, int] = {}
    index_lists = [[first_seen.setdefault(tok, len(first_seen))
                    for tok in split_tokens(text)] for text in texts]
    counts = Counter(chain.from_iterable(index_lists))
    ranked = sorted(first_seen,
                    key=lambda tok: (-counts[first_seen[tok]], tok))[:max_size]
    vocab = Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(ranked)},
        oov_buckets=oov_buckets,
    )
    table = np.array([vocab.id_of(tok) for tok in first_seen], dtype=np.intp)
    return vocab, [TokenSequence(ids=table[indices[:max_tokens]],
                                 truncated=len(indices) > max_tokens)
                   for indices in index_lists]


def tokenize(text: str, vocab: Vocabulary, max_tokens: int) -> TokenSequence:
    """Segment, map through the vocabulary, and truncate to max_tokens."""
    ids = list(chain.from_iterable(map(vocab.word_ids.__getitem__,
                                       _words(text))))
    return TokenSequence(ids=np.array(ids[:max_tokens], dtype=np.intp),
                         truncated=len(ids) > max_tokens)
