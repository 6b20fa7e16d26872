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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

CAPS_MARKER = "<caps>"

# One pass over the text. A word is a run of ASCII letters, digits and "_";
# its sub-words are the camelCase / letter-digit pieces between the "_"s.
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


def split_tokens(text: str) -> list[str]:
    """Segment arbitrary source text into sub-word and punctuation tokens.

    Sub-words are lowercased; other characters, non-ASCII ones included,
    are kept as they are."""
    return [CAPS_MARKER if not piece
            else piece.lower() if piece.isascii() else piece
            for piece in _TOKEN_RE.findall(text)]


def _bucket_hash(token: str) -> int:
    # crc32 rather than hash(): stable across processes and runs.
    return zlib.crc32(token.encode("utf-8"))


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-id map plus a set of overflow buckets for unseen tokens."""

    token_to_id: dict[str, int]
    oov_buckets: int
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        for key in ("oov_buckets", "max_tokens"):
            if getattr(self, key) < 1:
                raise ValueError(f"Vocabulary.{key} must be >= 1, "
                                 f"got {getattr(self, key)}")

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
    ids: tuple[int, ...]
    truncated: bool


def fit_vocabulary(texts: Iterable[str], max_size: int = 4096,
                   oov_buckets: int = 32, max_tokens: int = 1024,
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
        max_tokens=max_tokens,
    )
    ids = [vocab.id_of(tok) for tok in first_seen]
    return vocab, [
        TokenSequence(ids=tuple(ids[i] for i in indices[:max_tokens]),
                      truncated=len(indices) > max_tokens)
        for indices in index_lists]


def tokenize(text: str, vocab: Vocabulary, max_tokens: int | None = None) -> TokenSequence:
    """Segment, map through the vocabulary, and truncate to max_tokens."""
    limit = vocab.max_tokens if max_tokens is None else max_tokens
    toks = split_tokens(text)
    known = vocab.token_to_id.get
    return TokenSequence(
        ids=tuple([i if (i := known(t)) is not None else vocab.id_of(t)
                   for t in toks[:limit]]),
        truncated=len(toks) > limit,
    )
