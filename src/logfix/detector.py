"""Defect classifier: a trainable token encoder plus a five-class head.

The encoder embeds sub-word tokens, mean-pools them, and projects the pooled
vector through two affine layers with a tanh in between. A statement and its
enclosing method are encoded with the same weights; the classifier head maps
the concatenated pair to class logits. Training minimizes cross-entropy minus
a scaled mean cosine between the two encodings (plus the same scale as an
offset so the objective stays non-negative), with Adam updates flowing into
every parameter including the embedding table.
"""

from __future__ import annotations

import base64
import json
import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .metrics import f1_macro
from .model import (
    LABEL_INDEX,
    LABELS,
    NUM_CLASSES,
    DefectLabel,
    LabeledSample,
    LoggingStatement,
    MethodContext,
    from_dict,
    read_json,
    to_dict,
)
from .tokenization import (DEFAULT_MAX_TOKENS, Vocabulary, fit_vocabulary,
                           tokenize)


class ClassUnderflow(ValueError):
    """A class lacks the samples needed for a stratified 8:1:1 split."""


class DegenerateVector(UserWarning):
    """A zero-norm encoding made the cosine term undefined (treated as 0)."""


PROB_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Model containers
# ---------------------------------------------------------------------------
@dataclass
class EncoderModel:
    vocabulary: Vocabulary
    embedding: np.ndarray  # (V, D)
    w1: np.ndarray         # (D, D)
    b1: np.ndarray         # (D,)
    w2: np.ndarray         # (D, D)
    b2: np.ndarray         # (D,)

    @property
    def dim(self) -> int:
        return int(self.embedding.shape[1])

    def parameters(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "w1": self.w1, "b1": self.b1,
                "w2": self.w2, "b2": self.b2}


@dataclass
class ClassifierHead:
    weight: np.ndarray  # (2D, C)
    bias: np.ndarray    # (C,)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"head_weight": self.weight, "head_bias": self.bias}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-5  # small scratch encoders converge faster at 1e-3..1e-2
    adam_epsilon: float = 1e-8
    dropout: float = 0.1
    epochs: int = 10
    alpha: float = 0.5
    max_tokens: int = DEFAULT_MAX_TOKENS
    batch_size: int = 32
    seed: int = 0
    dim: int = 128
    vocab_size: int = 4096

    def __post_init__(self) -> None:
        # each bound reads `not lo <= x < hi`, so that a NaN, which fails
        # every comparison, is rejected too
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, "
                             f"got {self.alpha}")
        for key in ("epochs", "batch_size", "dim", "max_tokens", "vocab_size"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for key in ("learning_rate", "adam_epsilon"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and > 0, "
                                 f"got {getattr(self, key)}")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class TrainingBatch:
    """Encoded batch: statement vectors l_i, context vectors s_i, one-hot
    labels, and the head's predicted probabilities."""

    statement_vectors: np.ndarray  # (N, D)
    context_vectors: np.ndarray    # (N, D)
    labels: np.ndarray             # (N, C) one-hot
    probabilities: np.ndarray      # (N, C)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------
def _cosine_rows(a: np.ndarray, b: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise cosines, a mask of rows where either side is zero-norm
    (those rows get cosine 0), and each side's row norms (1 on those rows)."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    degenerate = (na == 0.0) | (nb == 0.0)
    na = np.where(degenerate, 1.0, na)
    nb = np.where(degenerate, 1.0, nb)
    cos = np.where(degenerate, 0.0, np.einsum("ij,ij->i", a, b) / (na * nb))
    return cos, degenerate, na, nb


def composite_loss(batch: TrainingBatch, alpha: float) -> float:
    """Cross-entropy minus alpha times the mean statement/context cosine,
    plus alpha (so the optimum sits at zero, not at -alpha)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    p = np.maximum(batch.probabilities, PROB_FLOOR)
    n = p.shape[0]
    ce = -float(np.sum(batch.labels * np.log(p))) / n
    cos, degenerate, _, _ = _cosine_rows(batch.statement_vectors,
                                         batch.context_vectors)
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} of {n} samples have a zero-norm "
            "encoding; their cosine contributes 0",
            DegenerateVector, stacklevel=2)
    mean_cos = float(cos.mean())
    return ce - alpha * mean_cos + alpha


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------
def _project(model: EncoderModel, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = np.tanh(pooled @ model.w1 + model.b1)
    return hidden, hidden @ model.w2 + model.b2


def _bag(sequences: list[np.ndarray],
         rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean pooling as a matrix over the batch's distinct token ids, for
    id arrays whose ids lie below `rows`, the embedding's row count: `ids`
    in ascending order, and `bag` whose entry (i, j) is the count of
    `ids[j]` in sequence i divided by the sequence's length (an empty
    sequence gives a zero row). Pooling is `bag @ embedding[ids]`, and the
    embedding gradient is `bag.T @ d_pooled` in rows `ids`. The ids are
    found by marking them in a table of `rows` flags, not by sorting."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    flat = np.concatenate(sequences)
    seen = np.zeros(rows, dtype=bool)
    seen[flat] = True
    ids = np.flatnonzero(seen)
    column = np.empty(rows, dtype=np.intp)
    column[ids] = np.arange(len(ids))
    cells = np.repeat(np.arange(len(sequences)) * len(ids), lengths)
    counts = np.bincount(cells + column[flat],
                         minlength=len(sequences) * len(ids))
    return ids, (counts.reshape(len(sequences), len(ids))
                 / np.maximum(lengths, 1)[:, None])


def _pool(model: EncoderModel, stmts: list[np.ndarray],
          ctxs: list[np.ndarray],
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One bag over a batch's statements and then its contexts: the pooled
    statements, the pooled contexts, and the bag's ids and matrix."""
    ids, bag = _bag(stmts + ctxs, len(model.embedding))
    pooled = bag @ model.embedding[ids]
    return pooled[:len(stmts)], pooled[len(stmts):], ids, bag


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(model: EncoderModel, head: ClassifierHead,
             pooled_stmt: np.ndarray, pooled_ctx: np.ndarray):
    """Both encodings of a batch, each as (hidden layer, vector), then the
    concatenated vectors and the head's class probabilities."""
    stmt_enc = _project(model, pooled_stmt)
    ctx_enc = _project(model, pooled_ctx)
    concat = np.concatenate([stmt_enc[1], ctx_enc[1]], axis=1)
    return stmt_enc, ctx_enc, concat, _softmax(concat @ head.weight + head.bias)


def _classify(model: EncoderModel, head: ClassifierHead,
              pairs: Iterable[tuple[np.ndarray, np.ndarray]],
              chunk: int) -> Iterator[np.ndarray]:
    """Class probabilities of each (statement ids, context ids) pair, in
    order, pooled `chunk` pairs to a bag; one bag is held at a time."""
    pairs = iter(pairs)
    while batch := list(islice(pairs, chunk)):
        stmts, ctxs = map(list, zip(*batch))
        yield from _forward(model, head, *_pool(model, stmts, ctxs)[:2])[3]


def loss_and_grads(
    model: EncoderModel,
    head: ClassifierHead,
    pooled_stmt: np.ndarray,
    pooled_ctx: np.ndarray,
    labels: np.ndarray,
    alpha: float,
    dropout_masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray], TrainingBatch]:
    """Composite loss plus analytic gradients for every projection and head
    parameter, from already-pooled inputs. Gradients with respect to the
    pooled inputs are returned under 'pooled_stmt'/'pooled_ctx' so the
    caller can push them into the embedding table."""
    if dropout_masks is not None:
        pooled_stmt = pooled_stmt * dropout_masks[0]
        pooled_ctx = pooled_ctx * dropout_masks[1]
    n = pooled_stmt.shape[0]
    (hid_l, vec_l), (hid_s, vec_s), concat, probs = _forward(
        model, head, pooled_stmt, pooled_ctx)
    batch = TrainingBatch(statement_vectors=vec_l, context_vectors=vec_s,
                          labels=labels, probabilities=probs)
    loss = composite_loss(batch, alpha)

    # Cross-entropy path. The probability floor only binds when a predicted
    # probability underflows 1e-12; the standard softmax gradient is exact
    # everywhere the floor is inactive.
    dlogits = (probs - labels) / n
    d_concat = dlogits @ head.weight.T
    grads: dict[str, np.ndarray] = {
        "head_weight": concat.T @ dlogits,
        "head_bias": dlogits.sum(axis=0),
        "w1": np.zeros_like(model.w1),
        "b1": np.zeros_like(model.b1),
        "w2": np.zeros_like(model.w2),
        "b2": np.zeros_like(model.b2),
    }

    # Each encoder side, statement then context, adds its cosine regularizer
    # term d cos/d vec = other/(|l||s|) - cos * vec/|vec|^2 to its half of
    # d_concat and backpropagates into the shared projection.
    cos, degenerate, norm_l, norm_s = _cosine_rows(vec_l, vec_s)
    scale = -alpha / n * (~degenerate).astype(float)[:, None]
    dim = model.dim
    sides = (("pooled_stmt", pooled_stmt, hid_l, vec_l, vec_s, norm_l),
             ("pooled_ctx", pooled_ctx, hid_s, vec_s, vec_l, norm_s))
    for side, (key, pooled, hidden, vec, other, norm) in enumerate(sides):
        d_vec = d_concat[:, side * dim:(side + 1) * dim] + scale * (
            other / (norm_l * norm_s)[:, None]
            - cos[:, None] * vec / (norm ** 2)[:, None])
        grads["w2"] += hidden.T @ d_vec
        grads["b2"] += d_vec.sum(axis=0)
        d_pre = d_vec @ model.w2.T * (1.0 - hidden ** 2)
        grads["w1"] += pooled.T @ d_pre
        grads["b1"] += d_pre.sum(axis=0)
        grads[key] = d_pre @ model.w1.T
        if dropout_masks is not None:
            grads[key] *= dropout_masks[side]
    return loss, grads, batch


# ---------------------------------------------------------------------------
# Initialization and data preparation
# ---------------------------------------------------------------------------
def init_model(vocab: Vocabulary, dim: int,
               seed: int | None = 0) -> EncoderModel:
    """Zero biases, and an embedding and projection weights drawn from
    normals seeded with `seed`, or zero without one."""
    model = EncoderModel(vocab, *map(np.zeros, ((vocab.size, dim), (dim, dim),
                                                dim, (dim, dim), dim)))
    if seed is not None:
        rng, scale = np.random.default_rng(seed), 1.0 / np.sqrt(dim)
        for value, sd in ((model.embedding, 0.02), (model.w1, scale),
                          (model.w2, scale)):
            value[...] = rng.normal(0.0, sd, size=value.shape)
    return model


def init_head(dim: int) -> ClassifierHead:
    # Zero init: an untrained head yields uniform probabilities, and the
    # NON_DEFECT tie-break makes the untrained predictor abstain.
    return ClassifierHead(weight=np.zeros((2 * dim, NUM_CLASSES)),
                          bias=np.zeros(NUM_CLASSES))


def stratified_split(
    corpus: list[LabeledSample], seed: int,
) -> tuple[list[LabeledSample], list[LabeledSample], list[LabeledSample]]:
    """Seeded per-class shuffle, then an 8:1:1 partition of every class.

    Each class must land at least one sample in every part, so classes with
    fewer than three samples raise ClassUnderflow.
    """
    rng = np.random.default_rng(seed)
    by_class: dict[DefectLabel, list[LabeledSample]] = {lb: [] for lb in LABELS}
    for sample in corpus:
        by_class[sample.label].append(sample)
    train: list[LabeledSample] = []
    val: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for label in LABELS:
        group = by_class[label]
        n = len(group)
        if n < 3:
            raise ClassUnderflow(
                f"class {label.value} has {n} samples; need >= 3 to split 8:1:1")
        order = rng.permutation(n)
        shuffled = [group[i] for i in order]
        n_val = max(1, int(n * 0.1))
        n_test = max(1, int(n * 0.1))
        test.extend(shuffled[:n_test])
        val.extend(shuffled[n_test:n_test + n_val])
        train.extend(shuffled[n_test + n_val:])
    return train, val, test


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float, eps: float,
                 beta1: float = 0.9, beta2: float = 0.999) -> None:
        self.lr, self.eps = lr, eps
        self.beta1, self.beta2 = beta1, beta2
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v))
                         for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """In place, but the same operations in the same order as
        m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        value -= lr * (m/b1c) / (sqrt(v/b2c) + eps), so bit for bit equal."""
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for name, value in params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            num, den = self._scratch[name]
            m *= self.beta1
            m += np.multiply(1 - self.beta1, g, out=num)
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=num)
            v += np.multiply(num, g, out=num)
            np.divide(v, b2c, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, b1c, out=num)
            num *= self.lr
            value -= np.divide(num, den, out=num)


def train(
    corpus: list[LabeledSample],
    config: TrainConfig | None = None,
) -> tuple[EncoderModel, ClassifierHead, list[dict]]:
    """Stratified-split training with per-epoch validation; returns the
    parameters of the best validation epoch plus the metric history."""
    config = config or TrainConfig()
    train_set, val_set, _ = stratified_split(corpus, config.seed)
    # each sample's statement, then its method's text
    vocab, seqs = fit_vocabulary(
        [text for s in train_set
         for text in (s.target.raw_text, s.context.source_text)],
        max_size=config.vocab_size, max_tokens=config.max_tokens)
    model = init_model(vocab, config.dim, config.seed)
    head = init_head(config.dim)
    rng = np.random.default_rng(config.seed + 1)

    seqs = [seq.ids for seq in seqs]
    train_stmts, train_ctxs = seqs[0::2], seqs[1::2]
    train_labels = np.eye(NUM_CLASSES)[[LABEL_INDEX[s.label]
                                        for s in train_set]]
    val_pairs = list(_token_pairs(((s.context, (s.target,)) for s in val_set),
                                  vocab, config.max_tokens))
    val_golds = [s.label for s in val_set]

    params = {**model.parameters(), **head.parameters()}
    optimizer = _Adam(params, config.learning_rate, config.adam_epsilon)
    keep = 1.0 - config.dropout

    history: list[dict] = []
    best: tuple[float, int] | None = None
    best_state: dict[str, np.ndarray] = {}
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            pooled_l, pooled_s, ids, bag = _pool(
                model, [train_stmts[i] for i in idx],
                [train_ctxs[i] for i in idx])
            labels = train_labels[idx]
            masks = None
            if config.dropout > 0:
                masks = tuple((rng.random(pooled.shape) < keep) / keep
                              for pooled in (pooled_l, pooled_s))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateVector)
                loss, grads, _ = loss_and_grads(
                    model, head, pooled_l, pooled_s, labels,
                    config.alpha, masks)
            grads["embedding"] = np.zeros_like(model.embedding)
            grads["embedding"][ids] = bag.T @ np.concatenate(
                [grads["pooled_stmt"], grads["pooled_ctx"]])
            optimizer.step(params, grads)
            epoch_loss += loss
            batches += 1

        val_f1 = f1_macro([LABELS[int(probs.argmax())] for probs in _classify(
            model, head, val_pairs, config.batch_size)],
            val_golds)
        history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(batches, 1),
            "val_f1_macro": val_f1,
        })
        if best is None or val_f1 > best[0]:
            best = (val_f1, epoch)
            best_state = {k: v.copy() for k, v in params.items()}

    for name, value in params.items():
        value[...] = best_state[name]
    return model, head, history


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------
def _token_pairs(
    methods: Iterable[tuple[MethodContext, Sequence[LoggingStatement]]],
    vocab: Vocabulary, max_tokens: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each statement's token ids with its method's, which are worked out
    once per method."""
    for context, statements in methods:
        if statements:
            ctx = tokenize(context.source_text, vocab, max_tokens).ids
        for stmt in statements:
            yield tokenize(stmt.raw_text, vocab, max_tokens).ids, ctx


def predict_many(
    methods: Iterable[tuple[MethodContext, Sequence[LoggingStatement]]],
    model: EncoderModel,
    head: ClassifierHead,
    max_tokens: int = TrainConfig.max_tokens,
    batch_size: int = TrainConfig.batch_size,
) -> Iterator[tuple[DefectLabel, np.ndarray]]:
    """Classify each statement of each (method, statements) pair in its
    method, in order, pooling `batch_size` pairs to a bag as validation
    does; only one bag's token ids are held at a time. Ties break as in
    `predict`. A bag sums over all its tokens, so a probability may differ
    from `predict`'s in its last bits."""
    for probs in _classify(model, head, _token_pairs(
            methods, model.vocabulary, max_tokens), batch_size):
        yield LABELS[int(probs.argmax())], probs


def predict(
    context: MethodContext,
    stmt: LoggingStatement,
    model: EncoderModel,
    head: ClassifierHead,
    max_tokens: int = TrainConfig.max_tokens,
) -> tuple[DefectLabel, np.ndarray]:
    """Classify one statement in its method; ties break toward NON_DEFECT
    (class 0), then ascending class index."""
    return next(predict_many([(context, (stmt,))], model, head, max_tokens, 1))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
CHECKPOINT_FORMAT = "log-defect-model/1"


@dataclass(frozen=True)
class Tensor:
    """An array as a checkpoint holds it: little-endian float64 bytes, in
    base64."""

    shape: tuple[int, ...]
    dtype: str
    data: str

    def __post_init__(self) -> None:
        if self.dtype != "float64":
            raise ValueError(f"Tensor.dtype must be float64, got {self.dtype!r}")

    @classmethod
    def of(cls, a: np.ndarray) -> Tensor:
        data = np.ascontiguousarray(a, dtype="<f8")
        return cls(a.shape, "float64",
                   base64.b64encode(data.tobytes()).decode("ascii"))

    def array(self) -> np.ndarray:
        raw = base64.b64decode(self.data)
        return np.frombuffer(raw, dtype="<f8").reshape(self.shape)


@dataclass(frozen=True)
class SavedVocabulary:
    tokens: tuple[str, ...]  # in id order
    oov_buckets: int


@dataclass(frozen=True)
class Checkpoint:
    format: str
    config: TrainConfig
    vocabulary: SavedVocabulary
    tensors: dict[str, Tensor]


def save_checkpoint(path: str, model: EncoderModel, head: ClassifierHead,
                    config: TrainConfig) -> None:
    vocab = model.vocabulary
    checkpoint = Checkpoint(
        CHECKPOINT_FORMAT, config,
        SavedVocabulary(tuple(sorted(vocab.token_to_id,
                                     key=vocab.token_to_id.__getitem__)),
                        vocab.oov_buckets),
        {name: Tensor.of(value) for name, value in
         {**model.parameters(), **head.parameters()}.items()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(checkpoint), fh)


def load_checkpoint(path: str) -> tuple[EncoderModel, ClassifierHead, TrainConfig]:
    payload = read_json(path)
    if type(payload) is not dict or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint file: {path} "
                         f"(Checkpoint.format must be {CHECKPOINT_FORMAT!r})")
    checkpoint = from_dict(Checkpoint, payload)
    saved, dim = checkpoint.vocabulary, checkpoint.config.dim
    try:
        vocab = Vocabulary({token: i for i, token in enumerate(saved.tokens)},
                           saved.oov_buckets)
    except ValueError as exc:
        raise ValueError(f"Checkpoint.vocabulary: {exc}") from None
    if len(vocab.token_to_id) < len(saved.tokens):
        repeated = next(token for i, token in enumerate(saved.tokens)
                        if vocab.token_to_id[token] != i)
        raise ValueError(f"Checkpoint.vocabulary.tokens repeats {repeated!r}")
    # the arrays to fill, unseeded: loading never imports numpy.random
    model, head = init_model(vocab, dim, seed=None), init_head(dim)
    params = {**model.parameters(), **head.parameters()}
    if checkpoint.tensors.keys() != params.keys():
        raise ValueError(f"Checkpoint.tensors must be {sorted(params)}, "
                         f"got {sorted(checkpoint.tensors)}")
    for name, value in params.items():
        tensor = checkpoint.tensors[name]
        if tensor.shape != value.shape:
            raise ValueError(
                f"Checkpoint.tensors.{name}.shape must be {list(value.shape)} "
                f"for {len(saved.tokens)} tokens, {saved.oov_buckets} OOV "
                f"buckets and dim {dim}, got {list(tensor.shape)}")
        try:
            value[...] = tensor.array()
        except ValueError as exc:
            raise ValueError(f"Checkpoint.tensors.{name}.data: {exc}") from None
    return model, head, checkpoint.config
