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
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .metrics import f1_macro
from .model import (
    LABELS,
    NUM_CLASSES,
    DefectLabel,
    LabeledSample,
    LoggingStatement,
    MethodContext,
    from_dict,
    to_dict,
)
from .tokenization import TokenSequence, Vocabulary, fit_vocabulary, tokenize


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
    max_tokens: int = 1024
    batch_size: int = 32
    seed: int = 0
    dim: int = 128
    vocab_size: int = 4096

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        for key in ("epochs", "batch_size", "dim", "max_tokens"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        for key in ("learning_rate", "adam_epsilon"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0")
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

    def __post_init__(self) -> None:
        n = self.statement_vectors.shape[0]
        if not (self.context_vectors.shape[0] == n
                and self.labels.shape == (n, NUM_CLASSES)
                and self.probabilities.shape == (n, NUM_CLASSES)):
            raise ValueError("inconsistent batch shapes")
        if not np.allclose(self.probabilities.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("probabilities must sum to 1 per sample")
        binary = np.all((self.labels == 0.0) | (self.labels == 1.0))
        if not binary or not np.all(self.labels.sum(axis=1) == 1.0):
            raise ValueError("labels must be exactly one-hot")


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------
def _cosine_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cosines plus a mask of rows where either side is zero-norm
    (those rows get cosine 0)."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    degenerate = (na == 0.0) | (nb == 0.0)
    denom = np.where(degenerate, 1.0, na * nb)
    cos = np.einsum("ij,ij->i", a, b) / denom
    cos = np.where(degenerate, 0.0, cos)
    return cos, degenerate


def composite_loss(batch: TrainingBatch, alpha: float) -> float:
    """Cross-entropy minus alpha times the mean statement/context cosine,
    plus alpha (so the optimum sits at zero, not at -alpha)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    p = np.maximum(batch.probabilities, PROB_FLOOR)
    n = p.shape[0]
    ce = -float(np.sum(batch.labels * np.log(p))) / n
    cos, degenerate = _cosine_rows(batch.statement_vectors,
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


def _pool(model: EncoderModel, sequences: list[TokenSequence]) -> np.ndarray:
    out = np.zeros((len(sequences), model.dim))
    for i, seq in enumerate(sequences):
        if seq.ids:
            out[i] = model.embedding[np.asarray(seq.ids)].mean(axis=0)
    return out


def _bag(sequences: list[TokenSequence], vocab_size: int) -> np.ndarray:
    """The Jacobian of `_pool`: entry (i, t) is the count of token t in
    sequence i divided by the sequence's length (an empty sequence gives a
    zero row), so the embedding gradient is `_bag(...).T @ d_pooled`."""
    lengths = np.array([len(seq.ids) for seq in sequences], dtype=np.intp)
    ids = np.fromiter(chain.from_iterable(seq.ids for seq in sequences),
                      dtype=np.intp, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(sequences)), lengths)
    counts = np.bincount(rows * vocab_size + ids,
                         minlength=len(sequences) * vocab_size)
    return (counts.reshape(len(sequences), vocab_size)
            / np.maximum(lengths, 1)[:, None])


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    hid_l, vec_l = _project(model, pooled_stmt)
    hid_s, vec_s = _project(model, pooled_ctx)
    concat = np.concatenate([vec_l, vec_s], axis=1)
    logits = concat @ head.weight + head.bias
    probs = _softmax(logits)
    batch = TrainingBatch(statement_vectors=vec_l, context_vectors=vec_s,
                          labels=labels, probabilities=probs)
    loss = composite_loss(batch, alpha)

    # Cross-entropy path. The probability floor only binds when a predicted
    # probability underflows 1e-12; the standard softmax gradient is exact
    # everywhere the floor is inactive.
    dlogits = (probs - labels) / n
    d_head_w = concat.T @ dlogits
    d_head_b = dlogits.sum(axis=0)
    d_concat = dlogits @ head.weight.T
    dim = model.dim
    d_vec_l = d_concat[:, :dim].copy()
    d_vec_s = d_concat[:, dim:].copy()

    # Cosine regularizer path: d cos/d l = s/(|l||s|) - cos * l/|l|^2.
    cos, degenerate = _cosine_rows(vec_l, vec_s)
    norm_l = np.linalg.norm(vec_l, axis=1)
    norm_s = np.linalg.norm(vec_s, axis=1)
    safe_l = np.where(degenerate, 1.0, norm_l)
    safe_s = np.where(degenerate, 1.0, norm_s)
    scale = -alpha / n
    live = (~degenerate).astype(float)[:, None]
    d_vec_l += scale * live * (
        vec_s / (safe_l * safe_s)[:, None]
        - cos[:, None] * vec_l / (safe_l ** 2)[:, None])
    d_vec_s += scale * live * (
        vec_l / (safe_l * safe_s)[:, None]
        - cos[:, None] * vec_s / (safe_s ** 2)[:, None])

    grads: dict[str, np.ndarray] = {
        "head_weight": d_head_w,
        "head_bias": d_head_b,
        "w1": np.zeros_like(model.w1),
        "b1": np.zeros_like(model.b1),
        "w2": np.zeros_like(model.w2),
        "b2": np.zeros_like(model.b2),
    }
    pooled_grads: list[np.ndarray] = []
    for pooled, hidden, d_vec in ((pooled_stmt, hid_l, d_vec_l),
                                  (pooled_ctx, hid_s, d_vec_s)):
        grads["w2"] += hidden.T @ d_vec
        grads["b2"] += d_vec.sum(axis=0)
        d_hidden = d_vec @ model.w2.T
        d_pre = d_hidden * (1.0 - hidden ** 2)
        grads["w1"] += pooled.T @ d_pre
        grads["b1"] += d_pre.sum(axis=0)
        pooled_grads.append(d_pre @ model.w1.T)
    if dropout_masks is not None:
        pooled_grads[0] = pooled_grads[0] * dropout_masks[0]
        pooled_grads[1] = pooled_grads[1] * dropout_masks[1]
    grads["pooled_stmt"] = pooled_grads[0]
    grads["pooled_ctx"] = pooled_grads[1]
    return loss, grads, batch


# ---------------------------------------------------------------------------
# Initialization and data preparation
# ---------------------------------------------------------------------------
def init_model(vocab: Vocabulary, dim: int, seed: int = 0) -> EncoderModel:
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    return EncoderModel(
        vocabulary=vocab,
        embedding=rng.normal(0.0, 0.02, size=(vocab.size, dim)),
        w1=rng.normal(0.0, scale, size=(dim, dim)),
        b1=np.zeros(dim),
        w2=rng.normal(0.0, scale, size=(dim, dim)),
        b2=np.zeros(dim),
    )


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


def _sample_texts(corpus: list[LabeledSample]) -> list[str]:
    texts = []
    for sample in corpus:
        texts.append(sample.target.raw_text)
        texts.append(sample.context.source_text)
    return texts


def _tokenize_pair(sample: LabeledSample, vocab: Vocabulary,
                   max_tokens: int) -> tuple[TokenSequence, TokenSequence]:
    return (tokenize(sample.target.raw_text, vocab, max_tokens),
            tokenize(sample.context.source_text, vocab, max_tokens))


def _one_hot(labels: list[DefectLabel]) -> np.ndarray:
    out = np.zeros((len(labels), NUM_CLASSES))
    for i, label in enumerate(labels):
        out[i, LABELS.index(label)] = 1.0
    return out


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


def _predict_encoded(model: EncoderModel, head: ClassifierHead,
                     pooled_stmt: np.ndarray,
                     pooled_ctx: np.ndarray) -> np.ndarray:
    _, vec_l = _project(model, pooled_stmt)
    _, vec_s = _project(model, pooled_ctx)
    logits = np.concatenate([vec_l, vec_s], axis=1) @ head.weight + head.bias
    return _softmax(logits)


def _argmax_label(probs: np.ndarray) -> DefectLabel:
    best = probs.max()
    for i, value in enumerate(probs):
        if value == best:
            return LABELS[i]
    return LABELS[0]


def train(
    corpus: list[LabeledSample],
    config: TrainConfig | None = None,
) -> tuple[EncoderModel, ClassifierHead, list[dict]]:
    """Stratified-split training with per-epoch validation; returns the
    parameters of the best validation epoch plus the metric history."""
    config = config or TrainConfig()
    train_set, val_set, _ = stratified_split(corpus, config.seed)
    vocab, seqs = fit_vocabulary(_sample_texts(train_set),
                                 max_size=config.vocab_size,
                                 max_tokens=config.max_tokens)
    model = init_model(vocab, config.dim, config.seed)
    head = init_head(config.dim)
    rng = np.random.default_rng(config.seed + 1)

    train_seqs = list(zip(seqs[0::2], seqs[1::2]))
    train_labels = _one_hot([s.label for s in train_set])
    val_stmts, val_ctxs = map(list, zip(*[
        _tokenize_pair(s, vocab, config.max_tokens) for s in val_set]))
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
            seq_l = [train_seqs[i][0] for i in idx]
            seq_s = [train_seqs[i][1] for i in idx]
            pooled_l = _pool(model, seq_l)
            pooled_s = _pool(model, seq_s)
            labels = train_labels[idx]
            masks = None
            if config.dropout > 0:
                masks = (
                    (rng.random(pooled_l.shape) < keep) / keep,
                    (rng.random(pooled_s.shape) < keep) / keep,
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateVector)
                loss, grads, _ = loss_and_grads(
                    model, head, pooled_l, pooled_s, labels,
                    config.alpha, masks)
            d_pooled = np.concatenate([grads["pooled_stmt"],
                                       grads["pooled_ctx"]])
            grads["embedding"] = _bag(seq_l + seq_s, vocab.size).T @ d_pooled
            optimizer.step(params, grads)
            epoch_loss += loss
            batches += 1

        val_probs = _predict_encoded(model, head, _pool(model, val_stmts),
                                     _pool(model, val_ctxs))
        val_preds = [_argmax_label(row) for row in val_probs]
        val_f1 = f1_macro(val_preds, val_golds)
        history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(batches, 1),
            "val_f1_macro": val_f1,
        })
        if best is None or val_f1 > best[0]:
            best = (val_f1, epoch)
            best_state = {k: v.copy() for k, v in params.items()}

    for name, value in model.parameters().items():
        value[...] = best_state[name]
    for name, value in head.parameters().items():
        value[...] = best_state[name]
    return model, head, history


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------
def predict(
    context: MethodContext,
    stmt: LoggingStatement,
    model: EncoderModel,
    head: ClassifierHead,
    max_tokens: int = 1024,
) -> tuple[DefectLabel, np.ndarray]:
    """Classify one statement in its method; ties break toward NON_DEFECT
    (class 0), then ascending class index."""
    seq_l = tokenize(stmt.raw_text, model.vocabulary, max_tokens)
    seq_s = tokenize(context.source_text, model.vocabulary, max_tokens)
    probs = _predict_encoded(model, head, _pool(model, [seq_l]),
                             _pool(model, [seq_s]))[0]
    return _argmax_label(probs), probs


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
        return np.frombuffer(raw, dtype="<f8").reshape(self.shape).copy()


@dataclass(frozen=True)
class SavedVocabulary:
    tokens: tuple[str, ...]  # in id order
    oov_buckets: int
    max_tokens: int


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
                        vocab.oov_buckets, vocab.max_tokens),
        {name: Tensor.of(value) for name, value in
         {**model.parameters(), **head.parameters()}.items()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(checkpoint), fh)


def load_checkpoint(path: str) -> tuple[EncoderModel, ClassifierHead, TrainConfig]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if type(payload) is not dict or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint file: {path} "
                         f"(Checkpoint.format must be {CHECKPOINT_FORMAT!r})")
    checkpoint = from_dict(Checkpoint, payload)
    saved = checkpoint.vocabulary
    vocab = Vocabulary({token: i for i, token in enumerate(saved.tokens)},
                       saved.oov_buckets, saved.max_tokens)
    t = {name: tensor.array() for name, tensor in checkpoint.tensors.items()}
    model = EncoderModel(vocab, t["embedding"], t["w1"], t["b1"], t["w2"],
                         t["b2"])
    head = ClassifierHead(t["head_weight"], t["head_bias"])
    return model, head, checkpoint.config
