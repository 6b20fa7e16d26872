"""Tests for the defect classifier: loss, gradients, splitting, training."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import SMALL_CONFIG, single_method
from logfix.detector import (
    CHECKPOINT_FORMAT,
    ClassifierHead,
    ClassUnderflow,
    DegenerateVector,
    EncoderModel,
    TrainConfig,
    TrainingBatch,
    composite_loss,
    encode,
    init_head,
    init_model,
    load_checkpoint,
    loss_and_grads,
    predict,
    save_checkpoint,
    stratified_split,
    train,
)
from logfix.model import (
    LABEL_INDEX,
    NUM_CLASSES,
    DefectLabel,
    from_dict,
    to_dict,
)
from logfix.tokenization import Vocabulary, build_vocabulary, tokenize


def one_hot(index: int) -> np.ndarray:
    row = np.zeros((1, NUM_CLASSES))
    row[0, index] = 1.0
    return row


def make_batch(
    probs: list[float],
    label_index: int = 0,
    stmt_vec: list[float] = (1.0, 0.0),
    ctx_vec: list[float] = (0.0, 1.0),
) -> TrainingBatch:
    return TrainingBatch(
        statement_vectors=np.array([list(stmt_vec)]),
        context_vectors=np.array([list(ctx_vec)]),
        labels=one_hot(label_index),
        probabilities=np.array([probs]),
    )


class TestCompositeLoss:
    def test_hand_computed_value(self):
        # One sample, true-class probability 0.5, orthogonal vectors
        # (cosine 0), alpha 0.5: loss = ln 2 + 0.5.
        batch = make_batch([0.5, 0.125, 0.125, 0.125, 0.125])
        assert composite_loss(batch, 0.5) == pytest.approx(
            math.log(2.0) + 0.5, abs=1e-12
        )

    def test_alpha_zero_is_cross_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(NUM_CLASSES))
            idx = int(rng.integers(NUM_CLASSES))
            batch = make_batch(list(p), idx)
            assert composite_loss(batch, 0.0) == pytest.approx(
                -math.log(p[idx]), rel=1e-12
            )

    def test_aligned_vectors_earn_the_full_bonus(self):
        # Identical vectors: cosine 1, so the regularizer contributes
        # -alpha + alpha = 0 and only cross-entropy remains.
        batch = make_batch(
            [0.5, 0.125, 0.125, 0.125, 0.125],
            stmt_vec=(1.0, 2.0), ctx_vec=(2.0, 4.0),
        )
        assert composite_loss(batch, 0.7) == pytest.approx(math.log(2.0))

    def test_probability_floor(self):
        batch = make_batch([1.0, 0.0, 0.0, 0.0, 0.0], label_index=1)
        assert composite_loss(batch, 0.0) == pytest.approx(-math.log(1e-12))

    def test_rejects_negative_alpha(self):
        batch = make_batch([0.2] * 5)
        with pytest.raises(ValueError):
            composite_loss(batch, -0.1)

    def test_zero_norm_vector_warns_and_counts_as_zero_cosine(self):
        batch = make_batch([0.2] * 5, stmt_vec=(0.0, 0.0), ctx_vec=(1.0, 0.0))
        with pytest.warns(DegenerateVector):
            loss = composite_loss(batch, 0.5)
        assert loss == pytest.approx(-math.log(0.2) + 0.5)


class TestTrainingBatchValidation:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            TrainingBatch(
                statement_vectors=np.zeros((2, 3)),
                context_vectors=np.zeros((1, 3)),
                labels=np.tile(one_hot(0), (2, 1)),
                probabilities=np.full((2, NUM_CLASSES), 0.2),
            )

    def test_rejects_unnormalized_probabilities(self):
        with pytest.raises(ValueError):
            make_batch([0.5, 0.5, 0.5, 0.5, 0.5])

    def test_rejects_soft_labels(self):
        with pytest.raises(ValueError):
            TrainingBatch(
                statement_vectors=np.ones((1, 2)),
                context_vectors=np.ones((1, 2)),
                labels=np.array([[0.5, 0.5, 0.0, 0.0, 0.0]]),
                probabilities=np.full((1, NUM_CLASSES), 0.2),
            )


class TestTrainConfig:
    def test_round_trip(self):
        config = TrainConfig(learning_rate=1e-3, epochs=4, dim=32)
        assert from_dict(TrainConfig, to_dict(config)) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-0.5)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)


class TestLossAndGrads:
    @staticmethod
    def setup_forward(dim: int = 4, n: int = 3, seed: int = 0):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(token_to_id={}, oov_buckets=8, max_tokens=64)
        model = init_model(vocab, dim, seed)
        head = ClassifierHead(
            weight=rng.normal(0.0, 0.5, size=(2 * dim, NUM_CLASSES)),
            bias=rng.normal(0.0, 0.5, size=NUM_CLASSES),
        )
        pooled_stmt = rng.normal(size=(n, dim))
        pooled_ctx = rng.normal(size=(n, dim))
        labels = np.zeros((n, NUM_CLASSES))
        for i in range(n):
            labels[i, rng.integers(NUM_CLASSES)] = 1.0
        return model, head, pooled_stmt, pooled_ctx, labels

    def test_returns_all_parameter_gradients(self):
        model, head, ps, pc, labels = self.setup_forward()
        loss, grads, batch = loss_and_grads(model, head, ps, pc, labels, 0.5)
        assert set(grads) == {
            "head_weight", "head_bias", "w1", "b1", "w2", "b2",
            "pooled_stmt", "pooled_ctx",
        }
        assert grads["head_weight"].shape == head.weight.shape
        assert grads["w1"].shape == model.w1.shape
        assert grads["pooled_stmt"].shape == ps.shape
        # The reported loss is the composite loss of the returned batch.
        assert loss == pytest.approx(composite_loss(batch, 0.5))

    def test_gradient_matches_finite_differences_spot_check(self):
        model, head, ps, pc, labels = self.setup_forward(seed=5)
        _, grads, _ = loss_and_grads(model, head, ps, pc, labels, 0.5)
        h = 1e-6

        def loss_at() -> float:
            return loss_and_grads(model, head, ps, pc, labels, 0.5)[0]

        for array, g, idx in (
            (head.bias, grads["head_bias"], (2,)),
            (head.weight, grads["head_weight"], (1, 3)),
            (model.w2, grads["w2"], (0, 1)),
            (model.b1, grads["b1"], (2,)),
        ):
            original = array[idx]
            array[idx] = original + h
            up = loss_at()
            array[idx] = original - h
            down = loss_at()
            array[idx] = original
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(g[idx], rel=1e-4, abs=1e-8)

    def test_dropout_masks_are_applied(self):
        model, head, ps, pc, labels = self.setup_forward(seed=7)
        plain = loss_and_grads(model, head, ps, pc, labels, 0.0)[0]
        masks = (np.zeros_like(ps), np.zeros_like(pc))
        with pytest.warns(DegenerateVector):
            masked_loss, masked_grads, _ = loss_and_grads(
                model, head, ps, pc, labels, 0.5, masks
            )
        assert masked_loss != pytest.approx(plain)
        assert np.all(masked_grads["pooled_stmt"] == 0.0)


class TestPrediction:
    def test_untrained_head_abstains(self):
        ctx, stmts = single_method(
            "class A {\n"
            "    void go() {\n"
            '        log.info("running step");\n'
            "    }\n"
            "}\n"
        )
        vocab = build_vocabulary(["running step log info"], max_size=64)
        model = init_model(vocab, 8)
        label, probs = predict(ctx, stmts[0], model, init_head(8))
        assert label is DefectLabel.NON_DEFECT
        assert probs == pytest.approx(np.full(NUM_CLASSES, 0.2))

    def test_tie_breaks_toward_lowest_class_index(self):
        ctx, stmts = single_method(
            "class A {\n"
            "    void go() {\n"
            '        log.info("running step");\n'
            "    }\n"
            "}\n"
        )
        vocab = build_vocabulary(["running step"], max_size=64)
        model = init_model(vocab, 8)
        head = init_head(8)
        head.bias[LABEL_INDEX[DefectLabel.STATIC_DYNAMIC]] = 5.0
        head.bias[LABEL_INDEX[DefectLabel.TEMPORAL]] = 5.0
        label, _ = predict(ctx, stmts[0], model, head)
        assert label is DefectLabel.STATIC_DYNAMIC

    def test_encode_is_deterministic(self):
        vocab = build_vocabulary(["alpha beta gamma"], max_size=64)
        model = init_model(vocab, 8)
        seq = tokenize("alpha gamma", vocab)
        first = encode(seq, model)
        assert first.shape == (8,)
        assert np.array_equal(first, encode(seq, model))


class TestStratifiedSplit:
    def test_partition_sizes_and_disjointness(self, small_corpus):
        train_set, val_set, test_set = stratified_split(small_corpus, seed=0)
        assert len(small_corpus) == 35  # 15 clean + 5 per defect class
        assert len(test_set) == 5 and len(val_set) == 5
        assert len(train_set) == 25
        ids = lambda part: {(s.target.id, s.label) for s in part}
        assert not ids(train_set) & ids(val_set)
        assert not ids(train_set) & ids(test_set)
        assert not ids(val_set) & ids(test_set)
        assert ids(train_set) | ids(val_set) | ids(test_set) == ids(small_corpus)

    def test_every_class_in_every_part(self, small_corpus):
        for part in stratified_split(small_corpus, seed=1):
            assert {s.label for s in part} == set(DefectLabel)

    def test_deterministic_per_seed(self, small_corpus):
        first = stratified_split(small_corpus, seed=3)
        second = stratified_split(small_corpus, seed=3)
        assert first == second
        shifted = stratified_split(small_corpus, seed=4)
        assert shifted != first

    def test_underflow(self, clean_samples):
        with pytest.raises(ClassUnderflow):
            stratified_split(clean_samples[:6], seed=0)  # only NON_DEFECT


class TestTraining:
    def test_history_and_prediction_shape(self, small_corpus):
        model, head, history = train(small_corpus, SMALL_CONFIG)
        assert len(history) == SMALL_CONFIG.epochs
        for i, row in enumerate(history):
            assert row["epoch"] == i
            assert row["train_loss"] >= 0.0
            assert 0.0 <= row["val_f1_macro"] <= 1.0
        sample = small_corpus[0]
        label, probs = predict(sample.context, sample.target, model, head)
        assert isinstance(label, DefectLabel)
        assert probs.shape == (NUM_CLASSES,)
        assert probs.sum() == pytest.approx(1.0)

    def test_training_is_deterministic(self, small_corpus):
        model_a, head_a, hist_a = train(small_corpus, SMALL_CONFIG)
        model_b, head_b, hist_b = train(small_corpus, SMALL_CONFIG)
        assert hist_a == hist_b
        assert np.array_equal(model_a.embedding, model_b.embedding)
        assert np.array_equal(head_a.weight, head_b.weight)


class TestCheckpoints:
    def test_round_trip_preserves_predictions(self, small_corpus, tmp_path):
        model, head, _ = train(small_corpus, SMALL_CONFIG)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), model, head, SMALL_CONFIG)
        loaded_model, loaded_head, loaded_config = load_checkpoint(str(path))
        assert loaded_config == SMALL_CONFIG
        assert loaded_model.vocabulary.token_to_id == model.vocabulary.token_to_id
        for sample in small_corpus[:10]:
            orig = predict(sample.context, sample.target, model, head)
            redo = predict(sample.context, sample.target,
                           loaded_model, loaded_head)
            assert orig[0] is redo[0]
            assert np.allclose(orig[1], redo[1])

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
        assert CHECKPOINT_FORMAT.endswith("/1")
