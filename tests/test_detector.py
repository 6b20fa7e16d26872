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
    _Adam,
    _bag,
    _pool,
    composite_loss,
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
from logfix.tokenization import (
    TokenSequence,
    Vocabulary,
    fit_vocabulary,
    split_tokens,
)


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


def seqs(*ids: tuple[int, ...]) -> list[TokenSequence]:
    return [TokenSequence(ids=tuple(row), truncated=False) for row in ids]


def scatter_embedding_grad(shape, sequences, d_pooled) -> np.ndarray:
    """Reference embedding gradient, one row at a time: each occurrence of
    a token adds its row's pooled gradient divided by the row's length."""
    d_emb = np.zeros(shape)
    for seq, row in zip(sequences, d_pooled):
        if seq.ids:
            np.add.at(d_emb, np.asarray(seq.ids), row / len(seq.ids))
    return d_emb


class TestEmbeddingGradient:
    def test_bag_rows_are_normalized_counts(self):
        bag = _bag(seqs((2, 0, 2, 3), (), (1,)), 5)
        assert bag.tolist() == [[0.25, 0.0, 0.5, 0.25, 0.0],
                                [0.0] * 5,
                                [0.0, 1.0, 0.0, 0.0, 0.0]]

    def test_matches_finite_differences_through_pooling(self):
        # From token ids through _pool to the loss: an empty statement, a
        # repeated id on either side and an id that only the context uses.
        rng = np.random.default_rng(11)
        dim = 4
        vocab = Vocabulary(token_to_id={}, oov_buckets=6, max_tokens=64)
        model = init_model(vocab, dim, seed=3)
        model.embedding[...] = rng.normal(0.0, 0.5, size=model.embedding.shape)
        # Non-zero biases give the empty statement a non-zero encoding, so
        # its cosine term stays live.
        model.b1[...] = rng.normal(0.0, 0.5, size=dim)
        model.b2[...] = rng.normal(0.0, 0.5, size=dim)
        head = ClassifierHead(
            weight=rng.normal(0.0, 0.5, size=(2 * dim, NUM_CLASSES)),
            bias=rng.normal(0.0, 0.5, size=NUM_CLASSES))
        seq_l = seqs((0, 1, 1), (), (2, 4, 2, 2))
        seq_s = seqs((3, 0, 1, 5), (5, 5), (4, 0))
        labels = np.zeros((3, NUM_CLASSES))
        labels[[0, 1, 2], [1, 0, 3]] = 1.0

        def loss_and_grads_at():
            return loss_and_grads(model, head, _pool(model, seq_l),
                                  _pool(model, seq_s), labels, 0.5)

        _, grads, _ = loss_and_grads_at()
        analytic = _bag(seq_l + seq_s, vocab.size).T @ np.concatenate(
            [grads["pooled_stmt"], grads["pooled_ctx"]])
        h = 1e-6
        for row in range(vocab.size):
            for col in range(dim):
                original = model.embedding[row, col]
                model.embedding[row, col] = original + h
                up = loss_and_grads_at()[0]
                model.embedding[row, col] = original - h
                down = loss_and_grads_at()[0]
                model.embedding[row, col] = original
                fd = (up - down) / (2 * h)
                assert fd == pytest.approx(analytic[row, col],
                                           rel=1e-5, abs=1e-9)

    def test_equals_the_per_row_scatter(self):
        rng = np.random.default_rng(5)
        vocab_size, dim = 40, 6
        for _ in range(20):
            n = int(rng.integers(1, 9))
            sequences = seqs(*(rng.integers(0, vocab_size,
                                            size=int(rng.integers(0, 30)))
                               for _ in range(n)))
            d_pooled = rng.normal(size=(n, dim))
            expected = scatter_embedding_grad((vocab_size, dim), sequences,
                                              d_pooled)
            got = _bag(sequences, vocab_size).T @ d_pooled
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


class TestAdam:
    def test_in_place_step_equals_the_out_of_place_formula(self):
        rng = np.random.default_rng(9)
        params = {"a": rng.normal(size=(7, 3)), "b": rng.normal(size=5)}
        expected = {k: v.copy() for k, v in params.items()}
        lr, eps, beta1, beta2 = 3e-3, 1e-8, 0.9, 0.999
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(x) for k, x in params.items()}
        optimizer = _Adam(params, lr, eps)
        for step in range(1, 6):
            grads = {k: rng.normal(size=x.shape) for k, x in params.items()}
            optimizer.step(params, grads)
            b1c = 1.0 - beta1 ** step
            b2c = 1.0 - beta2 ** step
            for k, g in grads.items():
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v[k] = beta2 * v[k] + (1 - beta2) * g * g
                m_hat = m[k] / b1c
                v_hat = v[k] / b2c
                expected[k] = expected[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for k in params:
                assert np.array_equal(params[k], expected[k])
                assert np.array_equal(optimizer.m[k], m[k])
                assert np.array_equal(optimizer.v[k], v[k])


class TestPrediction:
    def test_untrained_head_abstains(self):
        ctx, stmts = single_method(
            "class A {\n"
            "    void go() {\n"
            '        log.info("running step");\n'
            "    }\n"
            "}\n"
        )
        vocab, _ = fit_vocabulary(["running step log info"], max_size=64)
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
        vocab, _ = fit_vocabulary(["running step"], max_size=64)
        model = init_model(vocab, 8)
        head = init_head(8)
        head.bias[LABEL_INDEX[DefectLabel.STATIC_DYNAMIC]] = 5.0
        head.bias[LABEL_INDEX[DefectLabel.TEMPORAL]] = 5.0
        label, _ = predict(ctx, stmts[0], model, head)
        assert label is DefectLabel.STATIC_DYNAMIC


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

    def test_each_text_is_segmented_once(self, small_corpus, monkeypatch):
        from logfix import tokenization

        segmented = []

        def counting_split_tokens(text):
            segmented.append(text)
            return split_tokens(text)

        monkeypatch.setattr(tokenization, "split_tokens",
                            counting_split_tokens)
        train(small_corpus, SMALL_CONFIG)
        # 25 training and 5 validation samples, a statement and a method
        # each: the vocabulary and the id sequences share one segmentation
        assert len(segmented) == 2 * (25 + 5)

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

    def test_same_seed_checkpoints_are_byte_identical(self, small_corpus,
                                                       tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            model, head, _ = train(small_corpus, SMALL_CONFIG)
            save_checkpoint(str(path), model, head, SMALL_CONFIG)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
        assert CHECKPOINT_FORMAT.endswith("/1")
