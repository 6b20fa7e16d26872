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
from logfix.tokenization import Vocabulary, fit_vocabulary


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


def assert_well_formed(batch: TrainingBatch, n: int, dim: int) -> None:
    """A batch as every training step builds it: n rows of vectors, one-hot
    labels, and probabilities that sum to 1 per row."""
    assert batch.statement_vectors.shape == (n, dim)
    assert batch.context_vectors.shape == (n, dim)
    assert batch.labels.shape == (n, NUM_CLASSES)
    assert batch.probabilities.shape == (n, NUM_CLASSES)
    assert np.allclose(batch.probabilities.sum(axis=1), 1.0, atol=1e-6)
    assert np.all((batch.labels == 0.0) | (batch.labels == 1.0))
    assert np.all(batch.labels.sum(axis=1) == 1.0)


class TestLossAndGrads:
    @staticmethod
    def setup_forward(dim: int = 4, n: int = 3, seed: int = 0):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary(token_to_id={}, oov_buckets=8)
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
        assert_well_formed(batch, 3, 4)

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
            masked_loss, masked_grads, batch = loss_and_grads(
                model, head, ps, pc, labels, 0.5, masks
            )
        assert_well_formed(batch, 3, 4)
        assert masked_loss != pytest.approx(plain)
        assert np.all(masked_grads["pooled_stmt"] == 0.0)


def seqs(*ids: tuple[int, ...]) -> list[np.ndarray]:
    """Token id sequences as the detector holds them."""
    return [np.array(row, dtype=np.intp) for row in ids]


def scatter_embedding_grad(shape, sequences, d_pooled) -> np.ndarray:
    """Reference embedding gradient, one row at a time: each occurrence of
    a token adds its row's pooled gradient divided by the row's length."""
    d_emb = np.zeros(shape)
    for seq, row in zip(sequences, d_pooled):
        if len(seq):
            np.add.at(d_emb, seq, row / len(seq))
    return d_emb


def bag_embedding_grad(shape, sequences, d_pooled) -> np.ndarray:
    """The training step's embedding gradient: `bag.T @ d_pooled` in the
    rows of the bag's ids."""
    ids, bag = _bag(sequences, shape[0])
    d_emb = np.zeros(shape)
    d_emb[ids] = bag.T @ d_pooled
    return d_emb


class TestEmbeddingGradient:
    def test_bag_rows_are_normalized_counts(self):
        ids, bag = _bag(seqs((2, 0, 2, 3), (), (1,)), 4)
        assert ids.tolist() == [0, 1, 2, 3]
        assert bag.tolist() == [[0.25, 0.0, 0.5, 0.25],
                                [0.0] * 4,
                                [0.0, 1.0, 0.0, 0.0]]

    def test_bag_has_one_column_per_distinct_id(self):
        # the width follows the batch, not the vocabulary
        ids, bag = _bag(seqs((1_000_003, 999_999, 1_000_003),
                             (999_999, 1_000_000)), 1_000_004)
        assert ids.tolist() == [999_999, 1_000_000, 1_000_003]
        assert bag.shape == (2, 3)
        assert bag.tolist() == [[1 / 3, 0.0, 2 / 3], [0.5, 0.5, 0.0]]

    def test_pooled_rows_equal_the_per_row_mean(self):
        rng = np.random.default_rng(2)
        model = init_model(Vocabulary(token_to_id={}, oov_buckets=12), 6)
        model.embedding[...] = rng.normal(0.0, 0.5, size=model.embedding.shape)
        stmts = seqs((3, 3, 3, 7), (), (11,))
        ctxs = seqs((0, 5, 5, 1, 0, 9, 5), (4, 4), (2, 8, 11, 6, 10))
        pooled_l, pooled_s, _, _ = _pool(model, stmts, ctxs)
        for pooled, sequences in ((pooled_l, stmts), (pooled_s, ctxs)):
            assert pooled.shape == (3, 6)
            for row, seq in zip(pooled, sequences):
                expected = (model.embedding[seq].mean(axis=0)
                            if len(seq) else np.zeros(6))
                assert np.max(np.abs(row - expected)) <= 1e-15
        assert np.all(pooled_l[1] == 0.0)

    def test_matches_finite_differences_through_pooling(self):
        # From token ids through _pool to the loss: an empty statement, a
        # repeated id on either side and an id that only the context uses.
        rng = np.random.default_rng(11)
        dim = 4
        vocab = Vocabulary(token_to_id={}, oov_buckets=6)
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
            return loss_and_grads(model, head,
                                  *_pool(model, seq_l, seq_s)[:2],
                                  labels, 0.5)

        _, grads, _ = loss_and_grads_at()
        analytic = bag_embedding_grad(
            model.embedding.shape, seq_l + seq_s,
            np.concatenate([grads["pooled_stmt"], grads["pooled_ctx"]]))
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
            got = bag_embedding_grad((vocab_size, dim), sequences, d_pooled)
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def reference_bag(sequences, rows):
    """The bag as it was built by sorting: `np.unique` gives the ascending
    ids and each occurrence's column. `rows` is unused."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    flat = np.concatenate(sequences)
    ids, columns = np.unique(flat, return_inverse=True)
    cells = np.repeat(np.arange(len(sequences)), lengths)
    counts = np.bincount(cells * len(ids) + columns,
                         minlength=len(sequences) * len(ids))
    return ids, (counts.reshape(len(sequences), len(ids))
                 / np.maximum(lengths, 1)[:, None])


class TestBagMatchesTheSortedReference:
    # 60 vocabulary ids and 8 OOV buckets, so ids 60..67 are buckets
    ROWS = 68

    def assert_same_bag(self, sequences):
        ids, bag = _bag(sequences, self.ROWS)
        ref_ids, ref_bag = reference_bag(sequences, self.ROWS)
        assert ids.dtype == ref_ids.dtype
        assert ids.tobytes() == ref_ids.tobytes()
        assert bag.shape == ref_bag.shape
        assert bag.tobytes() == ref_bag.tobytes()

    def test_edge_batches(self):
        self.assert_same_bag(seqs((5,)))
        self.assert_same_bag(seqs(()))
        self.assert_same_bag(seqs((), (), (3, 3, 3)))
        self.assert_same_bag(seqs((67, 60, 67, 0), (60,), ()))
        self.assert_same_bag(seqs((9, 9, 9, 9, 9, 9, 9)))

    def test_random_batches(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            batch = [rng.integers(0, self.ROWS, size=int(rng.integers(0, 40)))
                     for _ in range(n)]
            # an empty sequence, a run of one repeated id and OOV-bucket
            # ids in about a third of the batches each
            if rng.random() < 1 / 3:
                batch[int(rng.integers(n))] = np.array([], dtype=np.intp)
            if rng.random() < 1 / 3:
                batch[int(rng.integers(n))] = np.full(
                    int(rng.integers(1, 20)), int(rng.integers(self.ROWS)))
            if rng.random() < 1 / 3:
                batch[int(rng.integers(n))] = rng.integers(
                    60, self.ROWS, size=int(rng.integers(1, 12)))
            self.assert_same_bag([seq.astype(np.intp) for seq in batch])

    def test_training_with_either_bag_gives_the_same_bytes(
            self, small_corpus, monkeypatch):
        from logfix import detector

        sample = small_corpus[0]
        model, head, history = train(small_corpus, SMALL_CONFIG)
        probs = predict(sample.context, sample.target, model, head)[1]
        monkeypatch.setattr(detector, "_bag", reference_bag)
        ref_model, ref_head, ref_history = train(small_corpus, SMALL_CONFIG)
        ref_probs = predict(sample.context, sample.target, ref_model,
                            ref_head)[1]
        assert history == ref_history
        params = {**model.parameters(), **head.parameters()}
        ref_params = {**ref_model.parameters(), **ref_head.parameters()}
        assert params.keys() == ref_params.keys()
        for name, value in params.items():
            assert value.tobytes() == ref_params[name].tobytes(), name
        assert probs.tobytes() == ref_probs.tobytes()


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
        words = tokenization._words

        def counting_words(text):
            segmented.append(text)
            return words(text)

        # the one place where split_tokens and tokenize split a text
        monkeypatch.setattr(tokenization, "_words", counting_words)
        train(small_corpus, SMALL_CONFIG)
        # 25 training and 5 validation samples, a statement and a method
        # each: the vocabulary and the id sequences share one segmentation
        assert len(segmented) == 2 * (25 + 5)

    def test_no_bag_holds_more_than_two_batches_of_rows(self, small_corpus,
                                                         monkeypatch):
        from logfix import detector

        rows = []

        def recording_bag(sequences, table_rows):
            rows.append(len(sequences))
            return _bag(sequences, table_rows)

        monkeypatch.setattr(detector, "_bag", recording_bag)
        config = TrainConfig(learning_rate=3e-3, epochs=1, dim=16,
                             vocab_size=256, batch_size=2)
        model, head, _ = train(small_corpus, config)
        # 25 training pairs in 13 steps, then 5 validation pairs in 3 chunks
        assert rows == [4] * 12 + [2] + [4, 4, 2]
        rows.clear()
        sample = small_corpus[0]
        predict(sample.context, sample.target, model, head)
        assert rows == [2]

    def test_every_step_builds_a_well_formed_batch(self, small_corpus,
                                                    monkeypatch):
        from logfix import detector

        sizes = []

        def checked_loss_and_grads(*args):
            loss, grads, batch = loss_and_grads(*args)
            sizes.append(len(batch.labels))
            assert_well_formed(batch, sizes[-1], SMALL_CONFIG.dim)
            return loss, grads, batch

        monkeypatch.setattr(detector, "loss_and_grads", checked_loss_and_grads)
        train(small_corpus, SMALL_CONFIG)
        # 25 training pairs in batches of 8, in each of 2 epochs
        assert sizes == [8, 8, 8, 1] * 2

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

    def test_an_older_checkpoint_with_a_vocabulary_limit_still_loads(
            self, small_corpus, tmp_path):
        # the limit is config.max_tokens; vocabulary.max_tokens, which older
        # checkpoints also wrote, is neither written nor read
        model, head, _ = train(small_corpus, SMALL_CONFIG)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), model, head, SMALL_CONFIG)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc["vocabulary"]) == ["tokens", "oov_buckets"]
        doc["vocabulary"]["max_tokens"] = 3
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded_model, loaded_head, loaded_config = load_checkpoint(str(path))
        assert loaded_config.max_tokens == SMALL_CONFIG.max_tokens
        for sample in small_corpus[:10]:
            orig = predict(sample.context, sample.target, model, head)
            redo = predict(sample.context, sample.target,
                           loaded_model, loaded_head)
            assert orig[0] is redo[0]
            assert orig[1].tobytes() == redo[1].tobytes()

    def test_loaded_arrays_are_the_saved_ones_and_writable(self, small_corpus,
                                                           tmp_path):
        model, head, _ = train(small_corpus, SMALL_CONFIG)
        path = tmp_path / "model.json"
        save_checkpoint(str(path), model, head, SMALL_CONFIG)
        loaded_model, loaded_head, _ = load_checkpoint(str(path))
        saved = {**model.parameters(), **head.parameters()}
        loaded = {**loaded_model.parameters(), **loaded_head.parameters()}
        assert list(loaded) == list(saved)
        for name, value in loaded.items():
            assert (value.dtype, value.shape) == (saved[name].dtype,
                                                  saved[name].shape)
            assert value.tobytes() == saved[name].tobytes(), name
            assert value.flags.writeable, name

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
