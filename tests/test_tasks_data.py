"""Synthetic data generators, embedding file IO, and training tasks."""

import re

import numpy as np
import pytest

from codepress.autodiff import Tensor
from codepress.codes import CodeConfig
from codepress.datasets import (
    LabeledCorpus,
    clustered_embeddings,
    load_embeddings,
    make_vocab,
    marker_corpus,
    save_embeddings,
    split_indices,
)
from codepress.tasks import ClassificationTask, ReconstructionTask, _averaging_matrix
from codepress.training import TrainConfig, fit


class TestVocab:
    def test_make_vocab_pads_indices_to_one_width(self):
        assert make_vocab(4) == ["tok0", "tok1", "tok2", "tok3"]
        assert make_vocab(11)[:2] == ["tok00", "tok01"]


class TestEmbeddingIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vocab = make_vocab(9)
        matrix = rng.normal(size=(9, 5)) * 10.0 ** rng.integers(-8, 8, (9, 5))
        path = tmp_path / "emb.txt"
        save_embeddings(path, vocab, matrix)
        symbols, loaded = load_embeddings(path)
        assert symbols == vocab
        assert np.array_equal(loaded, matrix)

    def test_ragged_row_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: expected 2 values, got 1"):
            load_embeddings(path)

    def test_non_numeric_value_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.0 2.0\nb 1.0 oops\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: non-numeric"):
            load_embeddings(path)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1.0\na 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_embeddings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            load_embeddings(path)

    def test_token_only_first_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\n")
        with pytest.raises(ValueError, match="no embedding values"):
            load_embeddings(path)


class TestClusteredEmbeddings:
    def test_balanced_cluster_sizes(self):
        rng = np.random.default_rng(1)
        _, labels = clustered_embeddings(100, 8, 7, rng)
        counts = np.bincount(labels, minlength=7)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 100

    def test_points_stay_near_their_centers(self):
        rng = np.random.default_rng(2)
        points, labels = clustered_embeddings(
            200, 4, 5, rng, center_scale=10.0, spread=0.01
        )
        for c in range(5):
            members = points[labels == c]
            center = members.mean(axis=0)
            assert np.linalg.norm(members - center, axis=1).max() < 1.0

    def test_deterministic_per_rng_state(self):
        a, la = clustered_embeddings(30, 3, 4, np.random.default_rng(3))
        b, lb = clustered_embeddings(30, 3, 4, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)


class TestMarkerCorpus:
    def test_every_doc_carries_a_class_marker(self):
        rng = np.random.default_rng(4)
        corpus = marker_corpus(rng, n_classes=3, markers_per_class=4,
                               vocab_size=100, n_docs=300, doc_len=10)
        for doc, label in zip(corpus.docs, corpus.labels):
            lo = label * 4
            assert np.any((doc >= lo) & (doc < lo + 4))

    def test_markers_are_class_exclusive(self):
        rng = np.random.default_rng(5)
        corpus = marker_corpus(rng, n_classes=3, markers_per_class=4,
                               vocab_size=100, n_docs=300, doc_len=10)
        n_markers = 12
        for doc, label in zip(corpus.docs, corpus.labels):
            markers = doc[doc < n_markers]
            assert np.all(markers // 4 == label)

    def test_tokens_within_vocab(self):
        corpus = marker_corpus(np.random.default_rng(6), vocab_size=50,
                               n_docs=40, doc_len=8)
        for doc in corpus.docs:
            assert doc.min() >= 0 and doc.max() < 50

    def test_vocab_must_fit_markers(self):
        with pytest.raises(ValueError, match="marker"):
            marker_corpus(np.random.default_rng(7), n_classes=4,
                          markers_per_class=5, vocab_size=20)

    def test_corpus_validation(self):
        with pytest.raises(ValueError):
            LabeledCorpus(docs=[np.array([0])], labels=np.array([5]),
                          n_classes=2, vocab_size=10)


class TestSplitIndices:
    def test_partition_properties(self):
        rng = np.random.default_rng(8)
        train, val = split_indices(100, 0.2, rng)
        assert val.size == 20
        assert np.array_equal(np.sort(np.concatenate([train, val])), np.arange(100))
        assert np.array_equal(train, np.sort(train))
        assert np.array_equal(val, np.sort(val))

    def test_small_positive_fraction_keeps_one_row(self):
        train, val = split_indices(10, 0.01, np.random.default_rng(9))
        assert val.size == 1
        assert train.size == 9

    def test_zero_fraction_holds_nothing_out(self):
        train, val = split_indices(10, 0.0, np.random.default_rng(10))
        assert val.size == 0
        assert np.array_equal(train, np.arange(10))

    @pytest.mark.parametrize("fraction", [0.5, 0.6, 0.99])
    def test_one_item_stays_in_training(self, fraction):
        train, val = split_indices(1, fraction, np.random.default_rng(11))
        assert train.tolist() == [0] and val.size == 0

    def test_one_document_classification_trains_and_evaluates(self):
        corpus = LabeledCorpus(docs=[np.array([0, 2, 2])], labels=np.array([1]),
                               n_classes=2, vocab_size=4)
        task = ClassificationTask(corpus, 4, np.random.default_rng(0), val_fraction=0.6)
        code = CodeConfig(vocab_size=4, alphabet_size=2, code_length=2, code_embed_dim=4)
        result = fit(task, code, "linear-sum", TrainConfig(epochs=2, batch_size=4, seed=0))
        assert [record["step"] for record in result.history] == [1, 2]
        assert set(result.evaluate()) == {"val_loss", "val_accuracy", "train_accuracy"}

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="val_fraction"):
            split_indices(10, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="val_fraction"):
            split_indices(10, -0.1, np.random.default_rng(0))


class TestReconstructionTask:
    def test_unit_targets_against_zero_rows_score_one(self):
        targets = np.eye(4)  # unit-norm rows
        task = ReconstructionTask(targets)
        batch = next(iter(task.train_batches(4, np.random.default_rng(0))))
        loss = task.batch_loss(Tensor(np.zeros((4, 4))), batch)
        assert loss.item() == pytest.approx(1.0)

    def test_exact_rows_score_zero(self):
        targets = np.random.default_rng(11).normal(size=(10, 3))
        task = ReconstructionTask(targets)
        batch = next(iter(task.train_batches(10, np.random.default_rng(0))))
        loss = task.batch_loss(Tensor(targets[batch.symbols]), batch)
        assert loss.item() == 0.0

    def test_default_holds_nothing_out(self):
        task = ReconstructionTask(np.zeros((8, 2)))
        assert np.array_equal(task.train_ids, np.arange(8))
        assert task.val_ids.size == 0

    def test_holdout_rows_disjoint_from_training(self):
        task = ReconstructionTask(np.zeros((20, 2)), val_fraction=0.25)
        assert task.val_ids.size == 5
        assert np.intersect1d(task.train_ids, task.val_ids).size == 0

    def test_evaluate_reports_overall_and_validation_mse(self):
        rng = np.random.default_rng(12)
        targets = rng.normal(size=(12, 4))
        task = ReconstructionTask(targets, val_fraction=0.25)
        report = task.evaluate(lambda ids: np.zeros((len(ids), 4)))
        expect_all = float((targets**2).sum() / 12)
        expect_val = float((targets[task.val_ids] ** 2).sum() / task.val_ids.size)
        assert report["reconstruction_mse"] == pytest.approx(expect_all, rel=1e-12)
        assert report["val_mse"] == pytest.approx(expect_val, rel=1e-12)

    def test_batches_cover_all_training_rows_once(self):
        task = ReconstructionTask(np.zeros((23, 2)))
        batches = list(task.train_batches(5, np.random.default_rng(13)))
        seen = np.concatenate([b.symbols for b in batches])
        assert np.array_equal(np.sort(seen), np.arange(23))
        assert all(b.symbols.size <= 5 for b in batches)

    def test_rejects_non_matrix_targets(self):
        for shape in [(5,), (0, 4), (5, 0)]:  # no matrix, no rows, no columns
            with pytest.raises(ValueError, match=r"vocab.*" + re.escape(str(shape))):
                ReconstructionTask(np.zeros(shape))

    @pytest.mark.parametrize("val_fraction, passes", [(0.0, 1), (0.25, 2)])
    def test_evaluate_composes_the_vocabulary_once_without_held_out_rows(
            self, val_fraction, passes):
        rng = np.random.default_rng(14)
        targets, rows = rng.normal(size=(12, 4)), rng.normal(size=(12, 4))
        task = ReconstructionTask(targets, val_fraction=val_fraction)
        asked = []

        def embed_rows(ids):
            asked.append(np.copy(ids))
            return rows[ids]

        scores = task.evaluate(embed_rows)
        assert len(asked) == passes
        assert np.array_equal(asked[0], np.arange(12))

        def mse(ids):  # one pass of the error over ``ids``
            diff = rows[ids] - targets[ids]
            return float((diff * diff).sum() / ids.size)

        val_ids = task.val_ids if task.val_ids.size else np.arange(12)
        assert scores == {"reconstruction_mse": mse(np.arange(12)), "val_mse": mse(val_ids)}


class TestAveragingMatrix:
    def test_small_oracle(self):
        docs = [np.array([0, 1]), np.array([2])]
        mat = _averaging_matrix(docs, np.array([0, 1, 2]))
        assert np.array_equal(mat, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])

    def test_repeated_tokens_weight_by_frequency(self):
        mat = _averaging_matrix([np.array([3, 3, 5])], np.array([3, 5]))
        assert np.allclose(mat, [[2 / 3, 1 / 3]])
        assert mat.sum(axis=1) == pytest.approx(1.0)


def small_corpus(seed=14, n_docs=60):
    return marker_corpus(
        np.random.default_rng(seed), n_classes=3, markers_per_class=2,
        vocab_size=30, n_docs=n_docs, doc_len=6, marker_rate=0.5,
    )


class TestClassificationTask:
    def test_mean_embedding_forward_matches_hand_computation(self):
        corpus = LabeledCorpus(
            docs=[np.array([0, 1]), np.array([2, 2])],
            labels=np.array([0, 1]), n_classes=2, vocab_size=3,
        )
        task = ClassificationTask(corpus, embed_dim=2,
                                  rng=np.random.default_rng(15), val_fraction=0.0)
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        logits = task._forward(lambda ids: emb[ids], np.array([0, 1]))
        expect = np.array([[0.5, 0.5], [2.0, 2.0]]) @ task.w.data + task.b.data
        assert np.allclose(logits, expect, atol=1e-14)

    def test_token_order_within_documents_is_irrelevant(self):
        corpus = small_corpus()
        task = ClassificationTask(corpus, embed_dim=4,
                                  rng=np.random.default_rng(16), val_fraction=0.0)
        rng = np.random.default_rng(17)
        emb = rng.normal(size=(30, 4))
        base = task._loss_acc(lambda ids: emb[ids], task.train_ids)
        shuffled = LabeledCorpus(
            docs=[rng.permutation(d) for d in corpus.docs],
            labels=corpus.labels, n_classes=3, vocab_size=30,
        )
        task2 = ClassificationTask(shuffled, embed_dim=4,
                                   rng=np.random.default_rng(16), val_fraction=0.0)
        other = task2._loss_acc(lambda ids: emb[ids], task2.train_ids)
        assert base[0] == pytest.approx(other[0], rel=1e-12)
        assert base[1] == other[1]

    def test_empty_documents_are_skipped_with_warning(self):
        corpus = LabeledCorpus(
            docs=[np.array([0, 1]), np.array([], dtype=np.int64), np.array([2])],
            labels=np.array([0, 1, 0]), n_classes=2, vocab_size=3,
        )
        with pytest.warns(UserWarning, match="skipped 1 empty"):
            task = ClassificationTask(corpus, embed_dim=2,
                                      rng=np.random.default_rng(18), val_fraction=0.0)
        assert task.skipped_empty == 1
        assert len(task.docs) == 2
        assert np.array_equal(task.labels, [0, 0])

    def test_all_empty_corpus_rejected(self):
        corpus = LabeledCorpus(
            docs=[np.array([], dtype=np.int64)], labels=np.array([0]),
            n_classes=1, vocab_size=3,
        )
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no non-empty"):
                ClassificationTask(corpus, embed_dim=2, rng=np.random.default_rng(0))

    def test_separable_markers_reach_full_accuracy_with_ideal_embeddings(self):
        corpus = small_corpus(n_docs=90)
        task = ClassificationTask(corpus, embed_dim=3,
                                  rng=np.random.default_rng(19), val_fraction=0.2)
        # hand-build embeddings: marker tokens point along their class axis
        emb = np.zeros((30, 3))
        for c in range(3):
            emb[2 * c : 2 * c + 2, c] = 5.0
        task.w.data = np.eye(3) * 4.0
        report = task.evaluate(lambda ids: emb[ids])
        assert report["train_accuracy"] == 1.0
        assert report["val_accuracy"] == 1.0

    def test_batches_carry_only_needed_symbols(self):
        corpus = small_corpus()
        task = ClassificationTask(corpus, embed_dim=4,
                                  rng=np.random.default_rng(20), val_fraction=0.0)
        for batch in task.train_batches(8, np.random.default_rng(21)):
            assert np.array_equal(batch.symbols, np.unique(batch.symbols))
            assert batch.doc_matrix.shape == (batch.labels.size, batch.symbols.size)
            assert batch.doc_matrix.sum(axis=1) == pytest.approx(1.0)
