"""Trainable tasks over an embedding layer.

A task owns the data, the task-specific parameters, and the loss.  The
trainer hands it minibatch embedding rows (differentiable) during training
and a plain row-materializing function during evaluation, so any embedding
layer — dense, coded, or a quantization baseline — plugs in unchanged.

Task protocol (duck-typed):

* ``vocab_size``, ``embed_dim`` and ``train_ids`` attributes (the trainer sizes
  its schedules from ``len(train_ids)``)
* ``train_batches(batch_size, rng)`` -> Iterator[SymbolBatch], drawing its
  shuffle from ``rng`` when called and building each batch as it is asked for
* ``batch_loss(rows, batch)`` -> scalar Tensor (already normalized)
* ``parameters()`` -> dict of task-owned trainable tensors
* ``validation_loss(embed_rows)`` / ``evaluate(embed_rows)`` where
  ``embed_rows(indices) -> ndarray`` materializes embedding rows
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datasets import LabeledCorpus, split_indices

EmbedRows = Callable[[np.ndarray], np.ndarray]


@dataclass
class SymbolBatch:
    """One minibatch: the unique symbols it touches plus task payload."""

    symbols: np.ndarray  # unique, ascending symbol ids
    targets: np.ndarray | None = None  # reconstruction targets, aligned with symbols
    doc_matrix: np.ndarray | None = None  # (docs, len(symbols)) averaging weights
    labels: np.ndarray | None = None


class ReconstructionTask:
    """Match composed embeddings to fixed target rows.

    Loss is the mean over batch symbols of the squared row error
    ||v_i - u_i||^2 (so unit-norm targets against a zero composer score 1.0).

    By default no rows are held out: every symbol's code is trained and the
    validation metric is the same loss evaluated in inference mode (hard
    codes) over all rows.  A positive ``val_fraction`` holds rows out of
    training entirely, which leaves their codes untrained — useful for
    probing the sparse-update contract, not for compression quality.
    """

    def __init__(self, targets: np.ndarray, val_fraction: float = 0.0, split_seed: int = 0):
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.targets.ndim != 2 or 0 in self.targets.shape:
            raise ValueError(f"targets must be a non-empty (vocab, dim) matrix, "
                             f"got shape {self.targets.shape}")
        self.vocab_size, self.embed_dim = self.targets.shape
        split_rng = np.random.default_rng(split_seed)
        self.train_ids, self.val_ids = split_indices(self.vocab_size, val_fraction, split_rng)

    def train_batches(self, batch_size: int, rng: np.random.Generator) -> Iterator[SymbolBatch]:
        order = rng.permutation(self.train_ids)
        return (self._batch(np.sort(order[start : start + batch_size]))
                for start in range(0, order.size, batch_size))

    def _batch(self, symbols: np.ndarray) -> SymbolBatch:
        return SymbolBatch(symbols=symbols, targets=self.targets[symbols])

    def batch_loss(self, rows: Tensor, batch: SymbolBatch) -> Tensor:
        target = Tensor(batch.targets, op="leaf", name="recon_targets")
        return ad.scale(ad.squared_error(rows, target), 1.0 / batch.symbols.size)

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def _mse(self, embed_rows: EmbedRows, ids: np.ndarray) -> float:
        if ids.size == 0:
            return 0.0
        diff = embed_rows(ids) - self.targets[ids]
        return float((diff * diff).sum() / ids.size)

    def validation_loss(self, embed_rows: EmbedRows) -> float:
        ids = self.val_ids if self.val_ids.size else self.train_ids
        return self._mse(embed_rows, ids)

    def evaluate(self, embed_rows: EmbedRows) -> dict[str, float]:
        """Error over every row, and over the held-out rows; with none held
        out the two are one pass over the vocabulary."""
        mse = self._mse(embed_rows, np.arange(self.vocab_size))
        val_mse = self._mse(embed_rows, self.val_ids) if self.val_ids.size else mse
        return {"reconstruction_mse": mse, "val_mse": val_mse}


def _averaging_matrix(docs: list[np.ndarray], symbols: np.ndarray) -> np.ndarray:
    """Row r holds doc r's token frequencies over ``symbols``, normalized to
    sum 1, so (matrix @ rows) is each document's mean embedding."""
    mat = np.zeros((len(docs), symbols.size))
    for r, doc in enumerate(docs):
        pos = np.searchsorted(symbols, doc)
        np.add.at(mat[r], pos, 1.0 / doc.size)
    return mat


class ClassificationTask:
    """Bag-of-embeddings text classification.

    A document's vector is the mean of its tokens' embeddings; a single
    affine layer plus softmax cross-entropy predicts the class.  The affine
    layer is the task-owned parameter set.
    """

    def __init__(
        self,
        corpus: LabeledCorpus,
        embed_dim: int,
        rng: np.random.Generator,
        val_fraction: float = 0.1,
        split_seed: int = 0,
    ):
        kept = [i for i, d in enumerate(corpus.docs) if d.size > 0]
        self.skipped_empty = len(corpus.docs) - len(kept)
        if self.skipped_empty:
            warnings.warn(f"skipped {self.skipped_empty} empty documents", stacklevel=2)
        if not kept:
            raise ValueError("corpus has no non-empty documents")
        self.docs = [corpus.docs[i] for i in kept]
        self.labels = corpus.labels[kept]
        self.n_classes = corpus.n_classes
        self.vocab_size = corpus.vocab_size
        self.embed_dim = embed_dim
        scale = 1.0 / np.sqrt(embed_dim)
        self.w = Tensor(rng.uniform(-scale, scale, (embed_dim, self.n_classes)), name="cls_w")
        self.b = Tensor(np.zeros(self.n_classes), name="cls_b")
        split_rng = np.random.default_rng(split_seed)
        self.train_ids, self.val_ids = split_indices(len(self.docs), val_fraction, split_rng)

    def train_batches(self, batch_size: int, rng: np.random.Generator) -> Iterator[SymbolBatch]:
        order = rng.permutation(self.train_ids)
        return (self._batch(order[start : start + batch_size])
                for start in range(0, order.size, batch_size))

    def _batch(self, doc_ids: np.ndarray) -> SymbolBatch:
        docs = [self.docs[i] for i in doc_ids]
        symbols = np.unique(np.concatenate(docs))
        return SymbolBatch(
            symbols=symbols,
            doc_matrix=_averaging_matrix(docs, symbols),
            labels=self.labels[doc_ids],
        )

    def batch_loss(self, rows: Tensor, batch: SymbolBatch) -> Tensor:
        weights = Tensor(batch.doc_matrix, op="leaf", name="doc_weights")
        doc_vectors = weights @ rows
        logits = ad.add(doc_vectors @ self.w, self.b)
        return ad.cross_entropy_logits(logits, batch.labels)

    def parameters(self) -> dict[str, Tensor]:
        return {"cls_w": self.w, "cls_b": self.b}

    def _forward(self, embed_rows: EmbedRows, doc_ids: np.ndarray) -> np.ndarray:
        batch = self._batch(doc_ids)
        doc_vectors = batch.doc_matrix @ embed_rows(batch.symbols)
        return doc_vectors @ self.w.data + self.b.data

    def _loss_acc(self, embed_rows: EmbedRows, doc_ids: np.ndarray) -> tuple[float, float]:
        logits = self._forward(embed_rows, doc_ids)
        labels = self.labels[doc_ids]
        loss = ad.cross_entropy_logits(Tensor(logits), labels).item()
        acc = float((np.argmax(logits, axis=-1) == labels).mean())
        return loss, acc

    def validation_loss(self, embed_rows: EmbedRows) -> float:
        ids = self.val_ids if self.val_ids.size else self.train_ids
        return self._loss_acc(embed_rows, ids)[0]

    def evaluate(self, embed_rows: EmbedRows) -> dict[str, float]:
        val_ids = self.val_ids if self.val_ids.size else self.train_ids
        val_loss, val_acc = self._loss_acc(embed_rows, val_ids)
        _, train_acc = self._loss_acc(embed_rows, self.train_ids)
        return {"val_loss": val_loss, "val_accuracy": val_acc, "train_accuracy": train_acc}
