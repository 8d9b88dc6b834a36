"""Vocabularies, embedding file IO, and seeded synthetic datasets.

The synthetic generators keep the test and acceptance suites self-contained:
``clustered_embeddings`` produces well-separated cluster structure for code
learning, and ``marker_corpus`` produces a linearly separable bag-of-words
classification problem (each class owns a few exclusive marker tokens).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np


def make_vocab(n: int, prefix: str = "tok") -> list[str]:
    width = max(1, len(str(max(n - 1, 0))))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def load_embeddings(path) -> tuple[list[str], np.ndarray]:
    """Read a text embedding file: one `token v1 v2 ... vd` line per symbol,
    as (tokens in file order, (n, d) matrix).

    Rejects non-UTF-8 bytes, ragged rows, non-numeric or non-finite values and
    duplicate tokens with a ValueError that names the file and the offending
    line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
    line_of: dict[str, int] = {}
    rows: list[list[float]] = []
    dim: int | None = None
    # newline=None splits lines exactly as reading the file in text mode does
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ValueError(f"{path}:{lineno}: no embedding values on first row")
        elif len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: expected {dim} values, got {len(values)}"
            )
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric embedding value") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: non-finite embedding value")
        if token in line_of:
            raise ValueError(
                f"{path}:{lineno}: duplicate token {token!r} (first on line {line_of[token]})"
            )
        line_of[token] = lineno
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty embedding file")
    return list(line_of), np.array(rows, dtype=np.float64)


def save_embeddings(path, symbols: list[str], matrix: np.ndarray) -> None:
    """Inverse of load_embeddings; values written with shortest round-trip repr."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != len(symbols):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(symbols)} symbols")
    with open(path, "w", encoding="utf-8") as fh:
        for sym, row in zip(symbols, matrix):
            fh.write(sym + " " + " ".join(repr(float(v)) for v in row) + "\n")


def clustered_embeddings(
    n_symbols: int,
    dim: int,
    n_clusters: int,
    rng: np.random.Generator,
    center_scale: float = 1.0,
    spread: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows scattered around ``n_clusters`` Gaussian centers, balanced sizes.

    Returns (matrix, cluster assignment per row).
    """
    if n_clusters < 1 or n_clusters > n_symbols:
        raise ValueError("need 1 <= n_clusters <= n_symbols")
    centers = rng.normal(0.0, center_scale, (n_clusters, dim))
    assignments = rng.permutation(np.arange(n_symbols) % n_clusters)
    matrix = centers[assignments] + rng.normal(0.0, spread, (n_symbols, dim))
    return matrix, assignments


@dataclass
class LabeledCorpus:
    """Documents as symbol-index arrays plus one class label each."""

    docs: list[np.ndarray]
    labels: np.ndarray
    n_classes: int
    vocab_size: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.docs) != self.labels.shape[0]:
            raise ValueError("docs and labels must align")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        self.docs = [np.asarray(d, dtype=np.int64) for d in self.docs]
        for i, doc in enumerate(self.docs):
            if doc.size and (doc.min() < 0 or doc.max() >= self.vocab_size):
                raise ValueError(f"document {i} uses out-of-vocabulary index")

    def __len__(self) -> int:
        return len(self.docs)


def marker_corpus(
    rng: np.random.Generator,
    n_classes: int = 4,
    markers_per_class: int = 5,
    vocab_size: int = 2000,
    n_docs: int = 2000,
    doc_len: int = 20,
    marker_rate: float = 0.3,
) -> LabeledCorpus:
    """Separable-by-construction corpus: class c's documents mix exclusive
    marker tokens (ids c*markers_per_class..+markers_per_class-1) with shared
    distractor tokens; every document carries at least one marker."""
    n_markers = n_classes * markers_per_class
    if vocab_size <= n_markers:
        raise ValueError("vocab_size must exceed the marker token count")
    docs, labels = [], []
    for _ in range(n_docs):
        label = int(rng.integers(n_classes))
        lo = label * markers_per_class
        is_marker = rng.random(doc_len) < marker_rate
        tokens = rng.integers(n_markers, vocab_size, doc_len)
        marker_draws = rng.integers(lo, lo + markers_per_class, doc_len)
        tokens[is_marker] = marker_draws[is_marker]
        if not is_marker.any():
            tokens[0] = int(rng.integers(lo, lo + markers_per_class))
        docs.append(tokens)
        labels.append(label)
    return LabeledCorpus(
        docs=docs, labels=np.array(labels), n_classes=n_classes, vocab_size=vocab_size
    )


def split_indices(
    n: int, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle split into (train, val); val gets round(n*fraction), at
    least 1 when the fraction is positive and n > 1, and train keeps at least
    one item whenever n >= 1."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must lie in [0, 1)")
    order = rng.permutation(n)
    n_val = int(round(n * val_fraction))
    if val_fraction > 0 and n > 1:
        n_val = max(n_val, 1)
    n_val = min(n_val, max(n - 1, 0))
    return np.sort(order[n_val:]), np.sort(order[:n_val])
