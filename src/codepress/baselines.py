"""Comparison methods: the dense reference table, low-rank factorization,
product quantization, scalar quantization and random codes.

The dense reference trains through ``fit`` on the one-hot code (alphabet N,
code length 1); see ``fit_dense_embedding``.  A pretrained-code baseline is
no separate method: it is ``fit`` on a ``ReconstructionTask`` of the matrix,
whose code table a second fit can take as ``frozen_table``.

The ``evaluate_*`` wrappers return the method name, the reconstruction and a
config echo; they score nothing.  ``tasks.ReconstructionTask`` is the one
reconstruction error, and ``reporting.build_report`` derives every method's
bits from its echo through the same accounting as the coded layer, so error
and bit comparisons across methods are internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codes import CodeConfig, CodeTable
from .composer import ComposerKind
from .tasks import ReconstructionTask
from .training import FitResult, TrainConfig, fit


# -- low-rank factorization ---------------------------------------------------


@dataclass
class LowRankFactors:
    a: np.ndarray  # (n, rank)
    b: np.ndarray  # (rank, dim)

    def reconstruct(self) -> np.ndarray:
        return self.a @ self.b


def low_rank_fit(matrix: np.ndarray, rank: int) -> LowRankFactors:
    """Best rank-``rank`` factorization U ~= A @ B in squared error: the
    truncated SVD (Eckart-Young), with the singular values folded into A."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    if not 1 <= rank <= min(n, d):
        raise ValueError(f"rank must lie in [1, {min(n, d)}], got {rank}")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return LowRankFactors(a=u[:, :rank] * s[:rank], b=vt[:rank])


# -- k-means and product quantization ------------------------------------------

_KMEANS_MAX_ITER = 25  # Lloyd rounds at most
_KMEANS_TOL = 1e-6  # stop once a round improves the inertia by less than this share


@dataclass
class KMeansResult:
    centroids: np.ndarray  # (k, dim)
    assignments: np.ndarray  # (n,)
    inertia_history: list[float] = field(default_factory=list)

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread the initial centers: each next center is drawn with probability
    proportional to its squared distance from the chosen ones."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:  # every point already coincides with a center
            centers[i] = points[int(rng.integers(n))]
            continue
        centers[i] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def _nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)  # ties -> lowest index
    inertia = float(d2[np.arange(points.shape[0]), assign].sum())
    return assign, inertia


def lloyd_kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> KMeansResult:
    """Lloyd iterations from a k-means++ start; inertia never increases.

    Stops on relative improvement below ``_KMEANS_TOL`` or after
    ``_KMEANS_MAX_ITER`` rounds.
    Clusters that lose all members keep their previous center.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    centers = _kmeans_pp_init(points, k, rng)
    history: list[float] = []
    prev = float("inf")
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        assign, inertia = _nearest(points, centers)
        history.append(inertia)
        if prev - inertia <= _KMEANS_TOL * max(prev, 1e-12):
            break
        prev = inertia
        for c in range(k):
            members = points[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
    assign, inertia = _nearest(points, centers)
    history.append(inertia)
    return KMeansResult(centroids=centers, assignments=assign, inertia_history=history)


@dataclass
class PQResult:
    centroids: list[np.ndarray]  # one (k, block_width) array per subspace
    assignments: np.ndarray  # (n, subspaces)
    block_width: int

    @property
    def subspaces(self) -> int:
        return len(self.centroids)

    @property
    def n_centroids(self) -> int:
        return self.centroids[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        return np.concatenate(
            [self.centroids[j][self.assignments[:, j]] for j in range(self.subspaces)],
            axis=1,
        )


def product_quantize(
    matrix: np.ndarray, subspaces: int, n_centroids: int, rng: np.random.Generator
) -> PQResult:
    """Split columns into contiguous blocks and k-means-quantize each block."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    if d % subspaces != 0:
        raise ValueError(f"dim {d} not divisible into {subspaces} subspaces")
    if n_centroids > n:
        raise ValueError(f"cannot place {n_centroids} centroids over {n} points")
    width = d // subspaces
    centroids, assigns = [], []
    for j in range(subspaces):
        block = matrix[:, j * width : (j + 1) * width]
        km = lloyd_kmeans(block, n_centroids, rng)
        centroids.append(km.centroids)
        assigns.append(km.assignments)
    return PQResult(
        centroids=centroids, assignments=np.stack(assigns, axis=1), block_width=width
    )


# -- scalar quantization --------------------------------------------------------


@dataclass
class ScalarQuantResult:
    quantized: np.ndarray
    codes: np.ndarray  # integer grid positions
    offset: float
    scale: float
    bits: int

    def reconstruct(self) -> np.ndarray:
        return self.quantized


def scalar_quantize(matrix: np.ndarray, bits: int) -> ScalarQuantResult:
    """Uniform min-max grid with 2**bits levels over the whole matrix.

    Max absolute error is (max-min) / (2*(2**bits - 1)); a constant matrix is
    reproduced exactly (scale 0).
    """
    if not 1 <= bits <= 32:
        raise ValueError("bits must lie in [1, 32]")
    matrix = np.asarray(matrix, dtype=np.float64)
    lo, hi = float(matrix.min()), float(matrix.max())
    levels = 2**bits
    if hi == lo:
        return ScalarQuantResult(
            quantized=matrix.copy(),
            codes=np.zeros(matrix.shape, dtype=np.int64),
            offset=lo,
            scale=0.0,
            bits=bits,
        )
    scale = (hi - lo) / (levels - 1)
    codes = np.rint((matrix - lo) / scale).astype(np.int64)
    return ScalarQuantResult(
        quantized=lo + codes * scale, codes=codes, offset=lo, scale=scale, bits=bits
    )


# -- dense reference model ---------------------------------------------------------


def fit_dense_embedding(task, cfg: TrainConfig | None = None) -> FitResult:
    """Train a full (vocab, dim) embedding table on the task, no codes.

    This is the reference every compression method is measured against.  An
    embedding table is a linear map of the one-hot encoding, which is the
    coded layer with alphabet N, code length 1 and symbol i coded as the
    digit i: with no projection, the codebook's (1, N, dim) table is the
    embedding matrix and each row is a plain lookup.  ``fit`` trains it as a
    frozen code, so the table takes a dense optimizer update (rows with no
    gradient yet never move) and the best-validation checkpoint is restored.
    Task parameters (e.g. a classifier head) train jointly and stay on the
    task object, so quantized variants of ``embedding_matrix()`` can be
    re-scored through the same head via ``task.evaluate``.

    A ``ReconstructionTask`` with held-out rows raises: validation scores only
    those rows, which a lookup table never trains, so no epoch could improve
    on the initial table.
    """
    if isinstance(task, ReconstructionTask) and task.val_ids.size:
        raise ValueError("a reconstruction task validates on its held-out rows only, which a "
                         "dense table never trains; use val_fraction=0")
    if cfg is None:
        cfg = TrainConfig()
    n = task.vocab_size
    one_hot = CodeTable(symbols=[str(i) for i in range(n)], codes=np.arange(n)[:, None],
                        alphabet_size=n)
    code_cfg = CodeConfig(n, alphabet_size=n, code_length=1, code_embed_dim=task.embed_dim)
    return fit(task, code_cfg, ComposerKind.LINEAR, cfg, frozen_table=one_hot)


# -- code-table baselines --------------------------------------------------------


def random_codes(
    n: int,
    alphabet_size: int,
    code_length: int,
    seed: int,
    symbols: list[str] | None = None,
) -> CodeTable:
    """Digits drawn i.i.d. uniform over the alphabet; reproducible by seed."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, alphabet_size, (n, code_length))
    if symbols is None:
        symbols = [str(i) for i in range(n)]
    return CodeTable(symbols=symbols, codes=codes, alphabet_size=alphabet_size)


# -- packaged results -------------------------------------------------------------


class QuantizationResult(NamedTuple):
    method: str
    reconstruction: np.ndarray
    config: dict  # config echo; reporting.build_report derives storage from it


def _echo(family: str, matrix: np.ndarray, **fields) -> dict:
    n, d = matrix.shape
    return {"family": family, "vocab_size": n, "embed_dim": d, **fields}


def evaluate_full(matrix: np.ndarray) -> QuantizationResult:
    matrix = np.asarray(matrix, dtype=np.float64)
    return QuantizationResult("full", matrix, _echo("full", matrix))


def evaluate_low_rank(matrix: np.ndarray, rank: int) -> QuantizationResult:
    return QuantizationResult(f"lowrank(r={rank})", low_rank_fit(matrix, rank).reconstruct(),
                              _echo("lowrank", matrix, rank=rank))


def evaluate_pq(
    matrix: np.ndarray, subspaces: int, n_centroids: int, rng: np.random.Generator
) -> QuantizationResult:
    return QuantizationResult(
        f"pq({subspaces}x{n_centroids})",
        product_quantize(matrix, subspaces, n_centroids, rng).reconstruct(),
        _echo("pq", matrix, subspaces=subspaces, n_centroids=n_centroids),
    )


def evaluate_scalar(matrix: np.ndarray, bits: int) -> QuantizationResult:
    return QuantizationResult(f"scalar({bits}bit)", scalar_quantize(matrix, bits).reconstruct(),
                              _echo("scalar", matrix, bits_per_value=bits))
