"""Compression baselines: low-rank SVD, k-means/PQ, scalar grids, code tables."""

import numpy as np
import pytest

from codepress.accounting import FLOAT_BITS, low_rank_bits, pq_bits, scalar_bits
from codepress.baselines import (
    evaluate_full,
    evaluate_low_rank,
    evaluate_pq,
    evaluate_scalar,
    lloyd_kmeans,
    low_rank_fit,
    product_quantize,
    random_codes,
    scalar_quantize,
)
from codepress.codes import CodeConfig
from codepress.composer import ComposerKind
from codepress.datasets import clustered_embeddings
from codepress.reporting import build_report
from codepress.tasks import ReconstructionTask
from codepress.training import TrainConfig, Trainer, fit


def svd_optimal_mse(matrix: np.ndarray, rank: int) -> float:
    """Best achievable rank-r per-entry MSE (Eckart-Young), as an oracle."""
    s = np.linalg.svd(matrix, compute_uv=False)
    return float((s[rank:] ** 2).sum() / matrix.size)


def entry_mse(recon: np.ndarray, matrix: np.ndarray) -> float:
    """Per-entry mean squared error, the scale of ``svd_optimal_mse``."""
    return float(((recon - matrix) ** 2).mean())


class TestLowRank:
    def test_recovers_exact_rank_one_factorization(self):
        rng = np.random.default_rng(77)
        matrix = np.outer(rng.normal(size=20), rng.normal(size=6))
        result = low_rank_fit(matrix, rank=1)
        assert entry_mse(result.reconstruct(), matrix) < 1e-6
        assert result.a.shape == (20, 1) and result.b.shape == (1, 6)

    def test_full_rank_fit_is_exact(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(8, 5))
        assert entry_mse(low_rank_fit(matrix, rank=5).reconstruct(), matrix) < 1e-6

    def test_error_decreases_with_rank_and_tracks_optimum(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(30, 20))
        err5 = entry_mse(low_rank_fit(matrix, rank=5).reconstruct(), matrix)
        err10 = entry_mse(low_rank_fit(matrix, rank=10).reconstruct(), matrix)
        assert err10 < err5
        assert err5 <= 1.25 * svd_optimal_mse(matrix, 5) + 1e-12
        assert err10 <= 1.25 * svd_optimal_mse(matrix, 10) + 1e-12

    def test_reconstruct_matches_factor_product(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(10, 7))
        result = low_rank_fit(matrix, rank=2)
        assert np.array_equal(result.reconstruct(), result.a @ result.b)

    def test_rank_bounds(self):
        matrix = np.zeros((6, 4))
        with pytest.raises(ValueError, match="rank"):
            low_rank_fit(matrix, rank=0)
        with pytest.raises(ValueError, match="rank"):
            low_rank_fit(matrix, rank=5)

    def test_bits_formula(self):
        assert low_rank_bits(100, 20, 5) == 32 * 5 * (100 + 20)


class TestKMeans:
    def test_inertia_history_never_increases(self):
        rng = np.random.default_rng(4)
        points, _ = clustered_embeddings(200, 6, 5, rng)
        result = lloyd_kmeans(points, 5, rng)
        hist = result.inertia_history
        assert len(hist) >= 2
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_one_center_per_point_is_lossless(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(12, 3))
        assert lloyd_kmeans(points, 12, rng).inertia == 0.0

    def test_repeated_distinct_rows_recovered_exactly(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(4, 5))
        points = np.repeat(base, 10, axis=0)
        result = lloyd_kmeans(points, 4, rng)
        assert result.inertia == pytest.approx(0.0, abs=1e-20)
        found = result.centroids[np.lexsort(result.centroids.T)]
        expect = base[np.lexsort(base.T)]
        assert np.allclose(found, expect, atol=1e-12)

    def test_degenerate_duplicates_do_not_crash(self):
        rng = np.random.default_rng(7)
        points = np.repeat([[1.0, 2.0], [3.0, 4.0]], 6, axis=0)
        result = lloyd_kmeans(points, 3, rng)  # more centers than distinct points
        assert result.inertia == pytest.approx(0.0, abs=1e-20)

    def test_k_bounds(self):
        points = np.zeros((5, 2))
        with pytest.raises(ValueError, match="k"):
            lloyd_kmeans(points, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="k"):
            lloyd_kmeans(points, 6, np.random.default_rng(0))

    def test_assignments_are_nearest_centers(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(50, 4))
        result = lloyd_kmeans(points, 6, rng)
        d2 = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(result.assignments, np.argmin(d2, axis=1))


class TestProductQuantization:
    def test_reconstruction_concatenates_blocks(self):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(15, 6))
        pq = product_quantize(matrix, subspaces=3, n_centroids=5, rng=rng)
        recon = pq.reconstruct()
        for j in range(3):
            block = pq.centroids[j][pq.assignments[:, j]]
            assert np.array_equal(recon[:, j * 2 : (j + 1) * 2], block)

    def test_one_subspace_reduces_to_plain_kmeans(self):
        matrix = np.random.default_rng(11).normal(size=(30, 4))
        pq = product_quantize(matrix, subspaces=1, n_centroids=6,
                              rng=np.random.default_rng(99))
        km = lloyd_kmeans(matrix, 6, np.random.default_rng(99))
        assert np.array_equal(pq.assignments[:, 0], km.assignments)
        assert np.array_equal(pq.centroids[0], km.centroids)

    def test_shape_errors(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="divisible"):
            product_quantize(np.zeros((10, 7)), 2, 3, rng)
        with pytest.raises(ValueError, match="centroids"):
            product_quantize(np.zeros((4, 6)), 2, 5, rng)

    def test_bits_worked_example(self):
        # 10^4 symbols, 650 dims, 2 subspaces of 64 centroids:
        # 10^4 * 2 * 6 assignment bits plus 32-bit centroid tables
        assert pq_bits(10_000, 650, 2, 64) == 120_000 + 32 * 64 * 650


class TestScalarQuantization:
    def test_error_within_half_grid_step(self):
        rng = np.random.default_rng(13)
        matrix = rng.uniform(0.0, 1.0, size=(100, 100))
        result = scalar_quantize(matrix, bits=8)
        spread = matrix.max() - matrix.min()
        bound = spread / (2 * (2**8 - 1))
        assert np.max(np.abs(result.quantized - matrix)) <= bound + 1e-15
        assert bound < 1.0 / 510.0

    def test_constant_matrix_is_exact(self):
        matrix = np.full((5, 4), 3.7)
        result = scalar_quantize(matrix, bits=8)
        assert np.array_equal(result.quantized, matrix)
        assert result.scale == 0.0

    def test_codes_stay_on_grid(self):
        rng = np.random.default_rng(14)
        result = scalar_quantize(rng.normal(size=(20, 10)), bits=3)
        assert result.codes.min() >= 0
        assert result.codes.max() <= 2**3 - 1
        rebuilt = result.offset + result.codes * result.scale
        assert np.array_equal(rebuilt, result.quantized)

    def test_32_bit_grid_is_nearly_lossless(self):
        rng = np.random.default_rng(15)
        matrix = rng.normal(size=(30, 30))
        result = scalar_quantize(matrix, bits=32)
        assert np.max(np.abs(result.quantized - matrix)) < 1e-8

    def test_bits_bounds_and_formula(self):
        with pytest.raises(ValueError, match="bits"):
            scalar_quantize(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError, match="bits"):
            scalar_quantize(np.zeros((2, 2)), 33)
        assert scalar_bits(1000, 50, 8) == 1000 * 50 * 8 + 64


class TestRandomCodes:
    def test_reproducible_by_seed(self):
        a = random_codes(50, 8, 4, seed=21)
        b = random_codes(50, 8, 4, seed=21)
        c = random_codes(50, 8, 4, seed=22)
        assert np.array_equal(a.codes, b.codes)
        assert not np.array_equal(a.codes, c.codes)

    def test_digits_uniform_over_alphabet(self):
        table = random_codes(100_000, 8, 2, seed=23)
        counts = np.bincount(table.codes.reshape(-1), minlength=8)
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 0.125) < 0.005)

    def test_shape_and_symbols(self):
        table = random_codes(7, 4, 3, seed=0, symbols=list("abcdefg"))
        assert table.codes.shape == (7, 3)
        assert table.symbols == list("abcdefg")
        assert random_codes(3, 4, 2, seed=0).symbols == ["0", "1", "2"]


class TestPretrainedCodes:
    def test_zero_epochs_returns_initial_assignments(self):
        rng = np.random.default_rng(16)
        matrix = rng.normal(size=(30, 6))
        cfg = TrainConfig(epochs=0, batch_size=16)
        code_cfg = CodeConfig(
            vocab_size=30, alphabet_size=4, code_length=3, code_embed_dim=6,
            allow_lossy=True,
        )
        result = fit(ReconstructionTask(matrix), code_cfg, ComposerKind.LINEAR, cfg)
        fresh = Trainer(ReconstructionTask(matrix), code_cfg, ComposerKind.LINEAR, cfg)
        assert np.array_equal(result.table.codes, fresh.current_table().codes)
        assert result.history == []

    def test_clustered_data_shares_codes_within_clusters(self):
        rng = np.random.default_rng(17)
        matrix, labels = clustered_embeddings(
            60, 8, 4, rng, center_scale=3.0, spread=0.05
        )
        cfg = TrainConfig(epochs=40, batch_size=32, learning_rate=0.02)
        code_cfg = CodeConfig(
            vocab_size=60, alphabet_size=4, code_length=2, code_embed_dim=8,
            allow_lossy=True,
        )
        table = fit(ReconstructionTask(matrix), code_cfg, ComposerKind.LINEAR, cfg).table
        same = labels[:, None] == labels[None, :]
        hamming = (table.codes[:, None, :] != table.codes[None, :, :]).sum(axis=2)
        off_diag = ~np.eye(60, dtype=bool)
        intra = hamming[same & off_diag].mean()
        cross = hamming[~same].mean()
        assert intra < cross


def stored_bits(result) -> int:
    """Bits of the report built from a wrapper's config echo."""
    return build_report(result.method, result.config).bits


class TestEvaluateWrappers:
    def test_full_is_lossless_reference(self):
        matrix = np.random.default_rng(18).normal(size=(40, 10))
        result = evaluate_full(matrix)
        assert np.array_equal(result.reconstruction, matrix)
        assert stored_bits(result) == 32 * 40 * 10
        assert result.method == "full"

    def test_low_rank_tag_and_bits(self):
        matrix = np.random.default_rng(19).normal(size=(20, 10))
        result = evaluate_low_rank(matrix, rank=3)
        assert result.method == "lowrank(r=3)"
        assert stored_bits(result) == low_rank_bits(20, 10, 3)
        assert entry_mse(result.reconstruction, matrix) > 0

    def test_pq_tag_and_bits(self):
        matrix = np.random.default_rng(20).normal(size=(30, 8))
        result = evaluate_pq(matrix, subspaces=2, n_centroids=4,
                             rng=np.random.default_rng(0))
        assert result.method == "pq(2x4)"
        assert stored_bits(result) == pq_bits(30, 8, 2, 4)

    def test_scalar_tag_and_bits(self):
        matrix = np.random.default_rng(21).normal(size=(30, 8))
        result = evaluate_scalar(matrix, bits=8)
        assert result.method == "scalar(8bit)"
        assert stored_bits(result) == scalar_bits(30, 8, 8)
        assert np.array_equal(result.reconstruction, scalar_quantize(matrix, 8).quantized)

    def test_params_counts_are_stored_values(self):
        matrix = np.random.default_rng(22).normal(size=(16, 6))

        def stored_params(result) -> int:
            return build_report(result.method, result.config).params_count

        assert stored_params(evaluate_full(matrix)) == 16 * 6
        assert stored_params(evaluate_low_rank(matrix, rank=2)) == 2 * (16 + 6)
        pq = evaluate_pq(matrix, 2, 3, rng=np.random.default_rng(1))
        assert stored_params(pq) == 3 * 6  # centroid entries
