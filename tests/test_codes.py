"""Code representation: relaxation, entropy, hard tables, text export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress import autodiff as ad
from codepress.autodiff import Tensor
from codepress.codes import (
    LOG_FLOOR,
    CodeConfig,
    CodeTable,
    code_groups,
    code_space_stats,
    entropy_regularizer,
    extract_codes,
    init_logits,
    load_code_table,
    save_code_table,
)


class TestConfig:
    def test_code_space(self):
        assert CodeConfig(100, 10, 3, 8).code_space == 1000

    def test_code_space_is_exact_bigint(self):
        cfg = CodeConfig(10, 100, 10, 4)
        assert cfg.code_space == 100**10

    def test_rejects_unaddressable_vocab(self):
        with pytest.raises(ValueError, match="cannot address"):
            CodeConfig(vocab_size=10, alphabet_size=2, code_length=3, code_embed_dim=4)

    def test_allow_lossy_permits_collisions(self):
        cfg = CodeConfig(10, 2, 3, 4, allow_lossy=True)
        assert cfg.code_space == 8 < cfg.vocab_size

    def test_field_validation(self):
        with pytest.raises(ValueError):
            CodeConfig(0, 2, 2, 2)
        with pytest.raises(ValueError):
            CodeConfig(2, 1, 2, 2)
        with pytest.raises(ValueError):
            CodeConfig(2, 2, 0, 2)


class TestRelaxation:
    def test_init_logits_shape_and_scale(self):
        cfg = CodeConfig(50, 8, 3, 4)
        logits = init_logits(cfg, np.random.default_rng(0))
        assert logits.data.shape == (50, 3, 8)
        assert np.max(np.abs(logits.data)) < 0.1  # near-zero start

    def test_low_tau_approaches_one_hot(self):
        x = Tensor([[[1.0, 0.5, 0.0]]])
        hot = ad.softmax_t(x, 1e-3).data
        assert hot[0, 0, 0] > 1.0 - 1e-12

    def test_straight_through_on_relaxed_rows(self):
        x = Tensor(np.random.default_rng(2).normal(size=(5, 2, 4)))
        relaxed = ad.softmax_t(x, 1.0)
        hard = ad.straight_through(relaxed)
        assert np.array_equal(hard.data, ad.hard_one_hot(relaxed.data))


class TestEntropy:
    def test_one_hot_rows_have_zero_entropy(self):
        rows = Tensor([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert entropy_regularizer(rows).item() == 0.0

    def test_uniform_row_entropy_is_log_k(self):
        k = 5
        rows = Tensor(np.full((1, k), 1.0 / k))
        assert np.isclose(entropy_regularizer(rows).item(), np.log(k), atol=1e-12)

    def test_matches_manual_sum(self):
        p = np.array([[0.2, 0.3, 0.5]])
        expected = -np.sum(p * np.log(p))
        assert np.isclose(entropy_regularizer(Tensor(p)).item(), expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = Tensor(rng.uniform(0.05, 1.0, (2, 4)))
            err = ad.finite_difference_check(lambda: entropy_regularizer(x), x)
            assert err < 1e-4

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            entropy_regularizer(Tensor([[-0.1, 1.1]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 3.0), st.floats(-4.0, 4.0))
    def test_matches_the_composite_bit_for_bit(self, seed, tau, upstream):
        """Value and gradient equal the per-op ``-tsum(multiply(p, log(p)))``
        rule, rows with exact zeros and with entries below the floor included."""
        rng = np.random.default_rng(seed)
        p = ad.softmax_t(Tensor(rng.normal(0.0, 1.0, (6, 3, 4))), tau).data
        p[0, 0] = [1.0, 0.0, 0.0, 0.0]
        p[1, 2] = [0.0, 1.0 - 1e-13, 1e-13, 0.0]
        clipped = np.maximum(p, LOG_FLOOR)
        logp = np.log(clipped)
        value_ref = (p * logp).sum() * -1.0
        # backward of the scale(-1), tsum, multiply and log nodes, in graph order
        g_mult = np.zeros_like(p) + (0.0 + upstream * -1.0)
        grad_ref = np.zeros_like(p) + g_mult * logp
        grad_ref += (np.zeros_like(p) + g_mult * p) * (p >= LOG_FLOOR) / clipped

        relaxed = Tensor(p)
        out = entropy_regularizer(relaxed)
        assert np.array_equal(out.data, value_ref)
        grad = ad.gradients(ad.scale(out, upstream), {"relaxed": relaxed})["relaxed"]
        assert np.array_equal(grad, grad_ref)


class TestExtract:
    def test_argmax_per_position(self):
        logits = np.zeros((2, 2, 3))
        logits[0, 0, 2] = 1.0
        logits[0, 1, 1] = 1.0
        logits[1, 0, 0] = 1.0
        logits[1, 1, 2] = 1.0
        table = extract_codes(logits)
        assert np.array_equal(table.codes, [[2, 1], [0, 2]])

    def test_ties_take_lowest_index(self):
        logits = np.zeros((1, 3, 4))
        table = extract_codes(logits)
        assert np.array_equal(table.codes, [[0, 0, 0]])

    def test_symbols_default_to_indices(self):
        table = extract_codes(np.zeros((3, 1, 2)))
        assert table.symbols == ["0", "1", "2"]

    def test_code_string_rendering(self):
        table = CodeTable(symbols=["a"], codes=[[3, 0, 2]], alphabet_size=4)
        assert table.code_string(0) == "3-0-2"

    def test_digit_range_validation(self):
        with pytest.raises(ValueError, match="digits"):
            CodeTable(symbols=["a"], codes=[[5]], alphabet_size=4)


class TestTableIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        table = CodeTable(
            symbols=[f"w{i}" for i in range(20)],
            codes=rng.integers(0, 6, (20, 4)),
            alphabet_size=6,
        )
        path = tmp_path / "codes.txt"
        save_code_table(table, path)
        loaded = load_code_table(path)
        assert loaded.symbols == table.symbols
        assert np.array_equal(loaded.codes, table.codes)
        assert loaded.alphabet_size == 6

    def test_header_format(self, tmp_path):
        table = CodeTable(symbols=["x", "y"], codes=[[0, 1], [1, 0]], alphabet_size=2)
        path = tmp_path / "codes.txt"
        save_code_table(table, path)
        first = path.read_text().splitlines()[0]
        assert first == "#kd K=2 D=2 N=2"

    def test_line_rendering(self, tmp_path):
        table = CodeTable(symbols=["hello"], codes=[[1, 2, 3]], alphabet_size=4)
        path = tmp_path / "codes.txt"
        save_code_table(table, path)
        assert path.read_text().splitlines()[1] == "hello 1-2-3"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello 1-2\n")
        with pytest.raises(ValueError, match="#kd"):
            load_code_table(path)

    def test_wrong_digit_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#kd K=4 D=3 N=1\nhello 1-2\n")
        with pytest.raises(ValueError, match=":2:"):
            load_code_table(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#kd K=4 D=2 N=2\nhello 1-2\n")
        with pytest.raises(ValueError, match="N=2"):
            load_code_table(path)


class TestStats:
    def test_unique_and_collisions(self):
        table = CodeTable(
            symbols=list("abcd"), codes=[[0, 0], [0, 1], [0, 0], [1, 1]], alphabet_size=2
        )
        stats = code_space_stats(table)
        assert stats.unique_codes == 3
        assert stats.collisions == 1
        assert stats.utilization == 3 / 4

    def test_groups_preserve_insertion_order(self):
        table = CodeTable(
            symbols=list("abc"), codes=[[1, 1], [0, 0], [1, 1]], alphabet_size=2
        )
        groups = code_groups(table)
        assert groups[(1, 1)] == [0, 2]
        assert groups[(0, 0)] == [1]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.integers(1, 30), st.integers(0, 10))
def test_extract_round_trips_through_file(tmp_path_factory, k, d, n, seed):
    rng = np.random.default_rng(seed)
    table = CodeTable(
        symbols=[f"s{i}" for i in range(n)],
        codes=rng.integers(0, k, (n, d)),
        alphabet_size=k,
    )
    path = tmp_path_factory.mktemp("codes") / "t.txt"
    save_code_table(table, path)
    loaded = load_code_table(path)
    assert loaded.symbols == table.symbols
    assert np.array_equal(loaded.codes, table.codes)
