"""Storage accounting: exact constants, digit-bit math, collision probability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress import accounting as acc
from codepress.reporting import accounting_for


def kd_bits(n: int, k: int, d: int, dprime: int) -> int:
    """Bits of a coded layer, read from its config echo."""
    return accounting_for({"family": "kd", "vocab_size": n, "embed_dim": 1, "alphabet_size": k,
                           "code_length": d, "digit_dim": dprime, "extra_params": 0})[1]


class TestDigitBits:
    def test_matches_smallest_power_of_two(self):
        for k in range(2, 1025):
            b = acc.bits_per_digit(k)
            assert 2**b >= k > 2 ** (b - 1)

    def test_non_power_of_two_rounds_up(self):
        assert acc.bits_per_digit(6) == 3
        assert acc.bits_per_digit(100) == 7

    def test_powers_of_two(self):
        assert acc.bits_per_digit(2) == 1
        assert acc.bits_per_digit(32) == 5


class TestLayerBits:
    def test_dense_table_constants(self):
        # printed sizes of a 10K-row float32 table at widths 200 / 650 / 1500
        assert acc.dense_layer_bits(10_000, 200) == 64_000_000
        assert acc.dense_layer_bits(10_000, 650) == 208_000_000
        assert acc.dense_layer_bits(10_000, 1500) == 480_000_000

    def test_code_only_bits(self):
        assert acc.code_bits(10_000, 32, 32) == 1_600_000

    def test_composer_params(self):
        assert acc.composer_params(32, 32, 300) == 307_200
        assert acc.composer_params(4, 2, 3, extra_params=11) == 24 + 11

    def test_coded_layer_bits_by_hand(self):
        # N=100, K=4, D=2, d'=3: 100*2*2 code bits + 32*24 param bits
        assert kd_bits(100, 4, 2, 3) == 400 + 768


class TestCollisions:
    def test_exact_birthday_products(self):
        assert acc.no_collision_probability(2, 2, 1) == pytest.approx(0.5, abs=1e-15)
        assert acc.no_collision_probability(5, 10, 1) == pytest.approx(
            0.9 * 0.8 * 0.7 * 0.6, abs=1e-12
        )

    def test_edge_cases(self):
        assert acc.no_collision_probability(1, 2, 1) == 1.0
        assert acc.no_collision_probability(0, 2, 1) == 1.0
        assert acc.no_collision_probability(3, 2, 1) == 0.0  # pigeonhole

    def test_large_vocabulary_footnote_value(self):
        # 1e9 symbols in a 100^10 space stay collision-free w.p. ~0.995
        p = acc.no_collision_probability(10**9, 100, 10)
        assert abs(p - 0.995) < 1e-3

    def test_approximation_agrees_with_exact_in_overlap(self):
        # same regime, one computed exactly and one via the exponential limit
        n, space_k, space_d = 500_000, 10, 12
        exact = acc.no_collision_probability(n, space_k, space_d)
        approx = math.exp(-n * (n - 1) / (2 * 10**12))
        assert abs(exact - approx) < 1e-4

    def test_monotone_in_vocab(self):
        probs = [acc.no_collision_probability(n, 8, 4) for n in (10, 50, 200, 1000)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(2, 12), st.integers(1, 6))
def test_probability_bounds(n, k, d):
    p = acc.no_collision_probability(n, k, d)
    assert 0.0 <= p <= 1.0
    if n > k**d:
        assert p == 0.0
    if n <= 1:
        assert p == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6), st.integers(2, 64), st.integers(1, 8), st.integers(1, 512))
def test_bits_are_consistent(n, k, d, dprime):
    total = kd_bits(n, k, d, dprime)
    assert total == acc.code_bits(n, k, d) + 32 * acc.composer_params(k, d, dprime)
    assert acc.code_bits(n, k, d) == n * d * acc.bits_per_digit(k)
