"""Storage accounting for coded embedding layers, plus code-space collision math.

All arithmetic is done in exact Python integers / floats — code spaces like
100**10 overflow int64, so nothing here touches numpy integer dtypes.
"""

from __future__ import annotations

import math

FLOAT_BITS = 32


def bits_per_digit(alphabet_size: int) -> int:
    """ceil(log2 K): bits to store one digit of a code."""
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be >= 2")
    return (alphabet_size - 1).bit_length()


def code_bits(vocab_size: int, alphabet_size: int, code_length: int) -> int:
    """Bits to store the code table itself: N * D * ceil(log2 K)."""
    return vocab_size * code_length * bits_per_digit(alphabet_size)


def composer_params(
    alphabet_size: int,
    code_length: int,
    code_embed_dim: int,
    extra_params: int = 0,
) -> int:
    """Trainable scalar count: K*D*d' digit-vector entries plus composer extras."""
    return alphabet_size * code_length * code_embed_dim + extra_params


def dense_layer_bits(vocab_size: int, embed_dim: int) -> int:
    """Baseline storage for a dense float32 table: 32 * N * d."""
    return FLOAT_BITS * vocab_size * embed_dim


def no_collision_probability(
    vocab_size: int, alphabet_size: int, code_length: int
) -> float:
    """P(all N random codes distinct) over a K^D space.

    Exact birthday product for small N, the exp(-N(N-1)/(2*K^D)) limit when
    the product would need more than ~1e6 factors.
    """
    n = vocab_size
    space = alphabet_size**code_length  # exact Python int; may exceed 2**63
    if n <= 1:
        return 1.0
    if n > space:
        return 0.0
    if n <= 1_000_000:
        # log-domain exact product, stable for huge spaces
        log_p = 0.0
        for i in range(1, n):
            log_p += math.log1p(-i / space)
        return math.exp(log_p)
    return math.exp(-n * (n - 1) / (2 * space))
