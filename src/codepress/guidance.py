"""Guidance losses that tether code-composed embeddings to continuous ones.

Two flavors:

* Online guidance ("odg"): a continuous embedding table u is trained jointly;
  the training-time embedding is a Bernoulli mix of u and the composed f(c),
  with one mask draw per coordinate, plus a match penalty
  ||stop_gradient(u) - f(c)||^2.  Inference always uses f(c).
* Pretrained guidance ("pdg"): a fixed embedding matrix U is distilled into
  the codes via an autoencoder over U (encoder g shared-decoder f) and a
  distillation term pulling code logits toward g(U) and compositions toward U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .composer import CodeBook, compose_relaxed

GUIDANCE_MODES = ("none", "odg", "pdg")


@dataclass(frozen=True)
class GuidanceConfig:
    mode: str = "none"
    keep_prob: float = 0.7  # Bernoulli P(mask=1) for the odg mix
    match_weight: float = 1.0  # odg match penalty weight (ramped by the trainer)
    embed_weight: float = 1.0  # pdg weight on ||f(relaxed codes) - u||^2
    logit_weight: float = 1.0  # pdg weight on ||code logits - g(u)||^2
    autoencoder: bool = True  # include the pdg autoencoder term
    ramp_fraction: float = 0.2  # fraction of steps over which match_weight ramps in
    encoder_hidden: int = 256

    def __post_init__(self):
        if self.mode not in GUIDANCE_MODES:
            raise ValueError(f"mode must be one of {GUIDANCE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in [0, 1]")
        for name in ("match_weight", "embed_weight", "logit_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.ramp_fraction <= 1.0:
            raise ValueError("ramp_fraction must lie in [0, 1]")
        if self.encoder_hidden < 1:
            raise ValueError("encoder_hidden must be >= 1")


@dataclass
class Encoder:
    """Maps embedding rows to code logits: affine -> tanh -> affine."""

    w_in: Tensor
    b_in: Tensor
    w_out: Tensor
    b_out: Tensor
    code_length: int
    alphabet_size: int

    def encode(self, u: Tensor) -> Tensor:
        """(batch, embed_dim) rows -> (batch, code_length, alphabet) logits."""
        hidden = ad.tanh(ad.add(u @ self.w_in, self.b_in))
        flat = ad.add(hidden @ self.w_out, self.b_out)
        batch = u.data.shape[0]
        return ad.reshape(flat, (batch, self.code_length, self.alphabet_size))

    def parameters(self) -> dict[str, Tensor]:
        return {
            "encoder_w_in": self.w_in,
            "encoder_b_in": self.b_in,
            "encoder_w_out": self.w_out,
            "encoder_b_out": self.b_out,
        }


def init_encoder(
    embed_dim: int,
    alphabet_size: int,
    code_length: int,
    rng: np.random.Generator,
    hidden: int = 256,
) -> Encoder:
    s_in = 1.0 / np.sqrt(embed_dim)
    s_hid = 1.0 / np.sqrt(hidden)
    return Encoder(
        w_in=Tensor(rng.uniform(-s_in, s_in, (embed_dim, hidden)), name="encoder_w_in"),
        b_in=Tensor(np.zeros(hidden), name="encoder_b_in"),
        w_out=Tensor(
            rng.uniform(-s_hid, s_hid, (hidden, code_length * alphabet_size)),
            name="encoder_w_out",
        ),
        b_out=Tensor(np.zeros(code_length * alphabet_size), name="encoder_b_out"),
        code_length=code_length,
        alphabet_size=alphabet_size,
    )


def draw_mix_mask(shape: tuple[int, int], keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Fresh (batch, dim) mask, each coordinate 1 with probability keep_prob."""
    batch, dim = shape
    return (rng.random((batch, dim)) < keep_prob).astype(np.float64)


def odg_mix(u: Tensor, fc: Tensor, mask: np.ndarray) -> Tensor:
    """Training-time embedding m*u + (1-m)*f(c); gradients pass through both
    branches wherever the mask selects them."""
    if u.data.shape != fc.data.shape or u.data.shape != mask.shape:
        raise ValueError("u, f(c) and mask must share one shape")
    m = Tensor(mask, op="leaf", name="mix_mask")
    ones = Tensor(np.ones_like(mask), op="leaf", name="mix_ones")
    return m * u + (ones - m) * fc


def odg_match_penalty(u: Tensor, fc: Tensor) -> Tensor:
    """||stop_gradient(u) - f(c)||^2 summed over the batch.

    The stop keeps the penalty from dragging the continuous table toward the
    still-poor composed embeddings early in training.
    """
    return ad.squared_error(fc, ad.stop_gradient(u))


def _as_constant(u, name: str) -> Tensor:
    if isinstance(u, Tensor):
        return u
    return Tensor(np.asarray(u, dtype=np.float64), op="leaf", name=name)


def autoencoder_loss(u, encoder: Encoder, book: CodeBook, tau: float) -> Tensor:
    """sum_i ||f(g(u_i); tau) - u_i||^2 — encode rows, relax, decode with the
    shared composer, and score reconstruction."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    u = _as_constant(u, "pretrained_u")
    relaxed = ad.softmax_t(encoder.encode(u), tau)
    recon = compose_relaxed(relaxed, book)
    return ad.squared_error(recon, u)


def distillation_loss(
    logits: Tensor,
    u,
    encoder: Encoder,
    book: CodeBook,
    tau: float,
    alpha: float,
    beta: float,
) -> Tensor:
    """sum_i alpha*||f(pi_i; tau) - u_i||^2 + beta*||pi_i - g(u_i)||^2.

    The first term asks composed relaxed codes to land on the pretrained rows;
    the second asks the trainable code logits and the autoencoder's encoder to
    agree (gradient flows into both).
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    u = _as_constant(u, "pretrained_u")
    embed_term = ad.squared_error(compose_relaxed(ad.softmax_t(logits, tau), book), u)
    logit_term = ad.squared_error(logits, encoder.encode(u))
    return ad.scale(embed_term, alpha) + ad.scale(logit_term, beta)
