"""Guidance losses: mixing mask semantics, match penalty, PDG loss algebra."""

import numpy as np
import pytest

from codepress import autodiff as ad
from codepress.autodiff import Tensor
from codepress.composer import CodeBook, ComposerKind, init_codebook
from codepress.guidance import (
    Encoder,
    GuidanceConfig,
    autoencoder_loss,
    distillation_loss,
    draw_mix_mask,
    init_encoder,
    odg_match_penalty,
    odg_mix,
)


def zeroed_encoder(embed_dim, alphabet, length, b_out):
    """Encoder that ignores its input and emits b_out as the logits."""
    enc = init_encoder(embed_dim, alphabet, length, np.random.default_rng(0), hidden=2)
    enc.w_in.data = np.zeros_like(enc.w_in.data)
    enc.w_out.data = np.zeros_like(enc.w_out.data)
    enc.b_out.data = np.asarray(b_out, dtype=np.float64)
    return enc


class TestConfig:
    def test_defaults_follow_documented_values(self):
        cfg = GuidanceConfig()
        assert cfg.mode == "none"
        assert cfg.keep_prob == 0.7
        assert cfg.match_weight == cfg.embed_weight == cfg.logit_weight == 1.0
        assert cfg.ramp_fraction == 0.2
        assert cfg.autoencoder is True and cfg.encoder_hidden == 256

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="mode"):
            GuidanceConfig(mode="distill")
        with pytest.raises(ValueError, match="keep_prob"):
            GuidanceConfig(keep_prob=1.2)
        with pytest.raises(ValueError, match="match_weight"):
            GuidanceConfig(match_weight=-0.1)
        with pytest.raises(ValueError, match="ramp_fraction"):
            GuidanceConfig(ramp_fraction=1.5)


class TestMixMask:
    def test_all_on_returns_u_exactly(self):
        rng = np.random.default_rng(1)
        u, fc = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        v = odg_mix(u, fc, np.ones((4, 3)))
        assert np.array_equal(v.data, u.data)

    def test_all_off_returns_composed_exactly(self):
        rng = np.random.default_rng(2)
        u, fc = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        v = odg_mix(u, fc, np.zeros((4, 3)))
        assert np.array_equal(v.data, fc.data)

    def test_monte_carlo_mean_matches_keep_probability(self):
        # p=0.7 over many draws -> 0.7*u + 0.3*f(c) within 1% componentwise
        rng = np.random.default_rng(3)
        draws, dim = 100_000, 5
        u_row = np.array([3.0, 4.0, -3.0, 5.0, 2.0])
        fc_row = np.array([2.0, 3.0, -2.0, 4.0, 1.0])
        mask = draw_mix_mask((draws, dim), 0.7, rng)
        u = Tensor(np.tile(u_row, (draws, 1)))
        fc = Tensor(np.tile(fc_row, (draws, 1)))
        mean = odg_mix(u, fc, mask).data.mean(axis=0)
        expected = 0.7 * u_row + 0.3 * fc_row
        assert np.all(np.abs(mean - expected) <= 0.01 * np.abs(expected))

    def test_mask_frequency_matches_probability(self):
        rng = np.random.default_rng(4)
        mask = draw_mix_mask((2000, 50), 0.7, rng)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert abs(mask.mean() - 0.7) < 0.01

    def test_mask_is_one_uniform_draw_per_coordinate(self):
        # the trainer's rng stream: one (batch, dim) uniform draw per mask
        rng = np.random.default_rng(5)
        mask = draw_mix_mask((300, 40), 0.5, rng)
        uniform = np.random.default_rng(5).random((300, 40))
        assert np.array_equal(mask, (uniform < 0.5).astype(np.float64))
        assert rng.random() == np.random.default_rng(5).random(300 * 40 + 1)[-1]
        assert not np.array_equal(mask, np.repeat(mask[:, :1], 40, axis=1))

    def test_mix_jacobian_is_the_mask(self):
        rng = np.random.default_rng(6)
        u, fc = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 4)))
        mask = draw_mix_mask((5, 4), 0.6, rng)
        grads = ad.gradients(ad.tsum(odg_mix(u, fc, mask)), {"u": u, "fc": fc})
        assert np.array_equal(grads["u"], mask)
        assert np.array_equal(grads["fc"], 1.0 - mask)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            odg_mix(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), np.zeros((2, 2)))


class TestMatchPenalty:
    def test_value_is_summed_squared_gap(self):
        rng = np.random.default_rng(7)
        u, fc = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        got = odg_match_penalty(Tensor(u), Tensor(fc)).item()
        assert got == pytest.approx(((fc - u) ** 2).sum(), rel=1e-12)

    def test_gradient_never_reaches_the_continuous_table(self):
        rng = np.random.default_rng(8)
        u, fc = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 4)))
        grads = ad.gradients(odg_match_penalty(u, fc), {"u": u, "fc": fc})
        assert np.array_equal(grads["u"], np.zeros_like(u.data))
        assert np.array_equal(grads["fc"], 2.0 * (fc.data - u.data))


def small_instance(seed, kind=ComposerKind.LINEAR):
    rng = np.random.default_rng(seed)
    k, d, dp, out = 3, 2, 3, 3
    book = init_codebook(k, d, dp, out, kind, rng, hidden_width=4)
    enc = init_encoder(out, k, d, rng, hidden=4)
    u = rng.normal(size=(4, out))
    logits = Tensor(rng.normal(size=(4, d, k)), name="code_logits")
    return book, enc, u, logits


class TestAutoencoderLoss:
    def test_zero_codebook_zero_embedding_is_exactly_zero(self):
        book = CodeBook(kind=ComposerKind.LINEAR, table=Tensor(np.zeros((1, 2, 1))))
        enc = zeroed_encoder(1, 2, 1, [0.0, 0.0])
        assert autoencoder_loss(np.zeros((3, 1)), enc, book, 1.0).item() == 0.0

    def test_single_row_matches_numpy_oracle(self):
        book, enc, u, _ = small_instance(9)
        u = u[:1]
        got = autoencoder_loss(u, enc, book, 0.8).item()
        hidden = np.tanh(u @ enc.w_in.data + enc.b_in.data)
        logits = (hidden @ enc.w_out.data + enc.b_out.data).reshape(1, 2, 3)
        z = logits / 0.8
        probs = np.exp(z - z.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        recon = sum(probs[:, j] @ book.table.data[j] for j in range(2))
        assert got == pytest.approx(((recon - u) ** 2).sum(), rel=1e-12)

    def test_invariant_to_symbol_order(self):
        book, enc, u, _ = small_instance(10)
        perm = np.random.default_rng(0).permutation(len(u))
        a = autoencoder_loss(u, enc, book, 1.0).item()
        b = autoencoder_loss(u[perm], enc, book, 1.0).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_requires_positive_temperature(self):
        book, enc, u, _ = small_instance(11)
        with pytest.raises(ValueError, match="tau"):
            autoencoder_loss(u, enc, book, 0.0)

    @pytest.mark.parametrize("kind", [ComposerKind.LINEAR, ComposerKind.HIDDEN, ComposerKind.LSTM])
    def test_finite_differences_all_parameters(self, kind):
        for seed in range(3):
            book, enc, u, _ = small_instance(20 + seed, kind)

            def build():
                return autoencoder_loss(u, enc, book, 0.9)

            for name, p in {**enc.parameters(), **book.parameters()}.items():
                err = ad.finite_difference_check(build, p)
                assert err < 1e-4, f"{kind} {name}: {err}"


class TestDistillationLoss:
    def test_zero_weights_give_exact_zero(self):
        book, enc, u, logits = small_instance(12)
        assert distillation_loss(logits, u, enc, book, 1.0, 0.0, 0.0).item() == 0.0

    def test_perfect_match_gives_zero(self):
        # g(u) == logits and f(logits) == u by construction
        book = CodeBook(kind=ComposerKind.LINEAR, table=Tensor(np.array([[[0.7], [0.7]]])))
        enc = zeroed_encoder(1, 2, 1, [0.3, -0.3])
        logits = Tensor(np.array([[[0.3, -0.3]]]))
        u = np.array([[0.7]])
        assert distillation_loss(logits, u, enc, book, 1.0, 1.0, 1.0).item() < 1e-30

    def test_hand_built_residuals(self):
        # embed residual 0.25, logit residual 0.5, alpha=1, beta=2 -> 1.25
        book = CodeBook(kind=ComposerKind.LINEAR, table=Tensor(np.array([[[1.0], [1.0]]])))
        enc = zeroed_encoder(1, 2, 1, [0.5, -0.5])
        logits = Tensor(np.zeros((1, 1, 2)))
        u = np.array([[1.5]])
        got = distillation_loss(logits, u, enc, book, 1.0, 1.0, 2.0).item()
        assert got == pytest.approx(1.25, rel=1e-12)

    def test_requires_positive_temperature(self):
        book, enc, u, logits = small_instance(13)
        with pytest.raises(ValueError, match="tau"):
            distillation_loss(logits, u, enc, book, -1.0, 1.0, 1.0)

    def test_finite_differences_logits_encoder_composer(self):
        for seed in range(3):
            book, enc, u, logits = small_instance(30 + seed)

            def build():
                return distillation_loss(logits, u, enc, book, 0.9, 0.7, 1.3)

            params = {"code_logits": logits, **enc.parameters(), **book.parameters()}
            for name, p in params.items():
                err = ad.finite_difference_check(build, p)
                assert err < 1e-4, f"{name}: {err}"

    def test_gradient_reaches_encoder_through_logit_term(self):
        book, enc, u, logits = small_instance(14)
        loss = distillation_loss(logits, u, enc, book, 1.0, 0.0, 1.0)
        grads = ad.gradients(loss, {"w_out": enc.w_out, "logits": logits})
        assert np.any(grads["w_out"] != 0.0)
        assert np.any(grads["logits"] != 0.0)


class TestEncoder:
    def test_output_shape(self):
        enc = init_encoder(5, 4, 3, np.random.default_rng(15), hidden=8)
        out = enc.encode(Tensor(np.random.default_rng(0).normal(size=(7, 5))))
        assert out.data.shape == (7, 3, 4)

    def test_init_scale_and_zero_biases(self):
        enc = init_encoder(16, 4, 3, np.random.default_rng(16), hidden=64)
        assert np.max(np.abs(enc.w_in.data)) <= 1.0 / 4.0
        assert np.max(np.abs(enc.w_out.data)) <= 1.0 / 8.0
        assert np.array_equal(enc.b_in.data, np.zeros(64))
        assert np.array_equal(enc.b_out.data, np.zeros(12))

    def test_deterministic_for_fixed_seed(self):
        a = init_encoder(5, 3, 2, np.random.default_rng(42))
        b = init_encoder(5, 3, 2, np.random.default_rng(42))
        assert np.array_equal(a.w_in.data, b.w_in.data)
        assert np.array_equal(a.w_out.data, b.w_out.data)
