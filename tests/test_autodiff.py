"""Autodiff core: forward oracles, gradient checks, STE/stop-gradient contracts,
and graph lifetime."""

import gc
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress import autodiff as ad
from codepress.autodiff import Tensor
from codepress.codes import LOG_FLOOR, CodeConfig, entropy_regularizer
from codepress.composer import ComposerKind, compose_digits, compose_relaxed, init_codebook
from codepress.datasets import clustered_embeddings
from codepress.guidance import GuidanceConfig
from codepress.tasks import ReconstructionTask
from codepress.training import TempSchedule, TrainConfig, Trainer


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop reference, no BLAS."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestForward:
    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(4, 6))
            b = rng.normal(size=(6, 3))
            got = (Tensor(a) @ Tensor(b)).data
            assert np.allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_add_bias_broadcasts_last_axis(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        assert np.array_equal(ad.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ad.add(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0]]))

    def test_scalar_helpers(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert ad.tsum(x).item() == 10.0
        assert ad.squared_error(x, Tensor(np.zeros((2, 2)))).item() == 30.0

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(FloatingPointError, match="non-finite"):
            Tensor([1.0, np.inf])

    def test_entropy_floor(self):
        # exact one-hot rows: zero entropy, and the zero entries keep the
        # finite gradient c * log(LOG_FLOOR) of the floored log, c = -1
        rows = Tensor([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = entropy_regularizer(rows)
        assert out.item() == 0.0
        grad = ad.gradients(out, {"rows": rows})["rows"]
        assert np.array_equal(grad, np.where(rows.data == 1.0, -1.0, -np.log(LOG_FLOOR)))

    def test_gather_rows_is_fancy_indexing(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(7, 4))
        idx = np.array([3, 3, 0, 6])
        assert np.array_equal(ad.gather_rows(Tensor(w), idx).data, w[idx])

    def test_gather_rows_out_of_range(self):
        with pytest.raises(ValueError):
            ad.gather_rows(Tensor(np.zeros((3, 2))), [3])

    def test_select_axis1(self):
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert np.array_equal(ad.select(Tensor(x), 1).data, x[:, 1])

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 4)))
        out = ad.cross_entropy_logits(logits, [0, 1, 2, 3, 0])
        assert np.isclose(out.item(), np.log(4.0), atol=1e-12)

    def test_softmax_temperature_example(self):
        # two logits (1, 0) at tau=0.5: 1/(1+e^-2)
        out = ad.softmax_t(Tensor([[1.0, 0.0]]), 0.5)
        assert np.isclose(out.data[0, 0], 0.8807970779778823, atol=1e-15)

    def test_softmax_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ad.softmax_t(Tensor([[1.0, 0.0]]), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
    def test_softmax_matches_the_out_of_place_expressions(self, seed, tau):
        # forward and backward as written before they computed in place
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 3.0, (4, 3, 5))
        g = rng.normal(size=x.shape)
        z = x / tau
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        s_ref = e / e.sum(axis=-1, keepdims=True)
        grad_ref = (g - (g * s_ref).sum(axis=-1, keepdims=True)) * s_ref / tau
        a = Tensor(x)
        out = ad.softmax_t(a, tau)
        grad = ad.gradients(ad.tsum(ad.multiply(out, Tensor(g))), {"a": a})["a"]
        assert np.array_equal(out.data, s_ref)
        assert np.array_equal(grad, grad_ref)


class TestBackwardAnalytic:
    def test_quadratic_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        loss = ad.tsum(ad.multiply(x, x))
        assert np.array_equal(ad.gradients(loss, {"x": x})["x"], 2.0 * x.data)

    def test_matmul_gradient_oracle(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        c = rng.normal(size=(3, 2))
        loss = ad.tsum(ad.multiply(a @ b, Tensor(c)))
        grads = ad.gradients(loss, {"a": a, "b": b})
        assert np.allclose(grads["a"], c @ b.data.T, atol=1e-12)
        assert np.allclose(grads["b"], a.data.T @ c, atol=1e-12)

    def test_gather_rows_accumulates_duplicates(self):
        w = Tensor(np.zeros((4, 2)))
        out = ad.gather_rows(w, [1, 1, 3])
        grad = ad.gradients(ad.tsum(out), {"w": w})["w"]
        assert np.array_equal(grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_stop_gradient_blocks_everything(self):
        x = Tensor([1.0, 2.0])
        loss = ad.tsum(ad.multiply(ad.stop_gradient(x), x))
        # only the direct branch contributes: d/dx sum(c * x) = c = x.data
        assert np.array_equal(ad.gradients(loss, {"x": x})["x"], x.data)

    def test_straight_through_forward_hard_backward_identity(self):
        x = Tensor([[0.1, 0.7, 0.2]])
        out = ad.straight_through(x)
        assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])
        weights = np.array([[3.0, 5.0, 7.0]])
        loss = ad.tsum(ad.multiply(out, Tensor(weights)))
        assert np.array_equal(ad.gradients(loss, {"x": x})["x"], weights)

    def test_argmax_tie_breaks_to_lowest_index(self):
        out = ad.hard_one_hot(np.array([[2.0, 2.0, 1.0], [0.0, 1.0, 1.0]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            ad.gradients(ad.multiply(x, x), {"x": x})

    def test_gradients_rejects_foreign_parameter(self):
        x = Tensor([1.0])
        y = Tensor([2.0])
        loss = ad.tsum(x)
        with pytest.raises(ValueError, match="not in the graph"):
            ad.gradients(loss, {"y": y})

    def test_topo_order_parents_first(self):
        x = Tensor([1.0])
        y = ad.tsum(ad.multiply(x, x))
        order = ad.topo_order(y)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]


def _fd_case(build, param, eps=1e-6, tol=1e-4):
    err = ad.finite_difference_check(build, param, eps=eps)
    assert err < tol, f"finite-difference mismatch {err}"


class TestFiniteDifferences:
    """Central differences vs analytic gradients, 20 random instances per op."""

    N_INSTANCES = 20

    def _rand(self, rng, shape, low=-1.5, high=1.5):
        return Tensor(rng.uniform(low, high, shape))

    def test_elementwise_chain(self):
        rng = np.random.default_rng(3)
        for _ in range(self.N_INSTANCES):
            x = self._rand(rng, (3, 4))
            y = self._rand(rng, (3, 4))
            _fd_case(lambda: ad.tsum(ad.multiply(ad.add(x, y), ad.subtract(x, y))), x)

    def test_matmul_transpose(self):
        rng = np.random.default_rng(4)
        for _ in range(self.N_INSTANCES):
            a = self._rand(rng, (3, 4))
            b = self._rand(rng, (3, 4))
            _fd_case(lambda: ad.tsum(a @ b.T), a)
            _fd_case(lambda: ad.tsum(a @ b.T), b)

    def test_softmax_t(self):
        rng = np.random.default_rng(5)
        for _ in range(self.N_INSTANCES):
            x = self._rand(rng, (2, 3, 4))
            w = rng.normal(size=(2, 3, 4))
            tau = float(rng.uniform(0.3, 2.0))
            _fd_case(lambda: ad.tsum(ad.multiply(ad.softmax_t(x, tau), Tensor(w))), x)

    def test_sigmoid_tanh(self):
        rng = np.random.default_rng(6)
        for _ in range(self.N_INSTANCES):
            x = self._rand(rng, (4, 3))
            _fd_case(lambda: ad.tsum(ad.multiply(ad.sigmoid(x), ad.tanh(x))), x)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(7)
        for _ in range(self.N_INSTANCES):
            vals = rng.uniform(0.2, 1.5, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
            x = Tensor(vals)
            _fd_case(lambda: ad.tsum(ad.relu(x)), x)

    def test_entropy_above_floor(self):
        rng = np.random.default_rng(8)
        for _ in range(self.N_INSTANCES):
            x = self._rand(rng, (3, 3), low=0.2, high=2.0)
            _fd_case(lambda: entropy_regularizer(x), x)

    def test_gather_select_reshape_concat(self):
        rng = np.random.default_rng(9)
        for _ in range(self.N_INSTANCES):
            w = self._rand(rng, (5, 3))
            v = self._rand(rng, (4, 2, 3))
            idx = rng.integers(0, 5, 6)

            def build():
                g = ad.reshape(ad.gather_rows(w, idx), (3, 6))
                s = ad.select(v, 1)
                return ad.tsum(ad.multiply(g, g)) + ad.tsum(ad.multiply(s, s))

            _fd_case(build, w)
            _fd_case(build, v)

    def test_squared_error_and_mean(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N_INSTANCES):
            a = self._rand(rng, (3, 4))
            b = self._rand(rng, (3, 4))
            _fd_case(lambda: ad.squared_error(a, b), a)
            _fd_case(lambda: ad.squared_error(a, b), b)

    def test_cross_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N_INSTANCES):
            logits = self._rand(rng, (5, 3))
            labels = rng.integers(0, 3, 5)
            _fd_case(lambda: ad.cross_entropy_logits(logits, labels), logits)

    def test_eps_validation(self):
        x = Tensor([1.0])
        with pytest.raises(ValueError, match="eps"):
            ad.finite_difference_check(lambda: ad.tsum(x), x, eps=0.5)

    def test_rejects_straight_through_on_path(self):
        x = Tensor([[0.2, 0.8]])
        with pytest.raises(ValueError, match="straight_through"):
            ad.finite_difference_check(lambda: ad.tsum(ad.straight_through(x)), x)

    def test_rejects_stop_gradient_on_path(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError, match="stop_gradient"):
            ad.finite_difference_check(lambda: ad.tsum(ad.stop_gradient(x)), x)

    def test_opaque_off_path_is_fine(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0])

        def build():
            return ad.tsum(ad.multiply(x, x)) + ad.tsum(ad.stop_gradient(y))

        _fd_case(build, x)


class TestClipAndDeterminism:
    def test_global_norm_clip_rescales(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        norms = ad.global_norm_clip(grads, 1.0)
        assert norms == {"a": 3.0, "b": 4.0}  # each group's own norm, before the clip
        joint = np.sqrt(sum((g * g).sum() for g in grads.values()))
        assert np.isclose(joint, 1.0)

    def test_global_norm_clip_leaves_small_gradients(self):
        grads = {"a": np.array([0.3, 0.4])}
        ad.global_norm_clip(grads, 5.0)
        assert np.array_equal(grads["a"], [0.3, 0.4])

    def test_same_seed_same_graph_values(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(4, 4)))
            y = ad.softmax_t(x @ x.T, 0.7)
            loss = ad.tsum(ad.multiply(y, y))
            return loss.item(), ad.gradients(loss, {"x": x})["x"]

        l1, g1 = run(42)
        l2, g2 = run(42)
        assert l1 == l2
        assert np.array_equal(g1, g2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-30, 30), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.floats(0.05, 5.0),
)
def test_softmax_rows_are_distributions(rows, tau):
    out = ad.softmax_t(Tensor(rows), tau).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=8),
)
def test_hard_one_hot_marks_first_argmax(values):
    arr = np.array(values)
    out = ad.hard_one_hot(arr)
    assert out.sum() == 1.0
    assert out[np.argmax(arr)] == 1.0


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _interior_refs(root: Tensor) -> list[weakref.ref]:
    """Weak references to every non-leaf node below ``root``.  Also checks
    that each stored backward takes no arguments, as wrappers that time an
    op's backward call it that way."""
    order = ad.topo_order(root)
    for node in order:
        if node._backward is not None:
            assert not inspect.signature(node._backward).parameters, node.op
    return [weakref.ref(node) for node in order if node._parents]


def _dead(refs: list[weakref.ref]) -> bool:
    return bool(refs) and all(ref() is None for ref in refs)


@pytest.mark.usefixtures("no_cyclic_gc")
class TestGraphLifetime:
    """A graph holds no reference cycle, so dropping its root frees it."""

    def _book(self, kind, seed=0):
        return init_codebook(4, 3, 5, 6, kind, np.random.default_rng(seed))

    def test_freed_after_gradients(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(6, 3, 4)), name="logits")
        book = self._book(ComposerKind.LINEAR)
        params = {"logits": logits, **book.parameters()}

        def step():
            rows = ad.gather_rows(logits, [0, 2, 2, 5])
            sel = ad.straight_through(ad.softmax_t(rows, 0.5))
            out = compose_relaxed(sel, book)
            loss = ad.squared_error(out, Tensor(np.ones(out.shape)))
            refs = _interior_refs(loss)
            return refs, ad.gradients(loss, params)

        refs, grads = step()
        assert _dead(refs)

    @pytest.mark.parametrize("kind", list(ComposerKind))
    def test_freed_after_inference_pass(self, kind):
        """An inference pass builds no graph: its result has no parents."""
        book = self._book(kind)
        digits = np.random.default_rng(1).integers(0, 4, size=(7, 3))
        out = compose_digits(digits, book)
        assert out.shape == (7, 6)
        assert out._parents == () and out._backward is None

    def test_freed_after_odg_training_epoch(self, monkeypatch):
        targets, _ = clustered_embeddings(40, 8, 4, np.random.default_rng(0))
        task = ReconstructionTask(targets, val_fraction=0.25, split_seed=0)
        code = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01,
                          schedule=TempSchedule(tau_init=1.0, tau_min=0.5, horizon=10),
                          guidance=GuidanceConfig(mode="odg"))
        trainer = Trainer(task, code, ComposerKind.LSTM, cfg)
        refs = []
        real_gradients = ad.gradients

        def recording(loss, params):
            refs.extend(_interior_refs(loss))
            return real_gradients(loss, params)

        monkeypatch.setattr(ad, "gradients", recording)
        trainer.train_epoch()
        assert trainer.step > 1
        assert _dead(refs)
