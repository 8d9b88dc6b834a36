"""A training step holds its graph, gradient buffers and batch only while it
needs them.

``gradients()`` makes a node's zero buffer just before the first backward
that writes into it and drops an interior node's buffer once its own backward
has run; the gradients must stay bit-identical to the eager pass that
zero-fills every buffer first, on the trainer's graphs and on the
finite-difference gate's.  The trainer drops a step's graph before the
clip and the optimizer, and the tasks build their batches one at a time from
the shuffle they draw when called.
"""

import collections.abc
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import _gradient_cases

from codepress import autodiff as ad
from codepress.codes import CodeConfig
from codepress.composer import ComposerKind
from codepress.datasets import clustered_embeddings, marker_corpus
from codepress.guidance import GuidanceConfig
from codepress.tasks import ClassificationTask, ReconstructionTask, SymbolBatch, _averaging_matrix
from codepress.training import TempSchedule, TrainConfig, Trainer

VOCAB, DIM = 40, 8
CODE = CodeConfig(vocab_size=VOCAB, alphabet_size=4, code_length=3, code_embed_dim=6)


def corpus(seed):
    return marker_corpus(np.random.default_rng(seed), n_classes=3, markers_per_class=2,
                         vocab_size=VOCAB, n_docs=30, doc_len=6)


def eager_backward(loss):
    """The pass before buffers were made lazily: every buffer zero-filled up
    front, then every backward closure in reverse topological order."""
    order = ad.topo_order(loss)
    for node in order:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()


# -- gradients() against the eager pass ---------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ComposerKind)),
    mode=st.sampled_from(["none", "odg", "pdg"]),
    straight_through=st.booleans(),
    classify=st.booleans(),
    size=st.integers(1, 6),  # symbols of a reconstruction batch, docs of a classification one
    seed=st.integers(0, 2**16),
)
def test_gradients_are_bit_identical_and_drop_interior_buffers(
    kind, mode, straight_through, classify, size, seed
):
    rng = np.random.default_rng(seed)
    targets, _ = clustered_embeddings(VOCAB, DIM, 4, rng)
    if classify:
        task = ClassificationTask(corpus(seed), DIM, rng, val_fraction=0.0)
        batch = next(iter(task.train_batches(size, rng)))
    else:
        task = ReconstructionTask(targets)
        symbols = np.sort(rng.choice(VOCAB, size, replace=False))
        batch = SymbolBatch(symbols=symbols, targets=targets[symbols])
    cfg = TrainConfig(epochs=1, batch_size=8, use_straight_through=straight_through,
                      guidance=GuidanceConfig(mode=mode), seed=seed)
    tr = Trainer(task, CODE, kind, cfg, pretrained=targets if mode == "pdg" else None)
    tr.step = tr.total_steps  # every ramped weight at full strength
    rng_state = tr.rng.bit_generator.state

    def build():
        tr.rng.bit_generator.state = rng_state  # odg draws the same mix mask
        loss, *_, rows = tr._batch_loss(batch, 0.7)
        return loss, {**tr.params, **rows}

    loss, params = build()
    order = ad.topo_order(loss)
    grads = ad.gradients(loss, params)
    requested = {id(p) for p in params.values()}
    for node in order:
        if node._backward is not None and id(node) not in requested:
            assert node.grad is None, node
    assert all(grads[name] is p.grad for name, p in params.items())

    loss, params = build()
    eager_backward(loss)
    assert all(node.grad is not None for node in ad.topo_order(loss))
    for name, p in params.items():
        assert grads[name].dtype == p.grad.dtype, name
        assert np.array_equal(grads[name], p.grad), name


def test_gradients_match_the_eager_pass_on_the_gradient_gate():
    """One trial of the finite-difference gate's cases: the analytic gradient
    the checker reads is the eager pass's, bit for bit."""
    checked = 0
    for label, build, params in _gradient_cases(0):
        for p in params:
            grad = ad.gradients(build(), {"p": p})["p"]
            eager_backward(build())
            assert grad.dtype == p.grad.dtype, label
            assert np.array_equal(grad, p.grad), label
            checked += 1
    assert checked == 77


def test_a_requested_interior_tensor_keeps_its_buffer():
    u = ad.Tensor(np.array([0.3, -1.2]))
    h = ad.tanh(u)
    loss = ad.tsum(ad.multiply(h, h))
    grads = ad.gradients(loss, {"h": h, "u": u})
    assert grads["h"] is h.grad and np.array_equal(grads["h"], 2.0 * h.data)
    assert np.array_equal(grads["u"], 2.0 * h.data * (1.0 - h.data * h.data))
    assert loss.grad is None  # the root is interior too, and was not requested


def test_a_requested_tensor_behind_a_stop_gradient_gets_zeros():
    # u's only path runs through an op whose own buffer nothing writes; v's
    # has no backward at all
    u, v = ad.Tensor(np.array([1.0, -2.0])), ad.Tensor(np.array([0.25, 0.5]))
    w = ad.Tensor(np.array([0.5, 3.0]))
    loss = ad.add(ad.squared_error(w, ad.stop_gradient(ad.tanh(u))),
                  ad.squared_error(w, ad.stop_gradient(v)))
    grads = ad.gradients(loss, {"u": u, "v": v, "w": w})
    assert np.array_equal(grads["u"], [0.0, 0.0])
    assert np.array_equal(grads["v"], [0.0, 0.0])
    assert np.array_equal(grads["w"], 2.0 * (w.data - np.tanh(u.data)) + 2.0 * (w.data - v.data))


# -- the trainer's allocation peak ---------------------------------------------


class RowCounter:
    """Task wrapper recording each training batch's symbol count."""

    def __init__(self, task):
        self._task = task
        self.rows: list[int] = []

    def __getattr__(self, name):
        return getattr(self._task, name)

    def train_batches(self, batch_size, rng):
        for batch in self._task.train_batches(batch_size, rng):
            self.rows.append(batch.symbols.size)
            yield batch


def test_a_step_holds_one_graph_and_one_batch():
    # The floor is the four (N, D, K) tables: the code logits, Adam's m and v
    # and the checkpoint.  Above it a step holds its forward values and the
    # gradient buffers still in use, about 11 of one batch's (rows, D, K)
    # arrays.  Zero-filling every buffer up front, keeping the last step's
    # graph through the next one and building the epoch's batches ahead of it
    # took about 20.
    n, k, d = 2000, 16, 16
    rng = np.random.default_rng(0)
    task = RowCounter(ClassificationTask(
        marker_corpus(rng, vocab_size=n, n_docs=400, doc_len=20), 8, rng))
    code = CodeConfig(vocab_size=n, alphabet_size=k, code_length=d, code_embed_dim=8)
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.01,
                      guidance=GuidanceConfig(mode="odg"),
                      schedule=TempSchedule(tau_init=1.0, tau_min=0.5, horizon=10))
    tracemalloc.start()
    try:
        tr = Trainer(task, code, ComposerKind.LINEAR, cfg)
        tr.train_epoch()
        tr.train_epoch()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not tr.aborted and len(task.rows) == 2 * 12
    batch_bytes = max(task.rows) * d * k * 8
    above_floor = (peak - 4 * n * d * k * 8) / batch_bytes
    assert above_floor < 15.0, above_floor


# -- lazy batches -------------------------------------------------------------


def test_classification_builds_each_batch_when_asked(monkeypatch):
    task = ClassificationTask(corpus(0), DIM, np.random.default_rng(0), val_fraction=0.0)
    built = []

    def counting(docs, symbols):
        built.append(len(docs))
        return _averaging_matrix(docs, symbols)

    monkeypatch.setattr("codepress.tasks._averaging_matrix", counting)
    batches = task.train_batches(4, np.random.default_rng(1))
    assert built == []
    next(batches)
    assert built == [4]
    assert sum(1 for _ in batches) == 7 and len(built) == 8


def eager_reconstruction_batches(task, batch_size, rng):
    order = rng.permutation(task.train_ids)
    batches = []
    for start in range(0, order.size, batch_size):
        symbols = np.sort(order[start : start + batch_size])
        batches.append(SymbolBatch(symbols=symbols, targets=task.targets[symbols]))
    return batches


def eager_classification_batches(task, batch_size, rng):
    order = rng.permutation(task.train_ids)
    batches = []
    for start in range(0, order.size, batch_size):
        doc_ids = order[start : start + batch_size]
        docs = [task.docs[i] for i in doc_ids]
        symbols = np.unique(np.concatenate(docs))
        batches.append(SymbolBatch(symbols=symbols, doc_matrix=_averaging_matrix(docs, symbols),
                                   labels=task.labels[doc_ids]))
    return batches


def same_field(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(classify=st.booleans(), batch_size=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_batches_are_lazy_and_unchanged(classify, batch_size, seed):
    if classify:
        task = ClassificationTask(corpus(seed), DIM, np.random.default_rng(seed))
        eager = eager_classification_batches
    else:
        task = ReconstructionTask(np.random.default_rng(seed).normal(size=(VOCAB, DIM)),
                                  val_fraction=0.2, split_seed=seed)
        eager = eager_reconstruction_batches
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batches = task.train_batches(batch_size, rng)
    expected = eager(task, batch_size, ref_rng)
    assert isinstance(batches, collections.abc.Iterator)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    got = list(batches)
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # building draws nothing
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for field in ("symbols", "targets", "doc_matrix", "labels"):
            assert same_field(getattr(g, field), getattr(e, field)), field
