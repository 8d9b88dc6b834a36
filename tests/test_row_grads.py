"""Row gradients against the dense path they replace.

The row path is the trainer's: the batch's rows of a table enter the graph as
a fresh leaf, that leaf's gradient goes to the clip as it is, and the
optimizer takes it with the batch's row ids.  The reference is the dense path:
``gradients()`` through ``gather_rows`` returns a full-size gradient per
parameter, the clip rescales the full arrays, and the reference optimizer
indexes those full arrays at the same row ids.  The row path must give the
same gradients and parameter updates to 1e-12, and every row that no batch
touched must stay bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress import autodiff as ad
from codepress.autodiff import Tensor
from codepress.baselines import fit_dense_embedding, random_codes
from codepress.codes import CodeConfig, CodeTable
from codepress.composer import ComposerKind, _compose_frozen
from codepress.datasets import clustered_embeddings, marker_corpus
from codepress.guidance import GuidanceConfig
from codepress.tasks import ClassificationTask, ReconstructionTask, SymbolBatch
from codepress.training import Adam, TempSchedule, TrainConfig, Trainer

TOL = 1e-12
CLIP = 0.05  # small enough that every step below is clipped


class DenseAdam:
    """Adam on dense gradients; the tables named in ``rows`` update lazily."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params, self.lr = params, lr
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, grads, rows):
        self.t += 1
        c1, c2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            if name in rows:
                r = rows[name]
                self.m[name][r] = self.beta1 * self.m[name][r] + (1 - self.beta1) * g[r]
                self.v[name][r] = self.beta2 * self.v[name][r] + (1 - self.beta2) * g[r] ** 2
                update = (self.m[name][r] / c1) / (np.sqrt(self.v[name][r] / c2) + self.eps)
                p.data[r] -= self.lr * update
            else:
                self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
                self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g**2
                update = (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
                p.data -= self.lr * update


def assert_params_match(params, ref_params):
    for name, p in params.items():
        np.testing.assert_allclose(p.data, ref_params[name].data, rtol=0, atol=TOL, err_msg=name)


# -- the clip and the optimizer -------------------------------------------------

N_ROWS, WIDTH = 7, 3
# one step's batch: unique, ascending row ids, as SymbolBatch.symbols are
batch_rows = st.lists(st.integers(0, N_ROWS - 1), min_size=1, max_size=6, unique=True).map(sorted)


def row_loss(rows, w, target):
    return ad.squared_error(ad.tanh(rows @ w), Tensor(target, op="const"))


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(batch_rows, min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_row_gradients_and_updates_match_the_dense_path(steps, seed):
    rng = np.random.default_rng(seed)
    init_table, init_w = rng.normal(size=(N_ROWS, WIDTH)), rng.normal(size=(WIDTH, WIDTH))
    params = {"table": Tensor(init_table.copy()), "w": Tensor(init_w.copy())}
    ref = {"table": Tensor(init_table.copy()), "w": Tensor(init_w.copy())}
    opt, ref_opt = Adam(params, lr=0.1), DenseAdam(ref, lr=0.1)
    touched = set()
    for idx in steps:
        idx = np.array(idx)
        target = rng.normal(size=(idx.size, WIDTH))
        rows = Tensor(params["table"].data[idx])
        grads = ad.gradients(row_loss(rows, params["w"], target), {"table": rows, "w": params["w"]})
        ref_grads = ad.gradients(row_loss(ad.gather_rows(ref["table"], idx), ref["w"], target), ref)
        np.testing.assert_allclose(grads["table"], ref_grads["table"][idx], rtol=0, atol=TOL)
        absent = np.setdiff1d(np.arange(N_ROWS), idx)
        assert not ref_grads["table"][absent].any()
        np.testing.assert_allclose(grads["w"], ref_grads["w"], rtol=0, atol=TOL)

        # a fixed clip leaves small-gradient steps unclipped; half the step's
        # dense norm clips every step
        clip = 0.5 * np.sqrt(sum(float((g * g).sum()) for g in ref_grads.values()))
        norms = ad.global_norm_clip(grads, clip)
        ref_norms = ad.global_norm_clip(ref_grads, clip)
        assert np.sqrt(sum(n * n for n in norms.values())) > clip
        assert norms == pytest.approx(ref_norms, rel=TOL)
        opt.step(grads, {"table": idx})
        ref_opt.step(ref_grads, {"table": idx})
        touched.update(idx.tolist())
        assert_params_match(params, ref)

    absent = sorted(set(range(N_ROWS)) - touched)
    assert np.array_equal(params["table"].data[absent], init_table[absent])


def test_row_grad_norm_is_the_dense_norm():
    """The clip reads a row leaf's gradient as it is; its norm is the norm of
    the table's dense gradient, whose other rows are zero."""
    table = Tensor(np.zeros((6, 2)))
    idx = np.array([1, 4])
    target = Tensor(np.array([[1.5, 0.0], [0.0, 2.0]]), op="const")
    rows = Tensor(table.data[idx])
    row_grad = ad.gradients(ad.squared_error(rows, target), {"table": rows})
    dense = ad.gradients(ad.squared_error(ad.gather_rows(table, idx), target), {"table": table})
    scattered = np.zeros_like(table.data)
    scattered[idx] = row_grad["table"]
    assert np.array_equal(dense["table"], scattered)
    assert ad.global_norm_clip(row_grad, 0.0) == {"table": 5.0}
    assert ad.global_norm_clip(dense, 0.0) == {"table": 5.0}


def test_backward_keeps_a_dense_leaf_gradient():
    table = Tensor(np.arange(8.0).reshape(4, 2))
    grad = ad.gradients(ad.tsum(ad.gather_rows(table, [1, 1, 3])), {"table": table})["table"]
    assert np.array_equal(grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


# -- the trainer and the dense baseline -----------------------------------------


def recon_task(seed=0, val_fraction=0.25):
    targets, _ = clustered_embeddings(40, 8, 4, np.random.default_rng(seed))
    return ReconstructionTask(targets, val_fraction=val_fraction, split_seed=seed)


def train_cfg(seed, **kw):
    return TrainConfig(
        epochs=2, batch_size=16, learning_rate=0.05, grad_clip=CLIP, seed=seed,
        schedule=TempSchedule(tau_init=1.0, tau_min=0.5, horizon=10), **kw,
    )


def dense_epoch(tr, opt, lazy_names, batch_loss):
    """One epoch of the dense path on ``tr``: full gradients, full clip.

    ``batch_loss`` returns the loss and the leaves holding a batch's rows of
    tables read by row; their gradients are scattered into full-size arrays.
    """
    for batch in tr.task.train_batches(tr.cfg.batch_size, tr.rng):
        loss, rows = batch_loss(batch, tr.schedule.temperature(tr.step))
        grads = ad.gradients(loss, {name: rows.get(name, p) for name, p in tr.params.items()})
        for name in rows:
            full = np.zeros_like(tr.params[name].data)
            full[batch.symbols] = grads[name]
            grads[name] = full
        ad.global_norm_clip(grads, tr.cfg.grad_clip)
        opt.step(grads, {name: batch.symbols for name in lazy_names})
        tr.step += 1


def check_trainer_matches_dense(make_trainer, lazy_names, dense_loss=None):
    tr, ref = make_trainer(), make_trainer()
    ref_opt = DenseAdam(ref.params, ref.cfg.learning_rate)
    if dense_loss:
        batch_loss = dense_loss(ref)
    else:
        def batch_loss(b, tau):
            loss, *_, rows = ref._batch_loss(b, tau)
            return loss, rows
    init = {name: p.data.copy() for name, p in tr.params.items()}
    for _ in range(tr.cfg.epochs):
        tr.train_epoch()
        dense_epoch(ref, ref_opt, lazy_names, batch_loss)
    assert not tr.aborted
    assert_params_match(tr.params, ref.params)
    val = tr.task.val_ids
    for name in lazy_names:  # validation rows are in no batch
        assert np.array_equal(tr.params[name].data[val], init[name][val]), name
    return tr


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 1000))
def test_odg_trainer_matches_the_dense_path(seed):
    code_cfg = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)
    cfg = train_cfg(seed, guidance=GuidanceConfig(mode="odg"))

    def make():
        return Trainer(recon_task(seed), code_cfg, ComposerKind.LINEAR, cfg)

    tr = check_trainer_matches_dense(make, ["code_logits", "odg_u"])
    batch = next(iter(tr.task.train_batches(16, np.random.default_rng(0))))
    rows = tr._batch_loss(batch, 0.5)[-1]
    assert set(rows) == {"code_logits", "odg_u"}
    for name, leaf in rows.items():
        assert leaf._parents == ()
        assert np.array_equal(leaf.data, tr.params[name].data[batch.symbols])


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 1000))
def test_frozen_codes_keep_dense_digit_table_updates(seed):
    """The frozen-code path composes through row gathers of the digit tensor;
    the tensor must keep its dense update."""
    code_cfg = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)
    table = random_codes(40, 4, 3, seed=seed)

    def make():
        return Trainer(recon_task(seed), code_cfg, ComposerKind.LINEAR, train_cfg(seed),
                       frozen_table=table)

    def digits_loss(ref):
        return lambda b, tau: (
            ref.task.batch_loss(_compose_frozen(table.codes[b.symbols], ref.book), b), {})

    tr = check_trainer_matches_dense(make, [], dense_loss=digits_loss)
    batch = next(iter(tr.task.train_batches(16, np.random.default_rng(0))))
    assert tr._batch_loss(batch, 0.5)[-1] == {}  # no table is read by row


def one_hot_trainer(task, cfg):
    """The trainer fit_dense_embedding runs: the frozen one-hot code (K = N, D = 1)."""
    n = task.vocab_size
    table = CodeTable([str(i) for i in range(n)], np.arange(n)[:, None], n)
    return Trainer(task, CodeConfig(n, n, 1, task.embed_dim), ComposerKind.LINEAR, cfg,
                   frozen_table=table)


def dense_task(task_kind):
    if task_kind == "recon":
        return recon_task(3)
    corpus = marker_corpus(np.random.default_rng(5), vocab_size=60, n_docs=80, doc_len=6)
    return ClassificationTask(corpus, 8, np.random.default_rng(0), val_fraction=0.25)


@pytest.mark.parametrize("task_kind", ["recon", "classify"])
def test_fit_dense_embedding_matches_the_dense_path(task_kind):
    """The one-hot code's table takes the dense update of a plain lookup table,
    and fit_dense_embedding follows that trainer and keeps its best epoch.

    On the reconstruction task validation scores only held-out rows, which a
    lookup table never learns, so fit_dense_embedding refuses it."""
    cfg = train_cfg(7)

    def lookup_loss(ref):
        def loss(b, tau):
            matrix = ad.reshape(ref.book.table, (-1, ref.book.digit_dim))
            return ref.task.batch_loss(ad.gather_rows(matrix, b.symbols), b), {}
        return loss

    tr = check_trainer_matches_dense(lambda: one_hot_trainer(dense_task(task_kind), cfg), [],
                                     dense_loss=lookup_loss)
    if task_kind == "recon":
        with pytest.raises(ValueError, match="held-out rows"):
            fit_dense_embedding(dense_task(task_kind), cfg)
        return
    result = fit_dense_embedding(dense_task(task_kind), cfg)
    assert result.history == tr.history
    matrix = result.embedding_matrix()
    assert np.array_equal(matrix, result.book.table.data[0])
    assert result.best_epoch == cfg.epochs
    assert np.array_equal(matrix, tr.book.table.data[0])


def test_dense_reference_starts_from_the_uniform_draw_and_leaves_held_out_rows():
    task = recon_task(3)
    scale = 1.0 / np.sqrt(task.embed_dim)
    init = np.random.default_rng(7).uniform(-scale, scale, (task.vocab_size, task.embed_dim))
    untrained = fit_dense_embedding(recon_task(3, val_fraction=0.0), TrainConfig(epochs=0, seed=7))
    assert untrained.book.projection is None
    assert np.array_equal(untrained.embedding_matrix(), init)

    tr = one_hot_trainer(task, train_cfg(7))
    for _ in range(tr.cfg.epochs):
        tr.train_epoch()
    table = tr.book.table.data[0]
    assert not np.array_equal(table[task.train_ids], init[task.train_ids])
    # held-out rows get a zero gradient every step, so even dense Adam leaves them
    assert np.array_equal(table[task.val_ids], init[task.val_ids])


def test_fit_dense_embedding_trains_a_reconstruction_task_without_held_out_rows():
    """With no held-out rows validation scores the trained rows, so every
    epoch improves and fit keeps the last one; held-out rows raise."""
    cfg = train_cfg(7)
    with pytest.raises(ValueError, match="held-out rows"):
        fit_dense_embedding(recon_task(3), cfg)
    initial = one_hot_trainer(recon_task(3, val_fraction=0.0), cfg).validate()
    result = fit_dense_embedding(recon_task(3, val_fraction=0.0), cfg)
    vals = [initial] + [record["val_metric"] for record in result.history]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert result.best_epoch == cfg.epochs
    assert result.best_val == vals[-1]


@pytest.mark.parametrize("symbols", [[3, 1, 5], [1, 3, 3], [-1, 2], [2, 40]])
def test_trainer_rejects_batches_off_the_symbol_contract(symbols):
    """Row updates assume unique, ascending, in-range batch symbols: a repeated
    row would keep only its last Adam write, so such a batch must raise."""
    code_cfg = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)
    tr = Trainer(recon_task(), code_cfg, ComposerKind.LINEAR,
                 train_cfg(0, guidance=GuidanceConfig(mode="odg")))
    batch = SymbolBatch(symbols=np.array(symbols), targets=np.zeros((len(symbols), 8)))
    tr.task.train_batches = lambda batch_size, rng: [batch]
    before = tr._snapshot()
    with pytest.raises(ValueError, match="SymbolBatch"):
        tr.train_epoch()
    for name, p in tr.params.items():
        assert np.array_equal(p.data, before[name]), name
