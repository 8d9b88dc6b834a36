"""Row gradients against the dense path they replace.

The reference here is the dense path: ``backward()`` fills a full ``.grad``
per parameter, the clip rescales the full arrays, and the optimizers take an
explicit ``rows`` list for the lazily updated tables.  The row-gradient path
must give the same gradients and parameter updates to 1e-12, and every row
that no batch touched must stay bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codepress import autodiff as ad
from codepress.autodiff import RowGrad, Tensor
from codepress.baselines import fit_dense_embedding, random_codes
from codepress.codes import CodeConfig, CodeTable
from codepress.composer import ComposerKind, compose_digits
from codepress.datasets import clustered_embeddings, marker_corpus
from codepress.guidance import GuidanceConfig
from codepress.tasks import ClassificationTask, ReconstructionTask
from codepress.training import Adam, Sgd, TempSchedule, TrainConfig, Trainer

TOL = 1e-12
CLIP = 0.05  # small enough that every step below is clipped


class DenseAdam:
    """Adam on dense gradients; the tables named in ``rows`` update lazily."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr = params, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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


class DenseSgd:
    def __init__(self, params, lr):
        self.params, self.lr = params, lr

    def step(self, grads, rows):
        for name, p in self.params.items():
            if name in rows:
                r = rows[name]
                p.data[r] -= self.lr * grads[name][r]
            else:
                p.data -= self.lr * grads[name]


def dense_grads(loss, params):
    loss.backward()
    return {name: p.grad.copy() for name, p in params.items()}


def dense_of(g: RowGrad, shape) -> np.ndarray:
    dense = np.zeros(shape)
    dense[g.indices] = g.rows
    return dense


def make_optimizers(kind, params, ref_params, lr):
    if kind == "adam":
        return Adam(params, lr), DenseAdam(ref_params, lr)
    return Sgd(params, lr), DenseSgd(ref_params, lr)


def assert_params_match(params, ref_params):
    for name, p in params.items():
        np.testing.assert_allclose(p.data, ref_params[name].data, rtol=0, atol=TOL, err_msg=name)


# -- the autodiff layer ----------------------------------------------------------

N_ROWS, WIDTH = 7, 3
index_arrays = st.lists(st.integers(0, N_ROWS - 1), min_size=1, max_size=6)
# one step gathers the table through one or two nodes; indices may repeat
step_gathers = st.lists(index_arrays, min_size=1, max_size=2)


def graph_loss(table, w, gathers, dense_use, targets):
    loss = None
    for j, idx in enumerate(gathers):
        rows = ad.gather_rows(table, np.array(idx))
        out = ad.tanh(rows @ w)
        term = ad.squared_error(out, Tensor(targets[j][: len(idx)], op="const"))
        loss = term if loss is None else loss + term
    if dense_use:
        loss = loss + ad.squared_error(table, Tensor(targets[2][:N_ROWS], op="const"))
    return loss


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(step_gathers, min_size=1, max_size=3),
    dense_use=st.booleans(),
    kind=st.sampled_from(["adam", "sgd"]),
    seed=st.integers(0, 2**16),
)
def test_row_gradients_and_updates_match_the_dense_path(steps, dense_use, kind, seed):
    rng = np.random.default_rng(seed)
    init_table, init_w = rng.normal(size=(N_ROWS, WIDTH)), rng.normal(size=(WIDTH, WIDTH))
    params = {"table": Tensor(init_table.copy()), "w": Tensor(init_w.copy())}
    ref = {"table": Tensor(init_table.copy()), "w": Tensor(init_w.copy())}
    opt, ref_opt = make_optimizers(kind, params, ref, lr=0.1)
    touched = set()
    for gathers in steps:
        targets = rng.normal(size=(3, max(N_ROWS, 12), WIDTH))
        grads = ad.gradients(graph_loss(params["table"], params["w"], gathers, dense_use, targets),
                             params)
        ref_grads = dense_grads(graph_loss(ref["table"], ref["w"], gathers, dense_use, targets), ref)

        # on the same parameter values the two backward passes agree bit for bit
        same = dense_grads(graph_loss(params["table"], params["w"], gathers, dense_use, targets),
                           params)
        g = grads["table"]
        if dense_use:  # a table also read densely keeps a dense gradient
            assert isinstance(g, np.ndarray)
            assert np.array_equal(g, same["table"])
        else:
            assert isinstance(g, RowGrad)
            assert np.array_equal(g.indices, np.unique(np.concatenate(gathers)))
            assert np.array_equal(dense_of(g, (N_ROWS, WIDTH)), same["table"])
            assert g.nbytes == g.indices.nbytes + g.rows.nbytes
        assert isinstance(grads["w"], np.ndarray)
        assert np.array_equal(grads["w"], same["w"])
        for name, grad in grads.items():
            if isinstance(grad, RowGrad):
                grad = dense_of(grad, (N_ROWS, WIDTH))
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0, atol=TOL, err_msg=name)

        # a fixed clip leaves small-gradient steps unclipped; half the step's
        # dense norm clips every step
        clip = 0.5 * np.sqrt(sum(float((g * g).sum()) for g in ref_grads.values()))
        norm = ad.global_norm_clip(grads, clip)
        ref_norm = ad.global_norm_clip(ref_grads, clip)
        assert norm > clip
        assert norm == pytest.approx(ref_norm, rel=TOL)
        lazy = {} if dense_use else {"table": np.concatenate(gathers)}
        opt.step(grads)
        ref_opt.step(ref_grads, lazy)
        touched.update(np.concatenate(gathers).tolist())
        assert_params_match(params, ref)

    if not dense_use:
        absent = sorted(set(range(N_ROWS)) - touched)
        assert np.array_equal(params["table"].data[absent], init_table[absent])


def test_row_grad_norm_is_the_dense_norm():
    g = RowGrad(np.array([1, 4]), np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert ad.grad_norm(g) == 5.0
    assert ad.grad_norm(dense_of(g, (6, 2))) == 5.0


def summed_row_grad(parts):
    """The summing path: np.unique over all gathered indices, np.add.at."""
    idx = np.concatenate([i for i, _ in parts])
    values = np.concatenate([g for _, g in parts])
    unique, inverse = np.unique(idx, return_inverse=True)
    rows = np.zeros((unique.size,) + values.shape[1:])
    np.add.at(rows, inverse, values)
    return unique, rows


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 11), min_size=0, max_size=12),
    st.sampled_from(["ascending", "as drawn", "two parts"]),
    st.integers(0, 2**32 - 1),
)
def test_coalesce_passes_a_lone_ascending_gather_through(drawn, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "ascending":
        drawn = sorted(set(drawn))
    idx = np.array(drawn, dtype=np.int64)
    parts = [(idx, rng.normal(size=(idx.size, 3)))]
    if layout == "two parts":
        parts.append((idx[::-1].copy(), rng.normal(size=(idx.size, 3))))
    ref_idx, ref_rows = summed_row_grad(parts)
    got = ad._coalesce(parts)
    assert np.array_equal(got.indices, ref_idx)
    assert np.array_equal(got.rows, ref_rows)
    lone_ascending = len(parts) == 1 and np.all(np.diff(idx) > 0)
    # the pass-through hands back the gather's own buffer; every other case sums
    assert (got.rows is parts[0][1]) == lone_ascending


def test_backward_keeps_a_dense_leaf_gradient():
    table = Tensor(np.arange(8.0).reshape(4, 2))
    ad.tsum(ad.gather_rows(table, [1, 1, 3])).backward()
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


# -- the trainer and the dense baseline -----------------------------------------


def recon_task(seed=0):
    targets, _ = clustered_embeddings(40, 8, 4, np.random.default_rng(seed))
    return ReconstructionTask(targets, val_fraction=0.25, split_seed=seed)


def train_cfg(kind, seed, **kw):
    return TrainConfig(
        epochs=2, batch_size=16, learning_rate=0.05, optimizer=kind, grad_clip=CLIP, seed=seed,
        schedule=TempSchedule(tau_init=1.0, tau_min=0.5, horizon=10), **kw,
    )


def dense_epoch(tr, opt, lazy_names, batch_loss):
    """One epoch of the dense path on ``tr``: full gradients, full clip."""
    for batch in tr.task.train_batches(tr.cfg.batch_size, tr.rng):
        loss = batch_loss(batch, tr.schedule.temperature(tr.step))
        grads = dense_grads(loss, tr.params)
        ad.global_norm_clip(grads, tr.cfg.grad_clip)
        opt.step(grads, {name: batch.symbols for name in lazy_names})
        tr.step += 1


def check_trainer_matches_dense(make_trainer, kind, lazy_names, dense_loss=None):
    tr, ref = make_trainer(), make_trainer()
    ref_opt = DenseAdam(ref.params, ref.cfg.learning_rate) if kind == "adam" else DenseSgd(
        ref.params, ref.cfg.learning_rate)
    batch_loss = dense_loss(ref) if dense_loss else lambda b, tau: ref._batch_loss(b, tau)[0]
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
@given(kind=st.sampled_from(["adam", "sgd"]), seed=st.integers(0, 1000))
def test_odg_trainer_matches_the_dense_path(kind, seed):
    code_cfg = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)
    cfg = train_cfg(kind, seed, guidance=GuidanceConfig(mode="odg"))

    def make():
        return Trainer(recon_task(seed), code_cfg, ComposerKind.LINEAR, cfg)

    tr = check_trainer_matches_dense(make, kind, ["code_logits", "odg_u"])
    batch = tr.task.train_batches(16, np.random.default_rng(0))[0]
    grads = ad.gradients(tr._batch_loss(batch, 0.5)[0], tr.params)
    lazy = {name for name, g in grads.items() if isinstance(g, RowGrad)}
    assert lazy == {"code_logits", "odg_u"}


@settings(max_examples=4, deadline=None)
@given(kind=st.sampled_from(["adam", "sgd"]), seed=st.integers(0, 1000))
def test_frozen_codes_keep_dense_digit_table_updates(kind, seed):
    """The frozen-code path used to compose through compose_digits (row
    gathers); its digit tables must keep the dense update."""
    code_cfg = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)
    table = random_codes(40, 4, 3, seed=seed)

    def make():
        return Trainer(recon_task(seed), code_cfg, ComposerKind.LINEAR, train_cfg(kind, seed),
                       frozen_table=table)

    def digits_loss(ref):
        return lambda b, tau: ref.task.batch_loss(compose_digits(table.codes[b.symbols], ref.book), b)

    tr = check_trainer_matches_dense(make, kind, [], dense_loss=digits_loss)
    batch = tr.task.train_batches(16, np.random.default_rng(0))[0]
    grads = ad.gradients(tr._batch_loss(batch, 0.5)[0], tr.params)
    assert all(isinstance(g, np.ndarray) for g in grads.values())


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


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("task_kind", ["recon", "classify"])
def test_fit_dense_embedding_matches_the_dense_path(kind, task_kind):
    """The one-hot code's table takes the dense update of a plain lookup table,
    and fit_dense_embedding follows that trainer and keeps its best epoch."""
    cfg = train_cfg(kind, 7)

    def lookup_loss(ref):
        def loss(b, tau):
            matrix = ad.reshape(ref.book.table, (-1, ref.book.digit_dim))
            return ref.task.batch_loss(ad.gather_rows(matrix, b.symbols), b)
        return loss

    init = one_hot_trainer(dense_task(task_kind), cfg).book.table.data[0]
    tr = check_trainer_matches_dense(lambda: one_hot_trainer(dense_task(task_kind), cfg), kind, [],
                                     dense_loss=lookup_loss)
    result = fit_dense_embedding(dense_task(task_kind), cfg)
    assert result.history == tr.history
    matrix = result.embedding_matrix()
    assert np.array_equal(matrix, result.book.table.data[0])
    if task_kind == "recon":
        # validation scores held-out rows, which a lookup table never learns,
        # so no epoch improves on the initial table
        assert result.best_epoch == 0
        assert np.array_equal(matrix, init)
    else:
        assert result.best_epoch == cfg.epochs
        assert np.array_equal(matrix, tr.book.table.data[0])


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_dense_reference_starts_from_the_uniform_draw_and_leaves_held_out_rows(kind):
    task = recon_task(3)
    scale = 1.0 / np.sqrt(task.embed_dim)
    init = np.random.default_rng(7).uniform(-scale, scale, (task.vocab_size, task.embed_dim))
    untrained = fit_dense_embedding(recon_task(3), TrainConfig(epochs=0, seed=7))
    assert untrained.book.projection is None
    assert np.array_equal(untrained.embedding_matrix(), init)

    tr = one_hot_trainer(task, train_cfg(kind, 7))
    for _ in range(tr.cfg.epochs):
        tr.train_epoch()
    table = tr.book.table.data[0]
    assert not np.array_equal(table[task.train_ids], init[task.train_ids])
    # held-out rows get a zero gradient every step, so even dense Adam leaves them
    assert np.array_equal(table[task.val_ids], init[task.val_ids])
