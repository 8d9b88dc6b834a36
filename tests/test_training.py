"""End-to-end training: schedules, optimizers, determinism, checkpointing."""

import tracemalloc

import numpy as np
import pytest

from codepress import autodiff as ad
from codepress import training
from codepress.autodiff import Tensor
from codepress.baselines import random_codes
from codepress.codes import CodeConfig, extract_codes
from codepress.composer import ComposerKind, compose_relaxed
from codepress.datasets import clustered_embeddings
from codepress.guidance import GuidanceConfig
from codepress.tasks import ReconstructionTask
from codepress.training import (
    AUTO_HORIZON,
    Adam,
    Sgd,
    TempSchedule,
    TrainConfig,
    Trainer,
    fit,
)


def make_task(n=40, dim=8, seed=0, val_fraction=0.25):
    rng = np.random.default_rng(seed)
    targets, _ = clustered_embeddings(n, dim, 4, rng)
    return ReconstructionTask(targets, val_fraction=val_fraction, split_seed=seed)


def tiny_cfg(**kw):
    base = dict(
        epochs=2,
        batch_size=16,
        learning_rate=0.01,
        schedule=TempSchedule(tau_init=1.0, tau_min=0.5, horizon=10),
    )
    base.update(kw)
    return TrainConfig(**base)


CODE4 = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=8)


def record_fit(monkeypatch):
    """Make the trainers ``fit`` builds record themselves, their parameter
    arrays as first made, and each snapshot with a copy taken as it was made."""
    made, snaps = [], []

    class Recording(Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.arrays = {name: p.data for name, p in self.params.items()}
            made.append(self)

        def _snapshot(self):
            snap = super()._snapshot()
            snaps.append((snap, {name: a.copy() for name, a in snap.items()}))
            return snap

    monkeypatch.setattr(training, "Trainer", Recording)
    return made, snaps


class TestTempSchedule:
    def test_starts_at_tau_init(self):
        assert TempSchedule(horizon=100).temperature(0) == 1.0

    def test_reaches_tau_min_exactly_at_horizon(self):
        s = TempSchedule(tau_init=2.0, tau_min=0.25, horizon=50)
        assert s.temperature(50) == 0.25
        assert s.temperature(51) == 0.25
        assert s.temperature(10_000) == 0.25

    def test_halfway_point_is_geometric_mean(self):
        s = TempSchedule(tau_init=1.0, tau_min=0.1, horizon=1000)
        assert s.temperature(500) == pytest.approx(10.0 ** -0.5, rel=1e-12)

    def test_constant_kind_ignores_step(self):
        # equal taus are the constant schedule, before and after the trainer
        # resolves its AUTO_HORIZON to half the total steps
        s = TempSchedule(tau_init=0.7, tau_min=0.7)
        assert s.horizon == AUTO_HORIZON
        assert s.temperature(0) == s.temperature(10**6) == 0.7
        tr = Trainer(make_task(), CODE4, ComposerKind.LINEAR, tiny_cfg(schedule=s))
        horizon = tr.schedule.horizon
        assert horizon == tr.total_steps // 2 > 0
        assert [tr.schedule.temperature(t) for t in (0, horizon, 10 * horizon)] == [0.7] * 3

    def test_monotone_non_increasing(self):
        s = TempSchedule(tau_init=1.0, tau_min=0.05, horizon=37)
        temps = [s.temperature(t) for t in range(80)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="tau"):
            TempSchedule(tau_init=0.1, tau_min=0.5)
        with pytest.raises(ValueError, match="tau"):
            TempSchedule(tau_min=0.0)
        with pytest.raises(ValueError, match="horizon"):
            TempSchedule(horizon=-1)
        with pytest.raises(ValueError, match="step"):
            TempSchedule().temperature(-1)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="rmsprop")
        with pytest.raises(ValueError, match="entropy"):
            TrainConfig(entropy_weight=-1.0)


class TestOptimizers:
    def test_sgd_is_exact_gradient_step(self):
        p = Tensor(np.array([1.0, 2.0, 3.0]), name="p")
        Sgd({"p": p}, lr=0.5).step({"p": np.array([2.0, -4.0, 0.0])}, {})
        assert np.array_equal(p.data, [0.0, 4.0, 3.0])

    def test_sgd_row_updates_leave_other_rows_untouched(self):
        data = np.arange(6.0).reshape(3, 2)
        p = Tensor(data.copy(), name="p")
        Sgd({"p": p}, lr=1.0).step({"p": np.ones((1, 2))}, {"p": np.array([1])})
        assert np.array_equal(p.data[0], data[0])
        assert np.array_equal(p.data[2], data[2])
        assert np.array_equal(p.data[1], data[1] - 1.0)

    def test_adam_matches_reference_recurrence(self):
        rng = np.random.default_rng(0)
        init = rng.normal(size=(4, 3))
        p = Tensor(init.copy(), name="p")
        opt = Adam({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        grads = [rng.normal(size=(4, 3)) for _ in range(3)]

        ref, m, v = init.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for t, g in enumerate(grads, start=1):
            opt.step({"p": g}, {})
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g**2
            ref -= 0.1 * ((m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8))
        assert np.array_equal(p.data, ref)

    def test_adam_lazy_rows_keep_absent_rows_bit_identical(self):
        rng = np.random.default_rng(1)
        init = rng.normal(size=(5, 3))
        p = Tensor(init.copy(), name="p")
        opt = Adam({"p": p}, lr=0.1)
        for rows in ([0, 2], [2, 4], [0]):
            g = rng.normal(size=(5, 3))
            opt.step({"p": g[rows]}, {"p": np.array(rows)})
        assert np.array_equal(p.data[1], init[1])
        assert np.array_equal(p.data[3], init[3])
        assert not np.array_equal(p.data[0], init[0])


class TestTrainerWiring:
    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        task = make_task()
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, tiny_cfg(learning_rate=0.0))
        before = tr._snapshot()
        tr.train_epoch()
        tr.train_epoch()
        for name, p in tr.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_validation_rows_never_receive_sparse_updates(self):
        task = make_task()
        cfg = tiny_cfg(guidance=GuidanceConfig(mode="odg"))
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, cfg)
        logits0 = tr.logits.data.copy()
        u0 = tr.u_table.data.copy()
        tr.train_epoch()
        tr.train_epoch()
        val = task.val_ids
        train = task.train_ids
        assert np.array_equal(tr.logits.data[val], logits0[val])
        assert np.array_equal(tr.u_table.data[val], u0[val])
        assert not np.array_equal(tr.logits.data[train], logits0[train])

    def test_gradients_route_to_every_parameter_group(self):
        task = make_task()
        cfg = tiny_cfg(guidance=GuidanceConfig(mode="odg"))
        tr = Trainer(task, CODE4, ComposerKind.LSTM, cfg)
        tr.train_epoch()
        norms = tr.last_grad_norms
        assert norms["code_logits"] > 0
        assert norms["odg_u"] > 0
        assert norms["table"] > 0
        assert any(k.startswith("u_") and n > 0 for k, n in norms.items())

    def test_pdg_trains_encoder(self):
        task = make_task()
        pre = np.random.default_rng(3).normal(size=(40, 8))
        cfg = tiny_cfg(guidance=GuidanceConfig(mode="pdg", encoder_hidden=16))
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, cfg, pretrained=pre)
        tr.train_epoch()
        assert tr.last_grad_norms["encoder_w_in"] > 0
        assert tr.last_grad_norms["encoder_w_out"] > 0

    def test_auto_horizon_resolves_to_half_the_steps(self):
        task = make_task()  # 30 train ids, batch 16 -> 2 steps/epoch
        cfg = tiny_cfg(epochs=10, schedule=TempSchedule(horizon=AUTO_HORIZON))
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, cfg)
        assert tr.total_steps == 20
        assert tr.schedule.horizon == 10
        explicit = Trainer(task, CODE4, ComposerKind.LINEAR, tiny_cfg())
        assert explicit.schedule.horizon == 10

    def test_abort_on_non_finite_restores_last_good_state(self, monkeypatch):
        # an aborted epoch leaves the parameters as the failure left them ...
        task = make_task()
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, tiny_cfg())
        good = tr.train_epoch()
        assert not good["aborted"]
        tr.logits.data[0, 0, 0] = np.nan
        record = tr.train_epoch()
        assert record["aborted"] is True
        assert record["val_metric"] is None
        assert tr.aborted
        assert np.isnan(tr.logits.data[0, 0, 0])
        # ... and fit restores its last checkpoint: 2 steps per epoch, so the
        # 4th step is the second of epoch 2
        made, snaps = record_fit(monkeypatch)
        result = fit(NanAtStep(make_task(), 4), CODE4, ComposerKind.LINEAR, tiny_cfg(epochs=3))
        assert result.aborted and result.best_epoch == 1
        assert [r["aborted"] for r in result.history] == [False, True]
        (tr,) = made
        best, _ = snaps[-1]
        for name, p in tr.params.items():
            assert np.all(np.isfinite(p.data)), name
            assert np.array_equal(p.data, best[name]), name

    def test_config_task_mismatch_errors(self):
        task = make_task()
        bad_code = CodeConfig(vocab_size=41, alphabet_size=4, code_length=3, code_embed_dim=8)
        with pytest.raises(ValueError, match="vocab"):
            Trainer(task, bad_code, ComposerKind.LINEAR, tiny_cfg())
        pdg = tiny_cfg(guidance=GuidanceConfig(mode="pdg"))
        with pytest.raises(ValueError, match="pretrained"):
            Trainer(task, CODE4, ComposerKind.LINEAR, pdg)
        with pytest.raises(ValueError, match="vocab, embed_dim"):
            Trainer(task, CODE4, ComposerKind.LINEAR, pdg,
                    pretrained=np.zeros((40, 9)))
        frozen = random_codes(40, 4, 3, seed=0)
        with pytest.raises(ValueError, match="frozen"):
            Trainer(task, CODE4, ComposerKind.LINEAR, pdg,
                    pretrained=np.zeros((40, 8)), frozen_table=frozen)
        wrong = random_codes(40, 5, 3, seed=0)
        with pytest.raises(ValueError, match="frozen table"):
            Trainer(task, CODE4, ComposerKind.LINEAR, tiny_cfg(), frozen_table=wrong)

    def test_history_records_have_the_metrics_schema(self):
        task = make_task()
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, tiny_cfg())
        rec = tr.train_epoch()
        assert set(rec) == {
            "step", "tau", "task_loss", "entropy", "guidance_loss",
            "val_metric", "aborted",
        }
        assert rec["step"] == 2  # 30 train ids / batch 16
        assert rec["entropy"] > 0  # recorded even while the weight ramps


class TestFit:
    def test_same_seed_runs_are_bit_identical(self):
        results = []
        for _ in range(2):
            task = make_task(seed=7)
            cfg = tiny_cfg(epochs=3, guidance=GuidanceConfig(mode="odg"))
            results.append(fit(task, CODE4, ComposerKind.LINEAR, cfg))
        a, b = results
        assert np.array_equal(a.table.codes, b.table.codes)
        assert a.history == b.history
        for pa, pb in zip(a.book.parameters().values(), b.book.parameters().values()):
            assert np.array_equal(pa.data, pb.data)
        assert np.array_equal(a.embedding_matrix(), b.embedding_matrix())

    def test_different_seeds_differ(self):
        task = make_task(seed=7)
        a = fit(task, CODE4, ComposerKind.LINEAR, tiny_cfg(seed=0))
        b = fit(make_task(seed=7), CODE4, ComposerKind.LINEAR, tiny_cfg(seed=1))
        assert not np.array_equal(a.book.table.data, b.book.table.data)

    def test_loss_descends_on_reconstruction(self):
        rng = np.random.default_rng(11)
        targets, _ = clustered_embeddings(64, 8, 4, rng)
        task = ReconstructionTask(targets)
        code = CodeConfig(vocab_size=64, alphabet_size=4, code_length=3, code_embed_dim=8)
        result = fit(task, code, ComposerKind.LINEAR,
                     tiny_cfg(epochs=50, learning_rate=0.02, batch_size=32))
        first = result.history[0]["task_loss"]
        last = result.history[-1]["task_loss"]
        assert last < 0.5 * first
        # hard-code validation must also have improved from the raw init
        fresh = Trainer(task, code, ComposerKind.LINEAR, tiny_cfg())
        assert result.best_val < fresh.validate()

    def test_epochs_zero_returns_initial_code_assignments(self):
        task = make_task()
        cfg = tiny_cfg(epochs=0)
        result = fit(task, CODE4, ComposerKind.LINEAR, cfg)
        fresh = Trainer(task, CODE4, ComposerKind.LINEAR, cfg)
        assert np.array_equal(result.table.codes, extract_codes(fresh.logits).codes)
        assert result.history == []
        assert result.best_epoch == 0

    def test_best_checkpoint_is_restored_and_consistent(self):
        task = make_task(seed=3)
        cfg = tiny_cfg(epochs=8, learning_rate=0.05)
        result = fit(task, CODE4, ComposerKind.LINEAR, cfg)
        vals = [r["val_metric"] for r in result.history if r["val_metric"] is not None]
        assert result.best_val <= min(vals)
        # the restored parameters must reproduce the recorded best exactly
        recomputed = task.validation_loss(result.embed_rows)
        assert recomputed == pytest.approx(result.best_val, rel=1e-12)

    def test_later_epochs_and_aborts_leave_the_best_checkpoint_alone(self, monkeypatch):
        # fit restores its one checkpoint, so no later step, abort or restore
        # may write into it: 2 steps per epoch, and the 6th step (epoch 3) aborts
        made, snaps = record_fit(monkeypatch)
        result = fit(NanAtStep(make_task(), 6), CODE4, ComposerKind.LINEAR,
                     tiny_cfg(epochs=3, learning_rate=0.05))
        assert result.aborted and len(result.history) == 3 and result.best_epoch == 2
        (tr,) = made
        for p in tr.params.values():
            p.data += 1.0
        for snap, kept in snaps:
            for name, a in snap.items():
                assert np.array_equal(a, kept[name]), name

    def test_a_validation_that_diverges_aborts_the_fit(self, monkeypatch):
        # one step per epoch at a huge learning rate: the step completes, and
        # the projection overflows in validation, which ends the epoch as an abort
        made, snaps = record_fit(monkeypatch)
        code = CodeConfig(vocab_size=40, alphabet_size=4, code_length=3, code_embed_dim=4)
        cfg = tiny_cfg(batch_size=32, learning_rate=1e300)
        with np.errstate(over="ignore"):
            result = fit(make_task(), code, ComposerKind.LINEAR, cfg)
        assert result.aborted and result.best_epoch == 0
        assert [(r["step"], r["val_metric"], r["aborted"]) for r in result.history] == [
            (1, None, True)]
        (tr,) = made
        fresh = Trainer(make_task(), code, ComposerKind.LINEAR, cfg)
        for name, p in tr.params.items():
            assert np.array_equal(p.data, fresh.params[name].data), name
        assert result.best_val == fresh.validate()

    def test_an_epoch_that_aborts_before_its_first_step_has_no_step_means(self):
        # 2 steps per epoch: the 3rd step is the first of epoch 2
        result = fit(NanAtStep(make_task(), 3), CODE4, ComposerKind.LINEAR, tiny_cfg(epochs=3))
        first, aborted = result.history
        assert not first["aborted"] and aborted["aborted"]
        for key in ("task_loss", "entropy", "guidance_loss"):
            assert isinstance(first[key], float), key
            assert aborted[key] is None, key

    def test_straight_through_equals_hard_table_evaluation(self):
        task = make_task(seed=5)
        tr = Trainer(task, CODE4, ComposerKind.HIDDEN, tiny_cfg(epochs=3))
        for _ in range(3):
            tr.train_epoch()
        ids = np.arange(40)
        hard = tr.embed_rows_hard(ids)
        relaxed = ad.softmax_t(ad.gather_rows(tr.logits, ids), 0.37)
        ste = compose_relaxed(ad.straight_through(relaxed), tr.book)
        assert np.array_equal(hard, ste.data)

    def test_frozen_table_trains_composer_only(self):
        task = make_task()
        frozen = random_codes(40, 4, 3, seed=9)
        cfg = tiny_cfg(epochs=3, entropy_weight=0.0)
        result = fit(task, CODE4, ComposerKind.LINEAR, cfg, frozen_table=frozen)
        assert np.array_equal(result.table.codes, frozen.codes)
        tr = Trainer(task, CODE4, ComposerKind.LINEAR, cfg, frozen_table=frozen)
        assert "code_logits" not in tr.params
        before = tr.book.table.data.copy()
        tr.train_epoch()
        assert not np.array_equal(tr.book.table.data, before)

    def test_one_hot_selection_path_matches_gather_path_after_fit(self):
        task = make_task(seed=6)
        result = fit(task, CODE4, ComposerKind.LINEAR, tiny_cfg(epochs=2))
        sel = Tensor(np.eye(result.table.alphabet_size)[result.table.codes])
        via_matmul = compose_relaxed(sel, result.book).data
        assert np.array_equal(result.embedding_matrix(), via_matmul)


class NanAtStep:
    """Task wrapper whose batch loss turns NaN at its ``step``-th call."""

    def __init__(self, task, step: int):
        self._task, self._step, self.calls = task, step, 0

    def __getattr__(self, name):
        return getattr(self._task, name)

    def batch_loss(self, task_input, batch):
        self.calls += 1
        loss = self._task.batch_loss(task_input, batch)
        return ad.scale(loss, np.nan) if self.calls == self._step else loss


def every_epoch_snapshot_fit(task, code_cfg, kind, cfg):
    """The checkpointing ``fit`` had before the trainer kept one checkpoint: a
    snapshot after every completed epoch, the lowest validation loss (the
    initial parameters' included) kept, and that snapshot restored at the end."""
    tr = Trainer(task, code_cfg, kind, cfg)
    best_val, best_epoch, best = tr.validate(), 0, tr._snapshot()
    for _ in range(cfg.epochs):
        record = tr.train_epoch()
        if tr.aborted:
            break
        snap = tr._snapshot()
        if record["val_metric"] < best_val:
            best_val, best_epoch, best = record["val_metric"], len(tr.history), snap
    for name, p in tr.params.items():
        p.data = best[name].copy()
    return tr, best_val, best_epoch


class TestOneCheckpoint:
    @pytest.mark.parametrize("case", ["later_epoch_worse", "abort_mid_epoch", "no_epochs"])
    def test_fit_equals_the_every_epoch_snapshot_loop(self, case, monkeypatch):
        kind, cfg, wrap = {
            # a high learning rate makes later epochs validate worse
            "later_epoch_worse": (ComposerKind.HIDDEN, tiny_cfg(
                epochs=6, learning_rate=0.05, guidance=GuidanceConfig(mode="odg")), None),
            # 2 steps per epoch: the 8th step is the second of epoch 4, and
            # epoch 3 validates worse than epoch 2
            "abort_mid_epoch": (ComposerKind.LINEAR, tiny_cfg(epochs=5, learning_rate=0.1), 8),
            "no_epochs": (ComposerKind.LSTM, tiny_cfg(epochs=0), None),
        }[case]

        def task():
            t = make_task(seed=4)
            return t if wrap is None else NanAtStep(t, wrap)

        made, _ = record_fit(monkeypatch)
        result = fit(task(), CODE4, kind, cfg)
        ref, ref_val, ref_epoch = every_epoch_snapshot_fit(task(), CODE4, kind, cfg)

        assert result.best_val == ref_val
        assert result.best_epoch == ref_epoch
        assert np.array_equal(result.table.codes, ref.current_table().codes)
        assert result.history == ref.history
        (tr,) = made
        assert list(tr.params) == list(ref.params)
        for name, p in tr.params.items():
            assert np.array_equal(p.data, ref.params[name].data), name
        vals = [r["val_metric"] for r in result.history]
        if case == "later_epoch_worse":
            assert 0 < result.best_epoch < cfg.epochs
            assert max(vals[result.best_epoch:]) > result.best_val
        elif case == "abort_mid_epoch":
            assert result.aborted and len(result.history) == 4 and vals[-1] is None
            assert 0 < result.best_epoch < 3
        else:
            assert result.history == [] and result.best_epoch == 0

    def test_restore_writes_into_the_live_arrays(self, monkeypatch):
        made, snaps = record_fit(monkeypatch)
        cfg = tiny_cfg(epochs=3, guidance=GuidanceConfig(mode="odg"))
        result = fit(NanAtStep(make_task(), 4), CODE4, ComposerKind.LSTM, cfg)
        assert result.aborted and result.best_epoch == 1  # the abort leaves the restore to fit
        (tr,) = made
        best, _ = snaps[-1]
        for name, p in tr.params.items():
            assert p.data is tr.arrays[name], name
            assert np.array_equal(p.data, best[name]), name

    def test_a_fit_holds_the_code_logits_four_times_not_five(self):
        # at this shape the (N, D, K) float64 tables dominate: the live logits,
        # Adam's m and v and the one checkpoint.  A second checkpoint taken
        # before the first is dropped, or a restore through a fresh copy, would
        # make a fifth.
        n, k, d = 4000, 16, 16
        targets, _ = clustered_embeddings(n, 8, 16, np.random.default_rng(0))
        task = ReconstructionTask(targets)
        code = CodeConfig(vocab_size=n, alphabet_size=k, code_length=d, code_embed_dim=8)
        cfg = tiny_cfg(epochs=2, batch_size=32)
        table_bytes = n * d * k * 8
        tracemalloc.start()  # counts only what is allocated from here on
        try:
            result = fit(task, code, ComposerKind.LINEAR, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best_epoch > 0
        assert peak < 4.5 * table_bytes, peak / table_bytes
