"""End-to-end code learning: relax -> discretize -> compose -> task loss.

Per batch the trainer wires

    rows   = gather(code logits, batch symbols)
    relaxed = softmax(rows / tau)
    sel    = straight_through(relaxed)        # optional but on by default
    v      = compose_relaxed(sel, codebook)   # B @ C for the sum families
    loss   = task(v or guidance-mixed v) + gamma_t * entropy + guidance terms

then takes one optimizer step on every parameter group (code logits, codebook,
task parameters, guidance parameters).  The trainer alone knows which tables
it reads by row: the code logits and odg's table.  It reads the batch's rows
of each (``batch.symbols``, unique and ascending) into a fresh leaf, so the
graph never holds the whole table and the leaf's gradient is just those rows.
The clip scales that gradient like any other, and the optimizer takes the
row ids beside it, so symbols absent from a batch are untouched and a step
costs O(batch), not O(vocabulary).  Every other group gets a dense gradient
and a dense update.  A step drops its graph as soon as the gradients are
out, before the clip and the optimizer, and the task builds each batch when
the loop asks for it, so an epoch never holds all its batches at once.
``Trainer`` keeps no checkpoint; ``fit`` owns the one, the parameters with the
lowest validation loss under *hard* codes, the inference regime (validation
composes through the graph-free ``compose_digits``).  Only an improving epoch
copies them, after dropping the old copy; the restore copies in place.
``frozen_table`` trains the composer through ``_compose_frozen``, the same
hard-code composition built as a graph of row gathers.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codes import CodeConfig, CodeTable, entropy_regularizer, extract_codes, init_logits
from .composer import (
    DEFAULT_HIDDEN_WIDTH,
    CodeBook,
    ComposerKind,
    _compose_frozen,
    compose_digits,
    compose_relaxed,
    init_codebook,
)
from .guidance import (
    GuidanceConfig,
    autoencoder_loss,
    distillation_loss,
    draw_mix_mask,
    init_encoder,
    odg_match_penalty,
    odg_mix,
)

AUTO_HORIZON = 0  # sentinel: resolve to half the total steps at fit time
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class TempSchedule:
    """Temperature as a function of the global step: a geometric decay from
    ``tau_init`` to ``tau_min`` over ``horizon`` steps, then ``tau_min``.
    Equal taus give a constant temperature."""

    tau_init: float = 1.0
    tau_min: float = 0.1
    horizon: int = AUTO_HORIZON  # step at which tau_min is reached

    def __post_init__(self):
        if not self.tau_init >= self.tau_min > 0:
            raise ValueError("need tau_init >= tau_min > 0")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    def temperature(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be >= 0")
        if step >= self.horizon or self.tau_init == self.tau_min:
            return self.tau_min
        # geometric interpolation: tau_init * r^step with r = (tau_min/tau_init)^(1/horizon)
        return self.tau_init * (self.tau_min / self.tau_init) ** (step / self.horizon)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    schedule: TempSchedule = field(default_factory=TempSchedule)
    entropy_weight: float = 0.01
    entropy_ramp_fraction: float = 0.1
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    use_straight_through: bool = True
    grad_clip: float = 5.0
    seed: int = 0
    # only perfbench/workloads.py passes it; drop both at the next deliberate benchmark change
    optimizer: InitVar[str] = "adam"

    def __post_init__(self, optimizer):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if optimizer != "adam":
            raise ValueError("optimizer must be 'adam', the one optimizer")
        if not self.entropy_weight >= 0 or not 0 <= self.entropy_ramp_fraction <= 1:
            raise ValueError("invalid entropy settings")
        if not self.grad_clip >= 0:
            raise ValueError("grad_clip must be >= 0 (0 disables clipping)")


class Adam:
    """Adaptive-moment optimizer with lazy row updates for large tables.

    ``step(grads, rows)``: ``rows[name]`` holds the row ids that ``grads[name]``
    is the gradient of, one gradient row per id.  The ids are unique and
    ascending; the caller that read those rows vouches for them, and nothing
    here sorts or sums them.  Only those rows advance (their first/second
    moments and values); all other rows stay bit-identical.  A name missing
    from ``rows`` takes a dense step.  Bias correction uses the global step
    count.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], rows: dict[str, np.ndarray]):
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            r, g = rows.get(name, slice(None)), grads[name]
            m = BETA1 * self.m[name][r] + (1 - BETA1) * g
            v = BETA2 * self.v[name][r] + (1 - BETA2) * g**2
            self.m[name][r] = m
            self.v[name][r] = v
            p.data[r] -= self.lr * ((m / c1) / (np.sqrt(v / c2) + EPS))


def _ramp(step: int, ramp_steps: int) -> float:
    if ramp_steps <= 0:
        return 1.0
    return min(1.0, step / ramp_steps)


class Trainer:
    """Owns the parameter groups and runs seeded epochs over one task."""

    def __init__(
        self,
        task,
        code_cfg: CodeConfig,
        composer_kind: ComposerKind | str,
        cfg: TrainConfig,
        hidden_width: int = DEFAULT_HIDDEN_WIDTH,
        tie_output_gate: bool = False,
        pretrained: np.ndarray | None = None,
        frozen_table: CodeTable | None = None,
        symbols: list[str] | None = None,
    ):
        if code_cfg.vocab_size != task.vocab_size:
            raise ValueError("code config and task disagree on vocabulary size")
        g = cfg.guidance
        if g.mode == "pdg" and pretrained is None:
            raise ValueError("pdg guidance requires a pretrained embedding matrix")
        if g.mode == "pdg" and frozen_table is not None:
            raise ValueError("pdg guidance needs trainable code logits, not a frozen table")
        if pretrained is not None:
            pretrained = np.asarray(pretrained, dtype=np.float64)
            if pretrained.shape != (task.vocab_size, task.embed_dim):
                raise ValueError("pretrained matrix must be (vocab, embed_dim)")
        if frozen_table is not None and (
            frozen_table.vocab_size != code_cfg.vocab_size
            or frozen_table.alphabet_size != code_cfg.alphabet_size
            or frozen_table.code_length != code_cfg.code_length
        ):
            raise ValueError("frozen table does not match the code config")

        self.task = task
        self.code_cfg = code_cfg
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.symbols = symbols
        self.pretrained = pretrained
        self.frozen_table = frozen_table

        self.logits = None if frozen_table is not None else init_logits(code_cfg, self.rng)
        self.book = init_codebook(
            code_cfg.alphabet_size,
            code_cfg.code_length,
            code_cfg.code_embed_dim,
            task.embed_dim,
            composer_kind,
            self.rng,
            hidden_width=hidden_width,
            tie_output_gate=tie_output_gate,
        )
        self.u_table = None
        self.encoder = None
        if g.mode == "odg":
            scale = 1.0 / np.sqrt(task.embed_dim)
            self.u_table = Tensor(
                self.rng.uniform(-scale, scale, (task.vocab_size, task.embed_dim)),
                name="odg_u",
            )
        elif g.mode == "pdg":
            self.encoder = init_encoder(
                task.embed_dim,
                code_cfg.alphabet_size,
                code_cfg.code_length,
                self.rng,
                hidden=g.encoder_hidden,
            )

        self.params: dict[str, Tensor] = {}
        if self.logits is not None:
            self.params["code_logits"] = self.logits
        self.params.update(self.book.parameters())
        self.params.update(task.parameters())
        if self.u_table is not None:
            self.params["odg_u"] = self.u_table
        if self.encoder is not None:
            self.params.update(self.encoder.parameters())

        self.opt = Adam(self.params, cfg.learning_rate)

        n_train = len(task.train_ids)
        steps_per_epoch = max(1, math.ceil(n_train / cfg.batch_size))
        self.total_steps = max(1, cfg.epochs * steps_per_epoch)
        sched = cfg.schedule
        if sched.horizon == AUTO_HORIZON:
            sched = replace(sched, horizon=max(1, self.total_steps // 2))
        self.schedule = sched
        self.entropy_ramp_steps = math.ceil(cfg.entropy_ramp_fraction * self.total_steps)
        self.guidance_ramp_steps = math.ceil(g.ramp_fraction * self.total_steps)

        self.step = 0
        self.history: list[dict] = []
        self.aborted = False
        # each group's gradient norm at the last step, before the clip
        self.last_grad_norms: dict[str, float] = {}

    # -- parameter snapshots ------------------------------------------------

    def _snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def _restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            np.copyto(p.data, snap[name])

    # -- inference-mode embeddings ------------------------------------------

    def current_table(self) -> CodeTable:
        if self.frozen_table is not None:
            return self.frozen_table
        return extract_codes(self.logits, self.symbols)

    def embed_rows_hard(self, indices: np.ndarray) -> np.ndarray:
        """Inference-regime rows: hard codes through the composer, no mixing."""
        digits = self.current_table().codes[np.asarray(indices, dtype=np.int64)]
        return compose_digits(digits, self.book).data

    def validate(self) -> float:
        return self.task.validation_loss(self.embed_rows_hard)

    # -- one training epoch ---------------------------------------------------

    def _batch_loss(self, batch, tau: float):
        """Assemble the full scalar loss for one batch.

        Returns the loss, the task, entropy and guidance values, and the leaves
        holding the batch's rows of each table read by row, keyed by the
        table's parameter name.
        """
        cfg, g = self.cfg, self.cfg.guidance
        symbols = batch.symbols
        n_sym = symbols.size
        if n_sym and not (
            0 <= symbols[0] and symbols[-1] < self.task.vocab_size
            and np.all(symbols[1:] > symbols[:-1])
        ):
            raise ValueError("batch symbols must be strictly ascending ids in [0, vocab_size), "
                             "as SymbolBatch requires")
        rows: dict[str, Tensor] = {}
        if self.frozen_table is not None:
            # no table is read by row: the digit tensor takes a dense gradient
            v = _compose_frozen(self.frozen_table.codes[symbols], self.book)
            relaxed = None
            logit_rows = None
        else:
            logit_rows = rows["code_logits"] = Tensor(self.logits.data[symbols], name="code_logits")
            relaxed = ad.softmax_t(logit_rows, tau)
            sel = ad.straight_through(relaxed) if cfg.use_straight_through else relaxed
            v = compose_relaxed(sel, self.book)

        entropy_val = 0.0
        guidance_val = 0.0
        task_input = v

        if g.mode == "odg":
            u_rows = rows["odg_u"] = Tensor(self.u_table.data[symbols], name="odg_u")
            mask = draw_mix_mask((n_sym, self.task.embed_dim), g.keep_prob, self.rng)
            task_input = odg_mix(u_rows, v, mask)
            lam = g.match_weight * _ramp(self.step, self.guidance_ramp_steps)
            penalty = ad.scale(odg_match_penalty(u_rows, v), 1.0 / n_sym)
            guidance_val = penalty.item()
            guidance_term = ad.scale(penalty, lam)
        elif g.mode == "pdg":
            u_batch = self.pretrained[symbols]
            dist = distillation_loss(
                logit_rows, u_batch, self.encoder, self.book, tau,
                g.embed_weight, g.logit_weight,
            )
            total = dist
            if g.autoencoder:
                total = total + autoencoder_loss(u_batch, self.encoder, self.book, tau)
            guidance_term = ad.scale(total, 1.0 / n_sym)
            guidance_val = guidance_term.item()
        else:
            guidance_term = None

        loss = self.task.batch_loss(task_input, batch)
        task_val = loss.item()

        if relaxed is not None:
            entropy = ad.scale(entropy_regularizer(relaxed), 1.0 / n_sym)
            entropy_val = entropy.item()
            if cfg.entropy_weight > 0:
                gamma = cfg.entropy_weight * _ramp(self.step, self.entropy_ramp_steps)
                loss = loss + ad.scale(entropy, gamma)
        if guidance_term is not None:
            loss = loss + guidance_term
        return loss, task_val, entropy_val, guidance_val, rows

    def train_epoch(self) -> dict:
        """One seeded-shuffled pass and its validation; appends the epoch's
        metrics record to ``history`` and returns it.  A non-finite value in a
        step or in validation aborts the epoch: the record's ``aborted`` and
        ``self.aborted`` are set, its ``val_metric`` is None, and so are its
        step means if no step completed.  The parameters stay as the failure
        left them, maybe non-finite: ``fit`` restores its checkpoint, and a
        direct caller must keep its own."""
        cfg = self.cfg
        sums = np.zeros(3)
        count = 0
        tau = self.schedule.temperature(self.step)
        try:
            for batch in self.task.train_batches(cfg.batch_size, self.rng):
                tau = self.schedule.temperature(self.step)
                loss, task_val, ent_val, guid_val, rows = self._batch_loss(batch, tau)
                grads = ad.gradients(loss, {**self.params, **rows})
                # the graph dies here, before the clip's and the optimizer's temporaries
                row_ids = dict.fromkeys(rows, batch.symbols)
                del loss, rows
                self.last_grad_norms = ad.global_norm_clip(grads, cfg.grad_clip)
                self.opt.step(grads, row_ids)
                del grads
                sums += (task_val, ent_val, guid_val)
                count += 1
                self.step += 1
            val = self.validate()
            if not np.isfinite(val):
                raise FloatingPointError(f"non-finite validation loss {val}")
        except FloatingPointError:
            self.aborted, val = True, None
        task_loss, entropy, guidance_loss = (sums / count).tolist() if count else (None,) * 3
        record = {"step": self.step, "tau": float(tau), "task_loss": task_loss,
                  "entropy": entropy, "guidance_loss": guidance_loss,
                  "val_metric": None if val is None else float(val), "aborted": val is None}
        self.history.append(record)
        return record


@dataclass
class FitResult:
    table: CodeTable
    book: CodeBook
    task: object
    history: list[dict]
    best_val: float
    best_epoch: int
    aborted: bool
    u_table: Tensor | None = None

    def embed_rows(self, indices) -> np.ndarray:
        """Inference-mode embedding rows straight from the hard code table."""
        digits = self.table.codes[np.asarray(indices, dtype=np.int64)]
        return compose_digits(digits, self.book).data

    def embedding_matrix(self) -> np.ndarray:
        return self.embed_rows(np.arange(self.table.vocab_size))

    def evaluate(self) -> dict[str, float]:
        return self.task.evaluate(self.embed_rows)


def fit(task, code_cfg: CodeConfig, composer_kind: ComposerKind | str, cfg: TrainConfig,
        **options) -> FitResult:
    """Train codes + composer + task end-to-end and return the checkpoint with
    the lowest hard-code validation loss, the initial parameters included.

    ``fit`` owns that one checkpoint.  After each epoch that beats it, the old
    copy is dropped before the new one is taken.  An aborted epoch ends the
    fit, and the checkpoint is restored in place once, at the end.
    ``options`` go to ``Trainer`` unchanged: ``hidden_width``,
    ``tie_output_gate``, ``pretrained``, ``frozen_table`` and ``symbols``.
    """
    trainer = Trainer(task, code_cfg, composer_kind, cfg, **options)
    best_val, best_epoch = trainer.validate(), 0
    best = trainer._snapshot()
    for epoch in range(1, cfg.epochs + 1):
        val = trainer.train_epoch()["val_metric"]
        if trainer.aborted:
            break
        if val < best_val:
            best = None  # drop the old checkpoint before copying the new one
            best = trainer._snapshot()
            best_val, best_epoch = val, epoch
    trainer._restore(best)
    return FitResult(
        table=trainer.current_table(),
        book=trainer.book,
        task=task,
        history=trainer.history,
        best_val=float(best_val),
        best_epoch=best_epoch,
        aborted=trainer.aborted,
        u_table=trainer.u_table,
    )
