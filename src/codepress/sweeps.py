"""Configuration sweeps, the optimization-trick ablation ladder, and the
full / coded / quantized compression comparison.

Each run in a sweep gets an independent seed derived from (base seed, run
index), so runs are reproducible individually and reorderable collectively.
A run that raises is recorded as a failure entry; the sweep carries on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import evaluate_full, evaluate_pq, evaluate_scalar, fit_dense_embedding
from .codes import CodeConfig
from .composer import DEFAULT_HIDDEN_WIDTH, ComposerKind
from .datasets import marker_corpus
from .guidance import GuidanceConfig
from .reporting import RunReport, build_report, kd_config
from .tasks import ClassificationTask, ReconstructionTask
from .training import FitResult, TempSchedule, TrainConfig, fit

SWEEP_AXES = ("alphabet_size", "code_length", "digit_dim", "composer")


@dataclass(frozen=True)
class SweepBase:
    """Reference configuration a sweep perturbs one axis of."""

    targets: np.ndarray  # reconstruction targets (vocab, embed_dim)
    alphabet_size: int = 16
    code_length: int = 4
    digit_dim: int = 16
    composer: str = "linear-sum"
    hidden_width: int = DEFAULT_HIDDEN_WIDTH
    train: TrainConfig = field(default_factory=TrainConfig)
    allow_lossy: bool = True


def derived_seed(base_seed: int, index: int) -> int:
    """Deterministic per-run seed from the base seed and the run's index."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def run_one(base: SweepBase, seed: int, **overrides) -> tuple[RunReport, FitResult]:
    """One fit+eval at the base configuration with the given field overrides.

    The report's ``wall_time_s`` covers the fit and the evaluation.
    """
    start = time.perf_counter()
    settings = {
        "alphabet_size": base.alphabet_size,
        "code_length": base.code_length,
        "digit_dim": base.digit_dim,
        "composer": base.composer,
    }
    settings.update(overrides)
    task = ReconstructionTask(base.targets)
    code_cfg = CodeConfig(
        vocab_size=task.vocab_size,
        alphabet_size=int(settings["alphabet_size"]),
        code_length=int(settings["code_length"]),
        code_embed_dim=int(settings["digit_dim"]),
        allow_lossy=base.allow_lossy,
    )
    cfg = replace(base.train, seed=seed)
    pretrained = base.targets if cfg.guidance.mode == "pdg" else None
    result = fit(
        task,
        code_cfg,
        ComposerKind(settings["composer"]),
        cfg,
        hidden_width=base.hidden_width,
        pretrained=pretrained,
    )
    scores = result.evaluate()
    report = build_report(
        method=f"kd({settings['composer']})",
        config={
            **kd_config(result.table, result.book, task.embed_dim),
            "composer": str(settings["composer"]),
            "seed": seed,
        },
        metrics={"val_loss": result.best_val, **scores},
        reconstruction_mse=scores.get("reconstruction_mse"),
        wall_time_s=time.perf_counter() - start,
    )
    return report, result


def _failed(method: str, exc: Exception, **echo) -> RunReport:
    """Placeholder row for a run that raised: no storage, the error in its echo."""
    return RunReport(
        method=f"{method} FAILED",
        config={"family": "kd", **echo, "error": str(exc)},
        params_count=0,
        bits=0,
        compression_ratio=0.0,
    )


def sweep(axis: str, values, base: SweepBase) -> list[RunReport]:
    """Fit+eval once per axis value; failures become error-tagged reports."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    reports: list[RunReport] = []
    for index, value in enumerate(values):
        seed = derived_seed(base.train.seed, index)
        try:
            report, _ = run_one(base, seed, **{axis: value})
            report.method = f"kd[{axis}={value}]"
        except Exception as exc:  # preserve partial results
            report = _failed(f"kd[{axis}={value}]", exc, axis=axis, value=str(value))
        reports.append(report)
    return reports


# -- ablation ladder -----------------------------------------------------------

ABLATION_ORDER = (
    "cr",  # continuous relaxation only: no STE, constant tau, no entropy
    "cr_ste",  # + straight-through discretization
    "cr_ste_sched",  # + temperature schedule
    "cr_ste_sched_ent",  # + entropy regularization
    "pdg_no_autoencoder",  # + distillation guidance, autoencoder term off
    "pdg_full",  # + autoencoder term
)


def ablation_variants(base: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The cumulative trick ladder, all derived from one base TrainConfig."""
    constant = TempSchedule(kind="constant", tau_init=base.schedule.tau_init, tau_min=base.schedule.tau_init)
    decaying = base.schedule if base.schedule.kind == "exponential" else TempSchedule()
    no_guide = GuidanceConfig(mode="none")
    pdg_off = replace(base.guidance, mode="pdg", autoencoder=False)
    pdg_on = replace(base.guidance, mode="pdg", autoencoder=True)
    return [
        ("cr", replace(base, use_straight_through=False, schedule=constant,
                       entropy_weight=0.0, guidance=no_guide)),
        ("cr_ste", replace(base, use_straight_through=True, schedule=constant,
                           entropy_weight=0.0, guidance=no_guide)),
        ("cr_ste_sched", replace(base, use_straight_through=True, schedule=decaying,
                                 entropy_weight=0.0, guidance=no_guide)),
        ("cr_ste_sched_ent", replace(base, use_straight_through=True, schedule=decaying,
                                     guidance=no_guide)),
        ("pdg_no_autoencoder", replace(base, use_straight_through=True, schedule=decaying,
                                       guidance=pdg_off)),
        ("pdg_full", replace(base, use_straight_through=True, schedule=decaying,
                             guidance=pdg_on)),
    ]


def run_ablation(base: SweepBase) -> list[RunReport]:
    """Six-row report over the trick ladder on the base reconstruction task.

    All variants share the base seed, making the ladder a paired comparison.
    """
    reports = []
    for tag, cfg in ablation_variants(base.train):
        variant = replace(base, train=cfg)
        try:
            report, _ = run_one(variant, cfg.seed)
            report.method = tag
        except Exception as exc:
            report = _failed(tag, exc, variant=tag)
        reports.append(report)
    return reports


# -- compression comparison ------------------------------------------------------

_KD_EXTRA_EPOCHS = 2  # the coded layer trains this many epochs beyond the dense one


def compression_comparison(
    vocab_size: int = 2000,
    embed_dim: int = 32,
    docs: int = 2000,
    doc_len: int = 20,
    alphabet: int = 16,
    length: int = 4,
    composer: str = "linear-sum",
    subspaces: int = 4,
    centroids: int = 16,
    scalar_bits: int = 8,
    epochs: int = 8,
    batch_size: int = 64,
    learning_rate: float = 0.01,
    seed: int = 0,
) -> list[RunReport]:
    """Full, coded, product-quantized and scalar-quantized embedding layers on
    the marker-token classification corpus, one report each, in that order.

    The full table and the coded layer train on the task; the two quantized
    copies of the full table are re-scored through the full model's own
    classifier head, so their accuracy differences isolate the embedding
    change.  Seeds ``seed`` .. ``seed + 3`` draw the corpus, the two task
    splits and heads, and the PQ initialization.
    """
    corpus = marker_corpus(np.random.default_rng(seed), vocab_size=vocab_size,
                           n_docs=docs, doc_len=doc_len)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size,
                      learning_rate=learning_rate, seed=seed)

    dense_task = ClassificationTask(corpus, embed_dim, np.random.default_rng(seed + 1),
                                    val_fraction=0.2)
    dense = fit_dense_embedding(dense_task, cfg)

    kd_task = ClassificationTask(corpus, embed_dim, np.random.default_rng(seed + 2),
                                 val_fraction=0.2)
    code_cfg = CodeConfig(vocab_size=vocab_size, alphabet_size=alphabet,
                          code_length=length, code_embed_dim=embed_dim, allow_lossy=True)
    kd = fit(kd_task, code_cfg, composer, replace(cfg, epochs=epochs + _KD_EXTRA_EPOCHS))

    def rescored(qr) -> RunReport:
        rows = qr.reconstruction
        scores = dense_task.evaluate(lambda ids: rows[np.asarray(ids)])
        return build_report(qr.method, qr.config, metrics={"val_accuracy": scores["val_accuracy"]})

    return [
        rescored(evaluate_full(dense.matrix)),
        build_report(f"kd({alphabet}x{length},{composer})",
                     kd_config(kd.table, kd.book, embed_dim),
                     metrics={"val_accuracy": kd.evaluate()["val_accuracy"]}),
        rescored(evaluate_pq(dense.matrix, subspaces, centroids, np.random.default_rng(seed + 3))),
        rescored(evaluate_scalar(dense.matrix, scalar_bits)),
    ]
