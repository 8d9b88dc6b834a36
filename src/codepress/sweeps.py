"""Configuration sweeps, the optimization-trick ablation ladder, and the
full / coded / quantized compression comparison.

``run_one`` turns a parsed config into a fit and its report; ``fit-codes``,
every sweep row and every ablation rung is ``run_one`` of a config with some
keys overridden.  Each run in a sweep gets an independent seed derived from
(base seed, run index), so runs are reproducible individually and
reorderable collectively.  A run that raises is recorded as a failure entry;
the sweep carries on.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .baselines import evaluate_full, evaluate_pq, evaluate_scalar, fit_dense_embedding
from .codes import CodeConfig
from .configfile import DEFAULTS, build_code_config, build_train_config
from .datasets import clustered_embeddings, load_embeddings, make_vocab, marker_corpus
from .reporting import RunReport, kd_config
from .tasks import ClassificationTask, ReconstructionTask
from .training import FitResult, TrainConfig, fit

SWEEP_AXES = ("alphabet_size", "code_length", "digit_dim", "composer")


def derived_seed(base_seed: int, index: int) -> int:
    """Deterministic per-run seed from the base seed and the run's index."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def load_targets(settings: dict) -> tuple[list[str], np.ndarray]:
    """(symbols, target matrix) from the config's data section."""
    if settings["embeddings_path"]:
        return load_embeddings(settings["embeddings_path"])
    rng = np.random.default_rng(settings["data_seed"])
    matrix, _ = clustered_embeddings(
        settings["vocab_size"],
        settings["embed_dim"],
        settings["synthetic_clusters"],
        rng,
        spread=settings["synthetic_spread"],
    )
    return make_vocab(settings["vocab_size"]), matrix


def run_one(settings: dict, **overrides) -> tuple[RunReport, FitResult]:
    """Fit and evaluate a parsed config (``configfile.parse_config``) with some
    of its keys overridden; ``fit-codes`` is this with no overrides.

    The report's ``wall_time_s`` covers loading the targets, the fit and the
    evaluation.
    """
    start = time.perf_counter()
    settings = {**settings, **overrides}
    symbols, targets = load_targets(settings)
    settings.update(vocab_size=targets.shape[0], embed_dim=targets.shape[1])
    task = ReconstructionTask(
        targets, val_fraction=settings["val_fraction"], split_seed=settings["data_seed"]
    )
    train_cfg = build_train_config(settings)
    result = fit(
        task,
        build_code_config(settings),
        settings["composer"],
        train_cfg,
        hidden_width=settings["hidden_width"],
        tie_output_gate=settings["tie_output_gate"],
        pretrained=targets if train_cfg.guidance.mode == "pdg" else None,
        symbols=symbols,
    )
    config = {**kd_config(result.table, result.book, task.embed_dim), "seed": settings["seed"]}
    report = RunReport(f"kd({settings['composer']})", config, result.evaluate(),
                       time.perf_counter() - start)
    return report, result


def _failed(method: str, exc: Exception, **echo) -> RunReport:
    """Placeholder row for a run that raised: no storage, the error in its echo."""
    return RunReport(f"{method} FAILED", {"family": "kd", **echo, "error": str(exc)})


def sweep(axis: str, values, settings: dict) -> list[RunReport]:
    """``run_one`` once per axis value, run ``i`` at seed
    ``derived_seed(settings["seed"], i)``; failures become error-tagged reports."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    reports: list[RunReport] = []
    for index, value in enumerate(values):
        seed = derived_seed(settings["seed"], index)
        try:
            report, _ = run_one(settings, seed=seed, **{axis: value})
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

_SCHEDULE_KEYS = ("tau_init", "tau_min", "tau_horizon")


def ablation_variants(settings: dict) -> list[tuple[str, dict]]:
    """The cumulative trick ladder over a parsed config: each rung's config
    overrides, which add one trick to the rung before.

    The first rung holds the temperature at ``tau_init`` by setting ``tau_min``
    to it.  The schedule rung keeps the config's schedule if it decays
    (``tau_min < tau_init``) and otherwise takes the default one; the guidance
    rungs keep the config's pdg weights.
    """
    if settings["tau_min"] < settings["tau_init"]:
        decaying = {key: settings[key] for key in _SCHEDULE_KEYS}
    else:
        decaying = {key: DEFAULTS[key].default for key in _SCHEDULE_KEYS}
    steps = [
        ("cr", {"use_straight_through": False, "tau_min": settings["tau_init"],
                "entropy_weight": 0.0, "guidance_mode": "none"}),
        ("cr_ste", {"use_straight_through": True}),
        ("cr_ste_sched", decaying),
        ("cr_ste_sched_ent", {"entropy_weight": settings["entropy_weight"]}),
        ("pdg_no_autoencoder", {"guidance_mode": "pdg", "autoencoder": False}),
        ("pdg_full", {"autoencoder": True}),
    ]
    rungs, overrides = [], {}
    for tag, step in steps:
        overrides = {**overrides, **step}
        rungs.append((tag, overrides))
    return rungs


def run_ablation(settings: dict) -> list[RunReport]:
    """Six-row report over the trick ladder, each rung a ``run_one`` of the
    config.

    All rungs share the config's seed, making the ladder a paired comparison.
    """
    reports = []
    for tag, overrides in ablation_variants(settings):
        try:
            report, _ = run_one(settings, **overrides)
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
    dense = fit_dense_embedding(dense_task, cfg).embedding_matrix()

    kd_task = ClassificationTask(corpus, embed_dim, np.random.default_rng(seed + 2),
                                 val_fraction=0.2)
    code_cfg = CodeConfig(vocab_size=vocab_size, alphabet_size=alphabet,
                          code_length=length, code_embed_dim=embed_dim, allow_lossy=True)
    kd = fit(kd_task, code_cfg, composer, replace(cfg, epochs=epochs + _KD_EXTRA_EPOCHS))

    def rescored(qr) -> RunReport:
        rows = qr.reconstruction
        scores = dense_task.evaluate(lambda ids: rows[np.asarray(ids)])
        return RunReport(qr.method, qr.config, {"val_accuracy": scores["val_accuracy"]})

    return [
        rescored(evaluate_full(dense)),
        RunReport(f"kd({alphabet}x{length},{composer})", kd_config(kd.table, kd.book, embed_dim),
                  {"val_accuracy": kd.evaluate()["val_accuracy"]}),
        rescored(evaluate_pq(dense, subspaces, centroids, np.random.default_rng(seed + 3))),
        rescored(evaluate_scalar(dense, scalar_bits)),
    ]
