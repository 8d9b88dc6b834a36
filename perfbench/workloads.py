"""The benchmark's workloads.

Each workload builds its inputs from the workload seed with the library's own
generators and fixes everything else: code shape, composer, guidance, batch,
optimizer and the training budget.  The training seed is a constant, so the
program receives only the generated inputs and a rerun with the same
workload seed must reproduce ``best_val_loss`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from codepress import datasets
from codepress.codes import CodeConfig
from codepress.guidance import GuidanceConfig
from codepress.tasks import ClassificationTask, ReconstructionTask
from codepress.training import TrainConfig

TRAIN_SEED = 0
HEAD_SEED = 0  # initial weights of the classification head
# Code shape of every workload: K = D = d' = 32, and d = 32 for the targets.
ALPHABET_SIZE = CODE_LENGTH = DIGIT_DIM = EMBED_DIM = 32


@dataclass
class Inputs:
    """Everything one fit needs, built fresh from the workload seed."""

    task: object
    code_cfg: CodeConfig
    train_cfg: TrainConfig
    composer: str
    fit_kwargs: dict = field(default_factory=dict)


def _reconstruction(n_symbols: int, n_clusters: int, distill: bool):
    def make(rng: np.random.Generator):
        targets, _ = datasets.clustered_embeddings(n_symbols, EMBED_DIM, n_clusters, rng)
        return ReconstructionTask(targets), ({"pretrained": targets} if distill else {})

    return make


def _classification(rng: np.random.Generator):
    corpus = datasets.marker_corpus(rng, vocab_size=2000, n_docs=4000, doc_len=20)
    task = ClassificationTask(corpus, EMBED_DIM, np.random.default_rng(HEAD_SEED), val_fraction=0.2)
    return task, {}


@dataclass(frozen=True)
class Workload:
    name: str
    make_task: Callable[[np.random.Generator], tuple[object, dict]]
    composer: str
    guidance: str
    batch_size: int
    epochs: int
    learning_rate: float

    def build(self, seed: int) -> Inputs:
        task, fit_kwargs = self.make_task(np.random.default_rng(seed))
        code_cfg = CodeConfig(
            vocab_size=task.vocab_size,
            alphabet_size=ALPHABET_SIZE,
            code_length=CODE_LENGTH,
            code_embed_dim=DIGIT_DIM,
            allow_lossy=True,
        )
        train_cfg = TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            optimizer="adam",
            guidance=GuidanceConfig(mode=self.guidance),
            seed=TRAIN_SEED,
        )
        return Inputs(task, code_cfg, train_cfg, self.composer, fit_kwargs)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Budgets give every workload at least 100 training steps, so step_ms_p90 has
# at least ten samples above it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="recon-bigvocab",
            make_task=_reconstruction(10_000, 200, distill=False),
            composer="linear-sum",
            guidance="none",
            batch_size=128,
            epochs=2,
            learning_rate=0.01,
        ),
        Workload(
            name="pdg-lstm",
            make_task=_reconstruction(2000, 100, distill=True),
            composer="lstm",
            guidance="pdg",
            batch_size=128,
            epochs=7,
            learning_rate=0.01,
        ),
        Workload(
            name="classify-odg",
            make_task=_classification,
            composer="linear-hidden",
            guidance="odg",
            batch_size=64,
            epochs=3,
            learning_rate=0.001,
        ),
    )
}
