"""codepress: compress embedding layers by learning discrete symbol codes.

Each symbol gets a short code — ``code_length`` digits over an alphabet of
``alphabet_size`` — and a small composition network turns codes into embedding
vectors.  Codes and composer are trained end-to-end through a softmax
relaxation with straight-through discretization, so the table of float rows
is replaced by (tiny integer codes + shared composer weights).
"""

from .accounting import code_bits, composer_params, dense_layer_bits, no_collision_probability
from .codes import (
    CodeConfig,
    CodeTable,
    code_space_stats,
    entropy_regularizer,
    extract_codes,
    init_logits,
    load_code_table,
    save_code_table,
)
from .composer import (
    CodeBook,
    ComposerKind,
    compose_digits,
    compose_relaxed,
    factorization_equivalence_check,
    init_codebook,
    load_codebook,
    save_codebook,
)
from .guidance import GuidanceConfig, autoencoder_loss, distillation_loss, init_encoder, odg_mix
from .training import FitResult, TempSchedule, TrainConfig, Trainer, fit
from .baselines import (
    low_rank_fit,
    lloyd_kmeans,
    product_quantize,
    random_codes,
    scalar_quantize,
)
from .datasets import (
    LabeledCorpus,
    clustered_embeddings,
    load_embeddings,
    marker_corpus,
    save_embeddings,
)
from .tasks import ClassificationTask, ReconstructionTask
from .metrics import code_semantics_probe, nn_overlap
from .reporting import RunReport, load_reports, save_reports, text_table
from .sweeps import ablation_variants, run_ablation, sweep

__version__ = "0.1.0"
