"""Flat key=value run configuration.

One setting per line, ``key = value``; blank lines and ``#`` comments are
ignored.  Unknown keys and non-finite numbers are rejected; every key has a
default, so an empty file is a valid configuration.  ``describe_defaults()``
renders the key table that ``codepress fit-codes --help-config`` prints.

A key that sets a dataclass field names its ``(class, field)``, and each
builder makes its class from the keys that name it.  The training, schedule
and guidance keys take their field's own default; the data and code-shape
keys keep their own (``allow_lossy`` is on in a config, off in ``CodeConfig``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

from .codes import CodeConfig
from .composer import DEFAULT_HIDDEN_WIDTH
from .guidance import GuidanceConfig
from .training import TempSchedule, TrainConfig


@dataclass(frozen=True)
class _Key:
    default: object
    help: str
    sets: tuple[type, str] | None = None  # the (class, field) the key sets


def _field(cls: type, name: str, help: str) -> _Key:
    """A key that sets ``cls.name`` and takes that field's own default."""
    return _Key(next(f.default for f in fields(cls) if f.name == name), help, (cls, name))


_train = partial(_field, TrainConfig)
_schedule = partial(_field, TempSchedule)
_guidance = partial(_field, GuidanceConfig)


DEFAULTS: dict[str, _Key] = {
    # data
    "embeddings_path": _Key("", "text embedding file to load as targets; empty -> synthetic"),
    "vocab_size": _Key(1000, "symbol count for synthetic targets", (CodeConfig, "vocab_size")),
    "embed_dim": _Key(32, "embedding width d of the targets"),
    "synthetic_clusters": _Key(20, "cluster count for synthetic targets"),
    "synthetic_spread": _Key(0.1, "within-cluster noise scale for synthetic targets"),
    "data_seed": _Key(0, "seed for synthetic target generation"),
    "val_fraction": _Key(0.0, "fraction of symbols held out of training (0 = validate on all rows)"),
    # code shape
    "alphabet_size": _Key(16, "K: digit alphabet size", (CodeConfig, "alphabet_size")),
    "code_length": _Key(4, "D: digits per code", (CodeConfig, "code_length")),
    "digit_dim": _Key(16, "d': width of each digit vector", (CodeConfig, "code_embed_dim")),
    "allow_lossy": _Key(True, "permit K^D < vocab (colliding codes)", (CodeConfig, "allow_lossy")),
    # composer
    "composer": _Key("linear-sum", "linear-sum | linear-hidden | lstm"),
    "hidden_width": _Key(DEFAULT_HIDDEN_WIDTH, "hidden units for the linear-hidden composer"),
    "tie_output_gate": _Key(False, "lstm only: reuse the t-gate weights for the o-gate"),
    # optimization
    "epochs": _train("epochs", "passes over the training split"),
    "batch_size": _train("batch_size", "minibatch size"),
    "learning_rate": _train("learning_rate", "step size"),
    "grad_clip": _train("grad_clip", "global gradient-norm cap (0 disables)"),
    "seed": _train("seed", "training seed (init, shuffling, masks)"),
    "use_straight_through": _train(
        "use_straight_through", "discretize forward passes during training"
    ),
    # temperature schedule
    "tau_init": _schedule("tau_init", "starting softmax temperature"),
    "tau_min": _schedule("tau_min", "final softmax temperature"),
    "tau_horizon": _schedule("horizon", "step reaching tau_min; 0 -> half the total steps"),
    # entropy regularization
    "entropy_weight": _train("entropy_weight", "weight on the relaxed-code entropy penalty"),
    "entropy_ramp_fraction": _train(
        "entropy_ramp_fraction", "fraction of steps to ramp the entropy weight in"
    ),
    # guidance
    "guidance_mode": _guidance("mode", "none | odg | pdg"),
    "keep_prob": _guidance("keep_prob", "odg: Bernoulli keep probability for the mixing mask"),
    "match_weight": _guidance("match_weight", "odg: weight of the match penalty (ramped in)"),
    "embed_weight": _guidance("embed_weight", "pdg: weight on composed-vs-pretrained rows"),
    "logit_weight": _guidance("logit_weight", "pdg: weight on code-logits-vs-encoder agreement"),
    "autoencoder": _guidance("autoencoder", "pdg: include the autoencoder term"),
    "guidance_ramp_fraction": _guidance(
        "ramp_fraction", "odg: fraction of steps to ramp match_weight in"
    ),
    "encoder_hidden": _guidance("encoder_hidden", "pdg: encoder hidden width"),
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str):
    default = DEFAULTS[key].default
    if isinstance(default, bool):
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        if not math.isfinite(value := float(raw)):
            raise ValueError(f"{key}: expected a finite number, got {raw!r}")
        return value
    return raw


def parse_config(path) -> dict:
    """Read a key=value file onto the defaults; unknown keys are an error."""
    settings = {key: spec.default for key, spec in DEFAULTS.items()}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                settings[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return settings


def describe_defaults() -> str:
    width = max(len(k) for k in DEFAULTS)
    lines = []
    for key, spec in DEFAULTS.items():
        lines.append(f"{key.ljust(width)}  {str(spec.default):>12}  {spec.help}")
    return "\n".join(lines)


def _build(cls: type, settings: dict, **nested):
    """``cls`` from the keys that set its fields, plus its ``nested`` configs."""
    values = {spec.sets[1]: settings[key] for key, spec in DEFAULTS.items()
              if spec.sets is not None and spec.sets[0] is cls}
    return cls(**values, **nested)


def build_code_config(settings: dict) -> CodeConfig:
    return _build(CodeConfig, settings)


def build_guidance_config(settings: dict) -> GuidanceConfig:
    return _build(GuidanceConfig, settings)


def build_train_config(settings: dict) -> TrainConfig:
    return _build(TrainConfig, settings, schedule=_build(TempSchedule, settings),
                  guidance=build_guidance_config(settings))
