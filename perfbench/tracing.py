"""Spans and counters for the traced benchmark run.

The library is not modified: while a ``Tracer`` is installed it replaces
public functions with timing wrappers.  ``training.py`` and ``guidance.py``
import several functions by name, so a wrapper replaces every module binding
that refers to the original, not only the defining module's attribute.
Calls made through ``ad.*`` and through ``Adam``/``Trainer``/task methods are
caught at the module or class.

Spans are kept in memory as ``[name, start, end, parent, step]`` and written
out at the end; per-layer metrics and self times are derived from them.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict

import numpy as np

from codepress import autodiff, codes, composer, datasets, guidance, tasks, training
import codepress

MODULES = (autodiff, codes, composer, guidance, training, tasks, datasets, codepress)

# (defining module, function, span name).  Each is a plain timing span.
FUNCTIONS = [
    (autodiff, "global_norm_clip", "autodiff.global_norm_clip"),
    (composer, "compose_relaxed", "composer.compose_relaxed"),
    (composer, "compose_digits", "composer.compose_digits"),
    (codes, "extract_codes", "codes.extract_codes"),
    (codes, "entropy_regularizer", "codes.entropy_regularizer"),
    (guidance, "distillation_loss", "guidance.distillation_loss"),
    (guidance, "autoencoder_loss", "guidance.autoencoder_loss"),
    (guidance, "odg_mix", "guidance.odg_mix"),
    (guidance, "odg_match_penalty", "guidance.odg_match_penalty"),
    (datasets, "clustered_embeddings", "datasets.clustered_embeddings"),
    (datasets, "marker_corpus", "datasets.marker_corpus"),
]
# Differentiable ops whose span also covers their backward closure.
OPS = [
    (autodiff, "softmax_t", "autodiff.softmax_t"),
    (autodiff, "straight_through", "autodiff.straight_through"),
]
# Per-step busy-time metrics and the spans they add up.
STEP_SPANS = {
    "autodiff.gradients.ms": ("autodiff.gradients",),
    "autodiff.global_norm_clip.ms": ("autodiff.global_norm_clip",),
    "autodiff.softmax_t.ms": ("autodiff.softmax_t", "autodiff.softmax_t.backward"),
    "autodiff.straight_through.ms": (
        "autodiff.straight_through", "autodiff.straight_through.backward"),
    "composer.compose_relaxed.ms": ("composer.compose_relaxed",),
    "codes.entropy_regularizer.ms": ("codes.entropy_regularizer",),
    "guidance.distillation_loss.ms": ("guidance.distillation_loss",),
    "guidance.autoencoder_loss.ms": ("guidance.autoencoder_loss",),
    "guidance.odg_mix.ms": ("guidance.odg_mix",),
    "guidance.odg_match_penalty.ms": ("guidance.odg_match_penalty",),
    "training.Adam.step.ms": ("training.Adam.step",),
    "tasks.batch_loss.ms": ("tasks.batch_loss",),
}
METHODS = [
    (training.Adam, "step", "training.Adam.step"),
    (training.Trainer, "__init__", "training.Trainer.init"),
    (training.Trainer, "validate", "training.Trainer.validate"),
    (training.Trainer, "train_epoch", "training.Trainer.train_epoch"),
    (tasks.ReconstructionTask, "train_batches", "tasks.train_batches"),
    (tasks.ReconstructionTask, "batch_loss", "tasks.batch_loss"),
    (tasks.ClassificationTask, "train_batches", "tasks.train_batches"),
    (tasks.ClassificationTask, "batch_loss", "tasks.batch_loss"),
]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, step id]
        self.counts: list[tuple[str, int | None, float]] = []  # (name, step id, value)
        self.step: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_order = None
        self._gc_span: int | None = None

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        # Allocating the span can start a collection, whose callback opens
        # and closes a span of its own: take the index and the start after it.
        span = [name, 0.0, None, parent, self.step]
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span left open inside it."""
        end = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = end
            if top == idx:
                return

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self.step, value))

    # -- wrappers --------------------------------------------------------------

    def _timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _timed_op(self, fn, name):
        timed = self._timed(fn, name)
        backward_name = name + ".backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            back = out._backward
            if back is not None:

                def timed_back():
                    idx = self.open(backward_name)
                    try:
                        back()
                    finally:
                        self.close(idx)

                out._backward = timed_back
            return out

        return wrapper

    def _gradients(self, fn):
        timed = self._timed(fn, "autodiff.gradients")

        @functools.wraps(fn)
        def wrapper(loss, params):
            grads = timed(loss, params)
            order, self._last_order = self._last_order, None
            if order is not None and self.step is not None:
                # backward zero-fills one grad per graph node, then copies the params'
                computed = sum(node.data.nbytes for node in order)
                computed += sum(g.nbytes for g in grads.values())
                self.count("autodiff.graph_nodes", len(order))
                self.count("autodiff.gradients.grad_mb", computed / 2**20)
            return grads

        return wrapper

    def _topo_order(self, fn):
        @functools.wraps(fn)
        def wrapper(root):
            order = fn(root)
            self._last_order = order
            return order

        return wrapper

    def _gather_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(a, indices):
            out = fn(a, indices)
            if self.step is not None and a.op == "leaf":
                self.count("gather.rows", np.unique(np.asarray(indices)).size)
                self.count("gather.table_rows", a.data.shape[0])
            return out

        return wrapper

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_span = self.open(f"gc.gen{info['generation']}")
        elif self._gc_span is not None:
            self.close(self._gc_span)
            self._gc_span = None

    # -- install / remove --------------------------------------------------------

    def _replace_function(self, module, attr, wrapped_of):
        original = getattr(module, attr)
        wrapped = wrapped_of(original)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            self._replace_function(module, attr, lambda fn, name=name: self._timed(fn, name))
        for module, attr, name in OPS:
            self._replace_function(module, attr, lambda fn, name=name: self._timed_op(fn, name))
        self._replace_function(autodiff, "gradients", self._gradients)
        self._replace_function(autodiff, "topo_order", self._topo_order)
        self._replace_function(autodiff, "gather_rows", self._gather_rows)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._timed(original, name))
            self._undo.append((cls, attr, original))
        gc.callbacks.append(self._gc_callback)

    def remove(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per line: spans first, then counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")
            for name, step, value in self.counts:
                fh.write(json.dumps({"count": name, "step": step, "value": value}) + "\n")


def layer_metrics(tracer: Tracer, fit_range: range, infer_range: range,
                  steps: int, epochs: int, passes: int) -> dict[str, float]:
    """Per-layer figures of one traced fit and the inference passes after it.

    ``fit_range`` and ``infer_range`` are span index ranges.  Busy times are
    inclusive span durations in ms, per training step, per epoch, per
    inference pass or per call; self time subtracts the direct children.
    """
    spans = tracer.spans
    duration = {i: (s[2] - s[1]) * 1e3 for i, s in enumerate(spans)}
    child_ms: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_ms[s[3]] += duration[i]

    def busy(names, rng, in_steps=False):
        return sum(duration[i] for i in rng
                   if spans[i][0] in names and (not in_steps or spans[i][4] is not None))

    def per_call(name):
        calls = [duration[i] for i, s in enumerate(spans) if s[0] == name]
        return sum(calls) / len(calls) if calls else 0.0

    def step_count(name):
        values = [v for n, step, v in tracer.counts if n == name and step is not None]
        return sum(values)

    steps, epochs, passes = max(steps, 1), max(epochs, 1), max(passes, 1)
    metrics = {metric: busy(names, fit_range, in_steps=True) / steps
               for metric, names in STEP_SPANS.items()}
    gc_spans = [i for i in fit_range if spans[i][0].startswith("gc.")]
    relaxed_calls = sum(1 for i in fit_range
                        if spans[i][0] == "composer.compose_relaxed" and spans[i][4] is not None)
    epoch_spans = [i for i in fit_range if spans[i][0] == "training.Trainer.train_epoch"]
    table_rows = step_count("gather.table_rows")
    metrics.update({
        "autodiff.gradients.grad_mb": step_count("autodiff.gradients.grad_mb") / steps,
        "autodiff.gradients.useful_frac": (
            step_count("gather.rows") / table_rows if table_rows else 0.0),
        "autodiff.graph_nodes": step_count("autodiff.graph_nodes") / steps,
        "autodiff.gc_pause_ms": sum(duration[i] for i in gc_spans) / steps,
        "autodiff.gc_gen2_collections": sum(1 for i in gc_spans if spans[i][0] == "gc.gen2"),
        "composer.compose_relaxed.calls": relaxed_calls / steps,
        "composer.compose_digits.ms": busy(("composer.compose_digits",), infer_range) / passes,
        "codes.extract_codes.ms": busy(("codes.extract_codes",), fit_range) / epochs,
        "training.Trainer.validate.ms": busy(("training.Trainer.validate",), fit_range) / epochs,
        "training.Trainer.train_epoch.self_ms": sum(
            duration[i] - child_ms[i] for i in epoch_spans) / epochs,
        "training.Trainer.init.ms": per_call("training.Trainer.init"),
        "tasks.train_batches.ms": busy(("tasks.train_batches",), fit_range) / epochs,
        "tasks.batch_rows_mean": step_count("tasks.batch_rows") / steps,
        "datasets.clustered_embeddings.ms": per_call("datasets.clustered_embeddings"),
        "datasets.marker_corpus.ms": per_call("datasets.marker_corpus"),
    })
    return metrics
