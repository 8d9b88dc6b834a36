"""Run one codepress benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload recon-bigvocab --seed 0 --seconds 30 --trace 0

The run builds the workload's inputs from ``--seed``, sets up several times
(``setup_s`` is the median), trains once at the workload's fixed budget, then
repeats hard-code inference of the whole vocabulary until ``--seconds`` have
passed since training began.  It checks the outputs and prints one line per
metric, then, as its last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same steps with the tracer
installed and reports the per-layer metrics and its own ``fit_s``, which
less the untraced ``fit_s`` is the tracing overhead.

The library is imported from ``src/`` of the checkout that holds this file
(or of ``--root``); the run fails before printing a result when it is not
there.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, so timings do not depend on how many cores the
# BLAS would otherwise take on a shared machine (1 <= nproc everywhere).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 11
WARMUP_PASSES = 30
# Pass times drift by +-15% over seconds on a shared machine, so the median
# needs a window of several seconds even when training leaves none.
MIN_TIMED_S = 8.0
F32_EPS = 2.0**-23
F64_EPS = 2.0**-52


def import_library(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import codepress
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import codepress from {src}: {exc}")
    if src not in Path(codepress.__file__).resolve().parents:
        raise SystemExit(f"perfbench: codepress was imported from outside {src}")


class TimedTask:
    """Task wrapper that times every training step from outside the trainer.

    ``train_batches`` yields through a generator, so a step runs from the
    yield of its batch until the trainer asks for the next one.  A step the
    trainer abandons (an abort) is counted as started but not completed.
    """

    def __init__(self, task, tracer=None):
        self._task = task
        self._tracer = tracer
        self.started = 0
        self.step_s: list[float] = []
        self.step_rows: list[int] = []

    def __getattr__(self, name):
        return getattr(self._task, name)

    def train_batches(self, batch_size, rng):
        tracer = self._tracer
        for batch in self._task.train_batches(batch_size, rng):
            span = None
            if tracer is not None:
                tracer.step = self.started
                tracer.count("tasks.batch_rows", batch.symbols.size)
                span = tracer.open("step")
            self.started += 1
            start = time.perf_counter()
            try:
                yield batch
            finally:
                end = time.perf_counter()
                if span is not None:
                    tracer.close(span)
                    tracer.step = None
            self.step_s.append(end - start)
            self.step_rows.append(int(batch.symbols.size))


def timed_fit(inputs, tracer=None):
    from codepress.training import fit

    task = TimedTask(inputs.task, tracer)
    gc.collect()
    span = tracer.open("fit") if tracer is not None else None
    start = time.perf_counter()
    result = fit(task, inputs.code_cfg, inputs.composer, inputs.train_cfg, **inputs.fit_kwargs)
    fit_s = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return result, task, fit_s


def inference_passes(result, deadline: float) -> tuple[list[float], int, int]:
    """Whole-vocabulary hard-code inference: WARMUP_PASSES untimed passes,
    until the heap holds the garbage that waits between collections, then
    timed passes until ``deadline`` and for at least MIN_TIMED_S.  A pass
    fails if it raises, is not finite or differs from the first.
    Returns (timed pass seconds, passes attempted, passes failed)."""
    ids = np.arange(result.table.vocab_size)
    times, failed, attempts, first = [], 0, 0, None
    gc.collect()
    end = deadline
    while attempts <= WARMUP_PASSES or time.perf_counter() < end:
        if attempts == WARMUP_PASSES:
            end = max(deadline, time.perf_counter() + MIN_TIMED_S)
        attempts += 1
        start = time.perf_counter()
        try:
            rows = result.embed_rows(ids)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        elapsed = time.perf_counter() - start
        if first is None:
            first = rows
        if not np.array_equal(rows, first) or not np.all(np.isfinite(rows)):
            failed += 1
        elif attempts > WARMUP_PASSES:
            times.append(elapsed)
    return times, attempts, failed


def output_checks(result, initial_val: float, workdir: Path) -> dict[str, tuple[bool, str]]:
    """Each check is (ok, detail); a failed check counts as a failed operation."""
    from codepress.codes import load_code_table, save_code_table
    from codepress.composer import (
        ComposerKind,
        compose_digits,
        factorization_equivalence_check,
        load_codebook,
        save_codebook,
    )

    checks = {
        "beats_initial": (
            result.best_val < initial_val and result.best_epoch > 0,
            f"best {result.best_val!r} at epoch {result.best_epoch} vs initial {initial_val!r}",
        )
    }
    save_code_table(result.table, workdir / "codes.txt")
    save_codebook(result.book, workdir / "codebook.bin")
    table = load_code_table(workdir / "codes.txt")
    book = load_codebook(workdir / "codebook.bin")
    checks["roundtrip_codes"] = (
        table.symbols == result.table.symbols and np.array_equal(table.codes, result.table.codes),
        f"{table.vocab_size} codes",
    )
    rows = result.embedding_matrix()
    loaded = compose_digits(table.codes, book).data
    # float32 storage of the weights, accumulated over code_length digit vectors
    tol = 8 * book.code_length * F32_EPS * max(1.0, float(np.abs(rows).max()))
    diff = float(np.abs(rows - loaded).max())
    checks["roundtrip_rows"] = (diff <= tol, f"max diff {diff:.3g} <= {tol:.3g}")
    if result.book.kind is ComposerKind.LINEAR:
        # float64 summation of code_length terms in two orders
        bound = sum(float(np.abs(t.data).max()) for t in result.book.tables)
        tol = 2 * result.book.code_length * F64_EPS * max(1.0, bound)
        err = factorization_equivalence_check(result.table, result.book)
        checks["factorization"] = (err <= tol, f"max |compose - B@C| {err:.3g} <= {tol:.3g}")
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                        help="source tree whose src/ is measured (default: this checkout)")
    parser.add_argument("--record", type=Path, help="also write the full run record as JSON")
    args = parser.parse_args(argv)

    import_library(args.root)
    import machine
    import tracing
    from codepress.training import Trainer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = machine.record(args.root.resolve(), BLAS_THREADS)
    tracer = tracing.Tracer() if args.trace else None
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    attempted = failed = 0
    checks: dict[str, tuple[bool, str]] = {}
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env}
    try:
        if tracer is not None:
            tracer.install()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            inputs = trainer = None
            gc.collect()
            start = time.perf_counter()
            inputs = workload.build(args.seed)
            trainer = Trainer(inputs.task, inputs.code_cfg, inputs.composer, inputs.train_cfg,
                              **inputs.fit_kwargs)
            setup_s.append(time.perf_counter() - start)
        initial_val = trainer.validate()
        trainer = None

        deadline = time.perf_counter() + args.seconds
        first_span = len(tracer.spans) if tracer is not None else 0
        result, steps, fit_s = timed_fit(inputs, tracer)
        # peak through set-up and training; inference garbage awaits the cyclic GC
        # for a time-dependent number of passes, which would make the peak noisy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            fit_range = range(first_span, len(tracer.spans))
        n_steps = len(steps.step_s)
        attempted += steps.started
        failed += steps.started - n_steps  # the step an abort abandoned
        checks["not_aborted"] = (not result.aborted, f"{n_steps} steps completed")

        first_span = len(tracer.spans) if tracer is not None else 0
        pass_s, passes, passes_failed = inference_passes(result, deadline)
        attempted += passes
        failed += passes_failed
        if tracer is not None:
            infer_range = range(first_span, len(tracer.spans))
            tracer.remove()

        attempted += 1  # the artifact round-trip
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            checks.update(output_checks(result, initial_val, Path(workdir)))
        failed += sum(1 for name, (ok, _) in checks.items() if not ok and name != "not_aborted")

        step_ms = [s * 1e3 for s in steps.step_s]
        record.update(
            best_val_loss=result.best_val,
            setup_s=setup_s,
            fit_s=fit_s,
            step_ms=step_ms,
            inference_pass_s=pass_s,
        )
        if tracer is None:
            p50, p90 = np.percentile(step_ms, [50, 90])
            values = {
                "setup_s": statistics.median(setup_s),
                "fit_s": fit_s,
                "train_rows_per_s": sum(steps.step_rows) / sum(steps.step_s),
                "step_ms_p50": float(p50),
                "step_ms_p90": float(p90),
                "infer_rows_per_s": result.table.vocab_size / statistics.median(pass_s),
                "best_val_loss": result.best_val,
                "peak_rss_mb": peak_rss_mb,
            }
            notes = {
                "setup_s": f"median of {len(setup_s)} set-ups",
                "fit_s": f"{len(result.history)} epochs, {n_steps} steps",
                "step_ms_p50": f"n={n_steps}",
                "step_ms_p90": f"n={n_steps}, {sum(m > p90 for m in step_ms)} above",
                "infer_rows_per_s": f"median of {len(pass_s)} timed passes",
            }
        else:
            values = tracing.layer_metrics(tracer, fit_range, infer_range, n_steps,
                                           len(result.history), passes)
            values["trace.fit_s"] = fit_s
            notes = {"trace.fit_s": "overhead: minus fit_s of untraced runs (collect.py)"}
            trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            record["trace_file"] = str(trace_path)
        metrics = with_units(values, "per_layer" if tracer is not None else "end_to_end")
    except Exception:
        traceback.print_exc()
        failed += 1
        attempted = max(attempted, failed)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    error_rate = failed / attempted
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:40s} {value:14.6g} {unit:9s} {note}")
    print(f"{'error_rate':40s} {error_rate:14.6g} {'fraction':9s} {failed} failed / {attempted} attempted")
    for name, (ok, detail) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    correct = failed == 0 and all(ok for ok, _ in checks.values())
    record.update(correct=correct, attempted=attempted, failed=failed, error_rate=error_rate,
                  checks={k: {"ok": ok, "detail": d} for k, (ok, d) in checks.items()},
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def with_units(values: dict[str, float], section: str) -> dict[str, tuple[float, str]]:
    """Attach units from BENCHMARK.json, whose metric list must match exactly."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        raise ValueError(f"{section} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    return {name: (values[name], units[name]) for name in units}


if __name__ == "__main__":
    sys.exit(main())
