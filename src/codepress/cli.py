"""Command-line front end.

Subcommands:

* ``fit-codes``  — train codes + composer from a config file; writes the code
  table (text), the codebook (binary) and per-epoch metrics (JSON lines).
  Outputs are bit-reproducible for a fixed config.
* ``eval``       — score saved artifacts against an embedding file that lists
  the code table's symbols in order.
* ``baseline``   — run a comparison method on an embedding file.
* ``sweep``      — repeat fit-codes along one config axis.
* ``probe-codes`` — print symbols grouped by their learned code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import (
    evaluate_full,
    evaluate_low_rank,
    evaluate_pq,
    evaluate_scalar,
    random_codes,
)
from .codes import CodeConfig, CodeTable, code_groups, load_code_table, save_code_table
from .composer import compose_digits, load_codebook, save_codebook
from .configfile import describe_defaults, parse_config
from .datasets import load_embeddings
from .metrics import code_semantics_probe, nn_overlap
from .reporting import build_report, kd_config, save_reports, text_table
from .sweeps import SWEEP_AXES, run_one, sweep
from .tasks import ReconstructionTask
from .training import TrainConfig, fit


def cmd_fit_codes(args) -> int:
    if args.help_config:
        print(describe_defaults())
        return 0
    if args.config is None:
        print("error: a config file is required (or --help-config)", file=sys.stderr)
        return 1
    report, result = run_one(parse_config(args.config))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_code_table(result.table, out / "codes.txt")
    save_codebook(result.book, out / "codebook.bin")
    with open(out / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for record in result.history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        f"fit-codes: vocab={result.table.vocab_size} "
        f"K={result.table.alphabet_size} D={result.table.code_length} "
        f"best_val={result.best_val:.6f} "
        f"reconstruction_mse={report.metrics['reconstruction_mse']:.6f} -> {out}"
    )
    if result.aborted:
        print(f"fit-codes: aborted in epoch {len(result.history)} on a non-finite value; "
              f"kept the checkpoint of epoch {result.best_epoch}", file=sys.stderr)
    return 1 if result.aborted else 0


def _emit(reports, out: str) -> int:
    """Write the reports as JSON lines if asked, and print their table."""
    if out:
        save_reports(out, reports)
    print(text_table(reports))
    return 0


def _load_table_embeddings(path, table: CodeTable) -> np.ndarray:
    """The embedding matrix of ``path``, whose rows must list the code table's
    symbols in its order; a row that does not raises a ValueError naming it."""
    symbols, matrix = load_embeddings(path)
    if len(symbols) != table.vocab_size:
        raise ValueError(f"{path}: {len(symbols)} rows, but the code table has "
                         f"{table.vocab_size} symbols")
    for row, (token, symbol) in enumerate(zip(symbols, table.symbols), start=1):
        if token != symbol:
            raise ValueError(f"{path}: row {row} is {token!r}, but the code table's "
                             f"symbol {row} is {symbol!r}")
    return matrix


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"--k must be >= 0 (0 skips the neighborhood overlap), got {k}")


def _emit_scored(method: str, config: dict, targets: np.ndarray, rows: np.ndarray,
                 args, start: float) -> int:
    """Score ``rows`` through the reconstruction task of ``targets``, add the
    neighborhood overlap when ``--k`` is positive, and emit one report."""
    metrics = ReconstructionTask(targets).evaluate(lambda ids: rows[ids])
    if args.k > 0:
        metrics["nn_overlap"] = nn_overlap(targets, rows, args.k)
    report = build_report(method, config, metrics, wall_time_s=time.perf_counter() - start)
    return _emit([report], args.out)


def cmd_eval(args) -> int:
    start = time.perf_counter()
    _check_k(args.k)
    table = load_code_table(args.codes)
    book = load_codebook(args.codebook)
    if table.code_length != book.code_length or table.alphabet_size != book.alphabet_size:
        raise ValueError(
            f"{args.codes} has K={table.alphabet_size} D={table.code_length}, but "
            f"{args.codebook} has K={book.alphabet_size} D={book.code_length}")
    targets = _load_table_embeddings(args.embeddings, table)
    rows = compose_digits(table.codes, book).data
    return _emit_scored(f"kd({book.kind.value})", kd_config(table, book, targets.shape[1]),
                        targets, rows, args, start)


def cmd_baseline(args) -> int:
    """Every method yields its rows, scored through the reconstruction task."""
    start = time.perf_counter()
    _check_k(args.k)
    symbols, targets = load_embeddings(args.embeddings)
    if args.method == "full":
        method, rows, config = evaluate_full(targets)
    elif args.method == "lowrank":
        method, rows, config = evaluate_low_rank(targets, args.rank)
    elif args.method == "pq":
        method, rows, config = evaluate_pq(targets, args.subspaces, args.centroids,
                                           np.random.default_rng(args.seed))
    elif args.method == "scalar":
        method, rows, config = evaluate_scalar(targets, args.bits)
    else:  # codes under a trained linear-sum composer: random ones frozen, or learned
        n, d = targets.shape
        frozen = None
        if args.method == "random":
            frozen = random_codes(n, args.alphabet, args.length, args.seed, symbols=symbols)
        result = fit(ReconstructionTask(targets),
                     CodeConfig(n, args.alphabet, args.length, d, allow_lossy=True),
                     "linear-sum", TrainConfig(epochs=args.epochs, seed=args.seed),
                     frozen_table=frozen, symbols=symbols)
        method, rows, config = (f"{args.method}-codes", result.embedding_matrix(),
                                kd_config(result.table, result.book, d))
    return _emit_scored(method, config, targets, rows, args, start)


def cmd_sweep(args) -> int:
    settings = parse_config(args.config)
    values = [
        raw.strip() if args.axis == "composer" else int(raw) for raw in args.values.split(",")
    ]
    reports = sweep(args.axis, values, settings)
    _emit(reports, args.out)
    failed = [r.config["value"] for r in reports if r.method.endswith(" FAILED")]
    if failed:
        print(f"sweep: {args.axis} failed for {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_probe_codes(args) -> int:
    table = load_code_table(args.codes)
    groups = {table.code_string(ids[0]): ids for ids in code_groups(table).values()}
    listed = [code for code in sorted(groups)
              if not args.collisions_only or len(groups[code]) >= 2]
    limit = args.max_groups if args.max_groups > 0 else len(listed)
    for code in listed[:limit]:
        print(f"{code}: {' '.join(table.symbols[i] for i in groups[code])}")
    if len(listed) > limit:
        print(f"... ({len(listed) - limit} more groups)")
    if args.embeddings:
        matrix = _load_table_embeddings(args.embeddings, table)
        probe = code_semantics_probe(table, matrix, np.random.default_rng(args.seed))
        if probe.available:
            head = (f"intra-code cosine {probe.intra_mean:.4f} over {probe.intra_pairs} pairs; "
                    f"global {probe.global_mean:.4f}")
            if probe.global_se > 0:
                print(f"{head} +/- {probe.global_se:.4f} "
                      f"({probe.excess_in_se_units:.1f} se above global)")
            else:  # every random pair alike: no se to measure the excess in
                print(f"{head} over {probe.global_pairs} random pairs, which have zero spread")
        else:
            print("code semantics probe: N/A (no colliding codes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codepress", description="Learn discrete codes that compress embedding layers."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-codes", help="train codes + composer from a config file")
    p.add_argument("config", nargs="?", help="key=value config file")
    p.add_argument("--out-dir", default="run_out", help="artifact directory")
    p.add_argument("--help-config", action="store_true", help="list config keys and exit")
    p.set_defaults(func=cmd_fit_codes)

    p = sub.add_parser("eval", help="score saved artifacts against an embedding file")
    p.add_argument("--codes", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, default=10, help="neighborhood size for overlap (0 skips)")
    p.add_argument("--out", default="", help="write the report as JSON lines")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="run a comparison method")
    p.add_argument("method", choices=["full", "lowrank", "pq", "scalar", "random", "pretrained"])
    p.add_argument("--embeddings", required=True)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--subspaces", type=int, default=2)
    p.add_argument("--centroids", type=int, default=64)
    p.add_argument("--bits", type=int, default=8)
    p.add_argument("--alphabet", type=int, default=16, help="K for code baselines")
    p.add_argument("--length", type=int, default=4, help="D for code baselines")
    p.add_argument("--epochs", type=int, default=25, help="training epochs for code baselines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=0, help="neighborhood size for overlap (0 skips)")
    p.add_argument("--out", default="", help="write the report as JSON lines")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sweep", help="repeat fit-codes along one config axis")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--out", default="", help="write reports as JSON lines")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("probe-codes", help="print symbols grouped by learned code")
    p.add_argument("--codes", required=True)
    p.add_argument("--embeddings", default="", help="optional embeddings for similarity stats")
    p.add_argument("--max-groups", type=int, default=50)
    p.add_argument("--collisions-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe_codes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
