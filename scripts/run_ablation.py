#!/usr/bin/env python3
"""Run the optimization-trick ladder on the reconstruction problem of a config.

Six rows, cumulative wiring changes: plain continuous relaxation, then
straight-through discretization, then the temperature schedule, then entropy
regularization, then distillation guidance without and with its autoencoder
term.  Each row is ``codepress fit-codes`` of the config (a flat key=value
file, see ``codepress fit-codes --help-config``) with that rung's overrides.
All rows share the config's seed, so differences come from the wiring alone.

Example:
    python3 scripts/run_ablation.py ablation.cfg --out ablation.jsonl
"""

import argparse

from codepress.configfile import parse_config
from codepress.reporting import save_reports, text_table
from codepress.sweeps import run_ablation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="key=value config file")
    ap.add_argument("--out", default="", help="also write reports as JSON lines")
    args = ap.parse_args()

    reports = run_ablation(parse_config(args.config))
    if args.out:
        save_reports(args.out, reports)
    print(text_table(reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
