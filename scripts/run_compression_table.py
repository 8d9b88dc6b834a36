#!/usr/bin/env python3
"""Compression comparison on the synthetic marker-token classification corpus.

Trains a full (uncompressed) embedding model, a coded embedding layer learned
end to end, and re-scores product-quantized and 8-bit scalar-quantized copies
of the full table through its own classifier head.  Prints one table with
storage bits and validation accuracy per method.  Every option is a parameter
of ``codepress.sweeps.compression_comparison`` and takes its default.

Example:
    python3 scripts/run_compression_table.py --alphabet 16 --length 4
"""

import argparse
import inspect

from codepress.composer import ComposerKind
from codepress.reporting import save_reports, text_table
from codepress.sweeps import compression_comparison


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name, param in inspect.signature(compression_comparison).parameters.items():
        choices = [kind.value for kind in ComposerKind] if name == "composer" else None
        ap.add_argument("--" + name.replace("_", "-"), type=type(param.default),
                        default=param.default, choices=choices)
    ap.add_argument("--out", default="", help="also write reports as JSON lines")
    args = vars(ap.parse_args())
    out = args.pop("out")

    reports = compression_comparison(**args)
    if out:
        save_reports(out, reports)
    print(text_table(reports))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
