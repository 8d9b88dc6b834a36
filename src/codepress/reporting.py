"""Run reports: one record per trained/evaluated configuration.

A report holds the method, its configuration echo, the storage figures the
echo implies, every measured number once under ``metrics`` (reconstruction
error, neighborhood overlap, accuracies), and the wall time.  Storage figures
are always recomputed from the configuration echo through the accounting
module — never copied from the caller — so a corrupted config and its report
disagree loudly (``verify_accounting``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import accounting

FAMILIES = ("kd", "full", "lowrank", "pq", "scalar")


@dataclass
class RunReport:
    method: str
    config: dict
    params_count: int
    bits: int
    compression_ratio: float  # dense float32 bits / this method's bits
    metrics: dict = field(default_factory=dict)
    wall_time_s: float | None = None


def accounting_for(config: dict) -> tuple[int, int, float]:
    """(params, bits, compression ratio) implied by a config echo.

    An echo without a key its family needs raises a ``ValueError`` naming it.
    """
    family = config.get("family")
    if family not in FAMILIES:
        raise ValueError(f"config echo needs a family in {FAMILIES}, got {family!r}")

    def need(key: str) -> int:
        if key not in config:
            raise ValueError(f"{family} config echo has no '{key}'")
        return int(config[key])

    n, d = need("vocab_size"), need("embed_dim")
    full_bits = accounting.dense_layer_bits(n, d)
    if family == "kd":
        k, length = need("alphabet_size"), need("code_length")
        dprime, extra = need("digit_dim"), need("extra_params")
        params = accounting.composer_params(k, length, dprime, extra)
        bits = accounting.coded_layer_bits(n, k, length, dprime, extra)
    elif family == "full":
        params, bits = n * d, full_bits
    elif family == "lowrank":
        rank = need("rank")
        params = n * rank + rank * d
        bits = accounting.low_rank_bits(n, d, rank)
    elif family == "pq":
        m, k = need("subspaces"), need("n_centroids")
        params = k * d
        bits = accounting.pq_bits(n, d, m, k)
    else:  # scalar
        params = n * d
        bits = accounting.scalar_bits(n, d, need("bits_per_value"))
    return params, bits, full_bits / bits


def kd_config(table, book, embed_dim: int) -> dict:
    """Config echo of a coded layer, read from its code table and codebook."""
    return {
        "family": "kd",
        "vocab_size": table.vocab_size,
        "embed_dim": embed_dim,
        "alphabet_size": table.alphabet_size,
        "code_length": table.code_length,
        "digit_dim": book.digit_dim,
        "extra_params": book.extra_param_count(),
        "composer": book.kind.value,
    }


def build_report(
    method: str,
    config: dict,
    metrics: dict | None = None,
    wall_time_s: float | None = None,
) -> RunReport:
    params, bits, ratio = accounting_for(config)
    return RunReport(
        method=method,
        config=dict(config),
        params_count=params,
        bits=bits,
        compression_ratio=ratio,
        metrics=dict(metrics or {}),
        wall_time_s=wall_time_s,
    )


def verify_accounting(report: RunReport) -> None:
    """Recompute storage figures from the config echo; raise on any mismatch."""
    params, bits, ratio = accounting_for(report.config)
    if params != report.params_count:
        raise ValueError(
            f"params mismatch: report says {report.params_count}, config implies {params}"
        )
    if bits != report.bits:
        raise ValueError(f"bits mismatch: report says {report.bits}, config implies {bits}")
    if ratio != report.compression_ratio:
        raise ValueError(
            f"ratio mismatch: report says {report.compression_ratio}, config implies {ratio}"
        )


def save_reports(path, reports: list[RunReport]) -> None:
    """Line-delimited JSON, one report per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")


# the types each report field may hold after JSON parsing; bool, a subclass
# of int, fits none of them
_FIELD_TYPES = {
    "method": (str,),
    "config": (dict,),
    "metrics": (dict,),
    "params_count": (int,),
    "bits": (int,),
    "compression_ratio": (int, float),
    "wall_time_s": (int, float, type(None)),
}


def _report_of(record) -> RunReport:
    report = RunReport(**record)
    for name, types in _FIELD_TYPES.items():
        value = getattr(report, name)
        if isinstance(value, bool) or not isinstance(value, types):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"'{name}' must be {names}, got {value!r}")
    return report


def load_reports(path) -> list[RunReport]:
    """Read ``save_reports`` output.  A line that is not UTF-8, not JSON, not
    a report's fields or not their JSON types raises a ``ValueError`` naming
    the file and line."""
    reports = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    reports.append(_report_of(json.loads(line)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return reports


MISSING = "—"  # em dash for absent values


def _fmt(value, kind: str) -> str:
    if value is None:
        return MISSING
    if kind == "int":
        return f"{int(value):,}"
    if kind == "ratio":
        return f"{value:.2f}x"
    return f"{value:.4f}"


def text_table(reports: list[RunReport]) -> str:
    """Aligned human-readable table over all reports; absent metrics, and the
    storage of a failed run, show a dash."""
    if not reports:
        raise ValueError("no reports to render")
    metric_keys = sorted({k for r in reports for k in r.metrics})
    header = ["method", "params", "bits", "ratio", *metric_keys]
    rows = [header]
    for r in reports:
        # a failed run (its echo carries the error) has no storage to show
        failed = "error" in r.config
        row = [
            r.method,
            _fmt(None if failed else r.params_count, "int"),
            _fmt(None if failed else r.bits, "int"),
            _fmt(None if failed else r.compression_ratio, "ratio"),
        ]
        row.extend(_fmt(r.metrics.get(k), "float") for k in metric_keys)
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        cells = [
            row[0].ljust(widths[0]),
            *[row[c].rjust(widths[c]) for c in range(1, len(row))],
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
