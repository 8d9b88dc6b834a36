"""Run reports: one record per trained/evaluated configuration.

A report holds the method, its configuration echo, every measured number once
under ``metrics`` (reconstruction error, neighborhood overlap, accuracies), and
the wall time.  Its storage figures (``params_count``, ``bits``,
``compression_ratio``) are properties of the echo, their one source.
``save_reports`` writes them into every record for readers, and
``load_reports`` rejects a record whose figures and echo disagree.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from . import accounting

FAMILIES = ("kd", "full", "lowrank", "pq", "scalar")


def accounting_for(config: dict) -> tuple[int, int, float]:
    """(params, bits, compression ratio) implied by a config echo: code bits
    plus 32 per float32 value, which are the parameters save scalar's offset
    and scale.  A missing or non-integer size raises a ValueError naming it."""
    family = config.get("family")
    if family not in FAMILIES:
        raise ValueError(f"config echo needs a family in {FAMILIES}, got {family!r}")

    def need(key: str, least: int = 1) -> int:
        if key not in config:
            raise ValueError(f"{family} config echo has no '{key}'")
        value = config[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError(f"{family} config echo's '{key}' must be an integer "
                             f">= {least}, got {value!r}")
        return value

    n, d = need("vocab_size"), need("embed_dim")
    if family == "kd":
        k, length = need("alphabet_size"), need("code_length")
        params = accounting.composer_params(k, length, need("digit_dim"),
                                            need("extra_params", least=0))
        code_bits = accounting.code_bits(n, k, length)
    elif family == "full":
        params, code_bits = n * d, 0
    elif family == "lowrank":  # two factors, (n, rank) and (rank, d)
        rank = need("rank")
        params, code_bits = n * rank + rank * d, 0
    elif family == "pq":  # one centroid index per subspace, and the centroid tables
        m, k = need("subspaces"), need("n_centroids")
        params, code_bits = k * d, accounting.code_bits(n, k, m)
    else:  # scalar: every entry on a grid of bits_per_value bits
        params, code_bits = n * d, n * d * need("bits_per_value")
    bits = code_bits + accounting.FLOAT_BITS * (2 if family == "scalar" else params)
    return params, bits, accounting.dense_layer_bits(n, d) / bits


def _storage(config: dict) -> tuple[int, int, float]:
    """A failed run (its echo carries the error) stores nothing."""
    return (0, 0, 0.0) if "error" in config else accounting_for(config)


@dataclass
class RunReport:
    method: str
    config: dict
    metrics: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    # read-only storage figures; the ratio is dense float32 bits over these bits
    params_count = property(lambda self: _storage(self.config)[0])
    bits = property(lambda self: _storage(self.config)[1])
    compression_ratio = property(lambda self: _storage(self.config)[2])


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


_STORAGE = ("params_count", "bits", "compression_ratio")


def save_reports(path, reports: list[RunReport]) -> None:
    """Line-delimited JSON, one report per line, keys sorted; each record
    carries the storage figures of its echo."""
    # every line is made before the file opens: an echo that raises writes nothing
    lines = [json.dumps({**asdict(r), **dict(zip(_STORAGE, _storage(r.config)))},
                        sort_keys=True) + "\n" for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# the types each record field may hold after JSON parsing; bool, a subclass
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
    if not isinstance(record, dict):
        raise ValueError(f"a report must be a JSON object, got {record!r}")
    report = RunReport(**{k: v for k, v in record.items() if k not in _STORAGE})
    for name, types in _FIELD_TYPES.items():
        if name in _STORAGE and name not in record:
            raise ValueError(f"the storage figure '{name}' is missing")
        value = record[name] if name in _STORAGE else getattr(report, name)
        if isinstance(value, bool) or not isinstance(value, types):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"'{name}' must be {names}, got {value!r}")
    for name, implied in zip(_STORAGE, _storage(report.config)):
        if record[name] != implied:
            raise ValueError(f"'{name}' is {record[name]!r}, but the config echo "
                             f"implies {implied!r}")
    return report


def load_reports(path) -> list[RunReport]:
    """Read ``save_reports`` output.  A line that is not UTF-8, not JSON, not
    a report's fields or not their JSON types, or whose storage figures are
    not those its config echo implies, raises a ``ValueError`` naming the
    file and line."""
    reports = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    reports.append(_report_of(json.loads(line)))
            except (ValueError, TypeError, OverflowError) as exc:
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
