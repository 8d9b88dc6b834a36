"""Discrete code representation: relaxed logits, hard tables, stats, export.

A symbol's code is a sequence of ``code_length`` digits, each in
``{0 .. alphabet_size - 1}``.  During training codes live as trainable logits
of shape (vocab, code_length, alphabet); at inference they are frozen into a
``CodeTable`` of integer digits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOGIT_INIT_STD = 0.01
LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class CodeConfig:
    """Shape of the code system: vocab size, alphabet, length, embedding width."""

    vocab_size: int
    alphabet_size: int
    code_length: int
    code_embed_dim: int
    allow_lossy: bool = False

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        if self.code_length < 1:
            raise ValueError("code_length must be >= 1")
        if self.code_embed_dim < 1:
            raise ValueError("code_embed_dim must be >= 1")
        if not self.allow_lossy and self.code_space < self.vocab_size:
            raise ValueError(
                f"code space {self.code_space} cannot address {self.vocab_size} symbols; "
                "pass allow_lossy=True for a deliberately colliding configuration"
            )

    @property
    def code_space(self) -> int:
        return self.alphabet_size**self.code_length


def init_logits(cfg: CodeConfig, rng: np.random.Generator) -> Tensor:
    """Near-zero normal logits so initial relaxed codes are near-uniform."""
    data = rng.normal(0.0, LOGIT_INIT_STD, (cfg.vocab_size, cfg.code_length, cfg.alphabet_size))
    return Tensor(data, op="leaf", name="code_logits")


def entropy_regularizer(relaxed: Tensor) -> Tensor:
    """Total entropy -sum p*log(p) of all relaxed rows (0*log 0 counts as 0).

    Zero exactly when every row is one-hot; a uniform row contributes ln(K).
    One op with a hand-written backward.  The log takes ``max(p, LOG_FLOOR)``,
    and below the floor only its own term drops from the gradient: a zero
    entry's gradient is ``-log(LOG_FLOOR)`` times the upstream gradient.  Value
    and gradient round as the composite ``-sum(p * log(p))`` of per-op nodes.
    """
    p = relaxed.data
    if np.any(p < 0):
        raise ValueError("entropy_regularizer: negative entries")
    clipped = np.maximum(p, LOG_FLOOR)
    logp = np.log(clipped)
    out = Tensor((p * logp).sum() * -1.0, (relaxed,), op="entropy")

    def _back(g):
        c = g * -1.0
        relaxed.grad += c * logp
        relaxed.grad += ((c * p) * (p >= LOG_FLOOR)) / clipped

    return ad._attach(out, _back)


@dataclass
class CodeTable:
    """Frozen symbol -> digit-sequence allocation."""

    symbols: list[str]
    codes: np.ndarray  # (vocab, code_length) int64
    alphabet_size: int

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if self.codes.ndim != 2 or self.codes.shape[0] != len(self.symbols):
            raise ValueError("codes must be (len(symbols), code_length)")
        if self.codes.size and (self.codes.min() < 0 or self.codes.max() >= self.alphabet_size):
            raise ValueError(f"digits must lie in [0, {self.alphabet_size})")

    @property
    def vocab_size(self) -> int:
        return len(self.symbols)

    @property
    def code_length(self) -> int:
        return self.codes.shape[1]

    def code_string(self, i: int) -> str:
        return "-".join(str(d) for d in self.codes[i])


def extract_codes(logits: Tensor | np.ndarray, symbols: list[str] | None = None) -> CodeTable:
    """Hard table from logits: per-row argmax, lowest index on ties."""
    values = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if values.ndim != 3:
        raise ValueError(f"expected (vocab, code_length, alphabet) logits, got {values.shape}")
    n, _, k = values.shape
    if symbols is None:
        symbols = [str(i) for i in range(n)]
    return CodeTable(symbols=list(symbols), codes=np.argmax(values, axis=-1), alphabet_size=k)


def save_code_table(table: CodeTable, path) -> None:
    """Text export, one `symbol d1-d2-...-dD` line per symbol under a #kd header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"#kd K={table.alphabet_size} D={table.code_length} N={table.vocab_size}\n"
        )
        for i, sym in enumerate(table.symbols):
            fh.write(f"{sym} {table.code_string(i)}\n")


def _parse_header(path, header: str) -> tuple[int, int, int]:
    """(K, D, N) from a ``#kd K=.. D=.. N=..`` line."""
    if not header.startswith("#kd "):
        raise ValueError(f"{path}: missing #kd header")
    fields = {}
    for part in header[4:].split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"{path}: header field {part!r} is not KEY=VALUE")
        fields[key] = value
    try:
        k, d, n = (int(fields[key]) for key in "KDN")
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc.args[0]}=") from None
    except ValueError:
        raise ValueError(f"{path}: header K, D and N must be integers") from None
    if k < 1 or d < 1 or n < 0:
        raise ValueError(f"{path}: invalid header K={k} D={d} N={n}")
    return k, d, n


def load_code_table(path) -> CodeTable:
    """Read a ``codes.txt``; a malformed file raises a ValueError that names
    the file, and the line for a bad body line."""
    symbols, codes = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            k, d, n = _parse_header(path, fh.readline().strip())
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                sym, _, digits = line.partition(" ")
                parts = digits.split("-")
                if len(parts) != d:
                    raise ValueError(f"{path}:{lineno}: expected {d} digits, got {len(parts)}")
                try:
                    row = [int(p) for p in parts]
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: non-integer digit in {digits!r}") from None
                if not all(0 <= x < k for x in row):
                    raise ValueError(f"{path}:{lineno}: digits must lie in [0, {k})")
                symbols.append(sym)
                codes.append(row)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    if len(symbols) != n:
        raise ValueError(f"{path}: header says N={n} but found {len(symbols)} rows")
    return CodeTable(symbols=symbols, codes=np.array(codes, dtype=np.int64).reshape(n, d),
                     alphabet_size=k)


@dataclass(frozen=True)
class CodeSpaceStats:
    unique_codes: int
    utilization: float
    collisions: int


def code_space_stats(table: CodeTable) -> CodeSpaceStats:
    """Occupancy of the table's K^D code space: unique codes, fill rate,
    collision count."""
    unique = len({tuple(row) for row in table.codes})
    space = table.alphabet_size**table.code_length
    return CodeSpaceStats(
        unique_codes=unique,
        utilization=unique / space,
        collisions=table.vocab_size - unique,
    )


def code_groups(table: CodeTable) -> dict[tuple[int, ...], list[int]]:
    """Symbol indices grouped by identical full code, insertion-ordered."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(table.codes):
        groups.setdefault(tuple(int(d) for d in row), []).append(i)
    return groups
