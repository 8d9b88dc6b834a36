"""Composition functions mapping discrete/relaxed codes to embedding vectors.

Three families:

* ``linear-sum`` — sum the selected digit vectors, optionally project.
* ``linear-hidden`` — one relu hidden layer between the sum and the output.
* ``lstm`` — a recurrence over the code's digit positions; hidden width is
  tied to the digit-vector width, hidden states are summed then projected.

A ``CodeBook`` owns one (code_length, alphabet, width) digit-vector tensor,
whose block j holds code position j's digit vectors, plus whatever extra
parameters the chosen family needs.  Flattened to (code_length * alphabet,
width) it is the paper's ``C``: a batch of selection rows reshaped to
(batch, code_length * alphabet) is ``B``, and the linear-sum composition is
the single product ``B @ C``.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codes import CodeTable

ROW_SUM_TOL = 1e-6
DEFAULT_HIDDEN_WIDTH = 300

_MAGIC = b"KDCB"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIIIII")


class ComposerKind(str, enum.Enum):
    LINEAR = "linear-sum"
    HIDDEN = "linear-hidden"
    LSTM = "lstm"


_KIND_WIRE = {ComposerKind.LINEAR: 1, ComposerKind.HIDDEN: 2, ComposerKind.LSTM: 3}
_WIRE_KIND = {v: k for k, v in _KIND_WIRE.items()}


@dataclass
class CodeBook:
    """Digit-vector tensor plus the parameters of one composition family."""

    kind: ComposerKind
    table: Tensor  # (code_length, alphabet, digit_dim); block j is position j
    projection: Tensor | None = None  # (embed_dim, digit_dim), applied as s @ P.T
    extras: dict[str, Tensor] = field(default_factory=dict)
    hidden_width: int = 0
    tie_output_gate: bool = False

    def __post_init__(self):
        if self.table.data.ndim != 3 or self.table.data.shape[0] < 1:
            raise ValueError(
                "CodeBook needs a (code_length, alphabet, digit_dim) digit-vector table, "
                f"got shape {self.table.data.shape}"
            )

    @property
    def code_length(self) -> int:
        return self.table.data.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.table.data.shape[1]

    @property
    def digit_dim(self) -> int:
        return self.table.data.shape[2]

    @property
    def tables(self) -> list[Tensor]:
        """Read-only (alphabet, digit_dim) views of each position's block, for
        callers that read the digit vectors per position."""
        views = []
        for j, block in enumerate(self.table.data):
            block.flags.writeable = False
            views.append(Tensor(block, name=f"table_{j}"))
        return views

    @property
    def embed_dim(self) -> int:
        if self.kind is ComposerKind.HIDDEN:
            return self.extras["w_out"].data.shape[1]
        if self.projection is not None:
            return self.projection.data.shape[0]
        return self.digit_dim

    def parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor, keyed for optimizers and export order."""
        params = {"table": self.table}
        if self.projection is not None:
            params["projection"] = self.projection
        params.update(self.extras)
        return params

    def extra_param_count(self) -> int:
        """Parameters beyond the digit-vector tensor (projection + family extras)."""
        n = sum(t.data.size for t in self.extras.values())
        if self.projection is not None:
            n += self.projection.data.size
        return n


def _uniform(rng: np.random.Generator, shape, scale: float, name: str) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, shape), op="leaf", name=name)


def _zeros(shape, name: str) -> Tensor:
    return Tensor(np.zeros(shape), op="leaf", name=name)


def init_codebook(
    alphabet_size: int,
    code_length: int,
    digit_dim: int,
    embed_dim: int,
    kind: ComposerKind | str,
    rng: np.random.Generator,
    hidden_width: int = DEFAULT_HIDDEN_WIDTH,
    tie_output_gate: bool = False,
) -> CodeBook:
    """Fresh CodeBook: weights uniform in [-1/sqrt(digit_dim), +], zero biases.

    The projection matrix is only materialized when embed_dim differs from
    digit_dim (identity otherwise); the hidden family always projects through
    its own output layer.
    """
    kind = ComposerKind(kind)
    scale = 1.0 / np.sqrt(digit_dim)
    table = _uniform(rng, (code_length, alphabet_size, digit_dim), scale, "table")
    projection = None
    extras: dict[str, Tensor] = {}
    if kind is ComposerKind.HIDDEN:
        h = hidden_width
        extras["w_hidden"] = _uniform(rng, (digit_dim, h), scale, "w_hidden")
        extras["b_hidden"] = _zeros((h,), "b_hidden")
        extras["w_out"] = _uniform(rng, (h, embed_dim), scale, "w_out")
        extras["b_out"] = _zeros((embed_dim,), "b_out")
    else:
        if kind is ComposerKind.LSTM:
            gates = ["t", "i", "m"] if tie_output_gate else ["t", "i", "o", "m"]
            for g in gates:
                extras[f"u_{g}"] = _uniform(rng, (digit_dim, digit_dim), scale, f"u_{g}")
                extras[f"b_{g}"] = _zeros((digit_dim,), f"b_{g}")
        if embed_dim != digit_dim:
            projection = _uniform(rng, (embed_dim, digit_dim), scale, "projection")
        hidden_width = 0
    return CodeBook(
        kind=kind,
        table=table,
        projection=projection,
        extras=extras,
        hidden_width=hidden_width if kind is ComposerKind.HIDDEN else 0,
        tie_output_gate=tie_output_gate and kind is ComposerKind.LSTM,
    )


def _check_selection(sel: Tensor, book: CodeBook) -> None:
    if sel.data.ndim != 3:
        raise ValueError(f"selection must be (batch, code_length, alphabet), got {sel.data.shape}")
    _, d, k = sel.data.shape
    if d != book.code_length or k != book.alphabet_size:
        raise ValueError(
            f"selection shape {sel.data.shape[1:]} does not match codebook "
            f"({book.code_length}, {book.alphabet_size})"
        )
    if np.any(np.abs(sel.data.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
        raise ValueError(f"selection rows must sum to 1 within {ROW_SUM_TOL}")


def _flat_table(book: CodeBook) -> Tensor:
    """The digit-vector tensor as the (code_length * alphabet, digit_dim) ``C``."""
    return ad.reshape(book.table, (-1, book.digit_dim))


def _head(total: Tensor, book: CodeBook) -> Tensor:
    """Map summed digit vectors (batch, digit_dim) to embeddings."""
    if book.kind is ComposerKind.HIDDEN:
        hidden = ad.relu(ad.add(total @ book.extras["w_hidden"], book.extras["b_hidden"]))
        return ad.add(hidden @ book.extras["w_out"], book.extras["b_out"])
    if book.projection is not None:
        total = total @ book.projection.T
    return total


def _lstm_combine(contribs: list[Tensor], book: CodeBook) -> Tensor:
    ex = book.extras
    u_o, b_o = (ex["u_t"], ex["b_t"]) if book.tie_output_gate else (ex["u_o"], ex["b_o"])
    batch = contribs[0].data.shape[0]
    h = _zeros((batch, book.digit_dim), "lstm_h0")
    m = _zeros((batch, book.digit_dim), "lstm_m0")
    h_sum = None
    for e in contribs:
        t_gate = ad.sigmoid(ad.add(e + h @ ex["u_t"], ex["b_t"]))
        i_gate = ad.sigmoid(ad.add(e + h @ ex["u_i"], ex["b_i"]))
        o_gate = ad.sigmoid(ad.add(e + h @ u_o, b_o))
        candidate = ad.tanh(ad.add(e + h @ ex["u_m"], ex["b_m"]))
        m = t_gate * m + i_gate * candidate
        h = o_gate * ad.tanh(m)
        h_sum = h if h_sum is None else h_sum + h
    return _head(h_sum, book)


def compose_relaxed(selection: Tensor, book: CodeBook) -> Tensor:
    """Batch composition from (batch, code_length, alphabet) selection rows.

    Rows may be exact one-hots or relaxed distributions; either way each row
    must sum to 1.  Differentiable w.r.t. both the selection and the book.
    The sum families compute ``B @ C`` in one product; lstm feeds position j's
    ``selection[:, j] @ C[j*K:(j+1)*K]`` to its recurrence.
    """
    _check_selection(selection, book)
    batch, d, k = selection.data.shape
    flat = _flat_table(book)
    if book.kind is ComposerKind.LSTM:
        contribs = [
            ad.select(selection, j) @ ad.gather_rows(flat, np.arange(j * k, (j + 1) * k))
            for j in range(d)
        ]
        return _lstm_combine(contribs, book)
    return _head(ad.reshape(selection, (batch, d * k)) @ flat, book)


def compose_digits(digits: np.ndarray, book: CodeBook) -> Tensor:
    """Compose embedding rows for raw digit rows (batch, code_length).

    Gathers row ``j * alphabet + digit`` of ``C`` per position and sums the
    rows in position order.  The one-hot ``B @ C`` of compose_relaxed adds the
    same terms, but in the BLAS's order, so the two can differ by one
    rounding per entry.
    """
    digits = np.asarray(digits, dtype=np.int64)
    if digits.ndim != 2 or digits.shape[1] != book.code_length:
        raise ValueError(f"digits must be (batch, {book.code_length}), got {digits.shape}")
    if digits.size and (digits.min() < 0 or digits.max() >= book.alphabet_size):
        raise ValueError(f"digits must lie in [0, {book.alphabet_size})")
    flat = _flat_table(book)
    rows = digits + book.alphabet_size * np.arange(book.code_length)
    contribs = [ad.gather_rows(flat, rows[:, j]) for j in range(book.code_length)]
    if book.kind is ComposerKind.LSTM:
        return _lstm_combine(contribs, book)
    total = contribs[0]
    for c in contribs[1:]:
        total = total + c
    return _head(total, book)


def compose_batch(table: CodeTable, book: CodeBook) -> Tensor:
    """Compose every symbol of a hard code table; row i is symbol i."""
    if table.code_length != book.code_length or table.alphabet_size != book.alphabet_size:
        raise ValueError("code table and codebook disagree on alphabet/code length")
    return compose_digits(table.codes, book)


def build_factorization(table: CodeTable, book: CodeBook) -> tuple[np.ndarray, np.ndarray]:
    """Linear-sum composition as a binary sparse factorization.

    Returns (B, C): B is (vocab, alphabet*code_length) with exactly
    ``code_length`` ones per row (one per block of ``alphabet`` columns), C
    is the digit-vector tensor flattened to (alphabet*code_length, digit_dim),
    and B @ C reproduces compose_batch.
    """
    if book.kind is not ComposerKind.LINEAR or book.projection is not None:
        raise ValueError("factorization requires the linear-sum family with identity projection")
    n, d, k = table.vocab_size, table.code_length, table.alphabet_size
    b = np.zeros((n, k * d))
    b[np.arange(n)[:, None], table.codes + k * np.arange(d)] = 1.0
    return b, book.table.data.reshape(k * d, -1).copy()


def factorization_equivalence_check(table: CodeTable, book: CodeBook) -> float:
    """Max |compose_batch - B @ C| over all entries."""
    b, c = build_factorization(table, book)
    composed = compose_batch(table, book).data
    return float(np.max(np.abs(composed - b @ c))) if composed.size else 0.0


def _extra_order(kind: ComposerKind, tied: bool) -> list[str]:
    if kind is ComposerKind.HIDDEN:
        return ["w_hidden", "b_hidden", "w_out", "b_out"]
    if kind is ComposerKind.LSTM:
        gates = ["t", "i", "m"] if tied else ["t", "i", "o", "m"]
        return [f"u_{g}" for g in gates] + [f"b_{g}" for g in gates]
    return []


def save_codebook(book: CodeBook, path) -> None:
    """Binary export: header (K, D, d', d, kind, hidden width, flags), then
    row-major float32 payloads — the (D, K, d') digit-vector tensor, projection
    if any, family extras in the order given by the format doc."""
    flags = (1 if book.projection is not None else 0) | (2 if book.tie_output_gate else 0)
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        book.alphabet_size,
        book.code_length,
        book.digit_dim,
        book.embed_dim,
        _KIND_WIRE[book.kind],
        book.hidden_width,
        flags,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        payload = [book.table] + ([book.projection] if book.projection is not None else [])
        payload += [book.extras[name] for name in _extra_order(book.kind, book.tie_output_gate)]
        for t in payload:
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def _extra_shapes(kind: ComposerKind, tied: bool, dprime: int, hidden: int, out_dim: int):
    """Shape of each family extra, in file order."""
    if kind is ComposerKind.HIDDEN:
        return {
            "w_hidden": (dprime, hidden),
            "b_hidden": (hidden,),
            "w_out": (hidden, out_dim),
            "b_out": (out_dim,),
        }
    return {
        name: (dprime, dprime) if name.startswith("u_") else (dprime,)
        for name in _extra_order(kind, tied)
    }


def load_codebook(path) -> CodeBook:
    """Read a ``codebook.bin``; a malformed file raises a ValueError naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header ({len(raw)} of {_HEADER.size} bytes)")
    magic, version, k, d, dprime, out_dim, kind_code, hidden, flags = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a codebook file")
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if kind_code not in _WIRE_KIND:
        raise ValueError(f"{path}: unknown composer code {kind_code}")
    if min(k, d, dprime) < 1:
        raise ValueError(f"{path}: empty code shape K={k} D={d} d'={dprime}")
    kind = _WIRE_KIND[kind_code]
    has_proj, tied = bool(flags & 1), bool(flags & 2)
    shapes = {"table": (d, k, dprime)} | ({"projection": (out_dim, dprime)} if has_proj else {})
    shapes.update(_extra_shapes(kind, tied, dprime, hidden, out_dim))
    expected = 4 * sum(math.prod(s) for s in shapes.values())
    payload = len(raw) - _HEADER.size
    if payload < expected:
        raise ValueError(f"{path}: truncated payload ({payload} of {expected} bytes)")
    if payload > expected:
        raise ValueError(f"{path}: trailing bytes after codebook payload")
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite value in the payload")
    params, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = Tensor(values[offset : offset + size].reshape(shape), op="leaf", name=name)
        offset += size
    return CodeBook(
        kind=kind,
        table=params.pop("table"),
        projection=params.pop("projection", None),
        extras=params,
        hidden_width=hidden,
        tie_output_gate=tied,
    )
