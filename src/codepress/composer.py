"""Composition functions mapping discrete/relaxed codes to embedding vectors.

Three families:

* ``linear-sum`` — sum the selected digit vectors, optionally project.
* ``linear-hidden`` — one relu hidden layer between the sum and the output.
* ``lstm`` — a recurrence over the code's digit positions; hidden width is
  tied to the digit-vector width, hidden states are summed then projected.

A ``CodeBook`` owns one (code_length, alphabet, width) digit-vector tensor,
whose block j holds code position j's digit vectors, plus its named extras:
the output projection, if any, and whatever the chosen family needs.
Flattened to (code_length * alphabet, width) the tensor is the paper's
``C``: a batch of selection rows reshaped to (batch, code_length * alphabet)
is ``B``, and the linear-sum composition is the single product ``B @ C``.
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
    extras: dict[str, Tensor] = field(default_factory=dict)

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
    def hidden_width(self) -> int:
        """Width of the linear-hidden composer's hidden layer; 0 for the others."""
        w = self.extras.get("w_hidden")
        return 0 if w is None else w.data.shape[1]

    @property
    def tie_output_gate(self) -> bool:
        """An lstm whose output gate reuses the t-gate weights (it has no ``u_o``)."""
        return self.kind is ComposerKind.LSTM and "u_o" not in self.extras

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
    def projection(self) -> Tensor | None:
        """The sum families' (embed_dim, digit_dim) output projection, applied
        as ``s @ P.T``; None when they output the digit-vector sum itself."""
        return self.extras.get("projection")

    @property
    def embed_dim(self) -> int:
        if self.kind is ComposerKind.HIDDEN:
            return self.extras["w_out"].data.shape[1]
        if self.projection is not None:
            return self.projection.data.shape[0]
        return self.digit_dim

    def parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor, keyed for optimizers."""
        return {"table": self.table, **self.extras}

    def extra_param_count(self) -> int:
        """Parameters beyond the digit-vector tensor."""
        return sum(t.data.size for t in self.extras.values())


def _uniform(rng: np.random.Generator, shape, scale: float, name: str) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, shape), op="leaf", name=name)


def _zeros(shape, name: str) -> Tensor:
    return Tensor(np.zeros(shape), op="leaf", name=name)


def _lstm_gates(tied: bool) -> tuple[str, ...]:
    """The lstm's gate blocks in [t, i, o, m] order, each named by the gate
    whose ``u_``/``b_`` parameters it uses: a tied output gate uses t's.
    ``dict.fromkeys`` of it lists the gates that own parameters, in order."""
    return ("t", "i", "t" if tied else "o", "m")


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
    its own output layer.  The projection is drawn last but listed first.
    """
    kind = ComposerKind(kind)
    scale = 1.0 / np.sqrt(digit_dim)
    table = _uniform(rng, (code_length, alphabet_size, digit_dim), scale, "table")
    extras: dict[str, Tensor] = {}
    if kind is ComposerKind.HIDDEN:
        if hidden_width < 1:  # every row would compose to b_out
            raise ValueError(f"linear-hidden needs hidden_width >= 1, got {hidden_width}")
        h = hidden_width
        extras["w_hidden"] = _uniform(rng, (digit_dim, h), scale, "w_hidden")
        extras["b_hidden"] = _zeros((h,), "b_hidden")
        extras["w_out"] = _uniform(rng, (h, embed_dim), scale, "w_out")
        extras["b_out"] = _zeros((embed_dim,), "b_out")
    else:
        if kind is ComposerKind.LSTM:
            for g in dict.fromkeys(_lstm_gates(tie_output_gate)):
                extras[f"u_{g}"] = _uniform(rng, (digit_dim, digit_dim), scale, f"u_{g}")
                extras[f"b_{g}"] = _zeros((digit_dim,), f"b_{g}")
        if embed_dim != digit_dim:
            extras = {"projection": _uniform(rng, (embed_dim, digit_dim), scale, "projection"),
                      **extras}
    return CodeBook(kind=kind, table=table, extras=extras)


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


def _digit_contributions(selection: Tensor, table: Tensor) -> Tensor:
    """Every position's ``selection[:, j] @ table[j]`` as one (B, D, d') op:
    a single batched (D, B, K) @ (D, K, d') product."""
    sel = selection.data.transpose(1, 0, 2)
    out = Tensor(np.matmul(sel, table.data).transpose(1, 0, 2), (selection, table),
                 op="digit_contributions")

    def _back(upstream):
        g = upstream.transpose(1, 0, 2)
        selection.grad += np.matmul(g, table.data.transpose(0, 2, 1)).transpose(1, 0, 2)
        table.grad += np.matmul(sel.transpose(0, 2, 1), g)

    return ad._attach(out, _back)


def _lstm_weights(book: CodeBook) -> tuple[list[Tensor], list[Tensor]]:
    """The lstm's ``u_``/``b_`` parameters per gate block, in [t, i, o, m]
    order; a tied output gate lists ``u_t``/``b_t`` twice."""
    gates = _lstm_gates(book.tie_output_gate)
    return [book.extras[f"u_{g}"] for g in gates], [book.extras[f"b_{g}"] for g in gates]


def _lstm_forward(inputs, book: CodeBook, batch: int, cache: bool):
    """Summed hidden states of the lstm over the D positions, where
    ``inputs(j)`` gives position j's (batch, d') input term.

    Per position, with gate blocks [t, i, o, m] of ``z = e + h @ U + b``:
    ``mem = sig(z_t) * mem + sig(z_i) * tanh(z_m)`` and
    ``h = sig(z_o) * tanh(mem)``.  The gate matrices are concatenated into
    one (d', 4d') ``U``; a tied output gate reuses ``u_t``/``b_t`` as its
    block.  The loop adds and rounds in the order of the per-node graph it
    replaced.  Returns ``(total, saved)``: with ``cache`` false, saved is None
    and the loop reuses one position's buffers; otherwise saved is the
    (D, batch, .) state that ``_lstm_recurrence``'s backward reads.
    """
    us, bs = _lstm_weights(book)
    u = np.concatenate([p.data for p in us], axis=1)
    bias = np.concatenate([p.data for p in bs])
    length, width = book.code_length, book.digit_dim
    slots = length if cache else 1
    # acts[s] starts as the position's input term and becomes its activations
    acts = np.empty((slots, batch, 4, width))
    cell = np.empty((slots, batch, width))  # tanh of the memory the position leaves
    mem = np.zeros((length + 1 if cache else 1, batch, width))  # mem[j] feeds position j
    m = mem[0]
    h = np.zeros((batch, width))
    total = np.zeros((batch, width))
    for j in range(length):
        s = j if cache else 0
        a = acts[s]
        a[:] = inputs(j)[:, None, :]
        z = a.reshape(batch, 4 * width)
        z += h @ u
        z += bias  # after h @ U, as (e + h @ U) + b rounded per node
        sig = z[:, : 3 * width]
        np.divide(1.0, 1.0 + np.exp(-sig), out=sig)
        np.tanh(a[:, 3], out=a[:, 3])
        t_gate, i_gate, o_gate, candidate = a.transpose(1, 0, 2)
        m = t_gate * m + i_gate * candidate
        if cache:
            mem[j + 1] = m
        np.tanh(m, out=cell[s])
        h = o_gate * cell[s]
        total += h
    return total, ((acts, mem, cell, u) if cache else None)


def _lstm_recurrence(contribs: Tensor, book: CodeBook) -> Tensor:
    """The lstm over (B, D, d') contributions as one op: ``_lstm_forward``
    with its cache, and a hand-written backward through time.  The
    contributions may also come flat, as (B * D, d') rows in batch-major
    order.  A tied output gate's block adds its gradient into ``u_t``/``b_t``."""
    length, width = book.code_length, book.digit_dim
    x = contribs.data.reshape(-1, length, width)
    batch = x.shape[0]
    us, bs = _lstm_weights(book)
    total, (acts, mem, cell, u) = _lstm_forward(lambda j: x[:, j], book, batch, cache=True)
    out = Tensor(total, (contribs, *us, *bs), op="lstm_recurrence")

    def _back(upstream):
        dz = np.empty_like(acts)
        de = np.empty_like(cell)
        dh = upstream
        dm = np.zeros((batch, width))
        for j in reversed(range(length)):
            a, d = acts[j], dz[j]
            t_gate, i_gate, o_gate, candidate = a.transpose(1, 0, 2)
            dm = dm + dh * o_gate * (1.0 - cell[j] * cell[j])
            np.multiply(dm, mem[j], out=d[:, 0])
            np.multiply(dm, candidate, out=d[:, 1])
            np.multiply(dh, cell[j], out=d[:, 2])
            np.multiply(dm, i_gate, out=d[:, 3])
            # d act / d z: s (1 - s) on the sigmoid blocks, 1 - g^2 on the tanh one
            slope = a * (1.0 - a)
            np.subtract(1.0, candidate * candidate, out=slope[:, 3])
            d *= slope
            d.sum(axis=1, out=de[j])
            dm = dm * t_gate
            if j:
                dh = upstream + d.reshape(batch, 4 * width) @ u.T
        # h before each position: zero, then o * tanh(mem) of the one before
        h_prev = np.zeros_like(cell)
        np.multiply(acts[:-1, :, 2], cell[:-1], out=h_prev[1:])
        flat_dz = dz.reshape(-1, 4 * width)
        du = h_prev.reshape(-1, width).T @ flat_dz
        db = flat_dz.sum(axis=0)
        contribs.grad += de.transpose(1, 0, 2).reshape(contribs.data.shape)
        for k, (up, bp) in enumerate(zip(us, bs)):
            up.grad += du[:, k * width : (k + 1) * width]
            bp.grad += db[k * width : (k + 1) * width]

    return ad._attach(out, _back)


def compose_relaxed(selection: Tensor, book: CodeBook) -> Tensor:
    """Batch composition from (batch, code_length, alphabet) selection rows.

    Rows may be exact one-hots or relaxed distributions; either way each row
    must sum to 1.  Differentiable w.r.t. both the selection and the book.
    The sum families compute ``B @ C`` in one product; lstm feeds every
    position's ``selection[:, j] @ C[j*K:(j+1)*K]``, from one batched
    product, to its recurrence.
    """
    _check_selection(selection, book)
    batch, d, k = selection.data.shape
    if book.kind is ComposerKind.LSTM:
        return _head(_lstm_recurrence(_digit_contributions(selection, book.table), book), book)
    return _head(ad.reshape(selection, (batch, d * k)) @ _flat_table(book), book)


def _digit_rows(digits, book: CodeBook) -> np.ndarray:
    """Raw digit rows (batch, code_length), checked, as row ids of ``C``:
    position j's digit picks row ``j * alphabet + digit``."""
    digits = np.asarray(digits, dtype=np.int64)
    if digits.ndim != 2 or digits.shape[1] != book.code_length:
        raise ValueError(f"digits must be (batch, {book.code_length}), got {digits.shape}")
    if digits.size and (digits.min() < 0 or digits.max() >= book.alphabet_size):
        raise ValueError(f"digits must lie in [0, {book.alphabet_size})")
    return digits + book.alphabet_size * np.arange(book.code_length)


def compose_digits(digits: np.ndarray, book: CodeBook) -> Tensor:
    """Compose embedding rows for raw digit rows (batch, code_length).

    Gathers row ``j * alphabet + digit`` of ``C`` per position; the sum
    families add the rows in position order, lstm feeds them to its
    recurrence one position at a time.  This is the inference regime: the
    rows are composed in plain numpy, no backward state is kept, and the
    result is a parentless tensor.  Every codebook parameter is checked
    first, since a non-finite one need not show in the rows (an lstm's gates
    saturate): it raises ``FloatingPointError``.  The one-hot ``B @ C`` of
    compose_relaxed adds the same terms, but in the BLAS's order, so the two
    can differ by one rounding per entry.
    """
    rows = _digit_rows(digits, book)
    for name, p in book.parameters().items():
        if not np.all(np.isfinite(p.data)):
            raise FloatingPointError(f"non-finite values in codebook parameter '{name}'")
    flat = book.table.data.reshape(-1, book.digit_dim)
    if book.kind is ComposerKind.LSTM:
        total, _ = _lstm_forward(lambda j: flat[rows[:, j]], book, rows.shape[0], cache=False)
    else:
        total = flat[rows[:, 0]]
        for j in range(1, book.code_length):
            total += flat[rows[:, j]]
    return Tensor(_head(Tensor(total), book).data, name="compose_digits")


def _compose_frozen(digits: np.ndarray, book: CodeBook) -> Tensor:
    """compose_digits as an autodiff graph, for training on a frozen code
    table: a row gather of ``C`` per position added in position order (lstm:
    one gather of every row, fed to the recurrence op), then the head.  Its
    forward gives compose_digits' bits."""
    rows = _digit_rows(digits, book)
    flat = _flat_table(book)
    if book.kind is ComposerKind.LSTM:
        return _head(_lstm_recurrence(ad.gather_rows(flat, rows.reshape(-1)), book), book)
    total = ad.gather_rows(flat, rows[:, 0])
    for j in range(1, book.code_length):
        total = total + ad.gather_rows(flat, rows[:, j])
    return _head(total, book)


def build_factorization(table: CodeTable, book: CodeBook) -> tuple[np.ndarray, np.ndarray]:
    """Linear-sum composition as a binary sparse factorization.

    Returns (B, C): B is (vocab, alphabet*code_length) with exactly
    ``code_length`` ones per row (one per block of ``alphabet`` columns), C
    is the digit-vector tensor flattened to (alphabet*code_length, digit_dim),
    and B @ C reproduces ``compose_digits(table.codes, book)``.
    """
    if book.kind is not ComposerKind.LINEAR or book.projection is not None:
        raise ValueError("factorization requires the linear-sum family with identity projection")
    if table.code_length != book.code_length or table.alphabet_size != book.alphabet_size:
        raise ValueError("code table and codebook disagree on alphabet/code length")
    n, d, k = table.vocab_size, table.code_length, table.alphabet_size
    b = np.zeros((n, k * d))
    b[np.arange(n)[:, None], table.codes + k * np.arange(d)] = 1.0
    return b, book.table.data.reshape(k * d, -1).copy()


def factorization_equivalence_check(table: CodeTable, book: CodeBook) -> float:
    """Max |compose_digits - B @ C| over all entries of a hard code table."""
    b, c = build_factorization(table, book)
    composed = compose_digits(table.codes, book).data
    return float(np.max(np.abs(composed - b @ c))) if composed.size else 0.0


def save_codebook(book: CodeBook, path) -> None:
    """Binary export: header (K, D, d', d, kind, hidden width, flags), then
    row-major float32 payloads — the (D, K, d') digit-vector tensor, then the
    extras in ``_extra_shapes`` order."""
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
        shapes = _extra_shapes(book.kind, book.projection is not None, book.tie_output_gate,
                               book.digit_dim, book.hidden_width, book.embed_dim)
        for t in [book.table, *(book.extras[name] for name in shapes)]:
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def _extra_shapes(kind: ComposerKind, projected: bool, tied: bool, dprime: int, hidden: int,
                  out_dim: int) -> dict[str, tuple[int, ...]]:
    """Shape of each extra, in file order: the projection if any, then the
    family's own parameters (the lstm's gate matrices before its biases)."""
    shapes = {"projection": (out_dim, dprime)} if projected else {}
    if kind is ComposerKind.HIDDEN:
        shapes.update(w_hidden=(dprime, hidden), b_hidden=(hidden,), w_out=(hidden, out_dim),
                      b_out=(out_dim,))
    elif kind is ComposerKind.LSTM:
        gates = dict.fromkeys(_lstm_gates(tied))
        shapes.update({f"u_{g}": (dprime, dprime) for g in gates})
        shapes.update({f"b_{g}": (dprime,) for g in gates})
    return shapes


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
    if min(k, d, dprime, out_dim) < 1:
        raise ValueError(f"{path}: empty code shape K={k} D={d} d'={dprime} d={out_dim}")
    kind = _WIRE_KIND[kind_code]
    has_proj, tied, own_head = bool(flags & 1), bool(flags & 2), kind is ComposerKind.HIDDEN
    if flags & ~3:
        raise ValueError(f"{path}: unknown flag bits {flags & ~3:#x}")
    if tied and kind is not ComposerKind.LSTM:
        raise ValueError(f"{path}: tied output gate on a {kind.value} composer")
    if own_head != (hidden > 0):
        raise ValueError(f"{path}: hidden width {hidden} on a {kind.value} composer")
    if own_head and has_proj:
        raise ValueError(f"{path}: projection on linear-hidden, which has its own output layer")
    if not (own_head or has_proj) and out_dim != dprime:
        raise ValueError(f"{path}: unprojected embedding width {out_dim} != digit width {dprime}")
    shapes = {"table": (d, k, dprime)}
    shapes.update(_extra_shapes(kind, has_proj, tied, dprime, hidden, out_dim))
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
    return CodeBook(kind=kind, table=params.pop("table"), extras=params)
