"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Conventions, fixed across the whole package:

* everything is double precision; float32 appears only in file export,
* row-major semantics; softmax and one-hot act on the last axis,
* argmax ties break to the lowest index,
* randomness always comes from an explicitly passed ``numpy.random.Generator``.

A computation is expressed by calling ops on ``Tensor`` values.
``gradients(loss, params)`` is the one backward pass: it runs every op's
vector-Jacobian product from a scalar ``loss`` and returns one dense gradient
per requested tensor.  The trainer and ``finite_difference_check`` both call
it, so the finite-difference suite checks the pass that trains.  Nothing here
knows about rows: a caller that reads only some rows of a large table makes
those rows a leaf of their own and gets that leaf's gradient back (``Trainer``
does so for its row-read tables, and tells the optimizer which rows they are).
Two ops deliberately lie to the gradient: ``stop_gradient`` (backward is
zero) and ``straight_through`` (forward is the hard argmax one-hot, backward
is the identity), so both are rejected by the finite-difference checker when
they sit on the checked path.

Graph lifetime: an op's backward closure captures its parents and whatever
forward values it needs, never its own output; ``_attach`` stores it on the
output behind a weak reference.  So a graph holds no reference cycle, and
reference counting frees it as soon as its root is dropped, whether or not
backward ever ran, without waiting for the cyclic garbage collector.
Gradient buffers live only while they are needed: ``gradients()`` makes a
node's zero buffer just before the first backward that writes into it and
drops an interior node's buffer right after that node's own backward has run.
The requested tensors keep theirs in ``.grad``, which is the array returned.
Hard-code inference builds no graph at all (``composer.compose_digits``
works on plain arrays), and ``cross_entropy_logits`` computes its softmax
inside its backward, so a validation loss that is never differentiated does
not pay for it.  The stored ``_backward`` takes no arguments, so code that
wraps it (a profiler timing each op's backward, say) needs to know nothing
about how the upstream gradient is read.
"""
from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "op", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents: tuple = (), op: str = "leaf", name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        label = name or op
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"non-finite values in node '{label}'")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.op = op
        self.name = label
        self._parents = parents
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # operator sugar; every rule lives in a module-level function below
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return subtract(self, _as_tensor(other))

    def __rsub__(self, other):
        return subtract(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return multiply(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _attach(out: Tensor, back: Callable[[np.ndarray], None]) -> Tensor:
    """Register ``back(upstream_grad)`` as ``out``'s zero-argument backward.

    The stored callable reaches ``out`` only through a weak reference, so the
    node does not refer back to itself.  Backward always runs while a
    topological order holds every node, so the reference is live then.
    """
    ref = weakref.ref(out)
    out._backward = lambda: back(ref().grad)
    return out


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, op="const")


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the graph below ``root`` (iterative)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _shape_error(op: str, *shapes) -> ValueError:
    return ValueError(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


def add(a: Tensor, b) -> Tensor:
    """Elementwise add; also accepts a 1-D bias matching the last axis of ``a``."""
    a, b = _as_tensor(a), _as_tensor(b)
    bias = a.data.shape != b.data.shape
    if bias:
        if b.data.ndim != 1 or a.data.ndim < 1 or a.data.shape[-1] != b.data.shape[0]:
            raise _shape_error("add", a.shape, b.shape)
    out = Tensor(a.data + b.data, (a, b), op="add")

    def _back(g):
        a.grad += g
        if bias:
            b.grad += g.reshape(-1, b.data.shape[0]).sum(axis=0)
        else:
            b.grad += g

    return _attach(out, _back)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise _shape_error("subtract", a.shape, b.shape)
    out = Tensor(a.data - b.data, (a, b), op="subtract")

    def _back(g):
        a.grad += g
        b.grad -= g

    return _attach(out, _back)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise _shape_error("multiply", a.shape, b.shape)
    out = Tensor(a.data * b.data, (a, b), op="multiply")

    def _back(g):
        a.grad += g * b.data
        b.grad += g * a.data

    return _attach(out, _back)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, (a,), op="scale")

    def _back(g):
        a.grad += g * s

    return _attach(out, _back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_error("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data, (a, b), op="matmul")

    def _back(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return _attach(out, _back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise _shape_error("transpose", a.shape)
    out = Tensor(a.data.T.copy(), (a,), op="transpose")

    def _back(g):
        a.grad += g.T

    return _attach(out, _back)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0; duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ValueError(f"gather_rows: index out of range for {a.data.shape[0]} rows")
    out = Tensor(a.data[idx], (a,), op="gather_rows")

    def _back(g):
        np.add.at(a.grad, idx, g)

    return _attach(out, _back)


def select(a: Tensor, index: int) -> Tensor:
    """Pick one slice along axis 1, e.g. (N, D, K) -> (N, K)."""
    if a.data.ndim < 2 or not (0 <= index < a.data.shape[1]):
        raise ValueError(f"select: index {index} invalid for shape {a.shape}")
    out = Tensor(a.data[:, index].copy(), (a,), op="select")

    def _back(g):
        a.grad[:, index] += g

    return _attach(out, _back)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy(), (a,), op="reshape")

    def _back(g):
        a.grad += g.reshape(a.data.shape)

    return _attach(out, _back)


def softmax_t(a: Tensor, tau: float) -> Tensor:
    """Rowwise (last axis) softmax of ``a / tau``; tau -> 0 approaches hard argmax."""
    if tau <= 0:
        raise ValueError(f"softmax_t: temperature must be positive, got {tau}")
    s = a.data / tau
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = Tensor(s, (a,), op="softmax_t")

    def _back(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        d = g - inner
        d *= s
        d /= tau
        a.grad += d

    return _attach(out, _back)


def hard_one_hot(values: np.ndarray) -> np.ndarray:
    """one_hot(argmax) along the last axis; ties go to the lowest index."""
    idx = np.argmax(values, axis=-1)
    out = np.zeros_like(values)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def straight_through(a: Tensor) -> Tensor:
    """Forward: one_hot(argmax) on the last axis.  Backward: identity."""
    out = Tensor(hard_one_hot(a.data), (a,), op="straight_through")

    def _back(g):
        a.grad += g

    return _attach(out, _back)


def stop_gradient(a: Tensor) -> Tensor:
    """Forward identity, backward exactly zero."""
    return Tensor(a.data.copy(), (a,), op="stop_gradient")


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s, (a,), op="sigmoid")

    def _back(g):
        a.grad += g * s * (1.0 - s)

    return _attach(out, _back)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t, (a,), op="tanh")

    def _back(g):
        a.grad += g * (1.0 - t * t)

    return _attach(out, _back)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), (a,), op="relu")

    def _back(g):
        a.grad += g * (a.data > 0)

    return _attach(out, _back)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), (a,), op="sum")

    def _back(g):
        a.grad += g

    return _attach(out, _back)


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Sum of squared differences (a scalar)."""
    if a.data.shape != b.data.shape:
        raise _shape_error("squared_error", a.shape, b.shape)
    diff = a.data - b.data
    out = Tensor((diff * diff).sum(), (a, b), op="squared_error")

    def _back(g):
        a.grad += 2.0 * diff * g
        b.grad -= 2.0 * diff * g

    return _attach(out, _back)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of 2-D logits against integer labels."""
    y = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or y.ndim != 1 or y.shape[0] != logits.data.shape[0]:
        raise _shape_error("cross_entropy_logits", logits.shape, y.shape)
    if y.size and (y.min() < 0 or y.max() >= logits.data.shape[1]):
        raise ValueError("cross_entropy_logits: label out of range")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    rows = np.arange(y.shape[0])
    losses = lse - z[rows, y]
    out = Tensor(losses.mean(), (logits,), op="cross_entropy_logits")

    def _back(g):
        dz = np.exp(z - lse[:, None])  # the softmax, computed only when backward runs
        dz[rows, y] -= 1.0
        logits.grad += dz * (g / y.shape[0])

    return _attach(out, _back)


def gradients(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Backward pass returning the dense gradient of each requested tensor.

    Runs every backward closure below the scalar ``loss``, children first.  A
    node's zero gradient buffer is made just before the first backward that
    writes into it, and an interior node's is dropped right after the node's
    own backward has run.  The requested tensors keep theirs (zero if nothing
    reached them).  Raises if the loss is not scalar or a tensor is not part
    of the graph.
    """
    if loss.data.shape != ():
        raise ValueError(f"gradients requires a scalar loss, got shape {loss.shape}")
    order = topo_order(loss)
    members = {id(node) for node in order}
    for pname, p in params.items():
        if id(p) not in members:
            raise ValueError(f"parameter '{pname}' is not in the graph")
    keep = {id(p) for p in params.values()}
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None:
            continue
        if node.grad is None:  # every child stops the gradient: a zero upstream
            node.grad = np.zeros_like(node.data)
        for parent in node._parents:
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
        node._backward()
        if id(node) not in keep:
            node.grad = None
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    return {pname: p.grad for pname, p in params.items()}


_FD_OPAQUE = ("straight_through", "stop_gradient")


def _opaque_op_on_path(loss: Tensor, param: Tensor) -> str | None:
    """Name of an STE/stop-gradient op lying between param and loss, if any."""
    order = topo_order(loss)
    downstream = {id(param)}
    for node in order:
        if id(node) in downstream:
            continue
        if any(id(p) in downstream for p in node._parents):
            downstream.add(id(node))
            if node.op in _FD_OPAQUE:
                return node.op
    return None


def finite_difference_check(
    build_loss: Callable[[], Tensor], param: Tensor, eps: float = 3e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build_loss`` must rebuild the scalar loss from the current value of
    ``param`` (which is perturbed in place entry by entry).  Error metric per
    entry: |analytic - numeric| / (|analytic| + |numeric| + 1e-12).  The
    default step balances truncation against roundoff so that entries whose
    true gradient is near zero still compare cleanly in double precision.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    loss = build_loss()
    opaque = _opaque_op_on_path(loss, param)
    if opaque is not None:
        raise ValueError(f"finite differences invalid through '{opaque}' on the checked path")
    analytic = gradients(loss, {"param": param})["param"].reshape(-1)
    flat = param.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = build_loss().item()
        flat[i] = orig - eps
        down = build_loss().item()
        flat[i] = orig
        numeric = (up - down) / (2.0 * eps)
        err = abs(analytic[i] - numeric) / (abs(analytic[i]) + abs(numeric) + 1e-12)
        worst = max(worst, err)
    return worst


def global_norm_clip(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, float]:
    """Rescale all grads in place so their joint L2 norm is at most max_norm.

    Returns each gradient's own L2 norm from before the clip.
    """
    squares = {name: float((g * g).sum()) for name, g in grads.items()}
    total = float(np.sqrt(sum(squares.values())))
    if total > max_norm > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return {name: float(np.sqrt(sq)) for name, sq in squares.items()}
