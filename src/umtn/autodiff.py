"""Reverse-mode differentiation on numpy arrays, sized for this package.

Tensors wrap float64 arrays; operations record a DAG when any operand has
requires_grad set, and `backward` walks it once in reverse topological order.
Everything runs in double precision so finite-difference checks can be tight.
Recording is confined to one logical training thread; tensors without graph
links are immutable in practice and safe to share.

The fused nodes `gru_cell` and `mlp` work in cache-sized row blocks, keep only
what their backward reads, and keep only their output when no graph is
recorded; `matmul` lets the walk form a shared left operand's gradient in one
GEMM.  Their docstrings give the details.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_grad_enabled = True

# Working-set budget of one row block of a fused node, in values of its widest
# intermediate: 170 GRU rows at 64 hidden units (3 x 64 gate pre-activations),
# 512 spatial-net rows at 64 hidden units.
ROW_BLOCK_VALUES = 32_768


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values are unchanged)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A shaped float64 array, optionally linked into the recorded graph."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=float)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] | None = ()  # None once backward consumed it
        self._backward_fn: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an operation on `parents` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(values)
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(name: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a, b)
    return _record(
        a.values + b.values,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def subtract(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("subtract", a, b)
    return _record(
        a.values - b.values,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def multiply(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("multiply", a, b)
    return _record(
        a.values * b.values,
        (a, b),
        lambda g: (_unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)),
    )


def matmul(a, b) -> Tensor:
    """a @ b for 2-D operands.

    The left operand's gradient g @ b.T goes to the walk as the factor pair
    (g, b).  On reaching the operand, the walk sums all its uses in one GEMM,
    [g_1 | g_2 | ...] @ [b_1 | b_2 | ...].T; the stacked spatial operator has
    one use per level and step.  A constant operand (Phi, G, the fit matrix)
    gets no gradient product.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _record(
        a.values @ b.values,
        (a, b),
        lambda g: (
            (g, b.values) if a.requires_grad else None,
            a.values.T @ g if b.requires_grad else None,
        ),
    )


def concat(parts: Sequence) -> Tensor:
    """Concatenate along the last axis; all other axes must agree."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat: need at least one operand")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.values.ndim == 0 or p.shape[:-1] != lead:
            raise ValueError(f"concat: shapes {[p.shape for p in parts]} do not align")
    widths = [p.shape[-1] for p in parts]
    bounds = np.cumsum(widths)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=-1))

    return _record(np.concatenate([p.values for p in parts], axis=-1), tuple(parts), backward)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    try:
        values = x.values.reshape(shape)
    except ValueError:
        raise ValueError(f"reshape: cannot view shape {x.shape} as {shape}") from None
    return _record(values, (x,), lambda g: (g.reshape(x.shape),))


def permute(x, axes: tuple[int, ...]) -> Tensor:
    """Reorder the axes (numpy.transpose); the result is stored contiguously."""
    x = _as_tensor(x)
    if sorted(axes) != list(range(x.values.ndim)):
        raise ValueError(f"permute: {axes} is not a permutation of {x.values.ndim} axes")
    inverse = tuple(np.argsort(axes))
    return _record(
        np.ascontiguousarray(x.values.transpose(axes)),
        (x,),
        lambda g: (np.ascontiguousarray(g.transpose(inverse)),),
    )


def sum(x) -> Tensor:  # noqa: A001 - numpy-style name, accessed as autodiff.sum
    x = _as_tensor(x)
    return _record(
        np.asarray(x.values.sum()),
        (x,),
        lambda g: (np.full(x.shape, g),),
    )


def _block_rows(rows: int, width: int) -> int:
    """Rows per block: about ROW_BLOCK_VALUES values at `width` values a row."""
    return max(1, min(rows, ROW_BLOCK_VALUES // max(1, width)))


def gru_cell(x, h, w, u_zr, u_h, b) -> Tensor:
    """One GRU update on the rows of `x` (N, D) and `h` (N, H), as one node.

    The gate weights come stacked: `w` = [Wz | Wr | Wh] is D x 3H, `u_zr` =
    [Uz | Ur] is H x 2H, `u_h` is H x H and `b` = [bz | br | bh] has 3H
    entries.  With z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br)
    and a = tanh(x Wh + (r * h) Uh + bh) the new state is h + z * (a - h).
    The input side is one GEMM for all three gates and the state side one for
    z and r, plus the (r * h) Uh product (Appleyard et al., arXiv:1604.01946).

    The rows go in blocks of about ROW_BLOCK_VALUES values of the 3H-wide
    input side, forward and backward, so a block's gates stay in cache.  A
    recorded node keeps x, h, [z | r] and a; its backward recomputes r * h and
    a - h per block and adds the weight gradients up over the blocks.  With no
    graph to record, the node keeps only the new state, and every block reuses
    one set of work arrays.
    """
    x, h, w, u_zr, u_h, b = parents = tuple(_as_tensor(t) for t in (x, h, w, u_zr, u_h, b))
    hid = h.shape[-1] if h.values.ndim else 0
    if (
        x.values.ndim != 2
        or h.values.ndim != 2
        or x.shape[0] != h.shape[0]
        or (w.shape, u_zr.shape, u_h.shape, b.shape)
        != ((x.shape[1], 3 * hid), (hid, 2 * hid), (hid, hid), (3 * hid,))
    ):
        raise ValueError(
            f"gru_cell: shapes x {x.shape}, h {h.shape}, w {w.shape}, u_zr {u_zr.shape}, "
            f"u_h {u_h.shape}, b {b.shape} do not fit together"
        )
    rows = x.shape[0]
    step = _block_rows(rows, 3 * hid)
    keep = _records(parents)
    xw, rh = np.empty((step, 3 * hid)), np.empty((step, hid))
    zr, cand = np.empty((rows if keep else step, 2 * hid)), np.empty((rows if keep else step, hid))
    h_new = np.empty((rows, hid))
    for lo in range(0, rows, step):
        block = slice(lo, lo + step)
        xs, hs = x.values[block], h.values[block]
        kept = block if keep else slice(0, len(xs))
        xw_b = np.matmul(xs, w.values, out=xw[: len(xs)])
        xw_b += b.values
        zr_b = np.matmul(hs, u_zr.values, out=zr[kept])
        zr_b += xw_b[:, : 2 * hid]
        with np.errstate(over="ignore"):  # exp(-v) = inf gives sigmoid(v) = 0 exactly
            np.exp(np.negative(zr_b, out=zr_b), out=zr_b)
        zr_b += 1.0
        np.reciprocal(zr_b, out=zr_b)
        cand_b = np.matmul(np.multiply(zr_b[:, hid:], hs, out=rh[: len(xs)]), u_h.values, out=cand[kept])
        cand_b += xw_b[:, 2 * hid :]
        np.tanh(cand_b, out=cand_b)
        h_b = np.subtract(cand_b, hs, out=h_new[block])
        h_b *= zr_b[:, :hid]
        h_b += hs

    def backward(g):
        d_x = np.empty_like(x.values) if x.requires_grad else None
        d_h = np.empty_like(h.values) if h.requires_grad else None
        d_w, d_u_zr, d_u_h, d_b = (np.zeros(t.shape) if t.requires_grad else None for t in (w, u_zr, u_h, b))
        d_pre = np.empty((step, 3 * hid))  # [d_zr | d_a], by the gates' pre-activations
        for lo in range(0, rows, step):
            block = slice(lo, lo + step)
            xs, hs, g_b, zr_b, a = x.values[block], h.values[block], g[block], zr[block], cand[block]
            z, r = zr_b[:, :hid], zr_b[:, hid:]
            d_pre_b = d_pre[: len(xs)]
            d_zr, d_a = d_pre_b[:, : 2 * hid], d_pre_b[:, 2 * hid :]
            np.multiply(g_b, z, out=d_a)
            d_a *= 1.0 - a * a
            d_rh = d_a @ u_h.values.T
            np.multiply(g_b, a - hs, out=d_zr[:, :hid])
            np.multiply(d_rh, hs, out=d_zr[:, hid:])
            d_zr *= zr_b
            d_zr *= 1.0 - zr_b
            if d_h is not None:
                d_h_b = np.matmul(d_zr, u_zr.values.T, out=d_h[block])
                d_h_b += g_b
                d_h_b -= g_b * z
                d_h_b += d_rh * r
            if d_x is not None:
                np.matmul(d_pre_b, w.values.T, out=d_x[block])
            if d_w is not None:
                d_w += xs.T @ d_pre_b
            if d_u_zr is not None:
                d_u_zr += hs.T @ d_zr
            if d_u_h is not None:
                d_u_h += (r * hs).T @ d_a
            if d_b is not None:
                d_b += d_pre_b.sum(axis=0)
        return d_x, d_h, d_w, d_u_zr, d_u_h, d_b

    return _record(h_new, parents, backward)


def mlp(x, layers: Sequence[tuple]) -> Tensor:
    """A dense stack on the rows of `x` (N, D), as one node.

    `layers` is [(w0, b0), (w1, b1), ...] with w_i (D_i, D_{i+1}) and b_i
    (D_{i+1},); every layer but the last is followed by a ReLU.  The rows go
    in blocks of about ROW_BLOCK_VALUES values of the widest layer, forward
    and backward; each layer adds its bias (and applies its ReLU) in place on
    the block's fresh matmul output.  A recorded node keeps only the layer
    inputs, `x` and the post-ReLU blocks; its backward reads each ReLU mask
    off the post-ReLU values, which are positive exactly where their
    pre-activations were, and adds the weight gradients up over the blocks.
    With no graph to record, the node keeps only its output, and every block
    reuses one set of hidden-layer work arrays.
    """
    x = _as_tensor(x)
    layers = [(_as_tensor(w), _as_tensor(b)) for w, b in layers]
    if not layers:
        raise ValueError("mlp: need at least one layer")
    width = x.shape[-1] if x.values.ndim == 2 else None
    for w, b in layers:
        if w.values.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            raise ValueError(
                f"mlp: shapes x {x.shape} and layers {[(w.shape, b.shape) for w, b in layers]} "
                "do not fit together"
            )
        width = w.shape[1]
    parents = (x, *(t for pair in layers for t in pair))
    rows, widths = x.shape[0], [w.shape[1] for w, _ in layers]
    step = _block_rows(rows, max(x.shape[1], *widths))
    keep = _records(parents)
    hidden = [np.empty((rows if keep else step, cols)) for cols in widths[:-1]]  # post-ReLU
    out = np.empty((rows, widths[-1]))
    for lo in range(0, rows, step):
        block = slice(lo, lo + step)
        layer_in = x.values[block]
        kept = block if keep else slice(0, len(layer_in))
        for i, (w, b) in enumerate(layers):
            last = i == len(hidden)
            layer_in = np.matmul(layer_in, w.values, out=out[block] if last else hidden[i][kept])
            layer_in += b.values
            if not last:
                np.maximum(layer_in, 0.0, out=layer_in)

    def backward(g):
        grads = [np.zeros(t.shape) if t.requires_grad else None for t in parents[1:]]  # d_w0, d_b0, ...
        d_x = np.empty_like(x.values) if x.requires_grad else None
        for lo in range(0, rows, step):
            block = slice(lo, lo + step)
            g_b = g[block]
            for i in reversed(range(len(layers))):
                layer_in = hidden[i - 1][block] if i else x.values[block]
                d_w, d_b = grads[2 * i : 2 * i + 2]
                if d_w is not None:
                    d_w += layer_in.T @ g_b
                if d_b is not None:
                    d_b += g_b.sum(axis=0)
                if i:
                    g_b = g_b @ layers[i][0].values.T  # fresh, so the mask may be applied in place
                    np.multiply(g_b, layer_in > 0.0, out=g_b)
            if d_x is not None:
                np.matmul(g_b, layers[0][0].values.T, out=d_x[block])
        return (d_x, *grads)

    return _record(out, parents, backward)


def _topo_order(root: Tensor) -> list[Tensor]:
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
        if node._parents is None:
            raise RuntimeError("backward: the graph was already consumed by an earlier backward")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, store: "ParameterStore | None" = None) -> None:
    """Accumulate dLoss/d(leaf) into `.grad` for every reachable leaf tensor.

    The walk consumes the graph: once a recorded node has passed its gradient
    on, its `grad`, `_parents` and `_backward_fn` are dropped, so activations
    are freed while the walk proceeds.  Leaves (parameters and other tensors
    created with requires_grad) keep their `.grad`.  A second `backward`
    through a consumed graph raises RuntimeError.  A matmul's factor pairs
    wait until the walk reaches their left operand (see `matmul`).

    When a ParameterStore is given, parameters the loss does not reach get an
    explicit zero gradient so optimizer steps see a complete set.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.values)
    pairs: dict[int, list] = {}  # matmul factor pairs (g, b), by id of their left operand
    while order:
        node = order.pop()
        waiting = pairs.pop(id(node), None)
        if waiting:  # all the node's uses as a left operand, in one GEMM
            g, b = waiting[0] if len(waiting) == 1 else map(np.hstack, zip(*waiting))
            node.grad = g @ b.T if node.grad is None else node.grad + g @ b.T
        if node._backward_fn is None:
            continue
        if node.grad is not None:
            contributions = node._backward_fn(node.grad)
            for parent, contribution in zip(node._parents, contributions):
                if not parent.requires_grad or contribution is None:
                    continue
                if isinstance(contribution, tuple):
                    pairs.setdefault(id(parent), []).append(contribution)
                else:
                    # A contribution may alias the node's gradient or a sibling's, so
                    # gradients are replaced, never updated in place.
                    parent.grad = contribution if parent.grad is None else parent.grad + contribution
        node.grad = node._parents = node._backward_fn = None
    if store is not None:
        for tensor in store.tensors():
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.values)


class _AdamSlot:
    __slots__ = ("m", "v", "step")

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.step = 0


class ParameterStore:
    """Named trainable tensors with per-parameter Adam state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._slots: dict[str, _AdamSlot] = {}

    def register(self, name: str, values) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        tensor = Tensor(np.array(values, dtype=float), requires_grad=True)
        self._params[name] = tensor
        self._slots[name] = _AdamSlot(tensor.shape)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self._params.items()}

    def load_snapshot(self, snapshot: dict[str, np.ndarray]) -> None:
        if set(snapshot) != set(self._params):
            raise ValueError("snapshot parameter names do not match the store")
        for name, values in snapshot.items():
            values = np.asarray(values, dtype=float)
            if values.shape != self._params[name].shape:
                raise ValueError(f"snapshot shape mismatch for {name!r}")
            self._params[name].values = values.copy()


def adam_step(
    store: ParameterStore,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update in place; gradients are consumed and cleared."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    for name, tensor in store.items():
        if tensor.grad is None:
            raise RuntimeError(f"adam_step: parameter {name!r} has no gradient")
    for name, tensor in store.items():
        slot = store._slots[name]
        g = tensor.grad
        slot.step += 1
        slot.m = beta1 * slot.m + (1.0 - beta1) * g
        slot.v = beta2 * slot.v + (1.0 - beta2) * g * g
        m_hat = slot.m / (1.0 - beta1**slot.step)
        v_hat = slot.v / (1.0 - beta2**slot.step)
        tensor.values = tensor.values - lr * m_hat / (np.sqrt(v_hat) + eps)
        tensor.grad = None
