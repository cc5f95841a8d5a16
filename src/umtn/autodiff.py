"""Reverse-mode differentiation on numpy arrays, sized for this package.

Tensors wrap float64 arrays; operations record a DAG when any operand has
requires_grad set, and `backward` walks it once in reverse topological order.
Everything runs in double precision so finite-difference checks can be tight.
Recording is confined to one logical training thread; tensors without graph
links are immutable in practice and safe to share.
"""

from __future__ import annotations

import builtins
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericalError

_grad_enabled = True


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


def _record(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
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
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    # A constant operand (Phi, G, the fit matrix) gets no gradient product.
    return _record(
        a.values @ b.values,
        (a, b),
        lambda g: (
            g @ b.values.T if a.requires_grad else None,
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


def relu(x) -> Tensor:
    x = _as_tensor(x)
    return _record(np.maximum(x.values, 0.0), (x,), lambda g: (g * (x.values > 0.0),))


def sum(x) -> Tensor:  # noqa: A001 - numpy-style name, accessed as autodiff.sum
    x = _as_tensor(x)
    return _record(
        np.asarray(x.values.sum()),
        (x,),
        lambda g: (np.broadcast_to(g, x.shape).copy() if np.ndim(g) == 0 else np.full(x.shape, g),),
    )


def gru_cell(x, h, w, u_zr, u_h, b) -> Tensor:
    """One GRU update on the rows of `x` (N, D) and `h` (N, H), as one node.

    The gate weights come stacked: `w` = [Wz | Wr | Wh] is D x 3H, `u_zr` =
    [Uz | Ur] is H x 2H, `u_h` is H x H and `b` = [bz | br | bh] has 3H
    entries.  With z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br)
    and a = tanh(x Wh + (r * h) Uh + bh) the new state is h + z * (a - h).
    The input side is one GEMM for all three gates and the state side one for
    z and r, plus the (r * h) Uh product (Appleyard et al., arXiv:1604.01946).
    """
    x, h, w, u_zr, u_h, b = (_as_tensor(t) for t in (x, h, w, u_zr, u_h, b))
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
    xw = x.values @ w.values
    xw += b.values
    zr = h.values @ u_zr.values
    zr += xw[:, : 2 * hid]
    with np.errstate(over="ignore"):  # exp(-v) = inf gives sigmoid(v) = 0 exactly
        np.exp(np.negative(zr, out=zr), out=zr)
    zr += 1.0
    np.reciprocal(zr, out=zr)
    z, r = zr[:, :hid], zr[:, hid:]
    rh = r * h.values
    cand = rh @ u_h.values
    cand += xw[:, 2 * hid :]
    np.tanh(cand, out=cand)
    step = cand - h.values
    h_new = z * step
    h_new += h.values

    def backward(g):
        d_a = g * z
        d_a *= 1.0 - cand * cand
        d_rh = d_a @ u_h.values.T
        d_zr = np.empty_like(zr)
        np.multiply(g, step, out=d_zr[:, :hid])
        np.multiply(d_rh, h.values, out=d_zr[:, hid:])
        d_zr *= zr
        d_zr *= 1.0 - zr
        d_h = d_x = d_w = None
        if h.requires_grad:
            d_h = d_zr @ u_zr.values.T
            d_h += g
            d_h -= g * z
            d_h += d_rh * r
        if x.requires_grad:
            d_x = d_zr @ w.values[:, : 2 * hid].T
            d_x += d_a @ w.values[:, 2 * hid :].T
        if w.requires_grad:
            d_w = np.concatenate([x.values.T @ d_zr, x.values.T @ d_a], axis=1)
        return (
            d_x,
            d_h,
            d_w,
            h.values.T @ d_zr if u_zr.requires_grad else None,
            rh.T @ d_a if u_h.requires_grad else None,
            np.concatenate([d_zr.sum(axis=0), d_a.sum(axis=0)]) if b.requires_grad else None,
        )

    return _record(h_new, (x, h, w, u_zr, u_h, b), backward)


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
    through a consumed graph raises RuntimeError.

    When a ParameterStore is given, parameters the loss does not reach get an
    explicit zero gradient so optimizer steps see a complete set.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.values)
    while order:
        node = order.pop()
        if node._backward_fn is None:
            continue
        if node.grad is not None:
            contributions = node._backward_fn(node.grad)
            for parent, contribution in zip(node._parents, contributions):
                if not parent.requires_grad or contribution is None:
                    continue
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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    @property
    def n_parameters(self) -> int:
        return builtins.sum(t.values.size for t in self._params.values())

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


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str | None
    worst_index: int | None
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def gradient_check(
    function: Callable[[ParameterStore], Tensor],
    store: ParameterStore,
    tol: float,
    fd_step: float = 1e-6,
    sample: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    `function` must be deterministic in the parameters.  With `sample` set,
    only a seeded random subset of that many components is checked (spread
    over all parameters); otherwise the check is exhaustive.  Relative errors
    use an absolute floor of 1e-8.

    A coordinate whose difference quotient at `fd_step` disagrees is retried
    at 10x and 100x the step and the best agreement kept: cancellation noise
    in the quotient shrinks with a larger step, while a wrong gradient stays
    wrong at every step.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    store.zero_grads()
    loss = function(store)
    if loss.values.size != 1 or not np.isfinite(loss.values):
        raise NumericalError("gradient_check: function did not produce a finite scalar")
    backward(loss, store)
    analytic = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grads()

    entries = [(name, idx) for name, t in store.items() for idx in range(t.values.size)]
    if sample is not None and sample < len(entries):
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(entries), size=sample, replace=False)
        entries = [entries[i] for i in chosen]

    def evaluate() -> float:
        with no_grad():
            value = function(store).values
        if not np.all(np.isfinite(value)):
            raise NumericalError("gradient_check: function produced non-finite values")
        return float(value)

    def quotient(flat, idx: int, step: float) -> float:
        original = flat[idx]
        flat[idx] = original + step
        f_plus = evaluate()
        flat[idx] = original - step
        f_minus = evaluate()
        flat[idx] = original
        return (f_plus - f_minus) / (2.0 * step)

    worst = (0.0, None, None)
    for name, idx in entries:
        flat = store[name].values.reshape(-1)
        an = analytic[name].reshape(-1)[idx]
        rel = math.inf
        for step in (fd_step, 10.0 * fd_step, 100.0 * fd_step):
            fd = quotient(flat, idx, step)
            rel = min(rel, abs(fd - an) / max(1e-8, abs(fd), abs(an)))
            if rel <= tol:
                break
        if rel > worst[0]:
            worst = (rel, name, idx)
    return GradCheckReport(worst[0], worst[1], worst[2], len(entries), tol)
