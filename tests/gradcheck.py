"""Central finite-difference checks of the autodiff engine, for the tests only.

The package never checks its own gradients; the engine's tests and the
acceptance suite compare reverse-mode gradients against these quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from umtn.autodiff import ParameterStore, Tensor, backward, no_grad
from umtn.errors import NumericalError


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
