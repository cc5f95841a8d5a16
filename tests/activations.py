"""ReLU, sigmoid and tanh as recorded autodiff operations, for the tests only.

The package computes its gates inside `autodiff.gru_cell` and its ReLUs
inside `autodiff.mlp`, and no longer needs these as primitives.  The tests
keep them as oracles: the composite GRU that checks `gru_cell`, the unfused
dense stack that checks `mlp`, and the wrappers of the gradient suites.
"""

import numpy as np
from scipy.special import expit

from umtn.autodiff import Tensor, _as_tensor, _record


def relu(x) -> Tensor:
    x = _as_tensor(x)
    return _record(np.maximum(x.values, 0.0), (x,), lambda g: (g * (x.values > 0.0),))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    s = expit(x.values)
    return _record(s, (x,), lambda g: (g * s * (1.0 - s),))


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    t = np.tanh(x.values)
    return _record(t, (x,), lambda g: (g * (1.0 - t * t),))
