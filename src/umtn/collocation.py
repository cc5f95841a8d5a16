"""Discrete-time RBF collocation for time-dependent linear PDEs, in value space.

The collocation step Phi c_{t+dt} = H c_t, with H = Phi + dt * (operator
applied to the kernel), is carried out on the site values u = Phi c: since the
new values equal the right-hand side, u_{t+dt} = P u_t with the propagator
P = I + dt * L Phi^{-1}, where L Phi^{-1} is the RBF differentiation matrix
(Fornberg & Flyer, A Primer on Radial Basis Functions, SIAM 2015).  Dirichlet
conditions overwrite the boundary rows of u_{t+dt} with the prescribed values.
Each step is one matrix-vector product; P is formed once per stepper.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DivergenceError, NumericalError
from .interpolation import InterpolationSystem, SiteSet
from .kernels import LinearOperatorSpec, RadialKernel, _radial_parts


def operator_matrix(kernel: RadialKernel, sites: SiteSet, op: LinearOperatorSpec) -> np.ndarray:
    """The n x n matrix of L phi(||x - x_j||) evaluated at x = x_i.

    Row i applies the operator's coefficient fields at site i; column j picks
    the kernel centered at site j.
    """
    pts = sites.sites
    n, d = pts.shape
    offsets = pts[:, None, :] - pts[None, :, :]
    r = sites.distance_matrix()
    phi, por, second = _radial_parts(kernel, r)
    if not np.all(np.isfinite(por)):
        raise ValueError(f"{kernel.family.value} kernel is not smooth enough for operator assembly")
    out = np.zeros((n, n))
    try:
        if op.convection is not None:
            a = np.stack([np.asarray(op.convection(p), dtype=float) for p in pts])
            out += np.einsum("id,ijd->ij", a, offsets) * por
        if op.diffusion is not None:
            c = np.array([float(op.diffusion(p)) for p in pts])
            out += c[:, None] * (second + (d - 1) * por)
        if op.reaction is not None:
            rv = np.array([float(op.reaction(p)) for p in pts])
            out += rv[:, None] * phi
    except ValueError:
        raise
    except Exception as exc:  # surface which site's field evaluation failed
        raise NumericalError(f"operator field evaluation failed: {exc}") from exc
    return out


def _aligned_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised C-order float array starting at a 64-byte boundary
    (numpy promises 16 bytes; dgemv is slower on a matrix off a cache line)."""
    nbytes = math.prod(shape) * 8
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.__array_interface__["data"][0] % 64
    return raw[start : start + nbytes].view(np.float64).reshape(shape)


class TrajectoryPoint(NamedTuple):
    time: float
    values: np.ndarray


class Trajectory(Sequence):
    """A solve's time grid and site values, one row of `values` per time.

    Indexing gives a `TrajectoryPoint(time, values)` whose values are a view
    of that row; slicing gives a `Trajectory` over the selected rows.
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self.times[index], self.values[index])
        return TrajectoryPoint(float(self.times[index]), self.values[index])


class CollocationStepper:
    """Immutable stepper holding the propagator P and optional Dirichlet boundary rows."""

    def __init__(
        self,
        system: InterpolationSystem,
        operator: LinearOperatorSpec,
        dt: float,
        boundary_indices: Sequence[int] = (),
        boundary_values: Optional[Callable[[float], np.ndarray]] = None,
    ):
        if not 0 < dt < math.inf:
            raise ValueError(f"time step dt must be positive and finite, got {dt}")
        boundary_indices = np.asarray(sorted(boundary_indices), dtype=int)
        if boundary_indices.size:
            if boundary_indices[0] < 0 or boundary_indices[-1] >= system.n:
                raise ValueError("boundary indices out of range")
            if np.unique(boundary_indices).size != boundary_indices.size:
                raise ValueError("boundary indices contain duplicates")
            if boundary_values is None:
                raise ValueError("boundary indices given without a boundary value callback")
        self.system = system
        self.operator = operator
        self.dt = float(dt)
        # L Phi^{-1} = (Phi^{-1} L^T)^T because Phi is symmetric.
        differentiation = system.solve(operator_matrix(system.kernel, system.site_set, operator).T).T
        self.propagator = _aligned_empty((system.n, system.n))
        np.multiply(self.dt, differentiation, out=self.propagator)
        self.propagator[np.diag_indices(system.n)] += 1.0
        self.boundary_indices = boundary_indices
        self.boundary_values = boundary_values


def solve_ivp(stepper: CollocationStepper, initial_values: np.ndarray, t_end: float) -> Trajectory:
    """Iterate u_{t+dt} = P u_t, boundary rows then set, from u_0 up to t_end.

    Returns a `Trajectory` whose `times` has shape (steps + 1,) and whose
    `values` has shape (steps + 1, n), including t=0.  No coefficients are
    kept: those of step k are `stepper.system.solve(trajectory.values[k])`.
    t_end must be a positive integer multiple of the stepper's dt.  Raises
    `DivergenceError` with `at_time` at the first step whose values are not
    finite: a finite row sum proves every entry finite, so the entries are
    tested one by one only when the sum is not.
    """
    n, dt = stepper.system.n, stepper.dt
    w = np.asarray(initial_values, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"initial values must have shape ({n},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("initial_values must be finite")
    ratio = t_end / dt
    steps = int(round(ratio)) if 0 < ratio < 2**62 else 0
    if steps < 1 or abs(t_end - steps * dt) > 1e-12 * max(abs(t_end), 1.0):
        raise ValueError(f"t_end={t_end} is not a positive integer multiple of dt={dt}")

    values = _aligned_empty((steps + 1, n))
    values[0] = w
    propagator, indices, shape = stepper.propagator, stepper.boundary_indices, stepper.boundary_indices.shape
    callback = stepper.boundary_values if indices.size else None
    # Overflow is reported as the DivergenceError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            t = k * dt
            row = values[k]
            np.dot(propagator, values[k - 1], out=row)
            if callback is not None:
                prescribed = np.asarray(callback(t), dtype=float)
                if prescribed.shape != shape:
                    raise ValueError(f"boundary callback returned shape {prescribed.shape}, expected {shape}")
                row[indices] = prescribed
            if not math.isfinite(row.sum()) and not np.isfinite(row).all():
                raise DivergenceError(f"collocation iteration diverged at t={t:.6g}", at_time=t)
    return Trajectory(np.arange(steps + 1) * dt, values)
