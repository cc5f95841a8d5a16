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
        if dt <= 0:
            raise ValueError("time step must be positive")
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
        self.propagator = self.dt * differentiation
        self.propagator[np.diag_indices(system.n)] += 1.0
        self.boundary_indices = boundary_indices
        self.boundary_values = boundary_values

    def _apply_boundary(self, values: np.ndarray, t: float) -> np.ndarray:
        if self.boundary_indices.size:
            prescribed = np.asarray(self.boundary_values(t), dtype=float)
            if prescribed.shape != (self.boundary_indices.size,):
                raise ValueError(
                    f"boundary callback returned shape {prescribed.shape}, "
                    f"expected ({self.boundary_indices.size},)"
                )
            values[self.boundary_indices] = prescribed
        return values


def solve_ivp(stepper: CollocationStepper, initial_values: np.ndarray, t_end: float) -> Trajectory:
    """Iterate u_{t+dt} = P u_t, boundary rows then set, from u_0 up to t_end.

    Returns a `Trajectory` whose `times` has shape (steps + 1,) and whose
    `values` has shape (steps + 1, n), including t=0.  No coefficients are
    kept: those of step k are `stepper.system.solve(trajectory.values[k])`.
    t_end must be a positive integer multiple of the stepper's dt.  Raises
    `DivergenceError` with `at_time` at the first step whose values are not
    finite.
    """
    n = stepper.system.n
    w = np.asarray(initial_values, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"initial values must have shape ({n},), got {w.shape}")
    steps = int(round(t_end / stepper.dt))
    if steps < 1 or abs(t_end - steps * stepper.dt) > 1e-12 * max(abs(t_end), 1.0):
        raise ValueError(f"t_end={t_end} is not a positive integer multiple of dt={stepper.dt}")

    values = np.empty((steps + 1, n))
    values[0] = w
    for k in range(1, steps + 1):
        t = k * stepper.dt
        row = values[k]
        np.dot(stepper.propagator, values[k - 1], out=row)
        stepper._apply_boundary(row, t)
        if not np.all(np.isfinite(row)):
            raise DivergenceError(f"collocation iteration diverged at t={t:.6g}", at_time=t)
    return Trajectory(np.arange(steps + 1) * stepper.dt, values)
