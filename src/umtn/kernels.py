"""Radial kernel families and the derivative quantities needed for collocation.

Each kernel is a radially symmetric function phi(r).  Besides point values,
collocation needs the action of a linear differential operator on the kernel,
which reduces to three radial quantities: phi(r), phi'(r)/r, and phi''(r).
All three are implemented in closed form per family and evaluated with numpy,
so they accept scalars or arrays of distances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class KernelFamily(str, enum.Enum):
    MULTIQUADRIC = "multiquadric"
    INVERSE_MULTIQUADRIC = "inverse_multiquadric"
    GAUSSIAN = "gaussian"
    THIN_PLATE_SPLINE = "thin_plate_spline"


@dataclass(frozen=True)
class RadialKernel:
    """A radial basis function phi(r) with shape parameter epsilon.

    Conventions: multiquadric sqrt(r^2 + eps^2), inverse multiquadric
    1/sqrt(r^2 + eps^2), gaussian exp(-(eps*r)^2), thin-plate spline
    r^2 log r with the limit value 0 at r=0 (epsilon unused).
    """

    family: KernelFamily
    epsilon: float = 1.0

    def __post_init__(self):
        family = KernelFamily(self.family)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if family is not KernelFamily.THIN_PLATE_SPLINE and not self.epsilon > 0:
            raise ValueError(f"shape parameter must be positive, got {self.epsilon}")

    def to_dict(self) -> dict:
        return {"family": self.family.value, "epsilon": self.epsilon}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialKernel":
        return cls(KernelFamily(data["family"]), float(data["epsilon"]))


@dataclass(frozen=True)
class LinearOperatorSpec:
    """Coefficient fields of a linear spatial operator a.grad + c*laplacian + reaction.

    Callbacks take a single point (length-d array) and return the convection
    vector, the scalar diffusion coefficient, and the scalar reaction
    coefficient.  ``None`` means the term is absent.
    """

    convection: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion: Optional[Callable[[np.ndarray], float]] = None
    reaction: Optional[Callable[[np.ndarray], float]] = None


def _radial_parts(kernel: RadialKernel, r: np.ndarray):
    """Return (phi, phi'/r, phi'') at the distances r.

    phi'/r is returned instead of phi' because it is the quantity that stays
    finite at r=0 for the smooth families, and the gradient is (phi'/r) * v.
    """
    eps = kernel.epsilon
    family = kernel.family
    if family is KernelFamily.MULTIQUADRIC:
        phi = np.sqrt(r * r + eps * eps)
        return phi, 1.0 / phi, (eps * eps) / phi**3
    if family is KernelFamily.INVERSE_MULTIQUADRIC:
        s = r * r + eps * eps
        phi = s**-0.5
        return phi, -(s**-1.5), -(s**-1.5) + 3.0 * r * r * s**-2.5
    if family is KernelFamily.GAUSSIAN:
        e2 = eps * eps
        phi = np.exp(-e2 * r * r)
        return phi, -2.0 * e2 * phi, (-2.0 * e2 + 4.0 * e2 * e2 * r * r) * phi
    # thin-plate spline: r^2 log r; singular derivative quantities at r=0
    with np.errstate(divide="ignore", invalid="ignore"):
        logr = np.log(r)
        phi = np.where(r > 0, r * r * logr, 0.0)
        por = 2.0 * logr + 1.0
        second = 2.0 * logr + 3.0
    return phi, por, second


def kernel_eval(kernel: RadialKernel, r) -> np.ndarray:
    """Evaluate phi(r); r may be a scalar or an array of nonnegative distances."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distance must be nonnegative")
    phi, _, _ = _radial_parts(kernel, r)
    return phi if phi.ndim else float(phi)
