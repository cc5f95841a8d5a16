"""Site geometry, the RBF interpolation matrix, regularized fits, and LOOCV.

The interpolation matrix Phi has entries phi(||x_i - x_j||).  For distinct
sites and the supported kernels it is symmetric and nonsingular, so one
eigendecomposition Phi = Q diag(w) Q^T serves every use: exact interpolation
c = Q diag(1/w) Q^T u, and the ridge fit minimizing ||Phi c - u||^2 +
lambda ||c||^2, c = Q diag(w / (w^2 + lambda)) Q^T u, which is what the
learned model uses on noisy-ish measurement vectors.  The spectral filter
never forms Phi^T Phi, so the fit keeps the conditioning of Phi itself.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditioningError, DataError
from .kernels import RadialKernel, kernel_eval

# Solve reliability guards for double precision.
COND_WARN = 1e10
COND_FAIL = 1e14


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `a` (m x d) and of `b` (k x d), m x k.

    Each entry sums the squared coordinate differences in order and takes the
    root, the same operations as scipy's `cdist`, so the two agree bit for bit
    (an einsum or Gram-matrix form does not).
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


class SiteSet:
    """An ordered set of pairwise-distinct data sites in R^d."""

    def __init__(self, sites: np.ndarray):
        sites = np.ascontiguousarray(np.atleast_2d(np.asarray(sites, dtype=float)))
        if sites.ndim != 2 or sites.shape[0] == 0:
            raise ValueError(f"sites must be a nonempty n x d array, got shape {sites.shape}")
        if not np.all(np.isfinite(sites)):
            raise DataError("site coordinates contain non-finite values")
        self.sites = sites
        self._distances: np.ndarray | None = None
        if self.n > 1 and self.min_pairwise_distance() <= 0.0:
            raise DataError("data sites must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.sites.shape[0]

    @property
    def dim(self) -> int:
        return self.sites.shape[1]

    def distance_matrix(self) -> np.ndarray:
        if self._distances is None:
            self._distances = pairwise_distances(self.sites, self.sites)
        return self._distances

    def min_pairwise_distance(self) -> float:
        d = self.distance_matrix()
        if self.n < 2:
            return np.inf
        off = d[~np.eye(self.n, dtype=bool)]
        return float(off.min())

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.sites.shape).encode())
        h.update(self.sites.tobytes())
        return h.hexdigest()


class InterpolationSystem:
    """The matrix Phi for one (kernel, site set) pair and its eigendecomposition.

    Construction computes Phi = Q diag(w) Q^T once with `np.linalg.eigh`; the
    2-norm condition estimate max|w| / min|w| (guarded by COND_WARN /
    COND_FAIL), `solve`, every `fit_matrix` and the scaled inverse are all
    read from (w, Q).  Instances are immutable in practice.
    """

    def __init__(self, kernel: RadialKernel, site_set: SiteSet):
        self.kernel = kernel
        self.site_set = site_set
        self.phi = kernel_eval(kernel, site_set.distance_matrix())
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(self.phi)
        magnitudes = np.abs(self._eigenvalues)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = float(magnitudes.max() / magnitudes.min())
        if not np.isfinite(cond) or cond > COND_FAIL:
            raise ConditioningError(
                f"interpolation matrix condition estimate {cond:.3e} exceeds {COND_FAIL:.0e}",
                condition_estimate=cond,
            )
        if cond > COND_WARN:
            warnings.warn(
                f"interpolation matrix condition estimate {cond:.3e}; solves may lose accuracy",
                stacklevel=2,
            )
        self.condition_estimate = cond

    @property
    def n(self) -> int:
        return self.site_set.n

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve Phi c = rhs (exact interpolation); rhs may carry trailing columns."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {self.n}")
        q = self._eigenvectors
        return (q / self._eigenvalues) @ (q.T @ rhs)

    def fit_matrix(self, lam: float) -> np.ndarray:
        """The map u -> c minimizing ||Phi c - u||^2 + lam ||c||^2, as a dense matrix.

        Q diag(w / (w^2 + lam)) Q^T; at lam = 0 this is Phi^{-1}.
        """
        lam = float(lam)
        if lam < 0:
            raise ValueError("regularization parameter must be nonnegative")
        w, q = self._eigenvalues, self._eigenvectors
        return (q * (w / (w * w + lam))) @ q.T


def build_phi(kernel: RadialKernel, sites: SiteSet | np.ndarray) -> InterpolationSystem:
    """Assemble and factorize the interpolation system for the given sites."""
    if not isinstance(sites, SiteSet):
        sites = SiteSet(sites)
    return InterpolationSystem(kernel, sites)


def scaled_inverse(system: InterpolationSystem) -> np.ndarray:
    """Phi^{-1} divided by its largest absolute entry, so max-abs is exactly 1."""
    inverse = system.fit_matrix(0.0)
    return inverse / np.max(np.abs(inverse))


@dataclass(frozen=True)
class LoocvScore:
    kernel: RadialKernel
    mean_abs_error: float


def _loocv_snapshots(dataset) -> np.ndarray:
    """Flatten the training split into a (num_snapshots, n) array."""
    train = dataset.split_values("train")
    if train.size == 0:
        raise ValueError("dataset has an empty training split")
    return train.reshape(-1, train.shape[-1])


def loocv_select_kernel(
    candidates: Sequence[RadialKernel], dataset, seed: int
) -> tuple[RadialKernel, list[LoocvScore]]:
    """Pick the kernel with the lowest leave-one-out prediction error.

    For every training snapshot one seeded-random site k is left out; the
    remaining n-1 values are interpolated exactly and the interpolant is
    evaluated at site k.  Rippa's closed form (S. Rippa, Adv. Comput. Math. 11,
    1999) gives that error from the full system alone: it is c_k / (Phi^{-1})_kk
    with c = Phi^{-1} u, so each candidate builds Phi on all n sites once.  The
    score per candidate is the mean absolute error over all snapshots.  A
    candidate scores +inf, rather than aborting the search, when building Phi
    on all n sites raises ConditioningError or LinAlgError, or when any
    snapshot's error is non-finite.  Ties break in candidate order.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate kernel")
    sites = dataset.sites
    if sites.n < 2:
        raise ValueError("leave-one-out selection needs at least two sites")
    snapshots = _loocv_snapshots(dataset)
    rng = np.random.default_rng(seed)
    left_out = rng.integers(0, sites.n, size=snapshots.shape[0])

    scores = []
    for kernel in candidates:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scores.append(LoocvScore(kernel, _loocv_error(kernel, sites, snapshots, left_out)))
    best_idx = int(np.argmin([s.mean_abs_error for s in scores]))
    return candidates[best_idx], scores


def _loocv_error(kernel, sites, snapshots, left_out) -> float:
    try:
        inverse = build_phi(kernel, sites).fit_matrix(0.0)
    except (ConditioningError, np.linalg.LinAlgError):
        return np.inf
    coeffs = np.einsum("sj,sj->s", inverse[left_out], snapshots)
    errors = np.abs(coeffs / inverse[left_out, left_out])
    if not np.all(np.isfinite(errors)):
        return np.inf
    return float(errors.mean())
