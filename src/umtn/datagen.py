"""Synthetic convection-diffusion benchmark: simulation and dataset assembly.

The benchmark PDE is du/dt = [a, b].grad(u) + c*laplacian(u) on [0, 2*pi]^2
with variable coefficient fields and a random Fourier-series initial
condition.  Snapshots are produced on a regular periodic grid by
method-of-lines RK4 over second-order central differences, then subsampled at
a fixed set of data sites to form measurement sequences.

The PDE is linear and its coefficients do not depend on time, so a classical
RK4 step equals its degree-4 Taylor polynomial; `_simulate_batch` evaluates it
in Horner form, four in-place stencil applications per substep over
preallocated work arrays.  `generate_dataset` integrates sequences in chunks
of about CHUNK_VALUES grid values, so the work arrays stay in cache, and stops
at the last snapshot it keeps: the final one at t_end is never computed.  It
builds the Fourier basis of the initial conditions once per call and keeps
nothing once it returns.

The substep count defaults to the fewest the grid's diffusion stability bound
allows (see `ConvDiffConfig`): 1 at g=12, 2 at g=50.  The time error that
leaves is far below the O(h^2) error of the central differences: the max gap
to a 40-substep reference over t_end 0.2 is 2.9e-5 at g=12 (fields of max
about 11) and 3.5e-4 at g=50 (max about 13).  Seeded datasets generated with
the default therefore differ from those of the former fixed default of 10
substeps by at most those gaps; an explicit `substeps_per_output` of 10
reproduces them bit for bit.  Saved datasets hold no generator settings and
load unchanged.

Boundary treatment: the initial condition is 2*pi-periodic by construction,
so the grid is periodic (the 2*pi edge wraps to 0).  This choice affects the
generated numbers and is deliberate.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DivergenceError, require_int
from .interpolation import SiteSet

# Highest Fourier mode index of the random initial condition (inclusive).
MAX_MODE = 9
# Variance of the normal distribution the Fourier coefficients are drawn from;
# read as a variance, not a standard deviation.
COEFF_VARIANCE = 0.02
# Largest diffusion coefficient of the benchmark fields, for the stability bound.
MAX_DIFFUSION = 0.5


def _min_substeps(dt_out: float, h: float) -> int:
    """Fewest RK4 substeps per output step under the diffusion stability bound.

    An explicit step on grid spacing h is stable for dt < h^2 / (4 * MAX_DIFFUSION);
    floor(dt_out / bound) + 1 is the least n with dt_out / n below it.
    """
    bound = h * h / (4.0 * MAX_DIFFUSION)
    if bound == 0.0:
        raise ConfigError(f"'grid_size' gives a grid spacing of {h:.3e}, too fine for any stable step")
    return math.floor(dt_out / bound) + 1


@dataclass
class ConvDiffConfig:
    """Generation settings for the convection-diffusion benchmark.

    `substeps_per_output` left as None resolves to the fewest RK4 substeps
    that the grid's diffusion stability bound allows (`_min_substeps`): 1 on
    a 12x12 or 16x16 grid, 2 on 50x50 and 6 on 100x100 at dt_out 0.01.  An
    explicit count is kept as given, and rejected below that minimum.
    """

    grid_size: int = 50
    dt_out: float = 0.01
    t_end: float = 0.2
    n_sites: int = 250
    n_sequences: int = 1000
    split: tuple[int, int, int] = (700, 150, 150)
    substeps_per_output: int | None = None
    seed: int = 0

    def __post_init__(self):
        # Field types and ranges first: every later check does arithmetic on them.
        require_int("grid_size", self.grid_size, 2)
        require_int("n_sites", self.n_sites, 1)
        require_int("n_sequences", self.n_sequences, 1)
        require_int("seed", self.seed, 0)
        for name in ("dt_out", "t_end"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name!r} must be a finite positive number, got {value!r}")
        self.split = tuple(self.split)
        for count in self.split:
            require_int("split", count, 1)
        n_out = self.t_end / self.dt_out
        if abs(n_out - round(n_out)) > 1e-9 * max(n_out, 1.0):
            raise ConfigError(f"t_end={self.t_end} is not an integer multiple of dt_out={self.dt_out}")
        minimum = _min_substeps(self.dt_out, self.grid_spacing)
        if self.substeps_per_output is None:
            self.substeps_per_output = minimum
        require_int("substeps_per_output", self.substeps_per_output, 1)
        if self.substeps_per_output < minimum:
            raise ConfigError(
                f"internal step {self.dt_internal:.3e} violates the diffusion stability bound; "
                f"substeps_per_output must be at least {minimum}"
            )
        if len(self.split) != 3:
            raise ConfigError("split must be three positive counts")
        if sum(self.split) != self.n_sequences:
            raise ConfigError(
                f"split {self.split} sums to {sum(self.split)}, expected n_sequences={self.n_sequences}"
            )
        if self.n_sites > self.grid_size**2:
            raise ConfigError(
                f"n_sites={self.n_sites} exceeds the {self.grid_size}x{self.grid_size} grid"
            )

    @property
    def grid_spacing(self) -> float:
        return 2.0 * math.pi / self.grid_size

    @property
    def dt_internal(self) -> float:
        return self.dt_out / self.substeps_per_output

    @property
    def n_outputs(self) -> int:
        """Snapshots after t=0; the emitted series has n_outputs+1 entries."""
        return int(round(self.t_end / self.dt_out))


def grid_coordinates(grid_size: int) -> np.ndarray:
    """Node coordinates of the periodic grid along either axis; 2*pi is identified with 0."""
    return np.arange(grid_size) * (2.0 * math.pi / grid_size)


def _field_grids(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The convection components a, b and diffusion c at every grid node."""
    x = grid_coordinates(grid_size)
    X, Y = np.meshgrid(x, x, indexing="ij")
    a = 0.5 * (np.cos(Y) + X * (2.0 * np.pi - X) * np.sin(X)) + 0.6
    b = 2.0 * (np.cos(Y) + np.sin(X)) + 0.8
    c = 0.5 * (1.0 - np.sqrt((X - np.pi) ** 2 + (Y - np.pi) ** 2) / (np.sqrt(2.0) * np.pi))
    return a, b, c


def _mode_bases(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of k*x + l*y for every mode |k|,|l| <= MAX_MODE.

    Each is ((2 MAX_MODE + 1)^2, g^2): row (k + MAX_MODE)(2 MAX_MODE + 1) +
    l + MAX_MODE holds the mode (k, l), column i g + j the node (x_i, y_j).
    """
    x = grid_coordinates(grid_size)
    X, Y = np.meshgrid(x, x, indexing="ij")
    modes = np.arange(-MAX_MODE, MAX_MODE + 1)
    K, L = np.meshgrid(modes, modes, indexing="ij")
    angles = np.multiply.outer(K.ravel(), X.ravel()) + np.multiply.outer(L.ravel(), Y.ravel())
    return np.cos(angles), np.sin(angles)


def _initial_field(rng: np.random.Generator, bases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A random 2*pi-periodic initial condition, flattened over the grid.

    Draws the cosine coefficients lambda_kl, then the sine coefficients
    zeta_kl, each (2 MAX_MODE + 1)^2 normal values of variance COEFF_VARIANCE
    indexed [k + MAX_MODE, l + MAX_MODE], and sums
    lambda_kl cos(k x + l y) + zeta_kl sin(k x + l y) over `bases` (see `_mode_bases`).
    """
    size = 2 * MAX_MODE + 1
    std = math.sqrt(COEFF_VARIANCE)
    lam = rng.normal(0.0, std, size=(size, size))
    zeta = rng.normal(0.0, std, size=(size, size))
    cos_basis, sin_basis = bases
    return lam.ravel() @ cos_basis + zeta.ravel() @ sin_basis


# Working-set budget of one generation chunk, in grid values.  A chunk's state
# and work arrays then stay in cache: about 10 sequences on a 50x50 grid.
CHUNK_VALUES = 25_000


def _stencil_weights(config: ConvDiffConfig) -> np.ndarray:
    """Per-node weights of the x+, x-, y+ and y- neighbours, stacked (4, g, g).

    With them L(u) = sum_d w_d (u_d - u) equals a*u_x + b*u_y + c*laplacian(u)
    under periodic second-order central differences.  The x- and y- weights
    are stored negated because `_Workspace` multiplies them with forward
    differences.
    """
    a, b, c = _field_grids(config.grid_size)
    h = config.grid_spacing
    diffusion = c / (h * h)
    ax, by = a / (2.0 * h), b / (2.0 * h)
    return np.stack([diffusion + ax, ax - diffusion, diffusion + by, by - diffusion])


class _Workspace:
    """Preallocated arrays for applying L to a stack of `batch` fields.

    Fields are held padded, as (batch, g + 2, g + 2) with a periodic halo, and
    every full-size pass runs over the flattened padded layout: a neighbour is
    then a fixed flat offset (1 along y, g + 2 along x) and each pass is one
    contiguous loop.  Only the interior of a result is meaningful.

    `apply` refreshes the halo of `field`, takes the forward differences dx
    and dy once, and sums w_x+ dx(p) + w_x- dx(p - x) + w_y+ dy(p) + w_y- dy(p - y)
    with the negated x- and y- weights.  That is sum_d w_d (u_d - u) bit for
    bit, so a constant field, whose differences are all exactly zero, is an
    exact fixed point.
    """

    def __init__(self, weights: np.ndarray, batch: int):
        g = weights.shape[-1]
        row = g + 2
        shape = (batch, row * row)
        padded = np.zeros((4, row, row))
        padded[:, 1:-1, 1:-1] = weights
        # The padded fields, flat, with one row's margin at either end.
        self.buffer = np.zeros(batch * row * row + 2 * row)
        self.field = self.buffer[row:-row].reshape(batch, row, row)
        self.dx = np.empty(self.buffer.size - row)  # dx[k] = buffer[k + row] - buffer[k]
        self.dy = np.empty(self.buffer.size - 2 * row + 1)  # dy[k] = buffer[row + k] - buffer[row + k - 1]
        neighbours = (self.dx[row:], self.dx[:-row], self.dy[1:], self.dy[:-1])
        self.terms = [(w.reshape(-1), d.reshape(shape)) for w, d in zip(padded, neighbours)]
        self.row = row
        self.out = np.empty(shape)
        self.term = np.empty(shape)

    def apply(self) -> np.ndarray:
        """L of `field`, padded like it; written into `out`."""
        f, buf, row, out, term = self.field, self.buffer, self.row, self.out, self.term
        f[:, 0, 1:-1] = f[:, -2, 1:-1]
        f[:, -1, 1:-1] = f[:, 1, 1:-1]
        f[:, 1:-1, 0] = f[:, 1:-1, -2]
        f[:, 1:-1, -1] = f[:, 1:-1, 1]
        np.subtract(buf[row:], buf[:-row], out=self.dx)
        np.subtract(buf[row : 1 - row], buf[row - 1 : -row], out=self.dy)
        (weight, diff), *rest = self.terms
        np.multiply(weight, diff, out=out)
        for weight, diff in rest:
            np.multiply(weight, diff, out=term)
            out += term
        return out.reshape(f.shape)


def _simulate_batch(config: ConvDiffConfig, initial: np.ndarray, n_outputs: int | None = None) -> np.ndarray:
    """RK4 snapshots for a (batch, g, g) stack of initial fields.

    Returns (batch, n_outputs + 1, g, g) including the t=0 field; n_outputs
    defaults to config.n_outputs.  Each substep is the RK4 step in Horner form
    (see the module docstring), four stencil applications with no k1..k4:

        u + dt L(u + dt/2 L(u + dt/3 L(u + dt/4 L u)))

    L is evaluated at full scale and then multiplied by dt/j, so an
    overflowing state turns non-finite and raises DivergenceError.  Per-slice
    results are identical however the batch is chunked: every operation is
    elementwise or a same-shaped stencil shift.
    """
    g = config.grid_size
    if initial.shape[-2:] != (g, g):
        raise ValueError(f"initial field shape {initial.shape[-2:]} does not match grid {g}x{g}")
    n_outputs = config.n_outputs if n_outputs is None else n_outputs
    dt = config.dt_internal
    initial = np.asarray(initial, dtype=float).reshape(-1, g, g)
    work = _Workspace(_stencil_weights(config), initial.shape[0])
    u = np.zeros(work.field.shape)
    interior = u[:, 1:-1, 1:-1]
    interior[...] = initial
    out = np.empty((initial.shape[0], n_outputs + 1, g, g))
    out[:, 0] = initial
    for step in range(n_outputs):
        for _ in range(config.substeps_per_output):
            work.field[...] = u
            for j in (4, 3, 2):
                lu = work.apply()
                lu *= dt / j
                np.add(u, lu, out=work.field)
            lu = work.apply()
            lu *= dt
            u += lu
        if not np.all(np.isfinite(interior)):
            t_bad = (step + 1) * config.dt_out
            raise DivergenceError(f"simulation produced non-finite values at t={t_bad:.4g}", at_time=t_bad)
        out[:, step + 1] = interior
    return out


class SequenceDataset:
    """Measurement sequences over a shared site set, with a fixed split.

    ``sequences`` has shape (N, length, n).  Split assignment is sequential by
    sequence index: the first `split[0]` sequences are training, then
    validation, then test.  Normalization statistics are always those of the
    raw training split; `normalized` records whether `sequences` currently
    holds raw or normalized values.
    """

    SPLITS = ("train", "val", "test")

    def __init__(
        self,
        sites: SiteSet,
        sequences: np.ndarray,
        split: tuple[int, int, int],
        tau: int,
        mean: float | None = None,
        variance: float | None = None,
        normalized: bool = False,
        seed: int | None = None,
    ):
        sequences = np.ascontiguousarray(np.asarray(sequences, dtype=float))
        if sequences.ndim != 3:
            raise ValueError(f"sequences must be (N, length, n), got shape {sequences.shape}")
        if sequences.shape[2] != sites.n:
            raise ValueError(
                f"sequences cover {sequences.shape[2]} sites, site set has {sites.n}"
            )
        if not np.all(np.isfinite(sequences)):
            raise DataError("sequences contain non-finite values")
        for count in split:
            require_int("split", count, 0)
        require_int("tau", tau, 1)
        split = tuple(int(s) for s in split)  # plain ints, so the manifest can hold them
        if len(split) != 3 or sum(split) != sequences.shape[0]:
            raise ValueError(f"split {split} does not partition {sequences.shape[0]} sequences")
        if tau >= sequences.shape[1]:
            raise ValueError(f"tau={tau} must lie in [1, sequence_length)")
        self.sites = sites
        self.sequences = sequences
        self.split = split
        self.tau = int(tau)
        self.normalized = bool(normalized)
        self.seed = seed
        if mean is None:
            train = self.split_values("train")
            mean = float(train.mean()) if train.size else 0.0
            variance = float(train.var()) if train.size else 1.0
        self.mean = float(mean)
        self.variance = float(variance)

    @property
    def n_sequences(self) -> int:
        return self.sequences.shape[0]

    @property
    def sequence_length(self) -> int:
        return self.sequences.shape[1]

    @property
    def horizon(self) -> int:
        """Forecast steps implied by the sequence length and tau."""
        return self.sequence_length - self.tau

    def split_indices(self, name: str) -> np.ndarray:
        if name not in self.SPLITS:
            raise ValueError(f"unknown split {name!r}")
        offsets = np.concatenate([[0], np.cumsum(self.split)])
        i = self.SPLITS.index(name)
        return np.arange(offsets[i], offsets[i + 1])

    def split_values(self, name: str) -> np.ndarray:
        return self.sequences[self.split_indices(name)]

    def _std(self) -> float:
        std = math.sqrt(self.variance)
        if std == 0.0:
            warnings.warn("training split has zero variance; dividing by 1", RuntimeWarning)
            std = 1.0
        return std

    def normalize(self) -> "SequenceDataset":
        """Shift and scale every split by the raw training split's mean and std."""
        if self.normalized:
            return self
        scaled = (self.sequences - self.mean) / self._std()
        return SequenceDataset(
            self.sites,
            scaled,
            self.split,
            self.tau,
            mean=self.mean,
            variance=self.variance,
            normalized=True,
            seed=self.seed,
        )

    def denormalize_values(self, values: np.ndarray) -> np.ndarray:
        """Map normalized measurements back to the raw scale."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.asarray(values) * self._std() + self.mean


def generate_dataset(config: ConvDiffConfig, tau: int = 5) -> SequenceDataset:
    """Simulate independent sequences and subsample them at shared random sites.

    Deterministic per config.seed: the site choice and each sequence's initial
    condition come from seeds spawned off the master seed, so chunking does
    not change the result.  A chunk holds max(1, CHUNK_VALUES // g^2)
    sequences.  The integration stops at the last kept snapshot.
    """
    g = config.grid_size
    master = np.random.SeedSequence(config.seed)
    site_seed, ic_root = master.spawn(2)
    site_rng = np.random.default_rng(site_seed)
    site_idx = site_rng.choice(g * g, size=config.n_sites, replace=False)
    coords = np.stack(np.unravel_index(site_idx, (g, g)), axis=1) * config.grid_spacing
    sites = SiteSet(coords)

    ic_seeds = ic_root.spawn(config.n_sequences)
    length = config.n_outputs  # the trailing snapshot at t_end is dropped
    flat_idx = np.asarray(site_idx)
    bases = _mode_bases(g)
    chunk_size = max(1, CHUNK_VALUES // (g * g))
    sequences = np.empty((config.n_sequences, length, config.n_sites))
    for start in range(0, config.n_sequences, chunk_size):
        stop = min(start + chunk_size, config.n_sequences)
        fields = np.stack([_initial_field(np.random.default_rng(s), bases) for s in ic_seeds[start:stop]])
        # The first `length` snapshots: t=0 .. t_end - dt_out.
        snaps = _simulate_batch(config, fields.reshape(-1, g, g), n_outputs=length - 1)
        sequences[start:stop] = snaps.reshape(stop - start, length, g * g)[:, :, flat_idx]
    return SequenceDataset(sites, sequences, config.split, tau=tau, seed=config.seed)
