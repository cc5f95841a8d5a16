"""The UMTN forecaster and the simplified DRC baseline.

The model decomposes each measurement vector into RBF coefficients, pushes
them through a cascade of spatial-transformation / aggregation blocks, and
fuses the resulting per-site feature vectors over time with a shared GRU:

* spatial transformation network: one MLP, shared across every level and
  every ordered site pair, mapping (x_i, x_j, phi(||x_i - x_j||)) to
  `feature_width` values; stacking all pairs yields per-feature n x n
  matrices S_f, held as one (n F) x n operator.
* LSTB: per feature f, the transformed coefficients c + G S_f c with a
  residual connection, where G is the scaled inverse of the interpolation
  matrix.
* NAB: a small per-site MLP collapsing the feature columns back to one
  coefficient vector, enabling the next level.
* RFN: a per-site GRU over the concatenated multilevel feature vectors,
  followed by a linear readout of the next measurement.  Its weights are
  stored gate-stacked, as `ad.gru_cell` reads them: `rfn.w` = [Wz | Wr | Wh],
  `rfn.u_zr` = [Uz | Ur], `rfn.u_h` and `rfn.b` = [bz | br | bh], plus the
  readout `rfn.wo`, `rfn.bo`.

A rollout advances a batch of B sequences together: the coefficients of a
step form an n x B block, and the per-site layers run on n B rows, row
i B + b holding site i of sequence b.

All learned tensors live in a ParameterStore; a dense stack (spatial net,
NAB, DRC aggregator) as the pairs `<prefix>.w<i>`, `<prefix>.b<i>`, one per
layer of the widths its config gives.  Geometry (Phi, its scaled inverse, the
ridge-fit matrix, and the pair inputs) is precomputed per site set and shared
by every forward pass.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import interpolation
from .autodiff import ParameterStore, Tensor
from .errors import DataError, require_int
from .interpolation import SiteSet, scaled_inverse
from .kernels import RadialKernel

# Ridge parameter of the measurement-to-coefficient fit when none is given.
DEFAULT_REG_LAMBDA = 1e-2


@dataclass
class ModelConfig:
    """Layer sizing for the forecaster."""

    levels: int
    spatial_dim: int = 2
    feature_width: int = 8
    s_alpha_hidden: tuple[int, ...] = (64, 32)
    nab_hidden: int = 32
    rfn_hidden: int = 64

    def __post_init__(self):
        self.s_alpha_hidden = tuple(self.s_alpha_hidden)
        require_int("levels", self.levels, 0)
        for name in ("spatial_dim", "feature_width", "nab_hidden", "rfn_hidden"):
            require_int(name, getattr(self, name), 1)
        for i, width in enumerate(self.s_alpha_hidden):
            require_int(f"s_alpha_hidden[{i}]", width, 1)

    @property
    def s_input_width(self) -> int:
        return 2 * self.spatial_dim + 1

    @property
    def rfn_input_width(self) -> int:
        return self.feature_width * self.levels + 1

    @property
    def alpha_widths(self) -> list[int]:
        return [self.s_input_width, *self.s_alpha_hidden, self.feature_width]

    @property
    def nab_widths(self) -> list[int]:
        return [self.feature_width, self.nab_hidden, 1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


class SiteGeometry:
    """Per-site-set constants every forward pass reuses.

    Holds Phi, its scaled inverse G (max-abs entry exactly 1), the ridge-fit
    matrix mapping measurements to coefficients at the geometry's own
    `reg_lambda` (the one place lambda is kept), and the stacked spatial-net
    inputs (x_i, x_j, phi(||x_i - x_j||)) for all ordered pairs, in row-major
    pair order.
    """

    def __init__(self, kernel: RadialKernel, site_set: SiteSet, reg_lambda: float):
        system = interpolation.build_phi(kernel, site_set)
        self.kernel = kernel
        self.site_set = site_set
        self.reg_lambda = float(reg_lambda)
        self.system = system
        self.phi = system.phi
        self.scaled_inv = scaled_inverse(system)
        self.fit = system.fit_matrix(self.reg_lambda)
        pts = site_set.sites
        n = site_set.n
        phi_flat = self.phi.reshape(n * n, 1)
        self.pair_inputs = np.hstack([np.repeat(pts, n, axis=0), np.tile(pts, (n, 1)), phi_flat])
        self.site_hash = site_set.content_hash()

    @property
    def n(self) -> int:
        return self.site_set.n


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _register_mlp(store: ParameterStore, rng, prefix: str, widths: Sequence[int]) -> None:
    for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
        store.register(f"{prefix}.w{i}", glorot_uniform(rng, w_in, w_out))
        store.register(f"{prefix}.b{i}", np.zeros(w_out))


def _mlp_layers(store: ParameterStore, prefix: str, widths: Sequence[int]) -> list[tuple[Tensor, Tensor]]:
    """The (w_i, b_i) pairs `_register_mlp` registered under `prefix` for `widths`."""
    return [(store[f"{prefix}.w{i}"], store[f"{prefix}.b{i}"]) for i in range(len(widths) - 1)]


def _stacked_operator(params: ParameterStore, prefix: str, geometry: SiteGeometry, widths) -> Tensor:
    """The spatial net over every ordered site pair as one (n F) x n operator.

    Row i F + f, column j holds feature f of the pair (x_i, x_j), so one
    product with an n x B coefficient block transforms it by every S_f.
    """
    n, width = geometry.n, widths[-1]
    out = ad.mlp(Tensor(geometry.pair_inputs), _mlp_layers(params, prefix, widths))  # row i n + j
    return ad.reshape(ad.permute(ad.reshape(out, (n, n, width)), (0, 2, 1)), (n * width, n))


def lstb_forward(operator, g_matrix, coeffs) -> Tensor:
    """Transformed coefficients: column f is c + G S_f c (residual per feature).

    `operator` is the stacked (n F) x n spatial operator (row i F + f is row i
    of S_f) and `coeffs` the n x B block of one coefficient column per
    sequence.  Accepts tensors or plain arrays; returns the (n B) x F block
    whose row i B + b holds site i of sequence b.
    """
    n, batch = coeffs.shape
    transformed = ad.matmul(operator, coeffs)  # row i F + f
    width = transformed.shape[0] // n
    transformed = ad.reshape(transformed, (n, width * batch))  # column f B + b
    residual = ad.add(
        ad.reshape(ad.matmul(g_matrix, transformed), (n, width, batch)), ad.reshape(coeffs, (n, 1, batch))
    )
    return ad.reshape(ad.permute(residual, (0, 2, 1)), (n * batch, width))


def nab_forward(layers: Sequence[tuple], features) -> Tensor:
    """Per-site aggregation of an n x F feature block down to one column,
    through the dense stack `layers` = [(w0, b0), (w1, b1), ...]."""
    return ad.mlp(features, layers)


def rfn_step(params: ParameterStore, inputs, hidden) -> tuple[Tensor, Tensor]:
    """One GRU update plus the linear readout, on the store's `rfn.*` weights.

    `inputs` is (rows, input_width) and `hidden` is (rows, hidden_width);
    weights are shared across the rows (sites), each of which carries its own
    hidden state.  Returns (prediction column, new hidden state).
    """
    h_new = ad.gru_cell(inputs, hidden, params["rfn.w"], params["rfn.u_zr"], params["rfn.u_h"], params["rfn.b"])
    prediction = ad.add(ad.matmul(h_new, params["rfn.wo"]), params["rfn.bo"])
    return prediction, h_new


def _interpolate_rows(phi: Tensor, rows: Tensor, n: int) -> Tensor:
    """Phi applied to each sequence of an (n B) x K row block; same layout out."""
    total, width = rows.shape
    values = ad.matmul(phi, ad.reshape(rows, (n, total // n * width)))
    return ad.reshape(values, (total, width))


@dataclass
class RolloutResult:
    """Predictions from one rollout of a batch of B sequences.

    `all_values` covers every predicted step (hat-u_1 .. hat-u_{tau+T-1}), as
    (B, steps, n); `predictions` is the forecast block (the last T steps).
    `tensors` carries the graph-linked per-step (n, B) predictions when
    recording was on.
    """

    all_values: np.ndarray
    tau: int
    tensors: Optional[list[Tensor]] = None
    loss_start: int = 0

    @property
    def predictions(self) -> np.ndarray:
        return self.all_values[:, self.tau - 1 :]


class _RolloutInputs:
    """Validated rollout inputs, stored as (n, B) frames, plus the input policy.

    Input frames are ground truth for t < tau; beyond that, column b is the
    teacher frame when sequence b's draw for that step falls below
    `teacher_prob`, otherwise the model's previous prediction.  The draws are
    rng.random((B, horizon - 1)), the same stream as drawing sequence by
    sequence and step by step, and are taken whenever teacher frames are given.
    """

    def __init__(self, n, observed, horizon, teacher_values, teacher_prob, rng):
        observed = np.asarray(observed, dtype=float)
        if observed.ndim != 3 or observed.shape[2] != n or 0 in observed.shape[:2]:
            raise ValueError(f"observed must be (B, tau, {n}) with B, tau >= 1, got {observed.shape}")
        self.batch, self.tau = observed.shape[:2]
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not 0.0 <= teacher_prob <= 1.0:
            raise ValueError("teacher_prob must lie in [0, 1]")
        if teacher_prob > 0.0 and teacher_values is None:
            raise ValueError("teacher_prob > 0 requires teacher_values")
        self.n = n
        self.steps = self.tau + horizon - 1
        self.frames = np.ascontiguousarray(observed.transpose(1, 2, 0))
        self.teacher = self.use_teacher = None
        if teacher_values is not None:
            teacher_values = np.asarray(teacher_values, dtype=float)
            expected = (self.batch, self.steps, n)
            if teacher_values.shape != expected:
                raise ValueError(f"teacher_values must be {expected}, got {teacher_values.shape}")
            self.teacher = np.ascontiguousarray(teacher_values.transpose(1, 2, 0))
            rng = rng if rng is not None else np.random.default_rng(0)
            self.use_teacher = rng.random((self.batch, max(horizon - 1, 0))) < teacher_prob

    def frame(self, t: int, preds: list[Tensor]) -> Tensor:
        """The (n, B) input frame of step t, given the predictions so far."""
        if t < self.tau:
            return Tensor(self.frames[t])
        mask = None if self.use_teacher is None else self.use_teacher[:, t - self.tau]
        if mask is None or not mask.any():
            return preds[-1]
        if mask.all():
            return Tensor(self.teacher[t])
        return ad.add(ad.multiply(preds[-1], Tensor(~mask * 1.0)), Tensor(self.teacher[t] * mask))

    def result(self, preds: list[Tensor], record: bool, loss_start: int = 0) -> RolloutResult:
        stacked = np.stack([p.values for p in preds]) if preds else np.empty((0, self.n, self.batch))
        return RolloutResult(
            np.ascontiguousarray(stacked.transpose(2, 0, 1)),
            self.tau,
            tensors=preds if record else None,
            loss_start=loss_start,
        )


def _recording(record: bool):
    return nullcontext() if record else ad.no_grad()


class UmtnModel:
    """Multilevel spatial-transformation forecaster bound to one site set."""

    def __init__(self, config: ModelConfig, geometry: SiteGeometry, params: ParameterStore):
        if config.spatial_dim != geometry.site_set.dim:
            raise ValueError(
                f"model is {config.spatial_dim}-D but sites are {geometry.site_set.dim}-D"
            )
        self.config = config
        self.geometry = geometry
        self.params = params

    @classmethod
    def build(
        cls,
        config: ModelConfig,
        kernel: RadialKernel,
        sites: SiteSet,
        reg_lambda: float = DEFAULT_REG_LAMBDA,
        seed: int = 0,
    ) -> "UmtnModel":
        geometry = SiteGeometry(kernel, sites, reg_lambda=reg_lambda)
        params = cls.initialize_params(config, seed)
        return cls(config, geometry, params)

    @staticmethod
    def initialize_params(config: ModelConfig, seed: int) -> ParameterStore:
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        _register_mlp(store, rng, "alpha", config.alpha_widths)
        for m in range(1, config.levels + 1):
            _register_mlp(store, rng, f"nab{m}", config.nab_widths)
        w, hid = config.rfn_input_width, config.rfn_hidden
        # Drawn gate by gate (z, r, h), stored stacked as `ad.gru_cell` reads them.
        ws, us = zip(*[(glorot_uniform(rng, w, hid), glorot_uniform(rng, hid, hid)) for _ in range(3)])
        store.register("rfn.w", np.hstack(ws))
        store.register("rfn.u_zr", np.hstack(us[:2]))
        store.register("rfn.u_h", us[2])
        store.register("rfn.b", np.zeros(3 * hid))
        store.register("rfn.wo", glorot_uniform(rng, hid, 1))
        store.register("rfn.bo", np.zeros(1))
        return store

    def spatial_feature_tensors(self) -> Tensor:
        """The stacked (n F) x n spatial operator, graph-linked to the shared net."""
        return _stacked_operator(self.params, "alpha", self.geometry, self.config.alpha_widths)

    def multilevel_feature_tensor(self, c0, operator: Tensor) -> Tensor:
        """Concatenated multilevel features U = Phi [c0 | C_1 | ... | C_M].

        `c0` is the n x B block of one coefficient column per sequence and
        `operator` the stacked spatial operator (`spatial_feature_tensors()`);
        the result is (n B) x (F M + 1), row i B + b for site i of sequence b.
        The last level's aggregator output would feed no further level, so it
        is not computed.
        """
        c = c0
        n, batch = c.shape
        g = Tensor(self.geometry.scaled_inv)
        cols = [ad.reshape(c, (n * batch, 1))]
        for level in range(1, self.config.levels + 1):
            block = lstb_forward(operator, g, c)
            cols.append(block)
            if level < self.config.levels:
                layers = _mlp_layers(self.params, f"nab{level}", self.config.nab_widths)
                c = ad.reshape(nab_forward(layers, block), (n, batch))
        stacked = cols[0] if len(cols) == 1 else ad.concat(cols)
        return _interpolate_rows(Tensor(self.geometry.phi), stacked, n)

    def rollout(
        self,
        observed: np.ndarray,
        horizon: int,
        teacher_values: Optional[np.ndarray] = None,
        teacher_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        record: bool = False,
        operator: Optional[Tensor] = None,
    ) -> RolloutResult:
        """Predict hat-u_1 .. hat-u_{tau + horizon - 1} from tau observed frames.

        `observed` is a (B, tau, n) batch, rolled out as one n x B block;
        `teacher_values`, when given, holds the ground-truth input frames
        u_0 .. u_{tau+horizon-2} as (B, tau + horizon - 1, n).  Each input
        frame is ridge-fitted to coefficients, expanded through the level
        cascade, and fed to the per-site GRU, whose hidden state persists
        across the whole sequence.  Beyond tau, a sequence's
        input is its teacher frame with probability `teacher_prob` per step
        (seeded draw), otherwise the model's previous prediction.  With
        `record`, the returned result carries the prediction tensors for loss
        construction.  `operator`, when given, stands for
        `spatial_feature_tensors()`, so batches rolled out with unchanged
        parameters can share one evaluation of the spatial net.
        """
        inputs = _RolloutInputs(self.geometry.n, observed, horizon, teacher_values, teacher_prob, rng)
        n, batch = self.geometry.n, inputs.batch
        with _recording(record):
            operator = operator if operator is not None else self.spatial_feature_tensors()
            fit = Tensor(self.geometry.fit)
            hidden = Tensor(np.zeros((n * batch, self.config.rfn_hidden)))
            preds: list[Tensor] = []
            for t in range(inputs.steps):
                c0 = ad.matmul(fit, inputs.frame(t, preds))
                prediction, hidden = rfn_step(self.params, self.multilevel_feature_tensor(c0, operator), hidden)
                preds.append(ad.reshape(prediction, (n, batch)))
            return inputs.result(preds, record)


def require_same_sites(model: UmtnModel, sites: SiteSet) -> None:
    """Raise DataError unless `sites` are the sites the model was built on."""
    site_hash = sites.content_hash()
    if site_hash != model.geometry.site_hash:
        raise DataError(
            f"dataset sites (n={sites.n}, sha256 {site_hash[:12]}) do not match the model's "
            f"(n={model.geometry.n}, sha256 {model.geometry.site_hash[:12]})"
        )


@dataclass
class DrcConfig:
    """Sizing of the single-block baseline: one spatial transformation of the
    current frame plus a feed-forward aggregator over spatial features and the
    most recent raw measurements."""

    spatial_dim: int = 2
    feature_width: int = 16
    s_hidden: tuple[int, ...] = (64, 32)
    aggregator_hidden: tuple[int, ...] = (128, 64, 32)
    past_frames: int = 2

    def __post_init__(self):
        self.s_hidden = tuple(self.s_hidden)
        self.aggregator_hidden = tuple(self.aggregator_hidden)
        for name in ("spatial_dim", "feature_width", "past_frames"):
            require_int(name, getattr(self, name), 1)
        for name in ("s_hidden", "aggregator_hidden"):
            for i, width in enumerate(getattr(self, name)):
                require_int(f"{name}[{i}]", width, 1)

    @property
    def s_input_width(self) -> int:
        return 2 * self.spatial_dim + 1

    @property
    def aggregator_input_width(self) -> int:
        return self.feature_width + self.past_frames

    @property
    def s_widths(self) -> list[int]:
        return [self.s_input_width, *self.s_hidden, self.feature_width]

    @property
    def aggregator_widths(self) -> list[int]:
        return [self.aggregator_input_width, *self.aggregator_hidden, 1]


class DrcModel:
    """Single spatial block + feed-forward aggregator baseline."""

    def __init__(self, config: DrcConfig, geometry: SiteGeometry, params: ParameterStore):
        self.config = config
        self.geometry = geometry
        self.params = params

    @classmethod
    def build(cls, config: DrcConfig, kernel, sites, reg_lambda: float = DEFAULT_REG_LAMBDA, seed: int = 0):
        geometry = SiteGeometry(kernel, sites, reg_lambda=reg_lambda)
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        _register_mlp(store, rng, "spatial", config.s_widths)
        _register_mlp(store, rng, "agg", config.aggregator_widths)
        return cls(config, geometry, store)

    def spatial_feature_tensors(self) -> Tensor:
        """The stacked (n F) x n spatial operator, graph-linked to the spatial net."""
        return _stacked_operator(self.params, "spatial", self.geometry, self.config.s_widths)

    def forward(self, frames: Sequence, operator: Tensor) -> Tensor:
        """Next-step prediction from the most recent frames (current one last).

        Each frame is an (n, B) block of B sequences, `operator` the stacked
        spatial operator (`spatial_feature_tensors()`); the result is (n, B).
        The aggregator sees the spatially transformed current frame followed
        by the `past_frames` most recent raw measurements, newest first.
        """
        p = self.config.past_frames
        if len(frames) < p:
            raise ValueError(f"need at least {p} frames, got {len(frames)}")
        geom = self.geometry
        n, batch = frames[-1].shape
        c = ad.matmul(Tensor(geom.fit), frames[-1])
        block = lstb_forward(operator, Tensor(geom.scaled_inv), c)
        values = _interpolate_rows(Tensor(geom.phi), block, n)
        recent = [ad.reshape(f, (n * batch, 1)) for f in reversed(frames[-p:])]
        x = ad.concat([values, *recent])
        return ad.reshape(ad.mlp(x, _mlp_layers(self.params, "agg", self.config.aggregator_widths)), (n, batch))

    def rollout(
        self,
        observed: np.ndarray,
        horizon: int,
        teacher_values: Optional[np.ndarray] = None,
        teacher_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        record: bool = False,
        operator: Optional[Tensor] = None,
    ) -> RolloutResult:
        """Closed-loop multi-step prediction with the same inputs, input
        policy and `operator` argument as the recurrent model; predictions
        start once `past_frames` inputs exist."""
        p = self.config.past_frames
        inputs = _RolloutInputs(self.geometry.n, observed, horizon, teacher_values, teacher_prob, rng)
        if inputs.tau < p:
            raise ValueError(f"need at least {p} observed frames, got {inputs.tau}")
        with _recording(record):
            operator = operator if operator is not None else self.spatial_feature_tensors()
            placeholder = Tensor(np.zeros((self.geometry.n, inputs.batch)))
            history: list[Tensor] = []
            preds: list[Tensor] = []
            for t in range(inputs.steps):
                history.append(inputs.frame(t, preds))
                preds.append(
                    self.forward(history[-p:], operator) if len(history) >= p else placeholder
                )
            # entries before index p - 1 are placeholders, not predictions
            return inputs.result(preds, record, loss_start=p - 1)

