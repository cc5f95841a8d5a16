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
  followed by a linear readout of the next measurement.

A rollout advances a batch of B sequences together: the coefficients of a
step form an n x B block, and the per-site layers run on n B rows, row
i B + b holding site i of sequence b.

All learned tensors live in a ParameterStore; geometry (Phi, its scaled
inverse, the ridge-fit matrix, and the pair inputs) is precomputed per site
set and shared by every forward pass.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .errors import ConfigError, DataError
from .interpolation import SiteSet, build_phi, scaled_inverse
from .kernels import RadialKernel


@dataclass
class ModelConfig:
    """Layer sizing for the forecaster."""

    levels: int
    spatial_dim: int = 2
    feature_width: int = 8
    s_alpha_hidden: tuple[int, int] = (64, 32)
    nab_hidden: int = 32
    rfn_hidden: int = 64

    def __post_init__(self):
        self.s_alpha_hidden = tuple(int(h) for h in self.s_alpha_hidden)
        if self.levels < 0:
            raise ConfigError("levels must be nonnegative")
        if self.spatial_dim < 1 or self.feature_width < 1:
            raise ConfigError("spatial_dim and feature_width must be positive")
        if len(self.s_alpha_hidden) != 2 or self.nab_hidden < 1 or self.rfn_hidden < 1:
            raise ConfigError("hidden layer sizes must be positive (two for the spatial net)")

    @property
    def s_input_width(self) -> int:
        return 2 * self.spatial_dim + 1

    @property
    def rfn_input_width(self) -> int:
        return self.feature_width * self.levels + 1

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

    def __init__(self, kernel: RadialKernel, site_set: SiteSet, reg_lambda: float = 1e-2):
        system = build_phi(kernel, site_set)
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


def _mlp_forward(store: ParameterStore, prefix: str, x: Tensor, n_layers: int) -> Tensor:
    """ReLU-activated hidden layers, linear output layer, as one `ad.mlp` node."""
    return ad.mlp(x, [(store[f"{prefix}.w{i}"], store[f"{prefix}.b{i}"]) for i in range(n_layers)])


def _stacked_operator(params: ParameterStore, prefix: str, geometry: SiteGeometry, width: int) -> Tensor:
    """The spatial net over every ordered site pair as one (n F) x n operator.

    Row i F + f, column j holds feature f of the pair (x_i, x_j), so one
    product with an n x B coefficient block transforms it by every S_f.
    """
    n = geometry.n
    out = _mlp_forward(params, prefix, Tensor(geometry.pair_inputs), 3)  # row i n + j
    return ad.reshape(ad.permute(ad.reshape(out, (n, n, width)), (0, 2, 1)), (n * width, n))


class RfnWeights(NamedTuple):
    """GRU weights stacked gate-wise as `ad.gru_cell` takes them, plus the readout."""

    w: Tensor  # [Wz | Wr | Wh]
    u_zr: Tensor  # [Uz | Ur]
    u_h: Tensor
    b: Tensor  # [bz | br | bh]
    wo: Tensor
    bo: Tensor

    @classmethod
    def from_gates(cls, wz, uz, bz, wr, ur, br, wh, uh, bh, wo, bo) -> "RfnWeights":
        """Stack per-gate tensors; gradients flow back to each of them."""
        return cls(ad.concat([wz, wr, wh]), ad.concat([uz, ur]), uh, ad.concat([bz, br, bh]), wo, bo)


def _as_column(x) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.values.ndim == 1:
        t = ad.reshape(t, (t.shape[0], 1))
    return t


def lstb_forward(operator, g_matrix, coeffs) -> Tensor:
    """Transformed coefficients: column f is c + G S_f c (residual per feature).

    `operator` is the stacked (n F) x n spatial operator (row i F + f is row i
    of S_f) and `coeffs` one coefficient column per sequence, (n,) or (n, B).
    Accepts tensors or plain arrays; returns the (n B) x F block whose row
    i B + b holds site i of sequence b.
    """
    c = _as_column(coeffs)
    n, batch = c.shape
    transformed = ad.matmul(operator, c)  # row i F + f
    width = transformed.shape[0] // n
    transformed = ad.reshape(transformed, (n, width * batch))  # column f B + b
    residual = ad.add(
        ad.reshape(ad.matmul(g_matrix, transformed), (n, width, batch)), ad.reshape(c, (n, 1, batch))
    )
    return ad.reshape(ad.permute(residual, (0, 2, 1)), (n * batch, width))


def nab_forward(gamma: Sequence, features) -> Tensor:
    """Per-site aggregation of an n x F feature block down to one column."""
    w0, b0, w1, b1 = gamma
    return ad.mlp(features, [(w0, b0), (w1, b1)])


def rfn_step(weights: RfnWeights, inputs, hidden) -> tuple[Tensor, Tensor]:
    """One GRU update plus the linear readout.

    `inputs` is (rows, input_width) and `hidden` is (rows, hidden_width);
    weights are shared across the rows (sites), each of which carries its own
    hidden state.  Returns (prediction column, new hidden state).
    """
    h_new = ad.gru_cell(inputs, hidden, weights.w, weights.u_zr, weights.u_h, weights.b)
    prediction = ad.add(ad.matmul(h_new, weights.wo), weights.bo)
    return prediction, h_new


def _interpolate_rows(phi: Tensor, rows: Tensor, n: int) -> Tensor:
    """Phi applied to each sequence of an (n B) x K row block; same layout out."""
    total, width = rows.shape
    values = ad.matmul(phi, ad.reshape(rows, (n, total // n * width)))
    return ad.reshape(values, (total, width))


@dataclass
class RolloutResult:
    """Predictions from one rollout of one sequence or of a batch.

    `all_values` covers every predicted step (hat-u_1 .. hat-u_{tau+T-1}), as
    (steps, n) for a single sequence or (B, steps, n) for a batch;
    `predictions` is the forecast block (the last T steps).
    `tensors` carries the graph-linked per-step (n, B) predictions when
    recording was on.
    """

    all_values: np.ndarray
    tau: int
    tensors: Optional[list[Tensor]] = None
    loss_start: int = 0

    @property
    def predictions(self) -> np.ndarray:
        return self.all_values[..., self.tau - 1 :, :]


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
        if observed.ndim not in (2, 3) or observed.shape[-1] != n or observed.shape[-2] < 1:
            raise ValueError(f"observed must be (tau, {n}) or (B, tau, {n}), got {observed.shape}")
        self.batched = observed.ndim == 3
        observed = observed if self.batched else observed[None]
        self.batch, self.tau = observed.shape[:2]
        if self.batch < 1 or horizon < 0:
            raise ValueError("need at least one sequence and horizon >= 0")
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
            expected = (self.batch, self.steps, n) if self.batched else (self.steps, n)
            if teacher_values.shape != expected:
                raise ValueError(f"teacher_values must be {expected}, got {teacher_values.shape}")
            teacher = teacher_values if self.batched else teacher_values[None]
            self.teacher = np.ascontiguousarray(teacher.transpose(1, 2, 0))
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
        all_values = np.ascontiguousarray(stacked.transpose(2, 0, 1))
        return RolloutResult(
            all_values if self.batched else all_values[0],
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
        reg_lambda: float = 1e-2,
        seed: int = 0,
    ) -> "UmtnModel":
        geometry = SiteGeometry(kernel, sites, reg_lambda=reg_lambda)
        params = cls.initialize_params(config, seed)
        return cls(config, geometry, params)

    @staticmethod
    def initialize_params(config: ModelConfig, seed: int) -> ParameterStore:
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        f = config.feature_width
        h1, h2 = config.s_alpha_hidden
        _register_mlp(store, rng, "alpha", [config.s_input_width, h1, h2, f])
        for m in range(1, config.levels + 1):
            _register_mlp(store, rng, f"nab{m}", [f, config.nab_hidden, 1])
        w = config.rfn_input_width
        hid = config.rfn_hidden
        for gate in ("z", "r", "h"):
            store.register(f"rfn.w{gate}", glorot_uniform(rng, w, hid))
            store.register(f"rfn.u{gate}", glorot_uniform(rng, hid, hid))
            store.register(f"rfn.b{gate}", np.zeros(hid))
        store.register("rfn.wo", glorot_uniform(rng, hid, 1))
        store.register("rfn.bo", np.zeros(1))
        return store

    def _rfn_weights(self) -> RfnWeights:
        p = self.params
        return RfnWeights.from_gates(
            p["rfn.wz"], p["rfn.uz"], p["rfn.bz"],
            p["rfn.wr"], p["rfn.ur"], p["rfn.br"],
            p["rfn.wh"], p["rfn.uh"], p["rfn.bh"],
            p["rfn.wo"], p["rfn.bo"],
        )

    def nab_weights(self, level: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        p = self.params
        return (p[f"nab{level}.w0"], p[f"nab{level}.b0"], p[f"nab{level}.w1"], p[f"nab{level}.b1"])

    def spatial_feature_tensors(self) -> Tensor:
        """The stacked (n F) x n spatial operator, graph-linked to the shared net."""
        return _stacked_operator(self.params, "alpha", self.geometry, self.config.feature_width)

    def multilevel_feature_tensor(self, c0, operator=None) -> Tensor:
        """Concatenated multilevel features U = Phi [c0 | C_1 | ... | C_M].

        `c0` holds one coefficient column per sequence, (n,) or (n, B); the
        result is (n B) x (F M + 1), row i B + b for site i of sequence b.  The
        last level's aggregator output would feed no further level, so it is
        not computed.
        """
        op = operator if operator is not None else self.spatial_feature_tensors()
        c = _as_column(c0)
        n, batch = c.shape
        g = Tensor(self.geometry.scaled_inv)
        cols = [ad.reshape(c, (n * batch, 1))]
        for level in range(1, self.config.levels + 1):
            block = lstb_forward(op, g, c)
            cols.append(block)
            if level < self.config.levels:
                c = ad.reshape(nab_forward(self.nab_weights(level), block), (n, batch))
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

        `observed` is (tau, n) for one sequence or (B, tau, n) for a batch,
        which is rolled out as one n x B block; `teacher_values`, when given,
        holds the ground-truth input frames u_0 .. u_{tau+horizon-2} in the same
        layout.  Each input frame is ridge-fitted to coefficients, expanded
        through the level cascade, and fed to the per-site GRU, whose hidden
        state persists across the whole sequence.  Beyond tau, a sequence's
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
            weights = self._rfn_weights()
            hidden = Tensor(np.zeros((n * batch, self.config.rfn_hidden)))
            preds: list[Tensor] = []
            for t in range(inputs.steps):
                c0 = ad.matmul(fit, inputs.frame(t, preds))
                prediction, hidden = rfn_step(weights, self.multilevel_feature_tensor(c0, operator), hidden)
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
    s_hidden: tuple[int, int] = (64, 32)
    aggregator_hidden: tuple[int, int, int] = (128, 64, 32)
    past_frames: int = 2

    def __post_init__(self):
        self.s_hidden = tuple(int(h) for h in self.s_hidden)
        self.aggregator_hidden = tuple(int(h) for h in self.aggregator_hidden)
        if self.past_frames < 1:
            raise ConfigError("past_frames must be >= 1")

    @property
    def s_input_width(self) -> int:
        return 2 * self.spatial_dim + 1

    @property
    def aggregator_input_width(self) -> int:
        return self.feature_width + self.past_frames



class DrcModel:
    """Single spatial block + feed-forward aggregator baseline."""

    def __init__(self, config: DrcConfig, geometry: SiteGeometry, params: ParameterStore):
        self.config = config
        self.geometry = geometry
        self.params = params

    @classmethod
    def build(cls, config: DrcConfig, kernel, sites, reg_lambda: float = 1e-2, seed: int = 0):
        geometry = SiteGeometry(kernel, sites, reg_lambda=reg_lambda)
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        _register_mlp(store, rng, "spatial", [config.s_input_width, *config.s_hidden, config.feature_width])
        _register_mlp(store, rng, "agg", [config.aggregator_input_width, *config.aggregator_hidden, 1])
        return cls(config, geometry, store)

    def spatial_feature_tensors(self) -> Tensor:
        """The stacked (n F) x n spatial operator, graph-linked to the spatial net."""
        return _stacked_operator(self.params, "spatial", self.geometry, self.config.feature_width)

    def forward(self, frames: Sequence, operator=None) -> Tensor:
        """Next-step prediction from the most recent frames (current one last).

        Each frame is an n-vector or an (n, B) block of B sequences; the result
        is (n, B).  The aggregator sees the spatially transformed current frame
        followed by the `past_frames` most recent raw measurements, newest
        first.
        """
        p = self.config.past_frames
        frames = [_as_column(f) for f in frames]
        if len(frames) < p:
            raise ValueError(f"need at least {p} frames, got {len(frames)}")
        operator = operator if operator is not None else self.spatial_feature_tensors()
        geom = self.geometry
        n, batch = frames[-1].shape
        c = ad.matmul(Tensor(geom.fit), frames[-1])
        block = lstb_forward(operator, Tensor(geom.scaled_inv), c)
        values = _interpolate_rows(Tensor(geom.phi), block, n)
        recent = [ad.reshape(f, (n * batch, 1)) for f in reversed(frames[-p:])]
        x = ad.concat([values, *recent])
        return ad.reshape(_mlp_forward(self.params, "agg", x, 4), (n, batch))

    def rollout(
        self,
        observed: np.ndarray,
        horizon: int,
        teacher_values: Optional[np.ndarray] = None,
        teacher_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        record: bool = False,
    ) -> RolloutResult:
        """Closed-loop multi-step prediction with the same inputs and input
        policy as the recurrent model; predictions start once `past_frames`
        inputs exist."""
        p = self.config.past_frames
        inputs = _RolloutInputs(self.geometry.n, observed, horizon, teacher_values, teacher_prob, rng)
        if inputs.tau < p:
            raise ValueError(f"need at least {p} observed frames, got {inputs.tau}")
        with _recording(record):
            operator = self.spatial_feature_tensors()
            placeholder = Tensor(np.zeros((self.geometry.n, inputs.batch)))
            history: list[Tensor] = []
            preds: list[Tensor] = []
            for t in range(inputs.steps):
                history.append(inputs.frame(t, preds))
                preds.append(
                    self.forward(history[-p:], operator=operator) if len(history) >= p else placeholder
                )
            # entries before index p - 1 are placeholders, not predictions
            return inputs.result(preds, record, loss_start=p - 1)

