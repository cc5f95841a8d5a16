"""Forecast scoring: normalized MAE, repeated-run aggregation, persistence.

All scores are computed on normalized measurements (training-split mean and
std).  A "run" is one independently trained model; passing several gives the
mean and sample standard deviation across them, matching the
repeat-three-times reporting convention.

Forecasts run graph-free in blocks of at most FORECAST_ROWS rows (sites x
sequences), so the transient memory of scoring a split does not grow with
its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .autodiff import no_grad
from .datagen import SequenceDataset
from .errors import ConfigError
from .model import DrcModel, UmtnModel, require_same_sites


# Rows (sites x sequences) of one forecast block.  A block's graph-free
# rollout holds the GRU state (rows x 64) and a few arrays of level features
# (rows x 8 per level) at once; the GRU's gates and the NAB's hidden layer take
# one row block of autodiff.ROW_BLOCK_VALUES values each, whatever the row
# count.  4096 rows are 22 sequences at 180 sites and 64 at 64 sites.
FORECAST_ROWS = 4096


def forecast(model: Union[UmtnModel, DrcModel], observed: np.ndarray, horizon: int) -> np.ndarray:
    """Closed-loop (teacher_prob = 0) forecasts of (N, tau, n) observed frames.

    The sequences are rolled out in blocks of max(1, FORECAST_ROWS // n),
    which share one evaluation of the spatial net; returns the (N, horizon, n)
    predicted steps.
    """
    observed = np.asarray(observed, dtype=float)
    per_block = max(1, FORECAST_ROWS // model.geometry.n)
    predictions = np.empty((observed.shape[0], horizon, model.geometry.n))
    with no_grad():
        operator = model.spatial_feature_tensors()
    for start in range(0, observed.shape[0], per_block):
        stop = start + per_block
        predictions[start:stop] = model.rollout(observed[start:stop], horizon, operator=operator).predictions
    return predictions


def mae(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean absolute error (1 / (T n)) sum_t sum_j |truth - pred|."""
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {pred.shape}")
    return float(np.mean(np.abs(truth - pred)))


@dataclass
class EvalReport:
    """Aggregated forecast errors for one protocol.

    `per_run` holds one split-averaged MAE per trained model; `per_step` and
    `per_site` break the same absolute errors down by forecast step and by
    site, so each averages back to `mae_mean`.  `mae_std` is the sample
    standard deviation (n - 1); with a single run it is 0 by convention and
    `std_degenerate` is set.
    """

    mae_mean: float
    mae_std: float
    per_run: list[float]
    per_step: np.ndarray
    per_site: np.ndarray
    tau: int
    horizon: int
    n_runs: int
    std_degenerate: bool
    split: str

    def to_dict(self) -> dict:
        return {
            "mae_mean": self.mae_mean,
            "mae_std": self.mae_std,
            "per_run": list(self.per_run),
            "per_step": [float(v) for v in self.per_step],
            "per_site": [float(v) for v in self.per_site],
            "protocol": {
                "tau": self.tau,
                "horizon": self.horizon,
                "n_runs": self.n_runs,
                "split": self.split,
            },
            "std_degenerate": self.std_degenerate,
        }


def _aggregate(abs_errors: np.ndarray, tau: int, horizon: int, split: str) -> EvalReport:
    """Build a report from |error| of shape (runs, sequences, T, n)."""
    per_run = [float(np.mean(run)) for run in abs_errors]
    n_runs = len(per_run)
    mean = float(np.mean(per_run))
    degenerate = n_runs < 2
    std = 0.0 if degenerate else float(np.std(per_run, ddof=1))
    return EvalReport(
        mae_mean=mean,
        mae_std=std,
        per_run=per_run,
        per_step=np.mean(abs_errors, axis=(0, 1, 3)),
        per_site=np.mean(abs_errors, axis=(0, 1, 2)),
        tau=tau,
        horizon=horizon,
        n_runs=n_runs,
        std_degenerate=degenerate,
        split=split,
    )


def evaluate_model(
    models: Union[UmtnModel, DrcModel, Sequence[Union[UmtnModel, DrcModel]]],
    dataset: SequenceDataset,
    split: str = "test",
) -> EvalReport:
    """Closed-loop MAE of one or more trained models over a split.

    Each model forecasts the whole split (`forecast`); per-sequence errors
    are averaged into one MAE per model, then aggregated across models.
    Parameters are never modified.
    """
    if isinstance(models, (UmtnModel, DrcModel)):
        models = [models]
    if not models:
        raise ValueError("need at least one model")
    dataset = dataset.normalize()
    values = dataset.split_values(split)
    if values.shape[0] == 0:
        raise ConfigError(f"{split} split is empty")
    tau, horizon = dataset.tau, dataset.horizon
    for model in models:
        require_same_sites(model, dataset.sites)

    errors = np.empty((len(models), values.shape[0], horizon, dataset.sites.n))
    for r, model in enumerate(models):
        errors[r] = np.abs(values[:, tau:] - forecast(model, values[:, :tau], horizon))
    return _aggregate(errors, tau, horizon, split)


def persistence_baseline(dataset: SequenceDataset, split: str = "test") -> EvalReport:
    """Score the frozen-last-observation forecast hat-u_t = u_{tau-1}."""
    dataset = dataset.normalize()
    tau = dataset.tau
    values = dataset.split_values(split)
    if values.shape[0] == 0:
        raise ConfigError(f"{split} split is empty")
    frozen = values[:, tau - 1 : tau, :]  # (N, 1, n), broadcast over steps
    errors = np.abs(values[:, tau:, :] - frozen)[None, ...]
    return _aggregate(errors, tau, dataset.horizon, split)
