"""Optimization loop: normalization, scheduled sampling, Adam, early stopping.

The objective for one sequence is the squared error summed over every
predicted step, warm-up included:

    sum_{t=1}^{tau+T-1} ||u_t - hat-u_t||^2

averaged over the sequences in a batch, which is rolled out as one block.
During training the input frame for t >= tau is the ground truth with
probability `teacher_prob` (an inverse sigmoid schedule in the epoch index),
otherwise the model's own previous prediction; validation always runs closed
loop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, adam_step, backward
from .datagen import SequenceDataset
from .errors import ConfigError, DivergenceError
from .evaluation import forecast, mae
from .model import UmtnModel, require_same_sites


@dataclass
class TrainConfig:
    tau: int
    horizon: int
    lr: float = 0.001
    max_epochs: int = 1000
    early_stop_patience: int = 50
    batch_size: Optional[int] = None  # None: min(32, training-split size)
    scheduled_sampling_k: float = 50.0
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ConfigError("max_epochs and early_stop_patience must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 when given")
        if self.scheduled_sampling_k <= 0:
            raise ConfigError("scheduled_sampling_k must be positive")
        if self.tau < 1 or self.horizon < 1:
            raise ConfigError("tau and horizon must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


def scheduled_sampling_prob(epoch: int, k: float = 50.0) -> float:
    """Inverse sigmoid teacher-forcing schedule k / (k + exp(epoch / k))."""
    if epoch < 0 or k <= 0:
        raise ValueError("need epoch >= 0 and k > 0")
    exponent = epoch / k
    if exponent > 700.0:  # exp would overflow; the probability is 0 anyway
        return 0.0
    return k / (k + math.exp(exponent))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mae: float
    teacher_prob: float


@dataclass
class TrainResult:
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mae: float = math.inf
    stopped_early: bool = False


def sequence_loss(result, targets: np.ndarray) -> Tensor:
    """Graph-linked squared error against `targets`, summed over steps, sites
    and sequences.

    `targets` holds u_1 .. u_{tau+T-1} in the layout of result.all_values:
    (steps, n) for one sequence or (B, steps, n) for a batch.  Steps before
    result.loss_start are skipped (only relevant for models that need a frame
    window).
    """
    start = result.loss_start
    targets = np.asarray(targets, dtype=float)
    targets = targets if targets.ndim == 3 else targets[None]
    preds = ad.concat(result.tensors[start:])  # (n, steps * B), column s B + b
    expected = targets[:, start:].transpose(2, 1, 0).reshape(preds.shape)
    diff = ad.subtract(preds, Tensor(expected))
    return ad.sum(ad.multiply(diff, diff))


def validation_mae(model: UmtnModel, dataset: SequenceDataset, split: str = "val") -> float:
    """Closed-loop forecast MAE over a split's sequences (`evaluation.forecast`)."""
    tau = dataset.tau
    values = dataset.split_values(split)
    if values.shape[0] == 0:
        raise ConfigError(f"{split} split is empty")
    return mae(values[:, tau:], forecast(model, values[:, :tau], dataset.horizon))


def train_loop(model: UmtnModel, dataset: SequenceDataset, config: TrainConfig) -> TrainResult:
    """Adam training with scheduled sampling and best-validation checkpointing.

    The dataset is normalized here if it is not already.  On return the
    model's parameters are the ones that achieved the lowest validation MAE.
    """
    require_same_sites(model, dataset.sites)
    if dataset.tau != config.tau or dataset.horizon != config.horizon:
        raise ConfigError(
            f"dataset provides tau={dataset.tau}, horizon={dataset.horizon}; "
            f"config asks for tau={config.tau}, horizon={config.horizon}"
        )
    dataset = dataset.normalize()
    train_idx = dataset.split_indices("train")
    if train_idx.size == 0 or dataset.split_indices("val").size == 0:
        raise ConfigError("training and validation splits must be nonempty")
    batch_size = config.batch_size or min(32, train_idx.size)
    tau, horizon = config.tau, config.horizon
    rng = np.random.default_rng(config.seed)

    result = TrainResult()
    best_params = model.params.snapshot()
    bad_epochs = 0
    for epoch in range(config.max_epochs):
        teacher_prob = scheduled_sampling_prob(epoch, config.scheduled_sampling_k)
        order = rng.permutation(train_idx)
        loss_total = 0.0
        for start in range(0, order.size, batch_size):
            seqs = dataset.sequences[order[start : start + batch_size]]
            rollout = model.rollout(
                seqs[:, :tau],
                horizon,
                teacher_values=seqs[:, : tau + horizon - 1],
                teacher_prob=teacher_prob,
                rng=rng,
                record=True,
            )
            loss = ad.multiply(sequence_loss(rollout, seqs[:, 1 : tau + horizon]), 1.0 / len(seqs))
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(f"non-finite loss at epoch {epoch}", at_time=epoch)
            loss_total += value * len(seqs)
            backward(loss, model.params)
            adam_step(model.params, lr=config.lr)
        train_loss = loss_total / order.size
        val_mae = validation_mae(model, dataset)
        result.history.append(EpochRecord(epoch, train_loss, val_mae, teacher_prob))
        if val_mae < result.best_val_mae:
            result.best_val_mae = val_mae
            result.best_epoch = epoch
            best_params = model.params.snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.early_stop_patience:
                result.stopped_early = True
                break
    model.params.load_snapshot(best_params)
    return result
