import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from umtn import autodiff as ad
from umtn.datagen import SequenceDataset
from umtn.errors import ConfigError, DataError, DivergenceError
from umtn.interpolation import SiteSet
from umtn.kernels import KernelFamily, RadialKernel
from umtn.model import ModelConfig, UmtnModel
from umtn.training import (
    TrainConfig,
    scheduled_sampling_prob,
    sequence_loss,
    train_loop,
    validation_mae,
)

MQ = RadialKernel(KernelFamily.MULTIQUADRIC, 0.8)

TINY = ModelConfig(levels=1, feature_width=2, s_alpha_hidden=(6, 4), nab_hidden=3, rfn_hidden=6)


def toy_dataset(n_sequences=3, length=6, n=5, seed=0, split=None, scale=1.0):
    rng = np.random.default_rng(seed)
    sites = SiteSet(rng.uniform(0.0, 2.0, (n, 2)))
    seqs = rng.normal(size=(n_sequences, length, n)) * scale
    split = split or (n_sequences - 2, 1, 1)
    return SequenceDataset(sites, seqs, split, tau=2)


def tiny_model(dataset, seed=0):
    return UmtnModel.build(TINY, MQ, dataset.sites, seed=seed)


class TestTrainConfig:
    def test_round_trip(self):
        config = TrainConfig(tau=3, horizon=5, lr=0.01, batch_size=4)
        assert TrainConfig(**config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau=0, horizon=5)
        with pytest.raises(ConfigError):
            TrainConfig(tau=2, horizon=5, lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(tau=2, horizon=5, scheduled_sampling_k=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(tau=2, horizon=5, batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(tau=2, horizon=5, early_stop_patience=0)


class TestScheduledSampling:
    def test_epoch_zero_value(self):
        assert scheduled_sampling_prob(0, 50.0) == pytest.approx(50.0 / 51.0, abs=1e-12)

    def test_monotone_decreasing(self):
        probs = [scheduled_sampling_prob(e, 10.0) for e in range(0, 200, 10)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_limit_is_zero_without_overflow(self):
        assert scheduled_sampling_prob(10_000_000, 2.0) == 0.0

    def test_bounds(self):
        for epoch in (0, 5, 500):
            p = scheduled_sampling_prob(epoch, 5.0)
            assert 0.0 <= p < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            scheduled_sampling_prob(-1, 5.0)
        with pytest.raises(ValueError):
            scheduled_sampling_prob(3, 0.0)


class TestNormalizationHelpers:
    def test_denormalize_round_trip(self):
        ds = toy_dataset(scale=3.0)
        norm = ds.normalize()
        assert_allclose(norm.denormalize_values(norm.sequences), ds.sequences, atol=1e-12)


class TestSequenceLoss:
    def test_equals_direct_sum(self):
        ds = toy_dataset().normalize()
        model = tiny_model(ds)
        seq = ds.sequences[0]
        rollout = model.rollout(seq[:2], ds.horizon, record=True)
        loss = sequence_loss(rollout, seq[1:])
        direct = float(np.sum((rollout.all_values - seq[1:]) ** 2))
        assert loss.item() == pytest.approx(direct, rel=1e-10)
        model.params.zero_grads()

    def test_loss_is_differentiable(self):
        ds = toy_dataset().normalize()
        model = tiny_model(ds)
        seq = ds.sequences[0]
        loss = sequence_loss(model.rollout(seq[:2], ds.horizon, record=True), seq[1:])
        ad.backward(loss, model.params)
        grads = [model.params[n].grad for n in model.params.names()]
        assert all(g is not None for g in grads)
        assert any(np.any(g != 0.0) for g in grads)
        model.params.zero_grads()

    def test_batch_loss_is_sum_of_sequence_losses(self):
        """Loss and gradients of a batch equal the mean of per-sequence ones."""
        ds = toy_dataset(n_sequences=4, split=(2, 1, 1)).normalize()
        model = tiny_model(ds)
        seqs = ds.sequences[:3]

        def loss_and_grads(rollout_input, teacher, targets, rng):
            model.params.zero_grads()
            result = model.rollout(
                rollout_input, ds.horizon, teacher_values=teacher, teacher_prob=0.5, rng=rng, record=True
            )
            loss = sequence_loss(result, targets)
            value = loss.item()
            ad.backward(loss, model.params)
            return value, {name: t.grad.copy() for name, t in model.params.items()}

        batch_loss, batch_grads = loss_and_grads(seqs[:, :2], seqs[:, :-1], seqs[:, 1:], np.random.default_rng(4))
        rng = np.random.default_rng(4)
        singles = [loss_and_grads(seq[:2], seq[:-1], seq[1:], rng) for seq in seqs]
        assert batch_loss / 3 == pytest.approx(np.mean([value for value, _ in singles]), rel=1e-10)
        for name, grad in batch_grads.items():
            mean = np.mean([grads[name] for _, grads in singles], axis=0)
            assert_allclose(grad / 3, mean, rtol=1e-10, atol=1e-10, err_msg=name)
        model.params.zero_grads()


class TestValidationMae:
    def test_constant_predictor_oracle(self):
        """Zeroed weights with readout bias b predict b everywhere."""
        ds = toy_dataset(n_sequences=4, split=(2, 1, 1)).normalize()
        model = tiny_model(ds)
        for name in model.params.names():
            model.params[name].values[:] = 0.0
        model.params["rfn.bo"].values[:] = 0.3
        expected = float(np.abs(ds.split_values("val")[:, ds.tau :, :] - 0.3).mean())
        assert validation_mae(model, ds) == pytest.approx(expected, rel=1e-12)

    def test_empty_split_rejected(self):
        ds = toy_dataset(n_sequences=3, split=(2, 0, 1))
        model = tiny_model(ds)
        with pytest.raises(ConfigError):
            validation_mae(model, ds)


class TestTrainLoop:
    def test_site_mismatch_raises(self):
        ds = toy_dataset()
        other = toy_dataset(seed=77)
        model = tiny_model(other)
        with pytest.raises(DataError):
            train_loop(model, ds, TrainConfig(tau=2, horizon=4, max_epochs=1))

    def test_tau_mismatch_raises(self):
        ds = toy_dataset()
        model = tiny_model(ds)
        with pytest.raises(ConfigError):
            train_loop(model, ds, TrainConfig(tau=3, horizon=3, max_epochs=1))

    def test_loss_drops_on_learnable_sequence(self):
        """A single training sequence is self-realizable to low loss."""
        ds = toy_dataset(n_sequences=3, length=6, n=5, seed=2, scale=0.5)
        model = tiny_model(ds)
        config = TrainConfig(
            tau=2, horizon=4, lr=0.02, max_epochs=150, early_stop_patience=150,
            batch_size=1, scheduled_sampling_k=50.0, seed=0,
        )
        result = train_loop(model, ds, config)
        assert result.history[-1].train_loss < 0.1 * result.history[0].train_loss

    def test_zero_dataset_stops_after_patience(self):
        """All-zero data gives zero loss and gradient, so the validation metric
        can never strictly improve after the first epoch."""
        rng = np.random.default_rng(3)
        sites = SiteSet(rng.uniform(0.0, 2.0, (4, 2)))
        ds = SequenceDataset(sites, np.zeros((3, 5, 4)), (1, 1, 1), tau=2)
        model = tiny_model(ds)
        with pytest.warns(RuntimeWarning, match="zero variance"):
            result = train_loop(
                model, ds, TrainConfig(tau=2, horizon=3, max_epochs=50, early_stop_patience=1)
            )
        assert result.stopped_early
        assert len(result.history) == 2
        assert result.best_epoch == 0
        assert result.best_val_mae == 0.0

    def test_history_and_schedule_bookkeeping(self):
        ds = toy_dataset(seed=4)
        model = tiny_model(ds)
        config = TrainConfig(tau=2, horizon=4, max_epochs=3, scheduled_sampling_k=10.0)
        result = train_loop(model, ds, config)
        assert [r.epoch for r in result.history] == [0, 1, 2]
        for r in result.history:
            assert r.teacher_prob == pytest.approx(scheduled_sampling_prob(r.epoch, 10.0))
            assert math.isfinite(r.train_loss) and math.isfinite(r.val_mae)

    def test_identical_seeds_identical_history(self):
        ds = toy_dataset(seed=5)
        config = TrainConfig(tau=2, horizon=4, max_epochs=4, seed=9)
        first = train_loop(tiny_model(ds, seed=1), ds, config)
        second = train_loop(tiny_model(ds, seed=1), ds, config)
        assert [(r.train_loss, r.val_mae) for r in first.history] == [
            (r.train_loss, r.val_mae) for r in second.history
        ]

    def test_best_parameters_restored(self):
        ds = toy_dataset(seed=6)
        model = tiny_model(ds)
        result = train_loop(model, ds, TrainConfig(tau=2, horizon=4, max_epochs=6))
        recomputed = validation_mae(model, ds.normalize())
        assert recomputed == pytest.approx(result.best_val_mae, rel=1e-12)
        assert result.best_val_mae == min(r.val_mae for r in result.history)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploding_learning_rate_raises_divergence_error(self):
        ds = toy_dataset(seed=7)
        model = tiny_model(ds)
        config = TrainConfig(tau=2, horizon=4, lr=1e160, max_epochs=10)
        with pytest.raises(DivergenceError) as excinfo:
            train_loop(model, ds, config)
        assert excinfo.value.at_time is not None

    def test_raw_dataset_normalized_internally(self):
        """Training on raw data must match training on pre-normalized data."""
        ds = toy_dataset(seed=8, scale=5.0)
        config = TrainConfig(tau=2, horizon=4, max_epochs=3)
        raw_result = train_loop(tiny_model(ds), ds, config)
        norm_result = train_loop(tiny_model(ds), ds.normalize(), config)
        assert raw_result.history[0].train_loss == pytest.approx(
            norm_result.history[0].train_loss, rel=1e-12
        )
