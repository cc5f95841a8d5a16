"""End-to-end acceptance checks.

One test per shipped guarantee, in order; pytest reports one pass/fail line
for each, and every test prints the measured quantities (visible with -s).
The full-scale depth study trains nine models for hours and therefore only
runs when UMTN_FULL_SCALE=1 is set.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from activations import relu, sigmoid, tanh
from gradcheck import gradient_check
from umtn import autodiff as ad
from umtn.autodiff import ParameterStore, Tensor
from umtn.collocation import CollocationStepper, operator_matrix, solve_ivp
from umtn.datagen import ConvDiffConfig, _initial_field, _mode_bases, _simulate_batch, generate_dataset
from umtn.evaluation import evaluate_model, mae, persistence_baseline
from umtn.interpolation import SiteSet, build_phi
from umtn.kernels import KernelFamily, LinearOperatorSpec, RadialKernel
from umtn.model import ModelConfig, UmtnModel, lstb_forward
from umtn.training import TrainConfig, scheduled_sampling_prob, sequence_loss, train_loop

MQ_HALF = RadialKernel(KernelFamily.MULTIQUADRIC, 0.5)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_heat_equation_accuracy_and_order():
    def max_error(dt):
        sites = SiteSet(np.linspace(0.0, np.pi, 25)[:, None])
        system = build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 1.0), sites)
        stepper = CollocationStepper(
            system,
            LinearOperatorSpec(diffusion=lambda point: 1.0),
            dt,
            boundary_indices=[0, 24],
            boundary_values=lambda t: np.zeros(2),
        )
        trajectory = solve_ivp(stepper, np.sin(sites.sites[:, 0]), 0.1)
        exact = np.exp(-0.1) * np.sin(sites.sites[:, 0])
        return float(np.max(np.abs(trajectory[-1].values - exact)))

    start = time.time()
    coarse = max_error(1e-3)
    fine = max_error(5e-4)
    elapsed = time.time() - start
    order = math.log2(coarse / fine)
    assert coarse < 5e-3
    assert order >= 1.0
    assert elapsed < 5.0
    print(f"PASS heat equation: max error {coarse:.3e} < 5e-3, order {order:.3f} >= 1, {elapsed:.2f} s")


def test_spatial_block_reproduces_collocation_step():
    start = time.time()
    sites = SiteSet(np.linspace(0.0, 3.0, 10)[:, None])
    system = build_phi(MQ_HALF, sites)
    op = LinearOperatorSpec(
        convection=lambda point: np.array([0.7]), diffusion=lambda point: 0.3
    )
    dt = 1e-3
    u0 = np.sin(sites.sites[:, 0]) + 0.2 * sites.sites[:, 0]
    expected = solve_ivp(CollocationStepper(system, op, dt), u0, dt)[-1].values

    # single analytic feature dt*(L phi), unscaled inverse, exact (ridge-free) fit
    feature = dt * operator_matrix(MQ_HALF, sites, op)
    unscaled_inv = system.fit_matrix(0.0)
    c0 = np.linalg.solve(system.phi, u0)
    with ad.no_grad():
        block = lstb_forward(Tensor(feature), Tensor(unscaled_inv), Tensor(c0[:, None]))
        values = system.phi @ block.values[:, 0]
    gap = float(np.max(np.abs(values - expected)))
    elapsed = time.time() - start
    assert gap < 1e-8
    assert elapsed < 1.0
    print(f"PASS spatial block vs collocation step: max gap {gap:.3e} < 1e-8, {elapsed:.2f} s")


def test_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(3)

    def store_of(**shapes):
        store = ParameterStore()
        for name, shape in shapes.items():
            store.register(name, rng.normal(size=shape))
        return store

    primitive_cases = {
        "add": (store_of(a=(3, 4), b=(1, 4)), lambda s: ad.sum(sigmoid(ad.add(s["a"], s["b"])))),
        "subtract": (store_of(a=(2, 3), b=(2, 3)), lambda s: ad.sum(tanh(ad.subtract(s["a"], s["b"])))),
        "multiply": (store_of(a=(2, 3), b=(3,)), lambda s: ad.sum(sigmoid(ad.multiply(s["a"], s["b"])))),
        "matmul": (store_of(a=(2, 3), b=(3, 2)), lambda s: ad.sum(tanh(ad.matmul(s["a"], s["b"])))),
        "concat": (store_of(a=(2, 2), b=(2, 3)), lambda s: ad.sum(sigmoid(ad.concat([s["a"], s["b"]])))),
        "reshape": (store_of(a=(6,), b=(3, 1)), lambda s: ad.sum(ad.matmul(ad.reshape(s["a"], (2, 3)), s["b"]))),
        "permute": (
            store_of(a=(2, 3, 4), b=(4, 2, 3)),
            lambda s: ad.sum(sigmoid(ad.multiply(ad.permute(s["a"], (2, 0, 1)), s["b"]))),
        ),
        "relu": (store_of(a=(4, 4),), lambda s: ad.sum(relu(s["a"]))),
        "sigmoid": (store_of(a=(5,),), lambda s: ad.sum(sigmoid(s["a"]))),
        "tanh": (store_of(a=(5,),), lambda s: ad.sum(tanh(s["a"]))),
        "sum": (store_of(a=(3, 3),), lambda s: ad.sum(ad.multiply(s["a"], s["a"]))),
        "gru_cell": (
            store_of(x=(4, 3), h=(4, 2), w=(3, 6), u_zr=(2, 4), u_h=(2, 2), b=(6,)),
            lambda s: ad.sum(sigmoid(ad.gru_cell(s["x"], s["h"], s["w"], s["u_zr"], s["u_h"], s["b"]))),
        ),
        "mlp": (
            store_of(x=(5, 3), w0=(3, 4), b0=(4,), w1=(4, 2), b1=(2,)),
            lambda s: ad.sum(tanh(ad.mlp(s["x"], [(s["w0"], s["b0"]), (s["w1"], s["b1"])]))),
        ),
    }
    worst = 0.0
    for name, (store, loss_fn) in primitive_cases.items():
        outcome = gradient_check(loss_fn, store, tol=1e-4)
        assert outcome.passed, f"{name}: max rel error {outcome.max_rel_error:.2e}"
        worst = max(worst, outcome.max_rel_error)

    def rollout_store_check(config, sample, seed):
        sites = SiteSet(np.random.default_rng(21).uniform(0.0, 2.0, (5, 2)))
        model = UmtnModel.build(config, RadialKernel(KernelFamily.MULTIQUADRIC, 0.8), sites, seed=9, reg_lambda=1e-6)
        sequence = np.random.default_rng(22).normal(size=(1, 6, 5))
        observed, teacher, targets = sequence[:, :3], sequence[:, :5], sequence[:, 1:6]

        def loss_fn(store):
            result = model.rollout(
                observed,
                horizon=3,
                teacher_values=teacher,
                teacher_prob=0.5,
                rng=np.random.default_rng(7),
                record=True,
            )
            return sequence_loss(result, targets)

        return gradient_check(loss_fn, model.params, tol=1e-4, sample=sample, seed=seed)

    slim = ModelConfig(levels=2, s_alpha_hidden=(8, 6), nab_hidden=6, rfn_hidden=10)
    slim_outcome = rollout_store_check(slim, sample=None, seed=0)
    assert slim_outcome.passed, f"slim rollout: {slim_outcome.max_rel_error:.2e} at {slim_outcome.worst_param}"

    full_outcome = rollout_store_check(ModelConfig(levels=2), sample=4000, seed=11)
    assert full_outcome.passed, f"full rollout: {full_outcome.max_rel_error:.2e} at {full_outcome.worst_param}"

    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        "PASS gradients: primitives max rel "
        f"{worst:.2e}, rollout loss max rel {max(slim_outcome.max_rel_error, full_outcome.max_rel_error):.2e} "
        f"< 1e-4 ({slim_outcome.n_checked + full_outcome.n_checked} rollout components), {elapsed:.1f} s"
    )


def test_generator_shapes_and_dynamics():
    start = time.time()
    default = ConvDiffConfig()
    assert default.n_sequences == 1000
    assert default.n_outputs == 20
    assert default.n_sites == 250
    assert default.split == (700, 150, 150)
    assert default.substeps_per_output == 2

    reduced = ConvDiffConfig(
        grid_size=16,
        dt_out=0.01,
        t_end=0.05,
        n_sites=10,
        n_sequences=3,
        split=(1, 1, 1),
        substeps_per_output=2,
        seed=0,
    )
    dataset = generate_dataset(reduced, tau=2)
    assert dataset.sequences.shape == (3, 5, 10)
    assert [dataset.split_indices(s).size for s in ("train", "val", "test")] == [1, 1, 1]

    zeros = _simulate_batch(reduced, np.zeros((1, 16, 16)))[0]
    assert np.all(zeros == 0.0)
    constant = _simulate_batch(reduced, np.full((1, 16, 16), 1.3))[0]
    assert np.array_equal(constant, np.full_like(constant, 1.3))

    initial = _initial_field(np.random.default_rng(1), _mode_bases(16)).reshape(1, 16, 16)
    coarse = _simulate_batch(reduced, initial)[0]
    refined = _simulate_batch(dataclasses.replace(reduced, substeps_per_output=8), initial)[0]
    discrepancy = float(np.max(np.abs(coarse - refined)))
    elapsed = time.time() - start
    assert discrepancy < 1e-4
    assert elapsed < 10.0
    print(
        "PASS generator: default config 1000x20x250 split 700/150/150, exact fixed points, "
        f"substep self-convergence {discrepancy:.2e} < 1e-4, {elapsed:.2f} s"
    )


def test_reduced_scale_training_beats_persistence():
    start = time.time()
    config = ConvDiffConfig(
        grid_size=12, dt_out=0.01, t_end=0.2, n_sites=64, n_sequences=100, split=(70, 15, 15), seed=0
    )
    dataset = generate_dataset(config, tau=5)
    assert dataset.sequences.shape == (100, 20, 64)
    model = UmtnModel.build(ModelConfig(levels=1), MQ_HALF, dataset.sites, seed=0, reg_lambda=1e-6)
    train_config = TrainConfig(
        tau=5, horizon=15, lr=1e-2, max_epochs=100, batch_size=4, scheduled_sampling_k=5.0, seed=0
    )
    result = train_loop(model, dataset, train_config)
    assert len(result.history) <= 100
    scored = evaluate_model(model, dataset, split="test")
    baseline = persistence_baseline(dataset, split="test")
    elapsed = time.time() - start
    assert scored.mae_mean < baseline.mae_mean
    assert elapsed < 900.0
    print(
        f"PASS reduced-scale training: test MAE {scored.mae_mean:.4f} < persistence "
        f"{baseline.mae_mean:.4f} after {len(result.history)} epochs, {elapsed:.0f} s"
    )


@pytest.mark.skipif(
    os.environ.get("UMTN_FULL_SCALE") != "1",
    reason="hours-long full-scale study; set UMTN_FULL_SCALE=1 to run",
)
def test_full_scale_depth_ordering():
    start = time.time()
    dataset = generate_dataset(ConvDiffConfig(), tau=5)
    assert dataset.sequences.shape == (1000, 20, 250)
    level_means = {}
    for levels in (1, 2, 3):
        maes = []
        for seed in range(3):
            model = UmtnModel.build(
                ModelConfig(levels=levels), MQ_HALF, dataset.sites, seed=seed, reg_lambda=1e-6
            )
            train_config = TrainConfig(
                tau=5,
                horizon=15,
                lr=1e-2,
                max_epochs=30,
                batch_size=4,
                scheduled_sampling_k=5.0,
                early_stop_patience=10,
                seed=seed,
            )
            train_loop(model, dataset, train_config)
            maes.append(evaluate_model(model, dataset, split="test").mae_mean)
        level_means[levels] = float(np.mean(maes))
    elapsed = time.time() - start
    assert level_means[3] <= level_means[2] <= level_means[1]
    assert 0.08 <= level_means[3] <= 0.16
    print(
        f"PASS full-scale ordering: level MAEs {level_means[1]:.4f} >= {level_means[2]:.4f} "
        f">= {level_means[3]:.4f}, 3-level in [0.08, 0.16], {elapsed/3600:.1f} h"
    )


def test_scheduled_sampling_schedule():
    assert scheduled_sampling_prob(0, 50.0) == pytest.approx(50.0 / 51.0, abs=1e-12)
    probs = [scheduled_sampling_prob(epoch, 50.0) for epoch in range(1001)]
    assert all(later < earlier for earlier, later in zip(probs, probs[1:]))
    print("PASS scheduled sampling: prob(0, 50) = 50/51 within 1e-12, strictly decreasing over 0..1000")


def test_seeded_runs_reproduce_bitwise():
    config = ConvDiffConfig(
        grid_size=12,
        dt_out=0.01,
        t_end=0.05,
        n_sites=12,
        n_sequences=4,
        split=(2, 1, 1),
        substeps_per_output=2,
        seed=3,
    )
    first = generate_dataset(config, tau=2)
    second = generate_dataset(config, tau=2)
    assert np.array_equal(first.sites.sites, second.sites.sites)
    assert np.array_equal(first.sequences, second.sequences)

    tiny = ModelConfig(levels=1, feature_width=2, s_alpha_hidden=(6, 4), nab_hidden=3, rfn_hidden=6)
    kernel = RadialKernel(KernelFamily.MULTIQUADRIC, 0.8)
    train_config = TrainConfig(tau=2, horizon=3, lr=0.01, max_epochs=3, batch_size=1, seed=5)
    histories, reports = [], []
    for dataset in (first, second):
        model = UmtnModel.build(tiny, kernel, dataset.sites, seed=5, reg_lambda=1e-6)
        result = train_loop(model, dataset, train_config)
        histories.append([(r.epoch, r.train_loss, r.val_mae) for r in result.history])
        reports.append(evaluate_model(model, dataset, split="test").to_dict())
    assert histories[0] == histories[1]
    assert reports[0] == reports[1]
    print("PASS determinism: identical seeds give bitwise-equal datasets, histories, and reports")


def test_mae_exact_values():
    values = np.array([[0.3, -1.2], [0.0, 4.5]])
    assert mae(values, values) == 0.0
    assert mae(values, values + 1.0) == 1.0
    assert mae([[0.0, 2.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 0.0]]) == 1.0
    print("PASS MAE: identity 0, unit offset 1, 2x2 hand case 1.0, all exact")
