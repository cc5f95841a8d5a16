"""The benchmark's workloads: what each one runs, times and checks.

Every workload calls the public library functions the `umtn` CLI subcommands
call.  One pass over a workload's stages is a repetition (`Rep`); the runner
repeats passes for the measured time and reports medians.  The workloads and
why each was chosen are described in README.md beside this file.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from umtn import collocation, datagen, evaluation, interpolation, model, storage, training
from umtn.cli import DEFAULT_TUNE_CANDIDATES
from umtn.kernels import KernelFamily, LinearOperatorSpec, RadialKernel

from spans import Tracer

# Shared by both pipeline workloads: the reduced-scale acceptance config.
TAU = 5
DT_OUT = 0.01
T_END = 0.2
MODEL_KERNEL = RadialKernel(KernelFamily.MULTIQUADRIC, 0.5)
REG_LAMBDA = 1e-6
LR = 0.01
BATCH_SIZE = 4
SCHEDULED_SAMPLING_K = 5.0

# The collocation problem: du/dt = a.grad(u) + d laplacian(u) + r u on [0, pi]^2.
CONVECTION = np.array([0.4, -0.3])
DIFFUSION = 0.05
REACTION = -0.2
COLLOCATION_KERNEL = RadialKernel(KernelFamily.MULTIQUADRIC, 0.1)
# Largest offset of an interior collocation site, as a share of the grid spacing.
JITTER = 0.1


class Rep:
    """One pass over a workload: stage times, exact outputs, checks, layer counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.stage_s: dict[str, float] = {}
        self.outputs: dict[str, object] = {}
        self.layer: dict[str, float] = {}
        self.failed_checks: list[str] = []
        self.raised = False
        self.attempted = 0
        self.failed = 0

    def stage(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` as the timed stage `name`."""
        self.attempted += 1
        with self.tracer.span(name):
            result = fn(*args, **kwargs)
        self.stage_s[name] = self.tracer.durations[name][-1]
        return result

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks.append(name)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


# ---------------------------------------------------------------- pipelines


@dataclass(frozen=True)
class PipelineScale:
    """Sizes of one gen-data -> tune-kernel -> train -> eval pipeline."""

    grid_size: int
    n_sites: int
    split: tuple[int, int, int]
    levels: int
    epochs: int
    # The test MAE over the persistence MAE must stay below this, which also
    # requires finite forecasts.
    max_mae_ratio: float

    @property
    def n_sequences(self) -> int:
        return sum(self.split)


REDUCED = PipelineScale(grid_size=12, n_sites=64, split=(70, 15, 15), levels=1, epochs=6, max_mae_ratio=1.0)
# 180 sites keep every LOOCV candidate's condition number apart from the
# 1e14 failure level (MQ eps=2 reaches it on 4 in 1000 seeds; at 250 sites it
# sits astride it), so the tune time does not jump with the seed.  The bound
# on mae_ratio is loose (runs read about 1.0-1.3) but fails a broken forecast.
SITES180 = PipelineScale(grid_size=50, n_sites=180, split=(48, 16, 144), levels=2, epochs=1, max_mae_ratio=2.0)


def _datasets_equal(a: datagen.SequenceDataset, b: datagen.SequenceDataset) -> bool:
    return (
        np.array_equal(a.sites.sites, b.sites.sites)
        and np.array_equal(a.sequences, b.sequences)
        and (a.split, a.tau, a.mean, a.variance, a.normalized, a.seed)
        == (b.split, b.tau, b.mean, b.variance, b.normalized, b.seed)
    )


def _models_equal(a: model.UmtnModel, b: model.UmtnModel) -> bool:
    pa, pb = a.params.snapshot(), b.params.snapshot()
    return (
        a.config.to_dict() == b.config.to_dict()
        and a.geometry.kernel == b.geometry.kernel
        and a.geometry.reg_lambda == b.geometry.reg_lambda
        and a.geometry.site_hash == b.geometry.site_hash
        and pa.keys() == pb.keys()
        and all(np.array_equal(pa[name], pb[name]) for name in pa)
    )


def _bytes_under(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def run_pipeline(scale: PipelineScale, seed: int, workdir: Path, rep: Rep) -> None:
    """gen-data, dataset save/load, tune-kernel, train, checkpoint save/load, eval."""
    config = datagen.ConvDiffConfig(
        grid_size=scale.grid_size,
        dt_out=DT_OUT,
        t_end=T_END,
        n_sites=scale.n_sites,
        n_sequences=scale.n_sequences,
        split=scale.split,
        seed=seed,
    )
    rep.layer["datagen.rk4_substeps"] = config.n_sequences * config.n_outputs * config.substeps_per_output
    dataset = rep.stage("datagen.generate", datagen.generate_dataset, config, tau=TAU)

    dataset_dir = workdir / "dataset"
    rep.stage("storage.save_dataset", storage.save_dataset, dataset, dataset_dir)
    loaded = rep.stage("storage.load_dataset", storage.load_dataset, dataset_dir)
    rep.check("dataset loads back equal", _datasets_equal(dataset, loaded))

    candidates = [RadialKernel.from_dict(spec) for spec in DEFAULT_TUNE_CANDIDATES]
    selected, scores = rep.stage("interpolation.loocv", interpolation.loocv_select_kernel, candidates, loaded, seed=seed)
    selected_score = next(s.mean_abs_error for s in scores if s.kernel == selected)
    rep.check("selected kernel has a finite LOOCV score", math.isfinite(selected_score))

    net = rep.stage(
        "model.build",
        model.UmtnModel.build,
        model.ModelConfig(levels=scale.levels),
        MODEL_KERNEL,
        loaded.sites,
        reg_lambda=REG_LAMBDA,
        seed=seed,
    )
    rep.layer["interpolation.phi_cond"] = net.geometry.system.condition_estimate
    train_config = training.TrainConfig(
        tau=TAU,
        horizon=loaded.horizon,
        lr=LR,
        max_epochs=scale.epochs,
        batch_size=BATCH_SIZE,
        scheduled_sampling_k=SCHEDULED_SAMPLING_K,
        seed=seed,
    )
    result = rep.stage("training.train_loop", training.train_loop, net, loaded, train_config)

    checkpoint_dir = workdir / "checkpoint"
    rep.stage("storage.save_checkpoint", storage.save_checkpoint, net, checkpoint_dir)
    restored = rep.stage("storage.load_checkpoint", storage.load_checkpoint, checkpoint_dir)
    rep.check("checkpoint loads back equal", _models_equal(net, restored))
    rep.layer["storage.bytes_written"] = _bytes_under(dataset_dir) + _bytes_under(checkpoint_dir)

    report = rep.stage("evaluation.evaluate", evaluation.evaluate_model, restored, loaded)
    baseline = rep.stage("evaluation.persistence", evaluation.persistence_baseline, loaded)
    ratio = report.mae_mean / baseline.mae_mean
    rep.layer["evaluation.mae_ratio"] = ratio
    rep.check(f"mae_ratio below {scale.max_mae_ratio}", ratio < scale.max_mae_ratio)

    rep.outputs = {
        "mae_ratio": ratio,
        "test_mae": report.mae_mean,
        "persistence_mae": baseline.mae_mean,
        "per_step_mae": tuple(report.per_step.tolist()),
        "selected_kernel": selected.to_dict(),
        "loocv_scores": tuple(s.mean_abs_error for s in scores),
        "train_losses": tuple(r.train_loss for r in result.history),
        "val_maes": tuple(r.val_mae for r in result.history),
    }


# ---------------------------------------------------------------- collocation


@dataclass(frozen=True)
class CollocationScale:
    """A seeded site layout, the kernel and the time stepping of one solve."""

    n_sites: int
    interior_side: int  # interior sites form a jittered interior_side^2 grid
    steps: int
    dt: float
    tolerance: float  # bound on max |u - u_exact| at t_end


# The three n x n matrices each step reads take 2 MB at 300 sites.  Larger
# sets lean on the shared L3 cache: at 800 sites (15 MB) the solve time of ten
# runs spread by a fifth, at 1500 sites (54 MB) by a quarter, with the load of
# other tenants.  solve_err reads 1.6e-3 to 1.7e-3 across seeds.
COLLOCATION = CollocationScale(n_sites=300, interior_side=16, steps=60000, dt=1e-4, tolerance=3e-3)


def exact_solution(points: np.ndarray, t: float) -> np.ndarray:
    """e^{(r-2d)t} sin(x + a1 t) sin(y + a2 t), which solves the collocation PDE."""
    decay = math.exp((REACTION - 2.0 * DIFFUSION) * t)
    return decay * np.sin(points[:, 0] + CONVECTION[0] * t) * np.sin(points[:, 1] + CONVECTION[1] * t)


def collocation_sites(scale: CollocationScale, seed: int) -> tuple[np.ndarray, int]:
    """A boundary ring of [0, pi]^2 followed by seeded interior sites.

    The interior is a regular grid moved by a seeded jitter, which keeps the
    sites apart and so keeps the condition number of Phi alike across seeds.
    Returns the (n, 2) sites and the number of leading boundary sites.
    """
    side = scale.interior_side
    spacing = math.pi / (side + 1)
    axis = spacing * np.arange(1, side + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    interior = grid + rng.uniform(-JITTER * spacing, JITTER * spacing, size=grid.shape)

    n_ring = scale.n_sites - side * side
    arc = np.arange(n_ring) * (4.0 * math.pi / n_ring)
    edge, offset = np.divmod(arc, math.pi)
    ring = np.select(
        [edge[:, None] == 0, edge[:, None] == 1, edge[:, None] == 2],
        [
            np.stack([offset, np.zeros(n_ring)], axis=1),
            np.stack([np.full(n_ring, math.pi), offset], axis=1),
            np.stack([math.pi - offset, np.full(n_ring, math.pi)], axis=1),
        ],
        np.stack([np.zeros(n_ring), math.pi - offset], axis=1),
    )
    return np.vstack([ring, interior]), n_ring


class BoundaryValues:
    """The exact solution on the boundary ring; optionally marks each call's time.

    The stepper calls it once per step, so the gaps between marks are the
    step durations.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.marks: Optional[list[float]] = None

    def __call__(self, t: float) -> np.ndarray:
        if self.marks is not None:
            self.marks.append(perf_counter())
        return exact_solution(self.points, t)


@dataclass
class CollocationProblem:
    scale: CollocationScale
    sites: np.ndarray
    boundary: BoundaryValues
    stepper: collocation.CollocationStepper


def collocation_setup(scale: CollocationScale, seed: int, tracer: Tracer) -> CollocationProblem:
    """Sites, Phi and its factorization, and the stepper: the workload's set-up."""
    sites, n_ring = collocation_sites(scale, seed)
    system = interpolation.build_phi(COLLOCATION_KERNEL, sites)
    operator = LinearOperatorSpec(
        convection=lambda point: CONVECTION,
        diffusion=lambda point: DIFFUSION,
        reaction=lambda point: REACTION,
    )
    boundary = BoundaryValues(sites[:n_ring])
    with tracer.span("collocation.stepper"):
        stepper = collocation.CollocationStepper(
            system, operator, scale.dt, boundary_indices=range(n_ring), boundary_values=boundary
        )
    return CollocationProblem(scale, sites, boundary, stepper)


def run_collocation(problem: CollocationProblem, rep: Rep, mark_steps: bool = False) -> None:
    """One solve_ivp over every step, checked against the exact solution."""
    scale = problem.scale
    t_end = scale.steps * scale.dt
    problem.boundary.marks = [] if mark_steps else None
    cond = problem.stepper.system.condition_estimate
    rep.layer["interpolation.phi_cond"] = cond
    rep.check("Phi condition estimate below the warning level", cond < interpolation.COND_WARN)
    trajectory = rep.stage("collocation.solve", collocation.solve_ivp, problem.stepper, exact_solution(problem.sites, 0.0), t_end)
    final = trajectory[-1]
    solve_err = float(np.max(np.abs(final.values - exact_solution(problem.sites, t_end))))
    rep.layer["collocation.solve_err"] = solve_err
    rep.check(f"solve_err below {scale.tolerance}", solve_err < scale.tolerance)
    rep.outputs = {"solve_err": solve_err, "final_values": tuple(final.values.tolist())}
    if mark_steps:
        steps = np.diff(problem.boundary.marks)
        rep.layer["collocation.step_p50_s"] = float(np.percentile(steps, 50))
        rep.layer["collocation.step_p90_s"] = float(np.percentile(steps, 90))
        problem.boundary.marks = None


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """How to set a workload up and run one repetition.

    `setup(seed, tracer)` is the work counted in `setup_s` after the imports;
    `run(state, seed, workdir, rep, traced)` is one repetition, whose timed
    stages together make `pipeline_s`.
    """

    setup: Callable[[int, Tracer], object]
    run: Callable[[object, int, Path, Rep, bool], None]


def pipeline_workload(scale: PipelineScale) -> Workload:
    return Workload(
        setup=lambda seed, tracer: None,
        run=lambda state, seed, workdir, rep, traced: run_pipeline(scale, seed, workdir, rep),
    )


def collocation_workload(scale: CollocationScale) -> Workload:
    return Workload(
        setup=lambda seed, tracer: collocation_setup(scale, seed, tracer),
        # The traced repetition sets up again so that its layers are measured.
        run=lambda problem, seed, workdir, rep, traced: run_collocation(
            collocation_setup(scale, seed, rep.tracer) if traced else problem, rep, mark_steps=traced
        ),
    )


WORKLOADS = {
    "reduced": pipeline_workload(REDUCED),
    "sites180": pipeline_workload(SITES180),
    "collocation": collocation_workload(COLLOCATION),
}


# ---------------------------------------------------------------- tracing

# Spans recorded in the traced run, by name.  The stages above are spans the
# benchmark opens around its own calls; the rest come from `instrument`.
SPANS = (
    "datagen.generate",
    "storage.save_dataset",
    "storage.load_dataset",
    "storage.save_checkpoint",
    "storage.load_checkpoint",
    "interpolation.loocv",
    "interpolation.build_phi",
    "interpolation.solve",
    "model.build",
    "model.spatial_net",
    "model.rollout_record",
    "model.rollout_nograd",
    "model.lstb",
    "model.nab",
    "model.gru_step",
    "autodiff.backward",
    "autodiff.adam",
    "training.train_loop",
    "training.validation",
    "training.sequence_loss",
    "evaluation.evaluate",
    "evaluation.persistence",
    "collocation.stepper",
    "collocation.solve",
)
# Spans called 100 times or more in some workload also get per-call percentiles.
PER_CALL_SPANS = frozenset(
    {
        "interpolation.build_phi",
        "interpolation.solve",
        "model.spatial_net",
        "model.rollout_record",
        "model.rollout_nograd",
        "model.lstb",
        "model.nab",
        "model.gru_step",
        "autodiff.backward",
        "autodiff.adam",
        "training.sequence_loss",
    }
)
# The self time of train_loop is the training layer's own bookkeeping.
SELF_TIME_NAMES = {"training.train_loop": "training.self_s"}
# Per-layer values that are not span times, with their units.
LAYER_VALUES = {
    "datagen.rk4_substeps": "count",
    "storage.bytes_written": "bytes",
    "interpolation.phi_cond": "1",
    "evaluation.mae_ratio": "1",
    "model.rollout_calls": "count",
    "model.graph_nodes_per_batch": "count",
    "collocation.step_p50_s": "s",
    "collocation.step_p90_s": "s",
    "collocation.solve_err": "1",
    "trace.overhead_frac": "1",
    "fail_frac": "1",
}


def graph_nodes(loss) -> int:
    """Nodes reachable from `loss` through the engine's recorded parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def instrument(tracer: Tracer) -> list[int]:
    """Wrap the library's layer entry points; returns the per-batch graph sizes list it fills."""
    for owner, attr, name in (
        (model.UmtnModel, "spatial_feature_tensors", "model.spatial_net"),
        (model, "lstb_forward", "model.lstb"),
        (model, "nab_forward", "model.nab"),
        (model, "rfn_step", "model.gru_step"),
        (training, "adam_step", "autodiff.adam"),
        (training, "validation_mae", "training.validation"),
        (training, "sequence_loss", "training.sequence_loss"),
        (interpolation, "build_phi", "interpolation.build_phi"),
        (interpolation.InterpolationSystem, "solve", "interpolation.solve"),
    ):
        tracer.wrap(owner, attr, name)

    def rollout(original):
        def timed(self, *args, **kwargs):
            name = "model.rollout_record" if kwargs.get("record") else "model.rollout_nograd"
            with tracer.span(name):
                return original(self, *args, **kwargs)

        return timed

    graph_sizes: list[int] = []

    def backward(original):
        def timed(loss, *args, **kwargs):
            graph_sizes.append(graph_nodes(loss))
            with tracer.span("autodiff.backward"):
                return original(loss, *args, **kwargs)

        return timed

    tracer.replace(model.UmtnModel, "rollout", rollout)
    tracer.replace(training, "backward", backward)
    return graph_sizes


def layer_metrics(tracer: Tracer, rep: Rep, graph_sizes: list[int]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced repetition; layers it did not reach read 0."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        calls = tracer.durations.get(name, [])
        out[f"{name}_s"] = (float(sum(calls)), "s")
        out[f"{name}_calls"] = (len(calls), "count")
        out[SELF_TIME_NAMES.get(name, f"{name}_self_s")] = (tracer.self_times.get(name, 0.0), "s")
        if name in PER_CALL_SPANS:
            out[f"{name}_p50_s"] = (float(np.percentile(calls, 50)) if calls else 0.0, "s")
            out[f"{name}_p90_s"] = (float(np.percentile(calls, 90)) if calls else 0.0, "s")
    values = dict.fromkeys(LAYER_VALUES, 0)
    values.update(rep.layer)
    values["model.rollout_calls"] = out["model.rollout_record_calls"][0] + out["model.rollout_nograd_calls"][0]
    values["model.graph_nodes_per_batch"] = statistics.mean(graph_sizes) if graph_sizes else 0
    out.update({name: (values[name], unit) for name, unit in LAYER_VALUES.items()})
    return out

