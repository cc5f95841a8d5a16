"""Command-line entry point.

Subcommands cover the full pipeline: synthetic data generation, kernel
selection, a standalone collocation solve, model training, evaluation,
prediction export, and report assembly.  Every subcommand accepts ``--seed``,
``--config`` (a JSON file mirroring the typed configs), and ``--out``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.  Failures print one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import storage
from .collocation import CollocationStepper, solve_ivp
from .datagen import ConvDiffConfig, generate_dataset
from .errors import ConfigError, DataError, UmtnError, invalid_field
from .evaluation import evaluate_model, persistence_baseline
from .interpolation import build_phi, loocv_select_kernel
from .kernels import LinearOperatorSpec, RadialKernel
from .model import ModelConfig, UmtnModel, require_same_sites
from .training import TrainConfig, train_loop

DEFAULT_TUNE_CANDIDATES = [
    {"family": "multiquadric", "epsilon": eps} for eps in (0.5, 1.0, 2.0, 4.0)
] + [
    {"family": "inverse_multiquadric", "epsilon": eps} for eps in (1.0, 2.0)
] + [
    {"family": "gaussian", "epsilon": eps} for eps in (1.0, 2.0)
]


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    config = storage.load_json_config(args.config)
    if not isinstance(config, dict):
        raise ConfigError(f"{args.config} must hold a JSON object")
    return config


def _require_out(args) -> Path:
    if args.out is None:
        raise ConfigError("this subcommand requires --out")
    return Path(args.out)


_REQUIRED = object()


def _config_value(config: dict, key: str, convert: Callable, default=_REQUIRED):
    """`convert` applied to config[key], or to `default` when the key is absent.

    A missing required key, or a value `convert` rejects (a wrong JSON type or
    value), is a ConfigError naming the key: exit 2, never a traceback.
    """
    if key not in config and default is _REQUIRED:
        raise ConfigError(f"config is missing {key!r}")
    with invalid_field(f"config field {key!r}", ConfigError):
        return convert(config.get(key, default))


def _kernel_from(spec: dict) -> RadialKernel:
    """A kernel from a {"family", "epsilon"} spec; epsilon defaults to 1."""
    return RadialKernel.from_dict({"epsilon": 1.0, **spec})


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    tau = _config_value(config, "tau", int, 5)
    fields = {key: value for key, value in config.items() if key != "tau"}
    if args.seed is not None:
        fields["seed"] = args.seed
    with invalid_field("gen-data config", ConfigError):
        gen_config = ConvDiffConfig(**fields)
    dataset = generate_dataset(gen_config, tau=tau)
    storage.save_dataset(dataset, _require_out(args))
    print(
        f"wrote {dataset.n_sequences} sequences x {dataset.sequence_length} steps "
        f"x {dataset.sites.n} sites to {args.out}"
    )
    return 0


def _cmd_tune_kernel(args) -> int:
    config = _load_config(args)
    if args.data is None:
        raise ConfigError("tune-kernel requires --data")
    dataset = storage.load_dataset(args.data)
    candidates = _config_value(
        config, "candidates", lambda specs: [_kernel_from(spec) for spec in specs], DEFAULT_TUNE_CANDIDATES
    )
    seed = args.seed if args.seed is not None else 0
    best, scores = loocv_select_kernel(candidates, dataset, seed=seed)
    report = {
        "selected": best.to_dict(),
        "seed": seed,
        "scores": [
            {**score.kernel.to_dict(), "mean_abs_error": score.mean_abs_error}
            for score in scores
        ],
    }
    storage.save_json(report, _require_out(args))
    print(f"selected {best.family.value} epsilon={best.epsilon}")
    return 0


def _constant_operator(spec: dict) -> LinearOperatorSpec:
    """Constant coefficient fields from {"convection", "diffusion", "reaction"}."""
    convection, diffusion, reaction = (spec.get(key) for key in ("convection", "diffusion", "reaction"))
    conv_vec = None if convection is None else _float_array(convection)
    diffusion = None if diffusion is None else float(diffusion)
    reaction = None if reaction is None else float(reaction)
    return LinearOperatorSpec(
        convection=None if conv_vec is None else (lambda point: conv_vec),
        diffusion=None if diffusion is None else (lambda point: diffusion),
        reaction=None if reaction is None else (lambda point: reaction),
    )


def _boundary(spec: Optional[dict]) -> tuple[list, float]:
    """Dirichlet site indices and their constant value from {"indices", "value"}."""
    spec = spec or {}
    return [int(i) for i in spec.get("indices", [])], float(spec.get("value", 0.0))


def _cmd_solve(args) -> int:
    config = _load_config(args)
    kernel = _config_value(config, "kernel", _kernel_from)
    sites = _config_value(config, "sites", _float_array)
    dt = _config_value(config, "dt", float)
    t_end = _config_value(config, "t_end", float)
    operator = _config_value(config, "operator", _constant_operator)
    initial_values = _config_value(config, "initial_values", _float_array)
    indices, value = _config_value(config, "boundary", _boundary, None)
    if sites.ndim == 1:
        sites = sites[:, None]
    system = build_phi(kernel, sites)
    callback = None
    if indices:
        fixed = np.full(len(indices), value)
        callback = lambda t: fixed  # noqa: E731 - tiny constant closure
    stepper = CollocationStepper(system, operator, dt, boundary_indices=indices, boundary_values=callback)
    trajectory = solve_ivp(stepper, initial_values, t_end)
    result = {"times": trajectory.times.tolist(), "values": trajectory.values.tolist()}
    storage.save_json(result, _require_out(args))
    print(f"solved {len(trajectory) - 1} steps over {sites.shape[0]} sites")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.data is None:
        raise ConfigError("train requires --data")
    dataset = storage.load_dataset(args.data)
    model_config = _config_value(
        config,
        "model",
        lambda fields: ModelConfig(**{"levels": 1, "spatial_dim": dataset.sites.dim, **fields}),
        {},
    )
    kernel = _config_value(config, "kernel", _kernel_from, {"family": "multiquadric", "epsilon": 2.0})
    reg_lambda = _config_value(config, "reg_lambda", float, 1e-2)
    seed = {} if args.seed is None else {"seed": args.seed}
    train_config = _config_value(
        config,
        "train",
        lambda fields: TrainConfig(**{"tau": dataset.tau, "horizon": dataset.horizon, **fields, **seed}),
        {},
    )
    # Checked before training so that a blocked save does not discard the run.
    out = storage.check_save_target(_require_out(args))
    if args.history and Path(args.history).is_dir():
        raise DataError(f"history target {args.history} is a directory")

    model = UmtnModel.build(
        model_config, kernel, dataset.sites, reg_lambda=reg_lambda, seed=train_config.seed
    )
    result = train_loop(model, dataset, train_config)
    rows = [(r.epoch, repr(r.train_loss), repr(r.val_mae)) for r in result.history]
    history = _csv_text(["epoch", "train_loss", "val_mae"], rows)
    # The default history is built with the checkpoint, so both appear or neither.
    storage.save_checkpoint(
        model,
        out,
        history_csv=None if args.history else history,
        extra={
            "train_config": train_config.to_dict(),
            "best_epoch": result.best_epoch,
            "best_val_mae": result.best_val_mae,
            "epochs_run": len(result.history),
            "stopped_early": result.stopped_early,
            "dataset_seed": dataset.seed,
        },
    )
    if args.history:
        storage.write_text(args.history, history)
    print(
        f"trained {len(result.history)} epochs; best val MAE {result.best_val_mae:.6f} "
        f"at epoch {result.best_epoch}; checkpoint at {out}"
    )
    return 0


def _csv_text(header: list[str], rows) -> str:
    """`rows` under `header`, rendered in the csv module's default dialect."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _cmd_eval(args) -> int:
    config = _load_config(args)
    if args.data is None or not args.checkpoint:
        raise ConfigError("eval requires --data and at least one --checkpoint")
    dataset = storage.load_dataset(args.data)
    split = config.get("split", "test")
    models = [storage.load_checkpoint(path) for path in args.checkpoint]
    report = evaluate_model(models, dataset, split=split)
    baseline = persistence_baseline(dataset, split=split)
    out = _require_out(args)
    payload = report.to_dict()
    payload["persistence"] = {
        "mae_mean": baseline.mae_mean,
        "per_step": [float(v) for v in baseline.per_step],
    }
    storage.save_json(payload, out)
    stem = out.with_suffix("")
    for column, curve in (("step", report.per_step), ("site", report.per_site)):
        rows = ((i, repr(float(v))) for i, v in enumerate(curve))
        storage.write_text(f"{stem}_per_{column}.csv", _csv_text([column, "mae"], rows))
    print(
        f"{split} MAE {report.mae_mean:.6f} +/- {report.mae_std:.6f} over "
        f"{report.n_runs} run(s); persistence {baseline.mae_mean:.6f}"
    )
    return 0


def _cmd_predict(args) -> int:
    config = _load_config(args)
    if args.data is None or not args.checkpoint:
        raise ConfigError("predict requires --data and --checkpoint")
    dataset = storage.load_dataset(args.data).normalize()
    model = storage.load_checkpoint(args.checkpoint[0])
    require_same_sites(model, dataset.sites)
    split = config.get("split", "test")
    offset = _config_value(config, "sequence", int, 0)
    indices = dataset.split_indices(split)
    if offset < 0 or offset >= indices.size:
        raise ConfigError(f"sequence {offset} out of range for split {split!r}")
    seq = dataset.sequences[indices[offset]]
    result = model.rollout(seq[: dataset.tau], dataset.horizon)
    predictions = result.predictions
    payload = {
        "split": split,
        "sequence": offset,
        "tau": dataset.tau,
        "horizon": dataset.horizon,
        "sites": dataset.sites.sites.tolist(),
        "predictions_normalized": predictions.tolist(),
        "predictions": dataset.denormalize_values(predictions).tolist(),
        "truth_normalized": seq[dataset.tau :].tolist(),
    }
    storage.save_json(payload, _require_out(args))
    print(f"wrote {predictions.shape[0]}-step forecast for {split} sequence {offset}")
    return 0


def _cmd_export_report(args) -> int:
    if not args.report:
        raise ConfigError("export-report requires at least one --report")
    rows = []
    for path in args.report:
        data = storage.load_json_config(path)
        protocol = data.get("protocol", {})
        rows.append(
            (
                Path(path).stem,
                data.get("mae_mean"),
                data.get("mae_std"),
                protocol.get("n_runs"),
                protocol.get("tau"),
                protocol.get("horizon"),
                (data.get("persistence") or {}).get("mae_mean"),
            )
        )
    lines = [
        "# Forecast evaluation summary",
        "",
        "| report | MAE | std | runs | tau | horizon | persistence |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name, mean, std, runs, tau, horizon, persist in rows:
        fmt = lambda v: "-" if v is None else (f"{v:.4f}" if isinstance(v, float) else str(v))  # noqa: E731
        lines.append(
            f"| {name} | {fmt(mean)} | {fmt(std)} | {fmt(runs)} | {fmt(tau)} "
            f"| {fmt(horizon)} | {fmt(persist)} |"
        )
    out = _require_out(args)
    storage.write_text(out, "\n".join(lines) + "\n")
    print(f"wrote summary of {len(rows)} report(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umtn",
        description="Meshfree spatiotemporal forecasting: data, kernels, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output path")

    p = sub.add_parser("gen-data", help="generate a synthetic convection-diffusion dataset")
    common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("tune-kernel", help="select a kernel by leave-one-out error")
    common(p)
    p.add_argument("--data", type=str, help="dataset directory")
    p.set_defaults(func=_cmd_tune_kernel)

    p = sub.add_parser("solve", help="run a linear-PDE collocation solve from a config")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("train", help="train a forecaster on a dataset")
    common(p)
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--history", type=str, default=None, help="history CSV path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score checkpoints on a dataset split")
    common(p)
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--checkpoint", type=str, action="append", default=[], help="checkpoint directory (repeatable)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="export one sequence's forecast")
    common(p)
    p.add_argument("--data", type=str, help="dataset directory")
    p.add_argument("--checkpoint", type=str, action="append", default=[], help="checkpoint directory")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("export-report", help="summarize evaluation reports as markdown")
    common(p)
    p.add_argument("--report", type=str, action="append", default=[], help="eval report JSON (repeatable)")
    p.set_defaults(func=_cmd_export_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UmtnError as exc:
        detail = {"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}
        for attr in ("condition_estimate", "at_time"):
            value = getattr(exc, attr, None)
            if value is not None:
                detail[attr] = value
        print(json.dumps(detail), file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(
            json.dumps({"error": "ValueError", "message": str(exc), "exit_code": 2}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
