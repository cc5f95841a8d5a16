import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import umtn
from umtn.cli import main
from umtn.collocation import CollocationStepper, solve_ivp
from umtn.interpolation import build_phi
from umtn.kernels import KernelFamily, LinearOperatorSpec, RadialKernel
from umtn.storage import load_checkpoint, load_dataset, save_json

GEN_CONFIG = {
    "grid_size": 8,
    "dt_out": 0.01,
    "t_end": 0.05,
    "substeps_per_output": 2,
    "n_sites": 10,
    "n_sequences": 4,
    "split": [2, 1, 1],
    "seed": 0,
    "tau": 2,
}

TRAIN_CONFIG = {
    "model": {
        "levels": 1,
        "feature_width": 2,
        "s_alpha_hidden": [6, 4],
        "nab_hidden": 3,
        "rfn_hidden": 6,
    },
    "kernel": {"family": "multiquadric", "epsilon": 0.8},
    "reg_lambda": 1e-6,
    "train": {"max_epochs": 2, "batch_size": 2, "lr": 0.01},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus a trained checkpoint and eval report."""
    root = tmp_path_factory.mktemp("cli")
    save_json(GEN_CONFIG, root / "gen.json")
    assert main(["gen-data", "--config", str(root / "gen.json"), "--out", str(root / "ds")]) == 0
    save_json(TRAIN_CONFIG, root / "train.json")
    code = main(
        [
            "train",
            "--data",
            str(root / "ds"),
            "--config",
            str(root / "train.json"),
            "--out",
            str(root / "ck"),
        ]
    )
    assert code == 0
    code = main(
        [
            "eval",
            "--data",
            str(root / "ds"),
            "--checkpoint",
            str(root / "ck"),
            "--out",
            str(root / "report.json"),
        ]
    )
    assert code == 0
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err):
    return json.loads(err.strip().splitlines()[-1])


def checkpoint_extra(directory):
    """The free-form metadata `train` stores in the checkpoint manifest."""
    return json.loads((directory / "manifest.json").read_text())["extra"]


class TestGenData:
    def test_writes_loadable_dataset(self, workspace):
        dataset = load_dataset(workspace / "ds")
        assert dataset.sequences.shape == (4, 5, 10)
        assert dataset.tau == 2 and dataset.horizon == 3
        assert dataset.split == (2, 1, 1)
        assert not dataset.normalized

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        save_json(GEN_CONFIG, tmp_path / "gen.json")
        code, out, _ = run(
            capsys,
            "gen-data",
            "--config",
            str(tmp_path / "gen.json"),
            "--seed",
            "7",
            "--out",
            str(tmp_path / "ds"),
        )
        assert code == 0
        assert "wrote 4 sequences" in out
        assert load_dataset(tmp_path / "ds").seed == 7

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        save_json(GEN_CONFIG, tmp_path / "gen.json")
        code, _, err = run(capsys, "gen-data", "--config", str(tmp_path / "gen.json"))
        assert code == 2
        detail = stderr_json(err)
        assert detail["error"] == "ConfigError"
        assert detail["exit_code"] == 2
        assert "--out" in detail["message"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        save_json({**GEN_CONFIG, "bogus": 1}, tmp_path / "gen.json")
        code, _, err = run(
            capsys, "gen-data", "--config", str(tmp_path / "gen.json"), "--out", str(tmp_path / "ds")
        )
        assert code == 2
        assert stderr_json(err)["error"] == "ConfigError"


class TestTuneKernel:
    def test_selects_and_reports_scores(self, workspace, tmp_path, capsys):
        config = {
            "candidates": [
                {"family": "multiquadric", "epsilon": 0.5},
                {"family": "multiquadric", "epsilon": 2.0},
            ]
        }
        save_json(config, tmp_path / "tune.json")
        code, out, _ = run(
            capsys,
            "tune-kernel",
            "--data",
            str(workspace / "ds"),
            "--config",
            str(tmp_path / "tune.json"),
            "--out",
            str(tmp_path / "tune_report.json"),
        )
        assert code == 0
        assert "selected multiquadric" in out
        report = json.loads((tmp_path / "tune_report.json").read_text())
        assert len(report["scores"]) == 2
        errors = [s["mean_abs_error"] for s in report["scores"]]
        best = report["scores"][int(np.argmin(errors))]
        assert report["selected"]["epsilon"] == best["epsilon"]

    def test_requires_data(self, tmp_path, capsys):
        code, _, err = run(capsys, "tune-kernel", "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "--data" in stderr_json(err)["message"]


class TestSolve:
    def solve_config(self, **overrides):
        config = {
            "kernel": {"family": "multiquadric", "epsilon": 1.0},
            "sites": [0.0, 1.0, 2.0],
            "dt": 0.01,
            "t_end": 0.02,
            "operator": {"reaction": 0.5},
            "initial_values": [1.0, 1.0, 1.0],
        }
        config.update(overrides)
        return config

    def test_reaction_growth(self, tmp_path, capsys):
        save_json(self.solve_config(), tmp_path / "solve.json")
        code, out, _ = run(
            capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "sol.json")
        )
        assert code == 0
        assert "solved 2 steps" in out
        result = json.loads((tmp_path / "sol.json").read_text())
        assert result["times"] == pytest.approx([0.0, 0.01, 0.02])
        values = np.array(result["values"])
        # pure reaction r=0.5 multiplies every value by (1 + dt*r) per step
        assert values[1] == pytest.approx(values[0] * 1.005, rel=1e-10)
        assert values[2] == pytest.approx(values[0] * 1.005**2, rel=1e-10)

    def test_boundary_pinned(self, tmp_path, capsys):
        config = self.solve_config(boundary={"indices": [0], "value": 2.0})
        save_json(config, tmp_path / "solve.json")
        code, _, _ = run(
            capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "sol.json")
        )
        assert code == 0
        values = np.array(json.loads((tmp_path / "sol.json").read_text())["values"])
        assert values[1:, 0] == pytest.approx(2.0, abs=1e-8)

    def test_output_matches_point_by_point_form(self, tmp_path, capsys):
        config = self.solve_config(boundary={"indices": [2], "value": -1.0})
        save_json(config, tmp_path / "solve.json")
        code, _, _ = run(
            capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "sol.json")
        )
        assert code == 0
        stepper = CollocationStepper(
            build_phi(RadialKernel(KernelFamily.MULTIQUADRIC, 1.0), np.array(config["sites"])[:, None]),
            LinearOperatorSpec(reaction=lambda point: 0.5),
            config["dt"],
            boundary_indices=[2],
            boundary_values=lambda t: np.full(1, -1.0),
        )
        trajectory = solve_ivp(stepper, np.array(config["initial_values"]), config["t_end"])
        expected = {
            "times": [point.time for point in trajectory],
            "values": [point.values.tolist() for point in trajectory],
        }
        assert (tmp_path / "sol.json").read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_4_reports_time(self, tmp_path, capsys):
        config = self.solve_config(
            sites=[0.0], dt=1.0, t_end=4.0, operator={"reaction": 1e200}, initial_values=[1.0]
        )
        save_json(config, tmp_path / "solve.json")
        code, _, err = run(
            capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "s.json")
        )
        assert code == 4
        assert len(err.strip().splitlines()) == 1
        detail = stderr_json(err)
        assert detail["error"] == "DivergenceError"
        assert detail["at_time"] == 2.0
        assert not (tmp_path / "s.json").exists()

    def test_missing_key_is_usage_error(self, tmp_path, capsys):
        config = self.solve_config()
        del config["operator"]
        save_json(config, tmp_path / "solve.json")
        code, _, err = run(
            capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "s.json")
        )
        assert code == 2
        assert "operator" in stderr_json(err)["message"]

    def test_conditioning_failure_exit_4(self, tmp_path, capsys):
        config = self.solve_config(sites=[0.0, 1e-9, 2.0], initial_values=[1.0, 1.0, 1.0])
        save_json(config, tmp_path / "solve.json")
        code, _, err = run(
            capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "s.json")
        )
        assert code == 4
        detail = stderr_json(err)
        assert detail["error"] == "ConditioningError"
        assert detail["exit_code"] == 4
        assert detail["condition_estimate"] > 1e14


class TestTrain:
    def test_checkpoint_and_history(self, workspace):
        extra = checkpoint_extra(workspace / "ck")
        assert extra["epochs_run"] == 2
        assert extra["train_config"]["max_epochs"] == 2
        assert extra["dataset_seed"] == 0
        assert isinstance(extra["best_val_mae"], float)
        model = load_checkpoint(workspace / "ck")
        assert model.config.levels == 1
        history = (workspace / "ck" / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_mae"
        assert len(history) == 3

    def test_seed_flag_reaches_train_config(self, workspace, tmp_path, capsys):
        save_json(TRAIN_CONFIG, tmp_path / "train.json")
        code, _, _ = run(
            capsys,
            "train",
            "--data",
            str(workspace / "ds"),
            "--config",
            str(tmp_path / "train.json"),
            "--seed",
            "11",
            "--out",
            str(tmp_path / "ck"),
        )
        assert code == 0
        assert checkpoint_extra(tmp_path / "ck")["train_config"]["seed"] == 11

    def test_requires_data(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "ck"))
        assert code == 2
        assert "--data" in stderr_json(err)["message"]

    @pytest.mark.parametrize("blocker", ["file", "unmanaged"])
    def test_blocked_out_fails_before_training(self, workspace, tmp_path, capsys, monkeypatch, blocker):
        out = tmp_path / "ck"
        if blocker == "file":
            out.write_text("not a directory")
        else:
            out.mkdir()
            (out / "notes.txt").write_text("not an artifact")
        self.assert_fails_before_training(workspace, tmp_path, capsys, monkeypatch, "--out", str(out))

    def test_history_directory_fails_before_training(self, workspace, tmp_path, capsys, monkeypatch):
        (tmp_path / "h.csv").mkdir()
        self.assert_fails_before_training(
            workspace, tmp_path, capsys, monkeypatch,
            "--out", str(tmp_path / "ck"), "--history", str(tmp_path / "h.csv"),
        )
        assert not (tmp_path / "ck").exists()

    def assert_fails_before_training(self, workspace, tmp_path, capsys, monkeypatch, *targets):
        calls = []
        monkeypatch.setattr("umtn.cli.train_loop", lambda *args: calls.append(args))
        save_json(TRAIN_CONFIG, tmp_path / "train.json")
        code, _, err = run(
            capsys,
            "train",
            "--data",
            str(workspace / "ds"),
            "--config",
            str(tmp_path / "train.json"),
            *targets,
        )
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert stderr_json(err)["error"] == "DataError"
        assert calls == []

    def test_failed_save_leaves_neither_checkpoint_nor_history(self, workspace, tmp_path, capsys, monkeypatch):
        """history.csv is built with the checkpoint: when the final rename of
        that build fails, neither the checkpoint nor its history exists."""
        built = []

        def failing_rename(source, target):
            built.append(sorted(os.listdir(source)))
            raise OSError(errno.EIO, "injected rename failure")

        monkeypatch.setattr("umtn.storage.os.rename", failing_rename)
        save_json(TRAIN_CONFIG, tmp_path / "train.json")
        code, _, err = run(
            capsys,
            "train",
            "--data",
            str(workspace / "ds"),
            "--config",
            str(tmp_path / "train.json"),
            "--out",
            str(tmp_path / "ck"),
        )
        assert code == 3
        assert stderr_json(err)["error"] == "DataError"
        assert built == [["history.csv", "manifest.json", "params.bin", "sites.bin"]]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.json"]

    def test_history_parent_is_created(self, workspace, tmp_path, capsys):
        save_json(TRAIN_CONFIG, tmp_path / "train.json")
        history = tmp_path / "logs" / "run1" / "h.csv"
        code, _, _ = run(
            capsys,
            "train",
            "--data",
            str(workspace / "ds"),
            "--config",
            str(tmp_path / "train.json"),
            "--out",
            str(tmp_path / "ck"),
            "--history",
            str(history),
        )
        assert code == 0
        assert history.read_bytes().startswith(b"epoch,train_loss,val_mae\r\n")
        assert not (tmp_path / "ck" / "history.csv").exists()


class TestEval:
    def test_report_contents(self, workspace):
        report = json.loads((workspace / "report.json").read_text())
        assert report["protocol"]["split"] == "test"
        assert report["protocol"]["n_runs"] == 1
        assert isinstance(report["mae_mean"], float)
        assert report["persistence"]["mae_mean"] > 0
        per_step = (workspace / "report_per_step.csv").read_text().strip().splitlines()
        assert per_step[0] == "step,mae"
        assert len(per_step) == len(report["per_step"]) + 1
        per_site = (workspace / "report_per_site.csv").read_text().strip().splitlines()
        assert len(per_site) == 10 + 1

    def test_requires_checkpoint(self, workspace, tmp_path, capsys):
        code, _, err = run(
            capsys, "eval", "--data", str(workspace / "ds"), "--out", str(tmp_path / "r.json")
        )
        assert code == 2
        assert "--checkpoint" in stderr_json(err)["message"]

    def test_foreign_checkpoint_exit_3(self, workspace, tmp_path, capsys):
        other = dict(GEN_CONFIG)
        other["n_sites"] = 9
        save_json(other, tmp_path / "gen.json")
        assert (
            main(["gen-data", "--config", str(tmp_path / "gen.json"), "--out", str(tmp_path / "ds")])
            == 0
        )
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "eval",
            "--data",
            str(tmp_path / "ds"),
            "--checkpoint",
            str(workspace / "ck"),
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 3
        detail = stderr_json(err)
        assert detail["error"] == "DataError"
        assert detail["exit_code"] == 3


    def test_missing_params_payload_exit_3(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "ck", tmp_path / "ck")
        (tmp_path / "ck" / "params.bin").unlink()
        code, _, err = run(
            capsys,
            "eval",
            "--data",
            str(workspace / "ds"),
            "--checkpoint",
            str(tmp_path / "ck"),
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        detail = stderr_json(err)
        assert detail["error"] == "DataError"
        assert detail["message"] == "missing payload params.bin"

    def test_manifest_missing_key_exit_3(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "ck", tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        del manifest["site_hash"]
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(
            capsys,
            "eval",
            "--data",
            str(workspace / "ds"),
            "--checkpoint",
            str(tmp_path / "ck"),
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        detail = stderr_json(err)
        assert detail["error"] == "DataError"
        assert detail["message"] == "checkpoint manifest lacks site_hash"

    def test_manifest_not_an_object_exit_3(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "ds", tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text("[]")
        code, _, err = run(
            capsys,
            "eval",
            "--data",
            str(tmp_path / "ds"),
            "--checkpoint",
            str(workspace / "ck"),
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert stderr_json(err)["error"] == "DataError"


class TestPredict:
    def test_forecast_payload(self, workspace, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--data",
            str(workspace / "ds"),
            "--checkpoint",
            str(workspace / "ck"),
            "--out",
            str(tmp_path / "pred.json"),
        )
        assert code == 0
        assert "forecast" in out
        payload = json.loads((tmp_path / "pred.json").read_text())
        assert payload["split"] == "test"
        assert payload["tau"] == 2 and payload["horizon"] == 3
        predictions = np.array(payload["predictions"])
        assert predictions.shape == (3, 10)
        assert np.array(payload["truth_normalized"]).shape == (3, 10)
        assert np.array(payload["sites"]).shape == (10, 2)
        normalized = np.array(payload["predictions_normalized"])
        dataset = load_dataset(workspace / "ds").normalize()
        assert predictions == pytest.approx(dataset.denormalize_values(normalized))
        # the forecast of the first test sequence, rolled out as a batch of one
        seq = dataset.split_values("test")[:1]
        model = load_checkpoint(workspace / "ck")
        assert np.array_equal(normalized, model.rollout(seq[:, :2], 3).predictions[0])

    def test_sequence_out_of_range(self, workspace, tmp_path, capsys):
        save_json({"sequence": 99}, tmp_path / "p.json")
        code, _, err = run(
            capsys,
            "predict",
            "--data",
            str(workspace / "ds"),
            "--checkpoint",
            str(workspace / "ck"),
            "--config",
            str(tmp_path / "p.json"),
            "--out",
            str(tmp_path / "pred.json"),
        )
        assert code == 2
        assert "out of range" in stderr_json(err)["message"]

    def test_foreign_sites_same_count_exit_3(self, workspace, tmp_path, capsys):
        save_json({**GEN_CONFIG, "seed": 5}, tmp_path / "gen.json")
        assert main(["gen-data", "--config", str(tmp_path / "gen.json"), "--out", str(tmp_path / "ds")]) == 0
        assert load_dataset(tmp_path / "ds").sites.n == load_checkpoint(workspace / "ck").geometry.n
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "predict",
            "--data",
            str(tmp_path / "ds"),
            "--checkpoint",
            str(workspace / "ck"),
            "--out",
            str(tmp_path / "pred.json"),
        )
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        detail = stderr_json(err)
        assert detail["error"] == "DataError"
        assert "do not match" in detail["message"]
        assert not (tmp_path / "pred.json").exists()


class TestExportReport:
    def test_markdown_table(self, workspace, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "export-report",
            "--report",
            str(workspace / "report.json"),
            "--out",
            str(tmp_path / "summary.md"),
        )
        assert code == 0
        assert "1 report(s)" in out
        text = (tmp_path / "summary.md").read_text()
        assert "| report |" in text
        assert "| report |" in text.splitlines()[2]
        assert text.count("\n") >= 5
        report = json.loads((workspace / "report.json").read_text())
        assert f"{report['mae_mean']:.4f}" in text

    def test_requires_report(self, tmp_path, capsys):
        code, _, err = run(capsys, "export-report", "--out", str(tmp_path / "s.md"))
        assert code == 2
        assert "--report" in stderr_json(err)["message"]

    @pytest.mark.parametrize(
        "content",
        [[1, 2], {"protocol": [1]}, {"mae_mean": 0.5, "persistence": "x"}],
        ids=["report", "protocol", "persistence"],
    )
    def test_non_object_exits_2_naming_the_file(self, tmp_path, capsys, content):
        (tmp_path / "r.json").write_text(json.dumps(content))
        code, _, err = run(
            capsys, "export-report", "--report", str(tmp_path / "r.json"), "--out", str(tmp_path / "s.md")
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        detail = stderr_json(err)
        assert detail["error"] == "ConfigError"
        assert str(tmp_path / "r.json") in detail["message"]
        assert not (tmp_path / "s.md").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tune-kernel", "--data", "{ws}/ds"],
        ["solve", "--config", "{tmp}/solve.json"],
        ["eval", "--data", "{ws}/ds", "--checkpoint", "{ws}/ck"],
        ["predict", "--data", "{ws}/ds", "--checkpoint", "{ws}/ck"],
        ["export-report", "--report", "{ws}/report.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_that_is_a_directory_exits_3(workspace, tmp_path, capsys, argv):
    save_json(TestSolve().solve_config(), tmp_path / "solve.json")
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = run(capsys, *(a.format(ws=workspace, tmp=tmp_path) for a in argv), "--out", str(out))
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == "DataError"
    assert str(out) in detail["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "solve.json"]


def train_config(**sections):
    """TRAIN_CONFIG with the given fields of its "model" or "train" section replaced."""
    return {**TRAIN_CONFIG, **{key: {**TRAIN_CONFIG[key], **fields} for key, fields in sections.items()}}


@pytest.mark.parametrize(
    "command, field, config",
    [
        ("tune-kernel", "candidates", {"candidates": ["mq"]}),
        ("train", "reg_lambda", {**TRAIN_CONFIG, "reg_lambda": [1]}),
        ("train", "model", {**TRAIN_CONFIG, "model": [1]}),
        ("solve", "dt", {**TestSolve().solve_config(), "dt": [0.1]}),
        ("solve", "boundary", {**TestSolve().solve_config(), "boundary": [1]}),
        ("gen-data", "t_end", {**GEN_CONFIG, "t_end": float("inf")}),
        ("gen-data", "substeps_per_output", {**GEN_CONFIG, "substeps_per_output": 2.5}),
        ("gen-data", "n_sites", {**GEN_CONFIG, "n_sites": 10.5}),
        ("gen-data", "grid_size", {**GEN_CONFIG, "grid_size": 12.5}),
        ("gen-data", "seed", {**GEN_CONFIG, "seed": -1}),
        ("gen-data", "tau", {**GEN_CONFIG, "tau": 2.7}),
        ("train", "levels", train_config(model={"levels": 1.5})),
        ("train", "feature_width", train_config(model={"feature_width": 2.5})),
        ("train", "rfn_hidden", train_config(model={"rfn_hidden": 4.0})),
        ("train", "s_alpha_hidden[1]", train_config(model={"s_alpha_hidden": [6, 4.0]})),
        ("train", "max_epochs", train_config(train={"max_epochs": 1.5})),
        ("train", "batch_size", train_config(train={"batch_size": 1.5})),
        ("train", "early_stop_patience", train_config(train={"early_stop_patience": 1.5})),
        ("train", "seed", train_config(train={"seed": 1.5})),
        ("train", "seed", train_config(train={"seed": -1})),
        ("predict", "sequence", {"sequence": 1.9}),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_config_value_of_wrong_type_exits_2(workspace, tmp_path, capsys, command, field, config):
    """A config value of the wrong JSON type or out of range is a ConfigError
    naming the field (one JSON line, exit 2), not a traceback, and nothing is
    written."""
    save_json(config, tmp_path / "config.json")
    data = [] if command in ("solve", "gen-data") else ["--data", str(workspace / "ds")]
    if command == "predict":
        data += ["--checkpoint", str(workspace / "ck")]
    code, _, err = run(
        capsys, command, *data, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")
    )
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == "ConfigError"
    assert repr(field) in detail["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_gen_data_too_large_to_allocate_exits_2(tmp_path, capsys):
    """A grid whose arrays cannot be allocated is a ConfigError (one JSON
    line, exit 2) and leaves no dataset.  The first 10^7 x 10^7 array fails
    at allocation; what is touched before it, the grid coordinates, peaks
    near 160 MB."""
    save_json({"grid_size": 10_000_000, "n_sites": 4, "n_sequences": 3, "split": [1, 1, 1]}, tmp_path / "gen.json")
    code, _, err = run(capsys, "gen-data", "--config", str(tmp_path / "gen.json"), "--out", str(tmp_path / "ds"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == "ConfigError"
    assert "too large to generate" in detail["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json"]


def test_solve_too_large_to_allocate_exits_2(tmp_path, capsys):
    """10^12 steps over 3 sites ask for a 21.8 TiB trajectory: a ConfigError
    (one JSON line, exit 2) raised when the allocation fails, before any
    memory is touched, and no output file."""
    save_json(TestSolve().solve_config(dt=1e-9, t_end=1000.0), tmp_path / "solve.json")
    code, _, err = run(capsys, "solve", "--config", str(tmp_path / "solve.json"), "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == "ConfigError"
    assert "too large to generate" in detail["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["solve.json"]


@pytest.mark.parametrize("argv", [["gen-data", "--config"], ["export-report", "--report"]], ids=lambda a: a[0])
def test_config_path_that_cannot_be_read_exits_2(tmp_path, capsys, argv):
    """A config or report path that is a directory is a ConfigError naming
    the path (one JSON line, exit 2), not an IsADirectoryError traceback."""
    (tmp_path / "config").mkdir()
    code, _, err = run(capsys, *argv, str(tmp_path / "config"), "--out", str(tmp_path / "out"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == "ConfigError"
    assert str(tmp_path / "config") in detail["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config"]


@pytest.mark.parametrize("argv", [["gen-data", "--config"], ["export-report", "--report"]], ids=lambda a: a[0])
def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    """A config or report file that is not UTF-8 (here a UTF-16 byte-order
    mark) is a ConfigError naming the path, not a bare codec error."""
    (tmp_path / "config.json").write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, *argv, str(tmp_path / "config.json"), "--out", str(tmp_path / "out"))
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == "ConfigError"
    assert str(tmp_path / "config.json") in detail["message"]
    assert "not UTF-8" in detail["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("reg_lambda", "NaN"),
        ("reg_lambda", "Infinity"),
        ("lr", "NaN"),
        ("lr", "Infinity"),
        ("scheduled_sampling_k", "NaN"),
    ],
)
def test_non_finite_train_config_exits_2_before_training(workspace, tmp_path, capsys, monkeypatch, field, value):
    """NaN and Infinity, which JSON config files may hold, are rejected with
    the config: before the first epoch, with no checkpoint written."""
    train = dict(TRAIN_CONFIG["train"])
    config = {**TRAIN_CONFIG, "train": train}
    (config if field == "reg_lambda" else train)[field] = float(value)
    error, message = (
        ("ValueError", "finite and nonnegative") if field == "reg_lambda" else ("ConfigError", f"{field} must be finite")
    )
    calls = []
    monkeypatch.setattr("umtn.cli.train_loop", lambda *args: calls.append(args))
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, _, err = run(
        capsys, "train", "--data", str(workspace / "ds"), "--config", str(tmp_path / "config.json"),
        "--out", str(tmp_path / "ck"),
    )
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    detail = stderr_json(err)
    assert detail["error"] == error
    assert message in detail["message"]
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestParser:
    def test_unknown_command_is_system_exit(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("gen-data", "tune-kernel", "solve", "train", "eval", "predict", "export-report"):
            assert command in out


def test_package_import_loads_no_scipy():
    """The runtime depends on numpy alone: importing the package and its CLI
    pulls in no scipy module."""
    src = str(Path(umtn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, umtn, umtn.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
