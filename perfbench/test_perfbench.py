"""Tests of the benchmark itself, at small scales.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run  # puts src/ on sys.path and pins the BLAS threads
import workloads
from spans import Tracer
from umtn import interpolation, model, training

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

TINY = {
    "reduced": workloads.pipeline_workload(
        workloads.PipelineScale(grid_size=8, n_sites=16, split=(8, 4, 4), levels=1, epochs=2, max_mae_ratio=math.inf)
    ),
    "sites180": workloads.pipeline_workload(
        workloads.PipelineScale(grid_size=10, n_sites=24, split=(4, 2, 6), levels=2, epochs=1, max_mae_ratio=math.inf)
    ),
    "collocation": workloads.collocation_workload(
        workloads.CollocationScale(n_sites=130, interior_side=10, steps=50, dt=1e-3, tolerance=1e-2)
    ),
}
# Outputs and counts that must repeat exactly for a seed.
COUNTS = (
    "evaluation.mae_ratio",
    "collocation.solve_err",
    "datagen.rk4_substeps",
    "interpolation.build_phi_calls",
    "interpolation.solve_calls",
    "model.rollout_calls",
    "model.graph_nodes_per_batch",
    "autodiff.backward_calls",
    "storage.bytes_written",
)


@pytest.fixture
def tiny(monkeypatch):
    """Swap the workloads for small ones and the set-up probes for a constant."""
    for name, spec in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    monkeypatch.setattr(run, "time_setup", lambda workload, seed: 1.0)


def _measure(name, seed, trace, tmp_path):
    result = run.measure(name, seed, seconds=1, trace=trace, workdir=tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    return {key: entry["value"] for key, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_repeats_outputs_and_counts(tiny, tmp_path, name):
    traced_first, traced_second = (_measure(name, 3, True, tmp_path) for _ in range(2))
    assert {k: traced_first[k] for k in COUNTS} == {k: traced_second[k] for k in COUNTS}


def test_traced_run_restores_every_wrapped_attribute(tiny, tmp_path):
    owners = (model, training, interpolation, model.UmtnModel, interpolation.InterpolationSystem)
    before = [dict(vars(owner)) for owner in owners]
    layers = _measure("reduced", 0, True, tmp_path)
    assert layers["model.lstb_calls"] > 0 and layers["interpolation.build_phi_calls"] > 0
    assert layers["autodiff.backward_calls"] > 0 and layers["model.graph_nodes_per_batch"] > 0
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[key] is value for key, value in saved.items()), owner


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_equal_untraced(tiny, tmp_path, name):
    spec = workloads.WORKLOADS[name]
    plain = workloads.Rep(Tracer())
    spec.run(spec.setup(5, Tracer()), 5, tmp_path / "plain", plain, False)
    tracer = Tracer()
    workloads.instrument(tracer)
    traced = workloads.Rep(tracer)
    try:
        spec.run(None, 5, tmp_path / "traced", traced, True)  # the traced run sets itself up
    finally:
        tracer.restore()
    assert plain.outputs and traced.outputs == plain.outputs
    assert not plain.failed and not traced.failed


def test_benchmark_json_names_every_reported_metric(tiny, tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in TINY:
        result = run.measure(name, 0, seconds=1, trace=False, workdir=tmp_path)["metrics"]
        assert {key: entry["unit"] for key, entry in result.items()} == end_to_end, name
        assert all(entry["value"] > 0 for entry in result.values()), name
        layers = run.measure(name, 0, seconds=1, trace=True, workdir=tmp_path)["metrics"]
        assert {key: entry["unit"] for key, entry in layers.items()} == per_layer, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_second_seed_runs_cleanly_end_to_end():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduced", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    environment = json.loads(lines[-2].removeprefix("environment "))
    assert environment["seed"] == 2 and environment["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0  # includes mae_ratio < 1


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduced", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
