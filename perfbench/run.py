"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload reduced --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The package is imported from `src/` next to
this directory, with the BLAS and OpenMP thread counts pinned before numpy
loads.  With `--trace 0` the run repeats the workload for `--seconds` seconds
and reports the end-to-end metrics as medians over repetitions; `setup_s` is
the median over several fresh interpreters.  With `--trace 1` it also runs
one repetition with the library's layer entry points wrapped in spans and
reports the per-layer metrics.  A line `environment {...}` precedes the
result.  README.md beside this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pinned before anything imports numpy; recorded with every result.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Run by each set-up probe: import everything, set the workload up, print the clock.
PROBE_CODE = "import sys, run; run.setup_probe(sys.argv[1], int(sys.argv[2]))"


def _clock() -> float:
    """A clock shared by all processes on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_probe(workload: str, seed: int) -> None:
    """The body of one set-up probe process: set up, then print the clock."""
    import workloads
    from spans import Tracer

    workloads.WORKLOADS[workload].setup(seed, Tracer())
    print(_clock(), flush=True)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's first stage."""
    start = _clock()
    probe = subprocess.Popen(
        [sys.executable, "-c", PROBE_CODE, workload, str(seed)], cwd=BENCH_DIR, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = probe.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        raise
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {probe.returncode}")
    return float(out.split()[-1]) - start


def _blas_version():
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Hash of the package sources, which identifies the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "umtn").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    """Repeat the workload for `seconds` (and, traced, once more); build the result.

    A failed check or a raised exception counts as a failed operation; metrics
    are still reported from the repetitions that ran to the end.
    """
    import workloads
    from spans import Tracer

    spec = workloads.WORKLOADS[workload]
    setup_s = None if trace else statistics.median(time_setup(workload, seed) for _ in range(SETUP_PROBES))
    state = spec.setup(seed, Tracer())

    def run_rep(tracer: Tracer, traced: bool):
        rep = workloads.Rep(tracer)
        rep_dir = Path(tempfile.mkdtemp(dir=workdir))
        try:
            spec.run(state, seed, rep_dir, rep, traced)
        except Exception as exc:  # one failed operation; the run reports it and stops
            traceback.print_exc()
            rep.raised = True
            rep.check(f"repetition raised {type(exc).__name__}", False)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        for name in rep.failed_checks:
            print(f"check failed: {name}", file=sys.stderr)
        return rep

    # An untraced run makes at least three repetitions, so that every median
    # has a middle value that is not an average of two.
    min_reps = 1 if trace else 3
    reps, rep_seconds = [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(Tracer(), traced=False))
        rep_seconds.append(time.perf_counter() - rep_start)
        longest = max(rep_seconds)
        reserved = longest if trace else 0.0  # room for the traced repetition
        out_of_time = time.perf_counter() - start + longest + reserved > seconds
        if reps[-1].failed or (out_of_time and len(reps) >= min_reps):
            break

    checks = workloads.Rep(Tracer())  # the run's own checks, counted like a repetition's
    for rep in reps[1:]:
        checks.check("repetitions give identical outputs", rep.outputs == reps[0].outputs)
    traced = None
    if trace and not reps[-1].failed:
        tracer = Tracer()
        graph_sizes = workloads.instrument(tracer)
        try:
            traced = run_rep(tracer, traced=True)
        finally:
            tracer.restore()
        checks.check("traced outputs equal untraced outputs", traced.outputs == reps[0].outputs)
    ran = reps + ([traced] if traced else [])
    attempted = checks.attempted + sum(rep.attempted for rep in ran)
    failed = checks.failed + sum(rep.failed for rep in ran)

    good = [rep for rep in reps if not rep.raised]
    metrics: dict = {}
    if traced and not traced.raised:
        metrics = workloads.layer_metrics(tracer, traced, graph_sizes)
        base = statistics.median(rep.wall_s for rep in good)
        traced_wall = sum(traced.stage_s[name] for name in good[0].stage_s)
        metrics["trace.overhead_frac"] = (traced_wall / base - 1.0, "1")
        metrics["fail_frac"] = (failed / attempted, "1")
    elif good and not trace:
        metrics = {"setup_s": (setup_s, "s"), "pipeline_s": (statistics.median(rep.wall_s for rep in good), "s")}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "umtn" / "__init__.py").is_file():
        print(f"no package sources at {SRC / 'umtn'}; run from a full checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = BENCH_DIR / "_work"
    workdir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        print("environment " + json.dumps(environment(args.workload, args.seed, args.seconds, bool(args.trace))), flush=True)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except Exception:  # set-up failed: report one failed operation and no metrics
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
