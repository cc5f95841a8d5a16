"""On-disk formats: datasets, model checkpoints, CSV ingestion, JSON configs.

Every artifact is a directory holding a textual ``manifest.json`` plus raw
little-endian float64 payload files, so anything can parse it without extra
dependencies.  Every payload, a checkpoint's ``params.bin`` included, is
declared under the manifest's ``payloads`` with its shape and sha256; all
artifacts go through `_save_artifact` and `_load_artifact`, which verify the
format version, the kind, and each payload's checksum, byte length and
finiteness.  Checkpoints from before ``params.bin`` was declared there fail
to load (DataError) and must be retrained.

Every file the package writes is either fully written or not written at all:
artifacts are built in a private temp directory renamed into place
(`_atomic_directory`), single files go through `write_text`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .datagen import SequenceDataset
from .errors import ConfigError, DataError, invalid_field
from .interpolation import SiteSet
from .kernels import RadialKernel
from .model import ModelConfig, SiteGeometry, UmtnModel

FORMAT_VERSION = 1

# Keys each kind of manifest must carry, and the payloads it must describe.
_MANIFEST_KEYS = {
    "dataset": "dim n_sites n_sequences sequence_length tau split normalized mean variance seed payloads".split(),
    "checkpoint": "model_config kernel reg_lambda site_hash parameters payloads".split(),
}
_MANIFEST_PAYLOADS = {"dataset": ("sites.bin", "sequences.bin"), "checkpoint": ("sites.bin", "params.bin")}


class ChecksumError(DataError):
    pass


class TruncatedPayloadError(DataError):
    pass


class VersionError(DataError):
    pass


def check_save_target(path: Union[str, Path]) -> Path:
    """Fail fast unless a save may replace `path`: it must be absent, an empty
    directory, or an artifact (a directory holding manifest.json)."""
    directory = Path(path)
    if directory.exists() and not directory.is_dir():
        raise DataError(f"save target {directory} exists and is not a directory")
    if directory.is_dir() and not (directory / "manifest.json").is_file() and any(directory.iterdir()):
        raise DataError(f"save target {directory} is a non-empty directory without manifest.json")
    return directory


def _sibling(target: Path) -> Path:
    """A fresh private name ``.<name>.<random>`` in the target's directory."""
    return target.parent / f".{target.name}.{os.urandom(6).hex()}"


@contextmanager
def _atomic_directory(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a private temp directory that replaces `path` whole on a clean exit.

    The old artifact is moved aside, the new one renamed in, then the old one
    removed; on any failure the old artifact stays and no temp directory is
    left.  Of two saves racing to one target, the loser gets DataError.
    """
    target = Path(path)
    tmp, aside = _sibling(target), _sibling(target)
    try:
        check_save_target(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp.mkdir()
        yield tmp
        if target.exists():
            os.rename(target, aside)
        try:
            os.rename(tmp, target)
        except OSError:
            if aside.exists():
                os.rename(aside, target)
            raise
    except OSError as exc:
        raise DataError(f"cannot save {target}: {exc.strerror or exc}") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(aside, ignore_errors=True)


def write_text(path: Union[str, Path], text: str) -> None:
    """Write `text` to `path` whole or not at all, creating missing parents."""
    target = Path(path)
    tmp = _sibling(target)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as handle:
            handle.write(text.encode())
        os.replace(tmp, target)
    except OSError as exc:
        raise DataError(f"cannot write {target}: {exc.strerror or exc}") from exc
    finally:
        if tmp.is_file():
            tmp.unlink()


def _write_payload(directory: Path, name: str, array: np.ndarray) -> dict:
    data = np.ascontiguousarray(array, dtype="<f8").tobytes()
    (directory / name).write_bytes(data)
    return {
        "shape": list(array.shape),
        "dtype": "<f8",
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _manifest_field(field: str):
    """Report a manifest value that does not make a valid object as DataError:
    the manifest is corrupt, not the caller in error."""
    return invalid_field(f"manifest field {field!r}", DataError)


def _read_payload(directory: Path, name: str, meta: dict) -> np.ndarray:
    path = directory / name
    if not path.exists():
        raise DataError(f"missing payload {name}")
    data = path.read_bytes()
    with _manifest_field(f"payloads[{name}]"):
        expected = int(np.prod(meta["shape"])) * 8
        if len(data) != expected:
            raise TruncatedPayloadError(
                f"payload {name}: expected {expected} bytes, found {len(data)}"
            )
        digest = hashlib.sha256(data).hexdigest()
        if digest != meta["sha256"]:
            raise ChecksumError(f"payload {name}: checksum mismatch")
        values = np.frombuffer(data, dtype="<f8").reshape(meta["shape"]).astype(float)
    if not np.all(np.isfinite(values)):
        raise DataError(f"payload {name} contains non-finite values")
    return values


def _save_artifact(
    path: Union[str, Path], kind: str, fields: dict, payloads: dict[str, np.ndarray], files: Optional[dict] = None
) -> None:
    """Write a `kind` artifact whole or not at all: one file per payload, a
    manifest of `fields` plus every payload's shape and sha256, and each of
    `files` (name -> text) verbatim, which no checksum covers."""
    with _atomic_directory(path) as directory:
        for name, text in (files or {}).items():
            (directory / name).write_bytes(text.encode())
        meta = {name: _write_payload(directory, name, array) for name, array in payloads.items()}
        manifest = {"format_version": FORMAT_VERSION, "kind": kind, **fields, "payloads": meta}
        save_json(manifest, directory / "manifest.json")


def _load_artifact(path: Union[str, Path], kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The checked manifest of a `kind` artifact and every payload its kind declares."""
    directory = Path(path)
    if not (directory / "manifest.json").exists():
        raise DataError(f"no manifest.json under {directory}")
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest.json is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest.json holds a JSON {type(manifest).__name__}, expected an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {version!r}")
    if manifest.get("kind") != kind:
        raise DataError(f"expected a {kind} directory, found kind={manifest.get('kind')!r}")
    missing = [key for key in _MANIFEST_KEYS[kind] if key not in manifest]
    payloads = manifest.get("payloads")
    for name in _MANIFEST_PAYLOADS[kind]:
        meta = payloads.get(name) if isinstance(payloads, dict) else None
        if not (isinstance(meta, dict) and "shape" in meta and "sha256" in meta):
            missing.append(f"payloads[{name}]")
    if missing:
        raise DataError(f"{kind} manifest lacks {', '.join(missing)}")
    arrays = {name: _read_payload(directory, name, payloads[name]) for name in _MANIFEST_PAYLOADS[kind]}
    return manifest, arrays


def save_dataset(dataset: SequenceDataset, path: Union[str, Path]) -> None:
    fields = {
        "dim": dataset.sites.dim,
        "n_sites": dataset.sites.n,
        "n_sequences": dataset.n_sequences,
        "sequence_length": dataset.sequence_length,
        "tau": dataset.tau,
        "horizon": dataset.horizon,
        "split": list(dataset.split),
        "normalized": dataset.normalized,
        "mean": dataset.mean,
        "variance": dataset.variance,
        "seed": dataset.seed,
    }
    payloads = {"sites.bin": dataset.sites.sites, "sequences.bin": dataset.sequences}
    _save_artifact(path, "dataset", fields, payloads)


def load_dataset(path: Union[str, Path]) -> SequenceDataset:
    manifest, payloads = _load_artifact(path, "dataset")
    sites, sequences = payloads["sites.bin"], payloads["sequences.bin"]
    if list(sites.shape) != [manifest["n_sites"], manifest["dim"]]:
        raise DataError("sites payload shape disagrees with the manifest")
    expected = [manifest["n_sequences"], manifest["sequence_length"], manifest["n_sites"]]
    if list(sequences.shape) != expected:
        raise DataError("sequences payload shape disagrees with the manifest")
    with _manifest_field("split, tau, mean, variance, normalized or seed"):
        return SequenceDataset(
            SiteSet(sites),
            sequences,
            tuple(manifest["split"]),
            manifest["tau"],
            mean=manifest["mean"],
            variance=manifest["variance"],
            normalized=manifest["normalized"],
            seed=manifest["seed"],
        )


def save_checkpoint(
    model: UmtnModel,
    path: Union[str, Path],
    extra: Optional[dict] = None,
    history_csv: Optional[str] = None,
) -> None:
    """Persist parameters plus everything needed to rebuild the model.

    The parameters are one payload, ``params.bin``, concatenated in the order
    of the manifest's ``parameters`` list of names and shapes.  `extra` is
    free-form metadata stored in the manifest.  `history_csv`, when given, is
    written as ``history.csv`` inside the same atomic build, so the checkpoint
    and its training history appear together or not at all.
    """
    names = model.params.names()
    fields = {
        "model_config": model.config.to_dict(),
        "kernel": model.geometry.kernel.to_dict(),
        "reg_lambda": model.geometry.reg_lambda,
        "site_hash": model.geometry.site_hash,
        "parameters": [{"name": name, "shape": list(model.params[name].shape)} for name in names],
        "extra": extra or {},
    }
    payloads = {
        "sites.bin": model.geometry.site_set.sites,
        "params.bin": np.concatenate([model.params[name].values.ravel() for name in names]),
    }
    files = None if history_csv is None else {"history.csv": history_csv}
    _save_artifact(path, "checkpoint", fields, payloads, files)


def load_checkpoint(path: Union[str, Path]) -> UmtnModel:
    manifest, payloads = _load_artifact(path, "checkpoint")
    site_set = SiteSet(payloads["sites.bin"])
    if site_set.content_hash() != manifest["site_hash"]:
        raise DataError("checkpoint site hash does not match the stored sites")
    with _manifest_field("model_config"):
        config = ModelConfig.from_dict(manifest["model_config"])
    with _manifest_field("kernel"):
        kernel = RadialKernel.from_dict(manifest["kernel"])
    with _manifest_field("reg_lambda"):
        geometry = SiteGeometry(kernel, site_set, reg_lambda=manifest["reg_lambda"])
    params = UmtnModel.initialize_params(config, seed=0)
    expected = [(name, params[name].shape) for name in params.names()]
    with _manifest_field("parameters"):
        stored = [(entry["name"], tuple(entry["shape"])) for entry in manifest["parameters"]]
    for entry, want in zip_longest(stored, expected):
        if entry != want:
            name = (entry or want)[0]
            raise DataError(
                f"checkpoint parameter {name!r} does not match the model config: stored {entry}, expected {want}"
            )
    sizes = [params[name].values.size for name, _ in expected]
    flat = payloads["params.bin"]
    if flat.shape != (sum(sizes),):
        raise DataError(f"payload params.bin has shape {flat.shape}, the parameters need ({sum(sizes)},)")
    chunks = np.split(flat, np.cumsum(sizes)[:-1])
    params.load_snapshot({name: chunk.reshape(shape) for (name, shape), chunk in zip(expected, chunks)})
    return UmtnModel(config, geometry, params)


def _read_csv_rows(path: Union[str, Path], required: list[str]) -> list[dict]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for column in required:
            if column not in header:
                raise DataError(f"{path}: missing column {column!r}")
        return list(reader)


def ingest_csv(
    sites_csv: Union[str, Path],
    sequences_csv: Union[str, Path],
    tau: int,
    horizon: int,
    split: tuple[int, int, int],
) -> SequenceDataset:
    """Assemble a dataset from site and measurement tables.

    The sites table has columns site_id, coord_1 .. coord_d; the measurement
    table has sequence_id, time_index, site_id, value.  Every (sequence,
    time, site) cell must be present exactly once; assembly is keyed, so row
    order does not matter.
    """
    site_rows = _read_csv_rows(sites_csv, ["site_id"])
    if not site_rows:
        raise DataError(f"{sites_csv}: no sites")
    coord_cols = []
    i = 1
    while f"coord_{i}" in site_rows[0]:
        coord_cols.append(f"coord_{i}")
        i += 1
    if not coord_cols:
        raise DataError(f"{sites_csv}: no coord_1..coord_d columns")
    try:
        by_id = {
            int(row["site_id"]): [float(row[c]) for c in coord_cols] for row in site_rows
        }
    except (TypeError, ValueError) as exc:
        raise DataError(f"{sites_csv}: unparseable site row: {exc}") from exc
    if len(by_id) != len(site_rows):
        raise DataError(f"{sites_csv}: duplicate site_id")
    site_ids = sorted(by_id)
    site_pos = {sid: j for j, sid in enumerate(site_ids)}
    sites = SiteSet(np.array([by_id[sid] for sid in site_ids]))

    rows = _read_csv_rows(sequences_csv, ["sequence_id", "time_index", "site_id", "value"])
    cells: dict[tuple[int, int, int], float] = {}
    for row in rows:
        try:
            key = (int(row["sequence_id"]), int(row["time_index"]), int(row["site_id"]))
            value = float(row["value"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{sequences_csv}: unparseable row: {exc}") from exc
        if key in cells:
            raise DataError(f"{sequences_csv}: duplicate cell {key}")
        if key[2] not in site_pos:
            raise DataError(f"{sequences_csv}: unknown site_id {key[2]}")
        cells[key] = value
    if not cells:
        raise DataError(f"{sequences_csv}: no measurements")
    seq_ids = sorted({k[0] for k in cells})
    time_ids = sorted({k[1] for k in cells})
    values = np.empty((len(seq_ids), len(time_ids), len(site_ids)))
    for a, sid in enumerate(seq_ids):
        for b, t in enumerate(time_ids):
            for c, site in enumerate(site_ids):
                if (sid, t, site) not in cells:
                    raise DataError(
                        f"incomplete coverage: missing (sequence {sid}, time {t}, site {site})"
                    )
                values[a, b, c] = cells[(sid, t, site)]
    if len(time_ids) != tau + horizon:
        raise ConfigError(
            f"tables cover {len(time_ids)} time steps, tau+horizon needs {tau + horizon}"
        )
    return SequenceDataset(sites, values, split, tau)


def load_json_config(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigError(f"{path} is not UTF-8 text: byte {byte:#04x} at offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def save_json(data: dict, path: Union[str, Path]) -> None:
    write_text(path, json.dumps(data, indent=2) + "\n")
