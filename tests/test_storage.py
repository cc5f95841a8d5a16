import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtn import storage
from umtn.datagen import SequenceDataset
from umtn.errors import ConfigError, DataError
from umtn.interpolation import SiteSet
from umtn.kernels import KernelFamily, RadialKernel
from umtn.model import ModelConfig, UmtnModel
from umtn.storage import (
    ChecksumError,
    TruncatedPayloadError,
    VersionError,
    check_save_target,
    ingest_csv,
    load_checkpoint,
    load_dataset,
    load_json_config,
    save_checkpoint,
    save_dataset,
    save_json,
    write_text,
)

MQ = RadialKernel(KernelFamily.MULTIQUADRIC, 0.7)

TINY = ModelConfig(levels=1, feature_width=2, s_alpha_hidden=(6, 4), nab_hidden=3, rfn_hidden=6)


def sample_dataset(seed=0):
    rng = np.random.default_rng(seed)
    sites = SiteSet(rng.uniform(0.0, 2.0, (6, 2)))
    sequences = rng.normal(size=(4, 5, 6))
    return SequenceDataset(sites, sequences, (2, 1, 1), tau=2, seed=seed)


def sample_model(seed=3):
    sites = SiteSet(np.random.default_rng(seed).uniform(0.0, 2.0, (5, 2)))
    model = UmtnModel.build(TINY, MQ, sites, seed=seed, reg_lambda=1e-8)
    # glorot leaves every bias zero; fill them so the round trip moves real data
    rng = np.random.default_rng(seed + 1)
    for name in model.params.names():
        if name.endswith(("b1", "b2", "b3", "rfn.b", "bo")):
            model.params[name].values[:] = rng.normal(size=model.params[name].values.shape)
    return model


def patch_manifest(directory, mutate):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


def read_manifest(directory):
    return json.loads((directory / "manifest.json").read_text())


def corrupt_byte(path, offset=0):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestDatasetRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        dataset = sample_dataset(seed=5)
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert np.array_equal(loaded.sites.sites, dataset.sites.sites)
        assert np.array_equal(loaded.sequences, dataset.sequences)
        assert loaded.split == dataset.split
        assert loaded.tau == dataset.tau
        assert loaded.horizon == dataset.horizon
        assert loaded.normalized == dataset.normalized
        assert loaded.mean == dataset.mean
        assert loaded.variance == dataset.variance
        assert loaded.seed == dataset.seed

    def test_round_trip_without_kernel(self, tmp_path):
        """A dataset carries no kernel: the manifest has no "kernel" key, and
        one left in an older manifest is ignored on load."""
        save_dataset(sample_dataset(), tmp_path / "ds")
        assert "kernel" not in read_manifest(tmp_path / "ds")
        patch_manifest(tmp_path / "ds", lambda m: m.update(kernel=MQ.to_dict()))
        loaded = load_dataset(tmp_path / "ds")
        assert np.array_equal(loaded.sequences, sample_dataset().sequences)
        assert not hasattr(loaded, "kernel")

    def test_normalized_flag_survives(self, tmp_path):
        dataset = sample_dataset(seed=1)
        normalized = dataset.normalize()
        save_dataset(normalized, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.normalized
        assert loaded.mean == normalized.mean
        assert loaded.variance == normalized.variance

    def test_manifest_is_plain_json(self, tmp_path):
        save_dataset(sample_dataset(), tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["kind"] == "dataset"
        assert set(manifest["payloads"]) == {"sites.bin", "sequences.bin"}
        for meta in manifest["payloads"].values():
            assert meta["dtype"] == "<f8"
            assert len(meta["sha256"]) == 64

    def test_lock_released_and_resave_allowed(self, tmp_path):
        target = tmp_path / "ds"
        save_dataset(sample_dataset(seed=0), target)
        assert not (target / ".lock").exists()
        save_dataset(sample_dataset(seed=9), target)
        assert load_dataset(target).seed == 9
        assert siblings(target) == []


def siblings(target):
    """Temp directories and files a save may have left beside `target`."""
    return sorted(p.name for p in target.parent.glob(f".{target.name}.*"))


class TestAtomicSave:
    def test_leftover_lock_does_not_block_save(self, tmp_path):
        target = tmp_path / "ds"
        save_dataset(sample_dataset(seed=0), target)
        (target / ".lock").touch()  # as left by a crashed save of an older release
        save_dataset(sample_dataset(seed=9), target)
        assert load_dataset(target).seed == 9
        assert not (target / ".lock").exists()

    def test_failed_save_keeps_previous_artifact(self, tmp_path, monkeypatch):
        target = tmp_path / "ds"
        save_dataset(sample_dataset(seed=0), target)
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        real_write_payload = storage._write_payload
        calls = []

        def fail_on_second(directory, name, array):
            calls.append(name)
            if len(calls) == 2:
                raise RuntimeError("disk gave out")
            return real_write_payload(directory, name, array)

        monkeypatch.setattr(storage, "_write_payload", fail_on_second)
        with pytest.raises(RuntimeError, match="disk gave out"):
            save_dataset(sample_dataset(seed=9), target)
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        assert siblings(target) == []

    def test_empty_directory_is_a_valid_target(self, tmp_path):
        (tmp_path / "ds").mkdir()
        save_dataset(sample_dataset(seed=4), tmp_path / "ds")
        assert load_dataset(tmp_path / "ds").seed == 4

    def test_replacing_removes_files_of_the_old_artifact(self, tmp_path):
        target = tmp_path / "ck"
        save_checkpoint(sample_model(), target)
        (target / "history.csv").write_text("epoch,train_loss,val_mae\n")
        save_checkpoint(sample_model(seed=4), target)
        assert sorted(p.name for p in target.iterdir()) == ["manifest.json", "params.bin", "sites.bin"]
        assert siblings(target) == []

    def test_non_empty_directory_without_manifest_refused(self, tmp_path):
        target = tmp_path / "ds"
        target.mkdir()
        (target / "notes.txt").write_text("keep me")
        with pytest.raises(DataError, match="without manifest.json"):
            check_save_target(target)
        with pytest.raises(DataError, match="without manifest.json"):
            save_dataset(sample_dataset(), target)
        assert [p.name for p in target.iterdir()] == ["notes.txt"]
        assert siblings(target) == []

    def test_file_target_refused(self, tmp_path):
        (tmp_path / "ds").write_text("a file")
        with pytest.raises(DataError, match="not a directory"):
            save_dataset(sample_dataset(), tmp_path / "ds")
        assert (tmp_path / "ds").read_text() == "a file"

    def test_lost_rename_race_raises_data_error(self, tmp_path, monkeypatch):
        """A rival save that lands first keeps its artifact; the loser gets DataError."""
        target = tmp_path / "ds"
        real_rename = os.rename
        rivals = []

        def rival_lands_first(src, dst):
            if Path(dst) == target and not rivals:
                rivals.append(src)
                save_dataset(sample_dataset(seed=7), target)
            real_rename(src, dst)

        monkeypatch.setattr(storage.os, "rename", rival_lands_first)
        with pytest.raises(DataError, match="cannot save"):
            save_dataset(sample_dataset(seed=1), target)
        monkeypatch.undo()
        assert load_dataset(target).seed == 7
        assert siblings(target) == []


    def test_concurrent_saves_never_mix(self, tmp_path):
        """Threads racing to one target: each save lands whole or raises DataError."""
        target = tmp_path / "ds"
        datasets = {seed: sample_dataset(seed=seed) for seed in range(8)}
        saved, failures = [], []

        def save_repeatedly(dataset):
            for _ in range(5):
                try:
                    save_dataset(dataset, target)
                    saved.append(dataset.seed)
                except DataError:
                    pass
                except Exception as exc:  # anything else breaks the contract
                    failures.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=save_repeatedly, args=(d,)) for d in datasets.values()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        loaded = load_dataset(target)
        assert loaded.seed in saved
        assert np.array_equal(loaded.sequences, datasets[loaded.seed].sequences)
        assert siblings(target) == []


class TestDatasetCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        save_dataset(sample_dataset(seed=2), tmp_path / "ds")
        return tmp_path / "ds"

    def test_flipped_byte_fails_checksum(self, saved):
        corrupt_byte(saved / "sequences.bin", offset=17)
        with pytest.raises(ChecksumError, match="sequences.bin"):
            load_dataset(saved)

    def test_truncated_payload(self, saved):
        data = (saved / "sites.bin").read_bytes()
        (saved / "sites.bin").write_bytes(data[:-8])
        with pytest.raises(TruncatedPayloadError, match="sites.bin"):
            load_dataset(saved)

    def test_missing_payload(self, saved):
        (saved / "sequences.bin").unlink()
        with pytest.raises(DataError, match="sequences.bin"):
            load_dataset(saved)

    def test_unsupported_format_version(self, saved):
        patch_manifest(saved, lambda m: m.update(format_version=2))
        with pytest.raises(VersionError, match="2"):
            load_dataset(saved)

    def test_wrong_kind(self, saved):
        patch_manifest(saved, lambda m: m.update(kind="checkpoint"))
        with pytest.raises(DataError, match="dataset"):
            load_dataset(saved)

    def test_manifest_not_json(self, saved):
        (saved / "manifest.json").write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_dataset(saved)

    @pytest.mark.parametrize("key", ["payloads", "tau", "split"])
    def test_manifest_missing_key(self, saved, key):
        patch_manifest(saved, lambda m: m.pop(key))
        with pytest.raises(DataError, match=f"dataset manifest lacks {key}"):
            load_dataset(saved)

    def test_manifest_missing_payload_entry(self, saved):
        patch_manifest(saved, lambda m: m["payloads"].pop("sequences.bin"))
        with pytest.raises(DataError, match=r"lacks payloads\[sequences.bin\]"):
            load_dataset(saved)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
    def test_manifest_not_an_object(self, saved, text):
        (saved / "manifest.json").write_text(text)
        with pytest.raises(DataError, match="expected an object"):
            load_dataset(saved)

    def test_manifest_missing(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="manifest"):
            load_dataset(tmp_path / "empty")

    def test_nan_payload_rejected(self, saved):
        # valid checksum over poisoned bytes, so only the finiteness guard fires
        bad = np.full((4, 5, 6), np.nan)
        meta = json.loads((saved / "manifest.json").read_text())["payloads"]["sequences.bin"]
        data = bad.astype("<f8").tobytes()
        (saved / "sequences.bin").write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()

        def swap(m):
            m["payloads"]["sequences.bin"]["sha256"] = digest

        patch_manifest(saved, swap)
        assert meta["shape"] == [4, 5, 6]
        with pytest.raises(DataError, match="non-finite"):
            load_dataset(saved)

    @pytest.mark.parametrize(
        "field, value", [("split", [1.9, 1, 1]), ("split", [2, 1.0, 1]), ("tau", 2.0), ("tau", 0)]
    )
    def test_split_and_tau_must_be_integers(self, saved, field, value):
        """An edited count is refused, not truncated: [1.9, 1, 1] once loaded as (1, 1, 1)."""
        patch_manifest(saved, lambda m: m.update({field: value}))
        with pytest.raises(DataError, match=f"'{field}' must be") as caught:
            load_dataset(saved)
        assert caught.value.exit_code == 3

    def test_manifest_shape_disagreement(self, saved):
        patch_manifest(saved, lambda m: m.update(n_sites=7))
        with pytest.raises(DataError, match="disagree"):
            load_dataset(saved)


class TestCheckpoint:
    def test_parameters_round_trip_bitwise(self, tmp_path):
        model = sample_model()
        save_checkpoint(model, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.params.names() == model.params.names()
        for name in model.params.names():
            assert np.array_equal(loaded.params[name].values, model.params[name].values)
        assert loaded.config.to_dict() == model.config.to_dict()
        assert loaded.geometry.kernel.family == model.geometry.kernel.family
        assert loaded.geometry.kernel.epsilon == model.geometry.kernel.epsilon
        assert loaded.geometry.reg_lambda == model.geometry.reg_lambda
        assert loaded.geometry.site_hash == model.geometry.site_hash

    def test_round_trip_preserves_predictions(self, tmp_path):
        model = sample_model(seed=7)
        save_checkpoint(model, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        observed = np.random.default_rng(0).normal(size=(1, 3, 5))
        a = model.rollout(observed, horizon=3).predictions
        b = loaded.rollout(observed, horizon=3).predictions
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("hidden", [(16,), (16, 8, 4)], ids=["1-hidden", "3-hidden"])
    def test_spatial_net_of_any_depth_round_trips(self, tmp_path, hidden):
        """`s_alpha_hidden` may hold any number of layers: the model builds,
        rolls out, and comes back from a checkpoint with the same predictions."""
        config = dataclasses.replace(TINY, s_alpha_hidden=hidden)
        sites = SiteSet(np.random.default_rng(5).uniform(0.0, 2.0, (5, 2)))
        model = UmtnModel.build(config, MQ, sites, seed=5, reg_lambda=1e-8)
        assert [name for name in model.params.names() if name.startswith("alpha.w")] == [
            f"alpha.w{i}" for i in range(len(hidden) + 1)
        ]
        observed = np.random.default_rng(6).normal(size=(2, 3, 5))
        predictions = model.rollout(observed, horizon=3).predictions
        assert np.all(np.isfinite(predictions))
        save_checkpoint(model, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.config.s_alpha_hidden == hidden
        assert np.array_equal(loaded.rollout(observed, horizon=3).predictions, predictions)

    def test_extra_metadata(self, tmp_path):
        extra = {"epochs": 12, "val_mae": 0.25, "history": [1.0, 0.5]}
        save_checkpoint(sample_model(), tmp_path / "ck", extra=extra)
        assert read_manifest(tmp_path / "ck")["extra"] == extra

    def test_extra_defaults_empty(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")
        assert read_manifest(tmp_path / "ck")["extra"] == {}

    def test_history_written_inside_the_build(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck", history_csv="epoch\r\n0\r\n")
        assert (tmp_path / "ck" / "history.csv").read_bytes() == b"epoch\r\n0\r\n"
        assert "history.csv" not in read_manifest(tmp_path / "ck")["payloads"]
        assert load_checkpoint(tmp_path / "ck").params.names() == sample_model().params.names()

    def test_params_blob_checksum(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")
        corrupt_byte(tmp_path / "ck" / "params.bin", offset=40)
        with pytest.raises(ChecksumError, match="params.bin"):
            load_checkpoint(tmp_path / "ck")

    def test_site_hash_guard(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")
        sites = np.frombuffer((tmp_path / "ck" / "sites.bin").read_bytes(), dtype="<f8")
        data = (sites + 0.5).astype("<f8").tobytes()
        (tmp_path / "ck" / "sites.bin").write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()

        def swap(m):
            m["payloads"]["sites.bin"]["sha256"] = digest

        patch_manifest(tmp_path / "ck", swap)
        with pytest.raises(DataError, match="site hash"):
            load_checkpoint(tmp_path / "ck")

    def test_config_name_mismatch(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")

        def bump(m):
            m["model_config"]["levels"] += 1

        patch_manifest(tmp_path / "ck", bump)
        # The stored rfn.w sits where the two-level config expects nab2.w0.
        with pytest.raises(DataError, match=r"parameter 'rfn\.w' does not match the model config.*'nab2\.w0'"):
            load_checkpoint(tmp_path / "ck")

    def test_parameter_shape_mismatch_names_the_parameter(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")
        entry = read_manifest(tmp_path / "ck")["parameters"][1]

        def reshape(m):
            m["parameters"][1]["shape"] = entry["shape"][::-1] + [1]

        patch_manifest(tmp_path / "ck", reshape)
        with pytest.raises(DataError, match=f"parameter {entry['name']!r} does not match the model config"):
            load_checkpoint(tmp_path / "ck")

    def test_params_are_an_ordinary_payload(self, tmp_path):
        model = sample_model()
        save_checkpoint(model, tmp_path / "ck")
        manifest = read_manifest(tmp_path / "ck")
        data = (tmp_path / "ck" / "params.bin").read_bytes()
        assert set(manifest["payloads"]) == {"sites.bin", "params.bin"}
        assert "params_sha256" not in manifest
        size = sum(model.params[name].values.size for name in model.params.names())
        assert manifest["payloads"]["params.bin"] == {
            "shape": [size],
            "dtype": "<f8",
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        assert data == b"".join(model.params[name].values.astype("<f8").tobytes() for name in model.params.names())

    def test_checkpoint_of_the_former_layout_is_refused(self, tmp_path):
        """A checkpoint whose parameters were checked by a manifest-level
        params_sha256 rather than declared under payloads does not load."""
        save_checkpoint(sample_model(), tmp_path / "ck")
        blob = (tmp_path / "ck" / "params.bin").read_bytes()

        def former(m):
            del m["payloads"]["params.bin"]
            extra = m.pop("extra")
            m.update(params_sha256=hashlib.sha256(blob).hexdigest(), payloads=m.pop("payloads"), extra=extra)

        patch_manifest(tmp_path / "ck", former)
        with pytest.raises(DataError, match=r"^checkpoint manifest lacks payloads\[params\.bin\]$") as caught:
            load_checkpoint(tmp_path / "ck")
        assert caught.value.exit_code == 3

    def test_checkpoint_of_per_gate_gru_weights_is_refused(self, tmp_path):
        """A checkpoint that stores the GRU gate by gate (rfn.wz, rfn.uz,
        rfn.bz, ...), with a consistent params.bin, does not load."""
        model = sample_model()
        save_checkpoint(model, tmp_path / "ck")
        values = {name: t.values for name, t in model.params.items()}
        hid = values["rfn.u_h"].shape[0]
        per_gate = {name: v for name, v in values.items() if not name.startswith("rfn.")}
        u = np.hstack([values["rfn.u_zr"], values["rfn.u_h"]])
        for k, gate in enumerate("zrh"):
            block = slice(k * hid, (k + 1) * hid)
            per_gate.update({f"rfn.w{gate}": values["rfn.w"][:, block], f"rfn.u{gate}": u[:, block]})
            per_gate[f"rfn.b{gate}"] = values["rfn.b"][block]
        per_gate.update({"rfn.wo": values["rfn.wo"], "rfn.bo": values["rfn.bo"]})
        data = np.concatenate([v.ravel() for v in per_gate.values()]).astype("<f8").tobytes()
        (tmp_path / "ck" / "params.bin").write_bytes(data)

        def former(m):
            m["parameters"] = [{"name": name, "shape": list(v.shape)} for name, v in per_gate.items()]
            m["payloads"]["params.bin"].update(sha256=hashlib.sha256(data).hexdigest())

        patch_manifest(tmp_path / "ck", former)
        with pytest.raises(DataError, match=r"parameter 'rfn\.wz' does not match the model config") as caught:
            load_checkpoint(tmp_path / "ck")
        assert caught.value.exit_code == 3

    def test_nan_parameter_rejected(self, tmp_path):
        # valid checksum over poisoned bytes, so only the finiteness guard fires
        save_checkpoint(sample_model(), tmp_path / "ck")
        values = np.frombuffer((tmp_path / "ck" / "params.bin").read_bytes(), dtype="<f8").copy()
        values[3] = np.nan
        data = values.tobytes()
        (tmp_path / "ck" / "params.bin").write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        patch_manifest(tmp_path / "ck", lambda m: m["payloads"]["params.bin"].update(sha256=digest))
        with pytest.raises(DataError, match="payload params.bin contains non-finite values"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_invalid_reg_lambda_is_data_error(self, tmp_path, lam):
        save_checkpoint(sample_model(), tmp_path / "ck")
        patch_manifest(tmp_path / "ck", lambda m: m.update(reg_lambda=lam))
        with pytest.raises(DataError, match="manifest field 'reg_lambda'"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("key", ["site_hash", "parameters", "payloads"])
    def test_manifest_missing_key(self, tmp_path, key):
        save_checkpoint(sample_model(), tmp_path / "ck")
        patch_manifest(tmp_path / "ck", lambda m: m.pop(key))
        with pytest.raises(DataError, match=f"checkpoint manifest lacks {key}"):
            load_checkpoint(tmp_path / "ck")

    def test_trailing_bytes_rejected(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")
        blob = (tmp_path / "ck" / "params.bin").read_bytes() + b"\x00" * 8
        (tmp_path / "ck" / "params.bin").write_bytes(blob)
        patch_manifest(
            tmp_path / "ck",
            lambda m: m["payloads"]["params.bin"].update(sha256=hashlib.sha256(blob).hexdigest()),
        )
        with pytest.raises(TruncatedPayloadError, match=f"payload params.bin: expected {len(blob) - 8} bytes"):
            load_checkpoint(tmp_path / "ck")

    def test_params_payload_must_hold_exactly_the_parameters(self, tmp_path):
        """An extra value declared in the payload's own shape passes the byte
        count and checksum, then fails against the parameter sizes."""
        save_checkpoint(sample_model(), tmp_path / "ck")
        blob = (tmp_path / "ck" / "params.bin").read_bytes() + b"\x00" * 8
        (tmp_path / "ck" / "params.bin").write_bytes(blob)
        size = len(blob) // 8 - 1

        def grow(m):
            m["payloads"]["params.bin"].update(shape=[size + 1], sha256=hashlib.sha256(blob).hexdigest())

        patch_manifest(tmp_path / "ck", grow)
        with pytest.raises(DataError, match=rf"params.bin has shape \({size + 1},\), the parameters need \({size},\)"):
            load_checkpoint(tmp_path / "ck")


def write_toy_tables(tmp_path, drop=None, extra_rows=(), value=None):
    """Two sites (ids 7 and 3), three sequences, three time steps."""
    sites = tmp_path / "sites.csv"
    sites.write_text("site_id,coord_1,coord_2\n7,1.5,0.25\n3,0.0,2.0\n")
    if value is None:
        value = lambda s, t, site: 100.0 * s + 10.0 * t + site
    lines = ["sequence_id,time_index,site_id,value"]
    for s in range(3):
        for t in range(3):
            for site in (7, 3):
                if (s, t, site) == drop:
                    continue
                lines.append(f"{s},{t},{site},{value(s, t, site)}")
    lines.extend(extra_rows)
    seqs = tmp_path / "seqs.csv"
    seqs.write_text("\n".join(lines) + "\n")
    return sites, seqs


class TestCsvIngestion:
    def test_assembles_keyed_cells(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        dataset = ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))
        assert dataset.sequences.shape == (3, 3, 2)
        # sites come out sorted by id: column 0 is site 3, column 1 is site 7
        assert np.array_equal(dataset.sites.sites, [[0.0, 2.0], [1.5, 0.25]])
        expected = np.array(
            [[[100 * s + 10 * t + 3, 100 * s + 10 * t + 7] for t in range(3)] for s in range(3)],
            dtype=float,
        )
        assert np.array_equal(dataset.sequences, expected)
        assert dataset.tau == 2 and dataset.horizon == 1
        assert dataset.split == (1, 1, 1)

    def test_row_order_does_not_matter(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        baseline = ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))
        lines = seqs.read_text().strip().split("\n")
        header, body = lines[0], lines[1:]
        np.random.default_rng(4).shuffle(body)
        seqs.write_text("\n".join([header] + body) + "\n")
        shuffled = ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))
        assert np.array_equal(shuffled.sequences, baseline.sequences)

    def test_missing_cell_is_named(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path, drop=(1, 2, 7))
        with pytest.raises(DataError, match=r"missing \(sequence 1, time 2, site 7\)"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_duplicate_cell_rejected(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path, extra_rows=["0,0,7,99.0"])
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_unknown_site_rejected(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path, extra_rows=["0,0,99,1.0"])
        with pytest.raises(DataError, match="unknown site_id 99"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_unparseable_value_rejected(self, tmp_path):
        sites, seqs = write_toy_tables(
            tmp_path, value=lambda s, t, site: "oops" if (s, t, site) == (2, 1, 3) else 1.0
        )
        with pytest.raises(DataError, match="unparseable"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_duplicate_site_id_rejected(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        sites.write_text("site_id,coord_1\n7,1.0\n7,2.0\n")
        with pytest.raises(DataError, match="duplicate site_id"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_missing_column_rejected(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        seqs.write_text("sequence_id,time_index,value\n0,0,1.0\n")
        with pytest.raises(DataError, match="site_id"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_sites_need_coordinates(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        sites.write_text("site_id\n7\n3\n")
        with pytest.raises(DataError, match="coord_1"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_empty_sites_rejected(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        sites.write_text("site_id,coord_1\n")
        with pytest.raises(DataError, match="no sites"):
            ingest_csv(sites, seqs, tau=2, horizon=1, split=(1, 1, 1))

    def test_time_count_must_match_tau_horizon(self, tmp_path):
        sites, seqs = write_toy_tables(tmp_path)
        with pytest.raises(ConfigError, match="3 time steps"):
            ingest_csv(sites, seqs, tau=2, horizon=2, split=(1, 1, 1))


class TestJsonConfig:
    def test_round_trip(self, tmp_path):
        payload = {"lr": 0.01, "split": [2, 1, 1], "name": "run"}
        save_json(payload, tmp_path / "cfg.json")
        assert load_json_config(tmp_path / "cfg.json") == payload

    def test_save_creates_parents(self, tmp_path):
        save_json({"a": 1}, tmp_path / "deep" / "nested" / "cfg.json")
        assert load_json_config(tmp_path / "deep" / "nested" / "cfg.json") == {"a": 1}

    def test_directory_target_is_data_error(self, tmp_path):
        (tmp_path / "cfg.json").mkdir()
        with pytest.raises(DataError, match="cfg.json"):
            save_json({"a": 1}, tmp_path / "cfg.json")
        assert siblings(tmp_path / "cfg.json") == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_json_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{")
        with pytest.raises(ConfigError, match="JSON"):
            load_json_config(tmp_path / "bad.json")


class TestWriteText:
    def test_bytes_are_written_verbatim(self, tmp_path):
        write_text(tmp_path / "a.csv", "x,y\r\n1,2\r\n")
        assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n1,2\r\n"

    def test_replaces_existing_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("old")
        write_text(tmp_path / "a.txt", "new")
        assert (tmp_path / "a.txt").read_text() == "new"
        assert siblings(tmp_path / "a.txt") == []

    def test_parent_that_is_a_file_is_data_error(self, tmp_path):
        (tmp_path / "blocker").write_text("a file")
        with pytest.raises(DataError, match="blocker"):
            write_text(tmp_path / "blocker" / "a.txt", "text")


# Property tests: fixed example sets (derandomize) keep Tier-1 reproducible.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
FAMILIES = [KernelFamily.MULTIQUADRIC, KernelFamily.INVERSE_MULTIQUADRIC, KernelFamily.GAUSSIAN]


@st.composite
def site_sets(draw, dim):
    """Pairwise-distinct sites on a unit lattice, so every kernel system is well posed."""
    cells = draw(st.lists(st.integers(0, 4**dim - 1), min_size=2, max_size=6, unique=True))
    return SiteSet(np.array([[(c // 4**k) % 4 for k in range(dim)] for c in cells], dtype=float))


@st.composite
def datasets(draw):
    sites = draw(site_sets(draw(st.integers(1, 3))))
    counts = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(lambda s: s[0] > 0))
    length = draw(st.integers(2, 5))
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    sequences = draw(hnp.arrays(np.float64, (sum(counts), length, sites.n), elements=values))
    dataset = SequenceDataset(
        sites, sequences, tuple(counts), tau=draw(st.integers(1, length - 1)),
        seed=draw(st.none() | st.integers(0, 2**31)),
    )
    return dataset.normalize() if draw(st.booleans()) else dataset


@st.composite
def models(draw):
    dim = draw(st.integers(1, 2))
    config = ModelConfig(
        levels=draw(st.integers(0, 2)),
        spatial_dim=dim,
        feature_width=draw(st.integers(1, 3)),
        s_alpha_hidden=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        nab_hidden=draw(st.integers(1, 3)),
        rfn_hidden=draw(st.integers(1, 4)),
    )
    kernel = RadialKernel(draw(st.sampled_from(FAMILIES)), draw(st.floats(0.5, 2.0)))
    model = UmtnModel.build(config, kernel, draw(site_sets(dim)), reg_lambda=draw(st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    for name in model.params.names():
        model.params[name].values = rng.normal(size=model.params[name].values.shape)
    return model


def flip_one_byte(data, path):
    """XOR one drawn byte of `path` with a drawn nonzero mask."""
    blob = bytearray(path.read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(blob))


FLIP_MASKS = (0x01, 0x02, 0x10, 0x20)


def manifest_flip_escapes(directory, load):
    """Load `directory` once per manifest byte and mask in FLIP_MASKS, with
    that bit pattern flipped; returns every outcome that is neither a clean
    load nor a DataError."""
    path = directory / "manifest.json"
    original = path.read_bytes()
    escaped = []
    try:
        for offset in range(len(original)):
            for mask in FLIP_MASKS:
                flipped = bytearray(original)
                flipped[offset] ^= mask
                path.write_bytes(bytes(flipped))
                try:
                    load(directory)
                except DataError:
                    pass
                except Exception as exc:  # noqa: BLE001 - any other escape is the failure
                    escaped.append((offset, mask, repr(exc)))
    finally:
        path.write_bytes(original)
    return escaped


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestManifestByteFlips:
    """Every single-byte corruption of a manifest loads or raises DataError,
    so the CLI exits 3 rather than 2 or with a traceback."""

    def test_checkpoint_manifest(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck", extra={"epochs": 3, "train_config": {"tau": 2}})
        escaped = manifest_flip_escapes(tmp_path / "ck", load_checkpoint)
        assert not escaped, f"{len(escaped)} flips escaped, e.g. {escaped[:3]}"

    def test_dataset_manifest(self, tmp_path):
        save_dataset(sample_dataset(seed=5), tmp_path / "ds")
        escaped = manifest_flip_escapes(tmp_path / "ds", load_dataset)
        assert not escaped, f"{len(escaped)} flips escaped, e.g. {escaped[:3]}"

    def test_error_names_the_field(self, tmp_path):
        save_checkpoint(sample_model(), tmp_path / "ck")
        patch_manifest(tmp_path / "ck", lambda m: m["kernel"].update(family="multiquadrix"))
        with pytest.raises(DataError, match="field 'kernel'"):
            load_checkpoint(tmp_path / "ck")


# A drawn training split may be constant, a valid dataset that normalizes by 1.
@pytest.mark.filterwarnings("ignore:training split has zero variance:RuntimeWarning")
class TestStorageProperties:
    @PROPERTY
    @given(dataset=datasets())
    def test_dataset_round_trip(self, dataset):
        with tempfile.TemporaryDirectory() as root:
            save_dataset(dataset, Path(root) / "ds")
            loaded = load_dataset(Path(root) / "ds")
        assert np.array_equal(loaded.sites.sites, dataset.sites.sites)
        assert np.array_equal(loaded.sequences, dataset.sequences)
        for attr in ("split", "tau", "normalized", "mean", "variance", "seed"):
            assert getattr(loaded, attr) == getattr(dataset, attr), attr

    @PROPERTY
    @given(model=models())
    def test_checkpoint_round_trip(self, model):
        with tempfile.TemporaryDirectory() as root:
            save_checkpoint(model, Path(root) / "ck")
            loaded = load_checkpoint(Path(root) / "ck")
        assert loaded.config == model.config
        assert loaded.geometry.kernel == model.geometry.kernel
        assert loaded.geometry.reg_lambda == model.geometry.reg_lambda
        assert loaded.geometry.site_hash == model.geometry.site_hash
        assert loaded.params.names() == model.params.names()
        for name in model.params.names():
            assert np.array_equal(loaded.params[name].values, model.params[name].values)

    @PROPERTY
    @given(dataset=datasets(), data=st.data())
    def test_dataset_byte_flip_is_data_error(self, dataset, data):
        with tempfile.TemporaryDirectory() as root:
            save_dataset(dataset, Path(root) / "ds")
            flip_one_byte(data, Path(root) / "ds" / data.draw(st.sampled_from(["sites.bin", "sequences.bin"])))
            with pytest.raises(DataError):
                load_dataset(Path(root) / "ds")

    @PROPERTY
    @given(model=models(), data=st.data())
    def test_checkpoint_byte_flip_is_data_error(self, model, data):
        with tempfile.TemporaryDirectory() as root:
            save_checkpoint(model, Path(root) / "ck")
            flip_one_byte(data, Path(root) / "ck" / data.draw(st.sampled_from(["sites.bin", "params.bin"])))
            with pytest.raises(DataError):
                load_checkpoint(Path(root) / "ck")
