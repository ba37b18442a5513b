"""Binary model files: exact round trips and corruption rejection."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctl.cli import cli
from dctl.data import generate_synthetic, write_csv
from dctl.model import ModelConfig, TrainedModel, encode, train
from dctl.persistence import (
    ModelFileChecksumError,
    ModelFileError,
    ModelFileMagicError,
    ModelFileTruncatedError,
    ModelFileVersionError,
    load_model,
    save_model,
)
from dctl.prox import NewtonSettings


@pytest.fixture(scope="module")
def trained():
    signals, _ = generate_synthetic(2, 4, 16, seed=30)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=3, seed=30)
    return train(signals, config), signals


def saved_bytes(tmp_path, model):
    path = tmp_path / "model.dctl"
    save_model(path, model)
    return path, bytearray(path.read_bytes())


def test_round_trip_reproduces_model_exactly(tmp_path, trained):
    model, signals = trained
    path = tmp_path / "model.dctl"
    save_model(path, model)
    loaded = load_model(path)
    assert len(loaded.transforms) == len(model.transforms)
    for a, b in zip(loaded.transforms, model.transforms):
        assert np.array_equal(a, b)
    assert loaded.config == model.config
    assert loaded.training_trace == model.training_trace
    assert all(isinstance(entry, tuple) for entry in loaded.training_trace)
    assert loaded.data_dims == model.data_dims
    assert np.array_equal(encode(loaded, signals), encode(model, signals))


def test_save_load_save_is_byte_identical(tmp_path, trained):
    model, _ = trained
    first = tmp_path / "a.dctl"
    second = tmp_path / "b.dctl"
    save_model(first, model)
    save_model(second, load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic_rejected(tmp_path, trained):
    path, payload = saved_bytes(tmp_path, trained[0])
    payload[:4] = b"NOPE"
    path.write_bytes(payload)
    with pytest.raises(ModelFileMagicError):
        load_model(path)


def test_unsupported_version_rejected(tmp_path, trained):
    path, payload = saved_bytes(tmp_path, trained[0])
    payload[4] = 0x02
    path.write_bytes(payload)
    with pytest.raises(ModelFileVersionError, match="version 2"):
        load_model(path)


def test_truncation_rejected_at_every_stage(tmp_path, trained):
    path, payload = saved_bytes(tmp_path, trained[0])
    # cut inside the magic, version, dims, first bank, metadata and checksum
    for keep in (0, 2, 4, 10, 17 + 5, len(payload) - 30, len(payload) - 2):
        path.write_bytes(payload[:keep])
        with pytest.raises(ModelFileTruncatedError, match="file ends inside"):
            load_model(path)


def test_flipped_bank_byte_fails_checksum(tmp_path, trained):
    path, payload = saved_bytes(tmp_path, trained[0])
    payload[17 + 3] ^= 0xFF
    path.write_bytes(payload)
    with pytest.raises(ModelFileChecksumError, match="checksum mismatch"):
        load_model(path)


def test_trailing_garbage_rejected(tmp_path, trained):
    path, payload = saved_bytes(tmp_path, trained[0])
    path.write_bytes(bytes(payload) + b"xx")
    with pytest.raises(ModelFileChecksumError, match="2 trailing bytes"):
        load_model(path)


def with_metadata(payload, edit):
    """The model file with ``edit`` applied to its JSON metadata and a fresh CRC.

    ``edit`` changes the parsed metadata in place, or returns the raw blob
    bytes for metadata that ``json.dumps`` cannot write.
    """
    num_layers, k, _ = struct.unpack("<III", payload[5:17])
    start = 17 + num_layers * k * k * 8
    (blob_len,) = struct.unpack("<I", payload[start : start + 4])
    meta = json.loads(payload[start + 4 : start + 4 + blob_len])
    blob = edit(meta) or json.dumps(meta).encode("utf-8")
    body = bytes(payload[:start]) + struct.pack("<I", len(blob)) + blob
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


BAD_CONFIGS = {
    "unknown_key": lambda meta: meta["config"].update(surprise=1),
    "newton_not_a_mapping": lambda meta: meta["config"].update(newton=5),
    "mu_not_a_number": lambda meta: meta["config"].update(mu="x"),
    "lam_zero": lambda meta: meta["config"].update(lam=0.0),
    "samples_infinite": lambda meta: meta.update(samples=float("inf")),
    "trace_value_overflows_float": lambda meta: meta.update(trace=[[0, 0, 10**400]]),
    # json.dumps recurses and refuses long integers, so these are raw bytes
    "nested_too_deep": lambda meta: b"[" * 100_000,
    "integer_too_long": lambda meta: b'{"samples": 1' + b"0" * 5000 + b"}",
}


@pytest.mark.parametrize("edit", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_metadata_with_valid_checksum_is_model_file_error(tmp_path, trained, capsys, edit):
    model, signals = trained
    path, payload = saved_bytes(tmp_path, model)
    path.write_bytes(with_metadata(payload, edit))
    with pytest.raises(ModelFileError, match="^metadata blob"):
        load_model(path)
    data = tmp_path / "signals.csv"
    write_csv(data, signals)
    assert cli(["encode", str(data), "--model", str(path),
                "--out", str(tmp_path / "features.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6) | st.integers()
    | st.sampled_from([float("inf"), float("nan"), 10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
METADATA_KEYS = (
    [("config",), ("samples",), ("trace",), ("trace", 0), ("trace", 0, 0), ("trace", 0, 2)]
    + [("config", f.name) for f in dataclasses.fields(ModelConfig)]
    + [("config", "newton", f.name) for f in dataclasses.fields(NewtonSettings)]
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(METADATA_KEYS), value=JSON_VALUES)
def test_any_json_value_under_a_metadata_key_loads_or_is_model_file_error(
        tmp_path_factory, trained, key, value):
    def edit(meta):
        *parents, last = key
        for name in parents:
            meta = meta[name]
        meta[last] = value

    path, payload = saved_bytes(tmp_path_factory.mktemp("fuzz"), trained[0])
    path.write_bytes(with_metadata(payload, edit))
    try:
        assert isinstance(load_model(path), TrainedModel)
    except ModelFileError:
        pass


def test_error_hierarchy():
    for cls in (ModelFileMagicError, ModelFileVersionError,
                ModelFileChecksumError, ModelFileTruncatedError):
        assert issubclass(cls, ModelFileError)
    assert issubclass(ModelFileError, ValueError)
