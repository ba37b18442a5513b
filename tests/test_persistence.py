"""Binary model files: exact round trips and corruption rejection."""

import dataclasses
import json
import math
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


def as_int(value):
    return st.sampled_from([int, np.int64, np.int32]).map(lambda cast: cast(value))


def as_real(low, high):
    """Floats in [low, high] as Python or numpy floats, or integers there as ints."""
    reals = st.tuples(st.sampled_from([float, np.float64, np.float32]), st.floats(low, high))
    if math.ceil(low) <= high:
        reals |= st.tuples(st.sampled_from([int, np.int64]),
                           st.integers(math.ceil(low), math.floor(high)))
    return reals.map(lambda pair: pair[0](pair[1]))


@settings(max_examples=25, deadline=None)
@given(layers=as_int(2), kernels=as_int(3), iters=as_int(1), seed=as_int(5),
       mu=as_real(0, 1), beta=as_real(0, 1), objective_tol=as_real(0, 1e-3),
       lam=as_real(0.5, 2), gamma1=as_real(1, 2), gamma2=as_real(1, 2))
def test_config_of_python_or_numpy_numbers_round_trips(
        tmp_path_factory, layers, kernels, iters, seed, **reals):
    config = ModelConfig(num_layers=layers, num_kernels=kernels, max_outer_iters=iters,
                         seed=seed, **reals)
    # stored as the plain type json writes
    assert all(type(getattr(config, f.name)) is f.type for f in dataclasses.fields(config))
    signals, _ = generate_synthetic(2, 2, 12, seed=31)
    model = train(signals, config)
    path = tmp_path_factory.mktemp("round") / "model.dctl"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.config == config
    assert loaded.training_trace == model.training_trace
    assert all(np.array_equal(a, b) for a, b in zip(loaded.transforms, model.transforms))


UNLOADABLE_MODELS = {
    "samples_zero": lambda model: dataclasses.replace(model, data_dims=(0, 16)),
    "layer_count_mismatch": lambda model: dataclasses.replace(
        model, transforms=model.transforms[:1]),
    "length_zero": lambda model: dataclasses.replace(model, data_dims=(8, 0)),
}


@pytest.mark.parametrize("edit", UNLOADABLE_MODELS.values(), ids=UNLOADABLE_MODELS.keys())
def test_save_refuses_what_load_would_refuse_and_writes_nothing(tmp_path, trained, edit):
    path = tmp_path / "model.dctl"
    with pytest.raises(ModelFileError):
        save_model(path, edit(trained[0]))
    assert not path.exists()


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


# the Newton settings earlier versions stored, at the only values they took
RETIRED_NEWTON = {"armijo_c": 1e-4, "backtrack_factor": 0.5, "active_set_eps": 1e-10,
                  "max_iters": 50, "grad_tol": 1e-8}


def with_newton(**newton):
    """An edit that gives the config an earlier layout's "newton" mapping,
    which new files leave out, with ``newton`` over the fixed values."""
    return lambda meta: meta["config"].update(newton={**RETIRED_NEWTON, **newton})


BAD_CONFIGS = {
    "unknown_key": lambda meta: meta["config"].update(surprise=1),
    "newton_not_a_mapping": lambda meta: meta["config"].update(newton=5),
    "mu_not_a_number": lambda meta: meta["config"].update(mu="x"),
    "lam_zero": lambda meta: meta["config"].update(lam=0.0),
    "samples_infinite": lambda meta: meta.update(samples=float("inf")),
    "trace_value_overflows_float": lambda meta: meta.update(trace=[[0, 0, 10**400]]),
    # equal values of the wrong JSON type
    "num_kernels_float": lambda meta: meta["config"].update(num_kernels=4.0),
    "seed_mapping": lambda meta: meta["config"].update(seed={"a": 1}),
    "beta_boolean": lambda meta: meta["config"].update(beta=True),
    "newton_max_iters_float": with_newton(max_iters=50.0),
    "samples_float": lambda meta: meta.update(samples=8.0),
    "samples_zero": lambda meta: meta.update(samples=0),
    "samples_negative": lambda meta: meta.update(samples=-3),
    # NaN passes a plain `x < 0` check
    "objective_tol_nan": lambda meta: meta["config"].update(objective_tol=float("nan")),
    "newton_active_set_eps_nan": with_newton(active_set_eps=float("nan")),
    "newton_unknown_key": with_newton(surprise=1),
    # numpy would refuse it only once training draws the first bank
    "seed_negative": lambda meta: meta["config"].update(seed=-1),
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
    + [("config", "newton")] + [("config", "newton", name) for name in RETIRED_NEWTON]
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(METADATA_KEYS), value=JSON_VALUES)
def test_any_json_value_under_a_metadata_key_loads_or_is_model_file_error(
        tmp_path_factory, trained, key, value):
    def edit(meta):
        *parents, last = key
        for name in parents:
            # new files have no "newton" mapping: start from the earlier one
            meta = meta[name] if name != "newton" else meta.setdefault(name, dict(RETIRED_NEWTON))
        meta[last] = value

    path, payload = saved_bytes(tmp_path_factory.mktemp("fuzz"), trained[0])
    path.write_bytes(with_metadata(payload, edit))
    try:
        assert isinstance(load_model(path), TrainedModel)
    except ModelFileError:
        pass


def earlier_layout(payload, **newton):
    """The model file as earlier versions wrote it, with all five Newton
    settings; ``newton`` overrides their values."""
    def edit(meta):
        with_newton(**newton)(meta)
        return json.dumps(meta, sort_keys=True).encode("utf-8")

    return with_metadata(payload, edit)


def test_file_of_earlier_layout_loads_and_encodes_the_same(tmp_path, trained):
    model, signals = trained
    path, payload = saved_bytes(tmp_path, model)
    assert b"newton" not in payload  # new files leave the retired keys out
    path.write_bytes(earlier_layout(payload))
    loaded = load_model(path)
    assert loaded.config == model.config
    assert encode(loaded, signals).tobytes() == encode(model, signals).tobytes()
    resaved = tmp_path / "resaved.dctl"
    save_model(resaved, loaded)
    assert resaved.read_bytes() == payload


@pytest.mark.parametrize("key, value", [("armijo_c", 0.5), ("backtrack_factor", 0.25),
                                        ("active_set_eps", 0.0), ("max_iters", 51),
                                        ("grad_tol", 1e-9), ("grad_tol", float("inf"))])
def test_file_of_earlier_layout_with_other_newton_settings_is_refused(
        tmp_path, trained, key, value):
    path, payload = saved_bytes(tmp_path, trained[0])
    path.write_bytes(earlier_layout(payload, **{key: value}))
    with pytest.raises(ModelFileError, match=f"^metadata blob .*newton {key} is fixed"):
        load_model(path)


def test_every_truncation_and_bit_flip_is_model_file_error(tmp_path, trained):
    path, payload = saved_bytes(tmp_path, trained[0])
    corrupted = [payload[:keep] for keep in range(len(payload))]
    for bit in range(8 * len(payload)):
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        corrupted.append(flipped)
    for data in corrupted:
        path.write_bytes(data)
        with pytest.raises(ModelFileError):
            load_model(path)


def test_error_hierarchy():
    for cls in (ModelFileMagicError, ModelFileVersionError,
                ModelFileChecksumError, ModelFileTruncatedError):
        assert issubclass(cls, ModelFileError)
    assert issubclass(ModelFileError, ValueError)
