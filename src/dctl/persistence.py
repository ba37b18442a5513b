"""Binary serialization of trained models.

Layout (all integers little-endian):

    bytes 0..3   magic ``DCTL``
    byte  4      format version (currently 1)
    u32          number of layers L
    u32          kernels per layer K
    u32          signal length N
    L * K * K    float64 transform banks, row-major, layer order
    u32          length of a UTF-8 JSON blob holding the training
                 configuration, sample count and objective trace
    ...          the JSON blob
    u32          CRC-32 of every preceding byte

Loading re-derives the CRC and refuses files that fail any structural
check, with a distinct exception per failure mode.
"""

import dataclasses
import json
import struct
import zlib

import numpy as np

from .model import ModelConfig, TrainedModel
from .prox import ACTIVE_SET_EPS, ARMIJO_C, BACKTRACK_FACTOR, NewtonSettings

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ModelFileError",
    "ModelFileMagicError",
    "ModelFileVersionError",
    "ModelFileChecksumError",
    "ModelFileTruncatedError",
    "save_model",
    "load_model",
]

MAGIC = b"DCTL"
FORMAT_VERSION = 1
# Newton settings that earlier files store and the solver now fixes
RETIRED_NEWTON_KEYS = {"armijo_c": ARMIJO_C, "backtrack_factor": BACKTRACK_FACTOR,
                       "active_set_eps": ACTIVE_SET_EPS}


class ModelFileError(ValueError):
    """Base class for model file failures."""


class ModelFileMagicError(ModelFileError):
    """The file does not start with the expected magic bytes."""


class ModelFileVersionError(ModelFileError):
    """The file declares an unsupported format version."""


class ModelFileChecksumError(ModelFileError):
    """The stored checksum does not match the file contents."""


class ModelFileTruncatedError(ModelFileError):
    """The file ends before the declared payload is complete."""


def save_model(path, model):
    """Serialize a trained model; loading the result reproduces it bit for bit.
    A model that would not load back is a ModelFileError, and writes nothing."""
    num_layers = len(model.transforms)
    k = model.config.num_kernels
    n = int(model.data_dims[1])
    parts = [MAGIC, bytes([FORMAT_VERSION]), struct.pack("<III", num_layers, k, n)]
    for bank in model.transforms:
        arr = np.ascontiguousarray(np.asarray(bank, dtype=np.float64))
        if arr.shape != (k, k):
            raise ValueError(f"transform bank has shape {arr.shape}, expected {(k, k)}")
        parts.append(arr.astype("<f8").tobytes(order="C"))
    meta = {
        "config": dataclasses.asdict(model.config),
        "samples": int(model.data_dims[0]),
        "trace": [[int(i), int(l), float(v)] for i, l, v in model.training_trace],
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    body = b"".join(parts)
    payload = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    _decode(payload)
    with open(path, "wb") as handle:
        handle.write(payload)


def _need(data, offset, count, what):
    if offset + count > len(data):
        raise ModelFileTruncatedError(
            f"file ends inside {what} (need {offset + count} bytes, have {len(data)})"
        )
    return data[offset : offset + count], offset + count


def load_model(path):
    """Read a model file back into a TrainedModel, verifying every layer."""
    with open(path, "rb") as handle:
        return _decode(handle.read())


def _decode(data):
    """The TrainedModel a model file's bytes ``data`` hold, or ModelFileError."""
    raw, pos = _need(data, 0, 4, "the magic header")
    if raw != MAGIC:
        raise ModelFileMagicError(f"bad magic {raw!r}")
    raw, pos = _need(data, pos, 1, "the version byte")
    if raw[0] != FORMAT_VERSION:
        raise ModelFileVersionError(f"unsupported format version {raw[0]}")
    raw, pos = _need(data, pos, 12, "the dimension header")
    num_layers, k, n = struct.unpack("<III", raw)
    if num_layers < 1 or k < 1 or n < 1:
        raise ModelFileError(f"invalid dimensions L={num_layers} K={k} N={n}")
    transforms = []
    for layer in range(num_layers):
        raw, pos = _need(data, pos, 8 * k * k, f"transform bank {layer + 1}")
        transforms.append(np.frombuffer(raw, dtype="<f8").reshape(k, k).copy())
    raw, pos = _need(data, pos, 4, "the metadata length")
    (blob_len,) = struct.unpack("<I", raw)
    raw, pos = _need(data, pos, blob_len, "the metadata blob")
    blob = raw
    raw, pos = _need(data, pos, 4, "the checksum")
    (stored_crc,) = struct.unpack("<I", raw)
    if pos != len(data):
        raise ModelFileChecksumError(f"{len(data) - pos} trailing bytes after checksum")
    actual_crc = zlib.crc32(data[: pos - 4]) & 0xFFFFFFFF
    if actual_crc != stored_crc:
        raise ModelFileChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelFileError(f"metadata blob is not valid JSON: {exc}") from exc
    try:
        raw_config = dict(meta["config"])
        samples = meta["samples"]
        trace = [(i, l, v) for i, l, v in meta["trace"]]
        if type(samples) is not int or any(
            # a bool is no JSON number
            type(i) is not int or type(l) is not int or type(v) not in (int, float)
            for i, l, v in trace
        ):
            raise TypeError("samples and trace indices must be integers, trace values numbers")
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        trace = [(i, l, float(v)) for i, l, v in trace]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"metadata blob has unexpected structure: {exc}") from exc
    try:
        newton = {**raw_config.pop("newton", {})}
        for key, fixed in RETIRED_NEWTON_KEYS.items():
            if (value := newton.pop(key, fixed)) != fixed:
                raise ValueError(f"newton {key} is fixed at {fixed!r}, got {value!r}")
        config = ModelConfig(**raw_config, newton=NewtonSettings(**newton))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"metadata blob holds an invalid configuration: {exc}") from exc
    if config.num_layers != num_layers or config.num_kernels != k:
        raise ModelFileError("metadata disagrees with the binary dimension header")
    return TrainedModel(
        transforms=transforms,
        config=config,
        training_trace=trace,
        data_dims=(samples, n),
    )
