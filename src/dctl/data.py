"""Dataset loading, splitting, normalization and synthetic signal generation.

Two on-disk layouts are supported: ``csv`` (one sample per row, numeric
cells, optional integer label as the final column) and ``raw`` (packed
little-endian float64, row length given by the caller).  Parse errors
name the offending row and column, 1-based.
"""

import csv
import math
from typing import NamedTuple

import numpy as np

from .conv import conv_same

__all__ = [
    "DatasetFormatError",
    "DatasetSplit",
    "load_matrix",
    "looks_labeled",
    "split_labels",
    "normalize_per_sample",
    "train_test_split",
    "load_dataset",
    "generate_synthetic",
    "write_csv",
]


class DatasetFormatError(ValueError):
    """The file does not parse as the declared dataset format."""


class DatasetSplit(NamedTuple):
    train_features: np.ndarray
    train_labels: np.ndarray | None
    test_features: np.ndarray
    test_labels: np.ndarray | None


def _parse_csv(path):
    rows = []
    width = None
    header_skipped = False
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            values = []
            for col_no, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    # tolerate a single leading header line of non-numeric names
                    if not rows and not header_skipped and col_no == 1:
                        header_skipped = True
                        values = None
                        break
                    raise DatasetFormatError(
                        f"{path}: row {line_no}, column {col_no}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DatasetFormatError(
                        f"{path}: row {line_no}, column {col_no}: non-finite value"
                    )
                values.append(value)
            if values is None:
                continue
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise DatasetFormatError(
                    f"{path}: row {line_no}: expected {width} columns, found {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _parse_raw(path, cols):
    if cols is None or int(cols) < 1:
        raise DatasetFormatError("raw format needs a positive column count")
    cols = int(cols)
    flat = np.fromfile(path, dtype="<f8")
    if flat.size == 0:
        raise DatasetFormatError(f"{path}: no data")
    if flat.size % cols != 0:
        raise DatasetFormatError(
            f"{path}: {flat.size} values do not fill rows of {cols} columns"
        )
    values = flat.reshape(-1, cols)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DatasetFormatError(
            f"{path}: row {int(r) + 1}, column {int(c) + 1}: non-finite value"
        )
    return values


def load_matrix(path, fmt="csv", cols=None):
    """Parse a dataset file into an (M, N) float64 matrix."""
    if fmt == "csv":
        return _parse_csv(path)
    if fmt == "raw":
        return _parse_raw(path, cols)
    raise DatasetFormatError(f"unknown dataset format {fmt!r}")


def looks_labeled(values):
    """Heuristic: the final column holds small nonnegative integers."""
    if values.shape[1] < 2:
        return False
    last = values[:, -1]
    return bool(np.all(np.abs(last - np.rint(last)) < 1e-9) and np.all(last >= 0))


def split_labels(values, labeled):
    """Split off the final integer label column when ``labeled`` is set."""
    if not labeled:
        return values, None
    if values.shape[1] < 2:
        raise DatasetFormatError("labeled data needs at least two columns")
    last = values[:, -1]
    if np.any(np.abs(last - np.rint(last)) >= 1e-9):
        raise DatasetFormatError("label column contains non-integer values")
    labels = np.rint(last).astype(np.int64)
    if np.any(labels < 0):
        raise DatasetFormatError("label column contains negative values")
    return np.ascontiguousarray(values[:, :-1]), labels


def normalize_per_sample(features):
    """Min-max scale each row to [0, 1]; constant rows map to all zeros."""
    arr = np.asarray(features, dtype=np.float64)
    lo = arr.min(axis=1, keepdims=True)
    span = arr.max(axis=1, keepdims=True) - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (arr - lo) / safe, 0.0)


def train_test_split(features, labels, split=0.7, seed=0):
    """Seeded shuffle followed by a head/tail split (train fraction ``split``)."""
    if not 0 < split <= 1:
        raise ValueError(f"split must lie in (0, 1], got {split}")
    features = np.asarray(features, dtype=np.float64)
    m = features.shape[0]
    n_train = int(round(split * m))
    if n_train < 1:
        raise ValueError(f"split {split} leaves no training samples out of {m}")
    perm = np.random.default_rng(seed).permutation(m)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    if labels is None:
        return DatasetSplit(features[train_idx], None, features[test_idx], None)
    labels = np.asarray(labels)
    return DatasetSplit(
        features[train_idx], labels[train_idx], features[test_idx], labels[test_idx]
    )


def load_dataset(path, fmt="csv", cols=None, labeled=False, split=0.7, seed=0, normalize=True):
    """Load, optionally normalize, shuffle and split a dataset file."""
    values = load_matrix(path, fmt=fmt, cols=cols)
    features, labels = split_labels(values, labeled)
    if normalize:
        features = normalize_per_sample(features)
    return train_test_split(features, labels, split=split, seed=seed)


def generate_synthetic(classes, per_class, length, motif_count=3, noise_sigma=0.1, seed=0):
    """Labeled synthetic 1-D signals with class-specific convolutional motifs.

    Each class draws a smooth random motif and a set of anchor positions;
    a sample places the motif at the anchors, jittered by a couple of
    samples and with slightly varying amplitudes, then adds Gaussian noise
    of scale ``noise_sigma``.  With no noise, same-class samples are close
    in l2 (small jitter of a smooth motif) while other classes sit far
    away; with heavy noise the raw geometry degrades while the motif
    structure stays recoverable by convolutional features.  Deterministic
    per seed; rows are grouped by class.
    """
    classes = int(classes)
    per_class = int(per_class)
    length = int(length)
    motif_count = int(motif_count)
    if classes < 1 or per_class < 1 or motif_count < 1:
        raise ValueError("classes, per_class and motif_count must be >= 1")
    if length < 8:
        raise ValueError("length must be >= 8")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if motif_count > length:
        raise ValueError("motif_count cannot exceed length")
    rng = np.random.default_rng(seed)
    motif_len = max(4, length // 8)
    window = np.hanning(motif_len + 2)[1:-1]
    jitter = 2
    signals = np.empty((classes * per_class, length))
    labels = np.empty(classes * per_class, dtype=np.int64)
    row = 0
    for cls in range(classes):
        rough = rng.standard_normal(motif_len)
        motif = np.convolve(rough, window, mode="same")
        motif /= np.linalg.norm(motif)
        anchors = rng.choice(length, size=motif_count, replace=False)
        base_amp = rng.uniform(0.8, 1.2, size=motif_count)
        for _ in range(per_class):
            spikes = np.zeros(length)
            positions = (anchors + rng.integers(-jitter, jitter + 1, size=motif_count)) % length
            np.add.at(spikes, positions, base_amp * rng.uniform(0.9, 1.1, size=motif_count))
            signals[row] = conv_same(spikes, motif)
            if noise_sigma > 0:
                signals[row] += noise_sigma * rng.standard_normal(length)
            labels[row] = cls
            row += 1
    return signals, labels


def write_csv(path, features, labels=None, header=False):
    """Write a feature matrix (plus optional final label column) as CSV."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length must match the number of rows")
    # the bytes csv.writer gives: no cell needs quoting, rows end in "\r\n"
    with open(path, "w", newline="") as handle:
        if header:
            names = [f"f{i}" for i in range(features.shape[1])]
            if labels is not None:
                names.append("label")
            handle.write(",".join(names) + "\r\n")
        for i, row in enumerate(features):
            cells = list(map(repr, row.tolist()))
            if labels is not None:
                cells.append(str(int(labels[i])))
            handle.write(",".join(cells) + "\r\n")
