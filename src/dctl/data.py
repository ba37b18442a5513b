"""Dataset loading, splitting, normalization and synthetic signal generation.

Two on-disk layouts are supported: ``csv`` (one sample per row, numeric
cells, optional integer label as the final column) and ``raw`` (packed
little-endian float64, row length given by the caller).  Parse errors
name the offending row and column, 1-based.
"""

import csv
import itertools
import math
import numbers
import os
import warnings
from typing import NamedTuple

import numpy as np


__all__ = [
    "DatasetFormatError",
    "DatasetSplit",
    "load_matrix",
    "looks_labeled",
    "split_labels",
    "REAL_RULES",
    "as_int",
    "as_real",
    "as_matrix",
    "as_labels",
    "normalize_per_sample",
    "train_test_split",
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
    with open(path, newline="") as handle:
        values = _read_csv_bulk(handle)
    return _parse_csv_rows(path) if values is None else values


def _read_csv_bulk(handle):
    """The whole table through numpy's C reader, or None to read it row by row.

    Leading blank lines are skipped, and the first non-blank record is a
    header when its first cell fails ``float()``.  The rest goes to one
    ``np.loadtxt`` call, whose reader converts each field with
    ``PyOS_string_to_double``, the routine ``float()`` ends in, so the
    bits match.  A quote in the first record, any field numpy rejects
    (quotes, underscores, non-ASCII digits, blank cells, ragged rows), a
    non-finite value or an empty remainder returns None, and the
    row-wise reader decides.
    """
    while True:
        line = handle.readline()
        if not line or '"' in line:
            return None
        cells = line.split(",")  # float() and strip() drop the line end
        if any(cell.strip() for cell in cells):
            break
    try:
        float(cells[0])
        lines = itertools.chain([line], handle)
    except ValueError:
        lines = handle  # a header
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty remainder warns
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                                ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if values.size == 0 or not np.isfinite(values).all():
        return None
    return values


def _parse_csv_rows(path):
    rows = []
    width = None
    header_skipped = False
    with open(path, newline="") as handle:
        line_no = 0
        try:
            for line_no, row in enumerate(csv.reader(handle), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                # cell by cell: skip a header, or name the first bad cell
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
        except csv.Error as exc:  # from the reader: a field over csv.field_size_limit()
            raise DatasetFormatError(f"{path}: row {line_no + 1}: {exc}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return np.stack(rows)


def _parse_raw(path, cols):
    if isinstance(cols, bool) or not isinstance(cols, numbers.Integral) or cols < 1:
        raise DatasetFormatError(f"raw format needs a positive column count, got {cols!r}")
    cols = int(cols)
    size = os.path.getsize(path)
    if size % 8:
        raise DatasetFormatError(
            f"{path}: {size} bytes is not a whole number of 8-byte float64 values"
        )
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


def _undecodable(path, err):
    """DatasetFormatError naming the file offset of the first byte that does not decode.

    The text reader decodes in chunks, so ``err.start`` counts from its
    chunk; decoding the whole file again gives the offset in the file.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        raw.decode(err.encoding)
    except UnicodeDecodeError as whole:
        err = whole
    bad = err.object[err.start:err.end]
    return DatasetFormatError(
        f"{path}: byte offset {err.start}: cannot decode {bad!r} as {err.encoding} "
        f"({err.reason})"
    )


def load_matrix(path, fmt="csv", cols=None):
    """Parse a dataset file into an (M, N) float64 matrix.

    CSV: the cells parse as Python's ``float()`` parses them, so quoted
    cells, surrounding whitespace, ``1_000`` and Unicode digits are
    numbers.  Blank records are skipped but still counted.  A first
    non-blank record whose first cell does not parse is a header.  Any
    other cell that fails to parse or is not finite is an error naming its
    record and column, 1-based, and so is a row of another width.  A byte
    that does not decode is an error naming its offset in the file.

    The common case, unquoted finite numbers in rows of one width, is read
    by one ``np.loadtxt`` call on the open file: numpy's C reader converts
    each field with the routine ``float()`` ends in, so the bits are the
    same, and the result is its only full-size array.  Anything else it
    rejects is read again by ``csv.reader`` and converted cell by cell
    with ``float()``; that reader is the only source of the errors above.  One difference remains: ``csv.reader``
    refuses a field longer than ``csv.field_size_limit()`` characters,
    which is an error naming its record, and numpy's reader does not.

    Raw: packed little-endian float64 in rows of ``cols`` values, a
    positive integer; a file whose size is not a whole number of values is
    an error.
    """
    if fmt == "csv":
        try:
            return _parse_csv(path)
        except UnicodeDecodeError as err:
            raise _undecodable(path, err) from None
    if fmt == "raw":
        return _parse_raw(path, cols)
    raise DatasetFormatError(f"unknown dataset format {fmt!r}")


def looks_labeled(values):
    """Heuristic: the final column holds what :func:`split_labels` reads as labels."""
    return values.shape[1] >= 2 and _label_problem(values[:, -1]) is None


def _label_problem(values):
    """What keeps the numeric array ``values`` from being labels, or None: a
    label is a non-negative integer below 2**63 (so an int64 holds it), or a
    float within 1e-9 of one."""
    if values.dtype.kind == "u":
        if np.any(values >= np.uint64(2**63)):
            return "out-of-range values"
    elif values.dtype.kind != "i":
        # finiteness first: inf - rint(inf) is NaN, with a RuntimeWarning
        if not (np.all(np.isfinite(values)) and np.all(np.abs(values - np.rint(values)) < 1e-9)):
            return "non-integer values"
        if np.any(values >= 2.0**63):
            return "out-of-range values"
    if np.any(np.rint(values) < 0):
        return "negative values"
    return None


# The rule every real hyperparameter obeys, wherever it is passed: a test
# of the float value, and what "<name> must ..." says when it fails.
_FINITE_NONNEG = (lambda v: math.isfinite(v) and v >= 0, "be finite and >= 0")
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "be finite and positive")
REAL_RULES = {
    "mu": _FINITE_NONNEG,
    "lam": _FINITE_POSITIVE,
    "beta": _FINITE_NONNEG,
    "gamma1": _FINITE_POSITIVE,
    "gamma2": _FINITE_POSITIVE,
    "weight": _FINITE_POSITIVE,
    "objective_tol": (lambda v: v >= 0, "be >= 0"),
    "noise_sigma": _FINITE_NONNEG,
}


def as_real(value, name):
    """``value`` as a ``float`` obeying ``REAL_RULES[name]``, or a ValueError
    naming ``name``.  Numpy numbers are taken; bools and non-reals are
    refused, because ``True > 0`` would pass the rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    ok, rule = REAL_RULES[name]
    if not ok(value):
        raise ValueError(f"{name} must {rule}")
    return value


def as_int(value, name, minimum):
    """``value`` as an ``int`` of at least ``minimum``, or a ValueError
    naming ``name``.  Numpy integers are taken; bools and non-integers are
    refused, because ``True == 1`` and ``int(2.9) == 2`` would pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def as_matrix(values, name):
    """``values`` as a float64 (M, N) array with M, N >= 1 and every entry
    finite, or a ValueError naming ``name``."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or 0 in values.shape:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contain non-finite values")
    return values


def as_labels(values, count, name="labels"):
    """``values`` as ``count`` int64 labels, or a ValueError naming ``name``."""
    values = np.asarray(values)
    if values.shape != (count,):
        raise ValueError(f"{name} must be a ({count},) array, got shape {values.shape}")
    if values.dtype.kind not in "iu":
        values = values.astype(np.float64)
    problem = _label_problem(values)
    if problem:
        raise ValueError(f"{name} contain {problem}")
    return (values if values.dtype.kind in "iu" else np.rint(values)).astype(np.int64)


def split_labels(values, labeled):
    """Split off the final integer label column when ``labeled`` is set."""
    if not labeled:
        return values, None
    if values.shape[1] < 2:
        raise DatasetFormatError("labeled data needs at least two columns")
    last = values[:, -1]
    problem = _label_problem(last)
    if problem:
        raise DatasetFormatError(f"label column contains {problem}")
    return np.ascontiguousarray(values[:, :-1]), np.rint(last).astype(np.int64)


def normalize_per_sample(features):
    """Min-max scale each row to [0, 1]; constant rows map to all zeros."""
    arr = as_matrix(features, "features")
    lo = arr.min(axis=1, keepdims=True)
    span = arr.max(axis=1, keepdims=True) - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (arr - lo) / safe, 0.0)


def train_test_split(features, labels, split=0.7, seed=0):
    """Seeded shuffle followed by a head/tail split (train fraction ``split``)."""
    if not 0 < split <= 1:
        raise ValueError(f"split must lie in (0, 1], got {split}")
    features = as_matrix(features, "features")
    m = features.shape[0]
    n_train = int(round(split * m))
    if n_train < 1:
        raise ValueError(f"split {split} leaves no training samples out of {m}")
    perm = np.random.default_rng(seed).permutation(m)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    if labels is None:
        return DatasetSplit(features[train_idx], None, features[test_idx], None)
    labels = np.asarray(labels)
    if labels.shape[:1] != (m,):
        raise ValueError(f"labels must have one entry per feature row ({m}), "
                         f"got shape {labels.shape}")
    return DatasetSplit(
        features[train_idx], labels[train_idx], features[test_idx], labels[test_idx]
    )


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
    classes = as_int(classes, "classes", 1)
    per_class = as_int(per_class, "per_class", 1)
    length = as_int(length, "length", 8)
    motif_count = as_int(motif_count, "motif_count", 1)
    noise_sigma = as_real(noise_sigma, "noise_sigma")
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
            signals[row] = np.convolve(spikes, motif, mode="same")
            if noise_sigma > 0:
                signals[row] += noise_sigma * rng.standard_normal(length)
            labels[row] = cls
            row += 1
    return signals, labels


def write_csv(path, features, labels=None, header=False):
    """Write a feature matrix (plus optional final label column) as CSV.

    Features must be a non-empty finite matrix, as :func:`load_matrix`
    reads them.  Labels follow the rule :func:`split_labels` reads them by:
    integers, or floats within 1e-9 of one below 2**63 (written as that
    integer), and never negative.  Anything else is a ValueError, raised
    before the file opens.
    """
    features = as_matrix(features, "features")
    if labels is not None:
        labels = as_labels(labels, features.shape[0])
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
