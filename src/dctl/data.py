"""Dataset loading, splitting, normalization and synthetic signal generation.

Two on-disk layouts are supported: ``csv`` (one sample per row, numeric
cells, optional integer label as the final column) and ``raw`` (packed
little-endian float64, row length given by the caller).  Parse errors
name the offending row and column, 1-based.

A large CSV is converted on every usable core.  :func:`write_csv` and
:func:`load_matrix` cut its rows into contiguous chunks of at least
``CSV_MIN_CHUNK_BYTES`` of text, at most one per core in
``os.sched_getaffinity(0)``.  The calling process converts the first
chunk, and one ``os.fork``-ed child converts each other chunk and sends
its result back through a pipe.  The bytes written, the bits read and
every error are those of one process.  One process does all the work
for a smaller file, on one core, where there is no ``os.fork``, and
while another Python thread runs.
"""

import contextlib
import csv
import io
import itertools
import math
import numbers
import os
import signal
import threading
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


# The least CSV text worth one more process.  Forking a child of a 120 to
# 150 MB process and waiting for it took 2.3 to 4.2 ms on a 2-core host,
# where reading this much text takes about 22 ms and writing it about
# 50 ms; two processes beat one there from about 1 MB of text in all.
CSV_MIN_CHUNK_BYTES = 3 << 19

# The most bytes of a file held at once while looking for a line end, or
# while copying a child's text to the file.
_COPY_BYTES = 1 << 16


def _chunk_count(text_bytes):
    """How many processes convert ``text_bytes`` of CSV text: one per
    ``CSV_MIN_CHUNK_BYTES``, at most one per usable core, and one where
    there is no ``os.fork`` or ``os.sched_getaffinity``, or another thread
    runs, since a forked child holds only the calling thread and whatever
    locks the others held."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(text_bytes // CSV_MIN_CHUNK_BYTES, len(os.sched_getaffinity(0))))


@contextlib.contextmanager
def _fork_chunks(count, send):
    """Run ``send(i, pipe)`` for the chunks i = 1 ... count - 1, each in a
    forked child writing to its own pipe, and yield the read ends, binary
    files in chunk order.  A child ends with ``os._exit``, so it flushes
    none of this process's buffers; one that fails sends what it has, so
    its reader meets an early end of file.  On leaving, the read ends are
    closed first (a child blocked on a full pipe then fails its write),
    any child still converting is killed, since no one reads its result,
    and every child is waited for."""
    pipes, pids = [], []
    try:
        for i in range(1, count):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
            except BaseException:
                os.close(write_end)
                raise
            if pid == 0:
                status = 1
                try:
                    for pipe in pipes:  # each pipe keeps the parent as its one reader
                        pipe.close()
                    with open(write_end, "wb") as pipe:
                        send(i, pipe)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(write_end)
        yield pipes
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _parse_csv(path):
    with open(path, newline="") as handle:
        values = _read_csv_bulk(handle)
    return _parse_csv_rows(path) if values is None else values


def _read_csv_bulk(handle):
    """The whole table through numpy's C reader, or None to read it row by row.

    Leading blank lines are skipped, and the first non-blank record is a
    header when its first cell fails ``float()``.  The rest goes to
    ``np.loadtxt`` (see ``_load_rows``), whose reader converts each field
    with ``PyOS_string_to_double``, the routine ``float()`` ends in, so
    the bits match.  A quote in the first record, any field numpy rejects
    (quotes, underscores, non-ASCII digits, blank cells, ragged rows), a
    non-finite value or an empty remainder returns None, and the
    row-wise reader decides.

    A remainder of two ``CSV_MIN_CHUNK_BYTES`` or more is cut just past a
    newline byte into chunks, one per process, so no cut splits a line or
    a UTF-8 character; each chunk goes to the same ``np.loadtxt`` call.
    When any chunk returns None, or the chunks differ in width, one
    ``np.loadtxt`` call reads the whole remainder again, so the result
    and the errors are those of one process.
    """
    skipped = 0  # bytes before the rows np.loadtxt reads
    while True:
        line = handle.readline()
        if not line or '"' in line:
            return None
        cells = line.split(",")  # float() and strip() drop the line end
        if any(cell.strip() for cell in cells):
            break
        skipped += len(line.encode(handle.encoding))
    try:
        float(cells[0])
        lines = itertools.chain([line], handle)
    except ValueError:
        lines = handle  # a header
        skipped += len(line.encode(handle.encoding))
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    cuts = _line_cuts(fd, skipped, size, _chunk_count(size - skipped))
    if len(cuts) > 2:
        values = _load_chunks(fd, handle.encoding, cuts)
        if values is not None:
            return values
    return _load_rows(lines)


def _load_rows(lines):
    """``np.loadtxt`` of CSV text lines as float64 rows, or None when numpy
    refuses a field, there is no row or a value is not finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows warns
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                                ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if values.size == 0 or not np.isfinite(values).all():
        return None
    return values


def _line_cuts(fd, start, stop, count):
    """Byte offsets that cut the file ``fd`` from ``start`` to ``stop`` into
    at most ``count`` chunks of about equal size, each inner cut just past
    the first newline byte at or after an equal share."""
    cuts = [start]
    for i in range(1, count):
        pos = start + (stop - start) * i // count
        while pos < stop:
            window = os.pread(fd, min(_COPY_BYTES, stop - pos), pos)
            end = window.find(b"\n")
            if end >= 0:
                pos += end + 1
                break
            pos = pos + len(window) if window else stop
        if cuts[-1] < pos < stop:
            cuts.append(pos)
    return cuts + [stop]


class _FileSpan(io.RawIOBase):
    """Bytes ``start`` to ``stop`` of the open file ``fd``, read with
    ``os.pread``, which leaves the offset ``fd`` shares with a forked
    child where it is."""

    def __init__(self, fd, start, stop):
        super().__init__()
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.pread(self.fd, min(len(buffer), self.stop - self.pos), self.pos)
        buffer[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _load_chunks(fd, encoding, cuts):
    """The rows between each two ``cuts`` of the file ``fd``, each chunk
    through ``_load_rows`` in its own process, or None when any chunk
    gives None or a width other than the first chunk's.  The first
    chunk's array, this process's own, grows into the result."""

    def load(i):
        span = io.BufferedReader(_FileSpan(fd, cuts[i], cuts[i + 1]))
        return _load_rows(io.TextIOWrapper(span, encoding=encoding, newline=""))

    def send(i, pipe):
        values = load(i)
        if values is not None:
            pipe.write(np.array(values.shape, dtype=np.int64).tobytes())
            pipe.write(values.data)

    with _fork_chunks(len(cuts) - 1, send) as pipes:
        first = load(0)
        if first is None:
            return None
        counts = [first.shape[0]]
        for pipe in pipes:
            head = pipe.read(16)
            if len(head) < 16:
                return None
            rows, cols = np.frombuffer(head, dtype=np.int64).tolist()
            if cols != first.shape[1]:
                return None
            counts.append(rows)
        values = first  # grown in place, where realloc can remap its pages
        values.resize((sum(counts), values.shape[1]), refcheck=False)
        row = counts[0]
        for pipe, rows in zip(pipes, counts[1:]):
            part = values[row:row + rows]
            if pipe.readinto(part.data.cast("B")) != part.nbytes:
                return None
            row += rows
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
    by ``np.loadtxt``: numpy's C reader converts each field with the
    routine ``float()`` ends in, so the bits are the same.  When the text
    after the header comes to two ``CSV_MIN_CHUNK_BYTES`` or more, it is
    cut just past a newline byte into chunks, at most one per usable core.
    This process reads the first chunk, and a forked child reads each
    other chunk with the same call and sends back its shape and float64
    bytes.  The first chunk's array grows in place to the full result,
    and each child's bytes land straight in their rows, so the result is
    the only full-size array.  When any chunk fails, the whole text is
    read again by one call, so the bits and every error are those of one
    process.  A smaller file, one core, no ``os.fork`` or another running
    thread means one call in one process.  Anything else ``np.loadtxt``
    rejects is read again by ``csv.reader`` and converted cell by cell
    with ``float()``; that reader is the only source of the errors above.
    One difference remains: ``csv.reader`` refuses a field longer than
    ``csv.field_size_limit()`` characters, which is an error naming its
    record, and numpy's reader does not.

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
    finite, or a ValueError naming ``name``.

    A finite sum proves every entry finite, since NaN and ±inf propagate
    through addition, and takes no temporary; only a sum that is not
    finite (a bad entry, or finite entries that overflow) pays for the
    (M, N) mask of the entrywise check."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or 0 in values.shape:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {values.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not np.isfinite(total) and not np.isfinite(values).all():
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

    A file whose first row's text times its row count comes to two
    ``CSV_MIN_CHUNK_BYTES`` or more is formatted in contiguous chunks of
    rows, one per process (see the module docstring).  Each forked child
    formats its rows into memory and sends the bytes through a pipe; this
    process writes the header and the first chunk, then copies each
    child's bytes after them in order, ``_COPY_BYTES`` at a time, so it
    holds one row and that buffer.  The bytes are those one process
    writes.  A child that fails to send its chunk is a
    ``ChildProcessError`` naming the rows, with the file cut short.
    """
    features = as_matrix(features, "features")
    if labels is not None:
        labels = as_labels(labels, features.shape[0])

    def rows(start, stop):
        # the bytes csv.writer gives: no cell needs quoting, rows end in "\r\n"
        for i in range(start, stop):
            cells = list(map(repr, features[i].tolist()))
            if labels is not None:
                cells.append(str(int(labels[i])))
            yield ",".join(cells) + "\r\n"

    m = features.shape[0]
    with open(path, "w", newline="") as handle:
        if header:
            names = [f"f{i}" for i in range(features.shape[1])]
            if labels is not None:
                names.append("label")
            handle.write(",".join(names) + "\r\n")
        first = next(rows(0, 1))
        handle.write(first)
        count = min(_chunk_count(len(first) * m), m)
        bounds = [m * i // count for i in range(count + 1)]

        def send(i, pipe):
            text = bytearray()
            for row in rows(bounds[i], bounds[i + 1]):
                text += row.encode(handle.encoding)
            pipe.write(len(text).to_bytes(8, "little"))
            pipe.write(text)

        with _fork_chunks(count, send) as pipes:
            handle.writelines(rows(1, bounds[1]))
            for i, pipe in enumerate(pipes, 1):
                handle.flush()  # the text so far goes before the child's bytes
                head = pipe.read(8)
                left = int.from_bytes(head, "little") if len(head) == 8 else -1
                while left > 0:
                    part = pipe.read(min(left, _COPY_BYTES))
                    if not part:
                        break
                    handle.buffer.write(part)
                    left -= len(part)
                if left:
                    raise ChildProcessError(
                        f"{path}: the process formatting rows {bounds[i] + 1} to "
                        f"{bounds[i + 1]} ended before sending them"
                    )
