"""Dataset parsing, splitting, normalization, synthesis, CSV writing."""

import csv
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dctl.data
from dctl.data import (
    DatasetFormatError,
    generate_synthetic,
    load_matrix,
    looks_labeled,
    normalize_per_sample,
    split_labels,
    train_test_split,
    write_csv,
)
from dctl.evaluation import accuracy, adjusted_rand_index, kmeans, knn_classify
from test_properties import CSV_CASES, assert_csv_matches_reference


# ----------------------------------------------------------------- csv files


def test_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(20)
    features = rng.standard_normal((4, 5))
    path = tmp_path / "data.csv"
    write_csv(path, features)
    loaded = load_matrix(path)
    assert np.array_equal(loaded, features)


def test_csv_single_header_line_is_skipped(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n")
    loaded = load_matrix(path)
    assert loaded.shape == (2, 3)
    assert np.array_equal(loaded, [[1.0, 2.0, 0.0], [3.0, 4.0, 1.0]])


def test_csv_bad_cell_error_cites_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5,abc\n")
    with pytest.raises(DatasetFormatError) as excinfo:
        load_matrix(path)
    message = str(excinfo.value)
    assert "row 3, column 2" in message
    assert "'abc'" in message


def test_csv_ragged_row_error(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DatasetFormatError, match="row 2: expected 2 columns, found 1"):
        load_matrix(path)


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n")
    with pytest.raises(DatasetFormatError, match="row 1, column 2: non-finite value"):
        load_matrix(path)
    path.write_text("nan,1\n")
    with pytest.raises(DatasetFormatError, match="row 1, column 1: non-finite value"):
        load_matrix(path)


def test_csv_empty_and_header_only_files_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_matrix(path)
    path.write_text("name,value\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_matrix(path)


def test_csv_quoted_cells_parse_as_numbers(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"1.5","2"\n"-3e2",4\n')
    assert np.array_equal(load_matrix(path), [[1.5, 2.0], [-300.0, 4.0]])


def test_csv_underscores_and_surrounding_whitespace_are_accepted(tmp_path):
    # the cells go through Python's float(), which allows both
    path = tmp_path / "loose.csv"
    path.write_text("1_000, 2.5 ,\t3\n4,5_0.5,6 \n")
    assert np.array_equal(load_matrix(path), [[1000.0, 2.5, 3.0], [4.0, 50.5, 6.0]])


def test_csv_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"f0,f1\r\n1.25,2\r\n3,4.5\r\n")
    assert np.array_equal(load_matrix(path), [[1.25, 2.0], [3.0, 4.5]])


def test_csv_blank_lines_are_skipped_but_counted(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("1,2\n\n3,4\n , \n5,6\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path.write_text("1,2\n\n3,4\n\n5,x\n")
    with pytest.raises(DatasetFormatError, match="row 5, column 2: could not parse 'x'"):
        load_matrix(path)


def test_csv_header_is_a_first_row_whose_first_cell_fails(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("\nname,1\n1,2\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0]])
    path.write_text("1,name\n1,2\n")
    with pytest.raises(DatasetFormatError, match="row 1, column 2: could not parse 'name'"):
        load_matrix(path)
    path.write_text("a,b\nc,d\n1,2\n")
    with pytest.raises(DatasetFormatError, match="row 2, column 1: could not parse 'c'"):
        load_matrix(path)
    path.write_text("1,2\nname,3\n")
    with pytest.raises(DatasetFormatError, match="row 2, column 1: could not parse 'name'"):
        load_matrix(path)


def test_csv_first_bad_cell_in_a_row_is_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3,4\n5,inf,7,abc\n")
    with pytest.raises(DatasetFormatError, match="row 2, column 2: non-finite value"):
        load_matrix(path)
    path.write_text("1,2,3,4\n5,abc,7,nan\n")
    with pytest.raises(DatasetFormatError, match="row 2, column 2: could not parse 'abc'"):
        load_matrix(path)
    # a bad cell is reported before a width error in the same row
    path.write_text("1,2,3,4\n5,1e999,7\n")
    with pytest.raises(DatasetFormatError, match="row 2, column 2: non-finite value"):
        load_matrix(path)


def test_csv_width_error_after_good_rows(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2\n3,4\n5,6,7\n8,9\n")
    with pytest.raises(DatasetFormatError, match="row 3: expected 2 columns, found 3"):
        load_matrix(path)


def test_csv_load_peaks_below_three_times_the_result(tmp_path):
    rng = np.random.default_rng(24)
    features = rng.standard_normal((500, 1024))
    path = tmp_path / "wide.csv"
    write_csv(path, features, labels=rng.integers(0, 4, size=500), header=True)
    tracemalloc.start()
    try:
        loaded = load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.shape == (500, 1025)
    assert np.array_equal(loaded[:, :-1], features)
    assert peak < 3 * loaded.nbytes


def test_csv_feature_file_with_header_takes_the_bulk_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(25)
    features = np.abs(rng.standard_normal((40, 16)))
    features[features < 0.5] = 0.0
    path = tmp_path / "features.csv"
    write_csv(path, features, labels=rng.integers(0, 3, size=40), header=True)

    def refuse(path):
        raise AssertionError("the row-wise reader was used")

    monkeypatch.setattr(dctl.data, "_parse_csv_rows", refuse)
    loaded = load_matrix(path)
    assert np.array_equal(loaded[:, :-1], features)
    # a quoted cell still goes row by row
    path.write_text('f0,f1\n"1",2\n')
    with pytest.raises(AssertionError, match="row-wise"):
        load_matrix(path)


def test_csv_undecodable_bytes_name_the_file_and_offset(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1.0,2.0\n\xff\xfe,3\n")
    with pytest.raises(DatasetFormatError) as excinfo:
        load_matrix(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert "byte offset 8" in message
    # past the text reader's first chunk, the offset still counts from the file start
    path.write_bytes(b"1.0,2.0\n" * 5000 + b"3.0,\xe9\n")
    with pytest.raises(DatasetFormatError, match="byte offset 40004"):
        load_matrix(path)


def test_csv_field_over_the_size_limit_names_its_record(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text('1,2\n\n"' + "0" * (csv.field_size_limit() + 1) + '",3\n')
    with pytest.raises(DatasetFormatError) as excinfo:
        load_matrix(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert "row 3" in message
    assert "field limit" in message


# ------------------------------------------------------ csv in row chunks


CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts from this process."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_process_csv(monkeypatch, path, *args, **kwargs):
    """The bytes write_csv writes and the bits load_matrix reads in one process."""
    with monkeypatch.context() as patch:
        patch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES", 2**62)
        write_csv(path, *args, **kwargs)
        return path.read_bytes(), load_matrix(path).tobytes()


@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("share, extra, chunks", [(2, 1, 1), (2, 0, 2), (3, 0, 3)])
def test_csv_chunks_write_the_bytes_and_read_the_bits_of_one_process(
        tmp_path, monkeypatch, forks, labeled, header, share, extra, chunks):
    # the constant is set so that the text falls just short of two chunks,
    # makes exactly two, or three; each side counts its own text: write_csv
    # its first row times the row count, load_matrix the bytes after the header
    rng = np.random.default_rng(26)
    features = rng.standard_normal((41, 7))
    features[rng.random(features.shape) < 0.3] = 0.0
    labels = rng.integers(0, 5, size=41) if labeled else None
    text, bits = one_process_csv(monkeypatch, tmp_path / "one.csv", features, labels,
                                 header=header)
    expected_forks = min(chunks, CORES) - 1
    first_row = text.split(b"\r\n")[int(header)] + b"\r\n"
    path = tmp_path / "chunked.csv"
    monkeypatch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES",
                        len(first_row) * 41 // share + extra)
    write_csv(path, features, labels, header=header)
    assert path.read_bytes() == text
    assert len(forks) == expected_forks
    assert_no_child_left()
    rows = len(text) - (text.index(b"\n") + 1 if header else 0)
    monkeypatch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES", rows // share + extra)
    assert load_matrix(path).tobytes() == bits
    assert len(forks) == 2 * expected_forks
    assert_no_child_left()


GOOD_ROWS = "1.5,-2\n" * 40


@pytest.mark.parametrize("text", CSV_CASES)
def test_csv_chunk_read_matches_row_wise_reference(tmp_path, monkeypatch, forks, text):
    # every case lands in the last chunk, a child's, behind good rows
    monkeypatch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES", 64)
    assert_csv_matches_reference(tmp_path / "case.csv", GOOD_ROWS + text)
    assert len(forks) == min(CORES, len((GOOD_ROWS + text).encode()) // 64) - 1
    assert_no_child_left()


def test_csv_quoted_field_across_a_cut_matches_row_wise_reference(tmp_path, monkeypatch,
                                                                  forks):
    # two chunks cut just past the first "\n" at or after the middle byte,
    # which is the one inside the quoted field
    text = "1,2\n" * 30 + '"1\n2",3\n' + "1,2\n" * 28
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    with open(path, "rb") as handle:
        cut = dctl.data._line_cuts(handle.fileno(), 0, len(text), 2)[1]
    assert text[:cut].endswith('"1\n')
    monkeypatch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES", len(text) // 2)
    with pytest.raises(DatasetFormatError, match="row 31, column 1: could not parse"):
        load_matrix(path)
    assert_csv_matches_reference(path, text)
    assert len(forks) == 2 * (min(CORES, 2) - 1)
    assert_no_child_left()


def test_csv_chunk_whose_process_dies_is_read_again_or_named(tmp_path, monkeypatch):
    # a child that ends before sending its chunk: the reader reads the
    # file in one process, and the writer names the rows it lost
    rng = np.random.default_rng(27)
    features = rng.standard_normal((30, 6))
    text, bits = one_process_csv(monkeypatch, tmp_path / "one.csv", features)
    fork = os.fork

    def dying():
        pid = fork()
        if pid == 0:
            os._exit(1)
        return pid

    monkeypatch.setattr(os, "fork", dying)
    monkeypatch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES", 64)
    assert load_matrix(tmp_path / "one.csv").tobytes() == bits
    assert_no_child_left()
    if CORES > 1:
        with pytest.raises(ChildProcessError, match=r"rows \d+ to \d+ ended before"):
            write_csv(tmp_path / "lost.csv", features)
        assert_no_child_left()


def test_csv_with_a_second_thread_alive_stays_in_one_process(tmp_path, monkeypatch):
    # a forked child would hold only the calling thread
    rng = np.random.default_rng(28)
    features = rng.standard_normal((30, 6))
    text, bits = one_process_csv(monkeypatch, tmp_path / "one.csv", features, header=True)

    def refuse():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(dctl.data, "CSV_MIN_CHUNK_BYTES", 64)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        path = tmp_path / "threaded.csv"
        write_csv(path, features, header=True)
        assert path.read_bytes() == text
        assert load_matrix(path).tobytes() == bits
    finally:
        stop.set()
        other.join(timeout=30)
    assert not other.is_alive()


def test_csv_write_peaks_at_a_few_rows_of_text(tmp_path, monkeypatch, forks):
    # each child formats its chunk in its own memory; from the moment the
    # file opens (after the input checks) this process holds the header, a
    # row and the copy buffer, about 14 rows of text here, never a chunk
    rng = np.random.default_rng(29)
    features = rng.standard_normal((500, 1024))
    path = tmp_path / "wide.csv"

    def opened(file, *args, **kwargs):
        if file == path:
            tracemalloc.reset_peak()
        return open(file, *args, **kwargs)

    monkeypatch.setattr(dctl.data, "open", opened, raising=False)
    tracemalloc.start()
    try:
        write_csv(path, features, labels=rng.integers(0, 4, size=500), header=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_text = path.stat().st_size / 500
    assert peak < 32 * row_text
    assert forks or CORES == 1
    assert_no_child_left()


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n")
    with pytest.raises(DatasetFormatError, match="unknown dataset format"):
        load_matrix(path, fmt="parquet")


# ----------------------------------------------------------------- raw files


def test_raw_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    features = rng.standard_normal((3, 4))
    path = tmp_path / "data.raw"
    features.astype("<f8").tofile(path)
    loaded = load_matrix(path, fmt="raw", cols=4)
    assert np.array_equal(loaded, features)


def test_raw_requires_cols_and_divisibility(tmp_path):
    path = tmp_path / "data.raw"
    np.arange(7, dtype="<f8").tofile(path)
    with pytest.raises(DatasetFormatError, match="positive column count"):
        load_matrix(path, fmt="raw")
    with pytest.raises(DatasetFormatError, match="7 values do not fill rows of 3 columns"):
        load_matrix(path, fmt="raw", cols=3)
    path.write_bytes(b"")
    with pytest.raises(DatasetFormatError, match="no data"):
        load_matrix(path, fmt="raw", cols=3)


@pytest.mark.parametrize("cols", [2.5, True, "x", "3", 0, -2])
def test_raw_cols_must_be_a_positive_integer(tmp_path, cols):
    path = tmp_path / "data.raw"
    np.arange(6, dtype="<f8").tofile(path)
    with pytest.raises(DatasetFormatError, match="positive column count"):
        load_matrix(path, fmt="raw", cols=cols)
    assert load_matrix(path, fmt="raw", cols=np.int64(2)).shape == (3, 2)


def test_raw_trailing_partial_value_is_rejected(tmp_path):
    path = tmp_path / "data.raw"
    path.write_bytes(np.arange(4, dtype="<f8").tobytes() + b"\x00\x01\x02")
    with pytest.raises(DatasetFormatError, match="35 bytes"):
        load_matrix(path, fmt="raw", cols=2)


def test_raw_non_finite_rejected(tmp_path):
    path = tmp_path / "data.raw"
    np.array([1.0, np.nan, 3.0, 4.0], dtype="<f8").tofile(path)
    with pytest.raises(DatasetFormatError, match="row 1, column 2: non-finite value"):
        load_matrix(path, fmt="raw", cols=2)


# ------------------------------------------------------------- boundary fuzz


CSV_ALPHABET = np.frombuffer(b"0123456789.,-+eE \t\r\n\"_nafi\x00\xe9", dtype=np.uint8)


def fuzz_payloads(seed, count):
    """Seeded byte strings up to 96 bytes long, every other one drawn from
    the characters a CSV number is made of, the rest from every byte."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        size = int(rng.integers(0, 97))
        if i % 2:
            yield rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        else:
            yield rng.choice(CSV_ALPHABET, size).tobytes()


@pytest.mark.parametrize("fmt, cols", [("csv", None), ("raw", 1), ("raw", 2), ("raw", 5)])
def test_random_bytes_load_or_raise_dataset_format_error(tmp_path, fmt, cols):
    path = tmp_path / "fuzz.data"
    loaded = 0
    for payload in fuzz_payloads(62, 400):
        path.write_bytes(payload)
        try:
            values = load_matrix(path, fmt=fmt, cols=cols)
        except DatasetFormatError:
            continue
        loaded += 1
        assert values.dtype == np.float64 and values.ndim == 2 and values.size
        assert np.isfinite(values).all()
    assert 0 < loaded < 400  # both outcomes are exercised


# ------------------------------------------------------------ label handling


def test_looks_labeled_heuristic():
    assert looks_labeled(np.array([[0.5, 1.0], [0.2, 0.0]]))
    assert looks_labeled(np.array([[0.5, 3.0], [0.2, 12.0]]))
    assert not looks_labeled(np.array([[0.5, 1.5], [0.2, 0.0]]))
    assert not looks_labeled(np.array([[0.5, -1.0], [0.2, 0.0]]))
    assert not looks_labeled(np.array([[1.0], [2.0]]))
    # split_labels reads -1e-10 as label 0
    assert looks_labeled(np.array([[0.5, -1e-10], [0.2, 1.0]]))


LABEL_CELLS = st.sampled_from([0.0, -0.0, 1.0, 7.0, 1e13, -1e-10, 1e-10, -5e-10,
                               0.9999999999, 2.5, -1.0, -0.6, np.nan, np.inf, 1e300])


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(LABEL_CELLS | st.floats(-3, 3), min_size=1, max_size=4))
def test_looks_labeled_exactly_when_split_labels_accepts(cells):
    values = np.column_stack([np.zeros(len(cells)), cells])
    try:
        split_labels(values, True)
        accepted = True
    except DatasetFormatError:
        accepted = False
    assert looks_labeled(values) == accepted


def test_split_labels():
    values = np.array([[0.5, 1.0, 2.0], [0.2, 0.3, 0.0]])
    features, labels = split_labels(values, labeled=True)
    assert np.array_equal(features, values[:, :2])
    assert labels.dtype == np.int64
    assert np.array_equal(labels, [2, 0])
    same, none = split_labels(values, labeled=False)
    assert none is None
    assert np.array_equal(same, values)
    with pytest.raises(DatasetFormatError, match="non-integer"):
        split_labels(np.array([[1.0, 0.5]]), labeled=True)
    with pytest.raises(DatasetFormatError, match="negative"):
        split_labels(np.array([[1.0, -2.0]]), labeled=True)
    with pytest.raises(DatasetFormatError, match="two columns"):
        split_labels(np.array([[1.0]]), labeled=True)


def test_normalize_per_sample():
    features = np.array([[2.0, 4.0, 6.0], [5.0, 5.0, 5.0], [-1.0, 0.0, 3.0]])
    scaled = normalize_per_sample(features)
    assert np.array_equal(scaled[0], [0.0, 0.5, 1.0])
    assert np.array_equal(scaled[1], [0.0, 0.0, 0.0])
    assert scaled[2].min() == 0.0 and scaled[2].max() == 1.0
    assert scaled.shape == features.shape


# -------------------------------------------------------------------- splits


def test_train_test_split_partitions_ten_rows():
    features = np.arange(10, dtype=np.float64).reshape(10, 1)
    labels = np.arange(10)
    split = train_test_split(features, labels, split=0.7, seed=0)
    assert split.train_features.shape == (7, 1)
    assert split.test_features.shape == (3, 1)
    combined = np.concatenate([split.train_features[:, 0], split.test_features[:, 0]])
    assert sorted(combined.tolist()) == list(range(10))
    # rows stay paired with their labels through the shuffle
    assert np.array_equal(split.train_features[:, 0], split.train_labels)
    assert np.array_equal(split.test_features[:, 0], split.test_labels)


def test_train_test_split_same_seed_is_identical():
    rng = np.random.default_rng(22)
    features = rng.standard_normal((12, 3))
    labels = rng.integers(0, 2, size=12)
    first = train_test_split(features, labels, split=0.5, seed=9)
    second = train_test_split(features, labels, split=0.5, seed=9)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_train_test_split_edge_cases():
    features = np.zeros((4, 2))
    split = train_test_split(features, None, split=1.0, seed=0)
    assert split.train_features.shape == (4, 2)
    assert split.test_features.shape == (0, 2)
    assert split.train_labels is None and split.test_labels is None
    with pytest.raises(ValueError):
        train_test_split(features, None, split=0.0)
    with pytest.raises(ValueError):
        train_test_split(features, None, split=1.5)


# ---------------------------------------------------------- synthetic signals


def test_generate_synthetic_deterministic_and_shaped():
    first_signals, first_labels = generate_synthetic(3, 4, 32, seed=5)
    second_signals, second_labels = generate_synthetic(3, 4, 32, seed=5)
    assert np.array_equal(first_signals, second_signals)
    assert np.array_equal(first_labels, second_labels)
    assert first_signals.shape == (12, 32)
    assert np.array_equal(first_labels, np.repeat(np.arange(3), 4))
    other, _ = generate_synthetic(3, 4, 32, seed=6)
    assert not np.array_equal(first_signals, other)


@pytest.mark.parametrize("seed", range(6))
def test_generate_synthetic_noiseless_classes_are_nearest_neighbour_separable(seed):
    signals, labels = generate_synthetic(2, 20, 64, noise_sigma=0.0, seed=seed)
    split = train_test_split(signals, labels, split=0.7, seed=0)
    pred = knn_classify(split.train_features, split.train_labels,
                        split.test_features, k=1)
    assert accuracy(split.test_labels, pred) == 1.0


def test_generate_synthetic_single_class_has_zero_ari_against_any_split():
    signals, labels = generate_synthetic(1, 12, 32, seed=3)
    result = kmeans(signals, n_clusters=2, seed=0)
    counts = np.bincount(result.assignments, minlength=2)
    assert np.all(counts > 0)
    assert adjusted_rand_index(labels, result.assignments) == 0.0


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 32)
    with pytest.raises(ValueError):
        generate_synthetic(2, 0, 32)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 4)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 32, noise_sigma=-0.1)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="noise_sigma"):
            generate_synthetic(2, 5, 32, noise_sigma=bad)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 32, motif_count=0)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 32, motif_count=64)


# ----------------------------------------------------------------- csv output


def test_write_csv_header_and_labels(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, np.array([[1.5, 2.5], [3.5, 4.5]]), labels=[1, 0], header=True)
    lines = path.read_text().splitlines()
    assert lines[0] == "f0,f1,label"
    assert lines[1] == "1.5,2.5,1"
    assert lines[2] == "3.5,4.5,0"


def test_write_csv_bytes_match_csv_writer(tmp_path):
    features = np.array([
        [-0.0, 5e-324, 1e-300, 1e300],
        [0.1, 3.0, -2.5e-8, 123456789.125],
        [np.nextafter(1.0, 2.0), -1e-310, 0.0, -7.0],
    ])
    labels = np.array([0, 2**62, 9007199254740993], dtype=np.int64)
    for with_labels in (False, True):
        for header in (False, True):
            reference = tmp_path / "reference.csv"
            with open(reference, "w", newline="") as handle:
                writer = csv.writer(handle)
                if header:
                    writer.writerow([f"f{i}" for i in range(4)] + ["label"] * with_labels)
                for i, row in enumerate(features):
                    writer.writerow([repr(float(v)) for v in row]
                                    + [str(int(labels[i]))] * with_labels)
            path = tmp_path / "out.csv"
            write_csv(path, features, labels if with_labels else None, header=header)
            assert path.read_bytes() == reference.read_bytes()


def test_write_csv_validation(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        write_csv(path, np.zeros(4))
    with pytest.raises(ValueError):
        write_csv(path, np.zeros((2, 2)), labels=[1])
    # load_matrix refuses them, so they are not written
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^features contain non-finite values"):
            write_csv(path, [[1.0, bad]])
    assert not path.exists()


def test_as_matrix_checks_finiteness_without_a_full_size_mask():
    # the message is the entrywise check's, whatever the bad entries sum to
    for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
        values = np.ones((3, 4))
        values[1, :len(bad)] = bad
        with pytest.raises(ValueError, match="^x contain non-finite values$"):
            dctl.data.as_matrix(values, "x")
    # finite entries whose sum overflows are finite, and warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = dctl.data.as_matrix(np.full((4, 4), 1e308), "x")
    assert np.array_equal(big, np.full((4, 4), 1e308))
    # a finite sum needs no (M, N) boolean mask, 500 KiB here
    values = np.random.default_rng(24).standard_normal((500, 1024))
    tracemalloc.start()
    try:
        dctl.data.as_matrix(values, "x")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_as_labels_refuses_unsigned_labels_no_int64_holds():
    # a uint64 of 2**63 or more would wrap to a negative int64
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match="^labels contain out-of-range values"):
            dctl.data.as_labels(np.array([0, big], dtype=np.uint64), 2)
    top = dctl.data.as_labels(np.array([2**63 - 1], dtype=np.uint64), 1)
    assert top.dtype == np.int64 and top.tolist() == [2**63 - 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_labels_are_non_integer_without_a_warning():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^labels contain non-integer values"):
            dctl.data.as_labels(np.array([0.0, bad]), 2)
        with pytest.raises(DatasetFormatError, match="label column contains non-integer"):
            split_labels(np.array([[1.0, 0.0], [1.0, bad]]), True)


def test_write_csv_refuses_labels_split_labels_would_refuse(tmp_path):
    path = tmp_path / "out.csv"
    for labels, problem in (([1.7, 0], "non-integer"), ([0, np.nan], "non-integer"),
                            ([-1, 0], "negative"), ([2.0, -1.0], "negative"),
                            ([0.0, 2.0**63], "out-of-range")):
        with pytest.raises(ValueError, match=f"^labels contain {problem} values"):
            write_csv(path, np.zeros((2, 2)), labels=labels)
        values = np.column_stack([np.zeros((2, 2)), labels])
        with pytest.raises(DatasetFormatError, match=f"label column contains {problem}"):
            split_labels(values, True)
    # within the reader's 1e-9, a float label is written as the integer it reads as
    write_csv(path, np.zeros((2, 1)), labels=[0.9999999999, 2.0])
    features, labels = split_labels(load_matrix(path), True)
    assert path.read_text().splitlines() == ["0.0,1", "0.0,2"]
    assert labels.tolist() == [1, 2]
