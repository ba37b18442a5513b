"""Dataset parsing, splitting, normalization, synthesis, CSV writing."""

import csv

import numpy as np
import pytest

from dctl.data import (
    DatasetFormatError,
    generate_synthetic,
    load_dataset,
    load_matrix,
    looks_labeled,
    normalize_per_sample,
    split_labels,
    train_test_split,
    write_csv,
)
from dctl.evaluation import accuracy, adjusted_rand_index, kmeans, knn_classify


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


def test_raw_non_finite_rejected(tmp_path):
    path = tmp_path / "data.raw"
    np.array([1.0, np.nan, 3.0, 4.0], dtype="<f8").tofile(path)
    with pytest.raises(DatasetFormatError, match="row 1, column 2: non-finite value"):
        load_matrix(path, fmt="raw", cols=2)


# ------------------------------------------------------------ label handling


def test_looks_labeled_heuristic():
    assert looks_labeled(np.array([[0.5, 1.0], [0.2, 0.0]]))
    assert looks_labeled(np.array([[0.5, 3.0], [0.2, 12.0]]))
    assert not looks_labeled(np.array([[0.5, 1.5], [0.2, 0.0]]))
    assert not looks_labeled(np.array([[0.5, -1.0], [0.2, 0.0]]))
    assert not looks_labeled(np.array([[1.0], [2.0]]))


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


def test_load_dataset_labeled_and_unlabeled(tmp_path):
    rng = np.random.default_rng(23)
    features = rng.standard_normal((10, 6))
    labels = rng.integers(0, 3, size=10)
    path = tmp_path / "set.csv"
    write_csv(path, features, labels)
    split = load_dataset(path, labeled=True, split=0.7, seed=1)
    assert split.train_features.shape == (7, 6)
    assert split.train_labels.shape == (7,)
    expected = {tuple(row) for row in normalize_per_sample(features)}
    seen = {tuple(row) for row in np.vstack([split.train_features, split.test_features])}
    assert seen == expected
    raw_split = load_dataset(path, labeled=False, split=0.7, seed=1, normalize=False)
    assert raw_split.train_features.shape == (7, 7)
    assert raw_split.train_labels is None


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
