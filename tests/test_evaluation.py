"""Nearest-neighbour and centroid classifiers, k-means, ARI, timing."""

import time
import tracemalloc

import numpy as np
import pytest

import dctl.evaluation
from dctl.evaluation import (
    KMEANS_INITS,
    _class_means,
    _nearest,
    _pca_basis,
    _seed_kmeanspp,
    _seed_pca,
    accuracy,
    adjusted_rand_index,
    kmeans,
    knn_classify,
    nearest_centroid_classify,
    timed,
)
from oracles import (
    ari_bruteforce,
    knn_order_reference,
    knn_reference,
    make_blobs,
    pca_seeds_svd,
)


def separated_blobs(seed=0, per_cluster=15, sigma=0.1):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    return make_blobs(per_cluster, centers, sigma, seed=seed)


# ----------------------------------------------------------- knn classifier


def test_knn_votes_on_label_codes_not_label_values():
    # a vote sized by the largest label would ask for 80 TB here
    big = 10**13
    train = np.array([[0.0], [0.1], [5.0], [5.1]])
    pred = knn_classify(train, np.array([big, big, 0, 0]), np.array([[0.05], [5.05]]), k=2)
    assert pred.dtype == np.int64
    assert pred.tolist() == [big, 0]
    # ties still go to the smallest label, whatever the row order
    pred = knn_classify(np.array([[0.0], [1.0]]), np.array([big, 7]), np.array([[0.5]]), k=2)
    assert pred.tolist() == [7]


def test_knn_exact_training_point_gets_its_label():
    train = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    labels = np.array([4, 7, 2])
    pred = knn_classify(train, labels, train.copy(), k=1)
    assert np.array_equal(pred, labels)


def test_knn_separated_blobs_are_perfect():
    points, labels = separated_blobs(seed=1)
    test_points, test_labels = separated_blobs(seed=2)
    pred = knn_classify(points, labels, test_points, k=3)
    assert accuracy(test_labels, pred) == 1.0


def test_knn_with_k_equal_train_size_returns_majority_label():
    train = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    labels = np.array([1, 1, 2, 2, 2])
    pred = knn_classify(train, labels, np.array([[100.0], [-50.0]]), k=5)
    assert np.array_equal(pred, [2, 2])
    # an exact tie goes to the smallest label value
    tied = knn_classify(train[:4], np.array([3, 3, 0, 0]), np.array([[9.0]]), k=4)
    assert np.array_equal(tied, [0])


def test_knn_argument_validation():
    train = np.zeros((4, 2))
    labels = np.zeros(4, dtype=int)
    test = np.zeros((2, 2))
    with pytest.raises(ValueError):
        knn_classify(train, labels, test, k=0)
    with pytest.raises(ValueError):
        knn_classify(train, labels, test, k=5)
    with pytest.raises(ValueError):
        knn_classify(train, labels[:3], test, k=1)
    with pytest.raises(ValueError):
        knn_classify(train, labels, np.zeros((2, 3)), k=1)


def knn_case(name):
    """(train, labels, test, k) for the named screening case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "integer-grid":
        train = rng.integers(-2, 3, (60, 3)).astype(np.float64)
        test = rng.integers(-2, 3, (30, 3)).astype(np.float64)
        k = 5
    elif name == "duplicated-rows":
        base = rng.standard_normal((10, 4))
        train = base[rng.integers(0, 10, 50)]
        test = np.vstack([base, rng.standard_normal((5, 4))])
        k = 4
    elif name == "all-zero":
        train = np.zeros((12, 5))
        train[::3] = 1.0
        test = np.zeros((4, 5))
        k = 3
    elif name == "k-equals-n-train":
        train = rng.integers(0, 3, (9, 2)).astype(np.float64)
        test = rng.integers(0, 3, (6, 2)).astype(np.float64)
        k = 9
    elif name == "one-dimension":
        train = rng.integers(-3, 4, (25, 1)).astype(np.float64)
        test = np.arange(-4.0, 5.0)[:, None] + 0.5 * (np.arange(9) % 2)[:, None]
        k = 4
    elif name == "last-bit-ties":
        train = 1.0 + rng.integers(0, 3, (40, 6)) * np.finfo(np.float64).eps
        test = 1.0 + rng.integers(0, 3, (10, 6)) * np.finfo(np.float64).eps
        k = 3
    elif name.startswith("scale-"):
        scale = float(name.removeprefix("scale-"))
        train = scale * rng.standard_normal((30, 8))
        test = scale * rng.standard_normal((10, 8))
        k = 3
    elif name == "features-io-shape":
        train = np.maximum(rng.standard_normal((1400, 1024)) - 0.5, 0.0)
        test = np.maximum(rng.standard_normal((600, 1024)) - 0.5, 0.0)
        k = 3
    else:
        raise ValueError(name)
    return train, rng.integers(0, 4, train.shape[0]), test, k


KNN_CASES = ["integer-grid", "duplicated-rows", "all-zero", "k-equals-n-train",
             "one-dimension", "last-bit-ties", "scale-1e-150", "scale-1e150",
             "scale-1e154", "scale-1e-162", "scale-1e-170", "features-io-shape"]


@pytest.mark.parametrize("name", KNN_CASES)
def test_knn_matches_full_cdist_reference_bitwise(name):
    train, labels, test, k = knn_case(name)
    assert np.array_equal(_nearest(train, test, k), knn_order_reference(train, test, k))
    assert np.array_equal(knn_classify(train, labels, test, k),
                          knn_reference(train, labels, test, k))


def test_knn_screen_hands_cdist_a_few_rows(monkeypatch):
    rng = np.random.default_rng(11)
    train = rng.standard_normal((300, 16))
    labels = rng.integers(0, 3, 300)
    test = rng.standard_normal((50, 16))
    expected = knn_reference(train, labels, test, 3)
    sizes = []

    def counting_cdist(a, b, *args, **kwargs):
        sizes.append(len(b))
        return cdist(a, b, *args, **kwargs)

    cdist = dctl.evaluation.cdist
    monkeypatch.setattr(dctl.evaluation, "cdist", counting_cdist)
    assert np.array_equal(knn_classify(train, labels, test, 3), expected)
    assert len(sizes) == 50
    assert max(sizes) < 300
    # squares that overflow leave no bound, so every row is a candidate
    sizes.clear()
    knn_classify(1e154 * train, labels, 1e154 * test, 3)
    assert min(sizes) == 300


def test_knn_scratch_is_linear_in_test_rows():
    # the screen holds three (block, n_train) float64 arrays and a mask,
    # not three (n_test, n_train) arrays
    rng = np.random.default_rng(12)
    train = rng.standard_normal((400, 4))
    labels = rng.integers(0, 3, 400)
    test = rng.standard_normal((8 * dctl.evaluation.NEAREST_BLOCK, 4))
    tracemalloc.start()
    try:
        knn_classify(train, labels, test, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * dctl.evaluation.NEAREST_BLOCK * train.shape[0] * 8


def test_knn_invariant_under_orthogonal_maps():
    rng = np.random.default_rng(10)
    for trial in range(10):
        train = rng.standard_normal((20, 5))
        labels = rng.integers(0, 3, size=20)
        test = rng.standard_normal((8, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        base = knn_classify(train, labels, test, k=3)
        rotated = knn_classify(train @ q, labels, test @ q, k=3)
        assert np.array_equal(base, rotated)


# ------------------------------------------------------------ centroid rule


def test_nearest_centroid_separated_blobs():
    points, labels = separated_blobs(seed=3)
    test_points, test_labels = separated_blobs(seed=4)
    pred = nearest_centroid_classify(points, labels, test_points)
    assert accuracy(test_labels, pred) == 1.0


def test_class_means_match_masked_means_bitwise():
    # a one-row class, and -0.0 entries whose sums keep or lose their sign
    rng = np.random.default_rng(20)
    x = rng.standard_normal((60, 7))
    x[:, 2] = -0.0
    x[::3, 4] = -0.0
    codes = rng.integers(0, 3, size=60)
    codes[17] = 3
    expected = np.stack([x[codes == c].mean(axis=0) for c in range(4)])
    assert _class_means(x, codes, 4).tobytes() == expected.tobytes()


def big_blobs():
    # (2000, 1024) features in 4 well-separated clusters
    rng = np.random.default_rng(21)
    centers = 3.0 * rng.standard_normal((4, 1024))
    return make_blobs(500, centers, 1.0, seed=22)


def traced_peak(operation, *args, **kwargs):
    tracemalloc.start()
    try:
        operation(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("init", ["random", "kmeanspp"])
def test_kmeans_holds_no_copy_of_a_cluster(init):
    # a masked copy of each cluster's rows, or a finiteness mask of the
    # features, would each take an eighth of the features or more
    x, _ = big_blobs()
    assert traced_peak(kmeans, x, 4, init=init, seed=0) < x.nbytes / 16


def test_nearest_centroid_holds_no_copy_of_a_class():
    x, labels = big_blobs()
    assert traced_peak(nearest_centroid_classify, x, labels, x) < x.nbytes / 16


def test_nearest_centroid_keeps_label_values():
    train = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
    labels = np.array([7, 7, 3, 3])
    pred = nearest_centroid_classify(train, labels, np.array([[9.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(pred, [3, 7])


# ------------------------------------------------------------------ accuracy


def test_accuracy_values_and_symmetry():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3], [3, 1, 2]) == 0.0
    assert accuracy([1, 1, 2, 2], [1, 1, 3, 3]) == 0.5
    rng = np.random.default_rng(11)
    a = rng.integers(0, 4, size=50)
    b = rng.integers(0, 4, size=50)
    assert accuracy(a, b) == accuracy(b, a)
    with pytest.raises(ValueError):
        accuracy([1, 2], [1, 2, 3])


# ----------------------------------------------------------------------- ARI


def test_ari_perfect_and_renamed_partitions():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert adjusted_rand_index(labels, labels) == 1.0
    renamed = np.array([5, 5, 9, 9, 1, 1])
    assert adjusted_rand_index(labels, renamed) == 1.0


def test_ari_worked_six_point_example():
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 2, 2]
    value = adjusted_rand_index(a, b)
    assert abs(value - 8.0 / 33.0) <= 1e-12
    assert abs(value - ari_bruteforce(a, b)) <= 1e-12


def test_ari_matches_bruteforce_on_random_labelings():
    rng = np.random.default_rng(12)
    for trial in range(15):
        m = int(rng.integers(4, 25))
        a = rng.integers(0, 4, size=m)
        b = rng.integers(0, 4, size=m)
        assert abs(adjusted_rand_index(a, b) - ari_bruteforce(a, b)) <= 1e-12


def test_ari_random_labelings_center_near_zero():
    rng = np.random.default_rng(13)
    values = []
    for trial in range(100):
        a = rng.integers(0, 4, size=200)
        b = rng.integers(0, 4, size=200)
        values.append(adjusted_rand_index(a, b))
    mean = float(np.mean(values))
    assert -0.05 <= mean <= 0.05


def test_ari_degenerate_partitions():
    ones = np.zeros(5, dtype=int)
    assert adjusted_rand_index(ones, ones + 7) == 1.0
    singletons = np.arange(5)
    assert adjusted_rand_index(singletons, singletons[::-1]) == 1.0
    # constant truth against any proper split has zero adjusted agreement
    assert adjusted_rand_index(ones, np.array([0, 0, 1, 1, 1])) == 0.0
    with pytest.raises(ValueError):
        adjusted_rand_index([0, 1], [0, 1, 2])


# -------------------------------------------------------------------- kmeans


def test_kmeans_one_cluster_per_point_has_zero_inertia():
    rng = np.random.default_rng(14)
    points = rng.standard_normal((6, 3))
    result = kmeans(points, n_clusters=6, seed=0)
    assert result.inertia == 0.0
    assert sorted(result.assignments.tolist()) == list(range(6))


@pytest.mark.parametrize("init", KMEANS_INITS)
def test_kmeans_recovers_separated_blobs(init):
    points, labels = separated_blobs(seed=5, per_cluster=20)
    result = kmeans(points, n_clusters=3, init=init, seed=0)
    assert adjusted_rand_index(labels, result.assignments) == 1.0
    assert result.centroids.shape == (3, 2)
    assert result.elapsed_seconds > 0.0


def test_kmeans_inertia_trace_never_increases():
    rng = np.random.default_rng(15)
    for trial in range(50):
        m = int(rng.integers(8, 30))
        d = int(rng.integers(1, 5))
        c = int(rng.integers(1, min(m, 5)))
        init = KMEANS_INITS[trial % 3]
        points = rng.standard_normal((m, d))
        result = kmeans(points, n_clusters=c, init=init, seed=trial)
        trace = np.asarray(result.inertia_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) <= 1e-12)
        assert abs(trace[-1] - result.inertia) <= 1e-12


def test_kmeans_reseeds_empty_clusters():
    # four identical points and one far outlier; a random init that picks
    # two coincident centroids must not come back with an empty cluster
    points = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
    for seed in range(20):
        result = kmeans(points, n_clusters=2, init="random", seed=seed)
        counts = np.bincount(result.assignments, minlength=2)
        assert np.all(counts > 0)
        assert result.inertia == 0.0


def test_kmeans_seeded_determinism():
    rng = np.random.default_rng(16)
    points = rng.standard_normal((30, 4))
    first = kmeans(points, n_clusters=4, init="kmeanspp", seed=3)
    second = kmeans(points, n_clusters=4, init="kmeanspp", seed=3)
    assert np.array_equal(first.assignments, second.assignments)
    assert np.array_equal(first.centroids, second.centroids)
    assert first.inertia == second.inertia


def _pca_inputs():
    rng = np.random.default_rng(17)
    tall = rng.standard_normal((60, 8)) * np.linspace(3.0, 0.5, 8)
    wide = rng.standard_normal((12, 40)) * np.linspace(3.0, 0.5, 40)
    deficient = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 10))
    deficient[10:20] = deficient[:10]  # duplicate rows
    deficient[:, [2, 7]] = 5.0  # constant columns
    wide_deficient = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 30))
    wide_deficient[5:] = wide_deficient[:4]
    wide_deficient[:, 0] = -1.5
    return {
        "tall": (tall, 4, 3),
        "wide": (wide, 5, 4),
        "rank-deficient": (deficient, 3, 2),
        "rank-deficient-short": (deficient, 6, 3),
        "wide-rank-deficient": (wide_deficient, 4, 2),
    }


@pytest.mark.parametrize("case", sorted(_pca_inputs()))
def test_pca_basis_spans_top_singular_subspace(case):
    x, n_clusters, kept = _pca_inputs()[case]
    centered = x - x.mean(axis=0)
    basis = _pca_basis(x, x.mean(axis=0), n_clusters - 1)
    assert basis.shape == (kept, x.shape[1])
    assert np.allclose(basis @ basis.T, np.eye(kept), rtol=0.0, atol=1e-12)
    _, _, vh = np.linalg.svd(centered, full_matrices=False)
    top = vh[:kept]
    assert np.linalg.norm(basis.T @ basis - top.T @ top, 2) <= 1e-10


@pytest.mark.parametrize("shape", [(3000, 256), (400, 3000)])
def test_pca_basis_hands_eigh_the_gram_without_a_copy(shape, monkeypatch):
    rng = np.random.default_rng(18)
    x = rng.standard_normal(shape) * np.linspace(3.0, 0.5, shape[1])
    mean = x.mean(axis=0)
    small = min(shape)
    # x is not centered, so the measured region covers the centering too
    tracemalloc.start()
    try:
        basis = _pca_basis(x, mean, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gram_bytes = small * small * 8
    assert peak - gram_bytes < 0.25 * gram_bytes
    # the Fortran-ordered Gram goes to LAPACK as it is: a C-ordered copy,
    # which f2py copies back, gives the same bits
    eigh = dctl.evaluation.eigh
    monkeypatch.setattr(dctl.evaluation, "eigh",
                        lambda a, **kwargs: eigh(np.array(a, order="C"), **kwargs))
    assert _pca_basis(x, mean, 3).tobytes() == basis.tobytes()


@pytest.mark.parametrize("shape", [(600, 512), (400, 600)])
def test_kmeans_pca_holds_the_gram_and_one_block_beyond_its_input(shape):
    # no centered copy of the features: a tall and a wide input each peak
    # below the Gram of their smaller side plus a quarter of it
    rng = np.random.default_rng(19)
    x = rng.standard_normal(shape) * np.linspace(3.0, 0.5, shape[1])
    gram_bytes = min(shape) ** 2 * 8
    tracemalloc.start()
    try:
        kmeans(x, 4, init="pca", seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * gram_bytes


@pytest.mark.parametrize("case", sorted(_pca_inputs()))
def test_pca_seeds_match_full_svd_seeding(case):
    x, n_clusters, _ = _pca_inputs()[case]
    for seed in range(5):
        seeds = _seed_pca(x, n_clusters, np.random.default_rng(seed))
        reference = pca_seeds_svd(x, n_clusters, np.random.default_rng(seed),
                                  _seed_kmeanspp)
        assert np.allclose(seeds, reference, rtol=0.0, atol=1e-10)


# assignments of kmeans(init="pca") from full-SVD seeding, per (blob seed, kmeans seed)
PCA_BLOB_ASSIGNMENTS = {
    (1, 0): "222222222221222102221111111111111121111102000002000002000000",
    (1, 1): "222222222222222012220000000000000020000012111112111112111111",
    (2, 0): "221222222222212222221111011111111211110100000000000000102000",
    (2, 1): "220222222222202222220000100000000200001011111111111111012111",
    (3, 0): "211101111101121111112222222222121212222200002001000000000001",
    (3, 1): "022212222222202222220000000000222020000011112112111111111112",
    (4, 0): "121110100111111101112222222222222222022100000000000000000001",
    (4, 1): "202221212222020222020000000000000000100011112211111111111112",
    (5, 0): "111101011111111111112122222222222222221200000000000000000000",
    (5, 1): "222212122222222222220200000000000000002011111111111112111111",
}


@pytest.mark.parametrize("blob_seed, seed", sorted(PCA_BLOB_ASSIGNMENTS))
def test_kmeans_pca_assignments_on_overlapping_blobs(blob_seed, seed):
    points, _ = separated_blobs(seed=blob_seed, per_cluster=20, sigma=4.0)
    result = kmeans(points, n_clusters=3, init="pca", seed=seed)
    expected = PCA_BLOB_ASSIGNMENTS[blob_seed, seed]
    assert "".join(map(str, result.assignments)) == expected


def test_kmeans_argument_validation():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(points, n_clusters=0)
    with pytest.raises(ValueError):
        kmeans(points, n_clusters=5)
    with pytest.raises(ValueError):
        kmeans(points, n_clusters=2, init="antigravity")


# -------------------------------------------------------------------- timing


def test_timed_noop_is_fast_and_returns_result():
    result, elapsed = timed(lambda: 42)
    assert result == 42
    assert 0.0 <= elapsed < 0.001


def test_timed_tracks_a_busy_loop():
    def spin(duration):
        deadline = time.perf_counter() + duration
        count = 0
        while time.perf_counter() < deadline:
            count += 1
        return count

    result, elapsed = timed(spin, 0.2)
    assert result > 0
    assert 0.2 <= elapsed <= 0.24


def test_timed_passes_arguments_through():
    result, elapsed = timed(lambda a, b=0: a + b, 5, b=7)
    assert result == 12
    assert elapsed >= 0.0
