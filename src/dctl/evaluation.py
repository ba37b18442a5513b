"""Downstream evaluation helpers: KNN, k-means with three seedings, ARI.

Everything here is deterministic given the stated seed and breaks ties by
the smallest index, so repeated runs reproduce bit-identical results.

Every matrix product here goes through ``scipy.linalg.blas`` (``dgemm``,
``dgemv``, ``dger``, ``dsyrk``), never numpy's ``@``.  numpy and scipy
wheels each bundle their own OpenBLAS (``numpy.libs/libscipy_openblas64_*``
and ``scipy.libs/libscipy_openblas-*``), each with its own thread pool,
and both pools running large products costs time and memory: on 2 cores
a numpy (2000 x 1024)·(1024 x 4) product took 1.8 ms after numpy work
but 4.7 ms right after a scipy BLAS call, and the benchmark's
``features-io`` workload peaked about 6 MB higher with two OpenBLAS
threads than with one.  The products are handed transposed views (a
C-ordered matrix is a Fortran-ordered transpose), so f2py copies no
operand.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dgemm, dgemv, dger, dsyrk
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

from .data import as_int, as_labels, as_matrix

__all__ = [
    "KMEANS_INITS",
    "ClusteringResult",
    "knn_classify",
    "nearest_centroid_classify",
    "accuracy",
    "adjusted_rand_index",
    "kmeans",
    "timed",
]

KMEANS_INITS = ("kmeanspp", "random", "pca")
KMEANS_MAX_ITERS = 300
KMEANS_TOL = 1e-6


# Test rows screened per GEMM.  Each row's bound stands alone, so the
# blocks change no neighbour and keep the screen's scratch at three
# (NEAREST_BLOCK, n_train) float64 arrays whatever the number of test rows.
NEAREST_BLOCK = 256


def _candidates(train, train_sq, test, k):
    """(len(test), len(train)) mask of the training rows that
    ``knn_classify``'s bound cannot rule out of each test row's k nearest."""
    info = np.finfo(np.float64)
    dims = train.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        test_sq = np.einsum("ij,ij->i", test, test)
        estimate = dgemm(1.0, train.T, test.T, trans_a=1).T  # test @ train.T
        estimate *= -2.0
        slack = test_sq[:, None] + train_sq
        estimate += slack
        slack *= 8 * (dims + 4) * info.eps
        slack += 8 * (dims + 4) * info.smallest_subnormal
        upper = estimate + slack
        finite = np.isfinite(upper).all(axis=1)
        upper.partition(k - 1, axis=1)
        estimate -= slack
        candidates = estimate <= upper[:, k - 1:k]
    candidates[~finite] = True
    return candidates


def _nearest(train, test, k):
    """The first k columns of ``argsort(cdist(test, train), kind="stable")``,
    bit for bit; ``knn_classify`` gives the argument."""
    with np.errstate(over="ignore", invalid="ignore"):
        train_sq = np.einsum("ij,ij->i", train, train)
    order = np.empty((test.shape[0], k), dtype=np.intp)
    for start in range(0, test.shape[0], NEAREST_BLOCK):
        block = test[start:start + NEAREST_BLOCK]
        for i, mask in enumerate(_candidates(train, train_sq, block, k), start):
            rows = np.flatnonzero(mask)
            dists = cdist(test[i:i + 1], train[rows])[0]
            order[i] = rows[np.argsort(dists, kind="stable")[:k]]
    return order


def knn_classify(train_features, train_labels, test_features, k):
    """Euclidean k-nearest-neighbour majority vote.

    The vote counts the codes ``np.unique`` gives the labels, so its memory
    does not grow with the largest label; ties go to the smallest label.
    The neighbours are the first k of a stable sort of ``cdist`` distances,
    so equal distances resolve to the earliest training row.  They are
    found bit for bit without the full ``cdist`` matrix: a GEMM per block
    of ``NEAREST_BLOCK`` test rows bounds every squared distance, and
    ``cdist`` re-ranks only the rows the bounds cannot rule out.

    Bound.  For a test row q and a training row t in D dimensions, let
    S = ‖q‖² + ‖t‖², d² = ‖q − t‖² ≤ 2S and u = eps/2.  The estimate
    e = ‖q‖² + ‖t‖² − 2q·t takes the row norms and q·t from BLAS in any
    summation order, each within γ_D = D·u/(1 − D·u) of S, and two more
    roundings of at most u·2S, so |e − d²| ≲ (2D + 4)·u·S.  ``cdist``
    takes the root of a sum s of D squared differences, each within γ_3,
    so |s − d²| ≤ γ_{D+2}·2S ≲ (2D + 4)·u·S.  The slack
    8·(D + 4)·eps·S = (16D + 64)·u·S covers |e − s| with room for the
    terms below, and 8·(D + 4) smallest subnormals cover products that
    underflow (each is off by at most half of one).  So
    lower = e − slack ≤ s ≤ upper = e + slack.

    Ties.  Let T be the k-th smallest upper of a test row.  At least k
    rows have s ≤ T, so the k-th smallest distance is at most fl(√T).  A
    row among the k nearest, or tied with the k-th after the rounded root,
    has fl(√s) ≤ fl(√T), hence s ≤ T·(1 + 4u) ≤ T + 8u·S: with the
    rounding of the bounds themselves, about (4D + 20)·u·S in all, which
    the slack exceeds three times over, so that row has lower ≤ T.  The
    candidates, rows with lower ≤ T, thus hold every row the full sort
    puts in the first k.  ``cdist`` gives each pair the same bits whichever
    rows it is handed, and the candidates are sorted stably in ascending
    row order, so ties break as in the full sort.  Where a bound is not
    finite (the squares overflow, as ``cdist``'s own sum then does), every
    training row is a candidate.
    """
    train = as_matrix(train_features, "train_features")
    labels = as_labels(train_labels, train.shape[0], "train_labels")
    test = as_matrix(test_features, "test_features")
    if test.shape[1] != train.shape[1]:
        raise ValueError("train and test feature dimensions differ")
    k = as_int(k, "k", 1)
    if k > train.shape[0]:
        raise ValueError(f"k must be in [1, {train.shape[0]}], got {k}")
    classes, codes = np.unique(labels, return_inverse=True)
    votes = codes[_nearest(train, test, k)]
    out = np.empty(test.shape[0], dtype=np.intp)
    for i in range(test.shape[0]):
        out[i] = np.bincount(votes[i]).argmax()
    return classes[out]


def _class_means(x, codes, n_classes):
    """(n_classes, d) means of the rows of ``x`` with each code in
    ``range(n_classes)``, each class non-empty, with the bits of
    ``x[codes == c].mean(axis=0)`` and no copy of any class's rows.

    ``members`` is a CSR matrix of ones whose row c lists class c's rows
    in ascending order, and scipy's CSR product adds them in that order
    into a zeroed row, as numpy's mean adds a class's rows into its sum,
    signed zeros included; the sums are then divided by the counts.
    """
    counts = np.bincount(codes, minlength=n_classes)
    indptr = np.zeros(n_classes + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    members = csr_array((np.ones(len(codes)), np.argsort(codes, kind="stable"), indptr),
                        shape=(n_classes, len(codes)))
    return (members @ x) / counts[:, None]


def nearest_centroid_classify(train_features, train_labels, test_features):
    """Assign each test row the label of the nearest class mean.

    The class means come from :func:`_class_means`, so beyond its inputs
    the classifier holds the means and the (test rows, classes) distances,
    never a copy of a class's training rows.
    """
    train = as_matrix(train_features, "train_features")
    labels = as_labels(train_labels, train.shape[0], "train_labels")
    test = as_matrix(test_features, "test_features")
    if test.shape[1] != train.shape[1]:
        raise ValueError("train and test feature dimensions differ")
    classes, codes = np.unique(labels, return_inverse=True)
    centroids = _class_means(train, codes, len(classes))
    nearest = cdist(test, centroids).argmin(axis=1)
    return classes[nearest]


def accuracy(predicted, truth):
    """Fraction of agreeing entries."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ValueError("predicted and truth must be non-empty 1-D arrays of equal length")
    return float(np.mean(predicted == truth))


def _comb2(values):
    values = values.astype(object)  # exact integer arithmetic
    return int(np.sum(values * (values - 1) // 2))


def adjusted_rand_index(labels_a, labels_b):
    """Adjusted Rand index between two labelings of the same items.

    Chance-corrected pair-counting agreement: (RI - E[RI]) / (max RI -
    E[RI]) computed in exact integer arithmetic up to the final division.
    Degenerate case: when both labelings are the same trivial partition
    (all one cluster, or all singletons) the correction denominator is
    zero and the value is 1.0 by convention; a single-class truth against
    any proper split comes out exactly 0.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("labelings must be non-empty 1-D arrays of equal length")
    m = a.size
    _, inv_a = np.unique(a, return_inverse=True)
    _, inv_b = np.unique(b, return_inverse=True)
    contingency = np.zeros((inv_a.max() + 1, inv_b.max() + 1), dtype=np.int64)
    np.add.at(contingency, (inv_a, inv_b), 1)
    sum_cells = _comb2(contingency)
    sum_a = _comb2(contingency.sum(axis=1))
    sum_b = _comb2(contingency.sum(axis=0))
    total = m * (m - 1) // 2
    numerator = 2 * (sum_cells * total - sum_a * sum_b)
    denominator = total * (sum_a + sum_b) - 2 * sum_a * sum_b
    if denominator == 0:
        return 1.0
    return numerator / denominator


@dataclass
class ClusteringResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    elapsed_seconds: float
    inertia_trace: np.ndarray


def _sq_dists(x, centroids):
    d = cdist(x, centroids)
    return d * d


def _seed_kmeanspp(x, n_clusters, rng):
    m = x.shape[0]
    chosen = [int(rng.integers(m))]
    d2 = _sq_dists(x, x[chosen[-1]][None, :])[:, 0]
    for _ in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(m, p=d2 / total))
        else:  # all remaining points coincide with chosen seeds
            candidates = np.setdiff1d(np.arange(m), np.array(chosen))
            nxt = int(rng.choice(candidates))
        chosen.append(nxt)
        d2 = np.minimum(d2, _sq_dists(x, x[nxt][None, :])[:, 0])
    return x[chosen].copy()


# The least number of entries in a centered block of the PCA Gram: an
# eighth of a small Gram would mean one BLAS call per row.
PCA_MIN_BLOCK = 4096


def _centered_gram(x, mean):
    """Lower triangle of the smaller Gram of X = x - mean, Fortran-ordered.

    ``dsyrk`` adds XᵀX one block of rows at a time when d <= m, XXᵀ one
    block of columns at a time otherwise.  Each block is centered into one
    C-ordered buffer of about an eighth of the Gram's entries (at least
    ``PCA_MIN_BLOCK``), and ``dsyrk`` takes its transpose, which is
    Fortran-ordered, so f2py copies nothing.
    """
    m, d = x.shape
    axis = 0 if d <= m else 1
    other = x.shape[1 - axis]
    step = max(1, max(min(m, d) ** 2 // 8, PCA_MIN_BLOCK) // other)
    gram = np.zeros((min(m, d),) * 2, order="F")
    buffer = np.empty(min(step, x.shape[axis]) * other)
    for start in range(0, x.shape[axis], step):
        index = slice(start, start + step)
        part, shift = (x[index], mean) if axis == 0 else (x[:, index], mean[index])
        block = buffer[:part.size].reshape(part.shape)
        block[...] = part
        # subtracts ``shift`` from every row with the bits of ``part - shift``;
        # numpy's broadcast subtract would allocate an iterator buffer of up
        # to 8,192 entries per operand
        dger(-1.0, shift, np.ones(len(block)), a=block.T, overwrite_a=1)
        # a (rows, d) block adds blockᵀ·block, an (m, cols) block block·blockᵀ
        dsyrk(1.0, block.T, beta=1.0, c=gram, trans=axis, lower=1, overwrite_c=1)
    return gram


def _pca_basis(x, mean, rank):
    """Leading principal directions of the rows of ``x``, as orthonormal rows.

    The top ``rank`` eigenvectors of the smaller Gram matrix of the
    centered rows X = x - mean: XᵀX when the rows are at least as many as
    the columns, otherwise XXᵀ mapped back to feature space and
    normalized.  Directions whose eigenvalue is zero (to round-off) are
    dropped, since every score along them is zero, so fewer than ``rank``
    rows may come back.

    X is never formed.  :func:`_centered_gram` adds the Gram up from
    centered blocks, and ``eigh`` takes it in place; the lift XᵀV is
    xᵀV less the mean times the column sums of V.  So the memory beyond
    ``x`` is the Gram plus one block of at most about an eighth of it.
    """
    m, d = x.shape
    small = min(m, d)
    rank = min(rank, small)
    evals, evecs = eigh(_centered_gram(x, mean), lower=True,
                        subset_by_index=(small - rank, small - 1),
                        overwrite_a=True, check_finite=False)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    evecs = evecs[:, evals > evals[0] * max(m, d) * np.finfo(np.float64).eps]
    if d <= m:
        return evecs.T
    basis = dgemm(1.0, x.T, evecs).T  # evecs.T @ x
    basis -= np.outer(evecs.sum(axis=0), mean)
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    return basis


def _seed_pca(x, n_clusters, rng):
    if n_clusters == 1:
        return _seed_kmeanspp(x, 1, rng)
    mean = x.mean(axis=0)
    basis = _pca_basis(x, mean, n_clusters - 1)
    # (x - mean)·basisᵀ as one product with x, rounded relative to x.  One
    # small product per centered block once took 120 ms against 6 ms at
    # 2,000 x 1,024 on 2 cores: a two-thread OpenBLAS call waits for a busy
    # core, and a (128 x 1,024)·(1,024 x 9) product took 0.08 ms on an idle
    # host but 10 ms beside another busy process.  x is the packed operand:
    # packing its transpose as the wide one gives the same bits, but raised
    # the features-io peak by 4.6 MB with two BLAS threads
    scores = dgemm(1.0, x.T, basis.T, trans_a=1)  # x @ basis.T, Fortran-ordered
    # for a vector numpy's ``@`` runs dgemv on the transpose, as here; a
    # one-column dgemm rounds differently and moves the seeds' last bits
    scores -= dgemv(1.0, basis.T, mean, trans=1)  # mean @ basis.T
    seeds = _seed_kmeanspp(scores, n_clusters, rng)
    return mean + dgemm(1.0, basis.T, seeds.T).T  # seeds @ basis


def kmeans(features, n_clusters, init="kmeanspp", seed=0):
    """Lloyd's algorithm with a choice of seeding strategy.

    init is one of "kmeanspp" (distance-squared weighted seeding),
    "random" (distinct data rows) or "pca" (kmeans++ seeding inside the
    span of the first n_clusters - 1 principal directions, centroids
    lifted back).  The principal directions are the top eigenvectors of
    the smaller Gram matrix of the centered features, taken with
    ``scipy.linalg.eigh(subset_by_index=...)`` instead of a full SVD;
    directions with a zero eigenvalue are dropped.  The Gram is added up
    from centered blocks, so the seeding needs the Gram plus one block of
    at most about an eighth of it, and no centered copy of the features.
    A cluster that empties is re-seeded at the point farthest from its
    assigned centroid (deterministic).  Each update takes the cluster
    means with :func:`_class_means`, so the random and kmeans++ seedings
    and every Lloyd pass hold the centroids and the (rows, clusters)
    distances beyond the features, never a copy of a cluster's rows.
    Iterates until the largest centroid shift drops below the fixed
    ``KMEANS_TOL`` (1e-6) or ``KMEANS_MAX_ITERS`` (300) passes; the
    recorded inertia trace never increases.
    """
    x = as_matrix(features, "features")
    m = x.shape[0]
    n_clusters = as_int(n_clusters, "n_clusters", 1)
    if n_clusters > m:
        raise ValueError(f"n_clusters must be in [1, {m}], got {n_clusters}")
    if init not in KMEANS_INITS:
        raise ValueError(f"init must be one of {KMEANS_INITS}, got {init!r}")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    if init == "kmeanspp":
        centroids = _seed_kmeanspp(x, n_clusters, rng)
    elif init == "random":
        centroids = x[rng.choice(m, size=n_clusters, replace=False)].copy()
    else:
        centroids = _seed_pca(x, n_clusters, rng)

    def assign(cents):
        d2 = _sq_dists(x, cents)
        labels = d2.argmin(axis=1)
        for c in range(n_clusters):  # re-seed empty clusters deterministically
            if not np.any(labels == c):
                point_d2 = d2[np.arange(m), labels]
                far = int(point_d2.argmax())
                cents[c] = x[far]
                d2[:, c] = _sq_dists(x, cents[c][None, :])[:, 0]
                labels = d2.argmin(axis=1)
        return labels, float(d2[np.arange(m), labels].sum())

    trace = []
    for _ in range(KMEANS_MAX_ITERS):
        labels, inertia = assign(centroids)
        trace.append(inertia)
        updated = _class_means(x, labels, n_clusters)
        shift = float(np.linalg.norm(updated - centroids, axis=1).max())
        centroids = updated
        if shift < KMEANS_TOL:
            break
    labels, inertia = assign(centroids)
    trace.append(inertia)
    elapsed = time.perf_counter() - started
    return ClusteringResult(
        assignments=labels,
        centroids=centroids,
        inertia=inertia,
        elapsed_seconds=elapsed,
        inertia_trace=np.asarray(trace),
    )


def timed(operation, *args, **kwargs):
    """Run ``operation(*args, **kwargs)`` and return (result, elapsed_seconds).

    Uses the monotonic high-resolution clock; report timings at millisecond
    precision.
    """
    started = time.perf_counter()
    result = operation(*args, **kwargs)
    return result, time.perf_counter() - started
