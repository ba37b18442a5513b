"""Independent reference implementations used only by the tests.

Everything here is computed from first principles: definition loops,
dense grid searches, brute-force pair enumeration, or long-running
first-order methods.  None of it calls into the package, so the package
and these references can only agree when both are right.

The one exception in kind is ``projected_newton_reference``: a frozen,
plainer copy of the batched projected Newton solver that reads the
solver's line-search and active-set constants from ``dctl.prox``.  It
is not independent of the package's arithmetic; it pins the solver's
output bit for bit, so that a speed-up that changes round-off fails.
``parse_csv_reference`` and ``knn_order_reference`` are frozen copies of
the same kind: the row-wise CSV reader and the full ``cdist`` neighbour
ranking as they stood before the bulk and screened paths.
"""

import csv
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.ndimage import convolve1d, correlate1d
from scipy.spatial.distance import cdist

import dctl.prox

__all__ = [
    "conv_direct",
    "conv_matrix_direct",
    "grid_search_scalar_prox",
    "golden_section",
    "transform_objective",
    "transform_gd_oracles",
    "coeff_objective_direct",
    "coeff_pg_oracle",
    "newton_channel_reference",
    "projected_newton_reference",
    "ari_bruteforce",
    "parse_csv_reference",
    "knn_order_reference",
    "knn_reference",
    "objective_direct",
    "ctl_reference_trace",
    "fd_gradient",
    "make_blobs",
]


def conv_direct(signal, kernel):
    """Same-length true convolution, written as the definition loop.

    out[i] = sum_j kernel[j] * signal[i - j + offset] with zero padding
    and offset = floor((K - 1) / 2).
    """
    signal = np.asarray(signal, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    n, k = signal.size, kernel.size
    offset = (k - 1) // 2
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(k):
            src = i - j + offset
            if 0 <= src < n:
                acc += kernel[j] * signal[src]
        out[i] = acc
    return out


def conv_matrix_direct(kernel, n):
    """Dense matrix of the same-length convolution, column by column."""
    cols = []
    for j in range(n):
        basis = np.zeros(n)
        basis[j] = 1.0
        cols.append(conv_direct(basis, kernel))
    return np.stack(cols, axis=1)


_PROX_GRID = {}


def grid_search_scalar_prox(v, beta, weight, lo=0.0, hi=10.0, step=1e-5):
    """Dense grid argmin of (weight/2)(z - v)^2 + beta z over z in [lo, hi]."""
    key = (lo, hi, step)
    if key not in _PROX_GRID:
        count = int(round((hi - lo) / step)) + 1
        grid = lo + step * np.arange(count)
        _PROX_GRID[key] = (grid, 0.5 * grid * grid, np.empty(count), np.empty(count))
    grid, halfsq, work, work2 = _PROX_GRID[key]
    # f(z) = weight/2 z^2 + (beta - weight v) z  (+ constant)
    np.multiply(halfsq, weight, out=work)
    np.multiply(grid, beta - weight * v, out=work2)
    np.add(work, work2, out=work)
    return float(grid[work.argmin()])


def golden_section(fn, lo, hi, tol=1e-12):
    """Golden-section search for the minimizer of a unimodal function."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def transform_objective(t, gram, cross, anchor, mu, lam, gamma1):
    """Objective of the bank subproblem at the matrix ``t``."""
    return float(_transform_objectives(t[None], gram, cross, anchor, mu, lam, gamma1)[0])


def _transform_objectives(t, gram, cross, anchor, mu, lam, gamma1):
    """Objective of each matrix of the (B, k, k) stack ``t``, inf where it is
    singular; the data are one problem's or stacks of B problems' (the reals
    as (B, 1, 1) columns)."""
    svals = np.linalg.svd(t, compute_uv=False)
    regular = svals.min(axis=1) > 0.0
    log_svals = np.log(np.where(regular[:, None], svals, 1.0))
    value = (
        0.5 * np.sum(t * (gram @ t), axis=(1, 2))
        - np.sum(cross * t, axis=(1, 2))
        + np.ravel(mu) * np.sum(t * t, axis=(1, 2))
        - np.ravel(lam) * np.sum(log_svals, axis=1)
        + 0.5 / np.ravel(gamma1) * np.sum((t - anchor) ** 2, axis=(1, 2))
    )
    return np.where(regular, value, np.inf)


def transform_gd_oracles(problems, seeds, iters=10_000, n_starts=5):
    """Best bank found by monotone gradient descent from several starts, per problem.

    ``problems`` holds (gram, cross, anchor, mu, lam, gamma1) tuples of one
    size k.  Problem i starts from its anchor and from n_starts - 1 random
    well-conditioned matrices drawn with ``seeds[i]``.  Every (problem,
    start) pair runs in one stacked loop with its own adaptive step: a step
    is kept only if it decreases the objective (rejected steps shrink the
    step size), so every trajectory is monotone.  Returns one
    (best_objective, best_matrix) per problem.
    """
    k = problems[0][0].shape[0]
    starts = []
    for (_, _, anchor, *_), seed in zip(problems, seeds, strict=True):
        rng = np.random.default_rng(seed)
        mats = [anchor.copy()]
        while len(mats) < n_starts:
            cand = np.eye(k) + 0.3 * rng.standard_normal((k, k))
            if np.linalg.svd(cand, compute_uv=False).min() > 0.05:
                mats.append(cand)
        starts += mats
    # each problem's data repeated once per start, the reals as (B, 1, 1) columns
    fields = [np.array(field, dtype=np.float64) for field in zip(*problems)]
    gram, cross, anchor = (np.repeat(x, n_starts, axis=0) for x in fields[:3])
    mu, lam, gamma1 = (np.repeat(x, n_starts)[:, None, None] for x in fields[3:])
    t = np.stack(starts)
    steps = np.full(t.shape[0], 1e-2)
    f = _transform_objectives(t, gram, cross, anchor, mu, lam, gamma1)
    for _ in range(iters):
        inv_t = np.linalg.inv(t)
        grad = (
            gram @ t
            - cross
            + 2.0 * mu * t
            - lam * np.transpose(inv_t, (0, 2, 1))
            + (t - anchor) / gamma1
        )
        cand = t - steps[:, None, None] * grad
        f_cand = _transform_objectives(cand, gram, cross, anchor, mu, lam, gamma1)
        better = f_cand < f
        t = np.where(better[:, None, None], cand, t)
        f = np.where(better, f_cand, f)
        steps = np.where(better, steps * 1.2, steps * 0.5)
        steps = np.clip(steps, 1e-16, 1.0)
    f, t = f.reshape(len(problems), n_starts), t.reshape(len(problems), n_starts, k, k)
    best = np.argmin(f, axis=1)
    return [(float(f[i, j]), t[i, j]) for i, j in enumerate(best)]


def coeff_objective_direct(z, anchor, below, bank_above, above, beta, gamma2):
    """Coefficient objective summed block by block with dense matrices."""
    total = 0.0
    n = z.shape[1]
    for k in range(z.shape[2]):
        cmat = conv_matrix_direct(bank_above[:, k], n)
        for m in range(z.shape[0]):
            zz = z[m, :, k]
            total += (
                0.5 / gamma2 * np.sum((zz - anchor[m, :, k]) ** 2)
                + 0.5 * np.sum((zz - below[m, :, k]) ** 2)
                + 0.5 * np.sum((cmat @ zz - above[m, :, k]) ** 2)
                + beta * np.sum(zz)
            )
    return float(total)


def coeff_pg_oracle(z0, below, bank_above, above, beta, gamma2, iters=50_000):
    """Projected gradient reference for the coefficient update.

    Fixed step 1 / L with L the exact largest Hessian eigenvalue; the
    iteration converges to the unique minimizer of the strictly convex
    problem over the nonnegative orthant.
    """
    n, n_channels = z0.shape[1], z0.shape[2]
    mats = np.stack([conv_matrix_direct(bank_above[:, k], n) for k in range(n_channels)])
    lam_max = max(np.linalg.eigvalsh(c.T @ c).max() for c in mats)
    inv_g2 = 1.0 / gamma2
    lip = lam_max + 1.0 + inv_g2
    z = np.maximum(z0, 0.0)
    for _ in range(iters):
        resid = np.einsum("knj,mjk->mnk", mats, z) - above
        grad = (
            inv_g2 * (z - z0)
            + (z - below)
            + np.einsum("kjn,mjk->mnk", mats, resid)
            + beta
        )
        z = np.maximum(z - grad / lip, 0.0)
    return z


def _conv_rows_reference(rows, kernel, adjoint=False):
    """conv_same along axis 1 of (M, N) rows, or its adjoint, through scipy.ndimage."""
    k = kernel.shape[0]
    origin = (k - 1) // 2 - k // 2
    apply = correlate1d if adjoint else convolve1d
    return apply(rows, kernel, axis=1, mode="constant", origin=origin)


def _hessian_bands_reference(kernel, n, shift):
    """C^T C + shift * Id in LAPACK lower band storage, zero band tails."""
    k = kernel.size
    offset = (k - 1) // 2
    bands = np.zeros((k, n))
    bands[0] = shift
    for d in range(k):
        for j in range(d, k):
            bands[d, max(0, offset - j) : min(n - d, n + offset - j)] += kernel[j] * kernel[j - d]
    return bands


def _tiled_direction_reference(bands, grad, free):
    """Every block's active-set Newton direction from one tiled banded solve."""
    count, n = grad.shape
    flat_free = free.ravel()
    ab = np.tile(bands, count)
    ab[0, ~flat_free] = 1.0
    for d in range(1, bands.shape[0]):
        ab[d, :-d] *= flat_free[:-d] & flat_free[d:]
    direction = scipy.linalg.solveh_banded(
        ab, grad.ravel(), overwrite_ab=True, lower=True, check_finite=False
    )
    return direction.reshape(count, n)


def newton_channel_reference(z, anchor, below, above, kernel, beta, inv_g2, tol):
    """The frozen per-channel projected Newton loop, in place on ``z``.

    Every block of the channel takes its Newton step through the tiled
    solve, except that a block with no clamped coordinate solves with H's
    banded Cholesky factor, refactored every iteration (at K >= 3 the same
    bits as the tiled solve; at K = 2 the tiled solve is an LDL^T one).
    The line search gathers anchor/below/above rows on every use.  The
    solver's checks that raise on non-finite values are left out.  A block
    stops once no entry of its projected gradient exceeds ``tol``, or after
    ``dctl.prox.MAX_ITERS`` iterations.  Returns (converged, iterations).
    """
    bands = _hessian_bands_reference(kernel, z.shape[1], 1.0 + inv_g2)

    def sq(x):
        return np.einsum("ij,ij->i", x, x)

    def value(zs, cz, rows):
        return (
            0.5 * inv_g2 * sq(zs - anchor[rows])
            + 0.5 * sq(zs - below[rows])
            + 0.5 * sq(cz - above[rows])
            + beta * zs.sum(axis=1)
        )

    rows = np.arange(z.shape[0])
    zs = z
    cz = _conv_rows_reference(zs, kernel)
    f = value(zs, cz, rows)
    converged, used = True, 0
    for it in range(dctl.prox.MAX_ITERS):
        residual = _conv_rows_reference(cz - above[rows], kernel, adjoint=True)
        grad = inv_g2 * (zs - anchor[rows]) + (zs - below[rows]) + residual + beta
        free = (zs > dctl.prox.ACTIVE_SET_EPS) | (grad < 0.0)
        keep = np.abs(np.where(free, grad, 0.0)).max(axis=1) > tol
        if not keep.all():
            used = max(used, it)
        rows, zs, cz, f, grad, free = (x[keep] for x in (rows, zs, cz, f, grad, free))
        if not rows.size:
            return converged, used
        direction = _tiled_direction_reference(bands, grad, free)
        full = free.all(axis=1)
        if full.any():
            factor = scipy.linalg.cholesky_banded(bands, lower=True)
            direction[full] = scipy.linalg.cho_solve_banded((factor, True), grad[full].T).T
        step = np.ones(rows.size)
        trial = np.arange(rows.size)
        stalled = np.zeros(rows.size, dtype=bool)
        new_z, new_cz, new_f = zs.copy(), cz.copy(), f.copy()
        while trial.size:
            zt = np.maximum(zs[trial] - step[trial, None] * direction[trial], 0.0)
            czt = _conv_rows_reference(zt, kernel)
            ft = value(zt, czt, rows[trial])
            decrease = np.einsum("ij,ij->i", grad[trial], zs[trial] - zt)
            armijo = dctl.prox.ARMIJO_C * np.maximum(decrease, 0.0)
            ok = (ft <= f[trial] - armijo) & (ft <= f[trial])
            done = trial[ok]
            new_z[done], new_cz[done], new_f[done] = zt[ok], czt[ok], ft[ok]
            trial = trial[~ok]
            step[trial] *= dctl.prox.BACKTRACK_FACTOR
            exhausted = step[trial] < 1e-14
            if exhausted.any():
                converged, used = False, max(used, it + 1)
                stalled[trial[exhausted]] = True
                trial = trial[~exhausted]
        z[rows] = new_z
        going = ~stalled
        rows, zs, cz, f = rows[going], new_z[going], new_cz[going], new_f[going]
    return False, dctl.prox.MAX_ITERS


def projected_newton_reference(z0, below, bank_above, above, beta, gamma2):
    """Run :func:`newton_channel_reference` on every channel of an (M, N, K)
    coefficient update, as the solver drives its own per-channel loop, to
    ``dctl.prox.GRAD_TOL`` times the largest of 1 and every |entry| of
    ``z0``, ``below`` and ``above``.

    Returns (coeffs, converged, iterations).
    """
    scale = max(1.0, np.abs(z0).max(), np.abs(below).max(), np.abs(above).max())
    tol = dctl.prox.GRAD_TOL * scale
    inv_g2 = 1.0 / gamma2
    out = np.maximum(z0, 0.0)
    converged, iterations = True, 0
    for chan in range(z0.shape[2]):
        ok, used = newton_channel_reference(
            out[:, :, chan], z0[:, :, chan], below[:, :, chan], above[:, :, chan],
            bank_above[:, chan], beta, inv_g2, tol,
        )
        converged = converged and ok
        iterations = max(iterations, used)
    return out, converged, iterations


def parse_csv_reference(path, error=ValueError):
    """The CSV reader as it stood before the bulk path, raising ``error``.

    ``csv.reader`` splits the records and each row is converted with one
    ``np.array(row, dtype=np.float64)`` call; a row that fails is re-read
    cell by cell, to skip a leading header or to name the first bad cell.
    """
    rows = []
    width = None
    header_skipped = False
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                values = np.array(row, dtype=np.float64)
                clean = bool(np.isfinite(values).all())
            except ValueError:
                clean = False
            if not clean:
                values = []
                for col_no, cell in enumerate(row, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        if not rows and not header_skipped and col_no == 1:
                            header_skipped = True
                            values = None
                            break
                        raise error(
                            f"{path}: row {line_no}, column {col_no}: "
                            f"could not parse {cell.strip()!r} as a number"
                        ) from None
                    if not math.isfinite(value):
                        raise error(
                            f"{path}: row {line_no}, column {col_no}: non-finite value"
                        )
                    values.append(value)
                if values is None:
                    continue
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise error(
                    f"{path}: row {line_no}: expected {width} columns, found {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise error(f"{path}: no data rows")
    return np.stack(rows)


def knn_order_reference(train, test, k):
    """The k nearest training rows per test row: a stable sort of the full
    ``cdist`` matrix, so equal distances go to the earliest row."""
    return np.argsort(cdist(test, train), axis=1, kind="stable")[:, :k]


def knn_reference(train, labels, test, k):
    """Majority vote over :func:`knn_order_reference`; a tied vote goes to
    the smallest label."""
    votes = np.asarray(labels)[knn_order_reference(train, test, k)]
    return np.array([np.bincount(row).argmax() for row in votes], dtype=np.int64)


def ari_bruteforce(labels_a, labels_b):
    """Adjusted Rand index by enumerating every pair, in exact arithmetic."""
    a = list(labels_a)
    b = list(labels_b)
    assert len(a) == len(b)
    n11 = n10 = n01 = n00 = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    numerator = Fraction(2 * (n11 * n00 - n10 * n01))
    denominator = Fraction((n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00))
    if denominator == 0:
        return 1.0
    return float(numerator / denominator)


def objective_direct(data, transforms, coeffs, mu, lam, beta):
    """Joint training objective recomputed term by term from definitions."""
    total = 0.0
    n_channels = transforms[0].shape[0]
    for layer, (bank, z) in enumerate(zip(transforms, coeffs)):
        for m in range(data.shape[0]):
            cols = []
            for k in range(n_channels):
                source = data[m] if layer == 0 else coeffs[layer - 1][m][:, k]
                cols.append(conv_direct(source, bank[:, k]))
            response = np.stack(cols, axis=1)
            total += 0.5 * np.sum((response - z[m]) ** 2)
        svals = np.linalg.svd(bank, compute_uv=False)
        if svals.min() <= 0.0 or np.any(z < 0):
            return np.inf
        total += mu * np.sum(bank * bank) - lam * np.sum(np.log(svals))
        total += beta * np.sum(np.abs(z))
    return float(total)


def ctl_reference_trace(data, num_kernels, mu, lam, beta, gamma1, gamma2,
                        seed, iterations):
    """Single-layer trainer written straight from the update formulas.

    Mirrors the initialization protocol (identity plus 0.1-scaled uniform
    noise redrawn while the smallest singular value is below 0.01, then
    rectified forward coefficients) and runs a fixed number of bank /
    coefficient updates, returning the objective after the init and after
    every iteration.
    """
    data = np.asarray(data, dtype=np.float64)
    m_count, n = data.shape
    k = num_kernels
    xmats = np.stack([
        np.stack([conv_direct(row, col) for col in np.eye(k).T], axis=1)
        for row in data
    ])

    rng = np.random.default_rng(seed)
    while True:
        t = np.eye(k) + 0.1 * rng.uniform(-1.0, 1.0, size=(k, k))
        if np.linalg.svd(t, compute_uv=False).min() >= 0.01:
            break
    z = np.maximum(np.einsum("mnj,jk->mnk", xmats, t), 0.0)

    def objective(bank, coeffs):
        fit = 0.5 * np.sum((np.einsum("mnj,jk->mnk", xmats, bank) - coeffs) ** 2)
        svals = np.linalg.svd(bank, compute_uv=False)
        return float(
            fit + mu * np.sum(bank * bank) - lam * np.sum(np.log(svals))
            + beta * np.sum(np.abs(coeffs))
        )

    trace = [objective(t, z)]
    inv_g2 = 1.0 / gamma2
    eye = np.eye(k)
    for _ in range(iterations):
        gram = sum(x.T @ x for x in xmats)
        cross = sum(xmats[i].T @ z[i] for i in range(m_count))
        w = gram + (1.0 / gamma1 + 2.0 * mu) * eye
        lower = np.linalg.cholesky(w)
        g = cross + t / gamma1
        y = np.linalg.solve(lower, g)
        u, s, vh = np.linalg.svd(y)
        s_new = 0.5 * (s + np.sqrt(s * s + 4.0 * lam))
        t = np.linalg.solve(lower.T, (u * s_new) @ vh)
        response = np.einsum("mnj,jk->mnk", xmats, t)
        z = np.maximum((inv_g2 * z + response - beta) / (1.0 + inv_g2), 0.0)
        trace.append(objective(t, z))
    return trace


def fd_gradient(fn, x, step=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + step
        f_plus = fn(x)
        flat_x[i] = original - step
        f_minus = fn(x)
        flat_x[i] = original
        flat_g[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def make_blobs(per_cluster, centers, sigma, seed=0):
    """Isotropic Gaussian blobs around the given centers, with labels."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    points = []
    labels = []
    for i, center in enumerate(centers):
        points.append(center + sigma * rng.standard_normal((per_cluster, centers.shape[1])))
        labels.append(np.full(per_cluster, i, dtype=np.int64))
    return np.vstack(points), np.concatenate(labels)


def pca_seeds_svd(x, n_clusters, rng, seed_scores):
    """PCA k-means seeds from a full thin SVD of the centered rows.

    Keeps the first n_clusters - 1 right singular vectors, zero singular
    values included, seeds inside their span with ``seed_scores`` and
    lifts the seeds back to feature space.
    """
    mean = x.mean(axis=0)
    centered = x - mean
    _, _, vh = np.linalg.svd(centered, full_matrices=False)
    basis = vh[:n_clusters - 1]
    return mean + seed_scores(centered @ basis.T, n_clusters, rng) @ basis
