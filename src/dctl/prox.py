"""Proximity operators and the bound-constrained Newton solver used in training.

The three building blocks here are the exact minimizers of the three
subproblems the alternating trainer cycles through:

* ``update_transform`` -- ridge + log-det regularized quadratic over a
  square transform, solved in closed form through a Cholesky change of
  variable and an SVD-based log-det prox.
* ``prox_nonneg_l1`` -- scalar prox of ``beta * |z| + indicator(z >= 0)``
  against a single quadratic, used by the last-layer coefficient update
  and by the encoder.
* ``projected_newton_coeffs`` -- coefficient update for layers that are
  coupled to the layer above; decomposes into independent per-(sample,
  channel) strictly convex quadratics over the nonnegative orthant and
  solves them with an active-set projected Newton method.  The blocks of
  one channel share a Hessian H banded with half-bandwidth K - 1.  Each
  Newton iteration solves every unconverged block of a channel at once:
  blocks with no clamped coordinate, at every K, through one multi-RHS
  solve with H's banded Cholesky factor, taken once per channel, and only
  blocks with a clamped coordinate through one block-diagonal banded
  solve of their free-coordinate systems.  The solver takes no settings:
  its iteration cap, line search and active set are module constants,
  and its stopping tolerance scales with the largest entry of its inputs.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

# the training tap kernel: same-length convolution along axis 1, or its adjoint
from .conv import channel_major
from .conv import channelwise_forward as _conv_rows
# unused, but bench/tracing.py's TRACE_POINTS look this name up on the module
from .conv import conv_same_matrix  # noqa: F401
from .data import as_matrix, as_real

__all__ = [
    "NumericalConditioningError",
    "TransformUpdateInputs",
    "CoeffQuadratics",
    "NewtonResult",
    "prox_nonneg_l1",
    "prox_logdet_svd",
    "update_transform",
    "projected_newton_coeffs",
]


class NumericalConditioningError(RuntimeError):
    """An inner solve hit a numerically hopeless matrix or value."""


# the Newton solve's Armijo constant, backtracking factor and active-set
# threshold, its iteration cap, and its gradient tolerance at unit scale
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
ACTIVE_SET_EPS = 1e-10
MAX_ITERS = 50
GRAD_TOL = 1e-8


def prox_nonneg_l1(v, beta, weight, out=None):
    """Prox of ``(beta * |z| + indicator(z >= 0)) / weight`` at ``v``.

    Minimizes (weight / 2) * (z - v)^2 + beta * z over z >= 0, which has
    the one-sided soft-threshold solution max(v - beta / weight, 0).
    At ``beta == 0``, which ``ModelConfig`` allows, it is the projection
    max(v, 0).  ``v`` may be a scalar or an array (applied entrywise);
    an array ``out``, which may be ``v`` itself, receives the result with
    the same bits and no temporary.
    """
    beta = as_real(beta, "beta")
    weight = as_real(weight, "weight")
    v = np.asarray(v, dtype=np.float64)
    out = np.maximum(np.subtract(v, beta / weight, out=out), 0.0, out=out)
    return float(out) if out.ndim == 0 else out


def prox_logdet_svd(y, lam):
    """Prox of ``-lam * sum_i log s_i(X)`` at the square matrix ``y``.

    With y = U diag(s) V^T, each singular value moves to the positive root
    of s'^2 - s s' - lam = 0, i.e. s' = (s + sqrt(s^2 + 4 lam)) / 2, and the
    singular vectors are kept.  All output singular values are >= sqrt(lam).
    """
    y = as_matrix(y, "y")
    if y.shape[0] != y.shape[1]:
        raise ValueError(f"y must be square, got shape {y.shape}")
    lam = as_real(lam, "lam")
    u, s, vh = np.linalg.svd(y)
    s_new = 0.5 * (s + np.sqrt(s * s + 4.0 * lam))
    return (u * s_new) @ vh


@dataclass(frozen=True)
class TransformUpdateInputs:
    """Data defining one transform subproblem.

    The objective minimized is

        0.5 * tr(T' gram T) - tr(cross' T) + mu * ||T||_F^2
        - lam * sum_i log s_i(T) + (1 / (2 gamma1)) * ||T - anchor||_F^2

    where ``gram`` is the summed Gram matrix of the layer inputs and
    ``cross`` the summed input-output cross matrix.
    """

    gram: np.ndarray
    cross: np.ndarray
    anchor: np.ndarray
    mu: float
    lam: float
    gamma1: float

    def __post_init__(self):
        for name in ("gram", "cross", "anchor"):
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        for name in ("mu", "lam", "gamma1"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        gram = self.gram
        k = gram.shape[0]
        if gram.shape != (k, k):
            raise ValueError(f"gram must be square, got shape {gram.shape}")
        if self.cross.shape != (k, k) or self.anchor.shape != (k, k):
            raise ValueError("gram, cross and anchor must share one square shape")
        if not np.allclose(gram, gram.T, atol=1e-10 * (1.0 + np.abs(gram).max())):
            raise ValueError("gram must be symmetric")


def _cholesky_with_jitter(w):
    """Lower factor L with L L^T = w, adding diagonal jitter on failure."""
    k = w.shape[0]
    jitter = 1e-10 * np.trace(w) / k
    if jitter <= 0:
        jitter = 1e-10
    for attempt in range(4):
        try:
            lower = np.linalg.cholesky(w + (attempt * jitter) * np.eye(k))
        except np.linalg.LinAlgError:
            continue
        return lower
    raise NumericalConditioningError(
        "transform update: regularized gram matrix is not positive definite"
    )


def update_transform(inputs):
    """Closed-form global minimizer of the transform subproblem.

    Steps: W = gram + (1/gamma1 + 2 mu) Id is factored as W = L L^T; the
    change of variable S = L^T T turns the quadratic part into
    0.5 * ||S - Y||_F^2 with Y = L^{-1} (cross + anchor / gamma1) while the
    log-det term only shifts by a constant, so S is the SVD log-det prox of
    Y and T = L^{-T} S.  The result satisfies the stationarity equation
    W T - (cross + anchor / gamma1) - lam * T^{-T} = 0 and has all singular
    values strictly positive.
    """
    if not isinstance(inputs, TransformUpdateInputs):
        raise ValueError("inputs must be a TransformUpdateInputs instance")
    k = inputs.gram.shape[0]
    w = inputs.gram + (1.0 / inputs.gamma1 + 2.0 * inputs.mu) * np.eye(k)
    lower = _cholesky_with_jitter(w)
    g = inputs.cross + inputs.anchor / inputs.gamma1
    y = scipy.linalg.solve_triangular(lower, g, lower=True)
    return scipy.linalg.solve_triangular(lower.T, prox_logdet_svd(y, inputs.lam), lower=False)


@dataclass(frozen=True)
class CoeffQuadratics:
    """Quadratic data for one coefficient update, all of shape (M, N, K).

    ``below`` is the forward response of the previous layer through the
    current bank (the target the coefficients should match), ``bank_above``
    the (K, K) kernel bank of the next layer, and ``above`` the next
    layer's coefficients that the convolved output should reproduce.
    """

    below: np.ndarray
    bank_above: np.ndarray
    above: np.ndarray

    def __post_init__(self):
        below = np.asarray(self.below, dtype=np.float64)
        bank = as_matrix(self.bank_above, "bank_above")
        above = np.asarray(self.above, dtype=np.float64)
        if below.ndim != 3:
            raise ValueError(f"below must be (M, N, K), got shape {below.shape}")
        k = below.shape[2]
        if bank.shape != (k, k):
            raise ValueError(f"bank_above must be ({k}, {k}), got shape {bank.shape}")
        if above.shape != below.shape:
            raise ValueError("above must have the same shape as below")
        if below.shape[1] < k:
            raise ValueError("signal length must be >= kernel count")
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "bank_above", bank)
        object.__setattr__(self, "above", above)


class NewtonResult(NamedTuple):
    coeffs: np.ndarray
    converged: bool
    iterations: int


def _hessian_bands(kernel, n, shift):
    """C^T C + shift * Id for C = conv_same_matrix(kernel, n), in lower band storage.

    Row d holds the d-th subdiagonal, bands[d, p] = H[p + d, p], and is zero
    for p >= n - d.  H[p, p + d] sums kernel[j] * kernel[j - d] over the
    taps j whose output row j + p - offset lies inside [0, n).
    """
    k = kernel.size
    offset = (k - 1) // 2
    bands = np.zeros((k, n))
    bands[0] = shift
    for d in range(k):
        for j in range(d, k):
            bands[d, max(0, offset - j) : min(n - d, n + offset - j)] += kernel[j] * kernel[j - d]
    return bands


def _newton_direction(bands, grad, free):
    """H_FF^{-1} g_F on the free coordinates and g_C on the clamped ones, per block.

    The solver sends only blocks with a clamped coordinate here.  They sit
    end to end in one block-diagonal banded matrix; the zero tail of each
    band row keeps bands from crossing a block boundary.  Clamped coordinates get
    identity rows and columns, which decouples them, so one banded solve
    covers every block.
    """
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


def _free_direction(factor, grad):
    """H^{-1} g for every block (row) of ``grad``, from H's banded Cholesky factor.

    One multi-RHS ``cho_solve_banded`` call.  For a block with no clamped
    coordinate this gives the bits of :func:`_newton_direction` at K >= 3:
    the tiled factor of such a block is H's factor, and both solves run the
    same LAPACK banded substitutions column by column (at K = 2 the tiled
    solve is an LDL^T one, equal to round-off).
    """
    return scipy.linalg.cho_solve_banded((factor, True), grad.T, check_finite=False).T


def _sq(x):
    return np.einsum("ij,ij->i", x, x)


def _block_values(zs, cz, a, b, c, beta, inv_g2):
    """Objective of every block (row) of one channel, given cz = C zs.

    f(z) = inv_g2/2 ||z - a||^2 + 1/2 ||z - b||^2 + 1/2 ||C z - c||^2
           + beta * sum(z), for the block's anchor, below and above rows.
    """
    return (
        0.5 * inv_g2 * _sq(zs - a)
        + 0.5 * _sq(zs - b)
        + 0.5 * _sq(cz - c)
        + beta * zs.sum(axis=1)
    )


def _block_gradient(zs, cz, a, b, c, kernel, beta, inv_g2):
    """Gradient of :func:`_block_values` for every block (row), given cz = C zs."""
    residual = _conv_rows(cz - c, kernel, adjoint=True)
    return inv_g2 * (zs - a) + (zs - b) + residual + beta


def _newton_channel(z, anchor, below, above, kernel, beta, inv_g2, tol):
    """Minimize every block (row) of one channel over z >= 0, in place on ``z``.

    Block m minimizes the strictly convex :func:`_block_values` with the
    anchor, below and above rows m.  All blocks share the Hessian H,
    so each iteration takes one Newton step for every unconverged block at
    once.  The Armijo backtracking tries one step size per round on every
    block not yet accepted, halving it each round.  A block stops once no
    entry of its projected gradient exceeds ``tol``, or once an iteration
    leaves its value no lower in float64: its accepted step no longer
    lowers it, which counts as converged, or the step size fell below
    1e-14 with no accepted step, a stall that keeps the iterate and makes
    the result unconverged.  Blocks with no clamped coordinate solve with
    one banded Cholesky factor of H, taken before the first iteration; only
    blocks with a clamped coordinate go through the tiled solve of
    :func:`_newton_direction`.  Returns (converged, iterations):
    iterations is the most any block used.
    """
    bands = _hessian_bands(kernel, z.shape[1], 1.0 + inv_g2)
    factor = scipy.linalg.cholesky_banded(bands, lower=True, check_finite=False)

    # the active blocks: rows of z, their anchor/below/above rows, iterates,
    # responses C z and values, all filtered together when a block stops;
    # a channel of a channel-major stack is contiguous and read in place,
    # one of a position-major stack is strided and copied
    rows = np.arange(z.shape[0])
    zs, a, b, c = (np.ascontiguousarray(x) for x in (z, anchor, below, above))
    cz = _conv_rows(zs, kernel)
    f = _block_values(zs, cz, a, b, c, beta, inv_g2)
    if not np.all(np.isfinite(f)):
        raise NumericalConditioningError("coefficient block objective is not finite")
    converged, used = True, 0
    for it in range(MAX_ITERS):
        grad = _block_gradient(zs, cz, a, b, c, kernel, beta, inv_g2)
        free = (zs > ACTIVE_SET_EPS) | (grad < 0.0)
        # blocks that meet first-order optimality stop here; at it == 0
        # this leaves already-optimal blocks untouched
        keep = np.abs(np.where(free, grad, 0.0)).max(axis=1) > tol
        if not keep.all():
            used = max(used, it)
            rows, zs, cz, f, grad, free, a, b, c = (
                x[keep] for x in (rows, zs, cz, f, grad, free, a, b, c)
            )
        if not rows.size:
            return converged, used
        full = free.all(axis=1)
        if full.all():
            direction = _free_direction(factor, grad)
        else:
            direction = np.empty_like(grad)
            if full.any():
                direction[full] = _free_direction(factor, grad[full])
            part = ~full
            direction[part] = _newton_direction(bands, grad[part], free[part])
        before = f.copy()
        step = 1.0
        trial = np.arange(rows.size)
        while trial.size:
            if step < 1e-14:
                # direction numerically exhausted: these blocks keep their iterates
                converged = False
                break
            # while every block is on trial, index with views, not copies
            whole = trial.size == rows.size
            sel = slice(None) if whole else trial
            zt = np.maximum(zs[sel] - step * direction[sel], 0.0)
            czt = _conv_rows(zt, kernel)
            ft = _block_values(zt, czt, a[sel], b[sel], c[sel], beta, inv_g2)
            if not np.all(np.isfinite(ft)):
                raise NumericalConditioningError(
                    "coefficient line search produced a non-finite value"
                )
            decrease = np.einsum("ij,ij->i", grad[sel], zs[sel] - zt)
            ok = (ft <= f[sel] - ARMIJO_C * np.maximum(decrease, 0.0)) & (ft <= f[sel])
            if whole and ok.all():
                # every block accepts this step: the trial arrays are the new iterates
                zs, cz, f = zt, czt, ft
                break
            done = trial[ok]
            zs[done], cz[done], f[done] = zt[ok], czt[ok], ft[ok]
            trial = trial[~ok]
            step *= BACKTRACK_FACTOR
        z[rows] = zs
        # a block whose value did not fall, stalled or at float64's floor, stops
        fell = f < before
        if not fell.all():
            used = max(used, it + 1)
            rows, zs, cz, f, a, b, c = (x[fell] for x in (rows, zs, cz, f, a, b, c))
    return False, MAX_ITERS


def _grad_tol(z0, quad):
    """The Newton stop: ``GRAD_TOL`` times the largest of 1 and every |entry|
    of ``z0``, ``quad.below`` and ``quad.above``, found without a full-size
    temporary; NumericalConditioningError when an entry is not finite."""
    scale = np.max([(x.max(initial=1.0), -x.min(initial=-1.0))
                    for x in (z0, quad.below, quad.above)])
    if not np.isfinite(scale):
        raise NumericalConditioningError("coefficient data is not finite")
    return GRAD_TOL * float(scale)


def projected_newton_coeffs(z0, quad, beta, gamma2):
    """Solve every (sample, channel) coefficient block over the orthant.

    The coupled coefficient objective decomposes per sample m and channel k
    because the channel-wise convolution with bank_above never mixes
    channels; each block of channel k shares the Hessian
    H_k = C_k^T C_k + (1 + 1/gamma2) Id, banded with half-bandwidth K - 1
    and built once per channel from the kernel taps, and every unconverged
    block of a channel takes its projected Newton step together (see
    :func:`_newton_channel`).  It takes no settings.  A block stops once
    every entry of its projected gradient is at most ``GRAD_TOL`` (1e-8)
    times the inputs' scale, the largest of 1 and every |entry| of ``z0``,
    ``quad.below`` and ``quad.above``, so data of any magnitude meets the
    stop.  A block also stops, as converged, once its accepted step no
    longer lowers its value in float64, where round-off keeps its gradient
    above the stop.  The cap is ``MAX_ITERS`` (50) iterations, and the
    Armijo constant ``ARMIJO_C``, backtracking factor ``BACKTRACK_FACTOR``
    and active-set threshold ``ACTIVE_SET_EPS`` are fixed too.  Blocks
    whose start point already meets the stop are left untouched.  Returns
    the updated (M, N, K) array, channel-major (see
    :func:`dctl.conv.channel_major`) so that each channel's solve writes
    one contiguous block, plus a flag that is False when some block hit
    the cap before the stop or its line search ran out of step (the best
    iterate is still returned; the line search never accepts an increase,
    so the objective never exceeds its value at ``z0``), and the most
    iterations any block used.  A LAPACK failure of a banded factor or
    solve raises NumericalConditioningError.
    """
    if not isinstance(quad, CoeffQuadratics):
        raise ValueError("quad must be a CoeffQuadratics instance")
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != quad.below.shape:
        raise ValueError("z0 must match the quadratic data shape")
    beta = as_real(beta, "beta")
    inv_g2 = 1.0 / as_real(gamma2, "gamma2")
    tol = _grad_tol(z0, quad)
    out = np.maximum(z0, 0.0, out=channel_major(*z0.shape))
    converged = True
    iterations = 0
    try:
        for chan in range(z0.shape[2]):
            ok, used = _newton_channel(
                out[:, :, chan], z0[:, :, chan], quad.below[:, :, chan],
                quad.above[:, :, chan], quad.bank_above[:, chan], beta, inv_g2, tol,
            )
            converged = converged and ok
            iterations = max(iterations, used)
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(
            f"coefficient Newton system is not positive definite: {exc}"
        ) from exc
    return NewtonResult(out, converged, iterations)
