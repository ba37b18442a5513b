"""Proximity operators and the bound-constrained Newton solver used in training.

The three building blocks here are the exact minimizers of the three
subproblems the alternating trainer cycles through:

* ``update_transform`` -- ridge + log-det regularized quadratic over a
  square transform, solved in closed form through a Cholesky change of
  variable and an SVD-based log-det prox.
* ``prox_nonneg_l1`` -- scalar prox of ``beta * |z| + indicator(z >= 0)``
  against a single quadratic, used by the last-layer coefficient update.
* ``projected_newton_coeffs`` -- coefficient update for layers that are
  coupled to the layer above; decomposes into independent per-(sample,
  channel) strictly convex quadratics over the nonnegative orthant and
  solves them with an active-set projected Newton method.  The blocks of
  one channel share a Hessian banded with half-bandwidth K - 1, so each
  Newton iteration solves every unconverged block of a channel at once
  through one block-diagonal banded Cholesky solve.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

# unused, but bench/tracing.py's TRACE_POINTS look this name up on the module
from .conv import conv_same_matrix  # noqa: F401

__all__ = [
    "NumericalConditioningError",
    "NewtonSettings",
    "TransformUpdateInputs",
    "CoeffQuadratics",
    "NewtonResult",
    "prox_nonneg_l1",
    "prox_logdet_svd",
    "update_transform",
    "coeff_objective",
    "coeff_gradient",
    "projected_newton_coeffs",
]


class NumericalConditioningError(RuntimeError):
    """An inner solve hit a numerically hopeless matrix or value."""


@dataclass(frozen=True)
class NewtonSettings:
    """Knobs for the projected Newton coefficient solver."""

    max_iters: int = 50
    grad_tol: float = 1e-8
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    active_set_eps: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.active_set_eps < 0:
            raise ValueError("active_set_eps must be >= 0")


def prox_nonneg_l1(v, beta, weight):
    """Prox of ``(beta * |z| + indicator(z >= 0)) / weight`` at ``v``.

    Minimizes (weight / 2) * (z - v)^2 + beta * z over z >= 0, which has
    the one-sided soft-threshold solution max(v - beta / weight, 0).
    ``v`` may be a scalar or an array (applied entrywise).
    """
    beta = float(beta)
    weight = float(weight)
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError("beta must be finite and positive")
    if not (np.isfinite(weight) and weight > 0):
        raise ValueError("weight must be finite and positive")
    v = np.asarray(v, dtype=np.float64)
    out = np.maximum(v - beta / weight, 0.0)
    return float(out) if out.ndim == 0 else out


def prox_logdet_svd(y, lam):
    """Prox of ``-lam * sum_i log s_i(X)`` at the square matrix ``y``.

    With y = U diag(s) V^T, each singular value moves to the positive root
    of s'^2 - s s' - lam = 0, i.e. s' = (s + sqrt(s^2 + 4 lam)) / 2, and the
    singular vectors are kept.  All output singular values are >= sqrt(lam).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError(f"y must be square, got shape {y.shape}")
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lam must be finite and positive")
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
        gram = np.asarray(self.gram, dtype=np.float64)
        cross = np.asarray(self.cross, dtype=np.float64)
        anchor = np.asarray(self.anchor, dtype=np.float64)
        k = gram.shape[0] if gram.ndim == 2 else -1
        if gram.ndim != 2 or gram.shape != (k, k):
            raise ValueError(f"gram must be square, got shape {gram.shape}")
        if cross.shape != (k, k) or anchor.shape != (k, k):
            raise ValueError("gram, cross and anchor must share one square shape")
        if not np.allclose(gram, gram.T, atol=1e-10 * (1.0 + np.abs(gram).max())):
            raise ValueError("gram must be symmetric")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be finite and positive")
        if not (np.isfinite(self.gamma1) and self.gamma1 > 0):
            raise ValueError("gamma1 must be finite and positive")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "cross", cross)
        object.__setattr__(self, "anchor", anchor)


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
    u, s, vh = np.linalg.svd(y)
    s_new = 0.5 * (s + np.sqrt(s * s + 4.0 * inputs.lam))
    return scipy.linalg.solve_triangular(lower.T, (u * s_new) @ vh, lower=False)


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
        bank = np.asarray(self.bank_above, dtype=np.float64)
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


def _check_coeff_args(z, anchor, quad, beta, gamma2):
    z = np.asarray(z, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if z.shape != quad.below.shape or anchor.shape != quad.below.shape:
        raise ValueError("coefficient arrays must match the quadratic data shape")
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and >= 0")
    if not (np.isfinite(gamma2) and gamma2 > 0):
        raise ValueError("gamma2 must be finite and positive")
    return z, anchor


def coeff_objective(z, anchor, quad, beta, gamma2):
    """Smooth part of the coefficient objective, summed over all blocks.

    0.5/gamma2 * ||z - anchor||^2 + 0.5 * ||z - below||^2
    + 0.5 * ||conv(z) - above||^2 + beta * sum(z), where conv applies
    bank_above channel-wise.
    """
    z, anchor = _check_coeff_args(z, anchor, quad, beta, gamma2)
    coupled = _conv_rows(z, quad.bank_above)
    return float(
        0.5 / gamma2 * np.sum((z - anchor) ** 2)
        + 0.5 * np.sum((z - quad.below) ** 2)
        + 0.5 * np.sum((coupled - quad.above) ** 2)
        + beta * np.sum(z)
    )


def coeff_gradient(z, anchor, quad, beta, gamma2):
    """Gradient of :func:`coeff_objective` with respect to ``z``."""
    z, anchor = _check_coeff_args(z, anchor, quad, beta, gamma2)
    residual = _conv_rows(z, quad.bank_above) - quad.above
    return (
        (z - anchor) / gamma2
        + (z - quad.below)
        + _conv_rows(residual, quad.bank_above, adjoint=True)
        + beta
    )


def _conv_rows(rows, kernel, adjoint=False):
    """``conv_same`` along axis 1 of ``rows`` with ``kernel``, or its adjoint;
    a (K, C) bank convolves channel c of (M, N, C) rows with column c."""
    n = rows.shape[1]
    offset = (len(kernel) - 1) // 2
    out = np.zeros_like(rows)
    for j, tap in enumerate(kernel):
        # tap j sits on diagonal r - c = j - offset of conv_same_matrix
        shift = j - offset if adjoint else offset - j
        if shift >= 0:
            out[:, : n - shift] += tap * rows[:, shift:]
        else:
            out[:, -shift:] += tap * rows[:, : n + shift]
    return out


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

    The blocks sit end to end in one block-diagonal banded matrix; the zero
    tail of each band row keeps bands from crossing a block boundary.
    Clamped coordinates get identity rows and columns, which decouples
    them, so one banded Cholesky solve covers every block.
    """
    count, n = grad.shape
    flat_free = free.ravel()
    ab = np.tile(bands, count)
    ab[0, ~flat_free] = 1.0
    for d in range(1, bands.shape[0]):
        ab[d, :-d] *= flat_free[:-d] & flat_free[d:]
    try:
        direction = scipy.linalg.solveh_banded(
            ab, grad.ravel(), overwrite_ab=True, lower=True, check_finite=False
        )
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(
            f"coefficient Newton system is not positive definite: {exc}"
        ) from exc
    return direction.reshape(count, n)


def _newton_channel(z, anchor, below, above, kernel, beta, inv_g2, st):
    """Minimize every block (row) of one channel over z >= 0, in place on ``z``.

    Block m minimizes the strictly convex
    f(z) = inv_g2/2 ||z - anchor_m||^2 + 1/2 ||z - below_m||^2
           + 1/2 ||C z - above_m||^2 + beta * sum(z)
    with C = conv_same_matrix(kernel, N).  All blocks share the Hessian, so
    each iteration takes one Newton step for every unconverged block at
    once, with an Armijo backtracking step size per block.  Returns
    (converged, iterations): iterations is the most any block used.
    """
    bands = _hessian_bands(kernel, z.shape[1], 1.0 + inv_g2)

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
    cz = _conv_rows(zs, kernel)
    f = value(zs, cz, rows)
    converged, used = True, 0
    for it in range(st.max_iters):
        residual = _conv_rows(cz - above[rows], kernel, adjoint=True)
        grad = inv_g2 * (zs - anchor[rows]) + (zs - below[rows]) + residual + beta
        free = (zs > st.active_set_eps) | (grad < 0.0)
        # blocks that meet first-order optimality stop here; at it == 0
        # this leaves already-optimal blocks untouched
        keep = np.abs(np.where(free, grad, 0.0)).max(axis=1) > st.grad_tol
        if not keep.all():
            used = max(used, it)
        rows, zs, cz, f, grad, free = (x[keep] for x in (rows, zs, cz, f, grad, free))
        if not rows.size:
            return converged, used
        if it == 0 and not np.all(np.isfinite(f)):
            raise NumericalConditioningError("coefficient block objective is not finite")
        direction = _newton_direction(bands, grad, free)
        step = np.ones(rows.size)
        trial = np.arange(rows.size)
        stalled = np.zeros(rows.size, dtype=bool)
        new_z, new_cz, new_f = zs.copy(), cz.copy(), f.copy()
        while trial.size:
            zt = np.maximum(zs[trial] - step[trial, None] * direction[trial], 0.0)
            czt = _conv_rows(zt, kernel)
            ft = value(zt, czt, rows[trial])
            if not np.all(np.isfinite(ft)):
                raise NumericalConditioningError(
                    "coefficient line search produced a non-finite value"
                )
            decrease = np.einsum("ij,ij->i", grad[trial], zs[trial] - zt)
            ok = (ft <= f[trial] - st.armijo_c * np.maximum(decrease, 0.0)) & (ft <= f[trial])
            done = trial[ok]
            new_z[done], new_cz[done], new_f[done] = zt[ok], czt[ok], ft[ok]
            trial = trial[~ok]
            step[trial] *= st.backtrack_factor
            # direction numerically exhausted: the block keeps its iterate
            exhausted = step[trial] < 1e-14
            if exhausted.any():
                converged, used = False, max(used, it + 1)
                stalled[trial[exhausted]] = True
                trial = trial[~exhausted]
        z[rows] = new_z
        going = ~stalled
        rows, zs, cz, f = rows[going], new_z[going], new_cz[going], new_f[going]
    return False, st.max_iters


def projected_newton_coeffs(z0, quad, beta, gamma2, settings=None):
    """Solve every (sample, channel) coefficient block over the orthant.

    The coupled coefficient objective decomposes per sample m and channel k
    because the channel-wise convolution with bank_above never mixes
    channels; each block of channel k shares the Hessian
    H_k = C_k^T C_k + (1 + 1/gamma2) Id, banded with half-bandwidth K - 1
    and built once per channel from the kernel taps.  Per channel, every
    unconverged block takes its projected Newton step together: the
    blocks' free-coordinate systems sit in one block-diagonal banded matrix
    (identity on clamped coordinates) solved by a single banded Cholesky
    call, and the Armijo backtracking keeps a step size per block.
    Blocks whose start point already satisfies first-order optimality are
    left untouched.  Returns the updated (M, N, K) array plus a flag that
    is False when some block hit ``max_iters`` before reaching ``grad_tol``
    or its line search ran out of step (the best iterate is still
    returned; the line search never accepts an increase, so the objective
    never exceeds its value at ``z0``), and the most iterations any block
    used.
    """
    if not isinstance(quad, CoeffQuadratics):
        raise ValueError("quad must be a CoeffQuadratics instance")
    st = settings if settings is not None else NewtonSettings()
    if not isinstance(st, NewtonSettings):
        raise ValueError("settings must be a NewtonSettings instance")
    z0, _ = _check_coeff_args(z0, z0, quad, beta, gamma2)
    inv_g2 = 1.0 / gamma2
    out = np.maximum(z0, 0.0)
    converged = True
    iterations = 0
    for chan in range(z0.shape[2]):
        ok, used = _newton_channel(
            out[:, :, chan], z0[:, :, chan], quad.below[:, :, chan], quad.above[:, :, chan],
            quad.bank_above[:, chan], beta, inv_g2, st,
        )
        converged = converged and ok
        iterations = max(iterations, used)
    return NewtonResult(out, converged, iterations)
