"""Stacked convolutional transform model: trainer and encoder.

The model is a stack of L square kernel banks T_1 ... T_L (each (K, K),
columns are kernels) with per-sample coefficient blocks Z_1 ... Z_L (each
(N, K)).  Every layer runs one tap kernel, ``channelwise_forward``:
layer 1 convolves the raw signal with each of its kernels (the signal
broadcast to K channels, a view), and every deeper layer convolves
channel k of the previous layer's coefficients with its kernel k, never
mixing channels.

Training minimizes, over all banks and coefficients jointly,

    sum_l [ 0.5 * sum_m ||forward_l(m) - Z_{m,l}||_F^2
            + mu * ||T_l||_F^2 - lam * sum_i log s_i(T_l)
            + beta * ||Z_l||_1 ]        subject to  Z_l >= 0,

by alternating proximal block updates in the order T_1, Z_1, ..., T_L,
Z_L, each step anchored to the previous iterate, which makes the
objective trace non-increasing.  ``init_model`` and ``encode`` walk the
stack one layer at a time, each layer's coefficients the forward response
of the layer below, shrunk in place.

Coefficient stacks are (M, N, K) arrays laid out channel-major (see
:mod:`dctl.conv`), so the per-channel convolutions and Newton solves read
contiguous channels; ``encode`` writes its last layer position-major,
one block of rows at a time, straight into the (M, N K) features it
returns.
"""

from dataclasses import dataclass

import numpy as np

from .conv import channelwise_forward, toeplitz_stack, toeplitz_windows
from .data import as_int, as_matrix, as_real
# unused, but bench/tracing.py's TRACE_POINTS look this name up on the module
from .conv import conv_same_matrix  # noqa: F401
from . import prox
from .prox import (
    CoeffQuadratics,
    NumericalConditioningError,
    TransformUpdateInputs,
    projected_newton_coeffs,
    prox_nonneg_l1,
    update_transform,
)

__all__ = [
    "ModelConfig",
    "TrainedModel",
    "TrainingError",
    "init_model",
    "train",
    "encode",
]


class TrainingError(RuntimeError):
    """Training aborted; the message names the iteration, layer and step."""


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one model.

    mu weighs the ridge penalty on each bank, lam the log-det penalty
    that keeps banks invertible, beta the l1 sparsity penalty on the
    coefficients; gamma1/gamma2 are the proximal anchor weights of the
    bank/coefficient updates.  The integer fields are stored as ``int``
    and the float fields as ``float`` under the rules of
    :data:`dctl.data.REAL_RULES` (numpy numbers are accepted, bools are
    not); the seed must be non-negative.
    """

    num_layers: int = 3
    num_kernels: int = 8
    mu: float = 0.01
    lam: float = 0.01
    beta: float = 0.01
    gamma1: float = 1.0
    gamma2: float = 1.0
    max_outer_iters: int = 100
    objective_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # stored as int, since json cannot write a numpy integer to a model file
        for name, minimum in (("num_layers", 1), ("num_kernels", 1),
                              ("max_outer_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, minimum))
        for name in ("mu", "lam", "beta", "gamma1", "gamma2", "objective_tol"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))


@dataclass
class TrainedModel:
    """Trained banks plus the config, objective trace and data dimensions.

    ``training_trace`` holds one (outer_iteration, layer, objective) entry
    per layer update, preceded by a (0, 0, initial_objective) entry; the
    objective column is non-increasing.
    """

    transforms: list
    config: ModelConfig
    training_trace: list
    data_dims: tuple


def _check_data(data, config):
    arr = as_matrix(data, "data")
    if arr.shape[1] < config.num_kernels:
        raise ValueError(
            f"signal length {arr.shape[1]} is shorter than the kernel length "
            f"{config.num_kernels}"
        )
    return arr


def _forward(prev, bank, out=None):
    """(M, N, K) response of a layer to the (M, N, K) layer below, or to
    the (M, N) data, which every kernel of layer 1 reads; channel-major
    unless written to ``out``."""
    if prev.ndim == 2:
        prev = np.broadcast_to(prev[:, :, None], prev.shape + bank.shape[1:])
    return channelwise_forward(prev, bank, out=out)


def _fit(response, z):
    diff = response - z
    return 0.5 * np.sum(np.square(diff, out=diff))


def _bank_reg(bank, config):
    """mu ||T||_F^2 - lam * sum_i log s_i(T), or +inf once the bank lost rank."""
    svals = np.linalg.svd(bank, compute_uv=False)
    if svals.min() <= 0.0:
        return np.inf
    return config.mu * np.sum(bank * bank) - config.lam * np.sum(np.log(svals))


def _layer_terms(data, transforms, coeffs, config):
    """Per-layer objective terms: data fits, bank regularizers, unscaled l1
    sums, all recomputed; the terms ``train`` caches equal them bit for bit."""
    prevs = [data] + list(coeffs[:-1])
    fits = [_fit(_forward(prev, bank), z) for prev, bank, z in zip(prevs, transforms, coeffs)]
    regs = [_bank_reg(bank, config) for bank in transforms]
    l1s = [float(np.sum(np.abs(z))) for z in coeffs]
    return fits, regs, l1s


def _objective_sum(fits, regs, l1s, beta):
    """Joint objective from per-layer terms, always summed in layer order, so
    the same terms give the same bits however they were cached."""
    if np.inf in regs:
        return np.inf
    return sum(fits) + sum(regs) + beta * sum(l1s)


def _walk(data, transforms, beta, out=None):
    """The last layer's coefficients of the rows of ``data``, each layer
    ``prox_nonneg_l1(forward, beta, 1)`` of the one below.  The shrink
    overwrites the fresh response, so the layer below is the only other
    stack alive.  Every stack is channel-major except the last, which is
    written position-major to ``out`` when given (an (M, N, K) view of the
    feature rows), else to a new stack."""
    current = data
    for depth, bank in enumerate(transforms, 1):
        target = None
        if depth == len(transforms):
            target = np.empty(current.shape[:2] + bank.shape[1:]) if out is None else out
        response = _forward(current, bank, target)
        current = prox_nonneg_l1(response, beta, 1.0, out=response)
    return current


def init_model(config, data):
    """Seeded starting point: banks near the identity, coefficients feasible.

    Each bank is Id + 0.1 * R with R uniform on (-1, 1), redrawn until its
    smallest singular value is at least 0.01.  Coefficients are the
    rectified forward pass of the data through those banks (the layer
    walk at beta = 0), so they are feasible by construction.
    """
    transforms, coeffs, _ = _init_state(config, _check_data(data, config))
    return transforms, coeffs


def _init_state(config, data):
    """``init_model`` of checked ``data``, and each layer's data fit
    0.5 ||forward - coefficients||^2.  The walk at beta = 0 makes the
    coefficients max(forward, 0), so the fit is 0.5 ||min(forward, 0)||^2,
    taken before the shrink overwrites the response: the bits ``_fit``
    gives on a second forward pass, from a temporary of the same layout."""
    rng = np.random.default_rng(config.seed)
    k = config.num_kernels
    transforms = []
    for _ in range(config.num_layers):
        for _ in range(1000):
            bank = np.eye(k) + 0.1 * rng.uniform(-1.0, 1.0, size=(k, k))
            if np.linalg.svd(bank, compute_uv=False).min() >= 0.01:
                break
        else:
            raise RuntimeError("could not draw a well-conditioned initial bank")
        transforms.append(bank)
    coeffs, fits = [], []
    current = data
    for bank in transforms:
        response = _forward(current, bank)
        negative = np.minimum(response, 0.0)
        fits.append(0.5 * np.sum(np.square(negative, out=negative)))
        del negative  # not alive during the next layer's forward pass
        current = prox_nonneg_l1(response, 0.0, 1.0, out=response)
        coeffs.append(current)
    return transforms, coeffs, fits


def _transform_inputs(layer, transforms, coeffs, data, config):
    """Assemble the quadratic data for the bank update of one layer.

    Layer 1 has a single shared Gram matrix, so the subproblem is exact;
    it and the cross term are BLAS products of the data's Toeplitz stack
    viewed as one (M N, K) matrix, a copy alive only during this call.
    Deeper layers have one Gram matrix per channel, a BLAS product of one
    channel's contiguous copy of the ``toeplitz_windows`` of the
    coefficients below at a time (O(M N K) memory); those are replaced by
    a quadratic with the summed (hence dominating) curvature that touches
    the true data-fit value and gradient at the current bank, so the
    proximal step still decreases the true objective.
    """
    k = config.num_kernels
    anchor = transforms[layer]
    if layer == 0:
        m, n = data.shape
        windows = toeplitz_stack(data, k).reshape(m * n, k)
        gram = windows.T @ windows
        cross = windows.T @ coeffs[0].reshape(m * n, k)
        return TransformUpdateInputs(gram, cross, anchor, config.mu, config.lam, config.gamma1)
    prev = coeffs[layer - 1]
    curr = coeffs[layer]
    m, n, _ = prev.shape
    gram = np.zeros((k, k))
    anchored = np.empty((k, k))
    response = np.empty((k, k))
    for c in range(k):
        windows = toeplitz_windows(prev[:, :, c], k).reshape(m * n, k)
        per_channel = windows.T @ windows
        gram += per_channel
        anchored[:, c] = per_channel @ anchor[:, c]
        response[:, c] = windows.T @ curr[:, :, c].reshape(m * n)
    cross = gram @ anchor - anchored + response
    return TransformUpdateInputs(gram, cross, anchor, config.mu, config.lam, config.gamma1)


# Relative round-off allowed on the objective across one block update, which
# the exact (or majorized) proximal steps can only decrease.
DESCENT_RTOL = 1e-10


def _descended(before, fits, regs, l1s, beta, where):
    """The objective after a step, or TrainingError when the step raised it.

    The tolerance scales with the terms' magnitudes rather than the total,
    because the log-det regularizers can be negative and cancel the rest.
    """
    after = float(_objective_sum(fits, regs, l1s, beta))
    scale = sum(fits) + sum(abs(r) for r in regs) + beta * sum(l1s)
    if not (np.isfinite(after) and after <= before + DESCENT_RTOL * scale):
        raise TrainingError(f"{where}: objective rose from {before!r} to {after!r}")
    return after


def _newton_step(layer, transforms, coeffs, below, config, where):
    """Projected Newton update of an inner layer's coefficients against the
    response ``below`` and the layer above, or TrainingError."""
    quad = CoeffQuadratics(below, transforms[layer + 1], coeffs[layer + 1])
    try:
        result = projected_newton_coeffs(coeffs[layer], quad, config.beta, config.gamma2)
    except NumericalConditioningError as exc:
        raise TrainingError(f"{where}, coefficient update: {exc}") from exc
    if not result.converged:
        raise TrainingError(
            f"{where}, coefficient update: projected Newton did not converge "
            f"to grad_tol={prox._grad_tol(coeffs[layer], quad):g} "
            f"within {prox.MAX_ITERS} iterations"
        )
    return result.coeffs


def train(data, config):
    """Alternating proximal minimization of the joint objective.

    Per outer iteration and per layer (l = 1 ... L in order) the bank is
    refreshed by its closed-form proximal update and the coefficients by a
    projected Newton solve (in the last layer, which has no layer above,
    by the shrink ``prox_nonneg_l1``).  The objective is recorded after
    every layer update; training stops at ``max_outer_iters`` or once the
    relative objective decrease over one outer iteration falls below
    ``objective_tol``.  The objective is kept as cached per-layer terms,
    so each update recomputes only the terms it changed (one extra
    forward pass for the layer above) and the value equals a full
    recomputation bit for bit.  A failed bank update, a failed Newton
    solve, a Newton solve that does not converge, and a bank or
    coefficient step that raises the objective by more than
    ``DESCENT_RTOL`` relative each raise ``TrainingError`` naming the
    iteration, layer and step.
    """
    if not isinstance(config, ModelConfig):
        raise ValueError("config must be a ModelConfig instance")
    data = _check_data(data, config)
    n_layers = config.num_layers
    inv_g2 = 1.0 / config.gamma2
    # cached per-layer terms; an update to layer l changes only fit_l,
    # reg_l, l1_l and fit_{l+1}; _objective_sum fixes the summation order
    transforms, coeffs, fits = _init_state(config, data)
    regs = [_bank_reg(bank, config) for bank in transforms]
    l1s = [float(np.sum(np.abs(z))) for z in coeffs]
    value = float(_objective_sum(fits, regs, l1s, config.beta))
    trace = [(0, 0, value)]
    previous = value
    for outer in range(1, config.max_outer_iters + 1):
        for layer in range(n_layers):
            where = f"iteration {outer}, layer {layer + 1}"
            try:
                transforms[layer] = update_transform(
                    _transform_inputs(layer, transforms, coeffs, data, config)
                )
            except (NumericalConditioningError, np.linalg.LinAlgError) as exc:
                raise TrainingError(f"{where}, transform update: {exc}") from exc
            below = _forward(data if layer == 0 else coeffs[layer - 1], transforms[layer])
            fits[layer] = _fit(below, coeffs[layer])
            regs[layer] = _bank_reg(transforms[layer], config)
            value = _descended(value, fits, regs, l1s, config.beta, f"{where}, transform update")
            if layer == n_layers - 1:
                target = inv_g2 * coeffs[layer]
                target += below
                coeffs[layer] = prox_nonneg_l1(target, config.beta, 1.0, out=target)
                coeffs[layer] /= 1.0 + inv_g2
            else:
                coeffs[layer] = _newton_step(layer, transforms, coeffs, below, config, where)
                fits[layer + 1] = _fit(
                    _forward(coeffs[layer], transforms[layer + 1]), coeffs[layer + 1]
                )
            fits[layer] = _fit(below, coeffs[layer])
            del below  # not alive during the next layer's bank update
            l1s[layer] = float(np.sum(np.abs(coeffs[layer])))
            value = _descended(value, fits, regs, l1s, config.beta, f"{where}, coefficient update")
            trace.append((outer, layer + 1, value))
        if (previous - value) / max(abs(previous), 1e-12) < config.objective_tol:
            break
        previous = value
    return TrainedModel(
        transforms=[bank.copy() for bank in transforms],
        config=config,
        training_trace=trace,
        data_dims=(data.shape[0], data.shape[1]),
    )


# Bytes of one (rows, N, K) float64 stack in an ``encode`` block.  Each
# row's features depend on that row alone, so the blocks change no bit,
# and the encoder holds the result plus at most two blocks.  A block is
# capped at an eighth of the rows, so that the blocks stay a small share
# of the result for small M too.  At M=2000, N=128, K=8, L=3 on 2 cores
# (medians of 9), blocks of 32 to 128 rows (this size is 128) encode in
# 44-47 ms and blocks of 256 rows in 51 ms, against 68 ms for one block
# of every row; blocks of 8 and 16 rows take 76 and 57 ms, as the
# per-call cost of each channel's pass takes over.
ENCODE_BLOCK_BYTES = 2**20


def _encode_rows(m, n, k):
    """Rows per ``encode`` block for M signals of length N and K kernels."""
    return max(1, min(ENCODE_BLOCK_BYTES // (n * k * 8), m // 8))


def encode(model, data):
    """Deterministic out-of-sample feature map of a trained model.

    Layer by layer the incoming activation is the forward response of the
    previous layer's (rectified) coefficients, and the coefficients are the
    one-sided shrink ``prox_nonneg_l1(response, beta, 1)`` -- the exact
    minimizer of the single-block coefficient problem
    0.5 * ||response - z||^2 + beta * ||z||_1 over z >= 0.  Returns the
    flattened last-layer coefficients, one row of length N * K per sample
    (row-major over positions, channel fastest), as one C-contiguous
    (M, N K) matrix.  The layers are walked over one block of
    ``_encode_rows`` rows at a time (see ``ENCODE_BLOCK_BYTES``), and each
    block's last layer is written straight into its rows of the result,
    so the peak memory is the result plus at most two blocks at any depth
    and any M, and the bits are those of one walk over every row.
    """
    if not isinstance(model, TrainedModel):
        raise ValueError("model must be a TrainedModel instance")
    config = model.config
    data = _check_data(data, config)
    m, n = data.shape
    if n != model.data_dims[1]:
        raise ValueError(
            f"samples have length {n} but the model was trained on "
            f"length {model.data_dims[1]}"
        )
    k = model.transforms[-1].shape[1]
    features = np.empty((m, n * k))
    stack = features.reshape(m, n, k)  # a row slice of it is one block's view
    rows = _encode_rows(m, n, k)
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        _walk(data[block], model.transforms, config.beta, out=stack[block])
    return features
