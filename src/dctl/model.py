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
contiguous channels; ``encode`` writes its last layer position-major so
that the (M, N K) features it returns are a view of it.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .conv import channelwise_forward, toeplitz_stack, toeplitz_windows
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


def _int_field(config, name, minimum):
    """Store field ``name`` of the frozen dataclass ``config`` as an ``int``
    of at least ``minimum``, or raise ValueError naming it.  Numpy integers
    are taken; bools and non-integers are refused, because ``True == 1``
    and ``2.5 >= 1`` would pass a value check, and ``json`` cannot write a
    numpy integer into a model file."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    object.__setattr__(config, name, int(value))


def _float_field(config, name, ok, rule):
    """The float twin of ``_int_field``: store any real but a bool as a
    ``float`` for which ``ok`` holds, or raise "<name> must <rule>"."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not ok(value):
        raise ValueError(f"{name} must {rule}")
    object.__setattr__(config, name, value)


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one model.

    mu weighs the ridge penalty on each bank, lam the log-det penalty
    that keeps banks invertible, beta the l1 sparsity penalty on the
    coefficients; gamma1/gamma2 are the proximal anchor weights of the
    bank/coefficient updates.  The integer fields are stored as ``int``
    and the float fields as ``float`` (numpy numbers are accepted, bools
    are not); the seed must be non-negative.
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
        _int_field(self, "num_layers", 1)
        _int_field(self, "num_kernels", 1)
        _int_field(self, "max_outer_iters", 1)
        _int_field(self, "seed", 0)
        _float_field(self, "mu", lambda v: np.isfinite(v) and v >= 0, "be finite and >= 0")
        _float_field(self, "lam", lambda v: np.isfinite(v) and v > 0, "be finite and positive")
        _float_field(self, "beta", lambda v: np.isfinite(v) and v >= 0, "be finite and >= 0")
        _float_field(self, "gamma1", lambda v: np.isfinite(v) and v > 0, "be finite and positive")
        _float_field(self, "gamma2", lambda v: np.isfinite(v) and v > 0, "be finite and positive")
        _float_field(self, "objective_tol", lambda v: v >= 0, "be >= 0")


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
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"data must be a non-empty (M, N) array, got shape {arr.shape}")
    if arr.shape[1] < config.num_kernels:
        raise ValueError(
            f"signal length {arr.shape[1]} is shorter than the kernel length "
            f"{config.num_kernels}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("data contains non-finite values")
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
    """Per-layer objective terms: data fits, bank regularizers, unscaled l1 sums."""
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


def _walk(data, transforms, beta, features=False):
    """Yield each layer's coefficients ``prox_nonneg_l1(forward, beta, 1)``
    in layer order; the shrink overwrites the fresh response, so the layer
    below is the only other stack alive.  Every stack is channel-major
    except, with ``features``, the last, which is position-major so that
    its (M, N K) feature rows are a view of it."""
    current = data
    for depth, bank in enumerate(transforms, 1):
        out = None
        if features and depth == len(transforms):
            out = np.empty(current.shape[:2] + bank.shape[1:])
        response = _forward(current, bank, out)
        current = prox_nonneg_l1(response, beta, 1.0, out=response)
        yield current


def init_model(config, data):
    """Seeded starting point: banks near the identity, coefficients feasible.

    Each bank is Id + 0.1 * R with R uniform on (-1, 1), redrawn until its
    smallest singular value is at least 0.01.  Coefficients are the
    rectified forward pass of the data through those banks (the layer
    walk at beta = 0), so they are feasible by construction.
    """
    data = _check_data(data, config)
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
    return transforms, list(_walk(data, transforms, 0.0))


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
    transforms, coeffs = init_model(config, data)
    # cached per-layer terms; an update to layer l changes only fit_l,
    # reg_l, l1_l and fit_{l+1}; _objective_sum fixes the summation order
    fits, regs, l1s = _layer_terms(data, transforms, coeffs, config)
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


def encode(model, data):
    """Deterministic out-of-sample feature map of a trained model.

    Layer by layer the incoming activation is the forward response of the
    previous layer's (rectified) coefficients, and the coefficients are the
    one-sided shrink ``prox_nonneg_l1(response, beta, 1)`` -- the exact
    minimizer of the single-block coefficient problem
    0.5 * ||response - z||^2 + beta * ||z||_1 over z >= 0.  Returns the
    flattened last-layer coefficients, one row of length N * K per sample
    (row-major over positions, channel fastest), a C-contiguous view of
    the last layer, which alone is written position-major.  Only one
    layer's stack is kept at a time and each shrink overwrites its
    response, so the peak memory is about twice the result at any depth.
    """
    if not isinstance(model, TrainedModel):
        raise ValueError("model must be a TrainedModel instance")
    config = model.config
    data = _check_data(data, config)
    if data.shape[1] != model.data_dims[1]:
        raise ValueError(
            f"samples have length {data.shape[1]} but the model was trained on "
            f"length {model.data_dims[1]}"
        )
    for last in _walk(data, model.transforms, config.beta, features=True):
        pass
    return last.reshape(data.shape[0], -1)
