"""Stacked convolutional transform model: objective, trainer, encoder.

The model is a stack of L square kernel banks T_1 ... T_L (each (K, K),
columns are kernels) with per-sample coefficient blocks Z_1 ... Z_L (each
(N, K)).  Layer 1 responds to the raw signal through its Toeplitz view
(column k of the response is kernel k convolved with the signal); every
deeper layer convolves channel k of the previous layer's coefficients
with its kernel k, never mixing channels.

Training minimizes, over all banks and coefficients jointly,

    sum_l [ 0.5 * sum_m ||forward_l(m) - Z_{m,l}||_F^2
            + mu * ||T_l||_F^2 - lam * sum_i log s_i(T_l)
            + beta * ||Z_l||_1 ]        subject to  Z_l >= 0,

by alternating proximal block updates in the order T_1, Z_1, ..., T_L,
Z_L, each step anchored to the previous iterate, which makes the
objective trace non-increasing.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conv import conv_same_matrix, toeplitz_stack
from .prox import (
    CoeffQuadratics,
    NewtonSettings,
    NumericalConditioningError,
    TransformUpdateInputs,
    projected_newton_coeffs,
    update_transform,
)

__all__ = [
    "ModelConfig",
    "TrainedModel",
    "TrainingError",
    "objective",
    "init_model",
    "layer_forward",
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
    bank/coefficient updates.
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
    newton: NewtonSettings = field(default_factory=NewtonSettings)

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.num_kernels < 1:
            raise ValueError("num_kernels must be >= 1")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")
        # lam == 0 is allowed so the objective can be evaluated without the
        # log-det term; training itself needs lam > 0 and rejects 0 later.
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and >= 0")
        if not (np.isfinite(self.gamma1) and self.gamma1 > 0):
            raise ValueError("gamma1 must be finite and positive")
        if not (np.isfinite(self.gamma2) and self.gamma2 > 0):
            raise ValueError("gamma2 must be finite and positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.objective_tol < 0:
            raise ValueError("objective_tol must be >= 0")
        if not isinstance(self.newton, NewtonSettings):
            raise ValueError("newton must be a NewtonSettings instance")


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


def _forward_first(toep, bank):
    # (M, N, J) Toeplitz views times (J, K) bank -> (M, N, K) responses
    return np.einsum("mnj,jk->mnk", toep, bank)


def _forward_deep(prev, bank):
    mats = np.stack([conv_same_matrix(bank[:, k], prev.shape[1]) for k in range(bank.shape[1])])
    return np.einsum("knj,mjk->mnk", mats, prev)


def layer_forward(prev, bank, first_layer):
    """Forward response of one layer.

    For the first layer ``prev`` is the (M, N, K) stack of Toeplitz views
    of the raw signals; deeper layers take the (M, N, K) coefficients of
    the layer below and convolve channel-wise.
    """
    prev = np.asarray(prev, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    if prev.ndim != 3 or bank.ndim != 2 or bank.shape[0] != bank.shape[1]:
        raise ValueError("prev must be (M, N, K) and bank (K, K)")
    if prev.shape[2] != bank.shape[0]:
        raise ValueError("channel count mismatch between prev and bank")
    return _forward_first(prev, bank) if first_layer else _forward_deep(prev, bank)


def _objective_terms(toep, transforms, coeffs, config):
    fit = 0.0
    prev = None
    for l, (bank, z) in enumerate(zip(transforms, coeffs)):
        response = _forward_first(toep, bank) if l == 0 else _forward_deep(prev, bank)
        fit += 0.5 * np.sum((response - z) ** 2)
        prev = z
    reg = 0.0
    for bank in transforms:
        svals = np.linalg.svd(bank, compute_uv=False)
        if svals.min() <= 0.0:
            return np.inf
        reg += config.mu * np.sum(bank * bank) - config.lam * np.sum(np.log(svals))
    sparsity = config.beta * sum(float(np.sum(np.abs(z))) for z in coeffs)
    return fit + reg + sparsity


def objective(transforms, coeffs, data, config):
    """Joint objective value; +inf when coefficients leave the orthant or a
    bank loses rank.  Sums over samples run in ascending sample order."""
    data = _check_data(data, config)
    k = config.num_kernels
    if len(transforms) != config.num_layers or len(coeffs) != config.num_layers:
        raise ValueError("transforms and coeffs must both have num_layers entries")
    transforms = [np.asarray(t, dtype=np.float64) for t in transforms]
    coeffs = [np.asarray(z, dtype=np.float64) for z in coeffs]
    expected = (data.shape[0], data.shape[1], k)
    for l, (bank, z) in enumerate(zip(transforms, coeffs)):
        if bank.shape != (k, k):
            raise ValueError(f"transform {l + 1} must be ({k}, {k}), got {bank.shape}")
        if z.shape != expected:
            raise ValueError(f"coefficients {l + 1} must be {expected}, got {z.shape}")
    if any(np.any(z < 0) for z in coeffs):
        return np.inf
    toep = toeplitz_stack(data, k)
    return float(_objective_terms(toep, transforms, coeffs, config))


def init_model(config, data, epsilon=0.1):
    """Seeded starting point: banks near the identity, coefficients feasible.

    Each bank is Id + epsilon * R with R uniform on (-1, 1), redrawn until
    its smallest singular value is at least 0.01 (epsilon=0 gives exact
    identities, handy for debugging).  Coefficients are the rectified
    forward pass of the data through those banks, so they are feasible by
    construction.
    """
    data = _check_data(data, config)
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    rng = np.random.default_rng(config.seed)
    k = config.num_kernels
    transforms = []
    for _ in range(config.num_layers):
        if epsilon == 0:
            transforms.append(np.eye(k))
            continue
        for _ in range(1000):
            bank = np.eye(k) + epsilon * rng.uniform(-1.0, 1.0, size=(k, k))
            if np.linalg.svd(bank, compute_uv=False).min() >= 0.01:
                break
        else:
            raise RuntimeError("could not draw a well-conditioned initial bank")
        transforms.append(bank)
    toep = toeplitz_stack(data, k)
    coeffs = []
    prev = None
    for l, bank in enumerate(transforms):
        response = _forward_first(toep, bank) if l == 0 else _forward_deep(prev, bank)
        prev = np.maximum(response, 0.0)
        coeffs.append(prev)
    return transforms, coeffs


def _channel_toeplitz(prev, k):
    # (M, N, K) coefficients -> (M, N, K, J) per-channel Toeplitz windows:
    # out[m, n, c, j] = prev[m, n - j + offset, c]
    offset = (k - 1) // 2
    padded = np.pad(prev, ((0, 0), (k - 1 - offset, offset), (0, 0)))
    windows = sliding_window_view(padded, k, axis=1)
    return windows[..., ::-1]


def _transform_inputs(layer, transforms, coeffs, toep, config):
    """Assemble the quadratic data for the bank update of one layer.

    Layer 1 has a single shared Gram matrix, so the subproblem is exact.
    Deeper layers have one Gram matrix per channel; those are replaced by
    a quadratic with the summed (hence dominating) curvature that touches
    the true data-fit value and gradient at the current bank, so the
    proximal step still decreases the true objective.
    """
    k = config.num_kernels
    anchor = transforms[layer]
    if layer == 0:
        gram = np.einsum("mnj,mnl->jl", toep, toep)
        cross = np.einsum("mnj,mnl->jl", toep, coeffs[0])
        return TransformUpdateInputs(gram, cross, anchor, config.mu, config.lam, config.gamma1)
    prev = coeffs[layer - 1]
    curr = coeffs[layer]
    ctens = _channel_toeplitz(prev, k)
    per_channel = np.einsum("mnkj,mnkl->kjl", ctens, ctens)
    response = np.einsum("mnkj,mnk->kj", ctens, curr).T
    gram = per_channel.sum(axis=0)
    anchored = np.einsum("kjl,lk->jk", per_channel, anchor)
    cross = gram @ anchor - anchored + response
    return TransformUpdateInputs(gram, cross, anchor, config.mu, config.lam, config.gamma1)


def train(data, config):
    """Alternating proximal minimization of the joint objective.

    Per outer iteration and per layer (l = 1 ... L in order) the bank is
    refreshed by its closed-form proximal update and the coefficients by a
    projected Newton solve (a separable shrink for the last layer, whose
    coefficients have no layer above).  The objective is recorded after
    every layer update; training stops at ``max_outer_iters`` or once the
    relative objective decrease over one outer iteration falls below
    ``objective_tol``.  A failed bank update, a failed Newton solve and a
    Newton solve that does not converge each raise ``TrainingError``.
    """
    if not isinstance(config, ModelConfig):
        raise ValueError("config must be a ModelConfig instance")
    data = _check_data(data, config)
    n_layers = config.num_layers
    inv_g2 = 1.0 / config.gamma2
    toep = toeplitz_stack(data, config.num_kernels)
    transforms, coeffs = init_model(config, data)
    trace = [(0, 0, float(_objective_terms(toep, transforms, coeffs, config)))]
    previous = trace[0][2]
    for outer in range(1, config.max_outer_iters + 1):
        for layer in range(n_layers):
            try:
                transforms[layer] = update_transform(
                    _transform_inputs(layer, transforms, coeffs, toep, config)
                )
            except (NumericalConditioningError, np.linalg.LinAlgError) as exc:
                raise TrainingError(
                    f"iteration {outer}, layer {layer + 1}, transform update: {exc}"
                ) from exc
            if layer == 0:
                below = _forward_first(toep, transforms[0])
            else:
                below = _forward_deep(coeffs[layer - 1], transforms[layer])
            if layer == n_layers - 1:
                coeffs[layer] = np.maximum(
                    (inv_g2 * coeffs[layer] + below - config.beta) / (1.0 + inv_g2), 0.0
                )
            else:
                quad = CoeffQuadratics(below, transforms[layer + 1], coeffs[layer + 1])
                try:
                    result = projected_newton_coeffs(
                        coeffs[layer], quad, config.beta, config.gamma2, config.newton
                    )
                except NumericalConditioningError as exc:
                    raise TrainingError(
                        f"iteration {outer}, layer {layer + 1}, coefficient update: {exc}"
                    ) from exc
                if not result.converged:
                    raise TrainingError(
                        f"iteration {outer}, layer {layer + 1}, coefficient update: "
                        f"projected Newton did not converge to grad_tol="
                        f"{config.newton.grad_tol:g} within {config.newton.max_iters} "
                        f"iterations"
                    )
                coeffs[layer] = result.coeffs
            trace.append(
                (outer, layer + 1, float(_objective_terms(toep, transforms, coeffs, config)))
            )
        current = trace[-1][2]
        if (previous - current) / max(abs(previous), 1e-12) < config.objective_tol:
            break
        previous = current
    return TrainedModel(
        transforms=[bank.copy() for bank in transforms],
        config=config,
        training_trace=trace,
        data_dims=(data.shape[0], data.shape[1]),
    )


def encode(model, data, all_layers=False):
    """Deterministic out-of-sample feature map of a trained model.

    Layer by layer the incoming activation is the forward response of the
    previous layer's (rectified) coefficients, and the coefficients are the
    one-sided shrink max(response - beta, 0) -- the exact minimizer of the
    single-block coefficient problem 0.5 * ||response - z||^2 +
    beta * ||z||_1 over z >= 0.  Returns the flattened last-layer
    coefficients, one row of length N * K per sample (row-major over
    positions, channel fastest), or the full list of (M, N, K) layer
    stacks when ``all_layers`` is set.
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
    toep = toeplitz_stack(data, config.num_kernels)
    stacks = []
    current = None
    for l, bank in enumerate(model.transforms):
        response = _forward_first(toep, bank) if l == 0 else _forward_deep(current, bank)
        current = np.maximum(response - config.beta, 0.0)
        stacks.append(current)
    if all_layers:
        return stacks
    m = data.shape[0]
    return stacks[-1].reshape(m, -1)
