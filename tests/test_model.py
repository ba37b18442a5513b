"""Model objective terms, alternating trainer, initialization and encoder."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dctl.conv import conv_same, toeplitz_stack
from dctl.model import (
    ModelConfig,
    TrainedModel,
    TrainingError,
    _forward,
    _layer_terms,
    _objective_sum,
    encode,
    init_model,
    train,
)
from dctl.prox import (
    NewtonSettings,
    NumericalConditioningError,
    projected_newton_coeffs,
    update_transform,
)
from dctl.data import generate_synthetic
from oracles import ctl_reference_trace, grid_search_scalar_prox, objective_direct


def feasible_instance(rng, layers, m, n, k):
    """Random data plus feasible transforms/coefficients for the objective."""
    data = rng.standard_normal((m, n))
    transforms = []
    for _ in range(layers):
        while True:
            bank = rng.standard_normal((k, k))
            if np.linalg.svd(bank, compute_uv=False).min() > 0.05:
                break
        transforms.append(bank)
    coeffs = [np.maximum(rng.standard_normal((m, n, k)), 0.0) for _ in range(layers)]
    return data, transforms, coeffs


def trace_steps(model):
    values = [entry[2] for entry in model.training_trace]
    return np.diff(np.asarray(values))


# -------------------------------------------------------------------- config


def test_config_defaults():
    config = ModelConfig()
    assert config.num_layers == 3
    assert config.num_kernels == 8
    assert config.mu == 0.01
    assert config.lam == 0.01
    assert config.beta == 0.01
    assert config.gamma1 == 1.0
    assert config.gamma2 == 1.0
    assert config.max_outer_iters == 100
    assert config.objective_tol == 1e-6
    assert config.seed == 0
    assert config.newton == NewtonSettings()


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(num_kernels=0)
    with pytest.raises(ValueError):
        ModelConfig(mu=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(lam=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(lam=0.0)
    with pytest.raises(ValueError):
        ModelConfig(beta=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(gamma1=0.0)
    with pytest.raises(ValueError):
        ModelConfig(gamma2=0.0)
    with pytest.raises(ValueError):
        ModelConfig(max_outer_iters=0)
    with pytest.raises(ValueError):
        ModelConfig(objective_tol=-1e-9)
    with pytest.raises(ValueError):
        ModelConfig(newton={"max_iters": 5})


# ----------------------------------------------------------------- objective


def test_objective_perfect_fit_is_zero():
    rng = np.random.default_rng(40)
    data = np.abs(rng.standard_normal((3, 8)))
    # with mu = 0 the identity bank's regularizer is -lam * log(1) = 0
    config = ModelConfig(num_layers=1, num_kernels=2, mu=0.0, beta=0.0)
    toep = toeplitz_stack(data, 2)
    coeffs = [toep]  # equals the identity-bank response
    terms = _layer_terms(toep, [np.eye(2)], coeffs, config)
    assert terms[0] == [0.0]
    assert _objective_sum(*terms, config.beta) == 0.0


def test_objective_matches_direct_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10):
        data, transforms, coeffs = feasible_instance(rng, 2, 2, 8, 2)
        mu, lam, beta = rng.uniform(0.01, 1.0, size=3)
        config = ModelConfig(num_layers=2, num_kernels=2,
                             mu=float(mu), lam=float(lam), beta=float(beta))
        terms = _layer_terms(toeplitz_stack(data, 2), transforms, coeffs, config)
        ours = _objective_sum(*terms, config.beta)
        ref = objective_direct(data, transforms, coeffs,
                               float(mu), float(lam), float(beta))
        assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))


# ------------------------------------------------------------ initialization


def test_init_is_deterministic():
    rng = np.random.default_rng(44)
    data = rng.standard_normal((4, 16))
    config = ModelConfig(num_layers=2, num_kernels=4, seed=123)
    t1, z1 = init_model(config, data)
    t2, z2 = init_model(config, data)
    for a, b in zip(t1, t2):
        assert np.array_equal(a, b)
    for a, b in zip(z1, z2):
        assert np.array_equal(a, b)


def test_init_singular_values_bounded_below():
    data = np.random.default_rng(46).standard_normal((2, 16))
    for seed in range(100):
        config = ModelConfig(num_layers=1, num_kernels=8, seed=seed)
        transforms, _ = init_model(config, data)
        assert np.linalg.svd(transforms[0], compute_uv=False).min() >= 0.01


def test_init_coeffs_are_rectified_forward():
    rng = np.random.default_rng(47)
    data = rng.standard_normal((3, 12))
    config = ModelConfig(num_layers=2, num_kernels=3, seed=9)
    transforms, coeffs = init_model(config, data)
    toep = toeplitz_stack(data, 3)
    first = np.maximum(np.einsum("mnj,jk->mnk", toep, transforms[0]), 0.0)
    assert np.array_equal(coeffs[0], first)
    assert all(z.min() >= 0.0 for z in coeffs)


# -------------------------------------------------------------- layer forward


def test_layer_forward_first_layer_matches_toeplitz():
    rng = np.random.default_rng(48)
    data = rng.standard_normal((3, 10))
    bank = rng.standard_normal((3, 3))
    toep = toeplitz_stack(data, 3)
    out = _forward(toep, bank, first_layer=True)
    for m in range(3):
        assert np.allclose(out[m], toep[m] @ bank, atol=1e-12)


def test_layer_forward_deep_layer_convolves_channels():
    rng = np.random.default_rng(49)
    prev = rng.standard_normal((2, 10, 3))
    bank = rng.standard_normal((3, 3))
    out = _forward(prev, bank, first_layer=False)
    for m in range(2):
        for k in range(3):
            assert np.allclose(out[m, :, k], conv_same(prev[m, :, k], bank[:, k]),
                               atol=1e-12)


# ----------------------------------------------------------------- training


def test_train_monotone_trace_two_layers():
    signals, _ = generate_synthetic(2, 10, 32, seed=0)
    config = ModelConfig(num_layers=2, num_kernels=8, max_outer_iters=50,
                         objective_tol=0.0, seed=0)
    model = train(signals, config)
    assert len(model.training_trace) == 1 + 50 * 2
    assert np.all(trace_steps(model) <= 1e-9)


def test_train_zero_signal_drives_coefficients_to_zero():
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=5,
                         objective_tol=0.0, seed=1)
    model = train(np.zeros((1, 16)), config)
    assert np.all(trace_steps(model) <= 1e-9)
    # with Z == 0 and zero data the objective is just the bank regularizers
    reg = 0.0
    for bank in model.transforms:
        svals = np.linalg.svd(bank, compute_uv=False)
        reg += config.mu * np.sum(bank * bank) - config.lam * np.sum(np.log(svals))
    assert abs(model.training_trace[-1][2] - reg) < 1e-8


def test_train_trace_layout_and_early_stop():
    signals, _ = generate_synthetic(2, 5, 16, seed=3)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=30,
                         objective_tol=0.05, seed=3)
    model = train(signals, config)
    assert model.training_trace[0] == (0, 0, model.training_trace[0][2])
    for outer, layer, value in model.training_trace[1:]:
        assert 1 <= outer and 1 <= layer <= 2
        assert np.isfinite(value)
    # the loose tolerance must stop the loop well before the cap
    assert model.training_trace[-1][0] < 30
    assert model.data_dims == (10, 16)


def test_train_error_names_iteration_layer_step():
    signals, _ = generate_synthetic(1, 4, 16, seed=4)
    config = ModelConfig(num_layers=1, num_kernels=4, max_outer_iters=3)
    with mock.patch("dctl.model.update_transform",
                    side_effect=NumericalConditioningError("boom")):
        with pytest.raises(TrainingError, match="iteration 1, layer 1, transform update"):
            train(signals, config)


def test_train_unconverged_newton_names_iteration_layer_step():
    signals, _ = generate_synthetic(2, 5, 16, seed=4)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=3, seed=4,
                         newton=NewtonSettings(max_iters=1, grad_tol=1e-14))
    with pytest.raises(TrainingError, match="iteration 1, layer 1, coefficient update: "
                                            "projected Newton did not converge"):
        train(signals, config)


def test_train_trace_equals_full_objective_bitwise():
    # train keeps the objective as cached per-layer terms; each trace entry
    # must equal a full recomputation on the state it was recorded for.
    # train mutates the lists init_model returns, so a snapshot before each
    # bank update is the state after the previous layer update.  The copies
    # keep each array's memory layout, which einsum's summation order follows.
    signals, _ = generate_synthetic(2, 4, 16, seed=12)
    for layers in (1, 2, 4):
        config = ModelConfig(num_layers=layers, num_kernels=4, max_outer_iters=3,
                             objective_tol=0.0, seed=12)
        state, snapshots = [], []

        def init(*args, **kwargs):
            state[:] = init_model(*args, **kwargs)
            return state

        def bank_step(inputs):
            snapshots.append([[x.copy(order="K") for x in part] for part in state])
            return update_transform(inputs)

        with mock.patch("dctl.model.init_model", side_effect=init), \
                mock.patch("dctl.model.update_transform", side_effect=bank_step):
            model = train(signals, config)
        snapshots.append([[x.copy(order="K") for x in part] for part in state])
        assert len(snapshots) == len(model.training_trace) == 1 + 3 * layers
        toep = toeplitz_stack(signals, 4)
        for (transforms, coeffs), entry in zip(snapshots, model.training_trace):
            terms = _layer_terms(toep, transforms, coeffs, config)
            assert entry[2] == float(_objective_sum(*terms, config.beta))


def test_train_guard_names_transform_step_that_raised_objective():
    signals, _ = generate_synthetic(2, 4, 16, seed=13)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=2, seed=13)
    calls = []

    def worse_second_bank(inputs):
        calls.append(None)
        bank = update_transform(inputs)
        return 3.0 * bank if len(calls) == 2 else bank

    with mock.patch("dctl.model.update_transform", side_effect=worse_second_bank):
        with pytest.raises(TrainingError, match="iteration 1, layer 2, transform update: "
                                                "objective rose from"):
            train(signals, config)


def test_train_guard_names_coefficient_step_that_raised_objective():
    signals, _ = generate_synthetic(2, 4, 16, seed=14)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=2, seed=14)

    def worse_coeffs(*args):
        result = projected_newton_coeffs(*args)
        return result._replace(coeffs=result.coeffs + 1.0)

    with mock.patch("dctl.model.projected_newton_coeffs", side_effect=worse_coeffs):
        with pytest.raises(TrainingError, match="iteration 1, layer 1, coefficient update: "
                                                "objective rose from"):
            train(signals, config)


def test_train_validates_input():
    with pytest.raises(ValueError):
        train(np.zeros((2, 8)), {"num_layers": 1})
    with pytest.raises(ValueError):
        train(np.zeros((2, 4)), ModelConfig(num_kernels=8))
    with pytest.raises(ValueError):
        train(np.full((2, 8), np.nan), ModelConfig(num_kernels=4))


def test_train_single_layer_matches_reference_loop():
    rng = np.random.default_rng(50)
    data = rng.standard_normal((4, 12))
    config = ModelConfig(num_layers=1, num_kernels=3, max_outer_iters=5,
                         objective_tol=0.0, seed=5)
    model = train(data, config)
    reference = ctl_reference_trace(data, 3, config.mu, config.lam, config.beta,
                                    config.gamma1, config.gamma2, seed=5,
                                    iterations=5)
    ours = [entry[2] for entry in model.training_trace]
    assert len(ours) == len(reference)
    assert np.max(np.abs(np.asarray(ours) - np.asarray(reference))) < 1e-9


def test_train_permutation_equivariance():
    rng = np.random.default_rng(51)
    data = rng.standard_normal((8, 16))
    perm = rng.permutation(8)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=3,
                         objective_tol=0.0, seed=6)
    model = train(data, config)
    model_perm = train(data[perm], config)
    # sample sums run in a fixed ascending order, so banks agree only up to
    # float reduction error while encoded rows permute exactly
    for a, b in zip(model.transforms, model_perm.transforms):
        assert np.allclose(a, b, rtol=1e-8, atol=1e-10)
    encoded = encode(model, data)
    encoded_perm = encode(model, data[perm])
    assert np.array_equal(encoded_perm, encoded[perm])


# ------------------------------------------------------------------- encoder


def identity_model(layers, k, n, beta=0.0):
    # layer 1 multiplies the Toeplitz view, so its identity is eye(K);
    # deeper layers convolve channel-wise, so theirs is an impulse kernel
    impulse = np.zeros((k, k))
    impulse[(k - 1) // 2, :] = 1.0
    banks = [np.eye(k)] + [impulse.copy() for _ in range(layers - 1)]
    config = ModelConfig(num_layers=layers, num_kernels=k, beta=beta)
    return TrainedModel(transforms=banks, config=config,
                        training_trace=[(0, 0, 0.0)], data_dims=(1, n))


def test_encode_identity_banks_pass_rectified_views_through():
    rng = np.random.default_rng(52)
    data = rng.standard_normal((3, 12))
    expected = np.maximum(toeplitz_stack(data, 4), 0.0).reshape(3, -1)
    for layers in (1, 3):
        model = identity_model(layers, 4, 12)
        assert np.array_equal(encode(model, data), expected)


def test_encode_huge_beta_zeroes_features():
    rng = np.random.default_rng(53)
    data = rng.standard_normal((2, 10))
    model = identity_model(2, 3, 10, beta=1e9)
    assert not np.any(encode(model, data))


def test_encode_matches_per_entry_grid_search():
    rng = np.random.default_rng(54)
    data = np.abs(rng.standard_normal((2, 4))) + 0.1
    beta = 0.3
    bank = np.array([[1.7]])
    config = ModelConfig(num_layers=1, num_kernels=1, beta=beta)
    model = TrainedModel(transforms=[bank], config=config,
                         training_trace=[(0, 0, 0.0)], data_dims=(2, 4))
    encoded = encode(model, data)
    responses = (data * 1.7).reshape(2, 4)
    for response, z_enc in zip(responses.ravel(), encoded.ravel()):
        z_grid = grid_search_scalar_prox(response, beta, 1.0)
        assert abs(z_enc - z_grid) <= 6e-6

        def value(z):
            return 0.5 * (response - z) ** 2 + beta * z

        assert value(z_enc) <= value(z_grid) + 1e-6


def test_encode_deterministic_and_shapes():
    signals, _ = generate_synthetic(2, 4, 16, seed=7)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=2, seed=7)
    model = train(signals, config)
    first = encode(model, signals)
    second = encode(model, signals)
    assert np.array_equal(first, second)
    assert first.shape == (8, 16 * 4)


def test_long_signals_train_and_encode_in_linear_memory():
    # a dense (K, N, N) stack of convolution matrices would take 1 GiB here
    signals, _ = generate_synthetic(2, 2, 4096, seed=11)
    config = ModelConfig(num_layers=2, num_kernels=8, max_outer_iters=1, seed=11)
    tracemalloc.start()
    try:
        model = train(signals, config)
        features = encode(model, signals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.shape == (4, 4096 * 8)
    assert peak < 64 * 2**20


def encode_peak_ratio(layers):
    data = np.random.default_rng(55).standard_normal((400, 64))
    model = identity_model(layers, 8, 64)
    tracemalloc.start()
    try:
        features = encode(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / features.nbytes


def test_encode_memory_does_not_grow_with_depth():
    # one (M, N, K) layer stack is alive at a time, plus the forward
    # response and the shrink's operands
    ratios = {layers: encode_peak_ratio(layers) for layers in (1, 3, 4)}
    assert ratios[3] < 4.5
    assert abs(ratios[4] - ratios[1]) <= 0.25


def test_encode_rejects_wrong_length_and_type():
    signals, _ = generate_synthetic(1, 3, 16, seed=8)
    config = ModelConfig(num_layers=1, num_kernels=4, max_outer_iters=1, seed=8)
    model = train(signals, config)
    with pytest.raises(ValueError):
        encode(model, np.zeros((2, 12)))
    with pytest.raises(ValueError):
        encode({"transforms": model.transforms}, signals)
