"""Model objective terms, alternating trainer, initialization and encoder."""

import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dctl.conv import channelwise_forward, toeplitz_stack
from dctl.model import (
    ModelConfig,
    TrainedModel,
    TrainingError,
    _forward,
    _init_state,
    _encode_rows,
    _layer_terms,
    _objective_sum,
    _walk,
    ENCODE_BLOCK_BYTES,
    encode,
    init_model,
    train,
)
import dctl.data
import dctl.prox
from dctl.prox import (
    NumericalConditioningError,
    projected_newton_coeffs,
    update_transform,
)
from dctl.data import generate_synthetic
from dctl.persistence import load_model, save_model
from oracles import conv_direct, ctl_reference_trace, grid_search_scalar_prox, objective_direct


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
    # the Newton solve takes no settings (dctl.prox constants)
    assert [f.name for f in dataclasses.fields(config)] == [
        "num_layers", "num_kernels", "mu", "lam", "beta", "gamma1", "gamma2",
        "max_outer_iters", "objective_tol", "seed",
    ]


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
        ModelConfig(objective_tol=float("nan"))


@pytest.mark.parametrize("name", ["num_layers", "num_kernels", "max_outer_iters", "seed"])
@pytest.mark.parametrize("bad", [True, np.True_, 2.5, 2.0, np.float64(2.0), "2", None])
def test_config_integer_fields_refuse_bools_and_non_integers(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        ModelConfig(**{name: bad})


FLOAT_FIELDS = ["mu", "lam", "beta", "gamma1", "gamma2", "objective_tol"]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("bad", [True, False, np.True_, "0.5", None, 1j])
def test_config_float_fields_refuse_bools_and_non_reals(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        ModelConfig(**{name: bad})


def test_config_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        ModelConfig(seed=-1)
    assert ModelConfig(seed=0).seed == 0


def test_config_stores_numpy_integers_as_int(tmp_path):
    config = ModelConfig(num_layers=np.int64(1), num_kernels=np.int32(2),
                         max_outer_iters=np.uint8(1), seed=np.int64(4))
    fields = (config.num_layers, config.num_kernels, config.max_outer_iters, config.seed)
    assert [type(v) for v in fields] == [int] * 4
    assert fields == (1, 2, 1, 4)
    # the JSON metadata of a model file takes the plain ints
    model = train(np.random.default_rng(56).standard_normal((3, 8)), config)
    save_model(tmp_path / "model.dctl", model)
    assert load_model(tmp_path / "model.dctl").config == config


# ----------------------------------------------------------------- objective


def test_objective_perfect_fit_is_zero():
    rng = np.random.default_rng(40)
    data = np.abs(rng.standard_normal((3, 8)))
    # with mu = 0 the identity bank's regularizer is -lam * log(1) = 0
    config = ModelConfig(num_layers=1, num_kernels=2, mu=0.0, beta=0.0)
    coeffs = [toeplitz_stack(data, 2)]  # equals the identity-bank response
    terms = _layer_terms(data, [np.eye(2)], coeffs, config)
    assert terms[0] == [0.0]
    assert _objective_sum(*terms, config.beta) == 0.0


def test_objective_matches_direct_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10):
        data, transforms, coeffs = feasible_instance(rng, 2, 2, 8, 2)
        mu, lam, beta = rng.uniform(0.01, 1.0, size=3)
        config = ModelConfig(num_layers=2, num_kernels=2,
                             mu=float(mu), lam=float(lam), beta=float(beta))
        terms = _layer_terms(data, transforms, coeffs, config)
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
    broadcast = np.broadcast_to(data[:, :, None], (3, 12, 3))
    first = np.maximum(channelwise_forward(broadcast, transforms[0]), 0.0)
    assert np.array_equal(coeffs[0], first)
    second = np.maximum(channelwise_forward(first, transforms[1]), 0.0)
    assert np.array_equal(coeffs[1], second)
    toeplitz = np.maximum(np.einsum("mnj,jk->mnk", toeplitz_stack(data, 3), transforms[0]), 0.0)
    assert np.max(np.abs(coeffs[0] - toeplitz)) < 1e-12
    assert all(z.min() >= 0.0 for z in coeffs)


# -------------------------------------------------------------- layer forward


def test_layer_forward_first_layer_matches_toeplitz():
    rng = np.random.default_rng(48)
    data = rng.standard_normal((3, 10))
    bank = rng.standard_normal((3, 3))
    out = _forward(data, bank)
    # layer 1 is the tap kernel on the data broadcast to every channel
    broadcast = np.broadcast_to(data[:, :, None], (3, 10, 3))
    assert np.array_equal(out, channelwise_forward(broadcast, bank))
    toep = toeplitz_stack(data, 3)
    for m in range(3):
        assert np.max(np.abs(out[m] - toep[m] @ bank)) < 1e-12


def test_layer_forward_deep_layer_convolves_channels():
    rng = np.random.default_rng(49)
    prev = rng.standard_normal((2, 10, 3))
    bank = rng.standard_normal((3, 3))
    out = _forward(prev, bank)
    for m in range(2):
        for k in range(3):
            assert np.allclose(out[m, :, k], conv_direct(prev[m, :, k], bank[:, k]),
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


def test_train_unconverged_newton_names_iteration_layer_step(monkeypatch):
    monkeypatch.setattr(dctl.prox, "MAX_ITERS", 1)
    monkeypatch.setattr(dctl.prox, "GRAD_TOL", 1e-14)
    signals, _ = generate_synthetic(2, 5, 16, seed=4)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=3, seed=4)
    with pytest.raises(TrainingError, match="iteration 1, layer 1, coefficient update: "
                                            "projected Newton did not converge "
                                            "to grad_tol=.* within 1 iterations") as error:
        train(signals, config)
    # the tolerance named is the one the solve used: 1e-14 times the inputs' scale
    assert float(re.search(r"grad_tol=(\S+)", str(error.value)).group(1)) > 1e-14


def test_train_on_unnormalized_data_far_from_unit_scale():
    # the Newton stop scales with the inputs: an absolute 1e-8 stop made
    # this raise "projected Newton did not converge" at iteration 3, layer 2
    signals, _ = generate_synthetic(4, 50, 128, noise_sigma=0.3, seed=1)
    signals = signals * 1e4
    config = ModelConfig(num_layers=3, num_kernels=8, max_outer_iters=10, objective_tol=0.0)
    model = train(signals, config)
    values = [value for _, _, value in model.training_trace]
    assert len(values) == 1 + 10 * 3
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert np.all(np.isfinite(encode(model, signals)))


def test_train_trace_equals_full_objective_bitwise():
    # train keeps the objective as cached per-layer terms; each trace entry
    # must equal a full recomputation on the state it was recorded for.
    # train mutates the lists _init_state returns, so a snapshot before each
    # bank update is the state after the previous layer update.  The copies
    # keep each array's memory layout, which einsum's summation order follows.
    signals, _ = generate_synthetic(2, 4, 16, seed=12)
    for layers in (1, 2, 4):
        config = ModelConfig(num_layers=layers, num_kernels=4, max_outer_iters=3,
                             objective_tol=0.0, seed=12)
        state, snapshots = [], []

        def init(*args, **kwargs):
            transforms, coeffs, fits = _init_state(*args, **kwargs)
            state[:] = transforms, coeffs
            return transforms, coeffs, fits

        def bank_step(inputs):
            snapshots.append([[x.copy(order="K") for x in part] for part in state])
            return update_transform(inputs)

        with mock.patch("dctl.model._init_state", side_effect=init), \
                mock.patch("dctl.model.update_transform", side_effect=bank_step):
            model = train(signals, config)
        snapshots.append([[x.copy(order="K") for x in part] for part in state])
        assert len(snapshots) == len(model.training_trace) == 1 + 3 * layers
        for (transforms, coeffs), entry in zip(snapshots, model.training_trace):
            terms = _layer_terms(signals, transforms, coeffs, config)
            assert entry[2] == float(_objective_sum(*terms, config.beta))


def test_train_checks_its_data_once_and_repeats_no_forward_pass():
    # one as_matrix pass over the data; the initial fits come from the init
    # walk's responses, so L passes there and 2L - 1 per outer iteration
    signals, _ = generate_synthetic(2, 4, 16, seed=14)
    config = ModelConfig(num_layers=3, num_kernels=4, max_outer_iters=1,
                         objective_tol=0.0, seed=14)
    with mock.patch("dctl.model.as_matrix", side_effect=dctl.data.as_matrix) as check, \
            mock.patch("dctl.model.channelwise_forward",
                       side_effect=channelwise_forward) as forward:
        train(signals, config)
    assert [call.args[1] for call in check.call_args_list] == ["data"]
    assert forward.call_count == 3 + (2 * 3 - 1)


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
    # layer 1 convolves the signal with every kernel, so eye(K) gives its
    # K shifted copies, the Toeplitz view; deeper layers convolve
    # channel-wise, so their identity is an impulse kernel
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


def test_train_memory_stays_below_nine_stacks():
    # the data, L coefficient stacks and the transient forward responses;
    # a finished response or Toeplitz copy kept alive shows up as a stack
    signals, _ = generate_synthetic(4, 50, 128, noise_sigma=0.3, seed=1)
    config = ModelConfig(num_layers=3, num_kernels=8, max_outer_iters=1,
                         objective_tol=0.0)
    tracemalloc.start()
    try:
        train(signals, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * signals.size * 8 * 8


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
    # the (M, N, K) stack of the layer below and the response the shrink
    # overwrites are alive at a time; layer 1 reads the (M, N) data, so a
    # one-layer encode holds its response alone
    ratios = {layers: encode_peak_ratio(layers) for layers in (1, 2, 3, 4)}
    assert ratios[1] < 1.25
    assert ratios[3] < 2.5
    assert abs(ratios[4] - ratios[2]) <= 0.25


def test_encode_features_are_one_c_contiguous_matrix():
    # the last layer is written position-major, so the (M, N K) rows are a
    # view of it and need no copy; deeper stacks are channel-major
    signals, _ = generate_synthetic(2, 3, 16, seed=9)
    for layers in (1, 2, 3):
        model = identity_model(layers, 4, 16)
        features = encode(model, signals)
        assert features.shape == (6, 16 * 4)
        assert features.flags.c_contiguous
        expected = np.maximum(toeplitz_stack(signals, 4), 0.0)
        assert np.array_equal(features, expected.reshape(6, -1))


def random_model(layers, k, n, seed):
    rng = np.random.default_rng(seed)
    banks = [np.eye(k) + 0.3 * rng.standard_normal((k, k)) for _ in range(layers)]
    config = ModelConfig(num_layers=layers, num_kernels=k, beta=0.05)
    return TrainedModel(transforms=banks, config=config,
                        training_trace=[(0, 0, 0.0)], data_dims=(1, n))


@pytest.mark.parametrize("n, k, layers", [(128, 8, 3), (1024, 8, 2)])
def test_encode_blocks_match_one_walk_over_every_row_bitwise(n, k, layers):
    # each row's features depend on that row alone, so no block boundary,
    # short last block or one-row block may move a bit
    model = random_model(layers, k, n, seed=56)
    rows = ENCODE_BLOCK_BYTES // (n * k * 8)
    rng = np.random.default_rng(57)
    # 8 * rows + 1 is the first M whose blocks are full-size, with one row left
    for m in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 8 * rows + 1):
        data = rng.standard_normal((m, n))
        features = encode(model, data)
        one_walk = _walk(data, model.transforms, model.config.beta).reshape(m, -1)
        assert features.shape == (m, n * k)
        assert features.flags.c_contiguous
        assert features.tobytes() == one_walk.tobytes()
    assert _encode_rows(8 * rows + 1, n, k) == rows


def test_encode_holds_the_result_and_at_most_two_blocks():
    # one walk over every row held the result and a second full stack
    data = np.random.default_rng(58).standard_normal((2000, 128))
    model = random_model(3, 8, 128, seed=59)
    tracemalloc.start()
    try:
        features = encode(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * features.nbytes


def test_encode_rejects_wrong_length_and_type():
    signals, _ = generate_synthetic(1, 3, 16, seed=8)
    config = ModelConfig(num_layers=1, num_kernels=4, max_outer_iters=1, seed=8)
    model = train(signals, config)
    with pytest.raises(ValueError):
        encode(model, np.zeros((2, 12)))
    with pytest.raises(ValueError):
        encode({"transforms": model.transforms}, signals)
