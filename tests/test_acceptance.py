"""Acceptance gate: one test per shipping criterion, each printing a PASS line.

Every test states its full protocol inline, asserts the criterion at its
stated tolerance, and prints ``ACCEPT-NN <name>: PASS`` once the asserts
have held, so a verbose run reads as a checklist.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from dctl.cli import cli
from dctl.conv import channelwise_forward, toeplitz_stack
from dctl.data import generate_synthetic, normalize_per_sample, write_csv
from dctl.evaluation import adjusted_rand_index, timed
from dctl.model import ModelConfig, encode, train
from dctl.persistence import (
    ModelFileChecksumError,
    ModelFileMagicError,
    ModelFileVersionError,
    load_model,
    save_model,
)
from dctl.prox import (
    CoeffQuadratics,
    TransformUpdateInputs,
    _block_gradient,
    prox_nonneg_l1,
    projected_newton_coeffs,
    update_transform,
)
from oracles import (
    ari_bruteforce,
    coeff_objective_direct,
    coeff_pg_oracle,
    conv_direct,
    fd_gradient,
    grid_search_scalar_prox,
    make_blobs,
    transform_gd_oracles,
    transform_objective,
)


def report(number, name):
    print(f"ACCEPT-{number:02d} {name}: PASS")


# --------------------------------------------------------------- criterion 1


def test_criterion_01_training_objective_never_increases():
    signals, _ = generate_synthetic(3, 20, 32, seed=7)
    config = ModelConfig(num_layers=3, num_kernels=8, max_outer_iters=60,
                         objective_tol=0.0, seed=7)
    model, elapsed = timed(train, signals, config)
    values = np.asarray([entry[2] for entry in model.training_trace])
    assert values.size == 1 + 60 * 3
    assert np.all(np.diff(values) <= 1e-9)
    assert elapsed < 60.0
    report(1, "training objective never increases")


# --------------------------------------------------------------- criterion 2


def transform_instance(rng):
    signals = rng.standard_normal((3, 16))
    toep = toeplitz_stack(signals, 4)
    gram = np.einsum("mnj,mnk->jk", toep, toep)
    gram = 0.5 * (gram + gram.T)
    coeffs = np.maximum(rng.standard_normal((3, 16, 4)), 0.0)
    cross = np.einsum("mnj,mnk->jk", toep, coeffs)
    while True:
        anchor = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        if np.linalg.svd(anchor, compute_uv=False).min() > 0.05:
            break
    mu = float(rng.uniform(0.0, 0.5))
    lam = float(rng.uniform(0.1, 2.0))
    gamma1 = float(rng.uniform(0.5, 5.0))
    return gram, cross, anchor, mu, lam, gamma1


def stationarity_residual(t, gram, cross, anchor, mu, lam, gamma1):
    w = gram + (1.0 / gamma1 + 2.0 * mu) * np.eye(gram.shape[0])
    g = cross + anchor / gamma1
    resid = w @ t - g - lam * np.linalg.inv(t).T
    return np.linalg.norm(resid) / max(1.0, np.linalg.norm(g))


def halved_spectral_shift_update(gram, cross, anchor, mu, lam, gamma1):
    # competing closed form whose spectral shift uses 2*lam instead of 4*lam
    w = gram + (1.0 / gamma1 + 2.0 * mu) * np.eye(gram.shape[0])
    g = cross + anchor / gamma1
    chol = np.linalg.cholesky(w)
    u, s, vt = np.linalg.svd(solve_triangular(chol, g, lower=True))
    shifted = 0.5 * (s + np.sqrt(s * s + 2.0 * lam))
    return solve_triangular(chol.T, (u * shifted) @ vt, lower=False)


def test_criterion_02_transform_update_beats_gradient_descent_oracle():
    rng = np.random.default_rng(200)
    problems = [transform_instance(rng) for _ in range(20)]
    # trial i's oracle descends from 5 starts drawn with seed i; all 100
    # (trial, start) descents run as one stack
    oracles = transform_gd_oracles(problems, seeds=range(20), iters=10_000, n_starts=5)
    for (gram, cross, anchor, mu, lam, gamma1), (f_oracle, _) in zip(problems, oracles):
        ours = update_transform(TransformUpdateInputs(gram, cross, anchor,
                                                      mu, lam, gamma1))
        f_ours = transform_objective(ours, gram, cross, anchor, mu, lam, gamma1)
        assert f_ours <= f_oracle + 1e-6
        assert stationarity_residual(ours, gram, cross, anchor,
                                     mu, lam, gamma1) < 1e-6
        # the halved-shift variant is not a stationary point of the objective
        other = halved_spectral_shift_update(gram, cross, anchor, mu, lam, gamma1)
        f_other = transform_objective(other, gram, cross, anchor, mu, lam, gamma1)
        assert f_other >= f_ours - 1e-12
        assert stationarity_residual(other, gram, cross, anchor,
                                     mu, lam, gamma1) > 1e-6
    report(2, "transform update beats gradient descent oracle")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_scalar_shrink_matches_grid_search():
    rng = np.random.default_rng(300)
    instances = [(float(rng.uniform(-2.0, 8.0)), float(rng.uniform(0.01, 2.0)),
                  float(rng.uniform(0.1, 5.0))) for _ in range(1000)]

    def run_all():
        worst = 0.0
        for value, beta, weight in instances:
            ours = prox_nonneg_l1(value, beta, weight)
            ref = grid_search_scalar_prox(value, beta, weight)
            worst = max(worst, abs(ours - ref))
        return worst

    worst, elapsed = timed(run_all)
    assert worst <= 1e-4
    assert elapsed < 5.0
    report(3, "scalar shrink matches grid search")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_projected_newton_matches_long_projected_gradient():
    rng = np.random.default_rng(400)
    for trial in range(10):
        below = rng.standard_normal((2, 8, 2))
        bank_above = rng.standard_normal((2, 2)) / np.sqrt(2.0)
        above = np.maximum(rng.standard_normal((2, 8, 2)), 0.0)
        z0 = np.maximum(rng.standard_normal((2, 8, 2)), 0.0)
        beta = float(rng.uniform(0.0, 0.3))
        gamma2 = float(rng.uniform(0.5, 5.0))
        quad = CoeffQuadratics(below, bank_above, above)
        result = projected_newton_coeffs(z0, quad, beta, gamma2)
        reference = coeff_pg_oracle(z0, below, bank_above, above, beta, gamma2)
        f_ours = coeff_objective_direct(result.coeffs, z0, below, bank_above, above,
                                        beta, gamma2)
        f_ref = coeff_objective_direct(reference, z0, below, bank_above, above,
                                       beta, gamma2)
        assert abs(f_ours - f_ref) <= 1e-6
        assert np.all(result.coeffs >= 0.0)
    report(4, "projected newton matches long projected gradient")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_toeplitz_product_equals_direct_convolution():
    rng = np.random.default_rng(500)
    worst = 0.0
    for trial in range(300):
        k = int(rng.integers(1, 13))
        n = int(rng.integers(k, 41))
        signal = rng.standard_normal(n)
        kernel = rng.standard_normal(k)
        via_matrix = toeplitz_stack(signal[None, :], k)[0] @ kernel
        direct = conv_direct(signal, kernel)
        worst = max(worst, float(np.max(np.abs(via_matrix - direct))))
        tap_kernel = channelwise_forward(signal[None, :], kernel)[0]
        worst = max(worst, float(np.max(np.abs(tap_kernel - direct))))
    assert worst < 1e-12
    report(5, "toeplitz product equals direct convolution")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_coefficient_gradient_matches_finite_differences():
    rng = np.random.default_rng(600)
    for trial in range(20):
        below = rng.standard_normal((2, 8, 2))
        bank_above = rng.standard_normal((2, 2)) / np.sqrt(2.0)
        above = np.maximum(rng.standard_normal((2, 8, 2)), 0.0)
        anchor = np.maximum(rng.standard_normal((2, 8, 2)), 0.0)
        z = np.abs(rng.standard_normal((2, 8, 2))) + 0.1
        beta = float(rng.uniform(0.0, 0.3))
        gamma2 = float(rng.uniform(0.5, 5.0))
        # the solver's gradient, one channel at a time, against finite
        # differences of the dense block-by-block objective
        grad = np.stack([
            _block_gradient(z[:, :, c], channelwise_forward(z[:, :, c], bank_above[:, c]),
                            anchor[:, :, c], below[:, :, c], above[:, :, c],
                            bank_above[:, c], beta, 1.0 / gamma2)
            for c in range(2)
        ], axis=2)
        fd = fd_gradient(lambda v: coeff_objective_direct(v, anchor, below, bank_above,
                                                          above, beta, gamma2), z)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        assert rel < 1e-5
    report(6, "coefficient gradient matches finite differences")


# --------------------------------------------------------------- criterion 7


def loo_knn_accuracy(features, labels):
    """Leave-one-out 1-NN accuracy over the full sample pool."""
    dists = np.linalg.norm(features[:, None, :] - features[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    return float(np.mean(labels[np.argmin(dists, axis=1)] == labels))


def test_criterion_07_deeper_features_beat_shallow_and_raw():
    # three motif classes at heavy noise; transforms are learned without
    # labels on the whole pool, then judged by leave-one-out 1-NN over the
    # same pool, averaging each depth over five training seeds
    signals, labels = generate_synthetic(3, 40, 64, noise_sigma=0.3, seed=7)
    signals = normalize_per_sample(signals)
    raw_accuracy = loo_knn_accuracy(signals, labels)
    mean_accuracy = {}
    for depth in (1, 2, 3):
        scores = []
        for seed in range(5):
            config = ModelConfig(num_layers=depth, max_outer_iters=5,
                                 beta=0.005, seed=seed)
            model = train(signals, config)
            features = normalize_per_sample(encode(model, signals))
            scores.append(loo_knn_accuracy(features, labels))
        mean_accuracy[depth] = float(np.mean(scores))
    assert mean_accuracy[2] >= mean_accuracy[1] or mean_accuracy[3] >= mean_accuracy[1]
    assert mean_accuracy[3] >= raw_accuracy
    report(7, "deeper features beat shallow and raw")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_cluster_command_emits_full_grid(tmp_path, capsys):
    rng = np.random.default_rng(88)
    centers = rng.uniform(0.0, 1.0, size=(3, 24))
    points, labels = make_blobs(20, centers, 0.02, seed=88)
    data = tmp_path / "blobs.csv"
    model = tmp_path / "model.dctl"
    write_csv(data, points, labels)
    assert cli(["train", str(data), "--model-out", str(model),
                "--iters", "3", "--seed", "0"]) == 0
    assert cli(["cluster", str(data), "--model", str(model), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    table = [line.split() for line in out.strip().splitlines() if line][-6:]
    assert [row[0] for row in table] == ["raw"] * 3 + ["encoded"] * 3
    assert [row[1] for row in table] == ["kmeanspp", "random", "pca"] * 2
    times = {}
    for row in table:
        ari = float(row[2])
        assert -1.0 <= ari <= 1.0
        assert float(row[3]) > 0.0
        times.setdefault(row[0], []).append(float(row[3]))
    for row in table[3:]:
        assert float(row[2]) >= 0.9
    n_raw = points.shape[1]
    encoded_width = n_raw * 8
    if encoded_width < n_raw:  # only binds when encoding reduces dimension
        assert sum(times["encoded"]) <= sum(times["raw"])
    report(8, "cluster command emits full grid")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(900)
    for trial in range(50):
        m = int(rng.integers(2, 31))
        a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=m)
        b = rng.integers(0, int(rng.integers(1, 6)) + 1, size=m)
        if trial % 10 == 0:
            a = np.zeros(m, dtype=np.int64)  # exercise degenerate partitions
        assert abs(adjusted_rand_index(a, b) - ari_bruteforce(a, b)) <= 1e-12
    report(9, "ari matches pair counting oracle")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_model_files_round_trip_and_reject_corruption(tmp_path):
    signals, _ = generate_synthetic(2, 5, 16, seed=10)
    config = ModelConfig(num_layers=2, num_kernels=4, max_outer_iters=3, seed=10)
    model = train(signals, config)
    path = tmp_path / "model.dctl"
    save_model(path, model)
    loaded = load_model(path)
    for ours, theirs in zip(model.transforms, loaded.transforms):
        assert np.array_equal(ours, theirs)
    assert loaded.config == model.config
    assert loaded.training_trace == model.training_trace
    assert np.array_equal(encode(loaded, signals), encode(model, signals))

    payload = bytearray(path.read_bytes())
    flipped = payload.copy()
    flipped[20] ^= 0x01
    path.write_bytes(flipped)
    with pytest.raises(ModelFileChecksumError):
        load_model(path)
    magic = payload.copy()
    magic[:4] = b"JUNK"
    path.write_bytes(magic)
    with pytest.raises(ModelFileMagicError):
        load_model(path)
    version = payload.copy()
    version[4] = 9
    path.write_bytes(version)
    with pytest.raises(ModelFileVersionError):
        load_model(path)
    report(10, "model files round trip and reject corruption")


# -------------------------------------------------------------- criterion 11


def test_criterion_11_single_layer_training_matches_reference():
    from oracles import ctl_reference_trace

    rng = np.random.default_rng(1100)
    data = rng.standard_normal((6, 12))
    config = ModelConfig(num_layers=1, num_kernels=3, max_outer_iters=20,
                         objective_tol=0.0, seed=11)
    model = train(data, config)
    ours = np.asarray([entry[2] for entry in model.training_trace])
    reference = np.asarray(ctl_reference_trace(
        data, 3, config.mu, config.lam, config.beta,
        config.gamma1, config.gamma2, seed=11, iterations=20,
    ))
    assert ours.shape == reference.shape
    assert np.max(np.abs(ours - reference)) < 1e-9
    report(11, "single layer training matches reference")
