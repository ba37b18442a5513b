"""Proximity operators and the projected Newton coefficient solver."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import dctl.data
import dctl.model
import dctl.prox
from dctl.prox import (
    ACTIVE_SET_EPS,
    CoeffQuadratics,
    NewtonSettings,
    NumericalConditioningError,
    TransformUpdateInputs,
    projected_newton_coeffs,
    prox_logdet_svd,
    prox_nonneg_l1,
    update_transform,
)
from dctl.prox import (
    _block_gradient,
    _block_values,
    _cholesky_bands,
    _conv_rows,
    _free_direction,
    _hessian_bands,
    _newton_direction,
)
from oracles import (
    coeff_objective_direct,
    coeff_pg_oracle,
    conv_matrix_direct,
    fd_gradient,
    golden_section,
    grid_search_scalar_prox,
    projected_newton_reference,
    transform_gd_oracle,
    transform_objective,
)


def random_transform_instance(rng, k):
    """A well-posed random transform subproblem of size k."""
    a = rng.standard_normal((2 * k, k))
    gram = a.T @ a
    cross = rng.standard_normal((k, k))
    while True:
        anchor = np.eye(k) + 0.3 * rng.standard_normal((k, k))
        if np.linalg.svd(anchor, compute_uv=False).min() > 0.05:
            break
    mu = float(rng.uniform(0.0, 0.5))
    lam = float(rng.uniform(0.1, 2.0))
    gamma1 = float(rng.uniform(0.5, 5.0))
    return TransformUpdateInputs(gram, cross, anchor, mu, lam, gamma1)


def random_coeff_instance(rng, m, n, k):
    below = rng.standard_normal((m, n, k))
    bank = rng.standard_normal((k, k)) / np.sqrt(k)
    above = np.maximum(rng.standard_normal((m, n, k)), 0.0)
    quad = CoeffQuadratics(below, bank, above)
    z0 = np.maximum(rng.standard_normal((m, n, k)), 0.0)
    beta = float(rng.uniform(0.0, 0.3))
    gamma2 = float(rng.uniform(0.5, 5.0))
    return z0, quad, beta, gamma2


def channel_blocks(z, anchor, quad, c):
    """The solver's per-channel operands: (zs, C zs, a, b, c, kernel)."""
    kernel = quad.bank_above[:, c]
    zs = np.ascontiguousarray(z[:, :, c])
    return (zs, _conv_rows(zs, kernel), anchor[:, :, c], quad.below[:, :, c],
            quad.above[:, :, c], kernel)


def coeff_value(z, anchor, quad, beta, gamma2):
    """Coefficient objective: the solver's block values summed over channels."""
    total = 0.0
    for c in range(z.shape[2]):
        zs, cz, a, b, above, _ = channel_blocks(z, anchor, quad, c)
        total += float(_block_values(zs, cz, a, b, above, beta, 1.0 / gamma2).sum())
    return total


def coeff_grad(z, anchor, quad, beta, gamma2):
    """Gradient of :func:`coeff_value`, one channel at a time through the solver."""
    grad = np.empty(z.shape)
    for c in range(z.shape[2]):
        grad[:, :, c] = _block_gradient(*channel_blocks(z, anchor, quad, c), beta, 1.0 / gamma2)
    return grad


# ---------------------------------------------------------------- scalar prox


def test_prox_nonneg_l1_boundary():
    assert prox_nonneg_l1(0.0, 0.5, 1.0) == 0.0


def test_prox_nonneg_l1_interior_shift():
    assert prox_nonneg_l1(2.0, 0.5, 1.0) == 1.5


def test_prox_nonneg_l1_matches_grid_oracle():
    rng = np.random.default_rng(20)
    for trial in range(150):
        v = float(rng.uniform(-2.0, 8.0))
        beta = float(rng.uniform(0.01, 2.0))
        weight = float(rng.uniform(0.1, 5.0))
        closed = prox_nonneg_l1(v, beta, weight)
        assert abs(closed - grid_search_scalar_prox(v, beta, weight)) <= 1e-4


def test_prox_nonneg_l1_vectorized():
    out = prox_nonneg_l1(np.array([-1.0, 0.2, 3.0]), 0.5, 2.0)
    assert np.array_equal(out, [0.0, 0.0, 2.75])


def test_prox_nonneg_l1_monotone_and_nonexpansive():
    rng = np.random.default_rng(21)
    for trial in range(200):
        u1, u2 = rng.uniform(-5.0, 5.0, size=2)
        beta = float(rng.uniform(0.01, 2.0))
        weight = float(rng.uniform(0.1, 5.0))
        p1 = prox_nonneg_l1(u1, beta, weight)
        p2 = prox_nonneg_l1(u2, beta, weight)
        if u1 <= u2:
            assert p1 <= p2
        else:
            assert p1 >= p2
        assert abs(p1 - p2) <= abs(u1 - u2) + 1e-15


def test_prox_nonneg_l1_descent():
    rng = np.random.default_rng(22)
    for trial in range(100):
        v = float(rng.uniform(-3.0, 6.0))
        z_start = float(rng.uniform(0.0, 6.0))
        beta = float(rng.uniform(0.01, 1.0))
        weight = float(rng.uniform(0.1, 5.0))
        z_new = prox_nonneg_l1(v, beta, weight)

        def value(z):
            return 0.5 * weight * (z - v) ** 2 + beta * z

        assert value(z_new) <= value(z_start) + 1e-12


def test_prox_nonneg_l1_rejects_bad_parameters():
    # beta == 0, which ModelConfig allows, is the projection onto z >= 0
    v = np.random.default_rng(23).standard_normal(50) * np.logspace(-300, 3, 50)
    for weight in (0.5, 1.0, 3.0):
        assert np.maximum(v, 0.0).tobytes() == prox_nonneg_l1(v, 0.0, weight).tobytes()
    for beta, weight in ((-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                         (np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError):
            prox_nonneg_l1(1.0, beta, weight)


def test_prox_nonneg_l1_in_place_keeps_the_bits():
    rng = np.random.default_rng(24)
    for beta, weight in ((0.0, 1.0), (0.3, 1.0), (0.7, 3.0)):
        v = rng.standard_normal((4, 6, 3))
        expected = prox_nonneg_l1(v, beta, weight)
        out = prox_nonneg_l1(v, beta, weight, out=v)
        assert out is v
        assert out.tobytes() == expected.tobytes()


# ------------------------------------------------------------- log-det  prox


def test_prox_logdet_zero_input():
    out = prox_logdet_svd(np.zeros((2, 2)), 1.0)
    svals = np.linalg.svd(out, compute_uv=False)
    assert np.allclose(svals, [1.0, 1.0], atol=1e-12)


def test_prox_logdet_vanishing_lambda_limit():
    y = 3.0 * np.eye(3)
    assert np.allclose(prox_logdet_svd(y, 1e-14), y, atol=1e-16)


def test_prox_logdet_stationarity_per_singular_value():
    rng = np.random.default_rng(23)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        y = rng.standard_normal((k, k))
        lam = float(rng.uniform(0.05, 3.0))
        s = np.linalg.svd(y, compute_uv=False)
        s_new = np.linalg.svd(prox_logdet_svd(y, lam), compute_uv=False)
        assert np.max(np.abs(s_new - s - lam / s_new)) < 1e-10
        assert s_new.min() >= np.sqrt(lam) - 1e-12


def test_prox_logdet_matches_numerical_minimizer():
    rng = np.random.default_rng(24)
    y = rng.standard_normal((3, 3))
    lam = 0.7

    def value(flat):
        x = flat.reshape(3, 3)
        svals = np.linalg.svd(x, compute_uv=False)
        if svals.min() <= 0:
            return np.inf
        return 0.5 * np.sum((x - y) ** 2) - lam * np.sum(np.log(svals))

    out = prox_logdet_svd(y, lam)
    best = np.inf
    for start in (out + 0.05 * rng.standard_normal((3, 3)), y + np.eye(3)):
        res = scipy.optimize.minimize(value, start.ravel(), method="BFGS",
                                      options={"maxiter": 2000})
        best = min(best, float(res.fun))
    assert value(out.ravel()) <= best + 1e-6


def test_prox_logdet_rejects_bad_input():
    with pytest.raises(ValueError):
        prox_logdet_svd(np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError):
        prox_logdet_svd(np.zeros((2, 2)), 0.0)
    with pytest.raises(ValueError):
        prox_logdet_svd(np.zeros((2, 2)), -1.0)


# ------------------------------------------------------------ bank subproblem


def test_update_transform_scalar_golden_section():
    inputs = TransformUpdateInputs([[1.0]], [[1.0]], [[1.0]], 0.0, 0.5, 1e12)
    t = float(update_transform(inputs)[0, 0])

    def phi(scalar):
        return transform_objective(np.array([[scalar]]), inputs.gram,
                                   inputs.cross, inputs.anchor, 0.0, 0.5, 1e12)

    reference = golden_section(phi, 1e-6, 5.0)
    assert abs(t - reference) <= 1e-6
    # gamma1 -> inf limit solves t^2 - t - 0.5 = 0
    assert abs(t - (1.0 + np.sqrt(3.0)) / 2.0) < 1e-9


def test_update_transform_least_squares_limit():
    rng = np.random.default_rng(25)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cross = q @ np.diag([1.0, 1.5, 2.0]) @ q.T
    inputs = TransformUpdateInputs(np.eye(3), cross, np.zeros((3, 3)),
                                   0.0, 1e-12, 1e12)
    assert np.allclose(update_transform(inputs), cross, atol=1e-5)


def test_update_transform_beats_gd_oracle():
    rng = np.random.default_rng(26)
    for trial in range(5):
        inputs = random_transform_instance(rng, 3)
        t = update_transform(inputs)
        f_closed = transform_objective(t, inputs.gram, inputs.cross, inputs.anchor,
                                       inputs.mu, inputs.lam, inputs.gamma1)
        f_oracle, _ = transform_gd_oracle(inputs.gram, inputs.cross, inputs.anchor,
                                          inputs.mu, inputs.lam, inputs.gamma1,
                                          iters=3000, n_starts=3, seed=trial)
        assert f_closed <= f_oracle + 1e-6


def test_update_transform_stationarity():
    rng = np.random.default_rng(27)
    for trial in range(30):
        k = int(rng.integers(1, 6))
        inputs = random_transform_instance(rng, k)
        t = update_transform(inputs)
        w = inputs.gram + (1.0 / inputs.gamma1 + 2.0 * inputs.mu) * np.eye(k)
        g = inputs.cross + inputs.anchor / inputs.gamma1
        residual = w @ t - g - inputs.lam * np.linalg.inv(t).T
        assert np.linalg.norm(residual) < 1e-6 * max(np.linalg.norm(g), 1.0)


def test_update_transform_descent_from_anchor():
    rng = np.random.default_rng(28)
    for trial in range(100):
        k = int(rng.integers(1, 4))
        inputs = random_transform_instance(rng, k)
        t = update_transform(inputs)
        f_new = transform_objective(t, inputs.gram, inputs.cross, inputs.anchor,
                                    inputs.mu, inputs.lam, inputs.gamma1)
        f_anchor = transform_objective(inputs.anchor, inputs.gram, inputs.cross,
                                       inputs.anchor, inputs.mu, inputs.lam,
                                       inputs.gamma1)
        assert f_new <= f_anchor + 1e-9


def test_update_transform_singular_values_positive():
    rng = np.random.default_rng(29)
    for trial in range(30):
        inputs = random_transform_instance(rng, 4)
        svals = np.linalg.svd(update_transform(inputs), compute_uv=False)
        assert svals.min() > 0.0


def test_update_transform_jitter_rescues_semidefinite_gram():
    # gram is a hair below zero; the jittered factorization must still work
    inputs = TransformUpdateInputs([[-1e-16]], [[1.0]], [[1.0]], 0.0, 0.5, 1e20)
    t = float(update_transform(inputs)[0, 0])
    assert np.isfinite(t) and t > 0


def test_update_transform_hopeless_gram_raises():
    inputs = TransformUpdateInputs([[-1.0]], [[1.0]], [[1.0]], 0.0, 0.5, 1e12)
    with pytest.raises(NumericalConditioningError):
        update_transform(inputs)


def test_update_transform_requires_inputs_type():
    with pytest.raises(ValueError):
        update_transform({"gram": np.eye(2)})


def test_transform_inputs_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        TransformUpdateInputs([[0.0, 1.0], [0.0, 0.0]], eye, eye, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        TransformUpdateInputs(eye, np.zeros((2, 3)), eye, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        TransformUpdateInputs(eye, eye, eye, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        TransformUpdateInputs(eye, eye, eye, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TransformUpdateInputs(eye, eye, eye, 0.0, 1.0, 0.0)


# -------------------------------------------------------- newton coefficients


def test_newton_settings_defaults():
    st = NewtonSettings()
    assert st.max_iters == 50
    assert st.grad_tol == 1e-8
    # the line search and active set are fixed, not settings
    assert [f.name for f in dataclasses.fields(st)] == ["max_iters", "grad_tol"]
    assert dctl.prox.ARMIJO_C == 1e-4
    assert dctl.prox.BACKTRACK_FACTOR == 0.5
    assert ACTIVE_SET_EPS == 1e-10


def test_newton_settings_validation():
    with pytest.raises(ValueError):
        NewtonSettings(max_iters=0)
    with pytest.raises(ValueError):
        NewtonSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        NewtonSettings(grad_tol=float("nan"))
    for retired in ("armijo_c", "backtrack_factor", "active_set_eps"):
        with pytest.raises(TypeError, match=retired):
            NewtonSettings(**{retired: 0.5})


def test_newton_settings_max_iters_is_an_int():
    for bad in (True, 2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            NewtonSettings(max_iters=bad)
    assert type(NewtonSettings(max_iters=np.int32(7)).max_iters) is int


@pytest.mark.parametrize("name", ["grad_tol"])
def test_newton_settings_float_fields_refuse_bools(name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        NewtonSettings(**{name: True})


def test_projected_newton_decoupled_closed_form():
    rng = np.random.default_rng(30)
    below = rng.standard_normal((3, 10, 2))
    quad = CoeffQuadratics(below, np.zeros((2, 2)), np.zeros((3, 10, 2)))
    z0 = np.maximum(rng.standard_normal((3, 10, 2)), 0.0)
    gamma2 = 0.8
    result = projected_newton_coeffs(z0, quad, 0.0, gamma2)
    inv_g2 = 1.0 / gamma2
    expected = np.maximum((inv_g2 * z0 + below) / (inv_g2 + 1.0), 0.0)
    assert result.converged
    assert np.max(np.abs(result.coeffs - expected)) < 1e-10


def test_projected_newton_huge_beta_zeroes_everything():
    rng = np.random.default_rng(31)
    z0, quad, _, gamma2 = random_coeff_instance(rng, 2, 8, 2)
    result = projected_newton_coeffs(z0, quad, 1e6, gamma2)
    assert not np.any(result.coeffs)


def test_projected_newton_matches_pg_oracle():
    rng = np.random.default_rng(32)
    for trial in range(2):
        z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 8, 2)
        result = projected_newton_coeffs(z0, quad, beta, gamma2)
        z_ref = coeff_pg_oracle(z0, quad.below, quad.bank_above, quad.above,
                                beta, gamma2, iters=50_000)
        f_newton = coeff_value(result.coeffs, z0, quad, beta, gamma2)
        f_ref = coeff_value(z_ref, z0, quad, beta, gamma2)
        assert f_newton <= f_ref + 1e-6


def test_projected_newton_output_nonnegative_exactly():
    rng = np.random.default_rng(33)
    for trial in range(10):
        z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 6, 3)
        result = projected_newton_coeffs(z0, quad, beta, gamma2)
        assert result.coeffs.min() >= 0.0


def test_projected_newton_descent():
    rng = np.random.default_rng(34)
    for trial in range(100):
        z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 6, 2)
        result = projected_newton_coeffs(z0, quad, beta, gamma2)
        f_new = coeff_value(result.coeffs, z0, quad, beta, gamma2)
        f_old = coeff_value(z0, z0, quad, beta, gamma2)
        assert f_new <= f_old + 1e-9


def test_projected_newton_iteration_cap_returns_flag():
    rng = np.random.default_rng(35)
    z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 10, 2)
    settings = NewtonSettings(max_iters=1, grad_tol=1e-14)
    result = projected_newton_coeffs(z0, quad, beta, gamma2, settings)
    assert not result.converged
    f_new = coeff_value(result.coeffs, z0, quad, beta, gamma2)
    assert f_new <= coeff_value(z0, z0, quad, beta, gamma2) + 1e-9


def test_projected_newton_first_order_optimality():
    rng = np.random.default_rng(36)
    for trial in range(10):
        z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 8, 2)
        result = projected_newton_coeffs(z0, quad, beta, gamma2)
        grad = coeff_grad(result.coeffs, z0, quad, beta, gamma2)
        tol = 10 * NewtonSettings().grad_tol
        interior = result.coeffs > ACTIVE_SET_EPS
        assert np.all(np.abs(grad[interior]) <= tol)
        assert np.all(grad[~interior] >= -tol)


def test_conv_rows_matches_dense_convolution_matrix():
    # forward is C @ row and the adjoint C^T @ row per row, for K=1, K=2,
    # odd K, even K and K=N, on (M, N) rows and with a (K, C) bank over
    # (M, N, C) rows, where channel c uses its own matrix C_c
    rng = np.random.default_rng(43)
    for k, n in ((1, 6), (2, 7), (3, 9), (5, 11), (4, 10), (6, 13), (8, 8), (7, 7)):
        kernel = rng.standard_normal(k)
        rows = rng.standard_normal((4, n))
        cmat = conv_matrix_direct(kernel, n)
        assert np.max(np.abs(_conv_rows(rows, kernel) - rows @ cmat.T)) < 1e-12, (k, n)
        assert np.max(np.abs(_conv_rows(rows, kernel, adjoint=True) - rows @ cmat)) < 1e-12
        bank = rng.standard_normal((k, 3))
        stack = rng.standard_normal((4, n, 3))
        forward = _conv_rows(stack, bank)
        adjoint = _conv_rows(stack, bank, adjoint=True)
        for c in range(3):
            cmat = conv_matrix_direct(bank[:, c], n)
            assert np.max(np.abs(forward[:, :, c] - stack[:, :, c] @ cmat.T)) < 1e-12
            assert np.max(np.abs(adjoint[:, :, c] - stack[:, :, c] @ cmat)) < 1e-12


def test_hessian_bands_match_dense_hessian():
    rng = np.random.default_rng(40)
    shapes = [(1, 1), (1, 5), (4, 4), (7, 7), (4, 9), (6, 13), (8, 8)]
    shapes += [(int(k), int(rng.integers(k, 3 * k + 2))) for k in rng.integers(1, 9, size=12)]
    for k, n in shapes:
        kernel = rng.standard_normal(k)
        shift = float(rng.uniform(1.0, 3.0))
        bands = _hessian_bands(kernel, n, shift)
        cmat = conv_matrix_direct(kernel, n)
        dense = cmat.T @ cmat + shift * np.eye(n)
        rebuilt = np.zeros((n, n))
        for d in range(k):
            idx = np.arange(n - d)
            rebuilt[idx + d, idx] = rebuilt[idx, idx + d] = bands[d, : n - d]
            assert not np.any(bands[d, n - d :])
        assert np.allclose(rebuilt, dense, rtol=0.0, atol=1e-12), (k, n)


def test_newton_direction_matches_dense_active_set_split():
    # free coordinates get H_FF^{-1} g_F, clamped ones g_C, block by block
    rng = np.random.default_rng(42)
    for k, n in ((1, 5), (3, 9), (4, 4), (6, 11)):
        kernel = rng.standard_normal(k)
        hess = conv_matrix_direct(kernel, n).T @ conv_matrix_direct(kernel, n) + 1.5 * np.eye(n)
        grad = rng.standard_normal((5, n))
        free = rng.uniform(size=(5, n)) < 0.7
        free[0], free[1] = True, False
        direction = _newton_direction(_hessian_bands(kernel, n, 1.5), grad, free)
        for g, f, d in zip(grad, free, direction):
            expected = g.copy()
            if f.any():
                expected[f] = np.linalg.solve(hess[np.ix_(f, f)], g[f])
            assert np.allclose(d, expected, rtol=1e-10, atol=1e-12), (k, n)


def test_free_direction_matches_dense_solve_and_tiled_bits():
    # blocks with no clamped coordinate solve with H's shared banded factor
    # at every K: H^{-1} g to 1e-10, and the tiled solve's bits at every K
    # but 2, where solveh_banded factors by LDL^T and agrees to 1e-10
    rng = np.random.default_rng(44)
    for k, n in ((1, 5), (2, 7), (2, 128), (3, 9), (4, 4), (6, 11), (8, 128)):
        kernel = rng.standard_normal(k)
        cmat = conv_matrix_direct(kernel, n)
        hess = cmat.T @ cmat + 1.5 * np.eye(n)
        bands = _hessian_bands(kernel, n, 1.5)
        grad = rng.standard_normal((5, n))
        direction = _free_direction(_cholesky_bands(bands), grad)
        expected = np.linalg.solve(hess, grad.T).T
        assert np.allclose(direction, expected, rtol=1e-10, atol=1e-12), (k, n)
        tiled = _newton_direction(bands, grad, np.ones((5, n), dtype=bool))
        if k == 2:
            assert np.allclose(direction, tiled, rtol=1e-10, atol=1e-12), n
        else:
            assert direction.tobytes() == tiled.tobytes(), (k, n)


def test_train_deep_shape_takes_shared_factor_path(monkeypatch):
    # at M=200, N=128, K=8, L=3 about half of the Newton block solves are
    # fully free; they must go through cho_solve_banded, not the tiled solve
    calls = []
    solve = scipy.linalg.cho_solve_banded

    def counting(*args, **kwargs):
        calls.append(args[1].shape[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", counting)
    signals, _ = dctl.data.generate_synthetic(4, 50, 128, noise_sigma=0.3, seed=1)
    config = dctl.model.ModelConfig(num_layers=3, num_kernels=8, max_outer_iters=1,
                                    objective_tol=0.0)
    dctl.model.train(dctl.data.normalize_per_sample(signals), config)
    # 1,681 of the 3,371 block solves of this training are fully free
    assert sum(calls) > 1000


def _newton_reference_instance(rng, m, n, k, kind=None):
    """Coefficient data whose rows pull up (kind 0, fully free), push down
    (kind 1, fully clamped) or mix (kind 2), by row index mod 3; ``kind``
    gives every row the same kind."""
    kinds = (np.arange(m) % 3 if kind is None else np.full(m, kind))[:, None, None]
    up = 6.0 + rng.uniform(0.0, 1.0, (m, n, k))
    below = np.choose(kinds, [up, -up, 2.0 * rng.standard_normal((m, n, k))])
    bank = 0.5 * rng.standard_normal((k, k)) / np.sqrt(k)
    above = np.where(kinds == 1, 0.0, np.maximum(rng.standard_normal((m, n, k)), 0.0))
    z0 = np.maximum(rng.standard_normal((m, n, k)), 0.0)
    return z0, CoeffQuadratics(below, bank, above)


@pytest.mark.parametrize(
    "m, n, k, kind, settings",
    [
        (6, 12, 4, 0, NewtonSettings()),  # all fully free
        (9, 12, 4, None, NewtonSettings()),  # free, clamped and mixed blocks
        (6, 12, 4, 1, NewtonSettings()),  # all clamped
        (9, 10, 3, None, NewtonSettings(max_iters=1, grad_tol=1e-14)),  # unconverged
        # stalls: a dict gives module constants to patch, with default settings
        (9, 12, 4, None, {"ARMIJO_C": 0.9, "BACKTRACK_FACTOR": 1e-15}),
        # Armijo decisions at round-off level, where the order of the terms
        # of a block's value decides them
        (30, 32, 4, None, NewtonSettings(max_iters=12, grad_tol=1e-15)),
        (9, 9, 1, None, NewtonSettings()),
        (9, 11, 2, None, NewtonSettings()),
        (200, 128, 8, None, NewtonSettings()),
        (12, 1024, 8, None, NewtonSettings()),
    ],
)
def test_projected_newton_matches_reference_bitwise(m, n, k, kind, settings, monkeypatch):
    if isinstance(settings, dict):
        for name, value in settings.items():
            monkeypatch.setattr(dctl.prox, name, value)
        settings = NewtonSettings()
    rng = np.random.default_rng(45 + n + k)
    z0, quad = _newton_reference_instance(rng, m, n, k, kind)
    beta, gamma2 = 0.05, 1.5
    result = projected_newton_coeffs(z0, quad, beta, gamma2, settings)
    coeffs, converged, iterations = projected_newton_reference(
        z0, quad.below, quad.bank_above, quad.above, beta, gamma2, settings
    )
    assert result.coeffs.tobytes() == coeffs.tobytes()
    assert (result.converged, result.iterations) == (converged, iterations)
    if kind == 0:
        assert np.all(result.coeffs > ACTIVE_SET_EPS)
    if kind == 1:
        assert not np.any(result.coeffs)
    if dctl.prox.BACKTRACK_FACTOR < 1e-14:
        assert not converged and iterations < settings.max_iters
    if settings.max_iters == 1:
        assert not converged


@pytest.mark.parametrize("m, n, k", [(9, 12, 4), (40, 64, 8)])
def test_projected_newton_is_bitwise_blind_to_the_input_layout(m, n, k):
    # channel-major inputs are read in place, C-ordered ones copied a channel
    # at a time; the coefficients come out channel-major either way
    rng = np.random.default_rng(46 + k)
    z0, quad = _newton_reference_instance(rng, m, n, k)

    def channel_major(x):
        return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)

    by_rows = projected_newton_coeffs(z0, quad, 0.05, 1.5)
    by_channels = projected_newton_coeffs(
        channel_major(z0),
        CoeffQuadratics(channel_major(quad.below), quad.bank_above, channel_major(quad.above)),
        0.05, 1.5,
    )
    assert by_rows.coeffs.tobytes() == by_channels.coeffs.tobytes()
    assert by_rows[1:] == by_channels[1:]
    for result in (by_rows, by_channels):
        assert all(result.coeffs[:, :, c].flags.c_contiguous for c in range(k))


def test_projected_newton_mixed_free_and_clamped_blocks():
    # samples 0-1 pull every coordinate up (fully free blocks), samples 2-3
    # push every coordinate to zero (fully clamped) and samples 4-5 mix signs
    rng = np.random.default_rng(41)
    m, n, k = 6, 12, 4
    below = np.concatenate([
        3.0 + rng.uniform(0.0, 1.0, (2, n, k)),
        -3.0 - rng.uniform(0.0, 1.0, (2, n, k)),
        2.0 * rng.standard_normal((2, n, k)),
    ])
    bank = rng.standard_normal((k, k)) / np.sqrt(k)
    above = np.maximum(rng.standard_normal((m, n, k)), 0.0)
    above[2:4] = 0.0
    quad = CoeffQuadratics(below, bank, above)
    z0 = np.maximum(rng.standard_normal((m, n, k)), 0.0)
    beta, gamma2 = 0.1, 2.0
    result = projected_newton_coeffs(z0, quad, beta, gamma2)
    assert result.converged
    z = result.coeffs
    eps = ACTIVE_SET_EPS
    assert np.all(z[:2] > eps)
    assert not np.any(z[2:4])
    mixed = z[4:].transpose(0, 2, 1).reshape(-1, n)
    assert np.any((mixed > eps).any(axis=1) & (mixed <= eps).any(axis=1))
    z_ref = coeff_pg_oracle(z0, below, bank, above, beta, gamma2, iters=20_000)
    assert np.max(np.abs(z - z_ref)) < 1e-6
    grad = coeff_grad(z, z0, quad, beta, gamma2)
    tol = 10 * NewtonSettings().grad_tol
    interior = z > eps
    assert np.all(np.abs(grad[interior]) <= tol)
    assert np.all(grad[~interior] >= -tol)


def test_projected_newton_validates_arguments():
    rng = np.random.default_rng(37)
    z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 6, 2)
    with pytest.raises(ValueError):
        projected_newton_coeffs(z0, {"below": quad.below}, beta, gamma2)
    with pytest.raises(ValueError):
        projected_newton_coeffs(z0[:, :-1, :], quad, beta, gamma2)
    with pytest.raises(ValueError):
        projected_newton_coeffs(z0, quad, -0.1, gamma2)
    with pytest.raises(ValueError):
        projected_newton_coeffs(z0, quad, beta, 0.0)
    with pytest.raises(ValueError):
        projected_newton_coeffs(z0, quad, beta, gamma2, settings={"max_iters": 3})


def test_coeff_quadratics_validation():
    with pytest.raises(ValueError):
        CoeffQuadratics(np.zeros((2, 8)), np.zeros((2, 2)), np.zeros((2, 8, 2)))
    with pytest.raises(ValueError):
        CoeffQuadratics(np.zeros((2, 8, 2)), np.zeros((3, 3)), np.zeros((2, 8, 2)))
    with pytest.raises(ValueError):
        CoeffQuadratics(np.zeros((2, 8, 2)), np.zeros((2, 2)), np.zeros((2, 7, 2)))
    with pytest.raises(ValueError):
        CoeffQuadratics(np.zeros((2, 1, 2)), np.zeros((2, 2)), np.zeros((2, 1, 2)))


def test_coeff_objective_matches_direct_oracle():
    rng = np.random.default_rng(38)
    for trial in range(10):
        z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 8, 2)
        z = np.maximum(rng.standard_normal(z0.shape), 0.0)
        ours = coeff_value(z, z0, quad, beta, gamma2)
        ref = coeff_objective_direct(z, z0, quad.below, quad.bank_above,
                                     quad.above, beta, gamma2)
        assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))


def test_coeff_gradient_matches_finite_differences():
    rng = np.random.default_rng(39)
    for trial in range(3):
        z0, quad, beta, gamma2 = random_coeff_instance(rng, 2, 6, 2)
        z = np.maximum(rng.standard_normal(z0.shape), 0.0) + 0.1
        grad = coeff_grad(z, z0, quad, beta, gamma2)
        ref = fd_gradient(lambda zz: coeff_value(zz, z0, quad, beta, gamma2),
                          z, step=1e-6)
        assert np.linalg.norm(grad - ref) < 1e-5 * max(np.linalg.norm(ref), 1.0)
