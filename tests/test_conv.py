"""Convolution substrate: alignment convention, Toeplitz views, adjoints."""

import numpy as np
import pytest
from scipy.ndimage import convolve1d, correlate1d

from dctl.conv import channelwise_forward, conv_same_matrix, toeplitz_stack
from dctl.model import ModelConfig, _transform_inputs
from oracles import conv_direct, conv_matrix_direct


def conv_row(signal, kernel):
    """One signal through the training tap kernel."""
    return channelwise_forward(np.asarray([signal], dtype=np.float64),
                               np.asarray(kernel, dtype=np.float64))[0]


def windows(signal, k):
    """The (N, k) window matrix of one signal, a row of :func:`toeplitz_stack`."""
    return toeplitz_stack([signal], k)[0]


def impulse_bank(k):
    """Bank whose every column is the unit impulse at the centre offset."""
    bank = np.zeros((k, k))
    bank[(k - 1) // 2, :] = 1.0
    return bank


def test_unit_impulse_kernel_is_identity():
    out = conv_row([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0])
    assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])


def test_zero_padding_boundary_sums():
    out = conv_row([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert np.array_equal(out, [2.0, 3.0, 2.0])


def test_conv_same_matches_definition_oracle():
    rng = np.random.default_rng(0)
    for n in (8, 16, 32):
        for k in range(1, 9):
            signal = rng.standard_normal(n)
            kernel = rng.standard_normal(k)
            assert np.allclose(conv_row(signal, kernel),
                               conv_direct(signal, kernel), atol=1e-12)


def test_conv_same_matches_toeplitz_product():
    rng = np.random.default_rng(1)
    for trial in range(20):
        signal = rng.standard_normal(16)
        kernel = rng.standard_normal(5)
        mat = windows(signal, 5)
        assert np.max(np.abs(conv_row(signal, kernel) - mat @ kernel)) < 1e-12


def test_toeplitz_k1_is_scaling():
    mat = windows([1.0, 0.0, 0.0, 0.0], 1)
    assert mat.shape == (4, 1)
    assert np.array_equal(mat[:, 0], [1.0, 0.0, 0.0, 0.0])


def test_toeplitz_zero_signal_is_zero_matrix():
    assert not np.any(windows(np.zeros(10), 4))


def test_toeplitz_matches_direct_convolution():
    rng = np.random.default_rng(2)
    signal = rng.standard_normal(8)
    mat = windows(signal, 3)
    for trial in range(100):
        kernel = rng.standard_normal(3)
        assert np.max(np.abs(mat @ kernel - conv_direct(signal, kernel))) < 1e-12


def test_toeplitz_direct_equivalence_grid():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (8, 16, 32):
        for k in (3, 5, 8):
            for trial in range(100):
                signal = rng.standard_normal(n)
                kernel = rng.standard_normal(k)
                dev = np.max(np.abs(windows(signal, k) @ kernel
                                    - conv_direct(signal, kernel)))
                worst = max(worst, dev)
    assert worst < 1e-12


def test_toeplitz_stack_matches_per_row():
    rng = np.random.default_rng(4)
    signals = rng.standard_normal((5, 12))
    stack = toeplitz_stack(signals, 4)
    assert stack.shape == (5, 12, 4)
    for m in range(5):
        assert np.array_equal(stack[m], windows(signals[m], 4))


def test_toeplitz_rejects_bad_input():
    with pytest.raises(ValueError):
        toeplitz_stack([[1.0, 2.0]], 3)  # kernel longer than signal
    with pytest.raises(ValueError):
        toeplitz_stack([[1.0, 2.0]], 0)
    with pytest.raises(ValueError):
        toeplitz_stack([1.0, 2.0], 1)  # one signal must be one row
    with pytest.raises(ValueError):
        toeplitz_stack(np.zeros((0, 4)), 2)
    with pytest.raises(ValueError):
        toeplitz_stack([[1.0, np.inf]], 1)


def test_conv_same_matrix_reproduces_conv():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4, 7):
        kernel = rng.standard_normal(k)
        mat = conv_same_matrix(kernel, 12)
        for trial in range(20):
            z = rng.standard_normal(12)
            assert np.max(np.abs(mat @ z - conv_direct(z, kernel))) < 1e-12


def test_conv_same_matrix_equals_dense_oracle_bit_for_bit():
    # signed zero taps included: both write them as +0.0
    for kernel in ([1.5, -0.0, 0.0, -2.25], [-0.0], [0.5, -1.0, 3.0]):
        for n in (len(kernel), len(kernel) + 5):
            assert (conv_same_matrix(kernel, n).tobytes()
                    == conv_matrix_direct(np.asarray(kernel), n).tobytes())


def test_conv_same_matrix_rejects_bad_size():
    with pytest.raises(ValueError):
        conv_same_matrix([1.0, 2.0], 1)
    with pytest.raises(ValueError):
        conv_same_matrix([1.0], 0)


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(6)
    for n, k in ((8, 3), (16, 5), (16, 4), (9, 8)):
        for trial in range(25):
            x = rng.standard_normal((2, n, k))
            y = rng.standard_normal((2, n, k))
            bank = rng.standard_normal((k, k))
            lhs = np.sum(channelwise_forward(x, bank) * y)
            rhs = np.sum(x * channelwise_forward(y, bank, adjoint=True))
            assert abs(lhs - rhs) < 1e-10


def test_adjoint_matches_matrix_transpose():
    rng = np.random.default_rng(7)
    kernel = rng.standard_normal(5)
    mat = conv_same_matrix(kernel, 11)
    rows = rng.standard_normal((20, 11))
    assert np.allclose(channelwise_forward(rows, kernel, adjoint=True), rows @ mat, atol=1e-12)


def test_multichannel_identity_bank():
    rng = np.random.default_rng(8)
    for k in (2, 3, 4, 8):
        stack = rng.standard_normal((3, 16, k))
        assert np.array_equal(channelwise_forward(stack, impulse_bank(k)), stack)


def test_multichannel_channel_independence():
    rng = np.random.default_rng(9)
    stack = np.zeros((2, 12, 4))
    stack[:, :, 0] = rng.standard_normal((2, 12))
    bank = rng.standard_normal((4, 4))
    for adjoint in (False, True):
        out = channelwise_forward(stack, bank, adjoint=adjoint)
        assert np.any(out[:, :, 0])
        assert not np.any(out[:, :, 1:])


def test_multichannel_matches_per_column_conv():
    rng = np.random.default_rng(10)
    stack = rng.standard_normal((2, 16, 4))
    bank = rng.standard_normal((4, 4))
    out = channelwise_forward(stack, bank)
    for m in range(2):
        for k in range(4):
            expected = conv_direct(stack[m, :, k], bank[:, k])
            assert np.max(np.abs(out[m, :, k] - expected)) < 1e-12


def test_multichannel_linearity():
    rng = np.random.default_rng(11)
    for trial in range(20):
        a = rng.standard_normal((2, 10, 3))
        b = rng.standard_normal((2, 10, 3))
        bank = rng.standard_normal((3, 3))
        alpha, gamma = rng.standard_normal(2)
        lhs = channelwise_forward(alpha * a + gamma * b, bank)
        rhs = (alpha * channelwise_forward(a, bank)
               + gamma * channelwise_forward(b, bank))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_channelwise_forward_writes_contiguous_channels_with_per_channel_bits():
    # the response is channel-major whatever the input's layout: each channel
    # is one contiguous (M, N) block holding the bits of a plain per-channel
    # scipy.ndimage pass over a C-ordered copy of that channel
    rng = np.random.default_rng(15)
    for m, n, k in ((5, 9, 1), (6, 20, 2), (4, 17, 5), (7, 32, 8)):
        stack = rng.standard_normal((m, n, k))
        layouts = (
            stack,
            np.ascontiguousarray(stack.transpose(2, 0, 1)).transpose(1, 2, 0),
            np.broadcast_to(stack[:, :, :1], (m, n, k)),  # layer 1 reads the data so
        )
        bank = rng.standard_normal((k, k))
        origin = (k - 1) // 2 - k // 2
        for rows in layouts:
            for adjoint, apply in ((False, convolve1d), (True, correlate1d)):
                out = channelwise_forward(rows, bank, adjoint=adjoint)
                assert out.shape == (m, n, k)
                for c in range(k):
                    assert out[:, :, c].flags.c_contiguous
                    expected = apply(np.ascontiguousarray(rows[:, :, c]), bank[:, c],
                                     axis=1, mode="constant", origin=origin)
                    assert out[:, :, c].tobytes() == expected.tobytes()


# ------------------------------------------------------------ window primitive


def test_channelwise_forward_matches_direct_convolution():
    rng = np.random.default_rng(12)
    # K=1, K=N and even K (the offset case) included
    for m, n, k in ((1, 5, 1), (3, 6, 6), (2, 7, 7), (4, 9, 2), (2, 11, 4), (3, 10, 5)):
        stack = rng.standard_normal((m, n, k))
        bank = rng.standard_normal((k, k))
        out = channelwise_forward(stack, bank)
        assert out.shape == (m, n, k)
        for i in range(m):
            for c in range(k):
                expected = conv_direct(stack[i, :, c], bank[:, c])
                assert np.max(np.abs(out[i, :, c] - expected)) < 1e-12


def _dense_windows(signal, k):
    # column j is the signal convolved with the unit impulse at tap j
    eye = np.eye(k)
    return np.stack([conv_same_matrix(eye[j], signal.size) @ signal for j in range(k)], axis=1)


def test_toeplitz_stack_matches_dense_reference():
    rng = np.random.default_rng(13)
    for n, k in ((6, 1), (6, 6), (9, 4), (12, 5)):
        signals = rng.standard_normal((3, n))
        stack = toeplitz_stack(signals, k)
        for m in range(3):
            assert np.max(np.abs(stack[m] - _dense_windows(signals[m], k))) < 1e-12


def test_transform_inputs_match_dense_reference():
    rng = np.random.default_rng(14)
    for m, n, k in ((3, 8, 2), (2, 9, 3), (4, 6, 6)):
        config = ModelConfig(num_layers=2, num_kernels=k)
        data = rng.standard_normal((m, n))
        transforms = [rng.standard_normal((k, k)) for _ in range(2)]
        coeffs = [np.abs(rng.standard_normal((m, n, k))) for _ in range(2)]
        first = _transform_inputs(0, transforms, coeffs, data, config)
        views = [_dense_windows(data[i], k) for i in range(m)]
        gram = sum(v.T @ v for v in views)
        cross = sum(v.T @ coeffs[0][i] for i, v in enumerate(views))
        assert np.max(np.abs(first.gram - gram)) < 1e-12
        assert np.max(np.abs(first.cross - cross)) < 1e-12
        # deeper layer: per-channel Gram matrices G_c, cross column c is
        # gram @ a_c - G_c @ a_c + sum_m X_mc^T z_mc for anchor column a_c
        deep = _transform_inputs(1, transforms, coeffs, data, config)
        anchor = transforms[1]
        gram = np.zeros((k, k))
        cross = np.zeros((k, k))
        for c in range(k):
            views = [_dense_windows(coeffs[0][i, :, c], k) for i in range(m)]
            per_channel = sum(v.T @ v for v in views)
            gram += per_channel
            cross[:, c] = sum(v.T @ coeffs[1][i, :, c] for i, v in enumerate(views))
            cross[:, c] -= per_channel @ anchor[:, c]
        cross += gram @ anchor
        assert np.max(np.abs(deep.gram - gram)) < 1e-12
        assert np.max(np.abs(deep.cross - cross)) < 1e-12
