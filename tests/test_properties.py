"""Property tests of the training tap kernel over random shapes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dctl.conv import channelwise_forward
from dctl.prox import _conv_rows
from oracles import conv_direct


@st.composite
def stacks(draw):
    """(seed, M, N, K) with 1 <= K <= N, as the trainer allows."""
    n = draw(st.integers(1, 24))
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 4)),
        n,
        draw(st.integers(1, n)),
    )


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_channelwise_forward_equals_direct_convolution(shape):
    seed, m, n, k = shape
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((m, n, k))
    bank = rng.standard_normal((k, k))
    out = channelwise_forward(stack, bank)
    assert out.shape == (m, n, k)
    for i in range(m):
        for c in range(k):
            expected = conv_direct(stack[i, :, c], bank[:, c])
            assert np.max(np.abs(out[i, :, c] - expected)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_conv_rows_adjoint_inner_product_identity(shape):
    # <C x, y> == <x, C^T y> for a 1-D kernel over (M, N) rows and a
    # (K, C) bank over (M, N, C) rows
    seed, m, n, k = shape
    rng = np.random.default_rng(seed)
    for kernel, dims in ((rng.standard_normal(k), (m, n)),
                         (rng.standard_normal((k, 3)), (m, n, 3))):
        x = rng.standard_normal(dims)
        y = rng.standard_normal(dims)
        lhs = np.sum(_conv_rows(x, kernel) * y)
        rhs = np.sum(x * _conv_rows(y, kernel, adjoint=True))
        scale = np.sum(np.abs(kernel)) * np.sqrt(np.sum(x * x) * np.sum(y * y))
        assert abs(lhs - rhs) <= 1e-13 * scale
