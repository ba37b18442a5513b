"""Convolution substrate for 1-D transform layers.

Signals are real vectors of length N, kernels real vectors of length
K <= N.  Everything in this package uses true discrete convolution
(kernel index reversed) with zero padding and "same" output length; the
output is aligned so that entry n of the result collects taps centred
at offset floor((K - 1) / 2).  For N >= K this coincides with
``numpy.convolve(signal, kernel, mode="same")``:

    out[n] = sum_j kernel[j] * signal[n - j + offset]

with signal entries outside [0, N) read as zero.

Every batched convolution contracts one primitive, the strided
``toeplitz_windows`` view, with the kernels: ``toeplitz_stack`` is the
windows of (M, N) signals, and ``channelwise_forward`` convolves an
(M, N, K) stack channel by channel in O(M N K^2) time, O(M N K) memory.

A *bank* is a (K, K) matrix whose K columns are kernels; a *block* is an
(N, K) matrix holding one response column per channel.  Channels never
mix: ``multichannel_forward``, ``channelwise_forward`` on one block,
convolves column k of a block with kernel k of a bank only.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "conv_same",
    "conv_same_adjoint",
    "conv_same_matrix",
    "materialize_toeplitz",
    "toeplitz_windows",
    "toeplitz_stack",
    "channelwise_forward",
    "multichannel_forward",
]


def _as_vector(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_lengths(n, k):
    if k > n:
        raise ValueError(f"kernel length {k} exceeds signal length {n}")


def conv_same(signal, kernel):
    """Zero-padded convolution of ``signal`` with ``kernel``, output length N."""
    signal = _as_vector(signal, "signal")
    kernel = _as_vector(kernel, "kernel")
    _check_lengths(signal.size, kernel.size)
    return np.convolve(signal, kernel, mode="same")


def conv_same_adjoint(vec, kernel):
    """Transpose of ``conv_same(., kernel)`` applied to ``vec``.

    This is the correlation alignment: out[i] = sum_j kernel[j] *
    vec[i + j - offset], the exact adjoint of the zero-padded forward
    convolution (<conv_same(x, t), y> == <x, conv_same_adjoint(y, t)>).
    """
    vec = _as_vector(vec, "vec")
    kernel = _as_vector(kernel, "kernel")
    k = kernel.size
    _check_lengths(vec.size, k)
    offset = (k - 1) // 2
    full = np.convolve(vec, kernel[::-1], mode="full")
    start = k - 1 - offset
    return full[start : start + vec.size]


def materialize_toeplitz(signal, kernel_size):
    """(N, K) matrix X with ``X @ t == conv_same(signal, t)`` for every kernel t.

    Row n holds the reversed signal window centred (up to the even-length
    offset convention) at position n: X[n, j] = signal[n - j + offset].
    """
    return toeplitz_stack(_as_vector(signal, "signal")[None, :], kernel_size)[0]


def toeplitz_stack(signals, kernel_size):
    """Batched :func:`materialize_toeplitz`: (M, N) -> (M, N, K)."""
    arr = np.asarray(signals, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"signals must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signals contain non-finite values")
    k = int(kernel_size)
    if k < 1:
        raise ValueError("kernel_size must be a positive integer")
    _check_lengths(arr.shape[1], k)
    return toeplitz_windows(arr, k).copy()


def toeplitz_windows(arr, k):
    """Unchecked (M, N, ..., k) view of the windows of ``arr`` along axis 1.

    out[m, n, ..., j] = arr[m, n - j + offset, ...], zero outside [0, N).
    """
    offset = (k - 1) // 2
    pad = [(0, 0)] * arr.ndim
    pad[1] = (k - 1 - offset, offset)
    windows = sliding_window_view(np.pad(arr, pad), k, axis=1)
    return windows[..., ::-1]


def channelwise_forward(stack, bank):
    """Unchecked :func:`multichannel_forward` of every block of an (M, N, K) stack."""
    return np.einsum("mnkj,jk->mnk", toeplitz_windows(stack, bank.shape[0]), bank)


def conv_same_matrix(kernel, size):
    """(size, size) matrix C with ``C @ z == conv_same(z, kernel)``.

    C is banded Toeplitz: C[r, c] = kernel[r - c + offset] (zero outside
    the kernel support).
    """
    kernel = _as_vector(kernel, "kernel")
    n = int(size)
    if n < 1:
        raise ValueError("size must be a positive integer")
    _check_lengths(n, kernel.size)
    offset = (kernel.size - 1) // 2
    out = np.zeros((n, n))
    for j, coef in enumerate(kernel):
        # kernel tap j sits on diagonal r - c = j - offset
        d = offset - j
        idx = np.arange(max(0, -d), min(n, n - d))
        out[idx, idx + d] = coef
    return out


def multichannel_forward(block, bank):
    """Convolve channel k of ``block`` with kernel k of ``bank``, channel-wise.

    block: (N, K) coefficient block; bank: (K, K) matrix whose columns are
    kernels.  Returns the (N, K) block whose column k is
    conv_same(block[:, k], bank[:, k]).  No cross-channel summation.
    """
    block = np.asarray(block, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    if block.ndim != 2:
        raise ValueError(f"block must be 2-D, got shape {block.shape}")
    if bank.ndim != 2 or bank.shape[0] != bank.shape[1]:
        raise ValueError(f"bank must be square, got shape {bank.shape}")
    if block.shape[1] != bank.shape[0]:
        raise ValueError(
            f"channel count mismatch: block has {block.shape[1]} channels, "
            f"bank has {bank.shape[0]} kernels"
        )
    if not (np.all(np.isfinite(block)) and np.all(np.isfinite(bank))):
        raise ValueError("block or bank contains non-finite values")
    _check_lengths(block.shape[0], bank.shape[0])
    return channelwise_forward(block[None], bank)[0]
