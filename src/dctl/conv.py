"""Convolution substrate for 1-D transform layers.

Signals are real vectors of length N, kernels real vectors of length
K <= N.  Everything in this package uses true discrete convolution
(kernel index reversed) with zero padding and "same" output length; the
output is aligned so that entry n of the result collects taps centred
at offset floor((K - 1) / 2).  For N >= K this coincides with
``numpy.convolve(signal, kernel, mode="same")``:

    out[n] = sum_j kernel[j] * signal[n - j + offset]

with signal entries outside [0, N) read as zero.

Batched convolutions use two primitives, one per job:

* ``channelwise_forward`` is the one tap kernel every training
  convolution runs through: ``scipy.ndimage.convolve1d`` along axis 1
  (``correlate1d`` for the adjoint), called once per channel of an
  (M, N, C) stack or once for (M, N) rows, in O(M N K) time per channel
  and no memory beyond its output.  It serves the forward pass of every
  layer (layer 1 reads the (M, N) signals broadcast to K channels, a
  view), the projected Newton solve and its line search.  At M=200,
  N=128, K=8 a deep forward from one channel-major stack to another
  takes 1.7 ms, against 2.4-2.7 ms between position-major stacks and
  5.4 ms for an ``einsum`` over the window view (20 against 47-56 ms at
  M=2000; 1.0-1.2 against 1.2-1.6 ms at M=16, N=1024); a first-layer
  forward 1.6-1.8 ms, against 2.8 ms for the copied Toeplitz stack times
  the bank; and a (200, 128) row convolution 0.19 ms, against 0.44 ms
  for a Python shift-and-add over the taps.
* ``toeplitz_windows``, the strided view of the windows of a stack, is
  kept where the windows themselves are the operand: the bank updates
  copy them to one contiguous (M N, K) matrix, the signals' windows for
  layer 1 (``toeplitz_stack``) and one channel's at a time for deeper
  layers, to form their Gram matrices with BLAS.

``conv_same_matrix`` writes one kernel's convolution out as a dense
(N, N) matrix, column by column through ``channelwise_forward``; training
never forms it.

A *bank* is a (K, K) matrix whose K columns are kernels; a *block* is an
(N, K) matrix holding one response column per channel.  Channels never
mix: ``channelwise_forward`` convolves column k of a block with kernel k
of a bank only.

Stacks keep the logical (M, N, K) shape everywhere, but the ones
training and encoding allocate are channel-major in memory
(:func:`channel_major`): channel k is one contiguous (M, N) block, so
each per-channel ``scipy.ndimage`` pass and each channel's Newton solve
reads and writes contiguous memory.  Only the encoder's last layer is
position-major, so that its (M, N K) feature rows are a view.  The
layout changes no bit of any response; sums over a whole stack
(``np.sum``) follow memory order, so they may differ in the last bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import convolve1d, correlate1d

__all__ = [
    "conv_same_matrix",
    "toeplitz_windows",
    "toeplitz_stack",
    "channelwise_forward",
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


def toeplitz_stack(signals, kernel_size):
    """Checked (M, N, K) copy of :func:`toeplitz_windows` of (M, N) ``signals``.

    ``out[m] @ t`` convolves signal m with the kernel t.
    """
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
    Convolving through this view pads a copy of ``arr`` and contracts a
    strided 4-D array, twice as slow as :func:`channelwise_forward`, so
    it only serves callers that need the windows themselves: the Gram
    matrices of the bank updates, which copy it to one contiguous
    (M N, k) matrix (for layer 1 through :func:`toeplitz_stack`, for
    deeper layers one per channel) and multiply with BLAS.  A deep layer
    takes 9 ms at M=200, N=128, k=8, against 20 ms for ``einsum`` over
    the 4-D view; layer 1 takes 0.6 ms, against 1.8 ms for ``einsum``
    over the copied stack.
    """
    offset = (k - 1) // 2
    pad = [(0, 0)] * arr.ndim
    pad[1] = (k - 1 - offset, offset)
    windows = sliding_window_view(np.pad(arr, pad), k, axis=1)
    return windows[..., ::-1]


def channel_major(m, n, c):
    """Uninitialized (m, n, c) float64 stack laid out channel by channel.

    Its logical shape is the position-major one every caller indexes, but
    ``stack[:, :, k]`` is one contiguous (m, n) block, so a per-channel
    pass reads and writes it without strides.
    """
    return np.empty((c, m, n)).transpose(1, 2, 0)


def channelwise_forward(rows, kernel, adjoint=False, out=None):
    """Unchecked same-length convolution along axis 1 of ``rows``, or its adjoint.

    A 1-D kernel convolves every row of (M, N) ``rows``; a (K, C) bank
    convolves channel c of (M, N, C) rows with column c, so an (M, N, K)
    stack and a (K, K) bank give the channel-wise response of every
    block.  ``adjoint`` applies the transpose, the correlation
    out[i] = sum_j kernel[j] * rows[i + j - offset].  Each call is one
    compiled ``scipy.ndimage`` pass per channel whose origin shift gives
    the offset convention, even K included; see the module docstring for
    the measured reason this is the training kernel.  A stack response
    is written to ``out`` when given, else to a new :func:`channel_major`
    stack; the layout changes no bit of the result.
    """
    k = kernel.shape[0]
    origin = (k - 1) // 2 - k // 2
    apply = correlate1d if adjoint else convolve1d
    if kernel.ndim == 1:
        return apply(rows, kernel, axis=1, output=out, mode="constant", origin=origin)
    if out is None:
        out = channel_major(*rows.shape)
    for c in range(kernel.shape[1]):
        apply(rows[:, :, c], kernel[:, c], axis=1, output=out[:, :, c],
              mode="constant", origin=origin)
    return out


def conv_same_matrix(kernel, size):
    """(size, size) matrix C whose product ``C @ z`` convolves z with ``kernel``.

    C is banded Toeplitz, C[r, c] = kernel[r - c + offset] (zero outside
    the kernel support); column c is :func:`channelwise_forward` of the
    unit impulse at c.  Adding 0.0 writes a -0.0 tap as +0.0.
    """
    kernel = _as_vector(kernel, "kernel")
    n = int(size)
    if n < 1:
        raise ValueError("size must be a positive integer")
    _check_lengths(n, kernel.size)
    return channelwise_forward(np.eye(n), kernel).T + 0.0
