"""Convolution and pooling primitives.

Tensors are numpy arrays indexed (N, C, H, W), each allocated here in its input's dtype. A conv
map keeps the channel-major (C, N, H, W) memory order its GEMM writes, as does the pool's
backward of it, so no map is copied to be reordered. Reductions are deterministic for a fixed
platform and input; nothing is parallelized within a run. Convolutions are "valid" (no padding,
stride 1) and pooling is 2x2 with stride 2, matching the conventions the experiments assume.
"""

from __future__ import annotations

import numpy as np


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col (C*kh*kw, N*Ho*Wo): entry ((c, u, v), (n, i, j)) is x[n, c, i+u, j+v]. A fresh
    copy (230 MiB for a 512-sample probe's layer 0), kept past its GEMM only by `nn.forward`."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(x.shape[1] * kh * kw, -1)


def conv2d(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Valid cross-correlation of a batch with a kernel bank, plus bias: one GEMM.

    x: (N, C, H, W), kernels: (F, C, kh, kw), bias: (F,), float arrays of one dtype
    with H >= kh and W >= kw (`nn.NetworkSpec` checks the extents).
    Returns the (N, F, H-kh+1, W-kw+1) map, a view of the GEMM's channel-major product,
    and the im2col columns of x (`_columns`), which `conv2d_kernel_gradient` takes for x.
    """
    f, _, kh, kw = kernels.shape
    n, ho, wo = x.shape[0], x.shape[2] - kh + 1, x.shape[3] - kw + 1
    cols = _columns(x, kh, kw)
    prod = kernels.reshape(f, -1) @ cols
    prod += bias[:, None]  # the adds of the transposed layout, on the contiguous product
    return prod.reshape(f, n, ho, wo).transpose(1, 0, 2, 3), cols


def conv2d_kernel_gradient(cols: np.ndarray, grad_out: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d w.r.t. the kernels, from the columns conv2d returned for its input and
    upstream grad (N,F,Ho,Wo): one GEMM, cols @ G.T for the (F, N*Ho*Wo) grad G, transposed.
    On the CIFAR CNN's layers it has the bits of G @ cols.T, in less time; G is a view
    of a channel-major grad, as `maxpool2_backward` gives for a conv map, else a copy."""
    f = grad_out.shape[1]
    grad = cols @ grad_out.transpose(1, 0, 2, 3).reshape(f, -1).T
    return grad.T.reshape(f, -1, kh, kw)


def conv2d_input_gradient(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input: full correlation with flipped kernels,
    as one conv2d of the zero-padded gradient with the (C, F, kh, kw) flipped bank."""
    (n, f, ho, wo), (c, kh, kw) = grad_out.shape, kernels.shape[1:]
    padded = np.zeros((n, f, ho + 2 * (kh - 1), wo + 2 * (kw - 1)), dtype=grad_out.dtype)
    padded[:, :, kh - 1 : kh - 1 + ho, kw - 1 : kw - 1 + wo] = grad_out
    flipped, zeros = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), np.zeros(c, grad_out.dtype)
    return conv2d(padded, flipped, zeros)[0]


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pool, stride 2, odd trailing rows/columns dropped (sizes checked in nn)."""
    even = x[:, :, : x.shape[2] // 2 * 2, : x.shape[3] // 2 * 2]
    out = np.maximum(even[..., 0::2, 0::2], even[..., 0::2, 1::2])
    np.maximum(out, even[..., 1::2, 0::2], out=out)
    return np.maximum(out, even[..., 1::2, 1::2], out=out)


def maxpool2_backward(grad_out: np.ndarray, x: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """Gradient of ReLU then 2x2 max pool w.r.t. the pre-ReLU map z, given x = max(z, 0) and
    `pooled` = maxpool2(x): the bits of routing, then multiplying by (z > 0) = (x > 0).

    Each window's gradient goes to its first entry of x (row-major) equal to `pooled`, as
    argmax breaks ties, so a constant window routes to its top-left; elsewhere +0.0. Only a
    window of zeros routes to an entry with x == 0, its top-left, so only the top-left slot
    is multiplied, by (pooled > 0): a negative gradient there becomes -0.0.
    """
    ho2, wo2 = 2 * pooled.shape[2], 2 * pooled.shape[3]
    # in x's memory order; on an even map the four slots write every entry, an odd one drops some
    grad_in = (np.empty_like if x.shape[2:] == (ho2, wo2) else np.zeros_like)(x)
    free = np.ones_like(pooled, dtype=bool)  # windows not routed yet
    routed = grad_out * (pooled > 0)  # the top-left slot's gradient
    bits = np.dtype(f"i{grad_in.itemsize}")  # a signed integer as wide as an entry
    for du, dv in ((0, 0), (0, 1), (1, 0), (1, 1)):
        slot = (..., slice(du, ho2, 2), slice(dv, wo2, 2))
        hit = (x[slot] == pooled) & free
        free ^= hit
        # routed's exact bits where hit, else +0.0: np.where's result without its branches
        mask = np.negative(hit, dtype=bits)
        np.bitwise_and(routed.view(bits), mask, out=grad_in[slot].view(bits))
        routed = grad_out  # a later slot's entry is routed to only if it is positive
    return grad_in
