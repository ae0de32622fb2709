"""Convolution and pooling primitives.

Tensors are plain numpy float64 arrays in row-major order. All reductions
here are deterministic for a fixed platform and input; nothing is
parallelized within a run. Convolutions are "valid" (no padding, stride 1)
and pooling is 2x2 with stride 2, matching the conventions the experiments
assume.
"""

from __future__ import annotations

import numpy as np


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col (C*kh*kw, N*Ho*Wo): entry ((c, u, v), (n, i, j)) is x[n, c, i+u, j+v]. A fresh
    copy, dropped after its one GEMM: a 512-sample probe's layer-0 columns are 230 MiB."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(x.shape[1] * kh * kw, -1)


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a batch with a kernel bank, plus bias: one GEMM.

    x: (N, C, H, W), kernels: (F, C, kh, kw), bias: (F,), float64 arrays
    with H >= kh and W >= kw (`nn.NetworkSpec` checks the extents).
    Returns a C-contiguous (N, F, H-kh+1, W-kw+1).
    """
    f, _, kh, kw = kernels.shape
    n, ho, wo = x.shape[0], x.shape[2] - kh + 1, x.shape[3] - kw + 1
    prod = kernels.reshape(f, -1) @ _columns(x, kh, kw)
    prod += bias[:, None]  # the adds of the transposed layout, on the contiguous product
    return np.ascontiguousarray(prod.reshape(f, n, ho, wo).transpose(1, 0, 2, 3))


def conv2d_kernel_gradient(x: np.ndarray, grad_out: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d w.r.t. the kernels given upstream grad (N,F,Ho,Wo): one GEMM."""
    f = grad_out.shape[1]
    grad = grad_out.transpose(1, 0, 2, 3).reshape(f, -1) @ _columns(x, kh, kw).T
    return grad.reshape(f, x.shape[1], kh, kw)


def conv2d_input_gradient(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input: full correlation with flipped kernels,
    as one conv2d of the padded gradient with the (C, F, kh, kw) flipped bank."""
    c, kh, kw = kernels.shape[1:]
    padded = np.pad(grad_out, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    return conv2d(padded, kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), np.zeros(c))


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
    # on an even map the four slots write every entry; an odd one drops a row or column
    grad_in = (np.empty if x.shape[2:] == (ho2, wo2) else np.zeros)(x.shape)
    free = np.ones(pooled.shape, dtype=bool)  # windows not routed yet
    routed = grad_out * (pooled > 0)  # the top-left slot's gradient
    for du, dv in ((0, 0), (0, 1), (1, 0), (1, 1)):
        slot = (..., slice(du, ho2, 2), slice(dv, wo2, 2))
        hit = (x[slot] == pooled) & free
        free ^= hit
        # routed's exact bits where hit, else +0.0: np.where's result without its branches
        mask = np.negative(hit, dtype=np.int64)
        np.bitwise_and(routed.view(np.int64), mask, out=grad_in[slot].view(np.int64))
        routed = grad_out  # a later slot's entry is routed to only if it is positive
    return grad_in
