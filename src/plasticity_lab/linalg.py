"""Convolution and pooling primitives.

Tensors are plain numpy float64 arrays in row-major order. All reductions
here are deterministic for a fixed platform and input; nothing is
parallelized within a run. Convolutions are "valid" (no padding, stride 1)
and pooling is 2x2 with stride 2, matching the conventions the experiments
assume.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a batch with a kernel bank, plus bias.

    x: (N, C, H, W), kernels: (F, C, kh, kw), bias: (F,).
    Returns (N, F, H-kh+1, W-kw+1).
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 4 or kernels.ndim != 4 or x.shape[1] != kernels.shape[1]:
        raise DimensionError(f"conv2d: incompatible shapes {x.shape} x {kernels.shape}")
    kh, kw = kernels.shape[2], kernels.shape[3]
    if x.shape[2] < kh or x.shape[3] < kw:
        raise DimensionError(
            f"conv2d: spatial dims {x.shape[2:]} smaller than kernel {(kh, kw)}"
        )
    if bias.shape != (kernels.shape[0],):
        raise DimensionError(f"conv2d: bias shape {bias.shape} != ({kernels.shape[0]},)")
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("nchwuv,fcuv->nfhw", windows, kernels, optimize=True)
    return out + bias[None, :, None, None]


def conv2d_kernel_gradient(x: np.ndarray, grad_out: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Gradient of conv2d w.r.t. the kernels given upstream grad (N,F,Ho,Wo)."""
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    windows = np.lib.stride_tricks.sliding_window_view(x, (ho, wo), axis=(2, 3))
    # windows: (N, C, kh, kw, Ho, Wo)
    return np.einsum("nfij,ncuvij->fcuv", grad_out, windows, optimize=True)


def conv2d_input_gradient(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input: full correlation with flipped kernels."""
    kh, kw = kernels.shape[2], kernels.shape[3]
    padded = np.pad(grad_out, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    flipped = kernels[:, :, ::-1, ::-1]
    return np.einsum("nfyxuv,fcuv->ncyx", windows, flipped, optimize=True)


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pool with stride 2; trailing odd rows/columns are dropped.

    Returns (pooled, argmax) where argmax holds each window's winning
    position in row-major window order (0..3); ties go to the first
    element, so a constant window reports index 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"maxpool2: expected 4-D input, got shape {x.shape}")
    n, f, h, w = x.shape
    if h < 2 or w < 2:
        raise DimensionError(f"maxpool2: spatial dims {(h, w)} must be >= 2")
    ho, wo = h // 2, w // 2
    t = x[:, :, : ho * 2, : wo * 2].reshape(n, f, ho, 2, wo, 2)
    t = t.transpose(0, 1, 2, 4, 3, 5).reshape(n, f, ho, wo, 4)
    idx = t.argmax(axis=-1)
    out = np.take_along_axis(t, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool2_backward(grad_out: np.ndarray, idx: np.ndarray, input_shape) -> np.ndarray:
    """Route pooled gradients back to the argmax positions recorded by maxpool2."""
    n, f, h, w = input_shape
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    scattered = np.zeros((n, f, ho, wo, 4), dtype=np.float64)
    np.put_along_axis(scattered, idx[..., None], grad_out[..., None], axis=-1)
    grad_trim = scattered.reshape(n, f, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    grad_trim = grad_trim.reshape(n, f, ho * 2, wo * 2)
    grad_in = np.zeros((n, f, h, w), dtype=np.float64)
    grad_in[:, :, : ho * 2, : wo * 2] = grad_trim
    return grad_in
