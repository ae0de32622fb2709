import numpy as np
import pytest

from plasticity_lab.linalg import (
    conv2d,
    conv2d_input_gradient,
    conv2d_kernel_gradient,
    maxpool2,
    maxpool2_backward,
)
from plasticity_lab.rng import RngStream


# --- independent oracles -------------------------------------------------

def conv2d_loops(x, kernels, bias):
    n, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    out = np.zeros((n, f, h - kh + 1, w - kw + 1))
    for ni in range(n):
        for fi in range(f):
            for i in range(h - kh + 1):
                for j in range(w - kw + 1):
                    acc = bias[fi]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[ni, ci, i + u, j + v] * kernels[fi, ci, u, v]
                    out[ni, fi, i, j] = acc
    return out


def maxpool2_loops(x):
    n, f, h, w = x.shape
    ho, wo = h // 2, w // 2
    out = np.zeros((n, f, ho, wo))
    idx = np.zeros((n, f, ho, wo), dtype=int)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    window = [
                        x[ni, fi, 2 * i, 2 * j], x[ni, fi, 2 * i, 2 * j + 1],
                        x[ni, fi, 2 * i + 1, 2 * j], x[ni, fi, 2 * i + 1, 2 * j + 1],
                    ]
                    best = 0
                    for t in range(1, 4):
                        if window[t] > window[best]:
                            best = t
                    out[ni, fi, i, j] = window[best]
                    idx[ni, fi, i, j] = best
    return out, idx


def scatter_to_window_index(grad_out, idx, shape):
    """Each window's gradient at its position idx (0..3, row-major), +0.0 elsewhere."""
    grad = np.zeros(shape)
    n, f, ho, wo = idx.shape
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    t = idx[ni, fi, i, j]
                    grad[ni, fi, 2 * i + t // 2, 2 * j + t % 2] = grad_out[ni, fi, i, j]
    return grad


def same_bytes(a, b):
    """Bit-for-bit equality, so +0.0 and -0.0 count as different."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_maxpool_against_loops(z, grad_out):
    """maxpool2 of z against the loop oracle; the backward of ReLU then pool against a
    scatter to the loop argmax of max(z, 0), times the ReLU's derivative (z > 0)."""
    assert np.array_equal(maxpool2(z), maxpool2_loops(z)[0])
    a = np.maximum(z, 0.0)
    want, idx = maxpool2_loops(a)
    got = maxpool2(a)
    assert np.array_equal(got, want)
    back = maxpool2_backward(grad_out, a, got)
    assert same_bytes(back, scatter_to_window_index(grad_out, idx, z.shape) * (z > 0))


# --- conv2d ---------------------------------------------------------------

def test_conv2d_all_ones_sums_window():
    out = conv2d(np.ones((1, 1, 5, 5)), np.ones((1, 1, 5, 5)), np.zeros(1))[0]
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 25.0


def test_conv2d_zero_kernel_gives_bias():
    x = RngStream(2).uniform(0, 1, (2, 3, 6, 7))
    bias = np.array([1.5, -0.5])
    out = conv2d(x, np.zeros((2, 3, 5, 5)), bias)[0]
    assert np.array_equal(out, np.broadcast_to(bias[None, :, None, None], out.shape))


def test_conv2d_matches_loop_oracle_single():
    rng = RngStream(3)
    x = rng.uniform(-1, 1, (1, 1, 6, 6))
    k = rng.uniform(-1, 1, (1, 1, 5, 5))
    b = rng.uniform(-1, 1, (1,))
    assert np.allclose(conv2d(x, k, b)[0], conv2d_loops(x, k, b), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("trial", range(100))
def test_conv2d_and_maxpool_match_loop_oracles(trial):
    rng = RngStream(1000 + trial)
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 3))
    f = int(rng.integers(1, 3))
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    h = kh + int(rng.integers(0, 4))
    w = kw + int(rng.integers(0, 4))
    x = rng.uniform(-1, 1, (n, c, h, w))
    k = rng.uniform(-1, 1, (f, c, kh, kw))
    b = rng.uniform(-1, 1, (f,))
    assert np.allclose(conv2d(x, k, b)[0], conv2d_loops(x, k, b), rtol=1e-12, atol=1e-12)

    hp = max(h, 2)
    xp = rng.uniform(-1, 1, (n, f, hp, hp + 1))  # one odd spatial size
    grad_out = rng.uniform(-1, 1, (n, f, hp // 2, (hp + 1) // 2))
    check_maxpool_against_loops(xp, grad_out)
    check_maxpool_against_loops(np.maximum(xp, 0.0), grad_out)  # post-ReLU: zero ties
    check_maxpool_against_loops(np.full(xp.shape, xp[0, 0, 0, 0]), grad_out)  # constant windows


def test_conv2d_gradients_match_finite_differences():
    rng = RngStream(4)
    x = rng.uniform(-1, 1, (2, 2, 6, 6))
    k = rng.uniform(-1, 1, (3, 2, 3, 3))
    b = np.zeros(3)
    upstream = rng.uniform(-1, 1, (2, 3, 4, 4))

    def objective(xv, kv):
        return float(np.sum(conv2d(xv, kv, b)[0] * upstream))

    gk = conv2d_kernel_gradient(conv2d(x, k, b)[1], upstream, 3, 3)
    gx = conv2d_input_gradient(upstream, k)
    h = 1e-6
    for arr, grad in ((x, gx), (k, gk)):
        flat = arr.ravel()
        for i in range(0, flat.size, 7):
            orig = flat[i]
            flat[i] = orig + h
            up = objective(x, k)
            flat[i] = orig - h
            down = objective(x, k)
            flat[i] = orig
            assert abs((up - down) / (2 * h) - grad.ravel()[i]) < 1e-6


# --- maxpool2 ---------------------------------------------------------------

def test_maxpool_basic_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = maxpool2(x)
    assert out[0, 0, 0, 0] == 4.0
    back = maxpool2_backward(np.full_like(out, -2.0), x, out)
    assert np.array_equal(back, [[[[0.0, 0.0], [0.0, -2.0]]]])


def test_maxpool_tie_goes_to_first():
    x = np.full((1, 2, 4, 4), 2.5)
    out = maxpool2(x)
    assert np.all(out == 2.5)
    back = maxpool2_backward(np.ones_like(out), x, out)
    assert np.all(back[:, :, 0::2, 0::2] == 1.0)  # each window's top-left entry
    assert back.sum() == out.size


def test_maxpool_backward_of_a_window_of_zeros_keeps_the_gradients_sign():
    # z <= 0 everywhere: the window routes to its top-left, where the ReLU's derivative is 0
    a = np.maximum(np.array([[[[-1.0, -2.0], [-3.0, 0.0]]]]), 0.0)
    back = maxpool2_backward(np.full((1, 1, 1, 1), -2.0), a, maxpool2(a))
    assert same_bytes(back, np.array([[[[-0.0, 0.0], [0.0, 0.0]]]]))


def test_maxpool_odd_dims_dropped_and_backward_routes():
    x = np.maximum(RngStream(6).uniform(-1, 1, (1, 1, 5, 5)), 0.0)  # the post-ReLU map
    out = maxpool2(x)
    assert out.shape == (1, 1, 2, 2)
    g = np.ones_like(out)
    back = maxpool2_backward(g, x, out)
    assert back.shape == x.shape
    assert back.sum() == out.size  # each window routes exactly one unit of gradient
    assert np.all(back[:, :, 4, :] == 0) and np.all(back[:, :, :, 4] == 0)


# --- bit-exactness tripwire -------------------------------------------------
# The einsum convolutions and argmax pooling the lab used before its im2col
# GEMMs and strided pooling. Every recorded run was made with them, so the
# replacements must match them bit for bit, not just to a tolerance.

def conv2d_einsum(x, kernels, bias):
    windows = np.lib.stride_tricks.sliding_window_view(x, kernels.shape[2:], axis=(2, 3))
    return np.einsum("nchwuv,fcuv->nfhw", windows, kernels, optimize=True) + bias[None, :, None, None]


def conv2d_kernel_gradient_einsum(x, grad_out):
    windows = np.lib.stride_tricks.sliding_window_view(x, grad_out.shape[2:], axis=(2, 3))
    return np.einsum("nfij,ncuvij->fcuv", grad_out, windows, optimize=True)


def conv2d_input_gradient_einsum(grad_out, kernels):
    kh, kw = kernels.shape[2:]
    padded = np.pad(grad_out, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    return np.einsum("nfyxuv,fcuv->ncyx", windows, kernels[:, :, ::-1, ::-1], optimize=True)


def maxpool2_argmax(x):
    n, f, h, w = x.shape
    ho, wo = h // 2, w // 2
    t = x[:, :, : ho * 2, : wo * 2].reshape(n, f, ho, 2, wo, 2)
    t = t.transpose(0, 1, 2, 4, 3, 5).reshape(n, f, ho, wo, 4)
    idx = t.argmax(axis=-1)
    return np.take_along_axis(t, idx[..., None], axis=-1)[..., 0], idx


def maxpool2_backward_argmax(grad_out, idx, shape):
    n, f, h, w = shape
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    scattered = np.zeros((n, f, ho, wo, 4))
    np.put_along_axis(scattered, idx[..., None], grad_out[..., None], axis=-1)
    grad_trim = scattered.reshape(n, f, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    grad_in = np.zeros(shape)
    grad_in[:, :, : ho * 2, : wo * 2] = grad_trim.reshape(n, f, ho * 2, wo * 2)
    return grad_in


# the inputs of the CIFAR CNN's two conv layers at batch 16; conv 5x5 then pool 2x2:
# 3x32x32 -> 16x28x28 -> 16x14x14 -> 16x10x10 -> 16x5x5
@pytest.mark.parametrize("in_shape", ((16, 3, 32, 32), (16, 16, 14, 14)))
def test_conv_and_pool_match_the_einsum_and_argmax_code_bit_for_bit(in_shape):
    rng = RngStream(77).split(*in_shape)
    x = rng.uniform(0, 1, in_shape)
    if in_shape[1] > 3:  # the second layer reads pooled post-ReLU maps
        x = np.maximum(x - 0.5, 0.0)
    fan_in = in_shape[1] * 25
    k = rng.uniform(-1, 1, (16, in_shape[1], 5, 5)) / np.sqrt(fan_in)
    b = rng.uniform(-1, 1, (16,)) / np.sqrt(fan_in)

    z, cols = conv2d(x, k, b)
    assert same_bytes(z, conv2d_einsum(x, k, b))
    assert z.transpose(1, 0, 2, 3).flags.c_contiguous  # channel-major, as the GEMM wrote it
    a = np.maximum(z, 0.0)
    assert np.mean(a == 0.0) > 0.2  # many zero ties inside pool windows

    pooled, idx = maxpool2_argmax(a)
    assert same_bytes(maxpool2(a), pooled)
    grad_out = rng.uniform(-1, 1, pooled.shape)
    dz = maxpool2_backward(grad_out, a, pooled)
    assert same_bytes(dz, maxpool2_backward_argmax(grad_out, idx, a.shape) * (z > 0))
    assert np.signbit(dz[dz == 0.0]).any()  # windows of zeros met negative gradients
    # the map's gradient keeps its order, so the kernel gradient's (F, N*Ho*Wo) grad is a view
    assert dz.transpose(1, 0, 2, 3).flags.c_contiguous
    assert np.shares_memory(dz.transpose(1, 0, 2, 3).reshape(16, -1), dz)

    dk = conv2d_kernel_gradient(cols, dz, 5, 5)
    assert same_bytes(dk, conv2d_kernel_gradient_einsum(x, dz))
    # the other GEMM orientation, whose bits every recorded run has
    assert same_bytes(dk, (dz.transpose(1, 0, 2, 3).reshape(16, -1) @ cols.T).reshape(k.shape))
    assert same_bytes(conv2d_input_gradient(dz, k), conv2d_input_gradient_einsum(dz, k))


@pytest.mark.parametrize("trial", range(40))
def test_input_gradient_matches_the_einsum_code(trial):
    # with one input channel the GEMM is a matrix-vector product, whose sums may round
    # (or sign a zero) differently from the einsum's; with two or more the bits agree
    rng = RngStream(500 + trial)
    n, c, f = (int(v) for v in rng.integers(1, 5, 3))
    kh, kw = (int(v) for v in rng.integers(1, 6, 2))
    grad_out = rng.uniform(-1, 1, (n, f, int(rng.integers(1, 8)), int(rng.integers(1, 8))))
    k = rng.uniform(-1, 1, (f, c, kh, kw))
    got, want = conv2d_input_gradient(grad_out, k), conv2d_input_gradient_einsum(grad_out, k)
    assert got.shape == (n, c, grad_out.shape[2] + kh - 1, grad_out.shape[3] + kw - 1)
    if c >= 2:
        assert same_bytes(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("trial", range(40))
def test_kernel_gradient_matches_the_einsum_code(trial):
    # fed the columns conv2d built. With one kernel or one column row the GEMM is a
    # matrix-vector product, whose sums may round differently; so may sums of 16 to 31
    # terms, for which OpenBLAS picks a small-matrix kernel by operand layout (the einsum
    # and the g @ cols.T orientation differ there too); otherwise the bits agree
    rng = RngStream(700 + trial)
    n, c, f = (int(v) for v in rng.integers(1, 5, 3))
    kh, kw = (int(v) for v in rng.integers(1, 6, 2))
    x = rng.uniform(-1, 1, (n, c, kh + int(rng.integers(0, 8)), kw + int(rng.integers(0, 8))))
    k = rng.uniform(-1, 1, (f, c, kh, kw))
    z, cols = conv2d(x, k, rng.uniform(-1, 1, (f,)))
    assert cols.shape == (c * kh * kw, z.size // f)
    grad_out = rng.uniform(-1, 1, z.shape)
    got = conv2d_kernel_gradient(cols, grad_out, kh, kw)
    want = conv2d_kernel_gradient_einsum(x, grad_out)
    assert got.shape == k.shape
    if f >= 2 and c * kh * kw >= 2 and not 16 <= cols.shape[1] < 32:
        assert same_bytes(got, want)
    else:
        assert np.allclose(got, want, rtol=0, atol=1e-12)


# the shapes of the CIFAR CNN's two conv maps at batch 16
@pytest.mark.parametrize("shape", ((16, 16, 28, 28), (16, 16, 10, 10)))
def test_bias_gradient_of_a_channel_major_map_has_the_bits_of_a_c_ordered_sum(shape):
    # nn's conv bias gradient: per-sample sums, then their sum in sample order
    rng = RngStream(88).split(*shape)
    for _ in range(200):
        # a pool's gradient: about one entry in four routed, the rest zero
        values = rng.uniform(-1, 1, (shape[1], shape[0]) + shape[2:])
        dz = (values * (rng.uniform(0, 1, values.shape) < 0.25)).transpose(1, 0, 2, 3)
        got = np.ascontiguousarray(dz.sum(axis=(2, 3))).sum(axis=0)
        assert same_bytes(got, np.ascontiguousarray(dz).sum(axis=(0, 2, 3)))


def test_every_function_keeps_a_float32_inputs_dtype():
    rng = RngStream(9)
    x = rng.uniform(-1, 1, (2, 2, 7, 7)).astype(np.float32)
    k = rng.uniform(-1, 1, (3, 2, 3, 3)).astype(np.float32)
    z, cols = conv2d(x, k, np.zeros(3, np.float32))  # a 5x5 map: the pool drops a row and column
    a = np.maximum(z, 0.0)
    pooled = maxpool2(a)
    dz = maxpool2_backward(np.ones_like(pooled), a, pooled)
    outputs = (z, cols, pooled, dz, conv2d_kernel_gradient(cols, dz, 3, 3),
               conv2d_input_gradient(dz, k))
    assert [out.dtype for out in outputs] == [np.float32] * 6
