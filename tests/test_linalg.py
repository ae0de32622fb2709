import numpy as np
import pytest

from plasticity_lab.errors import DimensionError
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


# --- conv2d ---------------------------------------------------------------

def test_conv2d_all_ones_sums_window():
    out = conv2d(np.ones((1, 1, 5, 5)), np.ones((1, 1, 5, 5)), np.zeros(1))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 25.0


def test_conv2d_zero_kernel_gives_bias():
    x = RngStream(2).uniform(0, 1, (2, 3, 6, 7))
    bias = np.array([1.5, -0.5])
    out = conv2d(x, np.zeros((2, 3, 5, 5)), bias)
    assert np.array_equal(out, np.broadcast_to(bias[None, :, None, None], out.shape))


def test_conv2d_matches_loop_oracle_single():
    rng = RngStream(3)
    x = rng.uniform(-1, 1, (1, 1, 6, 6))
    k = rng.uniform(-1, 1, (1, 1, 5, 5))
    b = rng.uniform(-1, 1, (1,))
    assert np.allclose(conv2d(x, k, b), conv2d_loops(x, k, b), rtol=1e-12, atol=1e-12)


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
    assert np.allclose(conv2d(x, k, b), conv2d_loops(x, k, b), rtol=1e-12, atol=1e-12)

    hp = max(h, 2)
    xp = rng.uniform(-1, 1, (n, f, hp, hp + 1))
    got, got_idx = maxpool2(xp)
    want, want_idx = maxpool2_loops(xp)
    assert np.array_equal(got, want)
    assert np.array_equal(got_idx, want_idx)


def test_conv2d_rejects_small_spatial():
    with pytest.raises(DimensionError):
        conv2d(np.zeros((1, 1, 4, 5)), np.zeros((1, 1, 5, 5)), np.zeros(1))


def test_conv2d_gradients_match_finite_differences():
    rng = RngStream(4)
    x = rng.uniform(-1, 1, (2, 2, 6, 6))
    k = rng.uniform(-1, 1, (3, 2, 3, 3))
    b = np.zeros(3)
    upstream = rng.uniform(-1, 1, (2, 3, 4, 4))

    def objective(xv, kv):
        return float(np.sum(conv2d(xv, kv, b) * upstream))

    gk = conv2d_kernel_gradient(x, upstream, 3, 3)
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
    out, idx = maxpool2(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out[0, 0, 0, 0] == 4.0
    assert idx[0, 0, 0, 0] == 3


def test_maxpool_tie_goes_to_first():
    out, idx = maxpool2(np.full((1, 2, 4, 4), 2.5))
    assert np.all(out == 2.5)
    assert np.all(idx == 0)


def test_maxpool_odd_dims_dropped_and_backward_routes():
    x = RngStream(6).uniform(-1, 1, (1, 1, 5, 5))
    out, idx = maxpool2(x)
    assert out.shape == (1, 1, 2, 2)
    g = np.ones_like(out)
    back = maxpool2_backward(g, idx, x.shape)
    assert back.shape == x.shape
    assert back.sum() == out.size  # each window routes exactly one unit of gradient
    assert np.all(back[:, :, 4, :] == 0) and np.all(back[:, :, :, 4] == 0)
