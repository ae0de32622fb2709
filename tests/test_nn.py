import tracemalloc

import numpy as np
import pytest

from conftest import double_the_gradient, random_instance, tiny_cnn_spec, tiny_mlp_spec
from plasticity_lab.linalg import _columns, conv2d, conv2d_input_gradient, conv2d_kernel_gradient
from plasticity_lab.nn import (
    PROBE_CHUNK,
    NetworkSpec,
    ParameterSet,
    _ln_backward,
    _ln_forward,
    _log_softmax,
    finite_difference_max_error,
    forward,
    hidden_feature_matrices,
    init_params,
    layer_shapes,
    loss_and_grad,
    training_loss,
)
from plasticity_lab.rng import RngStream


def fd_gradients(spec, params, images, labels, h=1e-5):
    """Central finite differences of the cross-entropy loss, written from scratch."""
    grads = {}
    for name, arr in params.values.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = training_loss(spec, params, images, labels)
            flat[i] = orig - h
            down = training_loss(spec, params, images, labels)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric, floor=1e-8):
    """Worst relative disagreement; |a - n| <= floor counts as agreement."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        diff = np.abs(a - n)
        mask = diff > floor
        if mask.any():
            scale = np.maximum(np.abs(a), np.abs(n))
            worst = max(worst, float(np.max(diff[mask] / scale[mask])))
    return worst


# --- initialization -----------------------------------------------------

def test_mlp_parameter_shapes_match_architecture():
    spec = NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100))
    params = init_params(spec, RngStream(0).split("init"))
    shapes = [params.values[k].shape for k in ("w0", "b0", "w1", "b1", "w2", "b2")]
    assert shapes == [(784, 100), (100,), (100, 100), (100,), (100, 10), (10,)]


def test_cnn_parameter_shapes_and_flat_width():
    spec = NetworkSpec(kind="cnn", input_shape=(3, 32, 32), hidden_widths=(10,))
    weights, fan_ins, outputs = zip(*layer_shapes(spec))
    assert outputs == ((16, 28, 28), (16, 10, 10), (10,), (10,))  # conv maps before the pool
    assert weights == ((16, 3, 5, 5), (16, 16, 5, 5), (400, 10), (10, 10))  # 16 x 5 x 5 flat
    assert fan_ins == (3 * 25, 16 * 25, 400, 10)
    params = init_params(spec, RngStream(0).split("init"))
    assert [params.values[f"w{l}"].shape for l in range(4)] == list(weights)
    assert [params.values[f"b{l}"].shape for l in range(4)] == [(16,), (16,), (10,), (10,)]


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
@pytest.mark.parametrize("layer_norm", [False, True], ids=("plain", "ln"))
def test_init_is_a_draw_of_draw_initial(kind, layer_norm):
    spec = NetworkSpec(kind=kind, input_shape=(784,) if kind == "mlp" else (3, 32, 32),
                       hidden_widths=(100, 100) if kind == "mlp" else (10,),
                       layer_norm=layer_norm)
    init_rng, draw_rng = RngStream(8).split("init"), RngStream(8).split("init")
    params = init_params(spec, init_rng)
    drawn = params.draw_initial(draw_rng, np.full(params.flat.size, np.nan))
    assert np.array_equal(params.flat.view(np.int64), drawn.view(np.int64))
    assert np.array_equal(params.flat0.view(np.int64), drawn.view(np.int64))
    assert init_rng.uniform(0.0, 1.0) == draw_rng.uniform(0.0, 1.0)  # the same stream state after


def test_init_values_within_fan_in_bound():
    spec = NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100))
    params = init_params(spec, RngStream(3).split("init"))
    for layer, fan_in in ((0, 784), (1, 100), (2, 100)):
        bound = 1.0 / np.sqrt(fan_in)
        for key in (f"w{layer}", f"b{layer}"):
            assert np.all(np.abs(params.values[key]) <= bound)


def test_init_deterministic_per_seed():
    spec = tiny_mlp_spec()
    a = init_params(spec, RngStream(9).split("init"))
    b = init_params(spec, RngStream(9).split("init"))
    for k in a.values:
        assert np.array_equal(a.values[k], b.values[k])


def test_initial_snapshot_frozen_and_equal():
    spec = tiny_mlp_spec()
    params = init_params(spec, RngStream(1).split("init"))
    initial = params.named(params.flat0)
    for k in params.values:
        assert np.array_equal(params.values[k], initial[k])
    with pytest.raises(ValueError):
        initial["w0"][0, 0] = 5.0


def test_values_are_fixed_views_of_one_flat_vector():
    params = init_params(tiny_mlp_spec(layer_norm=True), RngStream(1).split("init"))
    for k in params.values:
        assert np.shares_memory(params.values[k], params.flat)
        assert np.shares_memory(params.grad[k], params.work[0])
    for name in ("values", "grad", "flat", "flat0"):
        with pytest.raises(AttributeError):
            setattr(params, name, {})
    for mapping in (params.values, params.grad):
        with pytest.raises(TypeError):
            mapping["w0"] = np.zeros((6, 5))


def test_a_constant_tensor_may_precede_a_uniform_one():
    params = ParameterSet({"gain0": np.ones(3), "w0": np.zeros((2, 4))},
                          {"gain0": ("const", 1.5), "w0": ("uniform", 0.25)})
    rng, ref = RngStream(4), RngStream(4)
    drawn = params.named(params.draw_initial(rng, np.full(params.flat.size, np.nan)))
    assert np.all(drawn["gain0"] == 1.5)
    want = ref.uniform(-0.25, 0.25, (2, 4))
    assert np.array_equal(drawn["w0"].view(np.int64), want.view(np.int64))
    assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)  # the same stream state after


def test_layer_norm_affines_start_at_identity():
    params = init_params(tiny_mlp_spec(layer_norm=True), RngStream(0).split("init"))
    assert np.all(params.values["gain0"] == 1.0)
    assert np.all(params.values["shift1"] == 0.0)


# --- forward --------------------------------------------------------------

def test_zero_params_give_zero_logits():
    for spec in (tiny_mlp_spec(), tiny_cnn_spec(), tiny_mlp_spec(layer_norm=True)):
        params, images, _ = random_instance(spec, seed=0)
        for k in params.values:
            if not k.startswith("gain"):
                params.values[k][...] = 0.0
        logits, _ = forward(spec, params, images)
        assert np.array_equal(logits, np.zeros_like(logits))


def test_logits_shape_for_batch_of_16():
    spec = NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100))
    params = init_params(spec, RngStream(0).split("init"))
    images = RngStream(1).uniform(0, 1, (16, 784))
    logits, _ = forward(spec, params, images)
    assert logits.shape == (16, 10)


def test_forward_rejects_wrong_batch_shape():
    spec = tiny_mlp_spec()
    params, _, _ = random_instance(spec, seed=0)
    with pytest.raises(ValueError, match=r"forward: batch shape \(4, 7\) != expected"):
        forward(spec, params, np.zeros((4, 7)))


def test_cnn_spec_rejects_small_spatial():
    # the one check on conv extents: conv2d trusts the shapes NetworkSpec admits
    for shape, message in [
        ((1, 4, 5), r"\(1, 4, 5\): conv layer 0's input map 4x5 is too small for 5x5 conv"),
        ((1, 5, 5), r"\(1, 5, 5\): conv layer 0's feature map 1x1 is too small for 2x2 max pool"),
        ((1, 12, 12), r"\(1, 12, 12\): conv layer 1's input map 4x4 is too small for 5x5 conv"),
        ((1, 14, 14), r"\(1, 14, 14\): conv layer 1's feature map 1x1 is too small for 2x2 max"),
    ]:
        with pytest.raises(ValueError, match=message):
            NetworkSpec(kind="cnn", input_shape=shape)
    NetworkSpec(kind="cnn", input_shape=(1, 16, 16))  # conv layer 1: 6x6 in, 2x2 out, 1x1 pooled


def test_cnn_spec_rejects_no_conv_layer():
    # forward flattens a CNN's maps after its last conv layer; with none it would matmul 3-D input
    with pytest.raises(ValueError, match="a cnn needs at least one conv layer"):
        NetworkSpec(kind="cnn", input_shape=(3, 8, 8), conv_channels=(), hidden_widths=(4,))


@pytest.mark.parametrize("kw, message", [
    (dict(kind="rnn", input_shape=(4,)), "unknown network kind 'rnn'"),
    (dict(kind="mlp", input_shape=(2, 2)), r"mlp input_shape must be 1-D: \(2, 2\)"),
    (dict(kind="cnn", input_shape=(16, 16)), r"cnn input_shape must be 3-D: \(16, 16\)"),
    (dict(kind="mlp", input_shape=(4,), hidden_widths=()), "needs at least one hidden layer"),
], ids=("kind", "mlp_rank", "cnn_rank", "no_hidden_layer"))
def test_network_spec_rejects_what_it_cannot_lay_out(kw, message):
    with pytest.raises(ValueError, match=message):
        NetworkSpec(**kw)


@pytest.mark.parametrize("shape", [(3,), (4, 1)], ids=("short", "2-d"))
def test_loss_and_grad_rejects_labels_not_one_per_sample(shape):
    spec = tiny_mlp_spec()
    params, images, _ = random_instance(spec, seed=0)
    logits, cache = forward(spec, params, images)
    with pytest.raises(ValueError, match=r"labels shape .* incompatible with logits \(4, 3\)"):
        loss_and_grad(spec, params, cache, logits, np.zeros(shape, dtype=np.int64))


def test_the_gradient_check_gates_a_wrong_gradient(monkeypatch):
    spec = tiny_mlp_spec()
    params, images, labels = random_instance(spec, seed=0)
    assert finite_difference_max_error(spec, params, images, labels)[0] < 1e-4
    double_the_gradient(monkeypatch)
    gated, unfloored = finite_difference_max_error(spec, params, images, labels)
    assert 1e-4 < gated <= unfloored


def test_forward_deterministic():
    spec = tiny_cnn_spec(layer_norm=True)
    params, images, _ = random_instance(spec, seed=5)
    a, _ = forward(spec, params, images)
    b, _ = forward(spec, params, images)
    assert np.array_equal(a, b)


def test_layer_norm_normalizes_preactivations():
    spec = tiny_mlp_spec(layer_norm=True)
    params, images, _ = random_instance(spec, seed=2, batch=8)
    _, cache = forward(spec, params, images)
    for xhat, _ in cache.ln:
        assert np.max(np.abs(xhat.mean(axis=1))) < 1e-9
        assert np.max(np.abs(xhat.var(axis=1) - 1.0)) < 1e-9


# --- loss and gradients -----------------------------------------------------

def test_uniform_logits_loss_is_log_num_classes():
    spec = NetworkSpec(kind="mlp", input_shape=(4,), hidden_widths=(3,), num_classes=10)
    params = init_params(spec, RngStream(0).split("init"))
    logits = np.ones((5, 10)) * 0.7
    _, cache = forward(spec, params, RngStream(1).uniform(0, 1, (5, 4)))
    loss, _ = loss_and_grad(spec, params, cache, logits, np.zeros(5, dtype=int))
    assert np.isclose(loss, np.log(10.0), atol=1e-12)


def test_logit_gradient_is_softmax_minus_onehot():
    spec = tiny_mlp_spec()
    params, images, labels = random_instance(spec, seed=3)
    logits, cache = forward(spec, params, images)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    grads = params.named(grad)
    probs = np.exp(logits - logits.max(1, keepdims=True))
    probs /= probs.sum(1, keepdims=True)
    onehot = np.eye(spec.num_classes)[labels]
    dlogits = (probs - onehot) / logits.shape[0]
    # last-layer bias gradient is the column sum of dlogits
    assert np.allclose(grads["b2"], dlogits.sum(axis=0), atol=1e-12)
    a_last = cache.inputs[-1]
    assert np.allclose(grads["w2"], a_last.T @ dlogits, atol=1e-12)


def test_loss_rejects_out_of_range_labels():
    spec = tiny_mlp_spec()
    params, images, labels = random_instance(spec, seed=4)
    logits, cache = forward(spec, params, images)
    labels = labels.copy()
    labels[0] = spec.num_classes
    with pytest.raises(ValueError):
        loss_and_grad(spec, params, cache, logits, labels)


def test_cache_is_single_use():
    spec = tiny_mlp_spec()
    params, images, labels = random_instance(spec, seed=4)
    logits, cache = forward(spec, params, images)
    loss_and_grad(spec, params, cache, logits, labels)
    with pytest.raises(ValueError):
        loss_and_grad(spec, params, cache, logits, labels)


@pytest.mark.parametrize("layer_norm", [False, True])
@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_gradients_match_finite_differences(kind, layer_norm):
    spec = tiny_mlp_spec(layer_norm) if kind == "mlp" else tiny_cnn_spec(layer_norm)
    params, images, labels = random_instance(spec, seed=17, batch=6)
    logits, cache = forward(spec, params, images)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    grads = params.named(grad)
    assert all(np.abs(g).max() > 1e-8 for g in grads.values())  # check is non-vacuous
    numeric = fd_gradients(spec, params, images, labels)
    assert max_rel_error(grads, numeric) < 1e-4


@pytest.mark.parametrize("layer_norm", [False, True], ids=("plain", "layer_norm"))
def test_gradients_of_odd_maps_match_finite_differences(layer_norm):
    # the first map is 13x13, so its max pool drops a row and a column
    spec = NetworkSpec(kind="cnn", input_shape=(2, 17, 17), conv_channels=(3, 3),
                       hidden_widths=(4,), layer_norm=layer_norm)
    assert layer_shapes(spec)[0][2] == (3, 13, 13)
    params, images, labels = random_instance(spec, seed=19, batch=6)
    logits, cache = forward(spec, params, images)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    grads = params.named(grad)
    assert all(np.abs(g).max() > 1e-8 for g in grads.values())  # check is non-vacuous
    numeric = fd_gradients(spec, params, images, labels)
    assert max_rel_error(grads, numeric) < 1e-4


def argmax_pool(a):
    """2x2 max pool and each window's argmax (0..3, row-major, the first of ties)."""
    n, f, ho, wo = a.shape[0], a.shape[1], a.shape[2] // 2, a.shape[3] // 2
    t = a[:, :, : 2 * ho, : 2 * wo].reshape(n, f, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5)
    t = t.reshape(n, f, ho, wo, 4)
    idx = t.argmax(axis=-1)
    return np.take_along_axis(t, idx[..., None], axis=-1)[..., 0], idx


def scatter_to_argmax(grad_out, idx, shape):
    """Each window's gradient at its argmax, +0.0 elsewhere, on a map of `shape`."""
    n, f, ho, wo = grad_out.shape
    scattered = np.zeros((n, f, ho, wo, 4))
    np.put_along_axis(scattered, idx[..., None], grad_out[..., None], axis=-1)
    grad = np.zeros(shape)
    windows = scattered.reshape(n, f, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    grad[:, :, : 2 * ho, : 2 * wo] = windows.reshape(n, f, 2 * ho, 2 * wo)
    return grad


def unfused_gradient(spec, params, images, labels):
    """The gradient row by the unfused recipe, and conv layer 0's dz: each pool's gradient
    scattered to the argmax of max(y, 0), then multiplied by (y > 0) over the whole map."""
    v, g = params.values, {}
    n_conv, out_layer = len(spec.convs), len(spec.convs) + len(spec.hidden_widths)
    h, inputs, ys, lns, idxs = images, [], [], [], []
    for l in range(out_layer):
        inputs.append(h)
        y = conv2d(h, v[f"w{l}"], v[f"b{l}"])[0] if l < n_conv else h @ v[f"w{l}"] + v[f"b{l}"]
        if spec.layer_norm:
            out, xhat, inv_std = _ln_forward(y.reshape(len(y), -1), v[f"gain{l}"], v[f"shift{l}"])
            y = out.reshape(y.shape)
            lns.append((xhat, inv_std))
        ys.append(y)
        h = np.maximum(y, 0.0)
        if l < n_conv:
            h, idx = argmax_pool(h)
            idxs.append(idx)
            h = h.reshape(len(h), -1) if l == n_conv - 1 else h
    d = np.exp(_log_softmax(h @ v[f"w{out_layer}"] + v[f"b{out_layer}"]))
    d[np.arange(len(d)), labels] -= 1.0
    d /= len(d)
    g[f"w{out_layer}"], g[f"b{out_layer}"] = h.T @ d, d.sum(axis=0)
    da = d @ v[f"w{out_layer}"].T
    for l in reversed(range(out_layer)):
        y, w = ys[l], v[f"w{l}"]
        if l < n_conv:
            da = scatter_to_argmax(da.reshape(idxs[l].shape), idxs[l], y.shape)
        dz = da * (y > 0)
        if l == 0:
            dz0 = dz
        if spec.layer_norm:
            dz2d, g[f"gain{l}"], g[f"shift{l}"] = _ln_backward(dz.reshape(len(dz), -1),
                                                               v[f"gain{l}"], *lns[l])
            dz = dz2d.reshape(dz.shape)
        if l < n_conv:
            g[f"w{l}"] = conv2d_kernel_gradient(_columns(inputs[l], 5, 5), dz, 5, 5)
            g[f"b{l}"] = dz.sum(axis=(0, 2, 3))
            da = conv2d_input_gradient(dz, w)
        else:
            g[f"w{l}"], g[f"b{l}"] = inputs[l].T @ dz, dz.sum(axis=0)
            da = dz @ w.T
    return np.concatenate([g[name].ravel() for name in v]), dz0


@pytest.mark.parametrize("layer_norm", [False, True], ids=("plain", "layer_norm"))
def test_cnn_gradient_has_the_bits_of_the_unfused_relu_and_pool_backward(layer_norm):
    # the CIFAR CNN at batch 16; conv 0's channel 0 never activates, so its windows of
    # zeros meet upstream gradients of both signs, and -0.0 != +0.0 in the comparison
    spec = NetworkSpec(kind="cnn", input_shape=(3, 32, 32), layer_norm=layer_norm)
    params, images, labels = random_instance(spec, seed=23, batch=16)
    params.values["b0"][0] = -100.0
    want, dz0 = unfused_gradient(spec, params, images, labels)
    assert np.signbit(dz0[:, 0][dz0[:, 0] == 0.0]).any()
    assert not np.signbit(dz0[:, 0]).all()
    logits, cache = forward(spec, params, images)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    assert grad.tobytes() == want.tobytes()


def test_only_a_training_forward_holds_conv_columns_until_the_backward():
    # the CIFAR CNN at batch 16: one column matrix per conv layer, each dropped by the backward
    spec = NetworkSpec(kind="cnn", input_shape=(3, 32, 32))
    params, images, labels = random_instance(spec, seed=29, batch=16)
    logits, cache = forward(spec, params, images)
    assert [c.shape for c in cache.cols] == [(75, 16 * 28 * 28), (400, 16 * 10 * 10)]
    loss_and_grad(spec, params, cache, logits, labels)
    assert cache.cols == []

    mlp = tiny_mlp_spec()
    mparams, mimages, _ = random_instance(mlp, seed=29)
    assert forward(mlp, mparams, mimages)[1].cols == []


def test_dead_unit_gets_zero_incoming_gradient():
    spec = tiny_mlp_spec()
    params, images, labels = random_instance(spec, seed=6)
    params.values["b0"][2] = -100.0  # unit 2 of layer 0 never activates
    logits, cache = forward(spec, params, images)
    assert np.all(cache.acts[0][:, 2] == 0)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    grads = params.named(grad)
    assert np.array_equal(grads["w0"][:, 2], np.zeros(spec.input_shape[0]))
    assert grads["b0"][2] == 0.0


# --- feature matrices -------------------------------------------------------

def test_hidden_feature_matrix_shapes():
    spec = tiny_mlp_spec()
    params, images, _ = random_instance(spec, seed=7, batch=9)
    mats = hidden_feature_matrices(spec, params, images)
    assert [m.shape for m in mats] == [(9, 5), (9, 4)]

    cspec = tiny_cnn_spec()
    cparams, cimages, _ = random_instance(cspec, seed=7, batch=9)
    cmats = hidden_feature_matrices(cspec, cparams, cimages)
    # post-pool maps: (16->12->pool 6), (6->2->pool 1); fc hidden width 4
    assert [m.shape for m in cmats] == [(9, 3 * 6 * 6), (9, 3 * 1 * 1), (9, 4)]


def direct_conv_relu_pool(x, w, b):
    """Valid cross-correlation, ReLU and 2x2 max pool, one output pixel at a time."""
    n, _, height, width = x.shape
    f, _, kh, kw = w.shape
    z = np.empty((n, f, height - kh + 1, width - kw + 1))
    for i in range(z.shape[2]):
        for j in range(z.shape[3]):
            z[:, :, i, j] = np.tensordot(x[:, :, i:i + kh, j:j + kw], w,
                                         axes=([1, 2, 3], [1, 2, 3])) + b
    a = np.maximum(z, 0.0)
    pooled = np.empty((n, f, a.shape[2] // 2, a.shape[3] // 2))
    for i in range(pooled.shape[2]):
        for j in range(pooled.shape[3]):
            pooled[:, :, i, j] = a[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(2, 3))
    return pooled


def test_cnn_feature_matrices_match_a_direct_computation():
    spec = tiny_cnn_spec()
    params, images, _ = random_instance(spec, seed=7, batch=5)
    v = params.values
    n_conv = len(spec.convs)
    expected, h = [], images
    for l in range(n_conv):
        h = direct_conv_relu_pool(h, v[f"w{l}"], v[f"b{l}"])
        expected.append(h.reshape(len(h), -1))
    for l in range(n_conv, n_conv + len(spec.hidden_widths)):
        h = np.maximum(h.reshape(len(h), -1) @ v[f"w{l}"] + v[f"b{l}"], 0.0)
        expected.append(h)
    mats = hidden_feature_matrices(spec, params, images)
    assert len(mats) == len(expected) == 3
    for got, want in zip(mats, expected):
        assert np.count_nonzero(want) > 0  # the comparison is non-vacuous
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_cnn_probe_keeps_no_im2col_columns():
    # one 512-sample srank probe on the CIFAR CNN: in one pass, layer 0's im2col
    # columns (75 x 512*28*28) would be 230 MiB; a 64-sample chunk's are 29 MiB,
    # and the probe peaks near 46 MiB
    spec = NetworkSpec(kind="cnn", input_shape=(3, 32, 32), hidden_widths=(10,))
    rng = RngStream(0)
    params = init_params(spec, rng.split("params"))
    images = rng.split("images").uniform(0.0, 1.0, (512, 3, 32, 32))
    tracemalloc.start()
    try:
        hidden_feature_matrices(spec, params, images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# 65 samples leave a one-sample remainder, which joins the chunk before it
@pytest.mark.parametrize("samples", [65, 66, 512])
@pytest.mark.parametrize("layer_norm", [False, True], ids=("plain", "layer_norm"))
def test_a_chunked_cnn_probe_has_the_bits_of_one_whole_pass(samples, layer_norm):
    spec = NetworkSpec(kind="cnn", input_shape=(3, 32, 32), hidden_widths=(10,),
                       layer_norm=layer_norm)
    rng = RngStream(3)
    params = init_params(spec, rng.split("params"))
    params.flat[:] += rng.split("shift").uniform(-0.1, 0.1, params.flat.size)  # gains off 1
    images = rng.split("images").uniform(0.0, 1.0, (samples, 3, 32, 32))
    assert samples > PROBE_CHUNK
    _, cache = forward(spec, params, images)  # every layer on every sample at once
    whole = [h.reshape(samples, -1) for h in cache.inputs[1:]]
    mats = hidden_feature_matrices(spec, params, images)
    assert [m.shape for m in mats] == [w.shape for w in whole]
    assert all(m.tobytes() == w.tobytes() for m, w in zip(mats, whole))


def test_feature_matrices_are_post_relu():
    spec = tiny_mlp_spec()
    params, images, _ = random_instance(spec, seed=8)
    for mat in hidden_feature_matrices(spec, params, images):
        assert np.all(mat >= 0.0)
