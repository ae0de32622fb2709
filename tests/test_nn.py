import tracemalloc

import numpy as np
import pytest

from conftest import random_instance, tiny_cnn_spec, tiny_mlp_spec
from plasticity_lab.errors import DimensionError
from plasticity_lab.nn import (
    PROBE_CHUNK,
    NetworkSpec,
    ParameterSet,
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
    with pytest.raises(DimensionError):
        forward(spec, params, np.zeros((4, 7)))


def test_cnn_spec_rejects_small_spatial():
    # the one check on conv extents: conv2d trusts the shapes NetworkSpec admits
    for shape, message in [
        ((1, 4, 5), r"\(1, 4, 5\): conv layer 0's input map 4x5 is too small for 5x5 conv"),
        ((1, 5, 5), r"\(1, 5, 5\): conv layer 0's feature map 1x1 is too small for 2x2 max pool"),
        ((1, 12, 12), r"\(1, 12, 12\): conv layer 1's input map 4x4 is too small for 5x5 conv"),
        ((1, 14, 14), r"\(1, 14, 14\): conv layer 1's feature map 1x1 is too small for 2x2 max"),
    ]:
        with pytest.raises(DimensionError, match=message):
            NetworkSpec(kind="cnn", input_shape=shape)
    NetworkSpec(kind="cnn", input_shape=(1, 16, 16))  # conv layer 1: 6x6 in, 2x2 out, 1x1 pooled


def test_cnn_spec_rejects_no_conv_layer():
    # forward flattens a CNN's maps after its last conv layer; with none it would matmul 3-D input
    with pytest.raises(DimensionError, match="a cnn needs at least one conv layer"):
        NetworkSpec(kind="cnn", input_shape=(3, 8, 8), conv_channels=(), hidden_widths=(4,))


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


def test_dead_unit_gets_zero_incoming_gradient():
    spec = tiny_mlp_spec()
    params, images, labels = random_instance(spec, seed=6)
    params.values["b0"][2] = -100.0  # unit 2 of layer 0 never activates
    logits, cache = forward(spec, params, images)
    assert np.all(cache.preacts[0][:, 2] <= 0)
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
