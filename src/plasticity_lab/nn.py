"""Network construction, deterministic init, forward pass, and exact backprop.

Two architectures are supported: an MLP with ReLU hidden layers, and a
small CNN (two valid 5x5 conv layers with 2x2 max pools, then fully
connected layers). Parameters live in a flat name -> array mapping; layer
l uses keys "w{l}"/"b{l}" and, when layer normalization is enabled, hidden
layer h adds "gain{h}"/"shift{h}".

Weights and biases are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
and the full parameter vector is snapshotted at construction; that frozen
snapshot is the anchor used by the regularizers in `optim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .linalg import (
    conv2d,
    conv2d_input_gradient,
    conv2d_kernel_gradient,
    maxpool2,
    maxpool2_backward,
)
from .rng import RngStream

KERNEL_SIZE = 5


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description with deterministic initialization rules."""

    kind: str  # "mlp" | "cnn"
    input_shape: tuple[int, ...]
    hidden_widths: tuple[int, ...] = (100, 100)
    conv_channels: tuple[int, ...] = (16, 16)
    fc_widths: tuple[int, ...] = (10,)
    num_classes: int = 10
    layer_norm: bool = False

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        if self.kind == "mlp":
            if len(self.input_shape) != 1:
                raise DimensionError(f"mlp input_shape must be 1-D, got {self.input_shape}")
            if not self.hidden_widths:
                raise ValueError("mlp needs at least one hidden layer")
        else:
            if len(self.input_shape) != 3:
                raise DimensionError(f"cnn input_shape must be (C,H,W), got {self.input_shape}")
            cnn_feature_shapes(self)  # validates spatial extents

def cnn_feature_shapes(spec: NetworkSpec) -> tuple[list[tuple[int, int, int]], int]:
    """Per-conv-layer output shapes (pre-pool) and the flattened width after pooling."""
    c, h, w = spec.input_shape
    conv_shapes = []
    for f in spec.conv_channels:
        if h < KERNEL_SIZE or w < KERNEL_SIZE:
            raise DimensionError(
                f"cnn input {spec.input_shape} too small for {KERNEL_SIZE}x{KERNEL_SIZE} conv"
            )
        h, w = h - KERNEL_SIZE + 1, w - KERNEL_SIZE + 1
        conv_shapes.append((f, h, w))
        if h < 2 or w < 2:
            raise DimensionError(f"cnn feature map {(h, w)} too small for 2x2 max pool")
        h, w = h // 2, w // 2
        c = f
    return conv_shapes, c * h * w


class ParameterSet:
    """Trainable tensors plus the frozen snapshot taken at time step 0.

    `initial` holds read-only copies of every tensor as constructed;
    `init_spec` records each tensor's initialization distribution
    (("uniform", bound) or ("const", value)) so later redraws -- shrink &
    perturb noise, resampled regularization anchors, neuron
    reinitialization -- can match it exactly.
    """

    def __init__(self, values: dict[str, np.ndarray], init_spec: dict[str, tuple[str, float]]):
        self.values = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        self.init_spec = dict(init_spec)
        self.initial: dict[str, np.ndarray] = {}
        for name, arr in self.values.items():
            snap = arr.copy()
            snap.setflags(write=False)
            self.initial[name] = snap

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.values.items()}


def draw_initial_like(params: ParameterSet, name: str, rng: RngStream) -> np.ndarray:
    """Fresh draw from the named parameter's initialization distribution."""
    kind, value = params.init_spec[name]
    shape = params.values[name].shape
    if kind == "uniform":
        return rng.uniform(-value, value, shape)
    return np.full(shape, value, dtype=np.float64)


def _dense_dims(spec: NetworkSpec) -> list[int]:
    if spec.kind == "mlp":
        return [spec.input_shape[0], *spec.hidden_widths, spec.num_classes]
    _, flat = cnn_feature_shapes(spec)
    return [flat, *spec.fc_widths, spec.num_classes]


def init_params(spec: NetworkSpec, rng: RngStream) -> ParameterSet:
    """Draw all trainable tensors; uniform(+-1/sqrt(fan_in)) for weights and biases."""
    values: dict[str, np.ndarray] = {}
    init_spec: dict[str, tuple[str, float]] = {}
    layer = 0

    def add_dense(din: int, dout: int):
        nonlocal layer
        bound = 1.0 / np.sqrt(din)
        values[f"w{layer}"] = rng.uniform(-bound, bound, (din, dout))
        init_spec[f"w{layer}"] = ("uniform", bound)
        values[f"b{layer}"] = rng.uniform(-bound, bound, (dout,))
        init_spec[f"b{layer}"] = ("uniform", bound)
        layer += 1

    def add_conv(cin: int, cout: int):
        nonlocal layer
        bound = 1.0 / np.sqrt(cin * KERNEL_SIZE * KERNEL_SIZE)
        values[f"w{layer}"] = rng.uniform(-bound, bound, (cout, cin, KERNEL_SIZE, KERNEL_SIZE))
        init_spec[f"w{layer}"] = ("uniform", bound)
        values[f"b{layer}"] = rng.uniform(-bound, bound, (cout,))
        init_spec[f"b{layer}"] = ("uniform", bound)
        layer += 1

    if spec.kind == "mlp":
        dims = _dense_dims(spec)
        for din, dout in zip(dims[:-1], dims[1:]):
            add_dense(din, dout)
        hidden_shapes = [(wd,) for wd in spec.hidden_widths]
    else:
        conv_shapes, _ = cnn_feature_shapes(spec)
        cin = spec.input_shape[0]
        for cout in spec.conv_channels:
            add_conv(cin, cout)
            cin = cout
        dims = _dense_dims(spec)
        for din, dout in zip(dims[:-1], dims[1:]):
            add_dense(din, dout)
        hidden_shapes = list(conv_shapes) + [(wd,) for wd in spec.fc_widths]

    if spec.layer_norm:
        for h, shape in enumerate(hidden_shapes):
            values[f"gain{h}"] = np.ones(shape, dtype=np.float64)
            init_spec[f"gain{h}"] = ("const", 1.0)
            values[f"shift{h}"] = np.zeros(shape, dtype=np.float64)
            init_spec[f"shift{h}"] = ("const", 0.0)

    return ParameterSet(values, init_spec)


@dataclass
class ForwardCache:
    """Everything the backward pass needs to replay one forward call."""

    kind: str
    dense_inputs: list = field(default_factory=list)   # input to each dense layer
    dense_preacts: list = field(default_factory=list)  # post-LN pre-ReLU, hidden dense layers
    dense_acts: list = field(default_factory=list)     # ReLU outputs, hidden dense layers
    conv_inputs: list = field(default_factory=list)
    conv_preacts: list = field(default_factory=list)
    pool_indices: list = field(default_factory=list)
    pool_input_shapes: list = field(default_factory=list)
    ln_xhat: list = field(default_factory=list)        # per hidden layer, conv first for cnn
    ln_inv_std: list = field(default_factory=list)
    consumed: bool = False


def _ln_forward(z2d, gain, shift):
    mu = z2d.mean(axis=1, keepdims=True)
    centered = z2d - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    # exact normalization; a constant pre-activation vector maps to zeros
    inv_std = np.where(var > 0.0, 1.0 / np.sqrt(np.where(var > 0.0, var, 1.0)), 0.0)
    xhat = centered * inv_std
    return xhat * gain.reshape(1, -1) + shift.reshape(1, -1), xhat, inv_std


def _ln_backward(dy2d, gain, xhat, inv_std):
    dgain = (dy2d * xhat).sum(axis=0)
    dshift = dy2d.sum(axis=0)
    dxhat = dy2d * gain.reshape(1, -1)
    dz = inv_std * (
        dxhat
        - dxhat.mean(axis=1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=1, keepdims=True)
    )
    return dz, dgain, dshift


def forward(
    spec: NetworkSpec, params: ParameterSet, images: np.ndarray
) -> tuple[np.ndarray, ForwardCache]:
    """Compute pre-softmax logits and the cache needed for one backward call."""
    x = np.asarray(images, dtype=np.float64)
    expected = (x.shape[0],) + spec.input_shape
    if x.shape != expected:
        raise DimensionError(f"forward: batch shape {x.shape} != expected {expected}")
    v = params.values
    cache = ForwardCache(kind=spec.kind)
    layer = 0
    hidden = 0

    h = x
    if spec.kind == "cnn":
        for _ in spec.conv_channels:
            z = conv2d(h, v[f"w{layer}"], v[f"b{layer}"])
            if spec.layer_norm:
                flat = z.reshape(z.shape[0], -1)
                out, xhat, inv_std = _ln_forward(flat, v[f"gain{hidden}"], v[f"shift{hidden}"])
                y = out.reshape(z.shape)
                cache.ln_xhat.append(xhat)
                cache.ln_inv_std.append(inv_std)
            else:
                y = z
                cache.ln_xhat.append(None)
                cache.ln_inv_std.append(None)
            a = np.maximum(y, 0.0)
            pooled, idx = maxpool2(a)
            cache.conv_inputs.append(h)
            cache.conv_preacts.append(y)
            cache.pool_indices.append(idx)
            cache.pool_input_shapes.append(a.shape)
            h = pooled
            layer += 1
            hidden += 1
        h = h.reshape(h.shape[0], -1)

    n_dense_hidden = len(spec.hidden_widths) if spec.kind == "mlp" else len(spec.fc_widths)
    for _ in range(n_dense_hidden):
        cache.dense_inputs.append(h)
        z = h @ v[f"w{layer}"] + v[f"b{layer}"]
        if spec.layer_norm:
            y, xhat, inv_std = _ln_forward(z, v[f"gain{hidden}"], v[f"shift{hidden}"])
            cache.ln_xhat.append(xhat)
            cache.ln_inv_std.append(inv_std)
        else:
            y = z
            cache.ln_xhat.append(None)
            cache.ln_inv_std.append(None)
        a = np.maximum(y, 0.0)
        cache.dense_preacts.append(y)
        cache.dense_acts.append(a)
        h = a
        layer += 1
        hidden += 1

    cache.dense_inputs.append(h)
    logits = h @ v[f"w{layer}"] + v[f"b{layer}"]
    return logits, cache


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss_and_grad(
    spec: NetworkSpec,
    params: ParameterSet,
    cache: ForwardCache,
    logits: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its exact gradients.

    Returns gradients for every trainable tensor, keyed like
    `params.values`. The cache is single-use.
    """
    if cache.consumed:
        raise ValueError("loss_and_grad: forward cache was already consumed")
    cache.consumed = True
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DimensionError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise ValueError(f"labels out of range [0, {spec.num_classes})")

    v = params.values
    batch = logits.shape[0]
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(batch), labels].mean())

    grads: dict[str, np.ndarray] = {}
    d = np.exp(logp)
    d[np.arange(batch), labels] -= 1.0
    d /= batch

    n_dense_hidden = len(spec.hidden_widths) if spec.kind == "mlp" else len(spec.fc_widths)
    n_conv = len(spec.conv_channels) if spec.kind == "cnn" else 0
    layer = n_conv + n_dense_hidden  # output layer index
    hidden = n_conv + n_dense_hidden

    grads[f"w{layer}"] = cache.dense_inputs[-1].T @ d
    grads[f"b{layer}"] = d.sum(axis=0)
    da = d @ v[f"w{layer}"].T

    for j in reversed(range(n_dense_hidden)):
        layer -= 1
        hidden -= 1
        dy = da * (cache.dense_preacts[j] > 0)
        if spec.layer_norm:
            dz, dgain, dshift = _ln_backward(
                dy, v[f"gain{hidden}"], cache.ln_xhat[hidden], cache.ln_inv_std[hidden]
            )
            grads[f"gain{hidden}"] = dgain
            grads[f"shift{hidden}"] = dshift
        else:
            dz = dy
        grads[f"w{layer}"] = cache.dense_inputs[j].T @ dz
        grads[f"b{layer}"] = dz.sum(axis=0)
        da = dz @ v[f"w{layer}"].T

    if spec.kind == "cnn":
        dpool = da  # gradient w.r.t. the flattened pooled features
        for j in reversed(range(n_conv)):
            layer -= 1
            hidden -= 1
            a_shape = cache.pool_input_shapes[j]
            idx = cache.pool_indices[j]
            pooled_shape = idx.shape
            dpool = dpool.reshape(pooled_shape)
            dact = maxpool2_backward(dpool, idx, a_shape)
            dy = dact * (cache.conv_preacts[j] > 0)
            if spec.layer_norm:
                flat = dy.reshape(dy.shape[0], -1)
                dz2d, dgain, dshift = _ln_backward(
                    flat, v[f"gain{hidden}"], cache.ln_xhat[hidden], cache.ln_inv_std[hidden]
                )
                grads[f"gain{hidden}"] = dgain.reshape(v[f"gain{hidden}"].shape)
                grads[f"shift{hidden}"] = dshift.reshape(v[f"shift{hidden}"].shape)
                dz = dz2d.reshape(dy.shape)
            else:
                dz = dy
            x_in = cache.conv_inputs[j]
            kh = v[f"w{layer}"].shape[2]
            kw = v[f"w{layer}"].shape[3]
            grads[f"w{layer}"] = conv2d_kernel_gradient(x_in, dz, kh, kw)
            grads[f"b{layer}"] = dz.sum(axis=(0, 2, 3))
            if j > 0:
                dpool = conv2d_input_gradient(dz, v[f"w{layer}"])

    return loss, grads


def hidden_feature_matrices(
    spec: NetworkSpec, params: ParameterSet, images: np.ndarray
) -> list[np.ndarray]:
    """Per-hidden-layer feature matrices (samples x features) for rank probes.

    MLP: the post-ReLU activations of each hidden layer. CNN: each post-pool
    feature map flattened per sample, plus the hidden fully-connected
    activations.
    """
    _, cache = forward(spec, params, images)
    if spec.kind == "mlp":
        return list(cache.dense_acts)
    pooled = [cache.conv_inputs[j + 1] for j in range(len(cache.conv_inputs) - 1)]
    # the last pooled map is the (already flattened) input to the first dense layer
    mats = [p.reshape(p.shape[0], -1) for p in pooled] + [cache.dense_inputs[0]]
    return mats + list(cache.dense_acts)


def training_loss(
    spec: NetworkSpec, params: ParameterSet, images: np.ndarray, labels: np.ndarray
) -> float:
    """Cross-entropy loss only (used by finite-difference checking)."""
    logits, _ = forward(spec, params, images)
    logp = _log_softmax(logits)
    return float(-logp[np.arange(logits.shape[0]), np.asarray(labels)].mean())


def finite_difference_max_error(
    spec: NetworkSpec,
    params: ParameterSet,
    images: np.ndarray,
    labels: np.ndarray,
    step: float = 1e-5,
    abs_floor: float = 1e-8,
) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Absolute differences at or below `abs_floor` count as zero error: they
    are indistinguishable from float64 roundoff in the difference quotient.
    """
    logits, cache = forward(spec, params, images)
    _, grads = loss_and_grad(spec, params, cache, logits, labels)
    worst = 0.0
    for name, arr in params.values.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = training_loss(spec, params, images, labels)
            flat[i] = orig - step
            down = training_loss(spec, params, images, labels)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = grads[name].ravel()[i]
            diff = abs(numeric - analytic)
            if diff > abs_floor:
                worst = max(worst, diff / max(abs(numeric), abs(analytic)))
    return worst
