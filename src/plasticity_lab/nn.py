"""Network construction, deterministic init, forward pass, and exact backprop.

One layout covers both architectures: valid 5x5 conv layers, each with a
ReLU and a 2x2 max pool, then ReLU dense hidden layers of widths
`hidden_widths`, then the linear output layer. An MLP is the case with no
conv layers; a CNN has `conv_channels`. Parameters live in one flat
vector, read through named views (`ParameterSet`); layer l uses keys
"w{l}"/"b{l}" and, when layer normalization is enabled, hidden layer h
(conv layers first) adds "gain{h}"/"shift{h}".

Weights and biases are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
and the flat vector is snapshotted at construction; that frozen snapshot
is the anchor used by the regularizers in `optim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

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
    hidden_widths: tuple[int, ...] = (100, 100)  # dense hidden layers, after any convs
    conv_channels: tuple[int, ...] = (16, 16)    # read only when kind == "cnn"
    num_classes: int = 10
    layer_norm: bool = False

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        ndim = 3 if self.kind == "cnn" else 1  # (C,H,W) images or flat features
        if len(self.input_shape) != ndim:
            raise DimensionError(f"{self.kind} input_shape must be {ndim}-D: {self.input_shape}")
        if not self.convs + self.hidden_widths:
            raise ValueError("network needs at least one hidden layer")
        cnn_feature_shapes(self)  # validates spatial extents

    @property
    def convs(self) -> tuple[int, ...]:
        """Output channels of each conv layer; none for an MLP."""
        return self.conv_channels if self.kind == "cnn" else ()


def cnn_feature_shapes(spec: NetworkSpec) -> tuple[list[tuple[int, int, int]], int]:
    """Per-conv-layer output shapes (pre-pool) and the width fed to the first dense layer."""
    shape = spec.input_shape
    conv_shapes = []
    for f in spec.convs:
        _, h, w = shape
        if h < KERNEL_SIZE or w < KERNEL_SIZE:
            raise DimensionError(
                f"cnn input {spec.input_shape} too small for {KERNEL_SIZE}x{KERNEL_SIZE} conv"
            )
        h, w = h - KERNEL_SIZE + 1, w - KERNEL_SIZE + 1
        conv_shapes.append((f, h, w))
        if h < 2 or w < 2:
            raise DimensionError(f"cnn feature map {(h, w)} too small for 2x2 max pool")
        shape = (f, h // 2, w // 2)
    return conv_shapes, int(np.prod(shape))


class ParameterSet:
    """Trainable tensors in one flat float64 vector, plus its step-0 snapshot.

    `values` maps each name to a view of its tensor in `flat` (tensors in
    construction order), `initial` the same over the read-only `flat0`.
    Neither mapping can be replaced: write tensors in place.

    `init_spec` records each tensor's initialization distribution
    (("uniform", bound) or ("const", value)) so later redraws -- shrink &
    perturb noise, resampled regularization anchors, neuron
    reinitialization -- can match it exactly: `draw_initial` gives every
    entry `lo + span * u`. Uniform tensors come first, so one draw of
    `n_uniform` values covers them in order. `work` holds three scratch
    vectors for the update terms, so no step allocates a full-length array.
    """

    def __init__(self, values: dict[str, np.ndarray], init_spec: dict[str, tuple[str, float]]):
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        self.init_spec = dict(init_spec)
        specs = [self.init_spec[k] for k in arrays]
        kinds = [kind for kind, _ in specs]
        if "uniform" in kinds[kinds.count("uniform"):]:
            raise ValueError(f"uniform tensors must precede constant ones: {list(arrays)}")
        self._shapes = {k: a.shape for k, a in arrays.items()}
        sizes = [a.size for a in arrays.values()]
        self._splits = np.cumsum(sizes)[:-1]
        self._flat = np.concatenate([a.ravel() for a in arrays.values()])
        self._flat0 = self._flat.copy()
        self._flat0.setflags(write=False)
        self._values, self._initial = self.named(self._flat), self.named(self._flat0)
        # uniform(-b, b) draws -b + (b - -b) * u; a constant c is c + 0 * u
        bounds = [(-v, v) if kind == "uniform" else (v, v) for kind, v in specs]
        self.lo = np.repeat([lo for lo, _ in bounds], sizes)
        self.span = np.repeat([hi - lo for lo, hi in bounds], sizes)
        self.n_uniform = sum(n for n, kind in zip(sizes, kinds) if kind == "uniform")
        self.work = np.zeros((3, self._flat.size))

    flat = property(lambda self: self._flat)
    flat0 = property(lambda self: self._flat0)
    values = property(lambda self: self._values)
    initial = property(lambda self: self._initial)

    def named(self, vec: np.ndarray) -> MappingProxyType:
        """Read-only name -> tensor-shaped view mapping over a flat vector."""
        parts = np.split(vec, self._splits)
        return MappingProxyType({k: p.reshape(s) for (k, s), p in zip(self._shapes.items(), parts)})

    def draw_initial(self, rng: RngStream, out: np.ndarray) -> np.ndarray:
        """A fresh draw of every entry from its initialization distribution, into `out`."""
        n = self.n_uniform
        rng.random_into(out[:n])
        out[n:] = 0.0
        out *= self.span
        out += self.lo
        return out


def init_params(spec: NetworkSpec, rng: RngStream) -> ParameterSet:
    """Draw all trainable tensors; uniform(+-1/sqrt(fan_in)) for weights and biases."""
    conv_shapes, flat = cnn_feature_shapes(spec)
    channels = (spec.input_shape[0], *spec.convs)
    dims = (flat, *spec.hidden_widths, spec.num_classes)
    # (weight shape, bias width, fan-in) per layer, conv layers first
    layers = [
        ((cout, cin, KERNEL_SIZE, KERNEL_SIZE), cout, cin * KERNEL_SIZE * KERNEL_SIZE)
        for cin, cout in zip(channels[:-1], channels[1:])
    ] + [((din, dout), dout, din) for din, dout in zip(dims[:-1], dims[1:])]

    values: dict[str, np.ndarray] = {}
    init_spec: dict[str, tuple[str, float]] = {}
    for layer, (w_shape, width, fan_in) in enumerate(layers):
        bound = 1.0 / np.sqrt(fan_in)
        values[f"w{layer}"] = rng.uniform(-bound, bound, w_shape)
        init_spec[f"w{layer}"] = ("uniform", bound)
        values[f"b{layer}"] = rng.uniform(-bound, bound, (width,))
        init_spec[f"b{layer}"] = ("uniform", bound)

    if spec.layer_norm:
        hidden_shapes = conv_shapes + [(wd,) for wd in spec.hidden_widths]
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
    ln_xhat: list = field(default_factory=list)        # per hidden layer, conv first
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
    for _ in spec.convs:
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

    for _ in spec.hidden_widths:
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

    n_dense_hidden = len(spec.hidden_widths)
    n_conv = len(spec.convs)
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

    Each conv layer's post-pool feature map flattened per sample, then the
    post-ReLU activations of each dense hidden layer.
    """
    _, cache = forward(spec, params, images)
    # the last pooled map is the (already flattened) input to the first dense layer
    pooled = cache.conv_inputs[1:] + cache.dense_inputs[:1] if spec.convs else []
    return [p.reshape(p.shape[0], -1) for p in pooled] + list(cache.dense_acts)


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
