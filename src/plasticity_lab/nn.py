"""Network construction, deterministic init, forward pass, and exact backprop.

One layout covers both architectures: hidden layers l = 0 .. L-2, valid
5x5 conv layers first and then dense layers of widths `hidden_widths`,
then the linear output layer L-1. An MLP is the case with no conv layers;
a CNN has `conv_channels`. Every hidden layer runs the same steps: conv
or affine map, optional layer norm over each sample's features, ReLU,
and, on a conv layer, a 2x2 max pool. `forward` and `loss_and_grad` are
one loop each over these layers. Parameters, and the gradient, live in
flat vectors read through named views (`ParameterSet`); layer l uses
keys "w{l}"/"b{l}" and, when layer normalization is enabled, hidden
layer l adds "gain{l}"/"shift{l}".

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


def aligned_rows(rows: int, n: int) -> np.ndarray:
    """Zeroed float64 rows of length n, each starting on a 64-byte boundary.

    Row i is `out[i]`, a contiguous view; rows are padded to a multiple of
    eight entries. On a misaligned row every 64-byte vector load of a
    full-length pass straddles two cache lines.
    """
    stride = -(-n // 8) * 8
    buf = np.zeros(rows * stride + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + rows * stride].reshape(rows, stride)[:, :n]


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
    construction order), `grad` the same over the gradient row `work[0]`.
    Neither mapping can be replaced: write tensors in place.

    `init_spec` records each tensor's initialization distribution
    (("uniform", bound) or ("const", value)) so later redraws -- shrink &
    perturb noise, resampled regularization anchors, neuron
    reinitialization -- can match it exactly: `draw_initial` draws each
    uniform tensor with `RngStream.uniform(-bound, bound)`, in construction
    order, and fills each constant one. `work` holds three scratch vectors,
    the gradient (row 0) and the update terms, so no step allocates a
    full-length array. Every full-length row here starts on a 64-byte
    boundary (`aligned_rows`).
    """

    def __init__(self, values: dict[str, np.ndarray], init_spec: dict[str, tuple[str, float]]):
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in values.items()}
        self.init_spec = dict(init_spec)
        self._shapes = {k: a.shape for k, a in arrays.items()}
        sizes = [a.size for a in arrays.values()]
        self._splits = np.cumsum(sizes)[:-1]
        # one-row buffers, not one multi-row buffer: the allocator can serve
        # each from freed heap memory, where one large buffer is fresh pages that
        # fault on first write (a four-row buffer measured about 0.4 ms slower per run)
        size = sum(sizes)
        self._flat, self._flat0 = (aligned_rows(1, size)[0] for _ in range(2))
        np.concatenate([a.ravel() for a in arrays.values()], out=self._flat)
        self._flat0[:] = self._flat
        self._flat0.setflags(write=False)
        self.work = aligned_rows(3, size)
        self._values, self._grad = self.named(self._flat), self.named(self.work[0])

    flat = property(lambda self: self._flat)
    flat0 = property(lambda self: self._flat0)
    values = property(lambda self: self._values)
    grad = property(lambda self: self._grad)

    def named(self, vec: np.ndarray) -> MappingProxyType:
        """Read-only name -> tensor-shaped view mapping over a flat vector."""
        parts = np.split(vec, self._splits)
        return MappingProxyType({k: p.reshape(s) for (k, s), p in zip(self._shapes.items(), parts)})

    def draw_initial(self, rng: RngStream, out: np.ndarray) -> np.ndarray:
        """A fresh draw of every entry from its initialization distribution, into `out`."""
        for name, seg in self.named(out).items():
            kind, v = self.init_spec[name]
            if kind == "uniform":
                rng.uniform(-v, v, out=seg)
            else:
                seg[...] = v
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
    """Everything the backward pass needs to replay one forward call.

    Layer l's entries sit at index l in each list (conv layers first):
    `inputs` holds the input to every layer, the output layer last, so
    `inputs[l + 1]` is hidden layer l's output (pooled on a conv layer);
    `preacts` the post-layer-norm, pre-ReLU output of each hidden layer;
    `ln` its layer norm's (xhat, inv_std), empty when layer norm is off.
    A conv layer's max pool keeps nothing: the backward pass routes each
    window's gradient to the first position of `max(preacts[l], 0)` equal
    to the pooled value in `inputs[l + 1]`, which is argmax's tie rule.
    """

    inputs: list = field(default_factory=list)
    preacts: list = field(default_factory=list)
    ln: list = field(default_factory=list)
    consumed: bool = False


def _ln_forward(z2d, gain, shift):
    mu = z2d.mean(axis=1, keepdims=True)
    centered = z2d - mu
    squared = centered * centered
    var = np.mean(squared, axis=1, keepdims=True)
    # exact normalization; a constant pre-activation vector maps to zeros
    inv_std = np.where(var > 0.0, 1.0 / np.sqrt(np.where(var > 0.0, var, 1.0)), 0.0)
    xhat = np.multiply(centered, inv_std, out=centered)
    out = np.multiply(xhat, gain.reshape(1, -1), out=squared)
    out += shift.reshape(1, -1)
    return out, xhat, inv_std


def _ln_backward(dy2d, gain, xhat, inv_std):
    scratch = dy2d * xhat
    dgain = scratch.sum(axis=0)
    dshift = dy2d.sum(axis=0)
    dxhat = dy2d * gain.reshape(1, -1)
    m2 = np.mean(np.multiply(dxhat, xhat, out=scratch), axis=1, keepdims=True)
    # in place, the same operations as inv_std * (dxhat - mean(dxhat) - xhat * m2)
    dxhat -= dxhat.mean(axis=1, keepdims=True)
    dxhat -= np.multiply(xhat, m2, out=scratch)
    dxhat *= inv_std
    return dxhat, dgain, dshift


def forward(
    spec: NetworkSpec, params: ParameterSet, images: np.ndarray
) -> tuple[np.ndarray, ForwardCache]:
    """Compute pre-softmax logits and the cache needed for one backward call."""
    h = np.asarray(images, dtype=np.float64)
    expected = (h.shape[0],) + spec.input_shape
    if h.shape != expected:
        raise DimensionError(f"forward: batch shape {h.shape} != expected {expected}")
    v = params.values
    cache = ForwardCache()
    n_conv = len(spec.convs)
    for l in range(n_conv + len(spec.hidden_widths)):
        conv = l < n_conv
        cache.inputs.append(h)
        w, b = v[f"w{l}"], v[f"b{l}"]
        z = conv2d(h, w, b) if conv else h @ w + b
        if spec.layer_norm:  # over each sample's features; a no-op reshape on a dense layer
            out, xhat, inv_std = _ln_forward(z.reshape(len(z), -1), v[f"gain{l}"], v[f"shift{l}"])
            z = out.reshape(z.shape)
            cache.ln.append((xhat, inv_std))
        cache.preacts.append(z)
        h = np.maximum(z, 0.0)
        if conv:
            h = maxpool2(h)
            if l == n_conv - 1:  # dense layers take each sample's features flat
                h = h.reshape(len(h), -1)

    cache.inputs.append(h)
    out_layer = len(cache.preacts)
    logits = h @ v[f"w{out_layer}"] + v[f"b{out_layer}"]
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
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    The gradient goes into the row `params.work[0]`, laid out like
    `params.flat`, which is returned; the update consumes it (adding the
    regularizer in place), just as the cache is single-use.
    """
    if cache.consumed:
        raise ValueError("loss_and_grad: forward cache was already consumed")
    cache.consumed = True
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DimensionError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise ValueError(f"labels out of range [0, {spec.num_classes})")

    v, g = params.values, params.grad
    batch = logits.shape[0]
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(batch), labels].mean())

    d = np.exp(logp)
    d[np.arange(batch), labels] -= 1.0
    d /= batch

    out_layer = len(cache.preacts)
    np.matmul(cache.inputs[out_layer].T, d, out=g[f"w{out_layer}"])
    d.sum(axis=0, out=g[f"b{out_layer}"])
    da = d @ v[f"w{out_layer}"].T  # gradient w.r.t. the output layer's input

    n_conv = len(spec.convs)
    for l in reversed(range(out_layer)):
        conv = l < n_conv
        y = cache.preacts[l]
        if conv:
            pooled = cache.inputs[l + 1].reshape(len(y), y.shape[1], y.shape[2] // 2, -1)
            da = maxpool2_backward(da.reshape(pooled.shape), np.maximum(y, 0.0), pooled)
        dz = da * (y > 0)
        if spec.layer_norm:
            gain = v[f"gain{l}"]
            dz2d, dgain, dshift = _ln_backward(dz.reshape(len(dz), -1), gain, *cache.ln[l])
            g[f"gain{l}"][...] = dgain.reshape(gain.shape)
            g[f"shift{l}"][...] = dshift.reshape(gain.shape)
            dz = dz2d.reshape(dz.shape)
        w, x_in = v[f"w{l}"], cache.inputs[l]
        if conv:
            g[f"w{l}"][...] = conv2d_kernel_gradient(x_in, dz, w.shape[2], w.shape[3])
            dz.sum(axis=(0, 2, 3), out=g[f"b{l}"])
        else:
            np.matmul(x_in.T, dz, out=g[f"w{l}"])
            dz.sum(axis=0, out=g[f"b{l}"])
        if l > 0:  # the network's input needs no gradient
            da = conv2d_input_gradient(dz, w) if conv else dz @ w.T

    return loss, params.work[0]


def hidden_feature_matrices(
    spec: NetworkSpec, params: ParameterSet, images: np.ndarray
) -> list[np.ndarray]:
    """Per-hidden-layer feature matrices (samples x features) for rank probes.

    Each conv layer's post-pool feature map flattened per sample, then the
    post-ReLU activations of each dense hidden layer.
    """
    _, cache = forward(spec, params, images)
    return [h.reshape(len(h), -1) for h in cache.inputs[1:]]


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
) -> tuple[float, float]:
    """Max relative error of analytic gradients vs central finite differences.

    Returns (gated, unfloored) from one pass. The gated figure counts
    absolute differences at or below 1e-8 as zero error: they are
    indistinguishable from float64 roundoff in the difference quotient.
    """
    step = 1e-5
    logits, cache = forward(spec, params, images)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    theta = params.flat
    gated = unfloored = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        up = training_loss(spec, params, images, labels)
        theta[i] = orig - step
        down = training_loss(spec, params, images, labels)
        theta[i] = orig
        numeric = (up - down) / (2.0 * step)
        diff = abs(numeric - grad[i])
        if diff > 0.0:
            rel = diff / max(abs(numeric), abs(grad[i]))
            unfloored = max(unfloored, rel)
            if diff > 1e-8:
                gated = max(gated, rel)
    return gated, unfloored
