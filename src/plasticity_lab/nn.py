"""Network construction, deterministic init, forward pass, and exact backprop.

One layout covers both architectures: hidden layers l = 0 .. L-2, valid
5x5 conv layers first and then dense layers of widths `hidden_widths`,
then the linear output layer L-1. An MLP is the case with no conv layers;
a CNN has `conv_channels`. Every hidden layer runs the same steps: conv
or affine map, optional layer norm over each sample's features, ReLU (the
cache keeps the post-ReLU map), and, on a conv layer, a 2x2 max pool,
whose backward also takes the ReLU's derivative. `forward` is one loop
over these layers, `loss_and_grad` one over the output layer, then these.
A conv layer's im2col columns are built once, by its forward conv, and
kept until its kernel gradient. Parameters, and the gradient, live in flat
vectors read through named views (`ParameterSet`): "w{l}"/"b{l}" for layer
l and, with layer normalization, "gain{l}"/"shift{l}" for hidden layer l.

`layer_shapes` lays the network out once. `init_params` builds from it each
tensor's init distribution (weights and biases uniform(+-1/sqrt(fan_in)),
layer-norm gains 1, shifts 0), draws with the loop of every later redraw, and
snapshots the flat vector: the anchor used by the regularizers in `optim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .linalg import (
    conv2d,
    conv2d_input_gradient,
    conv2d_kernel_gradient,
    maxpool2,
    maxpool2_backward,
)
from .rng import RngStream

KERNEL_SIZE = 5
PROBE_CHUNK = 64  # samples per conv pass of a rank probe


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
            raise ValueError(f"{self.kind} input_shape must be {ndim}-D: {self.input_shape}")
        if self.kind == "cnn" and not self.conv_channels:  # only a conv layer's output is flattened
            raise ValueError("a cnn needs at least one conv layer")
        if not self.convs + self.hidden_widths:
            raise ValueError("network needs at least one hidden layer")
        layer_shapes(self)  # validates spatial extents

    @property
    def convs(self) -> tuple[int, ...]:
        """Output channels of each conv layer; none for an MLP."""
        return self.conv_channels if self.kind == "cnn" else ()


def layer_shapes(spec: NetworkSpec) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """(weight shape, fan-in, output shape) per layer, conv layers first, the output layer last.

    A conv layer's output is its map before the max pool, the shape of its layer-norm
    gain and shift; the first dense layer takes the last pooled map flat.
    """
    k, shape, layers = KERNEL_SIZE, spec.input_shape, []
    for l, f in enumerate(spec.convs):
        c, h, w = shape
        where = f"cnn input {spec.input_shape}: conv layer {l}'s"
        if h < k or w < k:
            raise ValueError(f"{where} input map {h}x{w} is too small for {k}x{k} conv")
        h, w = h - k + 1, w - k + 1
        if h < 2 or w < 2:
            raise ValueError(f"{where} feature map {h}x{w} is too small for 2x2 max pool")
        layers.append(((f, c, k, k), c * k * k, (f, h, w)))
        shape = (f, h // 2, w // 2)
    dims = (int(np.prod(shape)), *spec.hidden_widths, spec.num_classes)
    return layers + [((din, dout), din, (dout,)) for din, dout in zip(dims[:-1], dims[1:])]


def _draw(init_spec: dict[str, tuple[str, float]], tensors, rng: RngStream) -> None:
    """Fill each tensor from its init distribution; uniform ones draw from `rng` in order."""
    for name, seg in tensors.items():
        kind, v = init_spec[name]
        if kind == "uniform":
            rng.uniform(-v, v, out=seg)
        else:
            seg[...] = v


class ParameterSet:
    """Trainable tensors in one flat float64 vector, plus its step-0 snapshot.

    `values` maps each name to a view of its tensor in `flat` (tensors in
    construction order), `grad` the same over the gradient row `work[0]`.
    Neither mapping can be replaced: write tensors in place.

    `init_spec` records each tensor's initialization distribution
    (("uniform", bound) or ("const", value)). `draw_initial` draws each
    uniform tensor with `RngStream.uniform(-bound, bound)`, in construction
    order, and fills each constant one. Init (`init_params`, before it
    constructs) and each later redraw -- shrink & perturb noise, resampled
    anchors -- run that one loop; a neuron reset reads its bound here.
    `work` holds two scratch vectors, the gradient (row 0, which the update
    consumes) and one more row, so no step allocates a full-length array.
    Every full-length row here starts on a 64-byte boundary (`aligned_rows`).
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
        self.work = aligned_rows(2, size)
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
        _draw(self.init_spec, self.named(out), rng)
        return out


def init_params(spec: NetworkSpec, rng: RngStream) -> ParameterSet:
    """Every tensor of `spec`, filled by `draw_initial`'s loop before the snapshot is taken:
    weights and biases uniform(+-1/sqrt(fan_in)), layer-norm gains 1 and shifts 0."""
    layers = layer_shapes(spec)
    init_spec, values = {}, {}
    for l, (w_shape, fan_in, out_shape) in enumerate(layers):
        init_spec[f"w{l}"] = init_spec[f"b{l}"] = ("uniform", 1.0 / np.sqrt(fan_in))
        values[f"w{l}"], values[f"b{l}"] = np.empty(w_shape), np.empty(out_shape[0])
    for l, (_, _, out_shape) in enumerate(layers[:-1] if spec.layer_norm else []):
        init_spec[f"gain{l}"], init_spec[f"shift{l}"] = ("const", 1.0), ("const", 0.0)
        values[f"gain{l}"], values[f"shift{l}"] = np.empty(out_shape), np.empty(out_shape)
    _draw(init_spec, values, rng)
    return ParameterSet(values, init_spec)


@dataclass
class ForwardCache:
    """Everything the backward pass needs to replay one forward call.

    Layer l's entries sit at index l in each list (conv layers first):
    `inputs` holds the input to every layer, the output layer last, so
    `inputs[l + 1]` is hidden layer l's output (pooled on a conv layer);
    `acts` the post-ReLU map of each hidden layer, before any pool (channel-major on a conv
    layer without layer norm: see `linalg`), whose positive entries are the pre-ReLU map's;
    `ln` its layer norm's (xhat, inv_std), empty when layer norm is off;
    `cols` each conv layer's im2col columns, none on an MLP, each popped by
    `loss_and_grad` once its kernel gradient is taken.
    A conv layer's max pool keeps nothing: the backward pass routes each
    window's gradient to the first position of `acts[l]` equal to the
    pooled value in `inputs[l + 1]`, which is argmax's tie rule.
    """

    inputs: list = field(default_factory=list)
    acts: list = field(default_factory=list)
    ln: list = field(default_factory=list)
    cols: list = field(default_factory=list)
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
        raise ValueError(f"forward: batch shape {h.shape} != expected {expected}")
    v = params.values
    cache = ForwardCache()
    for l in range(len(spec.convs) + len(spec.hidden_widths)):
        cache.inputs.append(h)
        a, ln, h, cols = _hidden_layer(spec, v, l, h)
        cache.acts.append(a)
        cache.ln += ln
        cache.cols += cols

    cache.inputs.append(h)
    out_layer = len(cache.acts)
    logits = h @ v[f"w{out_layer}"] + v[f"b{out_layer}"]
    return logits, cache


def _hidden_layer(spec: NetworkSpec, v, l: int, h: np.ndarray):
    """Hidden layer l on h: post-ReLU map, [layer norm's (xhat, inv_std)], output, [im2col]."""
    conv, ln = l < len(spec.convs), []
    z, *cols = conv2d(h, v[f"w{l}"], v[f"b{l}"]) if conv else (h @ v[f"w{l}"] + v[f"b{l}"],)
    if spec.layer_norm:  # over each sample's features; a no-op reshape on a dense layer
        out, xhat, inv_std = _ln_forward(z.reshape(len(z), -1), v[f"gain{l}"], v[f"shift{l}"])
        z, ln = out.reshape(z.shape), [(xhat, inv_std)]
    # out of place on a conv layer, freeing the GEMM product (or norm output) here: cached, it
    # left a heap layout that glibc trimmed and faulted back in every few steps (CHANGES.md)
    h = a = np.maximum(z, 0.0) if conv else np.maximum(z, 0.0, out=z)
    if conv:
        h = maxpool2(a)
        if l == len(spec.convs) - 1:  # dense layers take each sample's features flat
            h = h.reshape(len(h), -1)
    return a, ln, h, cols


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
        raise ValueError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise ValueError(f"labels out of range [0, {spec.num_classes})")

    v, g = params.values, params.grad
    batch = logits.shape[0]
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(batch), labels].mean())

    dz = np.exp(logp)  # the output layer's pre-activation gradient
    dz[np.arange(batch), labels] -= 1.0
    dz /= batch

    n_conv, out_layer = len(spec.convs), len(cache.acts)
    for l in reversed(range(out_layer + 1)):
        conv = l < n_conv
        if l < out_layer:  # `da` holds the gradient w.r.t. hidden layer l's output
            a = cache.acts[l]
            if conv:  # the pool's backward takes the ReLU's derivative too
                pooled = cache.inputs[l + 1].reshape(len(a), a.shape[1], a.shape[2] // 2, -1)
                dz = maxpool2_backward(da.reshape(pooled.shape), a, pooled)
            else:
                dz = da * (a > 0)
            if spec.layer_norm:
                gain = v[f"gain{l}"]
                dz2d, dgain, dshift = _ln_backward(dz.reshape(len(dz), -1), gain, *cache.ln[l])
                g[f"gain{l}"][...] = dgain.reshape(gain.shape)
                g[f"shift{l}"][...] = dshift.reshape(gain.shape)
                dz = dz2d.reshape(dz.shape)
        w, x_in = v[f"w{l}"], cache.inputs[l]
        if conv:
            g[f"w{l}"][...] = conv2d_kernel_gradient(cache.cols.pop(), dz, *w.shape[2:])
            # per-sample sums added in sample order: a C-ordered map's bits, whatever dz's order
            np.ascontiguousarray(dz.sum(axis=(2, 3))).sum(axis=0, out=g[f"b{l}"])
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
    post-ReLU activations of each dense hidden layer. Conv layers run on chunks of
    PROBE_CHUNK samples, which bounds their im2col columns and keeps every bit of one
    whole pass; a one-sample chunk would not (OpenBLAS takes its small-matrix path
    there). Dense layers run once on every sample: their bits depend on the row count.
    """
    h, feats = np.asarray(images, dtype=np.float64), []
    cuts = range(PROBE_CHUNK, len(h) - 1, PROBE_CHUNK)  # a lone last sample joins the chunk before
    for l in range(len(spec.convs) + len(spec.hidden_widths)):
        parts = np.split(h, cuts) if l < len(spec.convs) else [h]
        h = np.concatenate([_hidden_layer(spec, params.values, l, part)[2] for part in parts])
        feats.append(h.reshape(len(h), -1))
    return feats


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
