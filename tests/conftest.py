import struct

import numpy as np
import pytest

from plasticity_lab import nn, runner
from plasticity_lab.nn import NetworkSpec, init_params
from plasticity_lab.problems import Dataset, TaskStream, make_task
from plasticity_lab.rng import RngStream


def tiny_mlp_spec(layer_norm=False):
    return NetworkSpec(
        kind="mlp", input_shape=(6,), hidden_widths=(5, 4), num_classes=3,
        layer_norm=layer_norm,
    )


def tiny_cnn_spec(layer_norm=False):
    return NetworkSpec(
        kind="cnn", input_shape=(2, 16, 16), conv_channels=(3, 3), hidden_widths=(4,),
        num_classes=3, layer_norm=layer_norm,
    )


def random_instance(spec, seed, batch=4):
    """(params, images, labels) drawn from one seeded stream."""
    rng = RngStream(seed).split("instance", spec.kind, int(spec.layer_norm))
    params = init_params(spec, rng.split("params"))
    images = rng.uniform(0.0, 1.0, (batch,) + spec.input_shape)
    labels = np.asarray(rng.integers(0, spec.num_classes, batch))
    return params, images, labels


def count_forward_calls(monkeypatch):
    """The batch size of every forward pass the training loop makes, in order."""
    calls, forward = [], runner.forward

    def counted(spec, params, images):
        calls.append(len(images))
        return forward(spec, params, images)
    monkeypatch.setattr(runner, "forward", counted)
    return calls


def double_the_gradient(monkeypatch):
    """Make `nn.loss_and_grad`, as the finite-difference check calls it, return 2x the gradient."""
    true_loss_and_grad = nn.loss_and_grad

    def doubled(*args):
        loss, grad = true_loss_and_grad(*args)
        return loss, 2.0 * grad
    monkeypatch.setattr(nn, "loss_and_grad", doubled)


def write_idx_images(path, images_u8):
    n, rows, cols = images_u8.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images_u8.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(int(v) for v in labels))


def write_cifar10_bin(path, dataset):
    """Inverse of problems.load_cifar10_bin: one label byte, then 3072 pixel bytes."""
    pixels = np.round(dataset.images * 255.0).astype(np.uint8).reshape(dataset.size, 3072)
    with open(path, "wb") as fh:
        for label, row in zip(dataset.labels, pixels):
            fh.write(bytes([int(label)]) + row.tobytes())


def scaled_rows(dataset, idx=slice(None)):
    """Rows `idx` of a dataset as a task sees them (Task.rows scales the raw rows)."""
    stream = TaskStream(transform="relabel", base=dataset, batch_size=1, seed=0)
    return make_task(stream, 0).rows(idx)


def in_file_order(dataset):
    """A loader's Dataset of every file row, drawn with RngStream(0), put back in file order."""
    back = np.argsort(RngStream(0).permutation(dataset.size))
    return Dataset(dataset.images[back], dataset.labels[back], divisor=dataset.divisor)


@pytest.fixture
def rng():
    return RngStream(1234)
