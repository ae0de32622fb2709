import struct

import numpy as np
import pytest

from plasticity_lab.nn import NetworkSpec, init_params
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


def write_idx_images(path, images_u8):
    n, rows, cols = images_u8.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images_u8.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(int(v) for v in labels))


@pytest.fixture
def rng():
    return RngStream(1234)
