"""Seeded synthetic dataset files in the byte formats the lab parses.

The files are written straight from the formats documented in
`plasticity_lab/problems.py`; nothing here imports the lab, so the program
under test sees only file paths.

  IDX (big endian): [magic u32][dim sizes u32 x ndim][payload u8...]
  CIFAR-10 binary: records of 3073 bytes, 1 label byte then 3072 pixels.

MNIST-shaped images are class-conditional: each class has a fixed set of
"ink" pixels inside the central 20x20 box, a few pixels flip per image,
and ink intensity varies. That keeps the inputs as sparse as real digits
(about 80% zero bytes) and the labels learnable, so permuted-MNIST runs
train as they would on real data. CIFAR-shaped records are uniform bytes;
the random-label problem redraws every label per task anyway.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MNIST_COUNT = 60_000
MNIST_SIDE = 28
CIFAR_COUNT = 10_000  # the size of one data_batch_N.bin
CIFAR_RECORD_BYTES = 3073
CHUNK = 10_000


def _generator(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *label.encode()]))


def write_mnist_idx(images_path: str, labels_path: str, seed: int) -> None:
    """Write a 60,000 x 28 x 28 image IDX file and its label IDX file."""
    rng = _generator(seed, "mnist")
    labels = rng.integers(0, 10, MNIST_COUNT, dtype=np.uint8)
    box = np.zeros((MNIST_SIDE, MNIST_SIDE), dtype=bool)
    box[4:24, 4:24] = True
    ink = (rng.random((10, MNIST_SIDE, MNIST_SIDE)) < 0.3) & box
    ink = ink.reshape(10, -1)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, MNIST_COUNT, MNIST_SIDE, MNIST_SIDE))
        for lo in range(0, MNIST_COUNT, CHUNK):
            chunk = labels[lo : lo + CHUNK]
            noise = rng.integers(0, 256, (chunk.size, 2, MNIST_SIDE * MNIST_SIDE), dtype=np.uint8)
            flip = (noise[:, 0] < 13) & box.reshape(-1)  # ~5% of the box per image
            on = ink[chunk] ^ flip
            fh.write(np.where(on, noise[:, 1] | 0x80, 0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, MNIST_COUNT))
        fh.write(labels.tobytes())


def write_cifar_bin(path: str, seed: int) -> None:
    """Write a 10,000-record CIFAR-10 binary batch."""
    rng = _generator(seed, "cifar")
    with open(path, "wb") as fh:
        for lo in range(0, CIFAR_COUNT, CHUNK):
            n = min(CHUNK, CIFAR_COUNT - lo)
            records = rng.integers(0, 256, (n, CIFAR_RECORD_BYTES), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 10, n, dtype=np.uint8)
            fh.write(records.tobytes())


def make_inputs(directory: str, data: str, seed: int) -> dict[str, str]:
    """Write the "mnist" or "cifar" files into `directory`; returns config key -> path."""
    if data == "mnist":
        paths = {"mnist_images": os.path.join(directory, "train-images-idx3-ubyte"),
                 "mnist_labels": os.path.join(directory, "train-labels-idx1-ubyte")}
        write_mnist_idx(paths["mnist_images"], paths["mnist_labels"], seed)
    else:
        paths = {"cifar_bin": os.path.join(directory, "data_batch_1.bin")}
        write_cifar_bin(paths["cifar_bin"], seed)
    return paths
