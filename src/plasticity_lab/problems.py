"""Dataset ingestion and non-stationary task stream construction.

A `TaskStream` turns one base dataset into a sequence of tasks by one of
two kinds of non-stationarity: input permutation (pixels shuffled per
task, labels kept) or random relabelling (inputs kept, labels redrawn per
task). The base dataset is an MNIST IDX pair (`load_mnist`), a CIFAR-10
binary batch (`load_cifar10_bin`), or a seeded synthetic set
(`make_synthetic_dataset`); `runner.build_stream` picks one per problem.
All task construction is pure: task i is a function of (stream seed, i)
only, so streams are random-access and reproducible.

File formats:
  IDX (big endian): [magic u32][dim sizes u32 x ndim][payload u8...],
      magic 0x00000803 for 3-D image files, 0x00000801 for label files.
  CIFAR-10 binary: records of 3073 bytes, 1 label byte then 1024 R,
      1024 G, 1024 B pixel bytes.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .rng import RngStream

log = logging.getLogger(__name__)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


@dataclass
class Dataset:
    """Images scaled to [0,1] with integer labels in [0,10)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.images.shape[0]
        if n == 0:
            raise DataFormatError("dataset is empty")
        if self.labels.shape != (n,):
            raise DataFormatError(
                f"label count {self.labels.shape} != image count {n}"
            )
        if self.labels.min() < 0 or self.labels.max() >= 10:
            raise DataFormatError("labels outside [0, 10)")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise DataFormatError("image values outside [0, 1]")

    @property
    def size(self) -> int:
        return self.images.shape[0]


def _file_digest(path: str, payload: bytes) -> None:
    log.info("loaded %s (sha256 %s)", path, hashlib.sha256(payload).hexdigest())


def load_idx(path: str) -> np.ndarray:
    """Parse one IDX file into pixel data in [0,1] or an int label vector."""
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) < 4:
        raise DataFormatError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", payload[:4])
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise DataFormatError(f"{path}: unexpected IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(payload) < header:
        raise DataFormatError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", payload[4:header])
    count = int(np.prod(dims))
    if len(payload) != header + count:
        raise DataFormatError(
            f"{path}: payload length {len(payload) - header} != expected {count}"
        )
    _file_digest(path, payload)
    raw = np.frombuffer(payload, dtype=np.uint8, offset=header).reshape(dims)
    if magic == IDX_LABELS_MAGIC:
        return raw.astype(np.int64)
    return raw.astype(np.float64) / 255.0


def load_mnist(images_path: str, labels_path: str) -> Dataset:
    """Parse an MNIST IDX image/label pair, images flattened to 784 features."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise DataFormatError(f"{images_path}: expected an image IDX file")
    if labels.ndim != 1:
        raise DataFormatError(f"{labels_path}: expected a label IDX file")
    return Dataset(images=images.reshape(images.shape[0], -1), labels=labels)


def load_cifar10_bin(path: str) -> Dataset:
    """Parse one CIFAR-10 binary batch into (N,3,32,32) images and labels."""
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(
            f"{path}: length {len(payload)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    n = len(payload) // CIFAR_RECORD_BYTES
    if n == 0:
        raise DataFormatError(f"{path}: no records")
    _file_digest(path, payload)
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    images = raw[:, 1:].reshape(n, 3, 32, 32).astype(np.float64) / 255.0
    return Dataset(images=images, labels=labels)


def write_cifar10_bin(path: str, dataset: Dataset) -> None:
    """Inverse of load_cifar10_bin, for building test fixtures."""
    pixels = np.round(dataset.images * 255.0).astype(np.uint8).reshape(dataset.size, 3072)
    with open(path, "wb") as fh:
        for label, row in zip(dataset.labels, pixels):
            fh.write(bytes([int(label)]) + row.tobytes())


def subsample(dataset: Dataset, n: int, rng: RngStream) -> Dataset:
    """Draw n distinct samples without replacement, order fixed by rng."""
    if n > dataset.size:
        raise ValueError(f"cannot subsample {n} from {dataset.size} samples")
    idx = rng.permutation(dataset.size)[:n]
    return Dataset(images=dataset.images[idx], labels=dataset.labels[idx])


@dataclass(frozen=True)
class TaskStream:
    """A lazy sequence of tasks derived from one base dataset and one seed."""

    transform: str  # "permute" | "relabel"
    base: Dataset
    num_tasks: int
    steps_per_task: int
    batch_size: int
    seed: int
    num_classes: int = 10

    def __post_init__(self):
        if self.transform not in ("permute", "relabel"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.transform == "permute" and self.base.images.ndim != 2:
            raise ValueError("permutation streams need flat (N, D) images")

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.base.size // self.batch_size)

    @property
    def total_steps(self) -> int:
        return self.num_tasks * self.steps_per_task


@dataclass(frozen=True)
class Task:
    stream: TaskStream
    index: int
    images: np.ndarray
    labels: np.ndarray

    @property
    def start_step(self) -> int:
        return self.index * self.stream.steps_per_task


def make_task(stream: TaskStream, i: int) -> Task:
    """Materialize task i. Pure: calling twice yields identical datasets."""
    if not 0 <= i < stream.num_tasks:
        raise ValueError(f"task index {i} outside [0, {stream.num_tasks})")
    task_rng = RngStream(stream.seed).split("task", i)
    if stream.transform == "permute":
        perm = task_rng.permutation(stream.base.images.shape[1])
        images = stream.base.images[:, perm]
        labels = stream.base.labels
    else:
        images = stream.base.images
        labels = np.asarray(
            task_rng.integers(0, stream.num_classes, stream.base.size), dtype=np.int64
        )
    return Task(stream=stream, index=i, images=images, labels=labels)


def next_batch(task: Task, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch for one step of a task, under fresh-shuffle-per-epoch delivery.

    Each epoch visits every sample exactly once; epoch e of task i is
    ordered by the substream (seed, "shuffle", i, e), so delivery is
    random-access in `step`.
    """
    stream = task.stream
    if not 0 <= step < stream.steps_per_task:
        raise ValueError(f"step {step} outside [0, {stream.steps_per_task})")
    bpe = stream.batches_per_epoch
    epoch, b = divmod(step, bpe)
    order = RngStream(stream.seed).split("shuffle", task.index, epoch).permutation(
        task.images.shape[0]
    )
    take = order[b * stream.batch_size : (b + 1) * stream.batch_size]
    return task.images[take], task.labels[take]


def probe_batch(task: Task, size: int) -> np.ndarray:
    """Deterministic probe sample from a task for diagnostics."""
    n = task.images.shape[0]
    if size >= n:
        return task.images
    idx = RngStream(task.stream.seed).split("probe", task.index).permutation(n)[:size]
    return task.images[idx]


def make_synthetic_dataset(width: int, classes: int, n: int, rng: RngStream) -> Dataset:
    """Seeded stand-in data: uniform [0,1]^width inputs, uniform labels."""
    images = rng.uniform(0.0, 1.0, (n, width))
    labels = np.asarray(rng.integers(0, classes, n), dtype=np.int64)
    return Dataset(images=images, labels=labels)
