"""Dataset ingestion and non-stationary task stream construction.

A `TaskStream` turns one base dataset into a sequence of tasks by one of
two kinds of non-stationarity: input permutation (pixels shuffled per
task, labels kept) or random relabelling (inputs kept, labels redrawn per
task). A permuted task is only a column order over the base rows, applied
to the rows each batch gathers, so no task copies the images. The base
dataset is an MNIST IDX pair (`load_mnist`), a CIFAR-10 binary batch
(`load_cifar10_bin`), or a seeded synthetic set (`make_synthetic_dataset`);
`runner.build_stream` picks one per problem.
The file loaders check the byte format and return raw read-only uint8 rows;
`subsample` checks counts and labels and keeps n raw rows; only `Task.rows`
scales, by `Dataset.divisor`, the rows each batch or probe gathers.
Nothing downstream re-checks: the runner's loops keep task and step indices
in range. Task i is a pure function of (stream seed, i), so streams are
random-access and reproducible.

File formats:
  IDX (big endian): [magic u32][dim sizes u32 x ndim][payload u8...],
      magic 0x00000803 for 3-D image files, 0x00000801 for label files.
  CIFAR-10 binary: records of 3073 bytes, 1 label byte then 1024 R,
      1024 G, 1024 B pixel bytes.
"""

from __future__ import annotations

import functools
import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .rng import RngStream

log = logging.getLogger(__name__)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


@dataclass
class Dataset:
    """Base rows, integer labels in [0,10); tasks see images / divisor (255.0 for uint8 rows)."""

    images: np.ndarray
    labels: np.ndarray
    divisor: float = 1.0

    @property
    def size(self) -> int:
        return self.images.shape[0]


def load_idx(path: str) -> np.ndarray:
    """Parse one IDX file into its read-only uint8 payload, shaped by its header."""
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
    log.info("loaded %s", path)
    return np.frombuffer(payload, dtype=np.uint8, offset=header).reshape(dims)


def load_mnist(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an MNIST IDX image/label pair: raw (N, 784) pixel rows and N labels."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise DataFormatError(f"{images_path}: expected an image IDX file")
    if labels.ndim != 1:
        raise DataFormatError(f"{labels_path}: expected a label IDX file")
    n, rows, cols = images.shape  # not reshape(n, -1): that fails on an empty file
    return images.reshape(n, rows * cols), labels


def load_cifar10_bin(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse one CIFAR-10 binary batch: raw (N,3,32,32) pixels and N labels."""
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(
            f"{path}: length {len(payload)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    n = len(payload) // CIFAR_RECORD_BYTES
    if n == 0:
        raise DataFormatError(f"{path}: no records")
    log.info("loaded %s", path)
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    return raw[:, 1:].reshape(n, 3, 32, 32), raw[:, 0]


def subsample(images: np.ndarray, labels: np.ndarray, n: int, rng: RngStream) -> Dataset:
    """Keep n raw uint8 rows of a file, in rng's order, after checking counts and label range."""
    size = images.shape[0]
    if size == 0:
        raise DataFormatError("dataset is empty")
    if labels.shape != (size,):
        raise DataFormatError(f"label count {labels.shape} != image count {size}")
    if labels.max() >= 10:
        raise DataFormatError("labels outside [0, 10)")
    if n > size:
        raise ConfigError(f"cannot subsample {n} from {size} samples")
    idx = rng.permutation(size)[:n]
    return Dataset(images[idx], labels[idx].astype(np.int64), divisor=255.0)


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


@dataclass(frozen=True)
class Task:
    stream: TaskStream
    index: int
    perm: np.ndarray | None  # a permuted task's column order; None for a relabel task
    labels: np.ndarray

    @property
    def start_step(self) -> int:
        return self.index * self.stream.steps_per_task

    def rows(self, idx) -> np.ndarray:
        """Base rows `idx` as this task sees them: C-ordered float64 over the divisor."""
        rows = self.stream.base.images[idx]
        rows = rows if self.perm is None else np.take(rows, self.perm, axis=1)
        return rows / self.stream.base.divisor


def make_task(stream: TaskStream, i: int) -> Task:
    """Task i < num_tasks. Pure: calling twice yields identical column orders and labels."""
    task_rng = RngStream(stream.seed).split("task", i)
    if stream.transform == "permute":
        perm = task_rng.permutation(stream.base.images.shape[1])
        labels = stream.base.labels
    else:
        perm = None
        labels = np.asarray(
            task_rng.integers(0, stream.num_classes, stream.base.size), dtype=np.int64
        )
    return Task(stream=stream, index=i, perm=perm, labels=labels)


def next_batch(task: Task, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch for `step` (< steps_per_task) of a task, under fresh-shuffle-per-epoch delivery.

    Each epoch visits every sample exactly once; epoch e of task i is
    ordered by the substream (seed, "shuffle", i, e), so delivery is
    random-access in `step`. The order is drawn once per epoch and cached.
    """
    stream = task.stream
    epoch, b = divmod(step, stream.batches_per_epoch)
    order = _epoch_order(stream.seed, task.index, epoch, stream.base.size)
    take = order[b * stream.batch_size : (b + 1) * stream.batch_size]
    return task.rows(take), task.labels[take]


@functools.lru_cache(maxsize=4)
def _epoch_order(seed: int, task_index: int, epoch: int, n: int) -> np.ndarray:
    """Sample order of one epoch; a pure function, so caching it changes no batch."""
    order = RngStream(seed).split("shuffle", task_index, epoch).permutation(n)
    order.setflags(write=False)
    return order


def probe_batch(task: Task, size: int) -> np.ndarray:
    """Deterministic probe sample from a task for diagnostics."""
    n = task.stream.base.size
    if size >= n:
        return task.rows(slice(None))
    idx = RngStream(task.stream.seed).split("probe", task.index).permutation(n)[:size]
    return task.rows(idx)


def make_synthetic_dataset(width: int, classes: int, n: int, rng: RngStream) -> Dataset:
    """Seeded stand-in data: uniform [0,1]^width inputs, uniform labels."""
    images = rng.uniform(0.0, 1.0, (n, width))
    labels = np.asarray(rng.integers(0, classes, n), dtype=np.int64)
    return Dataset(images=images, labels=labels)
