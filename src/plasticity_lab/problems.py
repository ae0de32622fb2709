"""Dataset ingestion and non-stationary task stream construction.

A `TaskStream` turns one base dataset into a sequence of tasks by one of
two kinds of non-stationarity: input permutation (pixels shuffled per
task, labels kept) or random relabelling (inputs kept, labels redrawn per
task). A permuted task is only a column order over the base rows, applied
to the rows each batch gathers, so no task copies the images. The base
dataset is n rows of an MNIST IDX pair (`load_idx`), of a CIFAR-10 binary
batch (`load_cifar10_bin`), or a seeded synthetic set
(`make_synthetic_dataset`); `runner.build_stream` picks one per problem.
A file loader checks each header against the file's length and reads every
label; `subsample` checks counts and labels and draws the n kept indices;
then one pass over the file, through one reused READ_BYTES buffer, copies
out only the kept raw uint8 rows, so no whole file is ever held. Only
`Task.rows` scales, by `Dataset.divisor`, the rows each batch or probe gathers.
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
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .rng import RngStream

log = logging.getLogger(__name__)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073
READ_BYTES = 1 << 20  # the loaders' read buffer


@dataclass
class Dataset:
    """Base rows, integer labels in [0,10); tasks see images / divisor (255.0 for uint8 rows)."""

    images: np.ndarray
    labels: np.ndarray
    divisor: float = 1.0

    @property
    def size(self) -> int:
        return self.images.shape[0]


def _idx_dims(path: str) -> tuple[int, ...]:
    """An IDX file's dimension sizes, after checking its header against its length."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if len(head) < 4:
            raise DataFormatError(f"{path}: truncated IDX header")
        (magic,) = struct.unpack(">I", head)
        if magic == IDX_IMAGES_MAGIC:
            ndim = 3
        elif magic == IDX_LABELS_MAGIC:
            ndim = 1
        else:
            raise DataFormatError(f"{path}: unexpected IDX magic 0x{magic:08x}")
        head = fh.read(4 * ndim)
        if len(head) < 4 * ndim:
            raise DataFormatError(f"{path}: truncated IDX dimension header")
        payload = os.fstat(fh.fileno()).st_size - 4 - 4 * ndim
    dims = struct.unpack(f">{ndim}I", head)
    count = int(np.prod(dims))
    if payload != count:
        raise DataFormatError(f"{path}: payload length {payload} != expected {count}")
    return dims


def _read_records(path: str, offset: int, record_bytes: int, idx, cols=slice(None)):
    """Bytes `cols` of records `idx` (in idx order) of the fixed-size records from `offset`.

    One pass over the file through one reused buffer of READ_BYTES; only the
    kept bytes are copied out, so no whole file is ever held.
    """
    order = np.argsort(idx, kind="stable")
    wanted = idx[order]
    out = np.empty((len(idx), len(range(record_bytes)[cols])), dtype=np.uint8)
    per_read = max(1, READ_BYTES // max(record_bytes, 1))
    buf = np.empty(per_read * record_bytes, dtype=np.uint8)
    end = int(wanted[-1]) + 1 if len(idx) else 0
    with open(path, "rb") as fh:
        fh.seek(offset)
        for start in range(0, end, per_read):
            count = min(per_read, end - start)
            view = buf[: count * record_bytes]
            if fh.readinto(view) != view.nbytes:  # the file shrank after its length check
                raise DataFormatError(f"{path}: file ended before record {start + count}")
            lo, hi = np.searchsorted(wanted, (start, start + count))
            out[order[lo:hi]] = view.reshape(count, record_bytes)[wanted[lo:hi] - start, cols]
    return out


def load_idx(images_path: str, labels_path: str, n: int, rng: RngStream) -> Dataset:
    """Keep n rows of an MNIST IDX image/label pair, reading only the kept image rows."""
    image_dims = _idx_dims(images_path)
    label_dims = _idx_dims(labels_path)
    if len(image_dims) != 3:
        raise DataFormatError(f"{images_path}: expected an image IDX file")
    if len(label_dims) != 1:
        raise DataFormatError(f"{labels_path}: expected a label IDX file")
    size, rows, cols = image_dims
    labels = _read_records(labels_path, 8, 1, np.arange(label_dims[0]))[:, 0]
    idx = subsample(size, labels, n, rng)
    images = _read_records(images_path, 16, rows * cols, idx)
    log.info("loaded %s and %s", images_path, labels_path)
    return Dataset(images, labels[idx].astype(np.int64), divisor=255.0)


def load_cifar10_bin(path: str, n: int, rng: RngStream) -> Dataset:
    """Keep n records of a CIFAR-10 binary batch, reading only the kept records' pixels."""
    with open(path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
    if length % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(f"{path}: length {length} is not a multiple of {CIFAR_RECORD_BYTES}")
    size = length // CIFAR_RECORD_BYTES
    if size == 0:
        raise DataFormatError(f"{path}: no records")
    labels = _read_records(path, 0, CIFAR_RECORD_BYTES, np.arange(size), slice(0, 1))[:, 0]
    idx = subsample(size, labels, n, rng)
    images = _read_records(path, 0, CIFAR_RECORD_BYTES, idx, slice(1, None))
    log.info("loaded %s", path)
    return Dataset(images.reshape(-1, 3, 32, 32), labels[idx].astype(np.int64), divisor=255.0)


def subsample(size: int, labels: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """The n kept row indices of `size`, in rng's order, after checking counts and labels."""
    if size == 0:
        raise DataFormatError("dataset is empty")
    if labels.shape != (size,):
        raise DataFormatError(f"label count {labels.shape} != image count {size}")
    if labels.max() >= 10:
        raise DataFormatError("labels outside [0, 10)")
    if n > size:
        raise ConfigError(f"cannot subsample {n} from {size} samples")
    return rng.permutation(size)[:n]


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
