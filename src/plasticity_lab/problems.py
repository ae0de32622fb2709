"""Dataset ingestion and non-stationary task stream construction.

A `TaskStream` turns one base dataset into a sequence of tasks by one of
two kinds of non-stationarity: input permutation (pixels shuffled per
task, labels kept) or random relabelling (inputs kept, labels redrawn per
task). A permuted task is only a column order over the base rows, applied
to the rows each batch gathers, so no task copies the images. The base
dataset is n rows of an MNIST IDX pair (`load_idx`), of a CIFAR-10 binary
batch (`load_cifar10_bin`), or a seeded synthetic set
(`make_synthetic_dataset`); `runner.build_stream` picks one per problem.
A file loader checks each header against the file's length, streams every
label in one pass for `subsample` to check (CIFAR's kept records ride along),
and keeps n raw uint8 rows drawn from the record count alone, with one
positional read each when sparse; no file is read twice or held whole.
Only `Task.rows` scales, by `Dataset.divisor`, the rows each batch or probe gathers.
Nothing downstream re-checks: a stream has no length, and the runner's loops,
over its config's `num_tasks` and `steps_per_task`, keep task and step indices
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
READ_CALL_BYTES = 8 << 10  # one read call costs about as much as streaming this many bytes


@dataclass
class Dataset:
    """Base rows, integer labels in [0,10); tasks see images / divisor (255.0 for uint8 rows)."""

    images: np.ndarray
    labels: np.ndarray
    divisor: float = 1.0

    @property
    def size(self) -> int:
        return self.images.shape[0]


def _idx_dims(path: str, magic: int) -> tuple[int, ...]:
    """An IDX file's dimension sizes, after checking its magic and header against its length."""
    ndim = 3 if magic == IDX_IMAGES_MAGIC else 1
    with open(path, "rb") as fh:
        head = fh.read(4 + 4 * ndim)
        payload = os.fstat(fh.fileno()).st_size - len(head)
    if len(head) < 4:
        raise DataFormatError(f"{path}: truncated IDX header")
    (found,) = struct.unpack(">I", head[:4])
    if found != magic:
        raise DataFormatError(f"{path}: unexpected IDX magic 0x{found:08x} (want 0x{magic:08x})")
    if len(head) < 4 + 4 * ndim:
        raise DataFormatError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", head[4:])
    count = int(np.prod(dims))
    if payload != count:
        raise DataFormatError(f"{path}: payload length {payload} != expected {count}")
    return dims


def _read_records(path: str, offset: int, record_bytes: int, idx, cols=slice(None), first=None):
    """Bytes `cols` of records `idx` (in idx order) of the fixed-size records from `offset`.

    Records sparse in the span up to the last kept one (len(idx) x READ_CALL_BYTES <
    the span's bytes) are read in file order, one `os.preadv` each: on the benchmark's
    MNIST file, page cache warm, a call took 0.9-1.5 us and streaming 0.08-0.13 ns a
    byte. Otherwise one pass streams the span through one reused READ_BYTES buffer,
    copying out only the kept bytes; with `first` (one entry per record) it runs over
    every record and also puts each one's byte 0 there, as the label files are read.
    """
    order = np.argsort(idx, kind="stable")
    wanted = idx[order]
    span = range(record_bytes)[cols]
    out = np.empty((len(idx), len(span)), dtype=np.uint8)
    end = len(first) if first is not None else int(wanted[-1]) + 1 if len(idx) else 0
    if first is None and len(idx) * READ_CALL_BYTES < end * record_bytes:
        with open(path, "rb", buffering=0) as fh:
            fd = fh.fileno()
            for k, i in zip(order.tolist(), wanted.tolist()):
                at = offset + i * record_bytes + span.start
                if os.preadv(fd, [out[k]], at) != len(span):  # the file shrank since its check
                    raise DataFormatError(f"{path}: file ended before record {i + 1}")
        return out
    per_read = max(1, READ_BYTES // max(record_bytes, 1))
    buf = np.empty(per_read * record_bytes, dtype=np.uint8)
    with open(path, "rb") as fh:
        fh.seek(offset)
        for start in range(0, end, per_read):
            count = min(per_read, end - start)
            view = buf[: count * record_bytes]
            if fh.readinto(view) != view.nbytes:  # the file shrank after its length check
                raise DataFormatError(f"{path}: file ended before record {start + count}")
            rows = view.reshape(count, record_bytes)
            if first is not None:
                first[start : start + count] = rows[:, 0]
            lo, hi = np.searchsorted(wanted, (start, start + count))
            out[order[lo:hi]] = rows[wanted[lo:hi] - start, cols]
    return out


def load_idx(images_path: str, labels_path: str, n: int, rng: RngStream) -> Dataset:
    """Keep n rows of an MNIST IDX image/label pair, reading only the kept image rows."""
    size, rows, cols = _idx_dims(images_path, IDX_IMAGES_MAGIC)
    if rows * cols == 0:
        raise DataFormatError(f"{images_path}: images of {rows}x{cols} pixels hold no data")
    (count,) = _idx_dims(labels_path, IDX_LABELS_MAGIC)
    labels = np.empty(count, dtype=np.uint8)
    _read_records(labels_path, 8, 1, np.arange(0), first=labels)
    idx = subsample(size, labels, n, rng.permutation(size)[:n])
    images = _read_records(images_path, 16, rows * cols, idx)
    log.info("loaded %s and %s", images_path, labels_path)
    return Dataset(images, labels[idx].astype(np.int64), divisor=255.0)


def load_cifar10_bin(path: str, n: int, rng: RngStream) -> Dataset:
    """Keep n records of a CIFAR-10 binary batch, in one pass that also reads every label."""
    with open(path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
    if length % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(f"{path}: length {length} is not a multiple of {CIFAR_RECORD_BYTES}")
    size = length // CIFAR_RECORD_BYTES
    if size == 0:
        raise DataFormatError(f"{path}: no records")
    idx = rng.permutation(size)[:n] if n <= size else np.arange(0)  # subsample rejects n > size
    labels = np.empty(size, dtype=np.uint8)
    images = _read_records(path, 0, CIFAR_RECORD_BYTES, idx, slice(1, None), first=labels)
    subsample(size, labels, n, idx)
    log.info("loaded %s", path)
    return Dataset(images.reshape(-1, 3, 32, 32), labels[idx].astype(np.int64), divisor=255.0)


def subsample(size: int, labels: np.ndarray, n: int, idx: np.ndarray) -> np.ndarray:
    """The kept row indices `idx`, rng.permutation(size)[:n], once counts and labels check out."""
    if size == 0:
        raise DataFormatError("dataset is empty")
    if labels.shape != (size,):
        raise DataFormatError(f"label count {labels.shape} != image count {size}")
    if labels.max() >= 10:
        raise DataFormatError("labels outside [0, 10)")
    if n > size:
        raise ConfigError(f"cannot subsample {n} from {size} samples")
    return idx


@dataclass(frozen=True)
class TaskStream:
    """A lazy sequence of tasks derived from one base dataset and one seed."""

    transform: str  # "permute" | "relabel"
    base: Dataset
    batch_size: int
    seed: int
    num_classes: int = 10

    def __post_init__(self):
        if self.transform not in ("permute", "relabel"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.transform == "permute" and self.base.images.ndim != 2:
            raise ValueError("permutation streams need flat (N, D) images")


@dataclass(frozen=True)
class Task:
    stream: TaskStream
    index: int
    perm: np.ndarray | None  # a permuted task's column order; None for a relabel task
    labels: np.ndarray

    def rows(self, idx) -> np.ndarray:
        """Base rows `idx` as this task sees them: C-ordered float64 over the divisor."""
        rows = self.stream.base.images[idx]
        rows = rows if self.perm is None else np.take(rows, self.perm, axis=1)
        return rows / self.stream.base.divisor


def make_task(stream: TaskStream, i: int) -> Task:
    """Task i >= 0 of the stream. Pure: calling twice yields identical column orders and labels."""
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
    """Batch for `step` >= 0 of a task, under fresh-shuffle-per-epoch delivery.

    Each epoch, ceil(n / batch_size) batches, visits every sample exactly
    once; epoch e of task i is ordered by the substream (seed, "shuffle", i, e),
    so delivery is random-access in `step`. The order is drawn once per epoch and cached.
    """
    stream = task.stream
    epoch, b = divmod(step, -(-stream.base.size // stream.batch_size))
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
