import os
import struct
import tracemalloc
import types

import numpy as np
import pytest

from conftest import (
    in_file_order,
    scaled_rows,
    write_cifar10_bin,
    write_idx_images,
    write_idx_labels,
)
from plasticity_lab import problems
from plasticity_lab.cli import main
from plasticity_lab.config import RunConfig
from plasticity_lab.errors import ConfigError, DataFormatError
from plasticity_lab.nn import NetworkSpec, forward, init_params, loss_and_grad
from plasticity_lab.optim import MethodConfig, apply_method_step, make_optimizer
from plasticity_lab.problems import (
    CIFAR_RECORD_BYTES,
    READ_BYTES,
    READ_CALL_BYTES,
    Dataset,
    load_cifar10_bin,
    load_idx,
    make_task,
    next_batch,
    probe_batch,
    subsample,
)
from plasticity_lab.rng import RngStream
from plasticity_lab.runner import build_stream


# --- IDX parsing ------------------------------------------------------------

def idx_pair(tmp_path, images_u8, labels):
    write_idx_images(tmp_path / "i.idx", images_u8)
    write_idx_labels(tmp_path / "l.idx", labels)
    return str(tmp_path / "i.idx"), str(tmp_path / "l.idx")


def test_idx_images_fixture_scaled(tmp_path):
    imgs = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
    out = in_file_order(load_idx(*idx_pair(tmp_path, imgs, [5, 0]), 2, RngStream(0)))
    assert out.images.dtype == np.uint8 and out.divisor == 255.0
    assert np.array_equal(out.images, imgs.reshape(2, 4))
    # only Task.rows scales, and only the rows a batch or probe gathers
    assert scaled_rows(out).tolist() == [[0.0, 1.0, 128 / 255, 64 / 255],
                                         [1 / 255, 2 / 255, 3 / 255, 4 / 255]]


def test_idx_labels_fixture(tmp_path):
    imgs = np.zeros((2, 1, 1), dtype=np.uint8)
    out = in_file_order(load_idx(*idx_pair(tmp_path, imgs, [5, 0]), 2, RngStream(0)))
    assert out.labels.dtype == np.int64
    assert np.array_equal(out.labels, [5, 0])


def test_idx_bad_magic_reports_observed_value(tmp_path):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000899, 2))
    with pytest.raises(DataFormatError, match="0x00000899"):
        load_idx(str(path), str(path), 1, RngStream(0))


def test_idx_files_given_the_wrong_way_round_are_format_errors(tmp_path):
    images, labels = idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8), [5, 0])
    with pytest.raises(DataFormatError, match=r"0x00000801 \(want 0x00000803\)"):
        load_idx(labels, images, 1, RngStream(0))


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        fh.write(b"\x00" * 5)  # needs 8
    with pytest.raises(DataFormatError, match="length"):
        load_idx(str(path), str(path), 1, RngStream(0))


# --- CIFAR parsing -------------------------------------------------------------

def test_cifar_single_record(tmp_path):
    path = tmp_path / "one.bin"
    with open(path, "wb") as fh:
        fh.write(bytes([7]) + b"\xff" * 3072)
    ds = load_cifar10_bin(str(path), 1, RngStream(0))
    assert ds.images.dtype == np.uint8 and ds.images.shape == (1, 3, 32, 32)
    assert np.all(ds.images == 255)
    assert ds.size == 1
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [7]
    assert np.all(scaled_rows(ds) == 1.0)


def test_cifar_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(DataFormatError):
        load_cifar10_bin(str(path), 1, RngStream(0))


def test_cifar_bad_length_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 3072)  # one byte short of a record
    with pytest.raises(DataFormatError, match="3073"):
        load_cifar10_bin(str(path), 1, RngStream(0))


def test_cifar_round_trip(tmp_path):
    rng = RngStream(0)
    images = np.round(rng.uniform(0, 1, (2, 3, 32, 32)) * 255) / 255
    labels = np.array([3, 9])
    path = tmp_path / "two.bin"
    write_cifar10_bin(str(path), Dataset(images=images, labels=labels))
    out = in_file_order(load_cifar10_bin(str(path), 2, RngStream(0)))
    assert np.array_equal(out.images, np.round(images * 255))
    assert np.array_equal(scaled_rows(out), images)
    assert np.array_equal(out.labels, labels)


# --- subsample ------------------------------------------------------------------

def raw_labels(n=40, seed=0):
    return RngStream(seed).integers(0, 10, n).astype(np.uint8)


def kept(size, labels, n, rng):
    """The kept rows, as a loader gets them: drawn, then checked by subsample."""
    return subsample(size, labels, n, rng.permutation(size)[:n])


def test_subsample_full_size_is_permutation():
    out = kept(40, raw_labels(), 40, RngStream(1).split("s"))
    assert sorted(out.tolist()) == list(range(40))


def test_subsample_deterministic():
    a = kept(40, raw_labels(), 10, RngStream(2).split("s"))
    b = kept(40, raw_labels(), 10, RngStream(2).split("s"))
    assert np.array_equal(a, b)


def test_subsample_distinct_indices_fuzz():
    labels = raw_labels(n=25)
    for trial in range(1000):
        out = kept(25, labels, 10, RngStream(trial).split("s"))
        assert len(set(out.tolist())) == 10 and 0 <= out.min() and out.max() < 25


def test_subsample_too_large_rejected():
    with pytest.raises(ConfigError):
        kept(5, raw_labels(n=5), 6, RngStream(0))


# --- task construction -----------------------------------------------------------

def synthetic_stream(transform="permute", n=32, k=6, m=10, seed=0, classes=10, width=12):
    problem = "synthetic_permuted" if transform == "permute" else "synthetic_random_label"
    return build_stream(RunConfig(problem=problem, input_width=width, classes=classes,
                                  dataset_size=n, num_tasks=k, steps_per_task=m, seed=seed))


def test_make_task_is_pure():
    stream = synthetic_stream()
    a = make_task(stream, 3)
    b = make_task(stream, 3)
    assert np.array_equal(a.perm, b.perm)
    assert np.array_equal(a.rows(slice(None)), b.rows(slice(None)))
    assert np.array_equal(a.labels, b.labels)


def test_permuted_tasks_permute_pixels_only():
    stream = synthetic_stream("permute")
    task = make_task(stream, 1)
    images = task.rows(slice(None))
    assert np.array_equal(task.labels, stream.base.labels)
    assert not np.array_equal(images, stream.base.images)
    # the permutation is a bijection: every row keeps the same multiset of pixels
    assert np.allclose(np.sort(images, axis=1), np.sort(stream.base.images, axis=1))


def test_relabel_tasks_keep_images_and_fix_labels_within_task():
    stream = synthetic_stream("relabel", n=2000, width=784)
    tracemalloc.start()
    try:
        task = make_task(stream, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert task.perm is None
    assert peak < stream.base.images.nbytes / 10, peak  # the task holds no copy of the images
    assert np.array_equal(task.rows(slice(None)), stream.base.images)
    again = make_task(stream, 2)
    assert np.array_equal(task.labels, again.labels)


def test_distinct_tasks_differ():
    stream = synthetic_stream("permute", n=16, k=10)
    for i in range(0, 10, 2):
        a, b = make_task(stream, i), make_task(stream, i + 1)
        assert not np.array_equal(a.rows(slice(None)), b.rows(slice(None)))
    rstream = synthetic_stream("relabel", n=64, k=10)
    for i in range(0, 10, 2):
        a, b = make_task(rstream, i), make_task(rstream, i + 1)
        assert not np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("transform", ["permute", "relabel"])
def test_batches_and_probes_are_c_ordered_base_rows(transform):
    # an F-ordered batch would be slower, and could take another BLAS path and change bits
    stream = synthetic_stream(transform, n=40, m=10)
    task = make_task(stream, 1)
    columns = slice(None) if task.perm is None else task.perm
    order = RngStream(stream.seed).split("shuffle", 1, 1).permutation(40)
    probe_idx = RngStream(stream.seed).split("probe", 1).permutation(40)[:24]
    got = [(next_batch(task, 4)[0], order[16:32]),
           (probe_batch(task, 24), probe_idx),
           (probe_batch(task, 40), np.arange(40))]
    for x, rows in got:
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert np.array_equal(x, stream.base.images[rows][:, columns])


def test_permuted_task_holds_no_copy_of_the_images():
    stream = synthetic_stream("permute", n=2000, width=784)
    tracemalloc.start()
    try:
        task = make_task(stream, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert task.perm.shape == (784,)
    assert peak < stream.base.images.nbytes / 10, peak


# --- batch delivery --------------------------------------------------------------

def test_epoch_partitions_dataset():
    stream = synthetic_stream(n=32, m=10)  # 2 batches/epoch
    task = make_task(stream, 0)
    seen = []
    for step in range(2):
        x, y = next_batch(task, step)
        assert x.shape == (16, 12)
        assert y.shape == (16,)
        seen.extend(map(tuple, x))
    assert len(seen) == 32
    assert {tuple(row) for row in task.rows(slice(None))} == set(seen)


def test_ragged_final_batch_covers_dataset():
    stream = synthetic_stream(n=20, m=4)  # batches of 16 then 4
    task = make_task(stream, 0)
    x0, _ = next_batch(task, 0)
    x1, _ = next_batch(task, 1)
    assert x0.shape[0] == 16 and x1.shape[0] == 4
    rows = {tuple(r) for r in np.vstack([x0, x1])}
    assert rows == {tuple(r) for r in task.rows(slice(None))}


def test_epochs_reshuffle_but_are_deterministic():
    stream = synthetic_stream(n=32, m=10)
    task = make_task(stream, 0)
    first_epoch = [next_batch(task, s)[0] for s in range(2)]
    second_epoch = [next_batch(task, s)[0] for s in range(2, 4)]
    assert not all(np.array_equal(a, b) for a, b in zip(first_epoch, second_epoch))
    again = [next_batch(task, s)[0] for s in range(2)]
    assert all(np.array_equal(a, b) for a, b in zip(first_epoch, again))


def test_shuffled_visits_give_the_sequential_batches():
    # 10 samples, batches of 4 (ragged): 3 batches/epoch, 12 epochs over 2 tasks
    cfg = RunConfig(problem="synthetic_permuted", input_width=12, dataset_size=10,
                    num_tasks=2, steps_per_task=18, batch_size=4)
    stream = build_stream(cfg)
    steps = [(i, s) for i in range(cfg.num_tasks) for s in range(cfg.steps_per_task)]
    tasks = [make_task(stream, i) for i in range(cfg.num_tasks)]
    in_order = {(i, s): next_batch(tasks[i], s) for i, s in steps}
    for j in RngStream(7).permutation(len(steps)):
        i, s = steps[j]
        x, y = next_batch(tasks[i], s)
        assert np.array_equal(x, in_order[i, s][0]) and np.array_equal(y, in_order[i, s][1])


def test_batch_count_totals():
    k, m = 4, 6
    stream = synthetic_stream(n=32, k=k, m=m)
    total = 0
    for i in range(k):
        task = make_task(stream, i)
        for s in range(m):
            next_batch(task, s)
            total += 1
    assert total == k * m == 24


def test_relabel_label_marginals_within_5_sigma():
    stream = synthetic_stream("relabel", n=1200, k=4, m=10, seed=99, width=8)
    task = make_task(stream, 1)
    counts = np.bincount(task.labels, minlength=10)
    expected = 120.0
    sigma = np.sqrt(1200 * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_probe_batch_deterministic_and_capped():
    stream = synthetic_stream(n=32)
    task = make_task(stream, 0)
    assert probe_batch(task, 512).shape[0] == 32
    a = probe_batch(task, 8)
    b = probe_batch(task, 8)
    assert a.shape[0] == 8
    assert np.array_equal(a, b)


# --- MNIST stream plumbing ---------------------------------------------------------

def test_mnist_stream_flattens_and_subsamples(tmp_path):
    rng = RngStream(0)
    imgs = (rng.uniform(0, 1, (30, 28, 28)) * 255).astype(np.uint8)
    labels = np.asarray(rng.integers(0, 10, 30))
    ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(ipath, imgs)
    write_idx_labels(lpath, labels)
    stream = build_stream(RunConfig(problem="permuted_mnist", mnist_images=str(ipath),
                                    mnist_labels=str(lpath), dataset_size=10, num_tasks=5,
                                    steps_per_task=4, batch_size=2, seed=1))
    assert stream.base.images.shape == (10, 784)
    task = make_task(stream, 0)
    x, y = next_batch(task, 0)
    assert x.shape == (2, 784)


def test_cifar_stream_batch_shapes(tmp_path):
    rng = RngStream(1)
    ds = Dataset(
        images=np.round(rng.uniform(0, 1, (40, 3, 32, 32)) * 255) / 255,
        labels=np.asarray(rng.integers(0, 10, 40)),
    )
    path = tmp_path / "batch.bin"
    write_cifar10_bin(str(path), ds)
    stream = build_stream(RunConfig(problem="random_label_cifar", cifar_bin=str(path),
                                    dataset_size=32, num_tasks=3, steps_per_task=2,
                                    batch_size=16, seed=0))
    task = make_task(stream, 0)
    x, y = next_batch(task, 0)
    assert x.shape == (16, 3, 32, 32)
    assert y.shape == (16,)


# --- file data enters through subsample ---------------------------------------------

def dropped_row(n, keep, seed):
    """A row index that build_stream's subsample of `keep` from `n` rows leaves out."""
    kept = set(RngStream(seed).split("subsample").permutation(n)[:keep].tolist())
    return min(set(range(n)) - kept)


def bad_idx_files(tmp_path, n_images, n_labels, bad_label_row=None):
    rng = RngStream(5)
    labels = np.asarray(rng.integers(0, 10, n_labels))
    if bad_label_row is not None:
        labels[bad_label_row] = 10
    write_idx_images(tmp_path / "i.idx", rng.integers(0, 256, (n_images, 28, 28)))
    write_idx_labels(tmp_path / "l.idx", labels)
    return {"problem": "permuted_mnist", "mnist_images": str(tmp_path / "i.idx"),
            "mnist_labels": str(tmp_path / "l.idx")}


def bad_cifar_file(tmp_path, n, bad_label_row=None):
    rng = RngStream(6)
    records = rng.integers(0, 256, (n, 3073)).astype(np.uint8)
    records[:, 0] = rng.integers(0, 10, n)
    if bad_label_row is not None:
        records[bad_label_row, 0] = 10
    (tmp_path / "b.bin").write_bytes(records.tobytes())
    return {"problem": "random_label_cifar", "cifar_bin": str(tmp_path / "b.bin")}


BAD_FILES = {
    "idx_label_10_in_a_dropped_row":
        lambda tmp: bad_idx_files(tmp, 30, 30, bad_label_row=dropped_row(30, 10, seed=1)),
    "cifar_label_10_in_a_dropped_row":
        lambda tmp: bad_cifar_file(tmp, 20, bad_label_row=dropped_row(20, 10, seed=1)),
    "idx_image_and_label_counts_differ": lambda tmp: bad_idx_files(tmp, 30, 29),
    "idx_empty_image_file": lambda tmp: bad_idx_files(tmp, 0, 0),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_data_files_are_format_errors(tmp_path, case):
    fields = {**BAD_FILES[case](tmp_path), "dataset_size": 10, "seed": 1}
    with pytest.raises(DataFormatError):
        build_stream(RunConfig(**fields))
    overrides = [f"{key}={value}" for key, value in fields.items()]
    assert main(["run", f"out={tmp_path / 'o'}", *overrides]) == 2


def test_build_stream_scales_only_the_kept_rows(tmp_path):
    fields = bad_idx_files(tmp_path, 2000, 2000)
    cfg = RunConfig(**fields, dataset_size=100, seed=1)
    tracemalloc.start()
    try:
        stream = build_stream(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.base.images.shape == (100, 784)
    # the kept rows stay raw bytes; only a batch or probe is ever float64
    assert stream.base.images.dtype == np.uint8 and stream.base.divisor == 255.0
    assert stream.base.images.nbytes == 100 * 784
    whole_file_as_float64 = 2000 * 784 * 8
    assert peak < whole_file_as_float64 / 3, peak


# --- the loaders read only the kept rows ----------------------------------------------

def whole_file_records(fields):
    """The oracle: (images, labels) of every record, from the whole file read at once."""
    if "cifar_bin" in fields:
        with open(fields["cifar_bin"], "rb") as fh:
            raw = np.frombuffer(fh.read(), dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        return raw[:, 1:].reshape(-1, 3, 32, 32), raw[:, 0]
    with open(fields["mnist_images"], "rb") as fh:
        images = np.frombuffer(fh.read(), dtype=np.uint8, offset=16).reshape(-1, 784)
    with open(fields["mnist_labels"], "rb") as fh:
        return images, np.frombuffer(fh.read(), dtype=np.uint8, offset=8)


# 100 of 3,000 MNIST rows are sparse enough for one read call each; the rest stream
@pytest.mark.parametrize("fmt,keep", [("idx", 100), ("idx", 700), ("idx", 3000), ("cifar", 300),
                                      ("cifar", 700)])
def test_kept_rows_across_read_slices_match_the_whole_file(tmp_path, fmt, keep):
    fields = bad_idx_files(tmp_path, 3000, 3000) if fmt == "idx" else bad_cifar_file(tmp_path, 700)
    images, labels = whole_file_records(fields)
    assert images.nbytes > 2 * READ_BYTES  # three read slices or more
    assert (keep * READ_CALL_BYTES < images.nbytes) == ((fmt, keep) == ("idx", 100))
    stream = build_stream(RunConfig(**fields, dataset_size=keep, seed=4))
    idx = RngStream(4).split("subsample").permutation(len(labels))[:keep]
    assert stream.base.images.dtype == np.uint8 and stream.base.labels.dtype == np.int64
    assert np.array_equal(stream.base.images, images[idx])
    assert np.array_equal(stream.base.labels, labels[idx])


def unkept_read_slice_row(n, record_bytes, keep, seed):
    """First row of the last read slice, past the first, that holds no row build_stream keeps."""
    per_read = READ_BYTES // record_bytes
    kept = RngStream(seed).split("subsample").permutation(n)[:keep]
    free = sorted(set(range(1, -(-n // per_read))) - set((kept // per_read).tolist()))
    assert free, "this seed keeps a row in every read slice past the first"
    return free[-1] * per_read


UNKEPT_BAD_LABEL = {
    "idx": lambda tmp: bad_idx_files(
        tmp, 3000, 3000, bad_label_row=unkept_read_slice_row(3000, 784, keep=2, seed=2)),
    "cifar": lambda tmp: bad_cifar_file(
        tmp, 700, bad_label_row=unkept_read_slice_row(700, CIFAR_RECORD_BYTES, keep=2, seed=2)),
}


@pytest.mark.parametrize("fmt", sorted(UNKEPT_BAD_LABEL))
def test_a_bad_label_in_an_unkept_read_slice_is_found(tmp_path, capsys, fmt):
    fields = {**UNKEPT_BAD_LABEL[fmt](tmp_path), "dataset_size": 2, "seed": 2}
    with pytest.raises(DataFormatError, match=r"labels outside \[0, 10\)"):
        build_stream(RunConfig(**fields))
    overrides = [f"{key}={value}" for key, value in fields.items()]
    assert main(["run", f"out={tmp_path / 'o'}", *overrides]) == 2
    assert "labels outside [0, 10)" in capsys.readouterr().err


# the sparse case reads its 100 kept rows one call each; half its file goes, so kept rows do
@pytest.mark.parametrize("fmt,n,keep", [("idx", 40, 40), ("cifar", 40, 40), ("idx", 3000, 100)],
                         ids=("idx", "cifar", "idx_sparse"))
def test_a_file_that_shrinks_after_its_length_check_is_a_format_error(tmp_path, monkeypatch, fmt,
                                                                     n, keep):
    fields = bad_idx_files(tmp_path, n, n) if fmt == "idx" else bad_cifar_file(tmp_path, n)
    path = fields["mnist_images" if fmt == "idx" else "cifar_bin"]
    full = os.path.getsize(path)
    short = full - 100 if keep == n else full // 2
    os.truncate(path, short)  # the length check still sees `full` bytes

    def stale_fstat(fd):
        st_size = os.fstat(fd).st_size
        return types.SimpleNamespace(st_size=full if st_size == short else st_size)

    monkeypatch.setattr(problems, "os",
                        types.SimpleNamespace(fstat=stale_fstat, preadv=os.preadv))
    with pytest.raises(DataFormatError, match="file ended"):
        build_stream(RunConfig(**fields, dataset_size=keep, seed=1))


class CountingFile:
    """A file whose reads add the bytes they return to `log[path]`."""

    def __init__(self, fh, log):
        self._fh, self._log = fh, log.setdefault(fh.name, [])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def read(self, size=-1):
        data = self._fh.read(size)
        self._log.append(len(data))
        return data

    def readinto(self, buf):
        got = self._fh.readinto(buf)
        self._log.append(got)
        return got


@pytest.fixture
def reads(monkeypatch):
    """Bytes read per file by the loaders, one entry per read call, positional reads included."""
    log, names = {}, {}

    def counting_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        names[fh.fileno()] = fh.name
        return CountingFile(fh, log)

    def counting_preadv(fd, buffers, offset):
        got = os.preadv(fd, buffers, offset)
        log[names[fd]].append(got)
        return got

    monkeypatch.setattr(problems, "open", counting_open, raising=False)
    monkeypatch.setattr(problems, "os", types.SimpleNamespace(fstat=os.fstat,
                                                              preadv=counting_preadv))
    return log


@pytest.mark.parametrize("keep", [100, 3000])
def test_an_mnist_load_reads_the_label_file_the_headers_and_the_kept_rows(tmp_path, reads, keep):
    fields = bad_idx_files(tmp_path, 3000, 3000)
    build_stream(RunConfig(**fields, dataset_size=keep, seed=4))
    images, labels = fields["mnist_images"], fields["mnist_labels"]
    assert sum(reads[labels]) == os.path.getsize(labels)
    if keep == 100:  # sparse: the 16-byte header, then one call per kept row
        assert reads[images] == [16] + [784] * keep
    else:  # every row is kept: one pass over the whole file, READ_BYTES at a time
        per_read = READ_BYTES // 784
        assert reads[images] == [16] + [per_read * 784] * 2 + [(keep - 2 * per_read) * 784]


@pytest.mark.parametrize("keep", [100, 3000])
def test_an_mnist_load_reads_its_labels_in_one_pass(tmp_path, monkeypatch, reads, keep):
    monkeypatch.setattr(problems, "READ_BYTES", 1024)  # so the 3,000 labels take three reads
    fields = bad_idx_files(tmp_path, 3000, 3000)
    build_stream(RunConfig(**fields, dataset_size=keep, seed=4))
    # the 8-byte header, then the payload a whole buffer at a time: no call reads one label
    assert reads[fields["mnist_labels"]] == [8, 1024, 1024, 3000 - 2 * 1024]


@pytest.mark.parametrize("keep", [5, 600])  # 5 rows sparse enough for a call each, 600 not
def test_read_records_keeps_the_asked_columns_on_both_read_paths(tmp_path, keep):
    path = bad_cifar_file(tmp_path, 700)["cifar_bin"]
    records = np.fromfile(path, dtype=np.uint8).reshape(700, CIFAR_RECORD_BYTES)
    idx = RngStream(4).permutation(700)[:keep]
    assert (keep * READ_CALL_BYTES < (idx.max() + 1) * CIFAR_RECORD_BYTES) == (keep == 5)
    got = problems._read_records(path, 0, CIFAR_RECORD_BYTES, idx, slice(1, None))
    assert np.array_equal(got, records[idx, 1:])


def test_a_cifar_load_reads_its_file_once(tmp_path, reads):
    fields = bad_cifar_file(tmp_path, 700)
    build_stream(RunConfig(**fields, dataset_size=10, seed=4))
    assert sum(reads[fields["cifar_bin"]]) == os.path.getsize(fields["cifar_bin"])


def test_build_stream_holds_no_whole_data_file(tmp_path):
    images = np.resize(np.arange(256, dtype=np.uint8), (20_000, 28, 28))
    write_idx_images(tmp_path / "i.idx", images)
    write_idx_labels(tmp_path / "l.idx", np.arange(20_000) % 10)
    cfg = RunConfig(problem="random_label_mnist", mnist_images=str(tmp_path / "i.idx"),
                    mnist_labels=str(tmp_path / "l.idx"), dataset_size=1000, seed=1)
    tracemalloc.start()
    try:
        stream = build_stream(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.base.images.shape == (1000, 784)
    image_file_bytes = (tmp_path / "i.idx").stat().st_size  # 15.7 MB
    assert peak < image_file_bytes / 4, peak


def every_byte_value_stream(tmp_path, problem, n=40):
    """A stream over a file whose every row holds all 256 byte values."""
    if problem == "random_label_cifar":
        records = (np.arange(n * 3073) % 256).astype(np.uint8).reshape(n, 3073)
        records[:, 0] %= 10
        (tmp_path / "b.bin").write_bytes(records.tobytes())
        files = {"cifar_bin": str(tmp_path / "b.bin")}
    else:
        write_idx_images(tmp_path / "i.idx", np.arange(n * 784).reshape(n, 28, 28) % 256)
        write_idx_labels(tmp_path / "l.idx", np.arange(n) % 10)
        files = {"mnist_images": str(tmp_path / "i.idx"), "mnist_labels": str(tmp_path / "l.idx")}
    return build_stream(RunConfig(problem=problem, dataset_size=n, num_tasks=2,
                                  steps_per_task=10, seed=3, **files))


@pytest.mark.parametrize("problem", ["permuted_mnist", "random_label_mnist",
                                     "random_label_cifar"])
def test_batches_and_probes_have_the_bits_of_the_float64_scaled_rows(tmp_path, problem):
    stream = every_byte_value_stream(tmp_path, problem)
    raw = stream.base.images
    task = make_task(stream, 1)
    columns = slice(None) if task.perm is None else task.perm
    order = RngStream(stream.seed).split("shuffle", 1, 1).permutation(40)
    probe_idx = RngStream(stream.seed).split("probe", 1).permutation(40)[:24]
    got = [(next_batch(task, 4)[0], order[16:32]),
           (probe_batch(task, 24), probe_idx),
           (probe_batch(task, 40), np.arange(40))]
    for x, rows in got:
        assert np.unique(raw[rows]).size == 256
        want = raw[rows][:, columns].astype(np.float64) / 255.0
        assert x.dtype == np.float64 and x.flags.c_contiguous and x.shape == want.shape
        assert np.array_equal(x.view(np.int64), want.view(np.int64))


def test_seed_isolation_changes_all_randomness():
    a = synthetic_stream("permute", seed=0)
    b = synthetic_stream("permute", seed=1)
    assert not np.array_equal(a.base.images, b.base.images)  # base draw
    ta, tb = make_task(a, 0), make_task(b, 0)
    assert not np.array_equal(ta.rows(slice(None)), tb.rows(slice(None)))  # permutations differ
    ra = make_task(synthetic_stream("relabel", seed=0, n=64), 0)
    rb = make_task(synthetic_stream("relabel", seed=1, n=64), 0)
    assert not np.array_equal(ra.labels, rb.labels)  # label draws differ


# --- synthetic learnability --------------------------------------------------------

def test_synthetic_random_label_task_is_memorizable():
    # a small MLP should reach >90% online accuracy on 64 random-label samples
    # within 200 epochs (4 batches each)
    stream = synthetic_stream("relabel", n=64, k=1, m=800, seed=7, width=16)
    task = make_task(stream, 0)
    spec = NetworkSpec(kind="mlp", input_shape=(16,), hidden_widths=(64, 64))
    params = init_params(spec, RngStream(7).split("init"))
    opt = make_optimizer("adam", 1e-3, params)
    cfg = MethodConfig(method="baseline")
    accs = []
    for step in range(800):
        x, y = next_batch(task, step)
        logits, cache = forward(spec, params, x)
        accs.append(float(np.mean(logits.argmax(1) == y)))
        _, grads = loss_and_grad(spec, params, cache, logits, y)
        apply_method_step(cfg, opt, params, grads, rng=RngStream(0))
    assert np.mean(accs[-4:]) > 0.9
