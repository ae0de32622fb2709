import struct

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from plasticity_lab.config import RunConfig
from plasticity_lab.errors import DataFormatError
from plasticity_lab.nn import NetworkSpec, forward, init_params, loss_and_grad
from plasticity_lab.optim import MethodConfig, apply_method_step, make_optimizer
from plasticity_lab.problems import (
    Dataset,
    load_cifar10_bin,
    load_idx,
    make_task,
    next_batch,
    probe_batch,
    subsample,
    write_cifar10_bin,
)
from plasticity_lab.rng import RngStream
from plasticity_lab.runner import build_stream


# --- IDX parsing ------------------------------------------------------------

def test_idx_images_fixture_scaled(tmp_path):
    imgs = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
    path = tmp_path / "imgs.idx"
    write_idx_images(path, imgs)
    out = load_idx(str(path))
    assert out.shape == (2, 2, 2)
    assert out[0, 0, 0] == 0.0
    assert out[0, 0, 1] == 1.0
    assert np.isclose(out[0, 1, 0], 128 / 255)


def test_idx_labels_fixture(tmp_path):
    path = tmp_path / "labels.idx"
    write_idx_labels(path, [5, 0])
    out = load_idx(str(path))
    assert out.dtype == np.int64
    assert np.array_equal(out, [5, 0])


def test_idx_bad_magic_reports_observed_value(tmp_path):
    path = tmp_path / "bad.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000899, 2))
    with pytest.raises(DataFormatError, match="0x00000899"):
        load_idx(str(path))


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        fh.write(b"\x00" * 5)  # needs 8
    with pytest.raises(DataFormatError, match="length"):
        load_idx(str(path))


# --- CIFAR parsing -------------------------------------------------------------

def test_cifar_single_record(tmp_path):
    path = tmp_path / "one.bin"
    with open(path, "wb") as fh:
        fh.write(bytes([7]) + b"\xff" * 3072)
    ds = load_cifar10_bin(str(path))
    assert ds.size == 1
    assert ds.labels[0] == 7
    assert ds.images.shape == (1, 3, 32, 32)
    assert np.all(ds.images == 1.0)


def test_cifar_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(DataFormatError):
        load_cifar10_bin(str(path))


def test_cifar_bad_length_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 3072)  # one byte short of a record
    with pytest.raises(DataFormatError, match="3073"):
        load_cifar10_bin(str(path))


def test_cifar_round_trip(tmp_path):
    rng = RngStream(0)
    images = np.round(rng.uniform(0, 1, (2, 3, 32, 32)) * 255) / 255
    labels = np.array([3, 9])
    path = tmp_path / "two.bin"
    write_cifar10_bin(str(path), Dataset(images=images, labels=labels))
    back = load_cifar10_bin(str(path))
    assert np.array_equal(back.images, images)
    assert np.array_equal(back.labels, labels)


# --- subsample ------------------------------------------------------------------

def full_dataset(n=40, d=8, seed=0):
    rng = RngStream(seed)
    return Dataset(images=rng.uniform(0, 1, (n, d)), labels=np.asarray(rng.integers(0, 10, n)))


def test_subsample_full_size_is_permutation():
    ds = full_dataset()
    out = subsample(ds, ds.size, RngStream(1).split("s"))
    assert sorted(map(tuple, out.images)) == sorted(map(tuple, ds.images))


def test_subsample_deterministic():
    ds = full_dataset()
    a = subsample(ds, 10, RngStream(2).split("s"))
    b = subsample(ds, 10, RngStream(2).split("s"))
    assert np.array_equal(a.images, b.images)


def test_subsample_distinct_indices_fuzz():
    ds = full_dataset(n=25)
    for trial in range(1000):
        out = subsample(ds, 10, RngStream(trial).split("s"))
        assert len({tuple(row) for row in out.images}) == 10


def test_subsample_too_large_rejected():
    with pytest.raises(ValueError):
        subsample(full_dataset(n=5), 6, RngStream(0))


# --- task construction -----------------------------------------------------------

def synthetic_stream(transform="permute", n=32, k=6, m=10, seed=0, classes=10, width=12):
    problem = "synthetic_permuted" if transform == "permute" else "synthetic_random_label"
    return build_stream(RunConfig(problem=problem, input_width=width, classes=classes,
                                  dataset_size=n, num_tasks=k, steps_per_task=m, seed=seed))


def test_make_task_is_pure():
    stream = synthetic_stream()
    a = make_task(stream, 3)
    b = make_task(stream, 3)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_permuted_tasks_permute_pixels_only():
    stream = synthetic_stream("permute")
    task = make_task(stream, 1)
    assert np.array_equal(task.labels, stream.base.labels)
    assert not np.array_equal(task.images, stream.base.images)
    # the permutation is a bijection: every row keeps the same multiset of pixels
    assert np.allclose(np.sort(task.images, axis=1), np.sort(stream.base.images, axis=1))


def test_relabel_tasks_keep_images_and_fix_labels_within_task():
    stream = synthetic_stream("relabel")
    task = make_task(stream, 2)
    assert task.images is stream.base.images
    again = make_task(stream, 2)
    assert np.array_equal(task.labels, again.labels)


def test_distinct_tasks_differ():
    stream = synthetic_stream("permute", n=16, k=10)
    for i in range(0, 10, 2):
        a, b = make_task(stream, i), make_task(stream, i + 1)
        assert not np.array_equal(a.images, b.images)
    rstream = synthetic_stream("relabel", n=64, k=10)
    for i in range(0, 10, 2):
        a, b = make_task(rstream, i), make_task(rstream, i + 1)
        assert not np.array_equal(a.labels, b.labels)


def test_task_index_bounds():
    stream = synthetic_stream()
    with pytest.raises(ValueError):
        make_task(stream, -1)
    with pytest.raises(ValueError):
        make_task(stream, stream.num_tasks)


def test_task_start_steps():
    stream = synthetic_stream(m=10)
    assert [make_task(stream, i).start_step for i in range(3)] == [0, 10, 20]


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
    assert {tuple(row) for row in task.images} == set(seen)


def test_ragged_final_batch_covers_dataset():
    stream = synthetic_stream(n=20, m=4)  # batches of 16 then 4
    task = make_task(stream, 0)
    x0, _ = next_batch(task, 0)
    x1, _ = next_batch(task, 1)
    assert x0.shape[0] == 16 and x1.shape[0] == 4
    rows = {tuple(r) for r in np.vstack([x0, x1])}
    assert rows == {tuple(r) for r in task.images}


def test_epochs_reshuffle_but_are_deterministic():
    stream = synthetic_stream(n=32, m=10)
    task = make_task(stream, 0)
    first_epoch = [next_batch(task, s)[0] for s in range(2)]
    second_epoch = [next_batch(task, s)[0] for s in range(2, 4)]
    assert not all(np.array_equal(a, b) for a, b in zip(first_epoch, second_epoch))
    again = [next_batch(task, s)[0] for s in range(2)]
    assert all(np.array_equal(a, b) for a, b in zip(first_epoch, again))


def test_batch_count_totals():
    stream = synthetic_stream(n=32, k=4, m=6)
    total = 0
    for i in range(stream.num_tasks):
        task = make_task(stream, i)
        for s in range(stream.steps_per_task):
            next_batch(task, s)
            total += 1
    assert total == stream.total_steps == 24


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


def test_seed_isolation_changes_all_randomness():
    a = synthetic_stream("permute", seed=0)
    b = synthetic_stream("permute", seed=1)
    assert not np.array_equal(a.base.images, b.base.images)  # base draw
    ta, tb = make_task(a, 0), make_task(b, 0)
    assert not np.array_equal(ta.images, tb.images)  # permutations differ
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
