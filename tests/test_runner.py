import copy
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from conftest import (count_forward_calls, double_the_gradient, write_cifar10_bin,
                      write_idx_images, write_idx_labels)
from plasticity_lab import runner
from plasticity_lab.cli import main
from plasticity_lab.config import PROBLEMS, RunConfig, parse_config, sweep_cells
from plasticity_lab.errors import ConfigError
from plasticity_lab.optim import METHODS
from plasticity_lab.problems import Dataset
from plasticity_lab.rng import RngStream
from plasticity_lab.runner import (
    run_experiment,
    run_sweep,
    run_task,
    select_winner,
    start_run,
    write_outputs,
    write_sweep_outputs,
)

DESK = dict(problem="synthetic_permuted", num_tasks=3, steps_per_task=10,
            dataset_size=32, seed=0)


def desk_config(**kw):
    merged = {**DESK, **kw}
    return RunConfig(**merged)


# --- determinism and outputs -----------------------------------------------

def test_same_config_same_bytes(tmp_path):
    for d in ("a", "b"):
        write_outputs(run_experiment(desk_config()), tmp_path / d)
    assert (tmp_path / "a/task_metrics.csv").read_bytes() == (
        tmp_path / "b/task_metrics.csv"
    ).read_bytes()


def test_seed_changes_everything():
    rec0 = run_experiment(desk_config(seed=0, log_steps=True))
    rec1 = run_experiment(desk_config(seed=1, log_steps=True))
    assert not np.array_equal(rec0.per_step_accuracy, rec1.per_step_accuracy)
    assert rec0.task_rows[0].weight_magnitude != rec1.task_rows[0].weight_magnitude


def test_csv_round_trips_run_record(tmp_path):
    record = run_experiment(desk_config())
    write_outputs(record, tmp_path)
    lines = (tmp_path / "task_metrics.csv").read_text().strip().split("\n")
    assert lines[0] == (
        "task_index,start_step,avg_online_task_accuracy,weight_magnitude,feature_srank"
    )
    assert len(lines) == 1 + len(record.task_rows) == 4
    for line, row in zip(lines[1:], record.task_rows):
        idx, start, acc, mag, rank = line.split(",")
        assert int(idx) == row.task_index
        assert int(start) == row.start_step
        assert abs(float(acc) - row.avg_online_task_accuracy) < 1e-12
        assert abs(float(mag) - row.weight_magnitude) < 1e-12
        assert abs(float(rank) - row.feature_srank) < 1e-12


def test_summary_total_equals_mean_of_task_accuracies(tmp_path):
    record = run_experiment(desk_config())
    write_outputs(record, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    task_accs = [r.avg_online_task_accuracy for r in record.task_rows]
    assert abs(summary["total_avg_online_accuracy"] - np.mean(task_accs)) < 1e-12
    assert summary["seed"] == 0
    assert summary["config"]["problem"] == "synthetic_permuted"
    assert not summary["incomplete"]


def test_log_steps_writes_full_sequence(tmp_path):
    record = run_experiment(desk_config(log_steps=True))
    write_outputs(record, tmp_path)
    lines = (tmp_path / "steps.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 30
    assert abs(float(lines[1].split(",")[1]) - record.per_step_accuracy[0]) < 1e-15


def kahan_mean(values):
    """Compensated summation, as an independent averaging oracle."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / len(values)


def read_back_accuracies(tmp_path, **kw):
    """(steps.csv's accuracies, task_metrics.csv's, summary.json's total) of a log_steps run."""
    write_outputs(run_experiment(desk_config(log_steps=True, **kw)), tmp_path)

    def column(name, col):
        lines = (tmp_path / name).read_text().splitlines()[1:]
        return [float(line.split(",")[col]) for line in lines]
    total = json.loads((tmp_path / "summary.json").read_text())["total_avg_online_accuracy"]
    return np.array(column("steps.csv", 1)), column("task_metrics.csv", 2), total


def test_each_task_row_holds_the_mean_of_its_steps(tmp_path):
    steps, tasks, _ = read_back_accuracies(tmp_path)
    assert tasks == [float(steps[i * 10 : (i + 1) * 10].mean()) for i in range(3)]


def test_the_summary_total_is_the_mean_of_every_step(tmp_path):
    steps, _, total = read_back_accuracies(tmp_path)
    assert total == float(steps.mean())


def test_the_accuracy_means_match_a_compensated_sum(tmp_path):
    steps, tasks, total = read_back_accuracies(tmp_path, num_tasks=5, steps_per_task=125)
    assert len(steps) == 625
    assert abs(total - kahan_mean(steps.tolist())) < 1e-12
    for i, acc in enumerate(tasks):
        assert abs(acc - kahan_mean(steps[i * 125 : (i + 1) * 125].tolist())) < 1e-12


def test_task_rows_emitted_at_boundaries_only():
    record = run_experiment(desk_config(num_tasks=5))
    assert [r.task_index for r in record.task_rows] == list(range(5))
    assert [r.start_step for r in record.task_rows] == [0, 10, 20, 30, 40]


def test_method_reduction_produces_identical_csv(tmp_path):
    base = desk_config(method="baseline")
    reduced = desk_config(method="l2_init", lam=0.0)
    write_outputs(run_experiment(base), tmp_path / "base")
    write_outputs(run_experiment(reduced), tmp_path / "reduced")
    assert (tmp_path / "base/task_metrics.csv").read_bytes() == (
        tmp_path / "reduced/task_metrics.csv"
    ).read_bytes()


def test_divergence_flags_incomplete_record():
    record = run_experiment(desk_config(optimizer="sgd", alpha=1e9, num_tasks=2))
    assert record.incomplete
    assert record.steps_completed < 20
    assert record.total_avg_online_accuracy == record.total_avg_online_accuracy  # not NaN


@pytest.mark.parametrize(
    "alpha, steps, total",
    [(1e9, 1, 0.0625), (1e4, 2, 0.09375), (1e3, 4, 0.09375)],
)
def test_divergence_stops_at_the_same_step(alpha, steps, total):
    record = run_experiment(desk_config(optimizer="sgd", alpha=alpha, num_tasks=2))
    assert record.incomplete
    assert (record.steps_completed, record.total_avg_online_accuracy) == (steps, total)


def count_exact_checks(monkeypatch):
    """The values of every `mean_param_magnitude` call the runner makes, in order."""
    calls, exact = [], runner.mean_param_magnitude
    monkeypatch.setattr(runner, "mean_param_magnitude",
                        lambda params: calls.append(exact(params)) or calls[-1])
    return calls


def start_from(monkeypatch, fill):
    """Runs start from init_params' draw with `fill` applied to the flat vector."""
    draw = runner.init_params

    def init(spec, rng):
        params = draw(spec, rng)
        fill(params.flat)
        return params
    monkeypatch.setattr(runner, "init_params", init)


def test_a_healthy_run_computes_the_exact_magnitude_once_per_task(monkeypatch):
    calls = count_exact_checks(monkeypatch)
    record = run_experiment(desk_config(optimizer="adam", method="l2_init", lam=1e-2))
    assert not record.incomplete and record.steps_completed == 30
    assert calls == [row.weight_magnitude for row in record.task_rows]  # the 3 task rows


def test_a_bounded_vector_that_fails_the_sum_of_squares_test_runs_on(monkeypatch):
    # 784-100-100-10: one 5e8 among 89,610 entries of 0.05 has mean |theta| ~ 5.6e3 < 1e6,
    # but theta . theta = 2.5e17 exceeds 0.5 * 1e6**2 * 89,610 = 4.5e16
    def fill(theta):
        theta[:] = 0.05
        theta[0] = 5e8
    start_from(monkeypatch, fill)
    calls = count_exact_checks(monkeypatch)
    record = run_experiment(desk_config(optimizer="sgd", alpha=1e-12, input_width=784,
                                        hidden_widths=(100, 100), num_tasks=1,
                                        steps_per_task=4))
    assert not record.incomplete and record.steps_completed == 4
    assert len(calls) == 4 + 1  # the exact check before every step, then the task row
    assert calls[0] == pytest.approx((5e8 + 89_609 * 0.05) / 89_610, rel=1e-12)


@pytest.mark.parametrize("num_tasks", [1, 3])
def test_a_divergence_on_a_task_s_last_update_writes_no_row_for_it(tmp_path, capfd, caplog,
                                                                   num_tasks):
    # the one update of task 0 takes mean |theta| to ~1.6e297: the boundary check must stop
    # the run before the probe feeds the non-finite features to the SVD
    code = main(["run", f"out={tmp_path / 'o'}", "problem=synthetic_random_label",
                 "steps_per_task=1", f"num_tasks={num_tasks}", "optimizer=sgd", "alpha=1e300"])
    assert code == 3
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["incomplete"] is True and summary["steps_completed"] == 1
    assert (tmp_path / "o" / "task_metrics.csv").read_text() == runner.TASK_CSV_HEADER + "\n"
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err
    assert len(caplog.messages) == 1
    assert caplog.messages[0].startswith("aborting run: run diverged at step 1 (mean |theta|=1.585")


def test_a_nan_parameter_stops_the_run_with_the_exact_message(monkeypatch, caplog):
    start_from(monkeypatch, lambda theta: theta.__setitem__(7, np.nan))
    with caplog.at_level("WARNING", logger=runner.__name__):
        record = run_experiment(desk_config())
    assert record.incomplete and record.steps_completed == 0 and not record.task_rows
    assert caplog.messages == ["aborting run: run diverged at step 0 (mean |theta|=nan)"]


PROGRESS = r"task (\d+)/3: accuracy (\S+), \d+\.\d steps/s, ETA \d+:\d\d:\d\d"


def test_each_finished_task_logs_one_progress_line_and_leaves_the_csvs_alone(tmp_path, caplog):
    cfg = desk_config(log_steps=True)
    with caplog.at_level("INFO", logger=runner.__name__):
        record = run_experiment(cfg)
    write_outputs(record, tmp_path / "on")
    lines = [re.fullmatch(PROGRESS, message) for message in caplog.messages]
    assert [(int(m[1]), m[2]) for m in lines] == [
        (row.task_index + 1, f"{row.avg_online_task_accuracy:.4f}") for row in record.task_rows]
    caplog.clear()
    with caplog.at_level("WARNING", logger=runner.__name__):  # progress logging off
        write_outputs(run_experiment(cfg), tmp_path / "off")
    assert caplog.messages == []
    for name in ("task_metrics.csv", "steps.csv"):
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()


def test_a_task_that_diverges_logs_no_progress_line(monkeypatch, caplog):
    finish = runner.run_task

    def diverge_in_task_1(run, i):
        if i == 1:
            run.params.flat[0] = np.nan
        finish(run, i)
    monkeypatch.setattr(runner, "run_task", diverge_in_task_1)
    with caplog.at_level("INFO", logger=runner.__name__):
        record = run_experiment(desk_config())
    assert record.incomplete and len(record.task_rows) == 1
    assert re.fullmatch(PROGRESS, caplog.messages[0])[1] == "1"
    assert caplog.messages[1:] == ["aborting run: run diverged at step 10 (mean |theta|=nan)"]


def test_version_string_names_the_package_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(runner.__file__))
    from_package = runner._version_string()
    monkeypatch.chdir(tmp_path)
    assert runner._version_string() == from_package


# parse_config rejects these names first; only the Python API reaches resolved's and validate's
@pytest.mark.parametrize("field, value", [
    ("problem", "mnist"), ("method", "dropout"), ("optimizer", "rmsprop")])
def test_a_run_of_an_unknown_name_makes_no_directory(tmp_path, field, value):
    cfg = dataclasses.replace(desk_config(), out=str(tmp_path / "o"), **{field: value})
    with pytest.raises(ConfigError, match=f"unknown {field} '{value}'"):
        run_experiment(cfg)
    assert os.listdir(tmp_path) == []


def test_missing_dataset_fails_before_compute(tmp_path):
    cfg = RunConfig(problem="permuted_mnist",
                    mnist_images=str(tmp_path / "absent.idx"),
                    mnist_labels=str(tmp_path / "absent2.idx"))
    with pytest.raises(OSError):
        run_experiment(cfg)


def cifar_config(tmp_path, **kw):
    rng = RngStream(3)
    ds = Dataset(images=np.round(rng.uniform(0, 1, (20, 3, 32, 32)) * 255) / 255,
                 labels=np.asarray(rng.integers(0, 10, 20)))
    path = tmp_path / "batch.bin"
    write_cifar10_bin(str(path), ds)
    return RunConfig(problem="random_label_cifar", cifar_bin=str(path), dataset_size=16,
                     num_tasks=1, steps_per_task=1, probe_size=16, **kw)


def weight_shapes(cfg):
    return {k: v.shape for k, v in start_run(cfg).params.values.items() if k.startswith("w")}


def test_default_cifar_network_has_a_10_wide_dense_layer(tmp_path):
    cfg = cifar_config(tmp_path)
    write_outputs(run_experiment(cfg), str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["hidden_widths"] == [10]
    assert weight_shapes(cfg)["w2"] == (400, 10)


def test_hidden_widths_set_the_cnn_dense_layers(tmp_path):
    shapes = weight_shapes(cifar_config(tmp_path, hidden_widths=(7,)))
    assert (shapes["w2"], shapes["w3"]) == ((400, 7), (7, 10))


def test_conv_only_cnn_runs(tmp_path):
    cfg = cifar_config(tmp_path, hidden_widths=())
    assert weight_shapes(cfg)["w2"] == (400, 10)
    record = run_experiment(cfg)
    assert record.steps_completed == 1 and not record.incomplete


# problem -> (stream transform, network kind, default hidden widths)
PROBLEM_SHAPES = {
    "permuted_mnist": ("permute", "mlp", (100, 100)),
    "random_label_mnist": ("relabel", "mlp", (100, 100)),
    "random_label_cifar": ("relabel", "cnn", (10,)),
    "synthetic_permuted": ("permute", "mlp", (30, 30)),
    "synthetic_random_label": ("relabel", "mlp", (100, 100)),
}


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_problem_table_sets_transform_network_and_widths(tmp_path, problem):
    rng = RngStream(5)
    write_idx_images(tmp_path / "i.idx", (rng.uniform(0, 1, (12, 28, 28)) * 255).astype(np.uint8))
    write_idx_labels(tmp_path / "l.idx", np.asarray(rng.integers(0, 10, 12)))
    write_cifar10_bin(str(tmp_path / "c.bin"),
                      Dataset(images=np.round(rng.uniform(0, 1, (12, 3, 32, 32)) * 255) / 255,
                              labels=np.asarray(rng.integers(0, 10, 12))))
    cfg = RunConfig(problem=problem, dataset_size=8, mnist_images=str(tmp_path / "i.idx"),
                    mnist_labels=str(tmp_path / "l.idx"), cifar_bin=str(tmp_path / "c.bin"))
    run = start_run(cfg)
    assert (run.stream.transform, run.spec.kind, run.cfg.hidden_widths) == PROBLEM_SHAPES[problem]
    assert set(PROBLEM_SHAPES) == set(PROBLEMS)


def test_classes_set_the_output_width():
    assert weight_shapes(desk_config(classes=3))["w2"] == (30, 3)


def test_layer_norm_method_enables_normalization():
    rec = run_experiment(desk_config(method="layer_norm"))
    rec_base = run_experiment(desk_config())
    assert rec.task_rows[0].weight_magnitude != rec_base.task_rows[0].weight_magnitude


# --- run state --------------------------------------------------------------

def carried_over(run, cfg):
    """A fresh `start_run(cfg)` given only the state a checkpoint of `run` holds."""
    fresh = start_run(cfg)
    fresh.params.flat[:] = run.params.flat
    fresh.opt.moments[...] = run.opt.moments
    fresh.opt.t = run.opt.t
    fresh.cbp = copy.deepcopy(run.cbp)
    fresh.noise_rng._gen.bit_generator.state = run.noise_rng._gen.bit_generator.state
    fresh.per_step[:] = run.per_step
    fresh.record.task_rows = list(run.record.task_rows)
    fresh.record.steps_completed = run.record.steps_completed
    return fresh


def assert_state_round_trips(cfg):
    """Tasks 2-3 after a copy of the state at task 2 match tasks 2-3 run straight on."""
    straight = start_run(cfg)
    for i in range(2):
        run_task(straight, i)
    resumed = carried_over(straight, cfg)
    if cfg.method == "continual_backprop":  # units reset before the copy, and their ages went
        assert any((ages < straight.opt.t).any() for ages in straight.cbp.ages)
    for run in (straight, resumed):
        for i in range(2, 4):
            run_task(run, i)
    assert resumed.record.steps_completed == len(straight.per_step)
    assert np.array_equal(resumed.per_step, straight.per_step)
    assert resumed.record.task_rows == straight.record.task_rows


CBP = dict(method="continual_backprop", maturity_threshold=20, replacement_rate=1e-2,
           steps_per_task=50)


@pytest.mark.parametrize("kw", (
    dict(method="shrink_perturb", optimizer="sgd", alpha=1e-2, shrink=1e-3, noise=1e-3),
    dict(method="shrink_perturb", shrink=1e-3, noise=1e-3),
    dict(CBP, optimizer="sgd", alpha=1e-2),
    dict(CBP),
    dict(method="l2_init_resample", lam=1e-3),
    dict(method="l2_init", lam=1e-2, steps_per_task=200),  # copied at t = 400, past t = 356
), ids=("shrink_perturb-sgd", "shrink_perturb-adam", "continual_backprop-sgd",
        "continual_backprop-adam", "l2_init_resample-adam", "l2_init-adam"))
def test_run_state_round_trips(kw):
    assert_state_round_trips(desk_config(**{"num_tasks": 4, **kw}))


def test_cnn_run_state_round_trips(tmp_path):
    assert_state_round_trips(dataclasses.replace(
        cifar_config(tmp_path), num_tasks=4, steps_per_task=3, method="shrink_perturb",
        shrink=1e-3, noise=1e-3))


# --- sweeps ----------------------------------------------------------------

def test_select_winner_on_injected_table():
    cells = [
        {"lam": 1e-2, "alpha": 1e-3, "mean_total_avg_online_accuracy": 0.4, "status": "ok"},
        {"lam": 1e-3, "alpha": 1e-3, "mean_total_avg_online_accuracy": 0.6, "status": "ok"},
        {"lam": 1e-4, "alpha": 1e-4, "mean_total_avg_online_accuracy": 0.5, "status": "failed"},
    ]
    assert select_winner(cells)["lam"] == 1e-3


def test_select_winner_tie_breaks_toward_smaller_hypers():
    cells = [
        {"lam": 1e-2, "alpha": 1e-3, "mean_total_avg_online_accuracy": 0.5, "status": "ok"},
        {"lam": 1e-3, "alpha": 1e-3, "mean_total_avg_online_accuracy": 0.5, "status": "ok"},
        {"lam": 1e-3, "alpha": 1e-4, "mean_total_avg_online_accuracy": 0.5, "status": "ok"},
    ]
    winner = select_winner(cells)
    assert winner["lam"] == 1e-3 and winner["alpha"] == 1e-4


def test_select_winner_breaks_ties_on_shrink_then_noise_then_alpha():
    cells = [
        {"shrink": 1e-3, "noise": 1e-5, "alpha": 1e-4, "mean_total_avg_online_accuracy": 0.5,
         "status": "ok"},
        {"shrink": 1e-4, "noise": 1e-2, "alpha": 1e-4, "mean_total_avg_online_accuracy": 0.5,
         "status": "ok"},
        {"shrink": 1e-4, "noise": 1e-3, "alpha": 1e-2, "mean_total_avg_online_accuracy": 0.5,
         "status": "ok"},
        {"shrink": 1e-4, "noise": 1e-3, "alpha": 1e-3, "mean_total_avg_online_accuracy": 0.5,
         "status": "ok"},
    ]
    assert select_winner(cells) is cells[3]


def test_select_winner_none_when_all_failed():
    assert select_winner([{"mean_total_avg_online_accuracy": 0.1, "status": "failed"}]) is None


def test_a_write_that_raises_part_way_leaves_the_earlier_files(tmp_path):
    record = run_experiment(desk_config(num_tasks=2, log_steps=True))
    write_outputs(record, tmp_path)
    rows, summary = run_sweep(desk_config(num_tasks=1, method="baseline"), 1)
    write_sweep_outputs(rows, summary, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["steps.csv", "summary.json", "sweep.csv", "sweep_summary.json",
                              "task_metrics.csv"]

    record.config["out"] = object()  # summary.json cannot encode it
    with pytest.raises(TypeError):
        write_outputs(record, tmp_path)
    summary["method"] = "baseline\udc80"  # sweep.csv's text cannot be encoded
    with pytest.raises(UnicodeEncodeError):
        write_sweep_outputs(rows, summary, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_single_cell_sweep_wins(tmp_path):
    base = desk_config(num_tasks=2, optimizer="adam", method="baseline")
    rows, sweep = run_sweep(base, 1)
    assert len(rows) == 2  # 2 alphas x 1 seed
    assert sweep["winner"] is not None
    write_sweep_outputs(rows, sweep, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2
    assert lines[0] == ("method,alpha,lam,shrink,noise,replacement_rate,"
                        "seed,total_avg_online_accuracy,status")
    assert [line.split(",")[:7] for line in lines[1:]] == [
        ["baseline", "0.0001", "", "", "", "", "0"], ["baseline", "0.001", "", "", "", "", "0"]]
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["winner"]["alpha"] == sweep["winner"]["alpha"]


def test_desk_scale_sweep_one_row_per_cell_seed():
    base = desk_config(num_tasks=2, method="l2_init")
    rows, _ = run_sweep(base, 2)
    assert len(rows) == 8 * 2
    seen = {(r["lam"], r["alpha"], r["seed"]) for r in rows}
    assert len(seen) == 16
    assert all(r["status"] == "ok" for r in rows)


def _unreadable_data_base(tmp_path, payload):
    images, labels = tmp_path / "i.idx", tmp_path / "l.idx"
    if payload is not None:
        images.write_bytes(payload)
        labels.write_bytes(payload)
    base = RunConfig(problem="permuted_mnist", method="baseline", mnist_images=str(images),
                     mnist_labels=str(labels), dataset_size=8, num_tasks=1, steps_per_task=2)
    return base


@pytest.mark.parametrize("payload", (None, b"\x00\x00"), ids=("absent", "truncated"))
def test_sweep_records_unreadable_data_per_cell(tmp_path, payload):
    rows, summary = run_sweep(_unreadable_data_base(tmp_path, payload), 2)
    assert len(rows) == 4  # 2 alphas x 2 seeds
    assert all(r["status"] == "failed" and "i.idx" in r["error"] for r in rows)
    assert summary["winner"] is None


@pytest.mark.parametrize("payload", (None, b"\x00\x00"), ids=("absent", "truncated"))
def test_parallel_sweep_records_unreadable_data_like_serial(tmp_path, payload):
    base = _unreadable_data_base(tmp_path, payload)
    rows, summary = run_sweep(base, 2, workers=2)
    assert len(rows) == 4
    assert all(r["status"] == "failed" and "i.idx" in r["error"] for r in rows)
    assert summary["winner"] is None
    # a failed row's NaN accuracy is unequal to itself, so compare the rows' text
    assert json.dumps(rows) == json.dumps(run_sweep(base, 2, workers=1)[0])


def test_parallel_sweep_matches_sequential():
    base = desk_config(num_tasks=2, steps_per_task=6, method="baseline")
    seq_rows, seq = run_sweep(base, 2, workers=1)
    par_rows, par = run_sweep(base, 2, workers=2)
    assert seq_rows == par_rows
    assert seq["winner"] == par["winner"]


# --- job runner ----------------------------------------------------------------

def _blas_threads_after_a_gemm(n):
    a = np.full((n, n), 0.5)
    a @ a
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least 2 CPUs")
def test_each_worker_runs_one_blas_thread(monkeypatch):
    for var in runner.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert runner.run_jobs(_blas_threads_after_a_gemm, [600] * 4, workers=2) == [1] * 4
    assert dict(os.environ) == before


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments, maps in process."""

    started = []

    def __init__(self, max_workers, mp_context):
        blas = {var: os.environ.get(var) for var in runner.BLAS_THREAD_VARS}
        self.started.append((max_workers, mp_context.get_start_method(), blas))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, jobs, cpus, pool_size", [
    (1000, 3, 4, 3), (1000, 10, 4, 4), (2, 10, 4, 2), (5, 1, 4, None), (3, 10, 1, None),
])
def test_the_pool_is_capped_by_jobs_and_cpus(monkeypatch, workers, jobs, cpus, pool_size):
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    before = dict(os.environ)
    assert runner.run_jobs(str, list(range(jobs)), workers) == [str(j) for j in range(jobs)]
    assert dict(os.environ) == before  # set, unset and empty variables all come back
    if pool_size is None:  # one worker runs in process
        assert _RecordingPool.started == []
    else:
        ones = dict.fromkeys(runner.BLAS_THREAD_VARS, "1")
        assert _RecordingPool.started == [(pool_size, "spawn", ones)]


@pytest.mark.parametrize("workers", (0, -3))
def test_fewer_than_one_worker_is_a_config_error(tmp_path, capsys, workers):
    with pytest.raises(ConfigError, match=f"workers must be at least 1, got {workers}"):
        runner.run_jobs(str, [1, 2], workers)
    code = main(["sweep", "--seeds", "1", "--workers", str(workers), "method=baseline",
                 f"out={tmp_path / 'o'}", "problem=synthetic_permuted"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: workers must be at least 1, got {workers}"]
    assert not (tmp_path / "o").exists()


# --- CLI ---------------------------------------------------------------------

def test_cli_run_and_inspect(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", f"out={out}", "problem=synthetic_permuted",
        "num_tasks=2", "steps_per_task=4", "dataset_size=32",
    ])
    assert code == 0
    assert (out / "task_metrics.csv").exists()
    assert main(["inspect", "--summary", str(out / "summary.json")]) == 0
    text = capsys.readouterr().out
    assert "synthetic_permuted" in text


def test_cli_run_with_seed_and_log_steps(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "seed=3", "log_steps=true", f"out={out}",
                 "problem=synthetic_permuted", "num_tasks=2", "steps_per_task=4",
                 "dataset_size=32"])
    assert code == 0
    assert len((out / "steps.csv").read_text().splitlines()) == 1 + 8
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 3 and summary["config"]["log_steps"] is True


def test_a_run_without_log_steps_removes_an_earlier_steps_csv(tmp_path):
    keys = [f"out={tmp_path}", "problem=synthetic_permuted", "num_tasks=2", "dataset_size=32"]
    assert main(["run", *keys, "steps_per_task=2", "log_steps=true"]) == 0
    assert len((tmp_path / "steps.csv").read_text().splitlines()) == 1 + 4
    assert main(["run", *keys, "steps_per_task=3"]) == 0
    assert not (tmp_path / "steps.csv").exists()  # it would contradict the new summary
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps_completed"] == 6 and summary["config"]["log_steps"] is False


# and no flag is taken by a prefix: `sweep --seed` is not `--seeds`
@pytest.mark.parametrize("flag", [["run", "--seed", "3"], ["run", "--out", "o"],
                                  ["run", "--log-steps"], ["sweep", "--method", "baseline"],
                                  ["sweep", "--out", "o"], ["sweep", "--seed", "3"]],
                         ids=("run_seed", "run_out", "run_log_steps", "sweep_method", "sweep_out",
                              "sweep_seed"))
def test_a_flag_that_duplicated_a_config_key_is_a_usage_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    assert main([*flag, "problem=synthetic_permuted", "num_tasks=1", "steps_per_task=2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: unrecognized arguments: {flag[1]}")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "1"]], ids=("run", "sweep"))
def test_key_value_arguments_may_stand_on_either_side_of_a_flag(tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text("problem = synthetic_permuted\nnum_tasks = 1\nsteps_per_task = 2\n")
    split = [*command, f"out={tmp_path / 'split'}", "--config", str(config), "steps_per_task=3"]
    after = [*command, "--config", str(config), f"out={tmp_path / 'after'}", "steps_per_task=3"]
    assert main(split) == 0 and main(after) == 0
    name = "sweep.csv" if command[0] == "sweep" else "task_metrics.csv"
    assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "after" / name).read_bytes()
    if command[0] == "run":
        summary = json.loads((tmp_path / "split" / "summary.json").read_text())
        assert summary["steps_completed"] == 3  # the key after the flag beat the file


@pytest.mark.parametrize("payload", [b"{not json", b"[1, 2]", b"\xff\xfe{}",
                                     b'{"wall_clock_seconds": "x"}',
                                     b'{"wall_clock_seconds": null}'],
                         ids=("not_json", "not_an_object", "not_utf8", "text_wall_clock",
                              "null_wall_clock"))
def test_cli_inspect_of_a_malformed_summary_is_an_io_error(tmp_path, capsys, payload):
    path = tmp_path / "summary.json"
    path.write_bytes(payload)
    assert main(["inspect", "--summary", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {path}: ")


def test_cli_run_with_a_non_utf8_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfeproblem = synthetic_permuted\n")
    assert main(["run", "--config", str(path), f"out={tmp_path / 'o'}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: not UTF-8 text")
    assert not (tmp_path / "o").exists()


def test_cli_sweep_of_an_unknown_method_is_a_usage_error(tmp_path, capsys):
    code = main(["sweep", "--seeds", "1", "method=dropout", f"out={tmp_path / 'o'}",
                 "problem=synthetic_permuted"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: override 'method=dropout': bad value for key 'method': "
        f"expected one of {', '.join(METHODS)}; got 'dropout'"]
    assert not (tmp_path / "o").exists()
    with pytest.raises(ConfigError, match="^unknown method 'dropout'$"):
        sweep_cells(desk_config(method="dropout"))


def test_sweep_of_an_unknown_optimizer_is_a_config_error():
    with pytest.raises(ConfigError, match="^unknown optimizer 'rmsprop'$"):
        run_sweep(RunConfig(problem="synthetic_permuted", optimizer="rmsprop"), 1)


@pytest.mark.parametrize("from_file", (False, True), ids=("argument", "config_file"))
def test_cli_sweep_rejects_a_seed_key(tmp_path, capsys, from_file):
    (tmp_path / "run.cfg").write_text("seed = 5\n" if from_file else "")
    code = main(["sweep", "--seeds", "1", "--config", str(tmp_path / "run.cfg"),
                 *([] if from_file else ["seed=5"]), "method=baseline", f"out={tmp_path / 'o'}",
                 "problem=synthetic_permuted", "num_tasks=1", "steps_per_task=5"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "key 'seed'" in err[0], err
    assert "--seeds" in err[0]
    assert not (tmp_path / "o" / "sweep.csv").exists()


def test_cli_usage_error_exit_code():
    assert main(["run", "--config", "/nonexistent", "alpha=oops"]) in (1, 2)
    assert main(["frobnicate"]) == 1
    assert main(["run", "alpha=banana"]) == 1
    assert main(["run", "problem=mnist"]) == 1


@pytest.mark.parametrize("from_file", (False, True))
def test_cli_removed_utility_kind_is_an_unknown_key(tmp_path, capsys, from_file):
    args = ["run", f"out={tmp_path / 'o'}", "problem=synthetic_permuted"]
    if from_file:
        (tmp_path / "run.cfg").write_text("utility_kind = contribution\n")
        args[1:1] = ["--config", str(tmp_path / "run.cfg")]
    else:
        args.append("utility_kind=contribution")
    assert main(args) == 1
    assert "unknown key 'utility_kind'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "problem, override",
    [("permuted_mnist", "batch_size=0"), ("synthetic_permuted", "batch_size=0"),
     ("synthetic_permuted", "num_tasks=0")],
)
def test_cli_rejects_non_positive_sizes(tmp_path, capsys, problem, override):
    args = ["run", f"out={tmp_path / 'o'}", f"problem={problem}", "dataset_size=8", override]
    if problem == "permuted_mnist":
        rng = RngStream(0)
        images = (rng.uniform(0, 1, (8, 28, 28)) * 255).astype(np.uint8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", np.asarray(rng.integers(0, 10, 8)))
        args += [f"mnist_images={tmp_path / 'i.idx'}", f"mnist_labels={tmp_path / 'l.idx'}"]
    assert main(args) == 1
    field = override.split("=")[0]
    assert f"error: {field} must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_negative_hyper_parameter_is_a_usage_error(tmp_path, capsys):
    code = main(["run", f"out={tmp_path / 'o'}", "problem=synthetic_permuted", "lambda=-1"])
    assert code == 1
    assert "error: lam must be >= 0" in capsys.readouterr().err


def test_cli_dataset_size_beyond_the_file_is_a_usage_error(tmp_path, capsys):
    rng = RngStream(0)
    write_idx_images(tmp_path / "i.idx", (rng.uniform(0, 1, (200, 28, 28)) * 255).astype(np.uint8))
    write_idx_labels(tmp_path / "l.idx", np.asarray(rng.integers(0, 10, 200)))
    code = main(["run", f"out={tmp_path / 'o'}", "problem=permuted_mnist",
                 "dataset_size=500", f"mnist_images={tmp_path / 'i.idx'}",
                 f"mnist_labels={tmp_path / 'l.idx'}"])
    assert code == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
    assert errors == ["error: cannot subsample 500 from 200 samples"]


def test_cli_more_than_ten_classes_is_a_usage_error(tmp_path, capsys):
    code = main(["run", f"out={tmp_path / 'o'}", "problem=synthetic_permuted", "classes=12"])
    assert code == 1
    assert "error: classes must be <= 10, got 12" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


WIDTH_ERRORS = [
    ("hidden_widths=", "synthetic_permuted needs at least one hidden width"),
    ("hidden_widths=-3", "hidden_widths must be > 0, got (-3,)"),
    ("hidden_widths=0", "hidden_widths must be > 0, got (0,)"),
    ("hidden_widths=4,0", "hidden_widths must be > 0, got (4, 0)"),
]


ALPHA_ERRORS = [
    (f"alpha={text}", f"alpha must be finite and > 0, got {float(text)}")
    for text in ("-1", "0", "nan", "inf")
]


# RunConfig.validate checks every method field whatever the method, so a sweep of baseline
# fails on each
HYPER_ERRORS = [
    ("method=l2_init lambda=nan", "lam must be >= 0 and finite, got nan"),
    ("method=l2 lambda=inf", "lam must be >= 0 and finite, got inf"),
    ("method=shrink_perturb shrink=nan", "shrink must be >= 0 and finite, got nan"),
    ("method=shrink_perturb noise=nan", "noise must be >= 0 and finite, got nan"),
    ("method=continual_backprop replacement_rate=nan",
     "replacement_rate must be >= 0 and finite, got nan"),
    ("method=continual_backprop utility_decay=5", "utility_decay must be in [0, 1], got 5.0"),
    ("method=continual_backprop utility_decay=nan", "utility_decay must be in [0, 1], got nan"),
    ("method=continual_backprop maturity_threshold=-5", "maturity_threshold must be >= 0, got -5"),
]


@pytest.mark.parametrize("override, message", WIDTH_ERRORS + ALPHA_ERRORS + HYPER_ERRORS,
                         ids=[o for o, _ in WIDTH_ERRORS + ALPHA_ERRORS + HYPER_ERRORS])
def test_cli_bad_widths_and_step_sizes_are_usage_errors(tmp_path, capsys, override, message):
    code = main(["run", f"out={tmp_path / 'o'}", "problem=synthetic_permuted",
                 *override.split()])
    assert code == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error" in ln]
    assert errors == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("override, message", HYPER_ERRORS, ids=[o for o, _ in HYPER_ERRORS])
def test_validate_alone_rejects_each_bad_hyper_parameter(override, message):
    cfg = parse_config(None, ["problem=synthetic_permuted", *override.split()]).resolved()
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert str(exc.value) == message


@pytest.mark.parametrize("override, message", WIDTH_ERRORS + HYPER_ERRORS,
                         ids=[o for o, _ in WIDTH_ERRORS + HYPER_ERRORS])
def test_cli_sweep_records_bad_widths_per_cell(tmp_path, capsys, override, message):
    # the last method key wins: these sweep baseline, whose grid leaves the bad value as it is
    code = main(["sweep", "--seeds", "1", f"out={tmp_path / 'o'}",
                 "problem=synthetic_permuted", *override.split(), "method=baseline"])
    assert code == 1  # every cell failed with cause "config"
    assert capsys.readouterr().out.splitlines() == ["all sweep cells failed", f"  {message}"]
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["failed", "failed"]
    summary = json.loads((tmp_path / "o" / "sweep_summary.json").read_text())
    assert [cell["errors"] for cell in summary["cells"]] == [[f"config: {message}"]] * 2


def test_cli_io_error_exit_code(tmp_path):
    code = main([
        "run", "problem=permuted_mnist",
        f"mnist_images={tmp_path}/absent.idx", f"mnist_labels={tmp_path}/absent.idx",
    ])
    assert code == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    code = main([
        "run", f"out={tmp_path / 'o'}", "problem=synthetic_permuted",
        "optimizer=sgd", "alpha=1e9", "num_tasks=2", "steps_per_task=5",
        "dataset_size=32",
    ])
    assert code == 3


def test_cli_sweep_over_missing_data_names_the_error(tmp_path, capsys):
    code = main([
        "sweep", "--seeds", "1", "method=baseline", f"out={tmp_path / 'o'}",
        "problem=permuted_mnist", f"mnist_images={tmp_path}/absent.idx",
        f"mnist_labels={tmp_path}/absent.idx",
    ])
    assert code == 2
    out = capsys.readouterr().out
    assert "all sweep cells failed" in out and "absent.idx" in out


def test_cli_sweep_of_config_errors_is_a_usage_error(tmp_path, capsys):
    rng = RngStream(0)
    write_idx_images(tmp_path / "i.idx", (rng.uniform(0, 1, (200, 28, 28)) * 255).astype(np.uint8))
    write_idx_labels(tmp_path / "l.idx", np.asarray(rng.integers(0, 10, 200)))
    code = main(["sweep", "--seeds", "1", "method=baseline", f"out={tmp_path / 'o'}",
                 "problem=permuted_mnist", "dataset_size=500",
                 f"mnist_images={tmp_path / 'i.idx'}", f"mnist_labels={tmp_path / 'l.idx'}"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "all sweep cells failed", "  cannot subsample 500 from 200 samples"]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_cli_sweep_over_no_seeds_is_a_usage_error(tmp_path, capsys, seeds):
    code = main(["sweep", "--seeds", seeds, "method=baseline", f"out={tmp_path / 'o'}",
                 "problem=synthetic_permuted"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: a sweep needs at least 1 seed"]
    assert not (tmp_path / "o").exists()  # no sweep_summary.json with a NaN winner


def test_cli_sweep_where_every_cell_diverges_is_a_numerical_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "DIVERGENCE_MAGNITUDE", 0.0)  # every run stops at step 0
    code = main(["sweep", "--seeds", "1", "method=baseline", f"out={tmp_path / 'o'}",
                 "problem=synthetic_permuted", "num_tasks=1", "steps_per_task=2"])
    assert code == 3
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["incomplete", "incomplete"]
    cells = json.loads((tmp_path / "o" / "sweep_summary.json").read_text())["cells"]
    assert [cell["status"] for cell in cells] == ["failed", "failed"]
    assert not any("errors" in cell for cell in cells)  # no row raised an error


SWEEP_1 = ["sweep", "--seeds", "1", "method=baseline"]


@pytest.mark.parametrize("command, set_out", [(["run"], True), (SWEEP_1, True),
                                              (["run"], False), (SWEEP_1, False)],
                         ids=("run", "sweep", "run_default_out", "sweep_default_out"))
def test_an_unwritable_out_fails_before_the_first_step(tmp_path, capsys, monkeypatch, command,
                                                       set_out):
    calls = count_forward_calls(monkeypatch)
    monkeypatch.chdir(tmp_path)  # where the default `out` is made
    (tmp_path / "out").write_text("not a directory\n")
    code = main([*command, "problem=synthetic_permuted", "num_tasks=1", "steps_per_task=3",
                 *([f"out={tmp_path / 'out'}"] if set_out else [])])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("i/o error: "), err
    assert calls == []
    assert (tmp_path / "out").read_text() == "not a directory\n"


def test_a_run_with_no_out_key_writes_and_echoes_the_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "problem=synthetic_permuted", "num_tasks=1", "steps_per_task=2"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["out"] == "out" and summary["steps_completed"] == 2


TOO_LONG = "steps_per_task=1000000000000000000"  # more entries than any numpy array may hold
# every other array a config sizes, at the same 10**18: numpy refuses each without allocating it
TOO_LARGE = ("dataset_size=1000000000000000000", "input_width=1000000000000000000",
             "hidden_widths=1000000000000000000")
SET_UP = ["problem=synthetic_permuted", "num_tasks=1", "steps_per_task=3"]
ALLOCATION_ERROR = "cannot allocate the arrays sized by dataset_size, input_width, hidden_widths "


def assert_run_is_one_allocation_error(tmp_path, capsys, monkeypatch, setting):
    monkeypatch.chdir(tmp_path)
    assert main(["run", *SET_UP, setting]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("error: " + ALLOCATION_ERROR), err
    assert os.listdir(tmp_path) == []


def assert_sweep_writes_its_failed_cells(tmp_path, setting):
    assert main(["sweep", "--seeds", "1", "method=baseline", f"out={tmp_path / 'o'}",
                 *SET_UP, setting]) == 1
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["failed", "failed"]
    cells = json.loads((tmp_path / "o" / "sweep_summary.json").read_text())["cells"]
    assert [cell["status"] for cell in cells] == ["failed", "failed"]
    assert all(cell["errors"][0].startswith("config: " + ALLOCATION_ERROR) for cell in cells)


def test_a_run_too_long_to_record_is_one_error_line(tmp_path, capsys, monkeypatch):
    assert_run_is_one_allocation_error(tmp_path, capsys, monkeypatch, TOO_LONG)


def test_a_sweep_of_runs_too_long_to_record_writes_its_files(tmp_path):
    assert_sweep_writes_its_failed_cells(tmp_path, TOO_LONG)


@pytest.mark.parametrize("setting", TOO_LARGE, ids=lambda s: s.split("=")[0])
def test_a_run_too_large_to_set_up_is_one_error_line(tmp_path, capsys, monkeypatch, setting):
    assert_run_is_one_allocation_error(tmp_path, capsys, monkeypatch, setting)


@pytest.mark.parametrize("setting", TOO_LARGE, ids=lambda s: s.split("=")[0])
def test_a_sweep_of_runs_too_large_to_set_up_writes_its_files(tmp_path, setting):
    assert_sweep_writes_its_failed_cells(tmp_path, setting)


def strict_json(path):
    """The JSON file at path, parsed as a strict parser would: NaN and Infinity raise."""
    def reject(constant):
        raise ValueError(f"non-standard constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("failure", ("config", "diverged"))
def test_a_failed_sweep_writes_strict_json(tmp_path, monkeypatch, failure):
    if failure == "diverged":
        monkeypatch.setattr(runner, "DIVERGENCE_MAGNITUDE", 0.0)  # every run stops at step 0
    code = main(["sweep", "--seeds", "1", "method=baseline", f"out={tmp_path / 'o'}",
                 "problem=synthetic_permuted", "num_tasks=1", "steps_per_task=2",
                 *(["hidden_widths=4,0"] if failure == "config" else [])])
    assert code == (1 if failure == "config" else 3)
    summary = strict_json(tmp_path / "o" / "sweep_summary.json")
    assert summary["winner"] is None
    assert [cell["mean_total_avg_online_accuracy"] for cell in summary["cells"]] == [None] * 2
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-2] for row in rows] == ["nan", "nan"]  # the CSV keeps nan


def test_a_run_stopped_at_step_0_writes_strict_json(tmp_path, monkeypatch):
    start_from(monkeypatch, lambda theta: theta.__setitem__(7, np.nan))
    record = run_experiment(desk_config())
    assert record.steps_completed == 0
    write_outputs(record, tmp_path)
    summary = strict_json(tmp_path / "summary.json")
    assert summary["total_avg_online_accuracy"] is None and summary["incomplete"] is True


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "overall max relative error" in out
    # the unfloored worst relative error of each network: a real difference, under the gate
    unfloored = [float(x) for x in re.findall(r"\(unfloored (\S+)\)", out)]
    assert len(unfloored) == 4
    assert all(0.0 < err < 1e-4 for err in unfloored), unfloored


def test_cli_gradcheck_fails_on_a_wrong_gradient(capsys, monkeypatch):
    double_the_gradient(monkeypatch)  # the check's gradient, not the signal test's
    assert main(["gradcheck"]) == 3
    worst = re.search(r"overall max relative error: (\S+)", capsys.readouterr().out)
    assert float(worst.group(1)) > 1e-4


def test_cli_sweep(tmp_path):
    code = main([
        "sweep", "--seeds", "1", "method=baseline", f"out={tmp_path}",
        "problem=synthetic_permuted", "num_tasks=2", "steps_per_task=4",
        "dataset_size=32",
    ])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
