import json
import os

import numpy as np
import pytest

from conftest import write_idx_images, write_idx_labels
from plasticity_lab import runner
from plasticity_lab.cli import main
from plasticity_lab.config import RunConfig, SweepSpec
from plasticity_lab.nn import init_params
from plasticity_lab.problems import Dataset, write_cifar10_bin
from plasticity_lab.rng import RngStream
from plasticity_lab.runner import (
    build_network_spec,
    build_stream,
    run_experiment,
    run_sweep,
    select_winner,
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


def test_version_string_names_the_package_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(runner.__file__))
    from_package = runner._version_string()
    monkeypatch.chdir(tmp_path)
    assert runner._version_string() == from_package


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
    spec = build_network_spec(cfg, build_stream(cfg))
    params = init_params(spec, RngStream(0))
    return {k: v.shape for k, v in params.values.items() if k.startswith("w")}


def test_default_cifar_network_has_a_10_wide_dense_layer(tmp_path):
    cfg = cifar_config(tmp_path)
    write_outputs(run_experiment(cfg), str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["hidden_widths"] == [10]
    assert weight_shapes(cfg)["w2"] == (400, 10)


def test_hidden_widths_set_the_cnn_dense_layers(tmp_path):
    shapes = weight_shapes(cifar_config(tmp_path, hidden_widths=(7,)))
    assert (shapes["w2"], shapes["w3"]) == ((400, 7), (7, 10))


def test_classes_set_the_output_width():
    assert weight_shapes(desk_config(classes=3))["w2"] == (30, 3)


def test_layer_norm_method_enables_normalization():
    rec = run_experiment(desk_config(method="layer_norm"))
    rec_base = run_experiment(desk_config())
    assert rec.task_rows[0].weight_magnitude != rec_base.task_rows[0].weight_magnitude


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


def test_select_winner_none_when_all_failed():
    assert select_winner([{"mean_total_avg_online_accuracy": 0.1, "status": "failed"}]) is None


def test_single_cell_sweep_wins(tmp_path):
    base = desk_config(num_tasks=2, optimizer="adam")
    spec = SweepSpec(base=base, method="baseline", seeds=(0,))
    result = run_sweep(spec)
    assert len(result.rows) == 2  # 2 alphas x 1 seed
    assert result.winner is not None
    write_sweep_outputs(result, tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["winner"]["alpha"] == result.winner["alpha"]


def test_desk_scale_sweep_one_row_per_cell_seed():
    base = desk_config(num_tasks=2)
    result = run_sweep(SweepSpec(base=base, method="l2_init", seeds=(0, 1)))
    assert len(result.rows) == 8 * 2
    seen = {(r["lam"], r["alpha"], r["seed"]) for r in result.rows}
    assert len(seen) == 16
    assert all(r["status"] == "ok" for r in result.rows)


def test_parallel_sweep_matches_sequential():
    base = desk_config(num_tasks=2, steps_per_task=6)
    spec = SweepSpec(base=base, method="baseline", seeds=(0, 1))
    seq = run_sweep(spec, workers=1)
    par = run_sweep(spec, workers=2)
    assert seq.rows == par.rows
    assert seq.winner == par.winner


# --- CLI ---------------------------------------------------------------------

def test_cli_run_and_inspect(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--out", str(out), "problem=synthetic_permuted",
        "num_tasks=2", "steps_per_task=4", "dataset_size=32",
    ])
    assert code == 0
    assert (out / "task_metrics.csv").exists()
    assert main(["inspect", "--summary", str(out / "summary.json")]) == 0
    text = capsys.readouterr().out
    assert "synthetic_permuted" in text


def test_cli_usage_error_exit_code():
    assert main(["run", "--config", "/nonexistent", "alpha=oops"]) in (1, 2)
    assert main(["frobnicate"]) == 1
    assert main(["run", "alpha=banana"]) == 1
    assert main(["run", "problem=mnist"]) == 1


@pytest.mark.parametrize(
    "problem, override",
    [("permuted_mnist", "batch_size=0"), ("synthetic_permuted", "batch_size=0"),
     ("synthetic_permuted", "num_tasks=0")],
)
def test_cli_rejects_non_positive_sizes(tmp_path, capsys, problem, override):
    args = ["run", "--out", str(tmp_path / "o"), f"problem={problem}", "dataset_size=8", override]
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
    code = main(["run", "--out", str(tmp_path / "o"), "problem=synthetic_permuted", "lambda=-1"])
    assert code == 1
    assert "error: lam must be >= 0" in capsys.readouterr().err


def test_cli_io_error_exit_code(tmp_path):
    code = main([
        "run", "problem=permuted_mnist",
        f"mnist_images={tmp_path}/absent.idx", f"mnist_labels={tmp_path}/absent.idx",
    ])
    assert code == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    code = main([
        "run", "--out", str(tmp_path / "o"), "problem=synthetic_permuted",
        "optimizer=sgd", "alpha=1e9", "num_tasks=2", "steps_per_task=5",
        "dataset_size=32",
    ])
    assert code == 3


def test_cli_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert "overall max relative error" in capsys.readouterr().out


def test_cli_sweep(tmp_path):
    code = main([
        "sweep", "--method", "baseline", "--seeds", "1", "--out", str(tmp_path),
        "problem=synthetic_permuted", "num_tasks=2", "steps_per_task=4",
        "dataset_size=32",
    ])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
