"""scripts/reproduce_full_scale.py, imported by path, on a tiny IDX pair."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import count_forward_calls, write_idx_images, write_idx_labels
from plasticity_lab import runner
from plasticity_lab.cli import main as plab
from plasticity_lab.rng import RngStream

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_full_scale.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("reproduce_full_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def keys(tmp_path):
    rng = RngStream(5)
    write_idx_images(tmp_path / "i.idx", rng.integers(0, 256, (30, 28, 28)))
    write_idx_labels(tmp_path / "l.idx", np.asarray(rng.integers(0, 10, 30)))
    return ["problem=permuted_mnist", "optimizer=sgd", f"mnist_images={tmp_path / 'i.idx'}",
            f"mnist_labels={tmp_path / 'l.idx'}", "dataset_size=20", "num_tasks=2",
            "steps_per_task=5", "hidden_widths=8", "probe_size=16"]


def test_a_script_run_writes_the_bytes_of_plab_run(tmp_path, script, keys):
    code = script.main([*keys, f"out={tmp_path / 'runs'}", "--seeds", "1", "--methods", "l2_init"])
    assert code == 0
    ran = tmp_path / "runs" / "permuted_mnist" / "sgd" / "l2_init" / "seed0"
    # the roster's optima for SGD + l2_init on permuted MNIST
    assert plab(["run", *keys, "method=l2_init", "seed=0", "alpha=0.01", "lambda=0.01",
                 f"out={tmp_path / 'plab'}"]) == 0
    metrics = (ran / "task_metrics.csv").read_bytes()
    assert metrics == (tmp_path / "plab" / "task_metrics.csv").read_bytes()
    assert len(metrics.splitlines()) == 1 + 2
    configs = [json.loads((d / "summary.json").read_text())["config"]
               for d in (ran, tmp_path / "plab")]
    assert configs[0]["out"] == str(ran)
    assert {**configs[0], "out": None} == {**configs[1], "out": None}


@pytest.mark.parametrize("flag", ("--seeds", "--config"))
def test_key_values_after_a_flag_join_the_overrides(tmp_path, script, keys, flag):
    config = tmp_path / "run.cfg"
    config.write_text("log_steps = true\n")
    first = [*keys, f"out={tmp_path / 'first'}"]
    assert script.main([*first, "--config", str(config), "--seeds", "1",
                        "--methods", "l2_init"]) == 0
    later = [*keys, f"out={tmp_path / 'later'}"]  # the first before the flags, the rest after
    flags = {"--seeds": ["--config", str(config), "--seeds", "1"],
             "--config": ["--seeds", "1", "--config", str(config)]}[flag]
    assert script.main([later[0], *flags, *later[1:], "--methods", "l2_init"]) == 0
    for name in ("task_metrics.csv", "steps.csv"):
        ran = [tmp_path / out / "permuted_mnist" / "sgd" / "l2_init" / "seed0" / name
               for out in ("first", "later")]
        assert ran[0].read_bytes() == ran[1].read_bytes()


def test_each_running_line_gives_the_jobs_position(tmp_path, capsys, script, keys):
    code = script.main([*keys, f"out={tmp_path / 'runs'}", "--seeds", "2",
                        "--methods", "baseline", "l2_init"])
    assert code == 0
    root = tmp_path / "runs" / "permuted_mnist" / "sgd"
    running = [line for line in capsys.readouterr().out.splitlines() if "running" in line]
    assert running == [f"[{j}/4] running {method} seed {seed} -> {root / method / f'seed{seed}'}"
                       for j, (method, seed) in enumerate(
                           [("baseline", 0), ("baseline", 1), ("l2_init", 0), ("l2_init", 1)], 1)]


@pytest.mark.parametrize("args, message", [
    (["--methods", "l2_init_resample"],
     "no reported optima for 'l2_init_resample' on permuted_mnist / sgd"),
    (["--methods", "baseline", "dropout"],
     "no reported optima for 'dropout' on permuted_mnist / sgd"),
    (["problem=synthetic_permuted"], "no reported optima for synthetic_permuted / sgd"),
    (["problem=random_label_cifar", "--methods", "continual_backprop"],
     "no reported optima for 'continual_backprop' on random_label_cifar / sgd"),
    (["problem=random_label_cifar"], "random_label_cifar needs a cifar_bin path"),
    (["--problem", "x"], "unrecognized arguments: --problem x"),
    (["--seeds", "x"], "argument --seeds: invalid int value: 'x'"),
    (["--seeds", "0"], "the roster needs at least 1 seed, got --seeds 0"),
    (["--seeds", "-2"], "the roster needs at least 1 seed, got --seeds -2"),
    (["--methods", "l2", "l2"], "--methods names 'l2' twice"),
    (["--methods"], "--methods names no method"),
    (["seed=1"], "override 'seed=1': key 'seed' is set per run by the roster; "
                 "give the seed count with --seeds"),
    (["method=l2"], "override 'method=l2': key 'method' is set per run by the roster; "
                    "name methods with --methods"),
], ids=("unrostered_method", "a_later_unknown_method", "unrostered_problem", "cbp_on_the_cnn",
        "missing_cifar_path", "unknown_flag", "bad_seed_count", "no_seeds", "negative_seeds",
        "a_repeated_method", "no_methods", "seed_key", "method_key"))
def test_a_bad_job_is_one_error_line_before_any_run(tmp_path, capsys, script, keys, args, message):
    code = script.main([*keys, f"out={tmp_path / 'runs'}", *args])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "runs").exists()


def test_an_unwritable_out_fails_before_the_first_run_step(tmp_path, capsys, monkeypatch,
                                                          script, keys):
    calls = count_forward_calls(monkeypatch)
    (tmp_path / "f").write_text("not a directory\n")
    code = script.main([*keys, f"out={tmp_path / 'f'}", "--seeds", "1", "--methods", "l2_init"])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: "), err
    assert calls == []


def test_a_method_key_in_the_config_file_is_an_error_naming_it(tmp_path, capsys, script, keys):
    config = tmp_path / "run.cfg"
    config.write_text("# the roster picks the method\nmethod = l2\n")
    assert script.main(["--config", str(config), *keys, f"out={tmp_path / 'runs'}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {config}:2: key 'method' is set per run by the roster; "
        "name methods with --methods"]
    assert not (tmp_path / "runs").exists()


def test_a_missing_mnist_path_is_one_error_line_before_any_run(tmp_path, capsys, script, keys):
    keys = [key for key in keys if not key.startswith("mnist_labels=")]
    assert script.main([*keys, f"out={tmp_path / 'runs'}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: permuted_mnist needs mnist_images and mnist_labels paths"]
    assert not (tmp_path / "runs").exists()


def test_a_diverged_run_exits_3_after_the_rest_run(tmp_path, monkeypatch, capsys, script, keys):
    monkeypatch.setattr(runner, "DIVERGENCE_MAGNITUDE", 0.0)  # every run stops at step 0
    code = script.main([*keys, f"out={tmp_path / 'runs'}", "--seeds", "2", "--methods", "baseline"])
    assert code == 3
    assert capsys.readouterr().out.count("(INCOMPLETE)") == 2
    for seed in (0, 1):
        ran = tmp_path / "runs" / "permuted_mnist" / "sgd" / "baseline" / f"seed{seed}"
        assert json.loads((ran / "summary.json").read_text())["incomplete"] is True
