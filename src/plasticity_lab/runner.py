"""Deterministic experiment loop, hyper-parameter sweeps, and output files.

One run is strictly sequential: fetch batch, score it (online accuracy is
measured before the update), compute loss gradients, apply the method
step. The learner never receives task boundaries; they are used only for
metric bookkeeping (per-task accuracy rows plus weight-magnitude and
feature-rank diagnostics captured at the end of each task).

Before each update the loop checks mean |theta| <= DIVERGENCE_MAGNITUDE;
NaN and inf fail that comparison. It is the only numerical check on the
training path: below the bound the loss, gradients and optimizer updates
stay finite, so divergence always shows first in the parameters. A run
that fails the check stops and its record is flagged incomplete.

Outputs: `task_metrics.csv` (one row per task), `summary.json`, optional
`steps.csv` (per-step accuracies), and `sweep.csv` / `sweep_summary.json`
for sweeps. CSV floats use repr formatting, '.' decimal, LF endings, so a
(config, seed) pair determines every output byte.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .config import RunConfig, SweepResult, SweepSpec
from .errors import ConfigError, NumericalError
from .metrics import (
    RunRecord,
    TaskRow,
    avg_online_task_accuracy,
    batch_accuracy,
    feature_srank_probe,
    mean_param_magnitude,
    total_avg_online_accuracy,
)
from .nn import NetworkSpec, forward, init_params, loss_and_grad
from .optim import apply_method_step, make_cbp_state, make_optimizer
from .problems import (
    TaskStream,
    load_cifar10_bin,
    load_mnist,
    make_synthetic_dataset,
    make_task,
    next_batch,
    probe_batch,
    subsample,
)
from .rng import RngStream

log = logging.getLogger(__name__)

DIVERGENCE_MAGNITUDE = 1e6

TASK_CSV_HEADER = "task_index,start_step,avg_online_task_accuracy,weight_magnitude,feature_srank"


def build_stream(cfg: RunConfig) -> TaskStream:
    """The problem's task stream: its base dataset under its transform."""
    cfg = cfg.resolved()
    rng = RngStream(cfg.seed)
    if cfg.problem.startswith("synthetic"):
        classes = cfg.classes
        base = make_synthetic_dataset(
            cfg.input_width, classes, cfg.dataset_size, rng.split("base")
        )
    else:
        classes = 10
        if cfg.problem == "random_label_cifar":
            full = load_cifar10_bin(cfg.cifar_bin)
        else:
            full = load_mnist(cfg.mnist_images, cfg.mnist_labels)
        base = subsample(full, cfg.dataset_size, rng.split("subsample"))
    return TaskStream(
        transform="permute" if "permuted" in cfg.problem else "relabel",
        base=base,
        num_tasks=cfg.num_tasks,
        steps_per_task=cfg.steps_per_task,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        num_classes=classes,
    )


def build_network_spec(cfg: RunConfig, stream: TaskStream) -> NetworkSpec:
    cfg = cfg.resolved()
    return NetworkSpec(
        kind="cnn" if cfg.problem == "random_label_cifar" else "mlp",
        input_shape=stream.base.images.shape[1:],
        hidden_widths=cfg.hidden_widths,
        num_classes=stream.num_classes,
        layer_norm=cfg.method == "layer_norm",
    )


def run_experiment(cfg: RunConfig) -> RunRecord:
    """Execute one run; deterministic given (config, seed)."""
    cfg = cfg.resolved()
    cfg.validate()
    started = time.perf_counter()
    stream = build_stream(cfg)
    spec = build_network_spec(cfg, stream)
    method = cfg.method_config()

    master = RngStream(cfg.seed)
    params = init_params(spec, master.split("init"))
    opt = make_optimizer(cfg.optimizer, cfg.alpha, params)
    cbp = make_cbp_state(spec) if method.method == "continual_backprop" else None
    noise_rng = master.split("noise")

    k, m = stream.num_tasks, stream.steps_per_task
    per_step = np.zeros(k * m, dtype=np.float64)
    record = RunRecord(seed=cfg.seed, config=dataclasses.asdict(cfg))
    step = 0
    try:
        for i in range(k):
            task = make_task(stream, i)
            for j in range(m):
                images, labels = next_batch(task, j)
                logits, cache = forward(spec, params, images)
                per_step[step] = batch_accuracy(logits, labels)
                _, grads = loss_and_grad(spec, params, cache, logits, labels)
                magnitude = mean_param_magnitude(params)
                if not magnitude <= DIVERGENCE_MAGNITUDE:
                    raise NumericalError(f"run diverged at step {step} (mean |theta|={magnitude})")
                apply_method_step(
                    method, opt, params, grads, rng=noise_rng, cache=cache, cbp=cbp
                )
                step += 1
            probe = probe_batch(task, cfg.probe_size)
            record.task_rows.append(
                TaskRow(
                    task_index=i,
                    start_step=task.start_step,
                    avg_online_task_accuracy=avg_online_task_accuracy(per_step, i * m, m),
                    weight_magnitude=mean_param_magnitude(params),
                    feature_srank=feature_srank_probe(spec, params, probe),
                )
            )
    except NumericalError as exc:
        log.warning("aborting run: %s", exc)
        record.incomplete = True

    record.steps_completed = step
    if step > 0:
        record.total_avg_online_accuracy = total_avg_online_accuracy(per_step[:step])
    record.per_step_accuracy = per_step[:step] if cfg.log_steps else None
    record.wall_clock_seconds = time.perf_counter() - started
    return record


def _version_string() -> str:
    """Package version plus the git revision of the package's own checkout, if any."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return f"plasticity-lab {__version__}" + (f" ({rev})" if rev else "")


def write_outputs(record: RunRecord, out_dir: str) -> None:
    """Write task_metrics.csv, summary.json, and (if recorded) steps.csv."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [TASK_CSV_HEADER]
    for row in record.task_rows:
        lines.append(
            f"{row.task_index},{row.start_step},{row.avg_online_task_accuracy!r},"
            f"{row.weight_magnitude!r},{row.feature_srank!r}"
        )
    with open(os.path.join(out_dir, "task_metrics.csv"), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    summary = {
        "total_avg_online_accuracy": record.total_avg_online_accuracy,
        "seed": record.seed,
        "steps_completed": record.steps_completed,
        "incomplete": record.incomplete,
        "config": record.config,
        "wall_clock_seconds": record.wall_clock_seconds,
        "version": _version_string(),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if record.per_step_accuracy is not None:
        steps = ["step,online_accuracy"]
        steps += [f"{i},{float(a)!r}" for i, a in enumerate(record.per_step_accuracy)]
        with open(os.path.join(out_dir, "steps.csv"), "w", newline="") as fh:
            fh.write("\n".join(steps) + "\n")


def _run_cell(args) -> dict:
    cfg, cell, seed = args
    cfg = dataclasses.replace(cfg, seed=seed, **cell)
    row = {"seed": seed, **cell}
    try:
        record = run_experiment(cfg)
    except (NumericalError, ConfigError) as exc:
        row.update(status="failed", error=str(exc), total_avg_online_accuracy=float("nan"))
        return row
    row.update(
        status="incomplete" if record.incomplete else "ok",
        total_avg_online_accuracy=record.total_avg_online_accuracy,
    )
    return row


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the method's grid over the configured seeds and pick the winner.

    The winner maximizes the seed-mean total average online accuracy;
    exact ties break toward smaller hyper-parameters (lambda / shrink /
    noise / replacement rate, then step size). Failed or incomplete cells
    are recorded but excluded from winner selection.
    """
    base = dataclasses.replace(spec.base, method=spec.method)
    cells = spec.cells()
    jobs = [(base, cell, seed) for cell in cells for seed in spec.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, jobs))
    else:
        rows = [_run_cell(job) for job in jobs]

    cell_means = []
    per_cell = len(spec.seeds)
    for idx, cell in enumerate(cells):
        chunk = rows[idx * per_cell : (idx + 1) * per_cell]
        ok = [r for r in chunk if r["status"] == "ok"]
        mean = (
            float(np.mean([r["total_avg_online_accuracy"] for r in ok]))
            if len(ok) == per_cell
            else float("nan")
        )
        cell_means.append(
            {**cell, "mean_total_avg_online_accuracy": mean,
             "status": "ok" if len(ok) == per_cell else "failed"}
        )

    winner = select_winner(cell_means)
    return SweepResult(method=spec.method, rows=rows, cell_means=cell_means, winner=winner)


def select_winner(cell_means: list[dict]) -> dict | None:
    """Argmax over cell means; ties break toward smaller hyper-parameters."""

    def sort_key(cm):
        hypers = tuple(
            cm.get(k, 0.0) for k in ("lam", "shrink", "noise", "replacement_rate", "alpha")
        )
        return (-cm["mean_total_avg_online_accuracy"],) + hypers

    viable = [cm for cm in cell_means if cm["status"] == "ok"]
    return min(viable, key=sort_key) if viable else None


def write_sweep_outputs(result: SweepResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    keys = ["alpha", "lam", "shrink", "noise", "replacement_rate"]
    lines = ["method," + ",".join(keys) + ",seed,total_avg_online_accuracy,status"]
    for row in result.rows:
        vals = [repr(row[k]) if k in row else "" for k in keys]
        lines.append(
            f"{result.method},{','.join(vals)},{row['seed']},"
            f"{row['total_avg_online_accuracy']!r},{row['status']}"
        )
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "sweep_summary.json"), "w") as fh:
        json.dump(
            {"method": result.method, "winner": result.winner, "cells": result.cell_means},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
