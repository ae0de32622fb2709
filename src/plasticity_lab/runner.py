"""Deterministic experiment loop, hyper-parameter sweeps, and output files.

One run is strictly sequential: fetch batch, score it (online accuracy is
measured before the update), compute loss gradients, apply the method
step. The learner never receives task boundaries; they are used only for
metric bookkeeping (per-task accuracy rows plus weight-magnitude and
feature-rank diagnostics captured at the end of each task).

Before each update, and at each task boundary before the probe, the loop
checks mean |theta| <= DIVERGENCE_MAGNITUDE; NaN and inf fail that
comparison. It is the only numerical check on the training path: below
the bound the loss, gradients and optimizer updates stay finite, so
divergence always shows first in the parameters. Before an update the
check first takes one dot product: theta . theta below 0.5 * bound**2 *
size proves mean |theta| <= RMS |theta| < bound, and the factor 0.5 leaves
room for the rounding of both sums. Only when that test fails (or is NaN
or inf), and at every boundary, is the exact mean computed and compared.
A run that fails it stops with no row for its task, flagged incomplete.

`run_jobs` runs many jobs (sweep cells, the acceptance desk runs) on
spawned workers with one BLAS thread each, so workers do not oversubscribe
the cores; a job's bytes do not depend on the worker count.

Outputs: `task_metrics.csv` (one row per task), `summary.json`, optional
`steps.csv` (per-step accuracies), and `sweep.csv` / `sweep_summary.json`
for sweeps. CSV floats use repr formatting, '.' decimal, LF endings, so a
(config, seed) pair determines every output byte. Each file is written
whole to a temporary file beside it and renamed into place, so none is
ever left half-written.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import multiprocessing
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .config import GRIDS, PROBLEMS, RunConfig, SweepResult, SweepSpec
from .errors import ConfigError, DataFormatError, NumericalError
from .metrics import (
    RunRecord,
    TaskRow,
    avg_online_task_accuracy,
    batch_accuracy,
    feature_srank_probe,
    mean_param_magnitude,
    total_avg_online_accuracy,
)
from .nn import NetworkSpec, ParameterSet, forward, init_params, loss_and_grad
from .optim import apply_method_step, make_cbp_state, make_optimizer
from .problems import (
    TaskStream,
    load_cifar10_bin,
    load_idx,
    make_synthetic_dataset,
    make_task,
    next_batch,
    probe_batch,
)
from .rng import RngStream

log = logging.getLogger(__name__)

DIVERGENCE_MAGNITUDE = 1e6

TASK_CSV_HEADER = "task_index,start_step,avg_online_task_accuracy,weight_magnitude,feature_srank"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_stream(cfg: RunConfig) -> TaskStream:
    """The problem's task stream: its base dataset under its transform."""
    cfg = cfg.resolved()
    problem = PROBLEMS[cfg.problem]
    rng = RngStream(cfg.seed)
    classes = cfg.classes if problem.data == "synthetic" else 10
    if problem.data == "synthetic":
        base = make_synthetic_dataset(cfg.input_width, classes, cfg.dataset_size, rng.split("base"))
    elif problem.data == "cifar":
        base = load_cifar10_bin(cfg.cifar_bin, cfg.dataset_size, rng.split("subsample"))
    else:
        base = load_idx(cfg.mnist_images, cfg.mnist_labels, cfg.dataset_size,
                        rng.split("subsample"))
    return TaskStream(
        transform=problem.transform,
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
        kind="cnn" if PROBLEMS[cfg.problem].data == "cifar" else "mlp",
        input_shape=stream.base.images.shape[1:],
        hidden_widths=cfg.hidden_widths,
        num_classes=stream.num_classes,
        layer_norm=cfg.method == "layer_norm",
    )


def _check_magnitude(params: ParameterSet, step: int) -> float:
    """The exact mean |theta|, or NumericalError if it is not <= DIVERGENCE_MAGNITUDE."""
    magnitude = mean_param_magnitude(params)
    if not magnitude <= DIVERGENCE_MAGNITUDE:
        raise NumericalError(f"run diverged at step {step} (mean |theta|={magnitude})")
    return magnitude


def run_experiment(cfg: RunConfig) -> RunRecord:
    """Execute one run; deterministic given (config, seed)."""
    cfg = cfg.resolved()
    cfg.validate()
    started = time.perf_counter()
    stream = build_stream(cfg)
    spec = build_network_spec(cfg, stream)

    master = RngStream(cfg.seed)
    params = init_params(spec, master.split("init"))
    opt = make_optimizer(cfg.optimizer, cfg.alpha, params)
    cbp = make_cbp_state(spec) if cfg.method == "continual_backprop" else None
    noise_rng = master.split("noise")

    k, m = stream.num_tasks, stream.steps_per_task
    per_step = np.zeros(k * m, dtype=np.float64)
    theta = params.flat
    # mean |theta| <= RMS |theta| < DIVERGENCE_MAGNITUDE whenever theta . theta is below this
    sum_sq_bound = 0.5 * DIVERGENCE_MAGNITUDE**2 * theta.size
    record = RunRecord(seed=cfg.seed, config=dataclasses.asdict(cfg))
    step = 0
    try:
        for i in range(k):
            task = make_task(stream, i)
            for j in range(m):
                images, labels = next_batch(task, j)
                logits, cache = forward(spec, params, images)
                per_step[step] = batch_accuracy(logits, labels)
                _, grad = loss_and_grad(spec, params, cache, logits, labels)
                if not np.dot(theta, theta) < sum_sq_bound:
                    _check_magnitude(params, step)
                apply_method_step(cfg, opt, params, grad, rng=noise_rng, cache=cache, cbp=cbp)
                step += 1
            magnitude = _check_magnitude(params, step)
            probe = probe_batch(task, cfg.probe_size)
            record.task_rows.append(
                TaskRow(
                    task_index=i,
                    start_step=task.start_step,
                    avg_online_task_accuracy=avg_online_task_accuracy(per_step, i * m, m),
                    weight_magnitude=magnitude,
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


def _write_atomic(path: str, text: str) -> None:
    """Write text, LF line ends, to a temporary file beside path, then rename it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def _write_csv(path: str, header: str, rows) -> None:
    """One CSV file: strings as they are, numbers as their repr."""
    lines = [header] + [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_outputs(record: RunRecord, out_dir: str) -> None:
    """Write task_metrics.csv, summary.json, and steps.csv if recorded (else remove it)."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "task_metrics.csv"), TASK_CSV_HEADER,
               (dataclasses.astuple(row) for row in record.task_rows))

    summary = {
        "total_avg_online_accuracy": record.total_avg_online_accuracy,
        "seed": record.seed,
        "steps_completed": record.steps_completed,
        "incomplete": record.incomplete,
        "config": record.config,
        "wall_clock_seconds": record.wall_clock_seconds,
        "version": _version_string(),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    steps = os.path.join(out_dir, "steps.csv")
    if record.per_step_accuracy is not None:
        _write_csv(steps, "step,online_accuracy", enumerate(record.per_step_accuracy.tolist()))
    elif os.path.exists(steps):  # an earlier run's, which this record would contradict
        os.remove(steps)


def _run_cell(args) -> dict:
    cfg, cell, seed = args
    cfg = dataclasses.replace(cfg, seed=seed, **cell)
    row = {"seed": seed, **cell}
    try:
        record = run_experiment(cfg)
    except (ConfigError, DataFormatError, OSError) as exc:  # a diverged run comes back incomplete
        cause = "config" if isinstance(exc, ConfigError) else "io"
        row.update(status="failed", cause=cause, error=str(exc),
                   total_avg_online_accuracy=float("nan"))
        return row
    row.update(
        status="incomplete" if record.incomplete else "ok",
        total_avg_online_accuracy=record.total_avg_online_accuracy,
    )
    return row


def run_jobs(fn, jobs: list, workers: int = 1) -> list:
    """`[fn(job) for job in jobs]`, on up to `workers` processes spawned while
    the BLAS thread variables are "1" (numpy reads them only as it loads); the
    caller's environment is then put back as it was."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers < 2:
        return [fn(job) for job in jobs]
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            return list(pool.map(fn, jobs))
    finally:
        for var, value in saved.items():
            del os.environ[var]
            if value is not None:
                os.environ[var] = value


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the grid of the base config's method over the seeds and pick the winner.

    The winner maximizes the seed-mean total average online accuracy;
    exact ties break toward smaller hyper-parameters (lambda / shrink /
    noise / replacement rate, then step size). Failed or incomplete cells
    are recorded but excluded from winner selection; a failed row names
    its `cause` ("config" or "io") and its `error` text, which
    its cell also lists under `errors`, as distinct "<cause>: <error>" strings.
    """
    cells = spec.cells()
    jobs = [(spec.base, cell, seed) for cell in cells for seed in spec.seeds]
    rows = run_jobs(_run_cell, jobs, workers)

    cell_means = []
    per_cell = len(spec.seeds)
    for idx, cell in enumerate(cells):
        chunk = rows[idx * per_cell : (idx + 1) * per_cell]
        ok = all(r["status"] == "ok" for r in chunk)
        scores = [r["total_avg_online_accuracy"] for r in chunk]
        mean = float(np.mean(scores)) if ok else float("nan")
        cell_means.append({**cell, "mean_total_avg_online_accuracy": mean,
                           "status": "ok" if ok else "failed"})
        errors = sorted({f"{r['cause']}: {r['error']}" for r in chunk if "error" in r})
        if errors:
            cell_means[-1]["errors"] = errors

    winner = select_winner(cell_means)
    return SweepResult(method=spec.base.method, rows=rows, cell_means=cell_means, winner=winner)


def select_winner(cell_means: list[dict]) -> dict | None:
    """Argmax over cell means; ties break toward smaller hyper-parameters."""

    def sort_key(cm):
        hypers = tuple(cm.get(k, 0.0) for k in (*GRIDS, "alpha"))
        return (-cm["mean_total_avg_online_accuracy"],) + hypers

    viable = [cm for cm in cell_means if cm["status"] == "ok"]
    return min(viable, key=sort_key) if viable else None


def write_sweep_outputs(result: SweepResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    keys = ("alpha", *GRIDS)
    _write_csv(os.path.join(out_dir, "sweep.csv"),
               "method," + ",".join(keys) + ",seed,total_avg_online_accuracy,status",
               ((result.method, *(row.get(k, "") for k in keys), row["seed"],
                 row["total_avg_online_accuracy"], row["status"]) for row in result.rows))
    summary = {"method": result.method, "winner": result.winner, "cells": result.cell_means}
    _write_json(os.path.join(out_dir, "sweep_summary.json"), summary)
