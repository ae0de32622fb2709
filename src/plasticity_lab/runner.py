"""Deterministic experiment loop, hyper-parameter sweeps, and output files.

One run is strictly sequential. `start_run` builds its state, a `Run`, and
`run_task` advances it one task: per step, fetch batch, score it (online
accuracy before the update), compute loss gradients, apply the method step.
Task boundaries never reach the learner; they serve only bookkeeping: each
task's accuracy row and its weight-magnitude and feature-rank diagnostics.

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
(config, seed) pair determines every output byte; JSON has null, not NaN,
for a failed sweep cell's mean and a step-0 run's total. Each file is
written whole to a temporary file beside it, then renamed: never half-written.
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
from datetime import timedelta

import numpy as np

from . import __version__
from .config import GRIDS, PROBLEMS, RunConfig, sweep_cells
from .errors import ConfigError, DataFormatError, NumericalError
from .metrics import (
    RunRecord,
    TaskRow,
    batch_accuracy,
    feature_srank_probe,
    mean_param_magnitude,
)
from .nn import NetworkSpec, ParameterSet, forward, init_params, loss_and_grad
from .optim import CbpState, OptimizerState, apply_method_step, make_cbp_state, make_optimizer
from .problems import (
    NUM_CLASSES,
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

TASK_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(TaskRow))

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_stream(cfg: RunConfig) -> TaskStream:
    """The problem's task stream: its base dataset under its transform."""
    cfg = cfg.resolved()
    problem = PROBLEMS[cfg.problem]
    rng = RngStream(cfg.seed)
    if problem.data == "synthetic":
        base = make_synthetic_dataset(cfg.dataset_size, rng.split("base"))
    elif problem.data == "cifar":
        base = load_cifar10_bin(cfg.cifar_bin, cfg.dataset_size, rng.split("subsample"))
    else:
        base = load_idx(cfg.mnist_images, cfg.mnist_labels, cfg.dataset_size,
                        rng.split("subsample"))
    return TaskStream(transform=problem.transform, base=base, batch_size=cfg.batch_size,
                      seed=cfg.seed)


def build_network_spec(cfg: RunConfig, stream: TaskStream) -> NetworkSpec:
    return NetworkSpec(
        kind="cnn" if PROBLEMS[cfg.problem].data == "cifar" else "mlp",
        input_shape=stream.base.images.shape[1:],
        hidden_widths=cfg.hidden_widths,
        num_classes=NUM_CLASSES,
        layer_norm=cfg.method == "layer_norm",
    )


def _check_magnitude(params: ParameterSet, step: int) -> float:
    """The exact mean |theta|, or NumericalError if it is not <= DIVERGENCE_MAGNITUDE."""
    magnitude = mean_param_magnitude(params)
    if not magnitude <= DIVERGENCE_MAGNITUDE:
        raise NumericalError(f"run diverged at step {step} (mean |theta|={magnitude})")
    return magnitude


@dataclasses.dataclass
class Run:
    """What a run's loop advances, task by task: `start_run` builds it, `run_task` steps it."""

    cfg: RunConfig  # resolved and validated
    spec: NetworkSpec
    stream: TaskStream
    params: ParameterSet
    opt: OptimizerState
    cbp: CbpState | None
    noise_rng: RngStream
    per_step: np.ndarray  # every step's online accuracy; the first steps_completed are set
    record: RunRecord


def start_run(cfg: RunConfig) -> Run:
    """A run's state before step 0; makes a set `cfg.out`, after every check.

    A set-up array the host cannot allocate is a ConfigError, raised before that."""
    cfg = cfg.resolved()
    cfg.validate()
    master = RngStream(cfg.seed)
    try:
        stream = build_stream(cfg)
        spec = build_network_spec(cfg, stream)
        params = init_params(spec, master.split("init"))
        opt = make_optimizer(cfg.optimizer, cfg.alpha, params)
        cbp = make_cbp_state(spec) if cfg.method == "continual_backprop" else None
        per_step = np.zeros(cfg.num_tasks * cfg.steps_per_task, dtype=np.float64)
    except (ConfigError, DataFormatError):
        raise
    except (MemoryError, ValueError) as exc:  # ValueError: more entries than an array may hold
        raise ConfigError("cannot allocate the arrays sized by dataset_size, hidden_widths "
                          f"and num_tasks x steps_per_task: {exc}") from exc
    if cfg.out is not None:  # past the config and data checks: an unwritable out fails here
        os.makedirs(cfg.out, exist_ok=True)
    return Run(cfg, spec, stream, params, opt, cbp, master.split("noise"), per_step,
               RunRecord(config=dataclasses.asdict(cfg)))


def run_task(run: Run, i: int) -> None:
    """Run task i's steps (step t = i * steps_per_task + j) and append its row; a run that
    diverges raises NumericalError, leaving no row for task i."""
    cfg, spec, params, per_step, record = run.cfg, run.spec, run.params, run.per_step, run.record
    m = cfg.steps_per_task
    theta = params.flat
    # mean |theta| <= RMS |theta| < DIVERGENCE_MAGNITUDE whenever theta . theta is below this
    sum_sq_bound = 0.5 * DIVERGENCE_MAGNITUDE**2 * theta.size
    task = make_task(run.stream, i)
    for j in range(m):
        t = i * m + j
        images, labels = next_batch(task, j)
        logits, cache = forward(spec, params, images)
        per_step[t] = batch_accuracy(logits, labels)
        _, grad = loss_and_grad(spec, params, cache, logits, labels)
        if not np.dot(theta, theta) < sum_sq_bound:
            _check_magnitude(params, t)
        apply_method_step(cfg, run.opt, params, grad, rng=run.noise_rng, cache=cache, cbp=run.cbp)
        record.steps_completed = t + 1
    magnitude = _check_magnitude(params, record.steps_completed)
    probe = probe_batch(task, cfg.probe_size)
    record.task_rows.append(TaskRow(
        task_index=i, start_step=i * m, weight_magnitude=magnitude,
        avg_online_task_accuracy=float(per_step[i * m : (i + 1) * m].mean()),
        feature_srank=feature_srank_probe(spec, params, probe)))


def run_experiment(cfg: RunConfig) -> RunRecord:
    """Execute one run, deterministic given (config, seed): `start_run`, then `run_task`
    for each task, each finished task logging its accuracy, the steps/s so far and the
    ETA; a diverged run stops there, flagged incomplete."""
    started = time.perf_counter()
    run = start_run(cfg)
    record, k = run.record, run.cfg.num_tasks
    loop_start = time.perf_counter()
    try:
        for i in range(k):
            run_task(run, i)
            rate = record.steps_completed / (time.perf_counter() - loop_start)
            eta = timedelta(seconds=round((k - 1 - i) * run.cfg.steps_per_task / rate))
            log.info("task %d/%d: accuracy %.4f, %.1f steps/s, ETA %s", i + 1, k,
                     record.task_rows[-1].avg_online_task_accuracy, rate, eta)
    except NumericalError as exc:
        log.warning("aborting run: %s", exc)
        record.incomplete = True

    step = record.steps_completed
    if step > 0:
        record.total_avg_online_accuracy = float(run.per_step[:step].mean())
    record.per_step_accuracy = run.per_step[:step] if run.cfg.log_steps else None
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


def _write_atomic(path: str, data: bytes) -> None:
    """Write data to a temporary file beside path, then rename it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def _csv(header: str, rows) -> bytes:
    """One CSV file, UTF-8 with LF line ends: strings as they are, numbers as their repr."""
    lines = [header] + [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def write_outputs(record: RunRecord, out_dir: str) -> None:
    """Write steps.csv if recorded (else remove it), task_metrics.csv, and summary.json last."""
    summary = _json({  # before any file is touched: a summary that cannot be encoded writes none
        "total_avg_online_accuracy":
            record.total_avg_online_accuracy if record.steps_completed else None,
        "seed": record.config["seed"],
        "steps_completed": record.steps_completed,
        "incomplete": record.incomplete,
        "config": record.config,
        "wall_clock_seconds": record.wall_clock_seconds,
        "version": _version_string(),
    })
    os.makedirs(out_dir, exist_ok=True)
    steps, summary_path = (os.path.join(out_dir, name) for name in ("steps.csv", "summary.json"))
    if os.path.exists(summary_path):  # an earlier run's, which a failed write below would strand
        os.remove(summary_path)
    if record.per_step_accuracy is not None:
        _write_atomic(steps, _csv("step,online_accuracy",
                                  enumerate(record.per_step_accuracy.tolist())))
    elif os.path.exists(steps):  # an earlier run's, which this record would contradict
        os.remove(steps)
    _write_atomic(os.path.join(out_dir, "task_metrics.csv"),
                  _csv(TASK_CSV_HEADER, (dataclasses.astuple(row) for row in record.task_rows)))
    _write_atomic(summary_path, summary)


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


def run_sweep(base: RunConfig, seeds: int, workers: int = 1) -> tuple[list[dict], dict]:
    """Run the grid of the base config's method over seeds 0 .. seeds-1 and pick the winner.

    Returns (rows, summary): one row per (cell, seed), and the summary
    {"method", "winner", "cells"} that `write_sweep_outputs` writes. The
    winner maximizes the seed-mean total average online accuracy; exact ties
    break toward smaller hyper-parameters (lambda / shrink / noise /
    replacement rate, then step size). Failed or incomplete cells are recorded,
    with a null mean, but excluded from winner selection (None if all fail); a
    failed row names its `cause` ("config" or "io") and its `error` text, which
    its cell also lists under `errors`, as distinct "<cause>: <error>" strings.
    """
    cells = sweep_cells(base)
    if seeds < 1:  # a cell mean over no seeds would be NaN
        raise ConfigError("a sweep needs at least 1 seed")
    jobs = [(base, cell, seed) for cell in cells for seed in range(seeds)]
    rows = run_jobs(_run_cell, jobs, workers)

    cell_means = []
    for idx, cell in enumerate(cells):
        chunk = rows[idx * seeds : (idx + 1) * seeds]
        ok = all(r["status"] == "ok" for r in chunk)
        mean = float(np.mean([r["total_avg_online_accuracy"] for r in chunk])) if ok else None
        cell_means.append({**cell, "mean_total_avg_online_accuracy": mean,
                           "status": "ok" if ok else "failed"})
        errors = sorted({f"{r['cause']}: {r['error']}" for r in chunk if "error" in r})
        if errors:
            cell_means[-1]["errors"] = errors

    return rows, {"method": base.method, "winner": select_winner(cell_means), "cells": cell_means}


def select_winner(cell_means: list[dict]) -> dict | None:
    """Argmax over cell means; ties break toward smaller hyper-parameters."""

    def sort_key(cm):
        hypers = tuple(cm.get(k, 0.0) for k in (*GRIDS, "alpha"))
        return (-cm["mean_total_avg_online_accuracy"],) + hypers

    viable = [cm for cm in cell_means if cm["status"] == "ok"]
    return min(viable, key=sort_key) if viable else None


def write_sweep_outputs(rows: list[dict], summary: dict, out_dir: str) -> None:
    """Write sweep.csv (one line per row), then `run_sweep`'s summary, both encoded first."""
    keys = ("alpha", *GRIDS)
    table = _csv("method," + ",".join(keys) + ",seed,total_avg_online_accuracy,status",
                 ((summary["method"], *(row.get(k, "") for k in keys), row["seed"],
                   row["total_avg_online_accuracy"], row["status"]) for row in rows))
    text, summary_path = _json(summary), os.path.join(out_dir, "sweep_summary.json")
    os.makedirs(out_dir, exist_ok=True)
    if os.path.exists(summary_path):  # an earlier sweep's, which a failed write below would strand
        os.remove(summary_path)
    _write_atomic(os.path.join(out_dir, "sweep.csv"), table)
    _write_atomic(summary_path, text)
