"""End-to-end and per-layer benchmark of the plasticity lab.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes the generated dataset files and the run's config seed. Each
run is a fresh child process that calls `runner.run_experiment` once and
then `runner.write_outputs`; runs go one after another, with the BLAS
pinned to one thread, until `--seconds` is spent. Every run's outputs are
checked against the reference recorded for (workload, seed) in
`reference.json` and against the first run of the invocation.

--trace 0 reports the end-to-end metrics: medians over the runs.
steps_per_s and setup_s are scaled to a nominal machine speed by slices
of a fixed reference loop timed while each untraced run goes (see
calibrate.py); the unscaled figures are printed and kept in the result file.
--trace 1 first times isolated calls (SVD shapes, every method's update,
layer norm), then alternates traced and untraced runs; it reports the
per-layer metrics of BENCHMARK.json, and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full result, with machine facts, goes to
`perfbench/results/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from calibrate import NOMINAL_SLICE_S
from child import MICRO_NAMES
from inputs import make_inputs
from tracer import LAYER_SPANS, SETUP_SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HARD_LIMIT_S = 165.0
BLAS_THREADS = 1

# Hyper-parameters are the reported optima in scripts/reproduce_full_scale.py.
WORKLOADS = {
    "mnist_random_label": {
        "data": "mnist",
        "full_scale_steps": 50 * 30_000,
        "config": dict(problem="random_label_mnist", method="l2_init", optimizer="adam",
                       alpha=1e-4, lam=1e-2, batch_size=16, num_tasks=1,
                       steps_per_task=1_500, probe_size=32),
    },
    "mnist_permuted": {
        "data": "mnist",
        "full_scale_steps": 500 * 625,
        "config": dict(problem="permuted_mnist", method="shrink_perturb", optimizer="sgd",
                       alpha=1e-2, shrink=1e-4, noise=1e-2, batch_size=16, num_tasks=1,
                       steps_per_task=625),
    },
    "cifar_random_label": {
        "data": "cifar",
        "full_scale_steps": 50 * 30_000,
        "projection_note": "leaves out the 512-sample CNN probe",
        "config": dict(problem="random_label_cifar", method="l2_init", optimizer="adam",
                       alpha=1e-3, lam=1e-2, batch_size=16, num_tasks=1,
                       steps_per_task=200, probe_size=16),
    },
}

END_TO_END_UNITS = {"steps_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
ABSENT = -1.0  # per-layer value of a span or isolated call whose function is gone
REL_TOL = 1e-12


# -- child runs --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Launches numbered child runs in one work directory, one at a time."""

    def __init__(self, work: str, config: dict, deadline: float):
        self.work, self.config, self.deadline = work, config, deadline
        self.count = 0
        self.env = child_env()

    def launch(self, mode: str, trace: bool) -> tuple[dict | None, str, str]:
        """Returns (bench.json contents or None, output dir, error text)."""
        self.count += 1
        out = os.path.join(self.work, f"run{self.count:03d}")
        spec_path = out + ".json"
        with open(spec_path, "w") as fh:
            json.dump({"mode": mode, "trace": trace, "out": out, "config": self.config}, fh)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, out, f"killed after {timeout:.0f}s"
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return None, out, lines[-1] if lines else f"exit code {proc.returncode}"
        with open(os.path.join(out, "bench.json")) as fh:
            return json.load(fh), out, ""


# -- output check ------------------------------------------------------------


def read_outputs(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "task_metrics.csv"), newline="") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return {
        "total_avg_online_accuracy": repr(summary["total_avg_online_accuracy"]),
        "feature_srank": [r[4] for r in rows],
        "weight_magnitude": [r[3] for r in rows],
        "steps_completed": summary["steps_completed"],
        "incomplete": summary["incomplete"],
    }


def compare(got: dict, want: dict, label: str) -> list[str]:
    """Accuracy and srank must match exactly; weight magnitude to 1e-12 relative."""
    problems = []
    for key in ("total_avg_online_accuracy", "feature_srank"):
        if got[key] != want[key]:
            problems.append(f"{key} {got[key]} != {label} {want[key]}")
    mags = [(float(a), float(b)) for a, b in zip(got["weight_magnitude"], want["weight_magnitude"])]
    if len(got["weight_magnitude"]) != len(want["weight_magnitude"]) or any(
        abs(a - b) > REL_TOL * abs(b) for a, b in mags
    ):
        problems.append(f"weight_magnitude {got['weight_magnitude']} != {label} "
                        f"{want['weight_magnitude']}")
    return problems


def expected_steps(config: dict) -> int:
    return config["num_tasks"] * config["steps_per_task"]


def check_run(out_dir: str, config: dict, reference: dict | None, first: dict | None):
    """Returns (outputs, problems); an empty problem list means the run passed."""
    try:
        got = read_outputs(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"unreadable outputs: {exc}"]
    problems = []
    if got["incomplete"]:
        problems.append("run came back incomplete")
    if got["steps_completed"] != expected_steps(config):
        problems.append(f"{got['steps_completed']} steps, expected {expected_steps(config)}")
    if reference is not None:
        problems += compare(got, reference, "reference")
    if first is not None:
        problems += compare(got, first, "first run")
    return got, problems


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# -- aggregation -------------------------------------------------------------


def layer_stats(traced: list[dict]) -> tuple[dict, dict]:
    """Per-span stats over the traced runs; returns (metrics, step timings)."""
    calls: dict[str, int] = {}
    per_call: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    steps = wall = covered = 0.0
    step_ms: list[float] = []
    boundary_ms: list[float] = []
    absent = set(traced[0]["trace"]["absent"])
    for run in traced:
        names, spans = run["trace"]["names"], run["trace"]["spans"]
        dur = np.array([end - start for _, start, end, _ in spans])
        child = np.zeros(len(spans))
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
            else:
                covered += dur[i]
        for i, (nid, _, _, _) in enumerate(spans):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            per_call.setdefault(name, []).append(dur[i])
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        steps += run["steps"]
        wall += run["end"] - run["start"]
        step_ms += step_intervals(run, names, spans, boundary_ms)

    metrics = {}
    for name in {**SETUP_SPANS, **LAYER_SPANS}:
        if name in absent:
            values = (ABSENT, ABSENT, ABSENT)
        else:
            n = calls.get(name, 0)
            us = statistics.median(per_call[name]) * 1e6 if n else 0.0
            values = (n / steps, us, self_s.get(name, 0.0) / wall)
        for stat, unit, value in zip(("calls_per_step", "us_per_call", "share"),
                                     ("calls/step", "us", "fraction"), values):
            metrics[f"{name}.{stat}"] = (value, unit)
    metrics["runner.loop_other.share"] = ((wall - covered) / wall, "fraction")
    for name, values, q in (("runner.step.ms_p50", step_ms, 0.5),
                            ("runner.step.ms_p99", step_ms, 0.99),
                            ("runner.boundary.ms_p50", boundary_ms, 0.5)):
        metrics[name] = (float(np.quantile(values, q)) if values else ABSENT, "ms")
    return metrics, {"steps": len(step_ms), "boundaries": len(boundary_ms)}


def step_intervals(run: dict, names: list, spans: list, boundary_ms: list) -> list[float]:
    """A step runs from one next_batch start to the next next_batch or probe_batch
    start; a boundary runs from probe_batch to the next next_batch or the run's end."""
    starts = {n: sorted(s[1] for s in spans if names[s[0]] == n)
              for n in ("problems.next_batch", "problems.probe_batch")}
    events = sorted([(t, "step") for t in starts["problems.next_batch"]]
                    + [(t, "boundary") for t in starts["problems.probe_batch"]])
    events.append((run["run_end"], "end"))
    steps = []
    for (t0, kind), (t1, _) in zip(events[:-1], events[1:]):
        (steps if kind == "step" else boundary_ms).append((t1 - t0) * 1e3)
    return steps


# -- report ------------------------------------------------------------------


def machine_facts(blas_live: dict | None) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_live": blas_live,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_pin_env": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
        "runs_concurrent": 1,
    }


def fmt(value: float) -> str:
    return "absent" if value == ABSENT else f"{value:.6g}"


def measure(args, workload: dict, reference: dict | None) -> tuple[list[dict], dict | None]:
    """Run children one after another until the budget is spent.

    Returns one {"traced", "result", "problems"} entry per attempted run,
    and the isolated-call timings of a traced invocation.
    """
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        config = {**workload["config"], "seed": args.seed,
                  **make_inputs(work, workload["data"], args.seed)}
        runner = Runner(work, config, deadline)
        measure_until = time.monotonic() + args.seconds
        micro = None
        if args.trace:
            micro, _, error = runner.launch("micro", False)
            if micro is None:
                raise RuntimeError(f"isolated calls failed: {error}")

        # Launch runs while the next one is predicted to be at least half
        # inside the budget, so runs cover about `--seconds` on average; a
        # traced invocation alternates traced and untraced runs.
        runs: list[dict] = []
        took: list[float] = []
        first = None
        min_runs = 2 if args.trace else 3
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 0
            t_run = time.monotonic()
            result, out, error = runner.launch("run", traced)
            problems = [error] if result is None else []
            if result is not None:
                got, problems = check_run(out, config, reference, first)
                first = first or got
            runs.append({"traced": traced, "result": result, "problems": problems})
            now = time.monotonic()
            took.append(now - t_run)
            next_run = statistics.median(took)
            if now + next_run > deadline or (
                len(runs) >= min_runs and now + next_run / 2 > measure_until
            ):
                return runs, micro


def per_layer(runs: list[dict], micro: dict, untraced_sps: float) -> dict:
    traced = [r["result"] for r in runs if r["traced"] and r["result"] is not None]
    if not traced:
        raise RuntimeError("no traced run completed")
    layer, counts = layer_stats(traced)
    traced_sps = statistics.median(r["steps"] / r["run_s"] for r in traced)
    layer["runner.trace_overhead.pct"] = ((untraced_sps / traced_sps - 1) * 100, "%")
    for name in MICRO_NAMES:
        value = micro["micro"].get(name)
        layer[name] = (ABSENT if value is None else value, name.rsplit(".", 1)[1])
    print(f"tracing overhead: untraced {untraced_sps:.6g} vs traced {traced_sps:.6g} steps/s"
          f" over {len(traced)} traced runs ({counts['steps']} steps,"
          f" {counts['boundaries']} boundaries)")
    print("per layer, by share of traced wall time:")
    for share, span in sorted(((v, k[: -len(".share")]) for k, (v, _) in layer.items()
                               if k.endswith(".share")), reverse=True):
        cps, us = layer.get(f"{span}.calls_per_step"), layer.get(f"{span}.us_per_call")
        extra = f"  {fmt(cps[0])} calls/step  {fmt(us[0])} us/call" if cps else ""
        print(f"  {span:<34} share {fmt(share)}{extra}")
    for name in ("runner.step.ms_p50", "runner.step.ms_p99", "runner.boundary.ms_p50",
                 *MICRO_NAMES):
        print(f"  {name:<50} {fmt(layer[name][0])} {layer[name][1]}")
    for name, error in micro["errors"].items():
        print(f"  absent: {name}: {error}")
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
            "traced_runs": len(traced), "trace_samples": counts, "traced_steps_per_s": traced_sps,
            "micro_errors": micro["errors"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "plasticity_lab", "runner.py")):
        print(f"perfbench: no lab sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills the running child and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed)
    try:
        runs, micro = measure(args, workload, reference)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = len(runs)
    problems = [p for r in runs for p in r["problems"]]
    failed = sum(1 for r in runs if r["problems"])
    timed = [r["result"] for r in runs if r["result"] is not None and not r["traced"]]
    if not timed:
        print("perfbench: no untraced run completed: " + "; ".join(problems), file=sys.stderr)
        return 1

    samples = {
        "steps_per_s": [r["steps"] / r["run_scaled_s"] for r in timed],
        "setup_s": [r["setup_scaled_s"] for r in timed],
        "peak_rss_mib": [r["maxrss_kib"] / 1024 for r in timed],
    }
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    unscaled_samples = {
        "steps_per_s": [r["steps"] / r["run_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "calibration_slice_ms": [r["slice_ms"] for r in timed],
    }
    unscaled = {name: statistics.median(values) for name, values in unscaled_samples.items()}
    facts = machine_facts(timed[0]["blas"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine  nproc {facts['nproc']}  cpu {facts['cpu_model']}  python {facts['python']}"
          f"  numpy {facts['numpy']}  blas {facts['blas_name']} {facts['blas_version']}"
          f"  blas threads {(facts['blas_live'] or {}).get('threads')} (pinned {BLAS_THREADS})")
    print(f"runs     {attempted} attempted, {failed} failed, failed_run_share "
          f"{failed / attempted:.6g}; reference "
          + ("recorded" if reference is not None else "not recorded for this seed: "
             "checked against the first run only"))
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name, value in e2e.items():
        print(f"{name:<14} {value:.6g} {END_TO_END_UNITS[name]}  (median of {len(timed)} runs)")
    print(f"  times are at the nominal machine speed; unscaled: steps_per_s"
          f" {unscaled['steps_per_s']:.6g} 1/s, setup_s {unscaled['setup_s']:.6g} s; reference"
          f" loop slice {unscaled['calibration_slice_ms']:.4g} ms here against"
          f" {NOMINAL_SLICE_S * 1e3:.4g} ms nominal (medians)")
    hours = workload["full_scale_steps"] / e2e["steps_per_s"] / 3600
    note = f"; {workload['projection_note']}" if "projection_note" in workload else ""
    print(f"projection: full-scale run of {workload['full_scale_steps']:,} steps would take "
          f"{hours:.3g} h at this steps_per_s{note}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": workload["config"], "machine": facts,
        "reference_recorded": reference is not None, "attempted": attempted, "failed": failed,
        "failed_run_share": failed / attempted, "problems": problems,
        "end_to_end": e2e, "end_to_end_samples": samples,
        "nominal_slice_ms": NOMINAL_SLICE_S * 1e3, "unscaled": unscaled,
        "unscaled_samples": unscaled_samples,
    }
    if args.trace:
        try:
            report["per_layer"] = per_layer(runs, micro, unscaled["steps_per_s"])
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        metrics = report["per_layer"]["metrics"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
