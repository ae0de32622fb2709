"""One benchmark run in a fresh process: `python3 child.py SPEC.json`.

SPEC.json holds {"mode", "out", "trace", "config"}. Mode "run" calls
`runner.run_experiment` once and then `runner.write_outputs` into `out`.
Mode "micro" times isolated calls on fixed seeded inputs, for pieces that
no workload reaches. Either way the timings go to `out/bench.json`.

The set-up calls are always wrapped, so `setup_s` is measured on every
run; with "trace" true every layer span is wrapped too. An untraced run
also times slices of the reference loop in `calibrate.py` while it runs,
to scale its time to a nominal machine speed.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import resource
import statistics
import sys
import time

from calibrate import Calibrator
from tracer import LAYER_SPANS, SETUP_SPANS, Tracer, durations

SVD_SHAPES = ((300, 100), (512, 100), (512, 400))
METHODS = ("baseline", "layer_norm", "l2_init", "l2", "shrink_perturb",
           "continual_backprop", "l2_init_resample")
OPTIMIZERS = ("sgd", "adam")
# the MLP's hidden width, and the first CNN conv map (16 x 28 x 28) flattened
LN_WIDTHS = {"mlp": 100, "cnn": 16 * 28 * 28}
MICRO_NAMES = (
    [f"linalg.singular_values.{m}x{n}.ms" for m, n in SVD_SHAPES]
    + [f"optim.apply_method_step.{m}.{k}.us" for m in METHODS for k in OPTIMIZERS]
    + [f"nn.layer_norm.{net}.{d}.us" for net in LN_WIDTHS for d in ("forward", "backward")]
)


def blas_facts() -> dict:
    """Name, build and live thread count of the OpenBLAS that numpy loaded."""
    facts = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return facts
    if not libs:
        return facts
    lib = ctypes.CDLL(libs[0])
    facts["library"] = os.path.basename(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                facts["threads"] = int(threads())
                facts["config"] = config().decode()
                return facts
    return facts


def run_once(spec: dict) -> dict:
    from plasticity_lab import runner
    from plasticity_lab.config import RunConfig

    tracer = Tracer()
    tracer.install({**SETUP_SPANS, **LAYER_SPANS} if spec["trace"] else SETUP_SPANS)
    calibrator = None
    if not spec["trace"]:
        calibrator = Calibrator()
        calibrator.start()
    cfg = RunConfig(**spec["config"])
    start = time.perf_counter()
    record = runner.run_experiment(cfg)
    run_end = time.perf_counter()
    if calibrator is not None:
        calibrator.stop()
    runner.write_outputs(record, spec["out"])
    end = time.perf_counter()
    trace = tracer.dump()
    if calibrator is None:
        run_s, scaled_s = run_end - start, None
        setup_s, setup_scaled_s = durations(trace, SETUP_SPANS), None
    else:
        # wall times leave out the slices, which may fall inside set-up too
        run_s, scaled_s = calibrator.scaled(start, run_end)
        setup = [calibrator.scaled(s, e) for nid, s, e, _ in trace["spans"]
                 if trace["names"][nid] in SETUP_SPANS]
        setup_s, setup_scaled_s = sum(w for w, _ in setup), sum(c for _, c in setup)
    return {
        "steps": record.steps_completed,
        "run_s": run_s,
        "run_scaled_s": scaled_s,
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "slice_ms": None if calibrator is None else
        statistics.median(e - s for s, e in calibrator.slices) * 1e3,
        "start": start,
        "run_end": run_end,
        "end": end,
        "trace": trace if spec["trace"] else {"absent": trace["absent"]},
    }


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _guarded(results: dict, errors: dict, name: str, measure) -> None:
    """Record one isolated timing; a piece a refactor removed is absent."""
    try:
        results[name] = measure()
    except (AttributeError, ImportError, TypeError, KeyError) as exc:
        results[name] = None
        errors[name] = f"{type(exc).__name__}: {exc}"


def _lab(module: str):
    return importlib.import_module(f"plasticity_lab.{module}")


def micro() -> dict:
    import numpy as np

    gen = np.random.Generator(np.random.PCG64(20230822))
    results: dict[str, float | None] = {}
    errors: dict[str, str] = {}

    for m, n in SVD_SHAPES:
        mat = np.maximum(gen.standard_normal((m, n)) + gen.standard_normal((m, 1)), 0.0)

        def svd():
            fn = _lab("linalg").singular_values
            return _median_us(lambda: fn(mat), 3 if n <= 100 else 1) / 1e3
        _guarded(results, errors, f"linalg.singular_values.{m}x{n}.ms", svd)

    images = gen.random((16, 784))
    labels = gen.integers(0, 10, 16)
    for method in METHODS:
        for kind in OPTIMIZERS:
            def update():
                nn, optim = _lab("nn"), _lab("optim")
                spec = nn.NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100),
                                      layer_norm=method == "layer_norm")
                master = _lab("rng").RngStream(0)
                params = nn.init_params(spec, master.split("init"))
                opt = optim.make_optimizer(kind, 1e-3, params)
                cfg = optim.MethodConfig(method=method, lam=1e-2, shrink=1e-4, noise=1e-2,
                                         replacement_rate=1e-4)
                cbp = optim.make_cbp_state(spec) if method == "continual_backprop" else None
                logits, cache = nn.forward(spec, params, images)
                _, grads = nn.loss_and_grad(spec, params, cache, logits, labels)
                noise, step = master.split("noise"), optim.apply_method_step
                return _median_us(
                    lambda: step(cfg, opt, params, grads, rng=noise, cache=cache, cbp=cbp), 200)
            _guarded(results, errors, f"optim.apply_method_step.{method}.{kind}.us", update)

    for net, width in LN_WIDTHS.items():
        z = gen.standard_normal((16, width))
        gain, shift = gen.standard_normal(width), gen.standard_normal(width)
        reps = 400 if net == "mlp" else 100

        def forward():
            fn = _lab("nn")._ln_forward
            return _median_us(lambda: fn(z, gain, shift), reps)

        def backward():
            nn = _lab("nn")
            _, xhat, inv_std = nn._ln_forward(z, gain, shift)
            fn = nn._ln_backward
            return _median_us(lambda: fn(z, gain, xhat, inv_std), reps)
        _guarded(results, errors, f"nn.layer_norm.{net}.forward.us", forward)
        _guarded(results, errors, f"nn.layer_norm.{net}.backward.us", backward)
    return {"micro": results, "errors": errors}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run_once(spec) if spec["mode"] == "run" else micro()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["blas"] = blas_facts()
    os.makedirs(spec["out"], exist_ok=True)
    with open(os.path.join(spec["out"], "bench.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
