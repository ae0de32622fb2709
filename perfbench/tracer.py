"""Spans recorded from outside the lab, by wrapping its module functions.

Each span name maps to one function in its home module. The wrapper is
installed in the home module and in every other lab module that holds the
same function object under the same name, so calls that `runner`, `nn`,
`optim` and `metrics` make through their own namespaces are seen. The
wrapper calls the original function, never another wrapper, so a call is
recorded once whichever namespace it went through.

Spans are kept in memory as (name, start, end, parent) rows and written
out once, when the run ends. A span whose function no longer exists is
reported as absent rather than as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time

LAB_MODULES = ("rng", "linalg", "nn", "optim", "problems", "metrics", "runner")

# span name -> (home module, attribute); "Class.method" wraps a method.
SETUP_SPANS = {
    "runner.build_stream": ("runner", "build_stream"),
    "runner.build_network_spec": ("runner", "build_network_spec"),
    "nn.init_params": ("nn", "init_params"),
    "optim.make_optimizer": ("optim", "make_optimizer"),
}
LAYER_SPANS = {
    "problems.next_batch": ("problems", "next_batch"),
    "problems.make_task": ("problems", "make_task"),
    "problems.probe_batch": ("problems", "probe_batch"),
    "problems.load_idx": ("problems", "load_idx"),
    "problems.load_cifar10_bin": ("problems", "load_cifar10_bin"),
    "problems.subsample": ("problems", "subsample"),
    "rng.stream_init": ("rng", "RngStream.__init__"),
    "nn.forward": ("nn", "forward"),
    "nn.loss_and_grad": ("nn", "loss_and_grad"),
    "nn.hidden_feature_matrices": ("nn", "hidden_feature_matrices"),
    "linalg.conv2d": ("linalg", "conv2d"),
    "linalg.conv2d_kernel_gradient": ("linalg", "conv2d_kernel_gradient"),
    "linalg.conv2d_input_gradient": ("linalg", "conv2d_input_gradient"),
    "linalg.maxpool2": ("linalg", "maxpool2"),
    "linalg.maxpool2_backward": ("linalg", "maxpool2_backward"),
    "linalg.singular_values": ("linalg", "singular_values"),
    "optim.apply_method_step": ("optim", "apply_method_step"),
    "optim.adam_step": ("optim", "adam_step"),
    "optim.sgd_step": ("optim", "sgd_step"),
    "optim.regularizer_gradient": ("optim", "regularizer_gradient"),
    "optim.shrink_perturb_apply": ("optim", "shrink_perturb_apply"),
    "optim.cbp_step": ("optim", "cbp_step"),
    "metrics.batch_accuracy": ("metrics", "batch_accuracy"),
    "metrics.mean_param_magnitude": ("metrics", "mean_param_magnitude"),
    "metrics.feature_srank_probe": ("metrics", "feature_srank_probe"),
    "runner.write_outputs": ("runner", "write_outputs"),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span index or -1]
        self.absent: list[str] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [nid, 0.0, 0.0, stack[-1]]
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def install(self, spans: dict[str, tuple[str, str]]) -> None:
        """Wrap every named function that exists; note the ones that do not."""
        modules = {}
        for m in LAB_MODULES:
            try:
                modules[m] = importlib.import_module(f"plasticity_lab.{m}")
            except ImportError:
                pass
        for name, (home, attr) in spans.items():
            if home not in modules:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(modules[home], cls_name, None)
                if cls is None or method not in vars(cls):
                    self.absent.append(name)
                    continue
                setattr(cls, method, self._wrap(name, vars(cls)[method]))
                continue
            original = getattr(modules[home], attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "absent": self.absent}


def durations(trace: dict, names) -> float:
    """Summed wall time of every span whose name is in `names`."""
    wanted = {i for i, n in enumerate(trace["names"]) if n in names}
    return sum(end - start for nid, start, end, _ in trace["spans"] if nid in wanted)
