"""Command-line interface.

Subcommands: `run` (one experiment), `sweep` (hyper-parameter grid for one
method), `gradcheck` (finite-difference gradient audit), and `inspect`
(pretty-print a summary.json). Exit codes: 0 success, 1 usage/config
error, 2 I/O error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .config import SweepSpec, parse_config
from .errors import ConfigError, DataFormatError, NumericalError
from .nn import (
    NetworkSpec,
    finite_difference_max_error,
    forward,
    init_params,
    loss_and_grad,
)
from .rng import RngStream
from .runner import run_experiment, run_sweep, write_outputs, write_sweep_outputs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="plab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", default=None, help="flat key=value config file")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--log-steps", action="store_true")
    run_p.add_argument("overrides", nargs="*", help="key=value config overrides")

    sweep_p = sub.add_parser("sweep", help="hyper-parameter sweep for one method")
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--method", required=True)
    sweep_p.add_argument("--seeds", type=int, default=3, help="seeds per grid cell")
    sweep_p.add_argument("--workers", type=int, default=1)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("overrides", nargs="*")

    sub.add_parser("gradcheck", help="finite-difference audit of the backward pass")

    inspect_p = sub.add_parser("inspect", help="pretty-print a summary.json")
    inspect_p.add_argument("--summary", required=True)
    return parser


def _cmd_run(args) -> int:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"out={args.out}")
    if args.log_steps:
        overrides.append("log_steps=true")
    cfg = parse_config(args.config, overrides)
    record = run_experiment(cfg)
    out_dir = cfg.out or "out"
    write_outputs(record, out_dir)
    print(
        f"{cfg.problem} / {cfg.method} / {cfg.optimizer}: "
        f"total average online accuracy {record.total_avg_online_accuracy:.4f} "
        f"({record.steps_completed} steps) -> {out_dir}"
    )
    if record.incomplete:
        print("run diverged; partial record flagged incomplete")
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_sweep(args) -> int:
    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"out={args.out}")
    cfg = parse_config(args.config, overrides)
    spec = SweepSpec(base=cfg, method=args.method, seeds=tuple(range(args.seeds)))
    result = run_sweep(spec, workers=args.workers)
    out_dir = cfg.out or "out"
    write_sweep_outputs(result, out_dir)
    if result.winner is None:
        print("all sweep cells failed")
        return EXIT_NUMERICAL
    print(f"winner for {args.method}: {result.winner}")
    return EXIT_OK


def _cmd_gradcheck() -> int:
    """Check analytic gradients for both architectures, LN on and off."""
    configs = [
        NetworkSpec(kind="mlp", input_shape=(6,), hidden_widths=(5, 4), num_classes=3),
        NetworkSpec(kind="mlp", input_shape=(6,), hidden_widths=(5, 4), num_classes=3,
                    layer_norm=True),
        NetworkSpec(kind="cnn", input_shape=(2, 16, 16), conv_channels=(3, 3),
                    hidden_widths=(4,), num_classes=3),
        NetworkSpec(kind="cnn", input_shape=(2, 16, 16), conv_channels=(3, 3),
                    hidden_widths=(4,), num_classes=3, layer_norm=True),
    ]
    worst = 0.0
    for spec in configs:
        # seed 101 keeps gradient signal alive in every tensor for these shapes
        sub = RngStream(101).split("instance", spec.kind, int(spec.layer_norm))
        params = init_params(spec, sub.split("params"))
        images = sub.uniform(0.0, 1.0, (6,) + spec.input_shape)
        labels = np.asarray(sub.integers(0, spec.num_classes, 6))
        logits, cache = forward(spec, params, images)
        _, grads = loss_and_grad(spec, params, cache, logits, labels)
        if not all(np.abs(g).max() > 1e-8 for g in grads.values()):
            print(f"{spec.kind}: degenerate draw (a tensor has no gradient signal)")
            return EXIT_NUMERICAL
        err = finite_difference_max_error(spec, params, images, labels)
        worst = max(worst, err)
        label = f"{spec.kind}{'+ln' if spec.layer_norm else '':4}"
        print(f"{label} max relative gradient error: {err:.3e}")
    print(f"overall max relative error: {worst:.3e}")
    return EXIT_OK if worst < 1e-4 else EXIT_NUMERICAL


def _cmd_inspect(args) -> int:
    with open(args.summary) as fh:
        summary = json.load(fh)
    total = summary.get("total_avg_online_accuracy")
    cfg = summary.get("config", {})
    print(f"run summary ({args.summary})")
    print(f"  problem:   {cfg.get('problem')}")
    print(f"  method:    {cfg.get('method')} / {cfg.get('optimizer')} alpha={cfg.get('alpha')}")
    print(f"  seed:      {summary.get('seed')}")
    print(f"  steps:     {summary.get('steps_completed')}"
          + (" (incomplete)" if summary.get("incomplete") else ""))
    print(f"  total average online accuracy: {total}")
    print(f"  wall clock: {summary.get('wall_clock_seconds', 0.0):.1f}s")
    print(f"  version:   {summary.get('version')}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck()
        return _cmd_inspect(args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DataFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
