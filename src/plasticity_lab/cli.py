"""Command-line interface.

Subcommands: `run` (one experiment), `sweep` (hyper-parameter grid for the
config's method), `gradcheck` (finite-difference gradient audit), and
`inspect` (pretty-print a summary.json). Every run setting, the method,
seed and output directory (`out`, "out" if unset) included, is a `key=value`
config key (see `config`); the flags are only those that are not:
`--config`, and a sweep's `--seeds` and `--workers`. A sweep sets each
cell's seed (0 to N-1 of `--seeds N`), so a `seed` key there is a config
error. Exit codes: 0 success, 1 usage/config error (a run too large to
allocate included), 2 I/O error (an `out` that cannot be made fails before
step 0), 3 numerical failure. A sweep with no successful cell exits with
the code of its earliest-stage failure: 1 if any cell had a config error,
else 2 if any had an I/O error, else 3 (a cell diverged).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

import numpy as np

from .config import parse_config
from .errors import ConfigError, DataFormatError
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
SWEEP_EXIT = {"config": EXIT_USAGE, "io": EXIT_IO}  # by failed-row cause; else numerical


class Parser(argparse.ArgumentParser):  # plab's, and the full-scale script's
    def __init__(self, *args, **kwargs):  # no prefixes: `sweep --seed 3` is not `--seeds 3`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); a usage error is a config error, exit 1
        raise ConfigError(message)


def _build_parser() -> Parser:
    parser = Parser(prog="plab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", default=None, help="flat key=value config file")
    run_p.add_argument("overrides", nargs="*", help="key=value config overrides")

    sweep_p = sub.add_parser("sweep", help="hyper-parameter sweep for the config's method")
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--seeds", type=int, default=3, help="seeds per grid cell")
    sweep_p.add_argument("--workers", type=int, default=1)
    sweep_p.add_argument("overrides", nargs="*")

    sub.add_parser("gradcheck", help="finite-difference audit of the backward pass")

    inspect_p = sub.add_parser("inspect", help="pretty-print a summary.json")
    inspect_p.add_argument("--summary", required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    cfg = replace(cfg, out=cfg.out or "out")  # made by run_experiment before step 0
    record = run_experiment(cfg)
    write_outputs(record, cfg.out)
    print(
        f"{cfg.problem} / {cfg.method} / {cfg.optimizer}: "
        f"total average online accuracy {record.total_avg_online_accuracy:.4f} "
        f"({record.steps_completed} steps) -> {cfg.out}"
    )
    if record.incomplete:
        print("run diverged; partial record flagged incomplete")
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config, args.overrides, fixed={
        "seed": "is set per cell by the sweep; give the seed count with --seeds"})
    cfg = replace(cfg, out=cfg.out or "out")  # each cell's run makes it before its step 0
    rows, summary = run_sweep(cfg, args.seeds, workers=args.workers)
    write_sweep_outputs(rows, summary, cfg.out)
    if summary["winner"] is None:
        errors = sorted({row["error"] for row in rows if "error" in row})
        print("all sweep cells failed", *errors, sep="\n  ")
        return min(SWEEP_EXIT.get(row.get("cause"), EXIT_NUMERICAL)
                   for row in rows if row["status"] != "ok")
    print(f"winner for {cfg.method}: {summary['winner']}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    """Check analytic gradients for both architectures, LN on and off."""
    mlp = dict(kind="mlp", input_shape=(6,), hidden_widths=(5, 4))
    cnn = dict(kind="cnn", input_shape=(2, 16, 16), conv_channels=(3, 3), hidden_widths=(4,))
    configs = [NetworkSpec(**net, num_classes=3, layer_norm=ln)
               for net in (mlp, cnn) for ln in (False, True)]
    worst = 0.0
    for spec in configs:
        # seed 101 keeps gradient signal alive in every tensor for these shapes
        sub = RngStream(101).split("instance", spec.kind, int(spec.layer_norm))
        params = init_params(spec, sub.split("params"))
        images = sub.uniform(0.0, 1.0, (6,) + spec.input_shape)
        labels = np.asarray(sub.integers(0, spec.num_classes, 6))
        logits, cache = forward(spec, params, images)
        _, grad = loss_and_grad(spec, params, cache, logits, labels)
        if not all(np.abs(g).max() > 1e-8 for g in params.named(grad).values()):
            print(f"{spec.kind}: degenerate draw (a tensor has no gradient signal)")
            return EXIT_NUMERICAL
        # the gate ignores differences at roundoff level; the unfloored figure shows the margin
        err, raw = finite_difference_max_error(spec, params, images, labels)
        worst = max(worst, err)
        label = f"{spec.kind}{'+ln' if spec.layer_norm else '':4}"
        print(f"{label} max relative gradient error: {err:.3e} (unfloored {raw:.3e})")
    print(f"overall max relative error: {worst:.3e}")
    return EXIT_OK if worst < 1e-4 else EXIT_NUMERICAL


def _cmd_inspect(args) -> int:
    try:
        with open(args.summary) as fh:
            summary = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DataFormatError(f"{args.summary}: not a JSON summary: {exc}") from exc
    if not isinstance(summary, dict) or not isinstance(summary.get("config", {}), dict):
        raise DataFormatError(f"{args.summary}: not a run summary (a JSON object)")
    wall = summary.get("wall_clock_seconds", 0.0)
    if not isinstance(wall, (int, float)):
        raise DataFormatError(f"{args.summary}: wall_clock_seconds is not a number: {wall!r}")
    total = summary.get("total_avg_online_accuracy")
    cfg = summary.get("config", {})
    print(f"run summary ({args.summary})")
    print(f"  problem:   {cfg.get('problem')}")
    print(f"  method:    {cfg.get('method')} / {cfg.get('optimizer')} alpha={cfg.get('alpha')}")
    print(f"  seed:      {summary.get('seed')}")
    print(f"  steps:     {summary.get('steps_completed')}"
          + (" (incomplete)" if summary.get("incomplete") else ""))
    print(f"  total average online accuracy: {total}")
    print(f"  wall clock: {wall:.1f}s")
    print(f"  version:   {summary.get('version')}")
    return EXIT_OK


def run(parser: Parser, command, argv: list[str] | None = None) -> int:
    """plab's and the full-scale script's front end: `command(args)` of argv, key=values after a
    flag among the overrides, INFO logged to stderr; a ConfigError is one `error:` line and
    exit 1, an OSError or DataFormatError one `i/o error:` line and exit 2."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args, extra = parser.parse_known_args(argv)  # key=values after a flag land in `extra`
        if extra and ("overrides" not in args or any(arg.startswith("-") for arg in extra)):
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
        args.overrides = getattr(args, "overrides", []) + extra
        return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DataFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv: list[str] | None = None) -> int:
    commands = {"run": _cmd_run, "sweep": _cmd_sweep, "gradcheck": _cmd_gradcheck,
                "inspect": _cmd_inspect}
    return run(_build_parser(), lambda args: commands[args.command](args), argv)


if __name__ == "__main__":
    sys.exit(main())
