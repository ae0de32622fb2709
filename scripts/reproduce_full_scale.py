#!/usr/bin/env python3
r"""Full-scale reproduction runs (NOT part of the test suite -- slow).

Runs the method roster on one of the three image-classification problems
at its published scale (e.g. Permuted MNIST: 500 tasks x 625 steps) using
each method's reported optimal hyper-parameters, and writes one output
directory per (method, seed). Expect hours of CPU time per method on the
MNIST problems and much more on CIFAR; the CNN path and the SVD probes are
pure numpy.

Dataset files are never downloaded. Supply decompressed MNIST IDX files
(train-images-idx3-ubyte / train-labels-idx1-ubyte) or a CIFAR-10 binary
batch (data_batch_1.bin).

Every run setting is a config key, from `--config FILE` and `key=value`
arguments, as for `plab run`: `problem` and `optimizer` pick the roster
(default permuted_mnist / adam), and `out` names the output root (default
`runs`). Each run then takes its method and its seed from the roster
(`--methods`, `--seeds`), so a `method` or `seed` key is a config error,
and that method's optimal hyper-parameters over any keys given for them.
Every job is checked before the first one runs; so is the roster
(`--seeds` at least 1; `--methods`, if given, names at least one method
and none twice). As with `plab run`, a config or argument error prints
one `error:` line and exits 1, and unreadable data or an unwritable `out`
(a run makes its directory before its first step) one `i/o error:` line
and exits 2; the script exits 3 if any run diverged.

Usage (key=value arguments may come before or after `--config` and
`--seeds`, but not after `--methods`, which takes every argument after it):
  python3 scripts/reproduce_full_scale.py --seeds 3 problem=permuted_mnist \
      optimizer=adam mnist_images=train-images-idx3-ubyte \
      mnist_labels=train-labels-idx1-ubyte out=runs/permuted
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plasticity_lab.cli import EXIT_NUMERICAL, EXIT_OK, Parser, run
from plasticity_lab.config import RunConfig, parse_config
from plasticity_lab.errors import ConfigError
from plasticity_lab.runner import run_experiment, write_outputs

# the keys the roster sets for each run, and what to give instead
ROSTER_KEYS = {"method": "is set per run by the roster; name methods with --methods",
               "seed": "is set per run by the roster; give the seed count with --seeds"}

# reported optimal hyper-parameters, keyed by (problem, optimizer, method)
OPTIMAL = {
    ("permuted_mnist", "sgd"): {
        "baseline": dict(alpha=1e-2),
        "layer_norm": dict(alpha=1e-2),
        "l2_init": dict(alpha=1e-2, lam=1e-2),
        "l2": dict(alpha=1e-2, lam=1e-2),
        "shrink_perturb": dict(alpha=1e-2, shrink=1e-4, noise=1e-2),
        "continual_backprop": dict(alpha=1e-2, replacement_rate=1e-4),
    },
    ("permuted_mnist", "adam"): {
        "baseline": dict(alpha=1e-4),
        "layer_norm": dict(alpha=1e-3),
        "l2_init": dict(alpha=1e-3, lam=1e-2),
        "l2": dict(alpha=1e-3, lam=1e-2),
        "shrink_perturb": dict(alpha=1e-3, shrink=1e-3, noise=1e-2),
        "continual_backprop": dict(alpha=1e-3, replacement_rate=1e-4),
    },
    ("random_label_mnist", "sgd"): {
        "baseline": dict(alpha=1e-3),
        "layer_norm": dict(alpha=1e-3),
        "l2_init": dict(alpha=1e-2, lam=1e-2),
        "l2": dict(alpha=1e-2, lam=1e-2),
        "shrink_perturb": dict(alpha=1e-2, shrink=1e-4, noise=1e-2),
        "continual_backprop": dict(alpha=1e-2, replacement_rate=1e-4),
    },
    ("random_label_mnist", "adam"): {
        "baseline": dict(alpha=1e-4),
        "layer_norm": dict(alpha=1e-4),
        "l2_init": dict(alpha=1e-4, lam=1e-2),
        "l2": dict(alpha=1e-4, lam=1e-2),
        "shrink_perturb": dict(alpha=1e-4, shrink=1e-4, noise=1e-2),
        "continual_backprop": dict(alpha=1e-3, replacement_rate=1e-4),
    },
    ("random_label_cifar", "sgd"): {
        "baseline": dict(alpha=1e-2),
        "layer_norm": dict(alpha=1e-2),
        "l2_init": dict(alpha=1e-2, lam=1e-2),
        "l2": dict(alpha=1e-2, lam=1e-2),
        "shrink_perturb": dict(alpha=1e-2, shrink=1e-4, noise=1e-2),
    },
    ("random_label_cifar", "adam"): {
        "baseline": dict(alpha=1e-3),
        "layer_norm": dict(alpha=1e-3),
        "l2_init": dict(alpha=1e-3, lam=1e-2),
        "l2": dict(alpha=1e-4, lam=1e-2),
        "shrink_perturb": dict(alpha=1e-3, shrink=1e-4, noise=1e-2),
    },
}


def _jobs(args) -> list[RunConfig]:
    """The config of every run, its output directory as `out`, each checked as `plab run` does."""
    base = parse_config(args.config, args.overrides, fixed=ROSTER_KEYS)
    if (base.problem, base.optimizer) not in OPTIMAL:
        raise ConfigError(f"no reported optima for {base.problem} / {base.optimizer}")
    roster = OPTIMAL[(base.problem, base.optimizer)]
    if args.seeds < 1:
        raise ConfigError(f"the roster needs at least 1 seed, got --seeds {args.seeds}")
    if args.methods == []:  # a bare `--methods` is a mistake, not a request for all
        raise ConfigError("--methods names no method")
    root = Path(base.out or "runs") / base.problem / base.optimizer
    jobs = []
    methods = list(roster) if args.methods is None else args.methods
    for i, method in enumerate(methods):
        if method not in roster:
            raise ConfigError(f"no reported optima for {method!r} on "
                              f"{base.problem} / {base.optimizer}")
        if method in methods[:i]:  # its runs would share one output directory
            raise ConfigError(f"--methods names {method!r} twice")
        for seed in range(args.seeds):
            out = str(root / method / f"seed{seed}")
            cfg = replace(base, method=method, seed=seed, out=out, **roster[method])
            cfg.resolved().validate()
            jobs.append(cfg)
    return jobs


def _run_roster(args) -> int:
    """Run and write every job in turn; exit 3 if any diverged."""
    incomplete = False
    jobs = _jobs(args)
    for j, cfg in enumerate(jobs, 1):
        print(f"[{j}/{len(jobs)}] running {cfg.method} seed {cfg.seed} -> {cfg.out}", flush=True)
        record = run_experiment(cfg)
        write_outputs(record, cfg.out)
        incomplete |= record.incomplete
        flag = " (INCOMPLETE)" if record.incomplete else ""
        print(
            f"  total average online accuracy "
            f"{record.total_avg_online_accuracy:.4f}{flag} "
            f"[{record.wall_clock_seconds:.0f}s]",
            flush=True,
        )
    return EXIT_NUMERICAL if incomplete else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # plab's parser: `--seed 3` is not `--seeds 3`, and an argument error is a ConfigError
    ap = Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", default=None, help="flat key=value config file")
    ap.add_argument("--methods", nargs="*", default=None,
                    help="subset of methods (default: full roster for the problem)")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("overrides", nargs="*", help="key=value config overrides")
    return run(ap, _run_roster, argv)


if __name__ == "__main__":
    sys.exit(main())
