#!/usr/bin/env python3
"""Full-scale reproduction runs (NOT part of the test suite -- slow).

Runs the method roster on one of the three image-classification problems
at its published scale (e.g. Permuted MNIST: 500 tasks x 625 steps) using
each method's reported optimal hyper-parameters, and writes one output
directory per (method, seed). Expect hours of CPU time per method on the
MNIST problems and much more on CIFAR; the CNN path and the SVD probes are
pure numpy.

Dataset files are never downloaded. Supply decompressed MNIST IDX files
(train-images-idx3-ubyte / train-labels-idx1-ubyte) or a CIFAR-10 binary
batch (data_batch_1.bin).

Usage:
  python3 scripts/reproduce_full_scale.py --problem permuted_mnist \
      --optimizer adam --mnist-images train-images-idx3-ubyte \
      --mnist-labels train-labels-idx1-ubyte --out runs/permuted
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plasticity_lab.config import RunConfig
from plasticity_lab.runner import run_experiment, write_outputs

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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", required=True, choices=list(dict.fromkeys(p for p, _ in OPTIMAL)))
    ap.add_argument("--optimizer", default="adam", choices=["sgd", "adam"])
    ap.add_argument("--methods", nargs="*", default=None,
                    help="subset of methods (default: full roster for the problem)")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--mnist-images")
    ap.add_argument("--mnist-labels")
    ap.add_argument("--cifar-bin")
    ap.add_argument("--out", default="runs")
    args = ap.parse_args()

    roster = OPTIMAL[(args.problem, args.optimizer)]
    methods = args.methods or list(roster)
    for method in methods:
        for seed in range(args.seeds):
            cfg = RunConfig(
                problem=args.problem,
                method=method,
                optimizer=args.optimizer,
                seed=seed,
                mnist_images=args.mnist_images,
                mnist_labels=args.mnist_labels,
                cifar_bin=args.cifar_bin,
                **roster[method],
            )
            out_dir = Path(args.out) / args.problem / args.optimizer / method / f"seed{seed}"
            print(f"running {method} seed {seed} -> {out_dir}", flush=True)
            record = run_experiment(cfg)
            write_outputs(record, str(out_dir))
            flag = " (INCOMPLETE)" if record.incomplete else ""
            print(
                f"  total average online accuracy "
                f"{record.total_avg_online_accuracy:.4f}{flag} "
                f"[{record.wall_clock_seconds:.0f}s]",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
