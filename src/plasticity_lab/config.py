"""Run configuration: flat key=value files, CLI overrides, problem defaults.

Config files are flat `key = value` lines ('#' starts a comment). Unknown
keys and malformed values are rejected with the offending key and line.
With no overrides, each problem resolves to its full-scale defaults
(Permuted MNIST: 10,000 samples, batch 16, 625 steps x 500 tasks; the
random-label problems: 1,200 samples, batch 16, 30,000 steps x 50 tasks);
the synthetic problems default to desk scale so the whole pipeline runs in
minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .errors import ConfigError
from .optim import METHODS, UTILITY_KINDS, MethodConfig

PROBLEMS = (
    "permuted_mnist",
    "random_label_mnist",
    "random_label_cifar",
    "synthetic_permuted",
    "synthetic_random_label",
)

# problem -> (dataset_size, num_tasks, steps_per_task, batch_size)
PROBLEM_DEFAULTS: dict[str, tuple[int, int, int, int]] = {
    "permuted_mnist": (10_000, 500, 625, 16),
    "random_label_mnist": (1_200, 50, 30_000, 16),
    "random_label_cifar": (1_200, 50, 30_000, 16),
    # desk scale: 32 samples -> 25 epochs/task; 300 samples -> 100 epochs/task
    "synthetic_permuted": (32, 40, 50, 16),
    "synthetic_random_label": (300, 10, 1_900, 16),
}

MLP_DEFAULT_HIDDEN = (100, 100)
# the permuted run is deliberately capacity-starved so plasticity loss
# shows within 40 tasks; the random-label run needs enough width to
# memorize 300 random labels inside 100 epochs
DEFAULT_HIDDEN = {
    "random_label_cifar": (10,),  # the CNN's dense layer, after its two convs
    "synthetic_permuted": (30, 30),
    "synthetic_random_label": (100, 100),
}


@dataclass
class RunConfig:
    problem: str = "permuted_mnist"
    method: str = "baseline"
    optimizer: str = "adam"
    alpha: float = 1e-3
    lam: float = 1e-2
    shrink: float = 1e-4
    noise: float = 1e-2
    replacement_rate: float = 1e-4
    maturity_threshold: int = 100
    utility_decay: float = 0.99
    utility_kind: str = "adaptive_contribution"
    seed: int = 0
    # scale overrides; None means "use the problem default"
    dataset_size: int | None = None
    num_tasks: int | None = None
    steps_per_task: int | None = None
    batch_size: int | None = None
    hidden_widths: tuple[int, ...] | None = None
    probe_size: int = 512
    input_width: int = 64   # synthetic problems only
    classes: int = 10       # synthetic problems only; sets the output width
    mnist_images: str | None = None
    mnist_labels: str | None = None
    cifar_bin: str | None = None
    out: str | None = None
    log_steps: bool = False

    def resolved(self) -> "RunConfig":
        """Fill in problem defaults for any unset scale fields."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        n, k, m, b = PROBLEM_DEFAULTS[self.problem]
        hidden = self.hidden_widths
        if hidden is None:
            hidden = DEFAULT_HIDDEN.get(self.problem, MLP_DEFAULT_HIDDEN)
        return replace(
            self,
            dataset_size=self.dataset_size if self.dataset_size is not None else n,
            num_tasks=self.num_tasks if self.num_tasks is not None else k,
            steps_per_task=self.steps_per_task if self.steps_per_task is not None else m,
            batch_size=self.batch_size if self.batch_size is not None else b,
            hidden_widths=hidden,
        )

    def method_config(self) -> MethodConfig:
        return MethodConfig(
            method=self.method,
            lam=self.lam,
            shrink=self.shrink,
            noise=self.noise,
            replacement_rate=self.replacement_rate,
            maturity_threshold=self.maturity_threshold,
            utility_decay=self.utility_decay,
            utility_kind=self.utility_kind,
        )

    def validate(self) -> None:
        """Reject a resolved config that cannot run."""
        for name in ("dataset_size", "num_tasks", "steps_per_task", "batch_size",
                     "probe_size", "input_width", "classes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.method == "continual_backprop" and self.problem == "random_label_cifar":
            raise ConfigError("continual_backprop is not supported on the CNN problem")
        if self.problem == "permuted_mnist" or self.problem == "random_label_mnist":
            if self.mnist_images is None or self.mnist_labels is None:
                raise ConfigError(f"{self.problem} needs mnist_images and mnist_labels paths")
        if self.problem == "random_label_cifar" and self.cifar_bin is None:
            raise ConfigError("random_label_cifar needs a cifar_bin path")


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_widths(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {text!r}")
        return text

    return parse


# config key -> (RunConfig field, value parser)
CONFIG_KEYS: dict[str, tuple[str, Any]] = {
    "problem": ("problem", _choice(PROBLEMS)),
    "method": ("method", _choice(METHODS)),
    "optimizer": ("optimizer", _choice(("sgd", "adam"))),
    "alpha": ("alpha", float),
    "lambda": ("lam", float),
    "shrink": ("shrink", float),
    "noise": ("noise", float),
    "replacement_rate": ("replacement_rate", float),
    "maturity_threshold": ("maturity_threshold", int),
    "utility_decay": ("utility_decay", float),
    "utility_kind": ("utility_kind", _choice(UTILITY_KINDS)),
    "seed": ("seed", int),
    "dataset_size": ("dataset_size", int),
    "num_tasks": ("num_tasks", int),
    "steps_per_task": ("steps_per_task", int),
    "batch_size": ("batch_size", int),
    "hidden_widths": ("hidden_widths", _parse_widths),
    "probe_size": ("probe_size", int),
    "input_width": ("input_width", int),
    "classes": ("classes", int),
    "mnist_images": ("mnist_images", str),
    "mnist_labels": ("mnist_labels", str),
    "cifar_bin": ("cifar_bin", str),
    "out": ("out", str),
    "log_steps": ("log_steps", _parse_bool),
}


def _apply(config: RunConfig, key: str, raw: str, where: str) -> RunConfig:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    attr, parse = CONFIG_KEYS[key]
    try:
        value = parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for key {key!r}: {exc}") from exc
    return replace(config, **{attr: value})


def parse_config(
    path: str | None = None, overrides: list[str] | None = None
) -> RunConfig:
    """Build a RunConfig from an optional file plus `key=value` overrides."""
    config = RunConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = text.split("=", 1)
                config = _apply(config, key.strip(), raw, f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected 'key=value'")
        key, raw = item.split("=", 1)
        config = _apply(config, key.strip(), raw, f"override {item!r}")
    return config


# -- hyper-parameter sweep grids (one list of cells per method) --

ALPHA_GRID = {"sgd": (1e-2, 1e-3), "adam": (1e-3, 1e-4)}
LAMBDA_GRID = (1e-2, 1e-3, 1e-4, 1e-5)
SHRINK_GRID = (1e-2, 1e-3, 1e-4, 1e-5)
NOISE_GRID = (1e-2, 1e-3, 1e-4, 1e-5)
REPLACEMENT_GRID = (1e-4, 1e-5, 1e-6)


@dataclass
class SweepSpec:
    base: RunConfig
    method: str
    seeds: tuple[int, ...] = (0, 1, 2)

    def cells(self) -> list[dict[str, float]]:
        """Grid cells, ordered small-hyper-parameter-first for tie-breaking."""
        alphas = ALPHA_GRID[self.base.optimizer]
        cells: list[dict[str, float]] = []
        if self.method in ("baseline", "layer_norm"):
            axes = [{}]
        elif self.method in ("l2", "l2_init", "l2_init_resample"):
            axes = [{"lam": lam} for lam in sorted(LAMBDA_GRID)]
        elif self.method == "shrink_perturb":
            axes = [
                {"shrink": s, "noise": sig}
                for s in sorted(SHRINK_GRID)
                for sig in sorted(NOISE_GRID)
            ]
        elif self.method == "continual_backprop":
            axes = [{"replacement_rate": r} for r in sorted(REPLACEMENT_GRID)]
        else:
            raise ConfigError(f"unknown method {self.method!r}")
        for cell in axes:
            for alpha in sorted(alphas):
                cells.append({**cell, "alpha": alpha})
        return cells


@dataclass
class SweepResult:
    method: str
    rows: list[dict]            # one per (cell, seed)
    cell_means: list[dict]      # one per cell, with mean metric and status
    winner: dict | None         # best cell's hyper-parameters, or None if all failed
