"""Run configuration: flat key=value files, CLI overrides, problem defaults.

Config files are flat `key = value` lines ('#' starts a comment), and
command-line `key=value` overrides win. They are the only way to set a run
setting: each `RunConfig` field has one key, its own name (`lambda` for
`lam`), parsed by the field's type. Unknown keys and malformed values are
rejected with the offending key and line.
With no overrides, each problem resolves to its row of `PROBLEMS`: full
scale for the image problems, desk scale for the synthetic ones, so the
whole pipeline runs in minutes. `RunConfig` extends `optim.MethodConfig`,
and `RunConfig.validate` is the one check of a parsed config.
`sweep_cells` is the one list of a sweep's grid cells for the base's method.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, NamedTuple, get_args, get_type_hints

from .errors import ConfigError
from .optim import METHODS, MethodConfig


class Problem(NamedTuple):
    """One base dataset under one kind of non-stationarity, at one scale."""

    data: str       # "mnist" | "cifar" (the CNN) | "synthetic"
    transform: str  # "permute" | "relabel"
    dataset_size: int
    num_tasks: int
    steps_per_task: int
    batch_size: int
    hidden_widths: tuple[int, ...]


PROBLEMS: dict[str, Problem] = {
    "permuted_mnist": Problem("mnist", "permute", 10_000, 500, 625, 16, (100, 100)),
    "random_label_mnist": Problem("mnist", "relabel", 1_200, 50, 30_000, 16, (100, 100)),
    # the CNN's dense layer, after its two convs
    "random_label_cifar": Problem("cifar", "relabel", 1_200, 50, 30_000, 16, (10,)),
    # desk scale: 32 samples -> 25 epochs/task; deliberately capacity-starved
    # so plasticity loss shows within 40 tasks
    "synthetic_permuted": Problem("synthetic", "permute", 32, 40, 50, 16, (30, 30)),
    # 300 samples -> 100 epochs/task; wide enough to memorize 300 random
    # labels inside 100 epochs
    "synthetic_random_label": Problem("synthetic", "relabel", 300, 10, 1_900, 16, (100, 100)),
}


@dataclass
class RunConfig(MethodConfig):
    problem: str = "permuted_mnist"
    optimizer: str = "adam"
    alpha: float = 1e-3
    seed: int = 0
    # scale overrides; None means "use the problem default"
    dataset_size: int | None = None
    num_tasks: int | None = None
    steps_per_task: int | None = None
    batch_size: int | None = None
    hidden_widths: tuple[int, ...] | None = None
    probe_size: int = 512
    input_width: int = 64   # synthetic problems only
    classes: int = 10       # synthetic problems only (at most 10); sets the output width
    mnist_images: str | None = None
    mnist_labels: str | None = None
    cifar_bin: str | None = None
    out: str | None = None
    log_steps: bool = False

    def resolved(self) -> "RunConfig":
        """Fill in problem defaults for any unset scale fields."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        row = PROBLEMS[self.problem]
        scale = Problem._fields[2:]  # every field after data and transform
        return replace(self, **{f: getattr(row, f) for f in scale if getattr(self, f) is None})

    def validate(self) -> None:
        """Reject a resolved config that cannot run."""
        for name in ("dataset_size", "num_tasks", "steps_per_task", "batch_size",
                     "probe_size", "input_width", "classes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.classes > 10:  # every Dataset's labels lie in [0, 10)
            raise ConfigError(f"classes must be <= 10, got {self.classes}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 < self.alpha < float("inf"):
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        data = PROBLEMS[self.problem].data
        if any(w <= 0 for w in self.hidden_widths):
            raise ConfigError(f"hidden_widths must be > 0, got {self.hidden_widths}")
        if not self.hidden_widths and data != "cifar":  # the CNN may be conv-only
            raise ConfigError(f"{self.problem} needs at least one hidden width")
        if self.method == "continual_backprop" and data == "cifar":
            raise ConfigError("continual_backprop is not supported on the CNN problem")
        if data == "mnist" and (self.mnist_images is None or self.mnist_labels is None):
            raise ConfigError(f"{self.problem} needs mnist_images and mnist_labels paths")
        if data == "cifar" and self.cifar_bin is None:
            raise ConfigError(f"{self.problem} needs a cifar_bin path")
        for name in ("lam", "shrink", "noise", "replacement_rate"):
            if not 0 <= getattr(self, name) < float("inf"):
                raise ConfigError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0 <= self.utility_decay <= 1:
            raise ConfigError(f"utility_decay must be in [0, 1], got {self.utility_decay}")
        if not self.maturity_threshold >= 0:
            raise ConfigError(f"maturity_threshold must be >= 0, got {self.maturity_threshold}")


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


# the fields whose type alone does not parse them
_PARSERS = {"problem": _choice(PROBLEMS), "method": _choice(METHODS),
            "optimizer": _choice(("sgd", "adam")), "hidden_widths": _parse_widths,
            "log_steps": _parse_bool}
# config key -> (RunConfig field, value parser): each field's name (`lambda` for `lam`), and
# its parser above or else its type (X of `X | None`)
CONFIG_KEYS: dict[str, tuple[str, Any]] = {
    "lambda" if name == "lam" else name: (name, _PARSERS.get(name, (get_args(hint) or (hint,))[0]))
    for name, hint in get_type_hints(RunConfig).items()
}


def _apply(config: RunConfig, key: str, raw: str, where: str, fixed: dict[str, str]) -> RunConfig:
    if key in fixed:
        raise ConfigError(f"{where}: key {key!r} {fixed[key]}")
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    attr, parse = CONFIG_KEYS[key]
    try:
        value = parse(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for key {key!r}: {exc}") from exc
    return replace(config, **{attr: value})


def parse_config(
    path: str | None = None, overrides: list[str] | None = None, fixed: dict[str, str] | None = None
) -> RunConfig:
    """Build a RunConfig from a file and `key=value` overrides; a `fixed` key is an error."""
    config, fixed = RunConfig(), fixed or {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = text.split("=", 1)
            config = _apply(config, key.strip(), raw, f"{path}:{lineno}", fixed)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected 'key=value'")
        key, raw = item.split("=", 1)
        config = _apply(config, key.strip(), raw, f"override {item!r}", fixed)
    return config


# -- hyper-parameter sweep grids --

ALPHA_GRID = {"sgd": (1e-2, 1e-3), "adam": (1e-3, 1e-4)}
# the swept hyper-parameters, in tie-break and sweep.csv column order
GRIDS = {
    "lam": (1e-2, 1e-3, 1e-4, 1e-5),
    "shrink": (1e-2, 1e-3, 1e-4, 1e-5),
    "noise": (1e-2, 1e-3, 1e-4, 1e-5),
    "replacement_rate": (1e-4, 1e-5, 1e-6),
}


def sweep_cells(base: RunConfig) -> list[dict[str, float]]:
    """The grid cells of the base config's method, small-hyper-parameter-first for tie-breaking."""
    if base.method not in METHODS:
        raise ConfigError(f"unknown method {base.method!r}")
    names = METHODS[base.method]
    grids = [sorted(GRIDS[n]) for n in names] + [sorted(ALPHA_GRID[base.optimizer])]
    return [dict(zip((*names, "alpha"), v)) for v in itertools.product(*grids)]
