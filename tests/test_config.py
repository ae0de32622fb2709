import dataclasses
from dataclasses import replace

import pytest

from plasticity_lab.config import CONFIG_KEYS, RunConfig, parse_config, sweep_cells
from plasticity_lab.errors import ConfigError
from plasticity_lab.optim import METHODS


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_empty_config_with_problem_flag_applies_defaults(tmp_path):
    path = write(tmp_path, "")
    cfg = parse_config(path, ["problem=synthetic_permuted"]).resolved()
    assert cfg.problem == "synthetic_permuted"
    assert cfg.method == "baseline"
    assert cfg.num_tasks == 40
    assert cfg.steps_per_task == 50
    assert cfg.batch_size == 16
    assert cfg.hidden_widths == (30, 30)


def test_permuted_mnist_full_scale_defaults():
    cfg = RunConfig(problem="permuted_mnist").resolved()
    assert cfg.dataset_size == 10_000
    assert cfg.num_tasks == 500
    assert cfg.steps_per_task == 625
    assert cfg.batch_size == 16
    assert cfg.hidden_widths == (100, 100)


def test_random_label_full_scale_defaults():
    for problem in ("random_label_mnist", "random_label_cifar"):
        cfg = RunConfig(problem=problem).resolved()
        assert cfg.dataset_size == 1_200
        assert cfg.num_tasks == 50
        assert cfg.steps_per_task == 30_000
        assert cfg.batch_size == 16


def test_bad_value_names_key_and_line(tmp_path):
    path = write(tmp_path, "problem = synthetic_permuted\nlambda = banana\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*lambda"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "stepsize = 3\n")
    with pytest.raises(ConfigError, match="stepsize"):
        parse_config(path)
    # continual backprop has one utility, with a fixed decay, so their old keys are gone
    for key, value in (("utility_kind", "contribution"), ("utility_decay", "0.5")):
        path = write(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(None, [f"{key}={value}"])


def test_non_utf8_file_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfeproblem = synthetic_permuted\n")
    with pytest.raises(ConfigError, match=r"run\.cfg: not UTF-8 text"):
        parse_config(str(path))


@pytest.mark.parametrize("text, value", [("true", True), ("1", True), ("yes", True),
                                         ("false", False), ("0", False), ("no", False)])
def test_log_steps_parses_booleans(text, value):
    assert parse_config(None, [f"log_steps={text}"]).log_steps is value


def test_log_steps_rejects_a_non_boolean():
    with pytest.raises(ConfigError, match="log_steps.*not a boolean: 'maybe'"):
        parse_config(None, ["log_steps=maybe"])


def test_comments_and_blank_lines_ignored(tmp_path):
    path = write(tmp_path, "# a comment\n\nseed = 5  # trailing\n")
    assert parse_config(path).seed == 5


def test_overrides_beat_file_values(tmp_path):
    path = write(tmp_path, "alpha = 0.1\nseed = 1\n")
    cfg = parse_config(path, ["alpha=0.001"])
    assert cfg.alpha == 0.001
    assert cfg.seed == 1


def test_hidden_widths_parse(tmp_path):
    path = write(tmp_path, "hidden_widths = 30,30\n")
    assert parse_config(path).hidden_widths == (30, 30)


def test_malformed_line_rejected(tmp_path):
    path = write(tmp_path, "just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_bad_override_format():
    with pytest.raises(ConfigError):
        parse_config(None, ["alpha"])


def test_unknown_choices_rejected():
    with pytest.raises(ConfigError, match="problem"):
        parse_config(None, ["problem=mnist"])
    with pytest.raises(ConfigError, match="method"):
        parse_config(None, ["method=dropout"])


def test_the_optimizer_key_names_each_optimizer():
    with pytest.raises(ConfigError, match="expected one of sgd, adam; got 'rmsprop'"):
        parse_config(None, ["optimizer=rmsprop"])


def test_validate_requires_dataset_paths():
    with pytest.raises(ConfigError, match="mnist_images"):
        RunConfig(problem="permuted_mnist").resolved().validate()
    with pytest.raises(ConfigError, match="cifar_bin"):
        RunConfig(problem="random_label_cifar").resolved().validate()


def test_validate_rejects_cbp_on_cnn_problem():
    cfg = RunConfig(problem="random_label_cifar", method="continual_backprop", cifar_bin="x")
    with pytest.raises(ConfigError, match="continual_backprop"):
        cfg.resolved().validate()


def test_validate_checks_the_method_fields_in_order():
    cfg = RunConfig(problem="synthetic_permuted", lam=-1.0, maturity_threshold=-1).resolved()
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert str(exc.value) == "lam must be >= 0 and finite, got -1.0"
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(cfg, lam=0.0).validate()
    assert str(exc.value) == "maturity_threshold must be >= 0, got -1"


def test_run_config_fields_and_defaults_are_pinned():
    # summary.json echoes these, key-sorted, under "config"; the first six are MethodConfig's
    assert dataclasses.asdict(RunConfig()) == {
        "method": "baseline", "lam": 1e-2, "shrink": 1e-4, "noise": 1e-2,
        "replacement_rate": 1e-4, "maturity_threshold": 100,
        "problem": "permuted_mnist", "optimizer": "adam", "alpha": 1e-3, "seed": 0,
        "dataset_size": None, "num_tasks": None, "steps_per_task": None, "batch_size": 16,
        "hidden_widths": None, "probe_size": 512, "input_width": 64, "classes": 10,
        "mnist_images": None, "mnist_labels": None, "cifar_bin": None, "out": None,
        "log_steps": False,
    }


def test_lambda_key_maps_to_lam_field():
    assert parse_config(None, ["lambda=0.5"]).lam == 0.5


# a value for every RunConfig field, none of them its default
NON_DEFAULT = dict(
    method="l2_init", lam=0.5, shrink=0.25, noise=0.125, replacement_rate=1e-3,
    maturity_threshold=7, problem="synthetic_permuted", optimizer="sgd",
    alpha=0.25, seed=9, dataset_size=33, num_tasks=4, steps_per_task=5, batch_size=6,
    hidden_widths=(7, 8), probe_size=9, input_width=10, classes=3, mnist_images="i.idx",
    mnist_labels="l.idx", cifar_bin="b.bin", out="o", log_steps=True,
)


def test_every_run_config_field_round_trips_through_one_key():
    names = [field.name for field in dataclasses.fields(RunConfig)]
    assert sorted(field for field, _ in CONFIG_KEYS.values()) == sorted(names)  # one key each
    assert [key for key in CONFIG_KEYS if key not in names] == ["lambda"]
    defaults = dataclasses.asdict(RunConfig())
    assert sorted(NON_DEFAULT) == sorted(names)
    assert all(NON_DEFAULT[name] != defaults[name] for name in names)

    def text(value):
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    overrides = [f"{key}={text(NON_DEFAULT[field])}" for key, (field, _) in CONFIG_KEYS.items()]
    assert parse_config(None, overrides) == RunConfig(**NON_DEFAULT)
    with pytest.raises(ConfigError, match="unknown key 'lam'"):
        parse_config(None, ["lam=0.5"])


# --- sweep grids ---------------------------------------------------------

def test_grid_matches_published_sweeps():
    base_sgd = RunConfig(problem="synthetic_permuted", optimizer="sgd")
    base_adam = RunConfig(problem="synthetic_permuted", optimizer="adam")

    cells = sweep_cells(replace(base_adam, method="l2_init"))
    assert len(cells) == 8  # 4 lambdas x 2 alphas
    assert {c["alpha"] for c in cells} == {1e-3, 1e-4}
    assert {c["lam"] for c in cells} == {1e-2, 1e-3, 1e-4, 1e-5}

    cells = sweep_cells(replace(base_sgd, method="shrink_perturb"))
    assert len(cells) == 32  # 4 shrink x 4 noise x 2 alphas
    assert {c["alpha"] for c in cells} == {1e-2, 1e-3}

    cells = sweep_cells(replace(base_sgd, method="continual_backprop"))
    assert {c["replacement_rate"] for c in cells} == {1e-4, 1e-5, 1e-6}

    assert len(sweep_cells(replace(base_adam, method="baseline"))) == 2
    assert len(sweep_cells(replace(base_adam, method="layer_norm"))) == 2


# each method's swept axes, smallest value first; every cell then takes each alpha
SMALL_FIRST = (1e-5, 1e-4, 1e-3, 1e-2)
PINNED_AXES = {
    "baseline": [[]],
    "layer_norm": [[]],
    "l2": [[("lam", v)] for v in SMALL_FIRST],
    "l2_init": [[("lam", v)] for v in SMALL_FIRST],
    "l2_init_resample": [[("lam", v)] for v in SMALL_FIRST],
    "shrink_perturb": [[("shrink", s), ("noise", n)] for s in SMALL_FIRST for n in SMALL_FIRST],
    "continual_backprop": [[("replacement_rate", r)] for r in (1e-6, 1e-5, 1e-4)],
}


@pytest.mark.parametrize("optimizer, alphas", [("sgd", (1e-3, 1e-2)), ("adam", (1e-4, 1e-3))],
                         ids=("sgd", "adam"))
@pytest.mark.parametrize("method", sorted(PINNED_AXES))
def test_sweep_cells_are_pinned_in_order(method, optimizer, alphas):
    # the order fixes the rows of sweep.csv; key order fixes the printed winner
    base = RunConfig(problem="synthetic_permuted", optimizer=optimizer, method=method)
    cells = sweep_cells(base)
    expected = [axis + [("alpha", a)] for axis in PINNED_AXES[method] for a in alphas]
    assert [list(cell.items()) for cell in cells] == expected
    assert set(PINNED_AXES) == set(METHODS)

