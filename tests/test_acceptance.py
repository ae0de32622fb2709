"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines stream. The desk-scale trend criteria (6-9) retrain small networks
for real, so the whole module takes a few minutes of CPU.
"""

import numpy as np
import pytest

from conftest import (
    in_file_order,
    random_instance,
    scaled_rows,
    tiny_cnn_spec,
    tiny_mlp_spec,
    write_cifar10_bin,
)
from plasticity_lab.config import RunConfig, parse_config
from plasticity_lab.metrics import srank
from plasticity_lab.nn import ParameterSet, finite_difference_max_error
from plasticity_lab.optim import MethodConfig, adam_step, apply_method_step, make_optimizer
from plasticity_lab.problems import Dataset, load_cifar10_bin, load_idx
from plasticity_lab.rng import RngStream
from plasticity_lab.runner import run_experiment, run_jobs, write_outputs


def report(criterion: int, description: str, ok: bool):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


# --- shared desk-scale runs (criteria 7, 8, 9) ------------------------------

CONCEPT_METHODS = ("baseline", "l2_init", "l2", "l2_init_resample")
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def concept_runs():
    """Concept-shift desk runs: 300 random-label samples, 100 epochs/task, K=10.

    The 12 runs are independent, so two worker processes share them
    (`run_jobs`); each run's bytes depend only on its (config, seed).
    """
    keys = [(method, seed) for method in CONCEPT_METHODS for seed in SEEDS]
    cfgs = [
        RunConfig(
            problem="synthetic_random_label", method=method, lam=1e-2,
            optimizer="adam", alpha=1e-3, seed=seed, log_steps=True,
        )
        for method, seed in keys
    ]
    records = run_jobs(run_experiment, cfgs, workers=2)
    out = {}
    for key, cfg, rec in zip(keys, cfgs, records):
        steps_per_task = cfg.resolved().steps_per_task
        batches_per_epoch = 19  # ceil(300 / 16)
        out[key] = {
            "task_accs": np.array([r.avg_online_task_accuracy for r in rec.task_rows]),
            "final_wmag": rec.task_rows[-1].weight_magnitude,
            "final_srank": rec.task_rows[-1].feature_srank,
            "task1_final_epoch": float(
                rec.per_step_accuracy[steps_per_task - batches_per_epoch : steps_per_task].mean()
            ),
        }
    return out


def seed_mean(runs, method, fn):
    return float(np.mean([fn(runs[(method, s)]) for s in SEEDS]))


# --- criterion 1: gradient correctness ----------------------------------------

def test_criterion_1_gradient_correctness():
    from plasticity_lab.nn import forward, loss_and_grad

    specs = [tiny_mlp_spec(False), tiny_mlp_spec(True), tiny_cnn_spec(False), tiny_cnn_spec(True)]
    worst = 0.0
    draws = 0
    for spec in specs:
        for seed in range(101, 106):
            params, images, labels = random_instance(spec, seed=seed, batch=6)
            # non-vacuity: every tensor must carry gradient signal on this draw
            logits, cache = forward(spec, params, images)
            _, grad = loss_and_grad(spec, params, cache, logits, labels)
            tensors = params.named(grad).values()
            assert all(np.abs(g).max() > 1e-8 for g in tensors), (spec.kind, seed)
            worst = max(worst, finite_difference_max_error(spec, params, images, labels)[0])
            draws += 1
    assert draws == 20
    report(1, f"analytic vs central differences, 20 draws, max rel err {worst:.2e} < 1e-4",
           worst < 1e-4)


# --- criterion 2: one-step SGD + init-anchored regularization identity ---------

def test_criterion_2_sgd_regularizer_identity():
    worst = 0.0
    rng = RngStream(2024)
    for _ in range(1000):
        theta, theta0, g = (float(rng.uniform(-3, 3)) for _ in range(3))
        alpha = float(rng.uniform(1e-4, 0.2))
        lam = float(rng.uniform(0.0, 0.5))
        ps = ParameterSet({"w0": np.array([theta0])}, {"w0": ("uniform", 1.0)})
        ps.values["w0"][...] = theta
        opt = make_optimizer("sgd", alpha, ps)
        apply_method_step(MethodConfig(method="l2_init", lam=lam), opt, ps, np.array([g]),
                          rng=RngStream(0))
        closed = (1 - 2 * alpha * lam) * theta + 2 * alpha * lam * theta0 - alpha * g
        worst = max(worst, abs(float(ps.values["w0"][0]) - closed))

    from plasticity_lab.nn import forward, loss_and_grad

    for seed in range(10):
        spec = tiny_mlp_spec()
        params, images, labels = random_instance(spec, seed=200 + seed)
        logits, cache = forward(spec, params, images)
        _, grad = loss_and_grad(spec, params, cache, logits, labels)
        grads = params.named(grad.copy())  # the update consumes the row
        alpha, lam = 0.07, 0.013
        before = {k: v.copy() for k, v in params.values.items()}
        opt = make_optimizer("sgd", alpha, params)
        apply_method_step(MethodConfig(method="l2_init", lam=lam), opt, params, grad,
                          rng=RngStream(0))
        initial = params.named(params.flat0)
        for k in before:
            closed = ((1 - 2 * alpha * lam) * before[k]
                      + 2 * alpha * lam * initial[k] - alpha * grads[k])
            worst = max(worst, float(np.max(np.abs(params.values[k] - closed))))
    report(2, f"theta' = (1-2al)theta + 2al theta0 - a g, worst |diff| {worst:.2e} <= 1e-12",
           worst <= 1e-12)


# --- criterion 3: reduction identities -----------------------------------------

def test_criterion_3_reductions_are_bitwise(tmp_path):
    desk = dict(problem="synthetic_permuted", num_tasks=5, steps_per_task=30, seed=3)
    reductions = {
        "l2_init(lam=0)": RunConfig(method="l2_init", lam=0.0, **desk),
        "shrink_perturb(s=sigma=0)": RunConfig(method="shrink_perturb", shrink=0.0,
                                               noise=0.0, **desk),
        "continual_backprop(r=0)": RunConfig(method="continual_backprop",
                                              replacement_rate=0.0, **desk),
    }
    write_outputs(run_experiment(RunConfig(method="baseline", **desk)), tmp_path / "base")
    baseline_bytes = (tmp_path / "base/task_metrics.csv").read_bytes()
    ok = True
    for name, cfg in reductions.items():
        write_outputs(run_experiment(cfg), tmp_path / name)
        same = (tmp_path / name / "task_metrics.csv").read_bytes() == baseline_bytes
        ok = ok and same
    report(3, "lam=0 / s=sigma=0 / r=0 trajectories byte-identical to baseline", ok)


# --- criterion 4: srank oracle ---------------------------------------------------

def test_criterion_4_srank_oracle():
    def scan_oracle(s, delta=0.01):
        total, running = sum(s), 0.0
        for k, v in enumerate(s, start=1):
            running += v
            if running / total >= 1 - delta:
                return k
        return len(s)

    ok = srank(np.array([10.0, 1.0, 0.01])) == 2 == scan_oracle([10.0, 1.0, 0.01])
    ok = ok and srank(np.ones(100)) == 99 == scan_oracle([1.0] * 100)
    rng = RngStream(4)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        s = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        if s.sum() == 0:
            continue
        scale = float(rng.uniform(1e-6, 1e6))
        ok = ok and srank(s) == srank(s * scale) == scan_oracle(list(s))
    report(4, "srank([10,1,0.01])=2, srank(1_100)=99, scale-invariant over 1000 spectra", ok)


# --- criterion 5: Adam oracle ------------------------------------------------------

def test_criterion_5_adam_oracle():
    q = np.array([1.0, 4.0, 0.25, 2.0])
    c = np.array([0.3, -1.0, 2.0, 0.0])
    theta = np.array([1.0, 1.0, -1.0, 3.0])
    ps = ParameterSet({"w0": theta.copy()}, {"w0": ("uniform", 1.0)})
    state = make_optimizer("adam", 1e-3, ps)

    # independent reference, written directly from the update equations
    ref_theta, m, v = theta.copy(), np.zeros(4), np.zeros(4)
    worst = 0.0
    for t in range(1, 11):
        grad = q * (ps.values["w0"] - c)
        adam_step(state, ps, grad)
        ref_grad = q * (ref_theta - c)
        m = 0.9 * m + 0.1 * ref_grad
        v = 0.999 * v + 0.001 * ref_grad**2
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref_theta = ref_theta - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        worst = max(worst, float(np.max(np.abs(ps.values["w0"] - ref_theta))))
    report(5, f"10-step Adam trajectory vs independent reference, worst |diff| {worst:.2e}",
           worst <= 1e-12)


# --- criterion 6: desk-scale input-shift trend --------------------------------------

# 3-seed mean drops frozen from the first implementation run (this platform;
# a different BLAS can shift them, the directional assertions are portable)
PINNED_BASELINE_DROP = -0.042791666666666672
PINNED_L2INIT_DROP = -0.0014583333333333115


def test_criterion_6_input_shift_trend():
    drops = {"baseline": [], "l2_init": []}
    for seed in SEEDS:
        for method, lam in (("baseline", 0.0), ("l2_init", 1e-2)):
            cfg = RunConfig(problem="synthetic_permuted", method=method, lam=lam,
                            optimizer="adam", alpha=1e-3, seed=seed)
            rec = run_experiment(cfg)
            accs = np.array([r.avg_online_task_accuracy for r in rec.task_rows])
            drops[method].append(accs[30:40].mean() - accs[0:10].mean())
    base = float(np.mean(drops["baseline"]))
    l2i = float(np.mean(drops["l2_init"]))
    directional = base < 0 and l2i > base and l2i >= -0.02
    report(6, f"late-minus-early accuracy: baseline {base:+.4f} < 0, "
              f"init-anchored {l2i:+.4f} (> baseline, >= -0.02)", directional)
    assert np.isclose(base, PINNED_BASELINE_DROP, rtol=1e-6, atol=1e-9), "pinned regression"
    assert np.isclose(l2i, PINNED_L2INIT_DROP, rtol=1e-6, atol=1e-9), "pinned regression"


# --- criterion 7: desk-scale concept-shift trend --------------------------------------

def test_criterion_7_concept_shift_trend(concept_runs):
    memorized = seed_mean(concept_runs, "baseline", lambda r: r["task1_final_epoch"])
    base_first = seed_mean(concept_runs, "baseline", lambda r: r["task_accs"][0])
    base_last = seed_mean(concept_runs, "baseline", lambda r: r["task_accs"][9])
    l2i_last = seed_mean(concept_runs, "l2_init", lambda r: r["task_accs"][9])
    ok = memorized > 0.9 and base_last < base_first and l2i_last > base_last
    report(7, f"task-1 memorization {memorized:.3f} > 0.9; baseline task10 {base_last:.3f} "
              f"< task1 {base_first:.3f}; init-anchored task10 {l2i_last:.3f} > baseline",
           ok)


# --- criterion 8: diagnostics directions ----------------------------------------------

def test_criterion_8_diagnostics_directions(concept_runs):
    wmag = {m: seed_mean(concept_runs, m, lambda r: r["final_wmag"])
            for m in ("baseline", "l2_init", "l2")}
    rank = {m: seed_mean(concept_runs, m, lambda r: r["final_srank"])
            for m in ("l2_init", "l2")}
    ok = (wmag["baseline"] > wmag["l2_init"] and wmag["baseline"] > wmag["l2"]
          and rank["l2_init"] > rank["l2"])
    report(8, f"final |theta|: baseline {wmag['baseline']:.4f} > init-anchored "
              f"{wmag['l2_init']:.4f}, > origin-anchored {wmag['l2']:.4f}; "
              f"final srank: {rank['l2_init']:.1f} > {rank['l2']:.1f}", ok)


# --- criterion 9: resampled-anchor ablation --------------------------------------------

def test_criterion_9_resample_ablation(concept_runs):
    fixed = seed_mean(concept_runs, "l2_init", lambda r: r["task_accs"][-3:].mean())
    resampled = seed_mean(concept_runs, "l2_init_resample", lambda r: r["task_accs"][-3:].mean())
    report(9, f"final-3-task accuracy: fixed anchor {fixed:.3f} >= resampled {resampled:.3f}",
           fixed >= resampled)


# --- criterion 10: determinism and formats ----------------------------------------------

def test_criterion_10_determinism_and_formats(tmp_path):
    cfg = RunConfig(problem="synthetic_permuted", num_tasks=3, steps_per_task=10, seed=9)
    write_outputs(run_experiment(cfg), tmp_path / "r1")
    write_outputs(run_experiment(cfg), tmp_path / "r2")
    deterministic = (tmp_path / "r1/task_metrics.csv").read_bytes() == (
        tmp_path / "r2/task_metrics.csv").read_bytes()

    # IDX fixture round-trip
    import struct
    ipath = tmp_path / "img.idx"
    with open(ipath, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
        fh.write(bytes([0, 255, 10, 20, 30, 40, 50, 60]))
    lpath = tmp_path / "lab.idx"
    with open(lpath, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, 2) + bytes([5, 0]))
    mnist = in_file_order(load_idx(str(ipath), str(lpath), 2, RngStream(0)))
    idx_ok = mnist.images.shape == (2, 4)
    idx_ok = idx_ok and mnist.images.tobytes() == bytes([0, 255, 10, 20, 30, 40, 50, 60])
    scaled = scaled_rows(mnist)
    idx_ok = idx_ok and scaled[0, 0] == 0.0 and scaled[0, 1] == 1.0
    idx_ok = idx_ok and np.array_equal(mnist.labels, [5, 0])

    # CIFAR fixture round-trip
    rng = RngStream(10)
    ds = Dataset(images=np.round(rng.uniform(0, 1, (2, 3, 32, 32)) * 255) / 255,
                 labels=np.array([1, 8]))
    cpath = tmp_path / "c.bin"
    write_cifar10_bin(str(cpath), ds)
    back = in_file_order(load_cifar10_bin(str(cpath), 2, RngStream(0)))
    cifar_ok = np.array_equal(scaled_rows(back), ds.images)
    cifar_ok = cifar_ok and np.array_equal(back.labels, ds.labels)

    # full-scale defaults from an empty override set
    table = parse_config(None, ["problem=permuted_mnist"]).resolved()
    defaults_ok = (table.dataset_size, table.num_tasks, table.steps_per_task,
                   table.batch_size) == (10_000, 500, 625, 16)

    report(10, "byte-identical reruns; IDX/CIFAR fixtures round-trip; "
               "published defaults load from empty overrides",
           deterministic and idx_ok and cifar_ok and defaults_ok)
