import tracemalloc

import numpy as np
import pytest

from conftest import random_instance, tiny_cnn_spec, tiny_mlp_spec
from plasticity_lab.metrics import mean_param_magnitude
from plasticity_lab.nn import NetworkSpec, ParameterSet, forward, init_params, loss_and_grad
from plasticity_lab.optim import (
    METHODS,
    MethodConfig,
    adam_step,
    apply_method_step,
    cbp_step,
    make_cbp_state,
    make_optimizer,
    regularizer_gradient,
    sgd_step,
    shrink_perturb_apply,
)
from plasticity_lab.rng import RngStream


class ReferenceAdam:
    """Independent Adam implementation used purely as an oracle."""

    def __init__(self, theta, alpha, b1=0.9, b2=0.999, eps=1e-8):
        self.theta = np.array(theta, dtype=np.float64)
        self.alpha, self.b1, self.b2, self.eps = alpha, b1, b2, eps
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self.t = 0

    def step(self, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        self.theta = self.theta - self.alpha * m_hat / (np.sqrt(v_hat) + self.eps)
        return self.theta


def single_weight_params(theta, theta0=None, bound=1.0):
    """One tensor snapshotted at theta0 (default theta), then set to theta."""
    start = theta if theta0 is None else theta0
    ps = ParameterSet({"w0": np.array(start, dtype=np.float64)}, {"w0": ("uniform", bound)})
    ps.values["w0"][...] = theta
    return ps


# --- regularizer gradients -------------------------------------------------

def test_l2init_zero_at_anchor():
    ps = single_weight_params([1.0, -2.0, 0.5])
    cfg = MethodConfig(method="l2_init", lam=0.3)
    grad = ps.named(regularizer_gradient(cfg, ps, RngStream(0)))
    assert np.array_equal(grad["w0"], np.zeros(3))


def test_lambda_zero_gives_zero_gradient_every_method():
    ps = single_weight_params([1.0, -2.0], theta0=[0.3, 0.4])
    for method in ("l2_init", "l2", "l2_init_resample"):
        cfg = MethodConfig(method=method, lam=0.0)
        grad = ps.named(regularizer_gradient(cfg, ps, RngStream(0)))
        assert np.array_equal(grad["w0"], np.zeros(2))


def test_l2init_factor_two_arithmetic():
    ps = single_weight_params([1.5], theta0=[0.5])
    cfg = MethodConfig(method="l2_init", lam=1e-2)
    grad = ps.named(regularizer_gradient(cfg, ps, RngStream(0)))
    assert np.isclose(grad["w0"][0], 0.02, atol=1e-15)


def test_l2_pulls_toward_origin():
    ps = single_weight_params([2.0, -2.0], theta0=[1.0, 1.0])
    cfg = MethodConfig(method="l2", lam=0.25)
    grad = ps.named(regularizer_gradient(cfg, ps, RngStream(0)))
    assert np.allclose(grad["w0"], [1.0, -1.0])


def test_resample_uses_fresh_anchor_each_call():
    ps = single_weight_params(np.zeros(1000), bound=0.5)
    cfg = MethodConfig(method="l2_init_resample", lam=0.5)
    rng = RngStream(5).split("noise")
    g1 = ps.named(regularizer_gradient(cfg, ps, rng))["w0"].copy()
    g2 = ps.named(regularizer_gradient(cfg, ps, rng))["w0"]
    assert not np.array_equal(g1, g2)
    assert np.all(np.abs(g1) <= 2 * 0.5 * 0.5)  # 2*lam*bound


def test_regularizers_cover_layer_norm_affines():
    spec = tiny_mlp_spec(layer_norm=True)
    params = init_params(spec, RngStream(0).split("init"))
    params.values["gain0"][...] += 0.5
    cfg = MethodConfig(method="l2_init", lam=1.0)
    grad = params.named(regularizer_gradient(cfg, params, RngStream(0)))
    assert np.allclose(grad["gain0"], 1.0)  # 2 * lam * 0.5
    cfg = MethodConfig(method="l2", lam=1.0)
    grad = params.named(regularizer_gradient(cfg, params, RngStream(0)))
    assert np.allclose(grad["gain0"], 2.0 * params.values["gain0"])


# --- sgd -------------------------------------------------------------------

def test_sgd_zero_stepsize_is_identity():
    ps = single_weight_params([1.0, 2.0])
    state = make_optimizer("sgd", 0.0, ps)
    sgd_step(state, ps, np.array([5.0, -5.0]))
    assert np.array_equal(ps.values["w0"], [1.0, 2.0])


def test_sgd_hand_case():
    ps = single_weight_params([1.0])
    state = make_optimizer("sgd", 0.01, ps)
    sgd_step(state, ps, np.array([0.5]))
    assert np.isclose(ps.values["w0"][0], 0.995, atol=1e-15)


def test_sgd_two_steps_compose_linearly():
    g1, g2 = np.array([0.3, -0.2]), np.array([-0.1, 0.4])
    ps = single_weight_params([1.0, 1.0])
    state = make_optimizer("sgd", 0.05, ps)
    sgd_step(state, ps, g1.copy())  # the step consumes its gradient
    sgd_step(state, ps, g2.copy())
    assert np.allclose(ps.values["w0"], 1.0 - 0.05 * (g1 + g2), atol=1e-15)


# --- adam --------------------------------------------------------------------

def test_adam_first_step_is_signed_stepsize():
    ps = single_weight_params([0.0, 0.0, 0.0])
    state = make_optimizer("adam", 0.1, ps)
    g = np.array([3.0, -7.0, 0.5])
    adam_step(state, ps, g)
    assert np.all(np.abs(ps.values["w0"]) <= 0.1 * (1 + 1e-6))
    assert np.allclose(ps.values["w0"], -0.1 * np.sign(g), rtol=1e-6)


def test_adam_zero_gradient_never_moves():
    ps = single_weight_params([1.0, -1.0])
    state = make_optimizer("adam", 0.1, ps)
    for _ in range(10):
        adam_step(state, ps, np.zeros(2))
    assert np.array_equal(ps.values["w0"], [1.0, -1.0])


def test_adam_matches_independent_reference_on_quadratic():
    # minimize 0.5 * q * (theta - c)^2 for 10 steps
    q = np.array([1.0, 4.0, 0.25, 2.0])
    c = np.array([0.3, -1.0, 2.0, 0.0])
    theta0 = np.array([1.0, 1.0, -1.0, 3.0])
    ps = single_weight_params(theta0)
    state = make_optimizer("adam", 1e-3, ps)
    ref = ReferenceAdam(theta0, 1e-3)
    for _ in range(10):
        grad = q * (ps.values["w0"] - c)
        adam_step(state, ps, grad.copy())  # the step consumes its gradient
        ref_grad = q * (ref.theta - c)
        assert np.array_equal(grad, ref_grad)
        ref.step(ref_grad)
        assert np.allclose(ps.values["w0"], ref.theta, atol=1e-12, rtol=0)


def test_adam_update_bound_fuzz():
    rng = RngStream(77)
    for trial in range(50):
        ps = single_weight_params(rng.uniform(-2, 2, 8))
        state = make_optimizer("adam", 0.01, ps)
        for t in range(20):
            before = ps.values["w0"].copy()
            grad = rng.uniform(-10, 10, 8) * (10.0 ** int(rng.integers(-3, 4)))
            adam_step(state, ps, grad)
            delta = np.abs(ps.values["w0"] - before)
            assert np.all(delta <= 0.01 * 10.0)
            if t == 0:
                assert np.all(delta <= 0.01 * (1 + 1e-3))


@pytest.mark.parametrize("first, last", [(350, 362), (37_405, 37_420)])
@pytest.mark.parametrize("net", ("mlp", "cnn"))
def test_adam_keeps_its_bits_where_the_bias_corrections_reach_one(net, first, last):
    # each window straddles the step where 1 - beta**t rounds to exactly 1.0 (t = 356 for
    # beta1, t = 37,412 for beta2); the reference always divides, as per_tensor_trajectory does
    b1, b2, eps, alpha = 0.9, 0.999, 1e-8, 1e-3
    beta = b1 if first < 1000 else b2
    assert 1.0 - beta**first != 1.0 and 1.0 - beta**last == 1.0
    spec = (NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100))
            if net == "mlp" else tiny_cnn_spec())
    master = RngStream(5)
    params = init_params(spec, master.split("init"))
    opt = make_optimizer("adam", alpha, params)
    data = master.split("data")
    n = params.flat.size
    opt.moments[0] = data.uniform(-1e-2, 1e-2, n)
    opt.moments[1] = data.uniform(0.0, 1e-4, n)
    opt.t = first - 1
    theta, m, v = params.flat.copy(), opt.moments[0].copy(), opt.moments[1].copy()
    for t in range(first, last + 1):
        grad = data.uniform(-1e-2, 1e-2, n)
        adam_step(opt, params, grad.copy())  # the step consumes its gradient
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta = theta - alpha * m_hat / (np.sqrt(v_hat) + eps)
        assert opt.t == t
        assert np.array_equal(params.flat, theta), t
        assert np.array_equal(opt.moments[0], m) and np.array_equal(opt.moments[1], v), t


# --- shrink & perturb ---------------------------------------------------------

def test_shrink_perturb_identity_when_off():
    ps = single_weight_params([1.0, -2.0])
    cfg = MethodConfig(method="shrink_perturb", shrink=0.0, noise=0.0)
    shrink_perturb_apply(cfg, ps, RngStream(0).split("noise"))
    assert np.array_equal(ps.values["w0"], [1.0, -2.0])


def test_shrink_one_zeroes_parameters():
    ps = single_weight_params([1.0, -2.0])
    cfg = MethodConfig(method="shrink_perturb", shrink=1.0, noise=0.0)
    shrink_perturb_apply(cfg, ps, RngStream(0).split("noise"))
    assert np.array_equal(ps.values["w0"], [0.0, 0.0])


def test_shrink_perturb_noise_variance():
    # noise on a zeroed tensor: variance = sigma^2 * bound^2 / 3 with bound = 1/sqrt(fan_in)
    fan_in = 100
    sigma = 0.05
    ps = ParameterSet(
        {"w0": np.zeros((fan_in, 1000))}, {"w0": ("uniform", 1.0 / np.sqrt(fan_in))}
    )
    cfg = MethodConfig(method="shrink_perturb", shrink=0.0, noise=sigma)
    shrink_perturb_apply(cfg, ps, RngStream(123).split("noise"))
    expected = sigma**2 / (3.0 * fan_in)
    assert abs(ps.values["w0"].var() - expected) < 0.05 * expected


# --- continual backprop ---------------------------------------------------------

def cbp_fixture(widths=(4, 3), seed=0):
    spec = tiny_mlp_spec()
    spec = type(spec)(kind="mlp", input_shape=(6,), hidden_widths=widths, num_classes=3)
    params, images, labels = random_instance(spec, seed=seed)
    logits, cache = forward(spec, params, images)
    _, grad = loss_and_grad(spec, params, cache, logits, labels)
    return spec, params, cache, grad


def test_cbp_no_resets_before_maturity():
    spec, params, cache, _ = cbp_fixture()
    cfg = MethodConfig(method="continual_backprop", replacement_rate=0.9, maturity_threshold=100)
    cbp = make_cbp_state(spec)
    opt = make_optimizer("sgd", 0.0, params)
    before = {k: v.copy() for k, v in params.values.items()}
    cbp_step(cbp, cfg, opt, params, cache, RngStream(0).split("noise"))
    for k in before:
        assert np.array_equal(params.values[k], before[k])
    assert np.all(cbp.ages[0] == 1)


def test_cbp_zero_rate_updates_utilities_only():
    spec, params, cache, _ = cbp_fixture()
    cfg = MethodConfig(method="continual_backprop", replacement_rate=0.0)
    cbp = make_cbp_state(spec)
    cbp.ages = [a + 1000 for a in cbp.ages]
    opt = make_optimizer("sgd", 0.0, params)
    before = {k: v.copy() for k, v in params.values.items()}
    cbp_step(cbp, cfg, opt, params, cache, RngStream(0).split("noise"))
    for k in before:
        assert np.array_equal(params.values[k], before[k])
    assert np.any(cbp.utilities[0] != 0)


def test_cbp_resets_lowest_utility_mature_neuron():
    spec, params, cache, _ = cbp_fixture(widths=(2, 3))
    # equal weight magnitudes so the instantaneous utility cannot flip the order
    params.values["w0"][...] = 0.5
    params.values["w1"][...] = 0.5
    cfg = MethodConfig(
        method="continual_backprop", replacement_rate=0.5, maturity_threshold=100,
    )
    cbp = make_cbp_state(spec)
    cbp.utilities[0] = np.array([0.1, 5.0])
    cbp.ages[0] = np.array([200, 200])
    opt = make_optimizer("adam", 1e-3, params)
    m, v = (params.named(row) for row in opt.moments)
    m["w0"][...] += 1.0
    v["w1"][...] += 1.0
    bound = params.init_spec["w0"][1]
    cbp_step(cbp, cfg, opt, params, cache, RngStream(0).split("noise"))
    # brute-force argmin over the hand-set utilities says unit 0 resets
    assert np.all(params.values["w0"][:, 0] != 0.5)
    assert np.all(np.abs(params.values["w0"][:, 0]) <= bound)
    assert np.all(params.values["w0"][:, 1] == 0.5)  # unit 1 untouched
    assert params.values["b0"][0] == 0.0
    assert np.all(params.values["w1"][0, :] == 0.0)
    assert cbp.utilities[0][0] == 0.0
    assert cbp.ages[0][0] == 0
    assert np.all(m["w0"][:, 0] == 0.0)
    assert np.all(v["w1"][0, :] == 0.0)


def test_cbp_resets_zero_the_live_moments_after_a_resume():
    spec, params, _, _ = cbp_fixture(widths=(4, 3))
    # large biases keep every hidden unit active, so every neuron's moments are nonzero
    params.values["b0"][...] = 3.0
    params.values["b1"][...] = 3.0
    # every step fires 2 resets in layer 0 and 1 or 2 in layer 1; none is mature before step 3
    cfg = MethodConfig(method="continual_backprop", replacement_rate=0.5, maturity_threshold=3)
    cbp = make_cbp_state(spec)
    opt = make_optimizer("adam", 1e-2, params)
    noise, data = RngStream(5).split("noise"), RngStream(6)

    def step():
        images = data.uniform(0, 1, (4, 6))
        labels = np.asarray(data.integers(0, 3, 4))
        logits, cache = forward(spec, params, images)
        _, grad = loss_and_grad(spec, params, cache, logits, labels)
        apply_method_step(cfg, opt, params, grad, rng=noise, cache=cache, cbp=cbp)

    step()
    step()
    assert all(np.all(age == 2) for age in cbp.ages)  # no reset yet
    assert np.all(opt.moments != 0.0)
    opt.moments = opt.moments.copy()  # a resume loads the rows into fresh arrays
    step()
    for layer, n_reset in enumerate((2, 1)):
        reset = np.flatnonzero(cbp.ages[layer] == 0)
        assert reset.size == n_reset
        for row in opt.moments:
            moment = params.named(row)
            assert np.all(moment[f"w{layer}"][:, reset] == 0.0)
            assert np.all(moment[f"b{layer}"][reset] == 0.0)
            assert np.all(moment[f"w{layer + 1}"][reset, :] == 0.0)


def test_cbp_maturity_respected_under_fuzz():
    spec, params, _, _ = cbp_fixture(widths=(5, 4))
    cfg = MethodConfig(
        method="continual_backprop", replacement_rate=0.3, maturity_threshold=7,
    )
    cbp = make_cbp_state(spec)
    opt = make_optimizer("sgd", 1e-2, params)
    noise = RngStream(3).split("noise")
    instance_rng = RngStream(4)
    for step in range(60):
        images = instance_rng.uniform(0, 1, (4, 6))
        labels = np.asarray(instance_rng.integers(0, 3, 4))
        logits, cache = forward(spec, params, images)
        _, grads = loss_and_grad(spec, params, cache, logits, labels)
        ages_before = [a.copy() for a in cbp.ages]
        cbp_step(cbp, cfg, opt, params, cache, noise)
        for layer in range(2):
            reset = cbp.ages[layer] == 0
            assert np.all(ages_before[layer][reset] + 1 >= cfg.maturity_threshold)


# --- composition -----------------------------------------------------------------

def run_trajectory(method_cfg, optimizer="adam", steps=30, seed=11, alpha=1e-2, spec=None):
    spec = spec or tiny_mlp_spec()
    master = RngStream(seed)
    params = init_params(spec, master.split("init"))
    opt = make_optimizer(optimizer, alpha, params)
    cbp = make_cbp_state(spec) if method_cfg.method == "continual_backprop" else None
    noise = master.split("noise")
    data = master.split("data")
    for _ in range(steps):
        images = data.uniform(0, 1, (4,) + spec.input_shape)
        labels = np.asarray(data.integers(0, 3, 4))
        logits, cache = forward(spec, params, images)
        _, grad = loss_and_grad(spec, params, cache, logits, labels)
        apply_method_step(method_cfg, opt, params, grad, rng=noise, cache=cache, cbp=cbp)
    return params, opt


@pytest.mark.parametrize(
    "cfg",
    [
        MethodConfig(method="l2_init", lam=0.0),
        MethodConfig(method="l2", lam=0.0),
        MethodConfig(method="l2_init_resample", lam=0.0),
        MethodConfig(method="shrink_perturb", shrink=0.0, noise=0.0),
        MethodConfig(method="continual_backprop", replacement_rate=0.0),
    ],
)
def test_all_methods_reduce_to_baseline_with_zero_hypers(cfg):
    base, _ = run_trajectory(MethodConfig(method="baseline"))
    other, _ = run_trajectory(cfg)
    for k in base.values:
        assert np.array_equal(base.values[k], other.values[k]), k


def test_sgd_l2init_step_matches_shrink_perturb_form():
    # theta' = (1 - 2*alpha*lam) * theta + 2*alpha*lam * theta0 - alpha * g
    rng = RngStream(42)
    for _ in range(1000):
        theta = float(rng.uniform(-3, 3))
        theta0 = float(rng.uniform(-3, 3))
        g = float(rng.uniform(-3, 3))
        alpha = float(rng.uniform(1e-4, 0.2))
        lam = float(rng.uniform(0.0, 0.5))
        ps = single_weight_params([theta], theta0=[theta0])
        cfg = MethodConfig(method="l2_init", lam=lam)
        opt = make_optimizer("sgd", alpha, ps)
        apply_method_step(cfg, opt, ps, np.array([g]), rng=RngStream(0))
        closed_form = (1 - 2 * alpha * lam) * theta + 2 * alpha * lam * theta0 - alpha * g
        assert abs(ps.values["w0"][0] - closed_form) <= 1e-12


def test_sgd_l2init_identity_on_small_networks():
    for seed in range(10):
        spec = tiny_mlp_spec()
        master = RngStream(seed)
        params = init_params(spec, master.split("init"))
        images = master.uniform(0, 1, (4, 6))
        labels = np.asarray(master.integers(0, 3, 4))
        logits, cache = forward(spec, params, images)
        _, grad = loss_and_grad(spec, params, cache, logits, labels)
        grads = params.named(grad.copy())  # the update consumes the row
        alpha, lam = 0.05, 0.01
        before = {k: v.copy() for k, v in params.values.items()}
        cfg = MethodConfig(method="l2_init", lam=lam)
        opt = make_optimizer("sgd", alpha, params)
        apply_method_step(cfg, opt, params, grad, rng=RngStream(0))
        initial = params.named(params.flat0)
        for k in before:
            closed = (
                (1 - 2 * alpha * lam) * before[k]
                + 2 * alpha * lam * initial[k]
                - alpha * grads[k]
            )
            assert np.max(np.abs(params.values[k] - closed)) <= 1e-12


def test_l2init_converges_monotonically_to_anchor_under_sgd():
    # with zero training gradient, each step contracts the gap by (1 - 2*alpha*lam)
    ps = single_weight_params([5.0, -3.0], theta0=[1.0, 1.0])
    cfg = MethodConfig(method="l2_init", lam=0.5)
    opt = make_optimizer("sgd", 0.1, ps)
    gaps = [np.abs(ps.values["w0"] - np.array([1.0, 1.0]))]
    for _ in range(200):
        apply_method_step(cfg, opt, ps, np.zeros(2), rng=RngStream(0))
        gaps.append(np.abs(ps.values["w0"] - np.array([1.0, 1.0])))
    gaps = np.array(gaps)
    assert np.all(np.diff(gaps, axis=0) <= 0)
    assert np.all(gaps[-1] < 1e-6)


def test_l2_converges_to_origin_under_sgd():
    ps = single_weight_params([5.0, -3.0], theta0=[1.0, 1.0])
    cfg = MethodConfig(method="l2", lam=0.5)
    opt = make_optimizer("sgd", 0.1, ps)
    for _ in range(300):
        apply_method_step(cfg, opt, ps, np.zeros(2), rng=RngStream(0))
    assert np.all(np.abs(ps.values["w0"]) < 1e-6)


def test_baseline_is_plain_optimizer_step():
    ps = single_weight_params([1.0])
    cfg = MethodConfig(method="baseline")
    opt = make_optimizer("sgd", 0.1, ps)
    apply_method_step(cfg, opt, ps, np.array([2.0]), rng=RngStream(0))
    assert np.isclose(ps.values["w0"][0], 0.8, atol=1e-15)


def test_update_path_sees_no_task_boundaries():
    # the learner must not receive task indices or boundary flags
    import inspect

    for fn in (apply_method_step, sgd_step, adam_step, shrink_perturb_apply,
               regularizer_gradient, cbp_step):
        names = set(inspect.signature(fn).parameters)
        assert not names & {"task", "task_index", "boundary", "step", "task_id"}, fn


# --- the flat update against the per-tensor one -----------------------------------

def per_tensor_trajectory(cfg, optimizer="adam", steps=30, seed=11, alpha=1e-2, spec=None):
    """Oracle: the update as one dict entry per tensor, each term a fresh array.

    Same streams, formulas and operation order as `run_trajectory`'s flat
    path, so the two must agree to the bit. Returns the tensors and Adam's
    (m, v), or no moments for SGD.
    """
    spec = spec or tiny_mlp_spec()
    master = RngStream(seed)
    start = init_params(spec, master.split("init"))
    values = {k: x.copy() for k, x in start.values.items()}
    m = {k: np.zeros_like(x) for k, x in values.items()}
    v = {k: np.zeros_like(x) for k, x in values.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    widths = spec.hidden_widths
    utilities = [np.zeros(w) for w in widths]
    ages = [np.zeros(w, dtype=np.int64) for w in widths]
    accumulators = [0.0 for _ in widths]
    noise, data = master.split("noise"), master.split("data")

    def draw_initial_like(name):
        kind, value = start.init_spec[name]
        if kind == "uniform":
            return noise.uniform(-value, value, values[name].shape)
        return np.full(values[name].shape, value)

    for t in range(1, steps + 1):
        images = data.uniform(0, 1, (4,) + spec.input_shape)
        labels = np.asarray(data.integers(0, 3, 4))
        net = ParameterSet(values, start.init_spec)  # a copy, for forward and loss_and_grad
        logits, cache = forward(spec, net, images)
        _, grad = loss_and_grad(spec, net, cache, logits, labels)
        grads = dict(net.named(grad))
        total = grads
        if cfg.method in ("l2_init", "l2", "l2_init_resample") and cfg.lam != 0.0:
            two_lam = 2.0 * cfg.lam
            reg = {}
            for name, theta in values.items():
                if cfg.method == "l2":
                    reg[name] = two_lam * theta
                elif cfg.method == "l2_init":
                    reg[name] = two_lam * (theta - start.named(start.flat0)[name])
                else:
                    reg[name] = two_lam * (theta - draw_initial_like(name))
            total = {name: grads[name] + reg[name] for name in grads}
        for name in values:
            g = total[name]
            if optimizer == "sgd":
                values[name] = values[name] - alpha * g
                continue
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1**t)
            v_hat = v[name] / (1.0 - b2**t)
            values[name] = values[name] - alpha * m_hat / (np.sqrt(v_hat) + eps)
        if cfg.method == "shrink_perturb":
            for name in values:
                eps_draw = draw_initial_like(name)
                values[name] = (1.0 - cfg.shrink) * values[name] + cfg.noise * eps_draw
        elif cfg.method == "continual_backprop":
            for layer, width in enumerate(widths):
                w_in, b, w_out = f"w{layer}", f"b{layer}", f"w{layer + 1}"
                inst = (np.mean(np.abs(cache.inputs[layer + 1]), axis=0)
                        * np.mean(np.abs(values[w_out]), axis=1))
                decay = 0.99
                utilities[layer] = decay * utilities[layer] + (1.0 - decay) * inst
                ages[layer] += 1
                accumulators[layer] += cfg.replacement_rate * width
                n_fire = int(accumulators[layer])
                if n_fire == 0:
                    continue
                accumulators[layer] -= n_fire
                mature = np.flatnonzero(ages[layer] >= cfg.maturity_threshold)
                order = mature[np.argsort(utilities[layer][mature], kind="stable")]
                for neuron in order[:n_fire]:
                    bound = start.init_spec[w_in][1]
                    values[w_in][:, neuron] = noise.uniform(-bound, bound,
                                                            (values[w_in].shape[0],))
                    values[b][neuron] = 0.0
                    values[w_out][neuron, :] = 0.0
                    utilities[layer][neuron] = 0.0
                    ages[layer][neuron] = 0
                    for moment in ((m, v) if optimizer == "adam" else ()):
                        moment[w_in][:, neuron] = 0.0
                        moment[b][neuron] = 0.0
                        moment[w_out][neuron, :] = 0.0
    return values, ((m, v) if optimizer == "adam" else ())


ORACLE_CONFIGS = {
    "baseline": MethodConfig(method="baseline"),
    "layer_norm": MethodConfig(method="layer_norm"),
    "l2_init": MethodConfig(method="l2_init", lam=1e-1),
    "l2": MethodConfig(method="l2", lam=1e-1),
    "shrink_perturb": MethodConfig(method="shrink_perturb", shrink=1e-2, noise=1e-1),
    # widths (5, 4): resets start at step 5, one neuron per layer about every other step
    "continual_backprop": MethodConfig(method="continual_backprop", replacement_rate=0.1,
                                       maturity_threshold=5),
    "l2_init_resample": MethodConfig(method="l2_init_resample", lam=1e-1),
}


def assert_same_bits(run, oracle):
    """Every tensor of theta and of each moment row, compared as int64 bit patterns."""
    (params, opt), (values, moments) = run, oracle
    assert len(opt.moments) == len(moments)
    for row, tensors in zip((params.flat, *opt.moments), (values, *moments)):
        for k, x in params.named(row).items():
            assert np.array_equal(x.view(np.int64), tensors[k].view(np.int64)), k


@pytest.mark.parametrize("layer_norm", (False, True))
@pytest.mark.parametrize("optimizer", ("sgd", "adam"))
@pytest.mark.parametrize("method", METHODS)
def test_flat_update_matches_per_tensor_oracle(method, optimizer, layer_norm):
    spec = tiny_mlp_spec(layer_norm=layer_norm)
    cfg = ORACLE_CONFIGS[method]
    assert_same_bits(run_trajectory(cfg, optimizer, spec=spec),
                     per_tensor_trajectory(cfg, optimizer, spec=spec))


@pytest.mark.parametrize("optimizer", ("sgd", "adam"))
@pytest.mark.parametrize("method, hidden_widths", [
    *(pytest.param(method, (5, 4), id=method) for method in METHODS),
    # equal widths give w1 b1 w2 b2 one bound, so the flat path draws them in one call
    *(pytest.param(method, (4, 4), id=f"{method}-equal_widths")
      for method in ("shrink_perturb", "l2_init_resample")),
])
def test_flat_update_matches_per_tensor_oracle_past_t_356(method, hidden_widths, optimizer):
    # the update consumes the gradient row as its scratch; over 400 steps Adam's m bias
    # correction rounds to 1.0 at t = 356 and is skipped from there, while the oracle keeps
    # dividing, writes every term into a fresh array and draws its noise into its own arrays
    spec = tiny_mlp_spec(layer_norm=method == "layer_norm", hidden_widths=hidden_widths)
    cfg = ORACLE_CONFIGS[method]
    assert_same_bits(run_trajectory(cfg, optimizer, steps=400, spec=spec),
                     per_tensor_trajectory(cfg, optimizer, steps=400, spec=spec))


@pytest.mark.parametrize("optimizer", ("sgd", "adam"))
def test_flat_update_matches_per_tensor_oracle_on_cnn(optimizer):
    cfg, spec = ORACLE_CONFIGS["l2_init"], tiny_cnn_spec()
    assert_same_bits(run_trajectory(cfg, optimizer, spec=spec),
                     per_tensor_trajectory(cfg, optimizer, spec=spec))


# (sum of theta, sum of |theta - theta0|, theta . linspace(-1, 1)) after 20 Adam + l2_init
# steps on the tiny CNN, recorded before the conv and dense layers shared one layer loop
PINNED_CNN_RUN = {
    False: (-1.3402258011559758, 4.07329752433461, 2.6449889778314946),
    True: (448.35926676706947, 15.96203172388693, -1.2170881020574429),
}


@pytest.mark.parametrize("layer_norm", (False, True))
def test_cnn_training_run_is_pinned(layer_norm):
    params, _ = run_trajectory(ORACLE_CONFIGS["l2_init"], "adam", steps=20,
                               spec=tiny_cnn_spec(layer_norm=layer_norm))
    theta = params.flat
    got = (theta.sum(), np.abs(theta - params.flat0).sum(),
           theta @ np.linspace(-1.0, 1.0, theta.size))
    np.testing.assert_allclose(got, PINNED_CNN_RUN[layer_norm], rtol=1e-9, atol=0.0)


# (sum of theta, sum of |theta - theta0|, theta . linspace(-1, 1)) after 20 steps on the tiny
# MLP of each method that draws from the init distribution after init, recorded while
# each of its draws was written out by hand
PINNED_DRAWING_RUNS = {
    ("shrink_perturb", "sgd"): (-1.6957240018417763, 7.085365861278435, 1.1687867280474853),
    ("shrink_perturb", "adam"): (-2.561386450547077, 7.839150923361625, 1.2322546044277778),
    ("l2_init_resample", "sgd"): (-2.8174959317971715, 0.6310002095968468, -0.4394307014580757),
    ("l2_init_resample", "adam"): (-1.7137577076700476, 7.032068158222369, -0.05276491656058768),
    ("continual_backprop", "sgd"): (2.293549094926515, 13.065381364998904, -0.8376763417158753),
    ("continual_backprop", "adam"): (1.2167063918037206, 14.408129977752408, -0.5765806802812901),
}


@pytest.mark.parametrize("method, optimizer", PINNED_DRAWING_RUNS)
def test_drawing_method_runs_are_pinned(method, optimizer):
    params, _ = run_trajectory(ORACLE_CONFIGS[method], optimizer, steps=20)
    theta = params.flat
    got = (theta.sum(), np.abs(theta - params.flat0).sum(),
           theta @ np.linspace(-1.0, 1.0, theta.size))
    np.testing.assert_allclose(got, PINNED_DRAWING_RUNS[method, optimizer], rtol=1e-9, atol=0.0)


# --- no full-length allocation per step -----------------------------------------------

def peak_new_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("optimizer", ("sgd", "adam"))
@pytest.mark.parametrize("method", METHODS)
def test_update_allocates_no_full_length_array(method, optimizer):
    # 784-100-100-10: 89,610 parameters, 700 KiB per full-length float64 array
    spec = NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100),
                       layer_norm=method == "layer_norm")
    master = RngStream(0)
    params = init_params(spec, master.split("init"))
    opt = make_optimizer(optimizer, 1e-3, params)
    # every continual-backprop step resets 5 neurons per layer
    cfg = MethodConfig(method=method, lam=1e-2, shrink=1e-4, noise=1e-2,
                       replacement_rate=0.05, maturity_threshold=0)
    cbp = make_cbp_state(spec) if method == "continual_backprop" else None
    data = master.split("data")
    logits, cache = forward(spec, params, data.uniform(0, 1, (16, 784)))
    _, grad = loss_and_grad(spec, params, cache, logits, np.asarray(data.integers(0, 10, 16)))
    noise = master.split("noise")

    def step():
        apply_method_step(cfg, opt, params, grad, rng=noise, cache=cache, cbp=cbp)

    step()  # warm-up
    assert peak_new_bytes(step) < 64 * 1024
    assert peak_new_bytes(lambda: mean_param_magnitude(params)) < 64 * 1024


@pytest.mark.parametrize("spec", [
    NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100)),
    NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100), layer_norm=True),
    tiny_cnn_spec(),
], ids=("mlp", "mlp_layer_norm", "cnn"))
def test_every_full_length_row_starts_on_a_cache_line(spec):
    params = init_params(spec, RngStream(0))
    opt = make_optimizer("adam", 1e-3, params)
    rows = [params.flat, params.flat0, *params.work, *opt.moments]
    assert len(rows) == 6
    for row in rows:
        assert row.shape == params.flat.shape and row.flags.c_contiguous
        assert row.ctypes.data % 64 == 0
    assert make_optimizer("sgd", 1e-3, params).moments.shape == (0, params.flat.size)


def test_backward_pass_allocates_no_gradient_tensors():
    # 784-100-100-10, batch 16: the 784x100 weight gradient alone would be 613 KiB
    spec = NetworkSpec(kind="mlp", input_shape=(784,), hidden_widths=(100, 100))
    master = RngStream(0)
    params = init_params(spec, master.split("init"))
    data = master.split("data")
    images, labels = data.uniform(0, 1, (16, 784)), np.asarray(data.integers(0, 10, 16))

    def forward_backward():
        logits, cache = forward(spec, params, images)
        loss_and_grad(spec, params, cache, logits, labels)

    forward_backward()  # warm-up
    assert peak_new_bytes(forward_backward) < 256 * 1024
