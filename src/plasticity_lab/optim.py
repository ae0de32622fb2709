"""Optimizers and plasticity interventions.

The regularized methods add an explicit gradient term to the training
gradient (never optimizer-coupled weight decay):

    anchored to init:   2 * lam * (theta - theta0)
    standard:           2 * lam * theta
    resampled anchor:   2 * lam * (theta - phi_t),  phi_t freshly drawn

i.e. the exact gradient of lam * ||theta - anchor||^2. Shrink & perturb and
selective neuron reinitialization act on the parameters after each
optimizer step. Every intervention covers all trainable tensors (weights,
biases, and layer-norm affines where present), and none of them ever sees
a task boundary.

Nothing here checks for non-finite values: the runner's divergence check
on the parameters, made before every update, is the one numerical check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .nn import NetworkSpec, ForwardCache, ParameterSet, draw_initial_like
from .rng import RngStream

METHODS = (
    "baseline",
    "layer_norm",
    "l2_init",
    "l2",
    "shrink_perturb",
    "continual_backprop",
    "l2_init_resample",
)
REGULARIZED = ("l2_init", "l2", "l2_init_resample")
UTILITY_KINDS = ("contribution", "adaptive_contribution")


@dataclass
class MethodConfig:
    """Which plasticity intervention is active, and its hyper-parameters.

    Only the fields relevant to `method` are ever read.
    """

    method: str = "baseline"
    lam: float = 0.0              # regularization strength
    shrink: float = 0.0           # s, so the shrink multiplier is p = 1 - s
    noise: float = 0.0            # sigma, perturbation scale
    replacement_rate: float = 0.0
    maturity_threshold: int = 100
    utility_decay: float = 0.99
    utility_kind: str = "adaptive_contribution"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.utility_kind not in UTILITY_KINDS:
            raise ConfigError(f"unknown utility kind {self.utility_kind!r}")
        for name in ("lam", "shrink", "noise", "replacement_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass
class OptimizerState:
    """SGD or Adam state; moments mirror the parameter shapes."""

    kind: str
    alpha: float
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def make_optimizer(kind: str, alpha: float, params: ParameterSet) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer {kind!r}")
    state = OptimizerState(kind=kind, alpha=alpha)
    if kind == "adam":
        state.m = params.zeros_like()
        state.v = params.zeros_like()
    return state


def regularizer_gradient(
    config: MethodConfig, params: ParameterSet, rng: RngStream
) -> dict[str, np.ndarray]:
    """Gradient of the regularization term of a method in REGULARIZED."""
    two_lam = 2.0 * config.lam
    out = {}
    for name, theta in params.values.items():
        if config.method == "l2":
            out[name] = two_lam * theta
        elif config.method == "l2_init":
            out[name] = two_lam * (theta - params.initial[name])
        else:  # l2_init_resample: anchor redrawn from the init distribution each step
            out[name] = two_lam * (theta - draw_initial_like(params, name, rng))
    return out


def sgd_step(
    state: OptimizerState, params: ParameterSet, total_grad: dict[str, np.ndarray]
) -> ParameterSet:
    assert state.kind == "sgd"
    state.t += 1
    for name in params.values:
        params.values[name] = params.values[name] - state.alpha * total_grad[name]
    return params


def adam_step(
    state: OptimizerState, params: ParameterSet, total_grad: dict[str, np.ndarray]
) -> ParameterSet:
    assert state.kind == "adam"
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name in params.values:
        g = total_grad[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        update = state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)
        params.values[name] = params.values[name] - update
    return params


def shrink_perturb_apply(
    config: MethodConfig, params: ParameterSet, rng: RngStream
) -> ParameterSet:
    """theta <- (1 - s) * theta + sigma * eps, applied after every gradient step.

    eps is drawn per parameter from that parameter's own initialization
    distribution, so the noise scale tracks layer fan-in.
    """
    p = 1.0 - config.shrink
    for name in params.values:
        eps = draw_initial_like(params, name, rng)
        params.values[name] = p * params.values[name] + config.noise * eps
    return params


@dataclass
class CbpState:
    """Per-hidden-neuron utility EMAs, ages, and fractional reset accumulators."""

    utilities: list[np.ndarray]
    ages: list[np.ndarray]
    accumulators: list[float]


def make_cbp_state(spec: NetworkSpec) -> CbpState:
    if spec.kind != "mlp":
        raise ValueError("continual backprop supports only the MLP architecture")
    widths = spec.hidden_widths
    return CbpState(
        utilities=[np.zeros(w, dtype=np.float64) for w in widths],
        ages=[np.zeros(w, dtype=np.int64) for w in widths],
        accumulators=[0.0 for _ in widths],
    )


def _instant_utility(
    config: MethodConfig, w_in: np.ndarray, w_out: np.ndarray, acts: np.ndarray
) -> np.ndarray:
    if config.utility_kind == "contribution":
        mean_in = np.mean(np.abs(w_in), axis=0)
        with np.errstate(divide="ignore"):
            return np.where(mean_in > 0, 1.0 / mean_in, np.inf)
    # adaptive_contribution: batch activation magnitude times outgoing weight magnitude
    return np.mean(np.abs(acts), axis=0) * np.mean(np.abs(w_out), axis=1)


def cbp_step(
    cbp: CbpState,
    config: MethodConfig,
    opt: OptimizerState,
    params: ParameterSet,
    cache: ForwardCache,
    rng: RngStream,
) -> tuple[CbpState, ParameterSet]:
    """Track neuron utilities and reinitialize mature, low-utility neurons.

    Each hidden layer accumulates replacement_rate * width per step; when
    the accumulator reaches 1, the lowest-utility neurons with age >=
    maturity_threshold are reset: incoming weights redrawn from the
    initialization distribution, bias and outgoing weights zeroed, utility
    and age cleared, and any Adam moments touching them zeroed.
    """
    if cache.kind != "mlp":
        raise ValueError("continual backprop supports only the MLP architecture")
    decay = config.utility_decay
    for layer in range(len(cbp.utilities)):
        width = cbp.utilities[layer].shape[0]
        w_in_name, b_name, w_out_name = f"w{layer}", f"b{layer}", f"w{layer + 1}"
        w_in = params.values[w_in_name]
        w_out = params.values[w_out_name]
        inst = _instant_utility(config, w_in, w_out, cache.dense_acts[layer])
        cbp.utilities[layer] = decay * cbp.utilities[layer] + (1.0 - decay) * inst
        cbp.ages[layer] += 1

        cbp.accumulators[layer] += config.replacement_rate * width
        n_fire = int(cbp.accumulators[layer])
        if n_fire == 0:
            continue
        cbp.accumulators[layer] -= n_fire
        mature = np.flatnonzero(cbp.ages[layer] >= config.maturity_threshold)
        if mature.size == 0:
            continue
        order = mature[np.argsort(cbp.utilities[layer][mature], kind="stable")]
        for neuron in order[:n_fire]:
            _, bound = params.init_spec[w_in_name]
            w_in[:, neuron] = rng.uniform(-bound, bound, (w_in.shape[0],))
            params.values[b_name][neuron] = 0.0
            w_out[neuron, :] = 0.0
            cbp.utilities[layer][neuron] = 0.0
            cbp.ages[layer][neuron] = 0
            if opt.kind == "adam":
                for moment in (opt.m, opt.v):
                    moment[w_in_name][:, neuron] = 0.0
                    moment[b_name][neuron] = 0.0
                    moment[w_out_name][neuron, :] = 0.0
    return cbp, params


def apply_method_step(
    config: MethodConfig,
    opt: OptimizerState,
    params: ParameterSet,
    grads: dict[str, np.ndarray],
    rng: RngStream,
    cache: ForwardCache | None = None,
    cbp: CbpState | None = None,
) -> ParameterSet:
    """One full update: regularizer gradient, optimizer step, post-step edits."""
    if config.method in REGULARIZED and config.lam != 0.0:
        reg = regularizer_gradient(config, params, rng)
        total = {name: grads[name] + reg[name] for name in grads}
    else:
        total = grads  # adding the zero regularizer gradient is a no-op
    if opt.kind == "sgd":
        sgd_step(opt, params, total)
    else:
        adam_step(opt, params, total)
    if config.method == "shrink_perturb":
        shrink_perturb_apply(config, params, rng)
    elif config.method == "continual_backprop":
        cbp_step(cbp, config, opt, params, cache, rng)
    return params
