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

Every term is computed in place on the flat parameter vector, with the
per-element operation order of the per-tensor formulas. `params.work[0]`
holds the loss gradient that `nn.loss_and_grad` wrote; the update adds the
regularizer term into it, then consumes it as scratch beside `work[1]`.

`MethodConfig` is plain data, checked by `RunConfig.validate`. Nothing
here re-checks its inputs: `validate` admits only SGD or Adam, and
continual backprop only on an MLP; the runner's divergence check on the
parameters is the one numerical check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import NetworkSpec, ForwardCache, ParameterSet, aligned_rows
from .rng import RngStream

# method -> the hyper-parameters it sweeps besides alpha, in `config.GRIDS` order
METHODS: dict[str, tuple[str, ...]] = {
    "baseline": (),
    "layer_norm": (),
    "l2_init": ("lam",),
    "l2": ("lam",),
    "shrink_perturb": ("shrink", "noise"),
    "continual_backprop": ("replacement_rate",),
    "l2_init_resample": ("lam",),
}
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's constants
UTILITY_DECAY = 0.99  # continual backprop's utility EMA decay, fixed as in Dohare et al.


@dataclass
class MethodConfig:
    """Which plasticity intervention is active, and its hyper-parameters, at
    the run defaults. Only the fields relevant to `method` are ever read."""

    method: str = "baseline"
    lam: float = 1e-2             # regularization strength
    shrink: float = 1e-4          # s, so the shrink multiplier is p = 1 - s
    noise: float = 1e-2           # sigma, perturbation scale
    replacement_rate: float = 1e-4
    maturity_threshold: int = 100


@dataclass
class OptimizerState:
    """SGD or Adam state: the step count and the moment rows, each laid out
    like `params.flat` (Adam's m and v; SGD has none). Nothing else holds them."""

    kind: str
    alpha: float
    moments: np.ndarray
    t: int = 0


def make_optimizer(kind: str, alpha: float, params: ParameterSet) -> OptimizerState:
    return OptimizerState(kind, alpha, aligned_rows(2 if kind == "adam" else 0, params.flat.size))


def regularizer_gradient(
    config: MethodConfig, params: ParameterSet, rng: RngStream
) -> np.ndarray:
    """Flat gradient of the regularization term of a method with a `lam`
    in `METHODS`, in the scratch row `params.work[1]`."""
    out = params.work[1]
    if config.method == "l2":
        out[:] = params.flat
    elif config.method == "l2_init":
        np.subtract(params.flat, params.flat0, out=out)
    else:  # l2_init_resample: anchor redrawn from the init distribution each step
        np.subtract(params.flat, params.draw_initial(rng, out), out=out)
    out *= 2.0 * config.lam
    return out


def sgd_step(state: OptimizerState, params: ParameterSet, grad: np.ndarray) -> None:
    """theta <- theta - alpha * grad, for a flat `grad`, which it consumes (scales in place)."""
    state.t += 1
    theta = params.flat
    theta -= np.multiply(grad, state.alpha, out=grad)


def adam_step(state: OptimizerState, params: ParameterSet, grad: np.ndarray) -> None:
    """One bias-corrected Adam update for a flat `grad`, which it consumes as scratch.

    A bias correction 1 - beta**t that has rounded to exactly 1.0 (from
    t = 356 for m, t = 37,412 for v) is skipped: x / 1.0 == x in IEEE 754,
    so the update keeps its bits and saves a full-length pass.
    """
    state.t += 1
    bias1 = 1.0 - BETA1**state.t
    bias2 = 1.0 - BETA2**state.t
    theta, (m, v), tmp = params.flat, state.moments, params.work[1]
    v *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=tmp)
    v += np.multiply(tmp, grad, out=tmp)
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=grad)
    if bias1 == 1.0:
        np.multiply(m, state.alpha, out=grad)
    else:
        np.divide(m, bias1, out=grad)  # m_hat
        grad *= state.alpha
    if bias2 == 1.0:
        np.sqrt(v, out=tmp)
    else:
        np.divide(v, bias2, out=tmp)  # v_hat
        np.sqrt(tmp, out=tmp)
    tmp += EPS
    grad /= tmp
    theta -= grad


def shrink_perturb_apply(config: MethodConfig, params: ParameterSet, rng: RngStream) -> None:
    """theta <- (1 - s) * theta + sigma * eps, applied after every gradient step.

    eps is drawn per parameter from that parameter's own initialization
    distribution, so the noise scale tracks layer fan-in. It is drawn into
    the gradient row `params.work[0]`, which the optimizer step consumed.
    """
    noise = params.draw_initial(rng, params.work[0])
    noise *= config.noise
    theta = params.flat
    theta *= 1.0 - config.shrink
    theta += noise


@dataclass
class CbpState:
    """Per-hidden-neuron utility EMAs, ages, and fractional reset accumulators."""

    utilities: list[np.ndarray]
    ages: list[np.ndarray]
    accumulators: list[float]


def make_cbp_state(spec: NetworkSpec) -> CbpState:
    widths = spec.hidden_widths
    return CbpState(
        utilities=[np.zeros(w, dtype=np.float64) for w in widths],
        ages=[np.zeros(w, dtype=np.int64) for w in widths],
        accumulators=[0.0 for _ in widths],
    )


def cbp_step(
    cbp: CbpState,
    config: MethodConfig,
    opt: OptimizerState,
    params: ParameterSet,
    cache: ForwardCache,
    rng: RngStream,
) -> None:
    """Track neuron utilities and reinitialize mature, low-utility neurons.

    A hidden neuron's utility is an EMA of its batch-mean |activation| times
    the mean |weight| of its outgoing row. Each hidden layer accumulates
    replacement_rate * width per step; when the accumulator reaches 1, the
    lowest-utility neurons with age >= maturity_threshold are reset in one
    pass: incoming weights redrawn from the initialization distribution;
    bias, outgoing weights, utility, age and every optimizer moment zeroed.
    """
    decay = UTILITY_DECAY
    scratch = params.work[1]
    for layer in range(len(cbp.utilities)):
        width = cbp.utilities[layer].shape[0]
        w_in_name, b_name, w_out_name = f"w{layer}", f"b{layer}", f"w{layer + 1}"
        w_in, w_out = params.values[w_in_name], params.values[w_out_name]
        abs_out = np.abs(w_out, out=scratch[: w_out.size].reshape(w_out.shape))
        inst = np.mean(np.abs(cache.inputs[layer + 1]), axis=0) * np.mean(abs_out, axis=1)
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
        reset = mature[np.argsort(cbp.utilities[layer][mature], kind="stable")][:n_fire]
        cbp.utilities[layer][reset] = 0.0
        cbp.ages[layer][reset] = 0
        for row in (params.flat, *opt.moments):  # incoming weights are redrawn below
            tensors = params.named(row)
            tensors[w_in_name][:, reset] = 0.0
            tensors[b_name][reset] = 0.0
            tensors[w_out_name][reset, :] = 0.0
        # one draw: the same values as one draw per neuron, in reset order
        _, bound = params.init_spec[w_in_name]
        fresh = scratch[: reset.size * w_in.shape[0]].reshape(reset.size, -1)
        w_in[:, reset] = rng.uniform(-bound, bound, out=fresh).T


def apply_method_step(
    config: MethodConfig,
    opt: OptimizerState,
    params: ParameterSet,
    grad: np.ndarray,
    rng: RngStream,
    cache: ForwardCache | None = None,
    cbp: CbpState | None = None,
) -> None:
    """One full update: regularizer gradient, optimizer step, post-step edits.

    `grad` is the row `loss_and_grad` returned, laid out like `params.flat`;
    the update consumes it, adding the regularizer term in place.
    """
    if "lam" in METHODS[config.method] and config.lam != 0.0:
        grad += regularizer_gradient(config, params, rng)
    if opt.kind == "sgd":
        sgd_step(opt, params, grad)
    else:
        adam_step(opt, params, grad)
    if config.method == "shrink_perturb":
        shrink_perturb_apply(config, params, rng)
    elif config.method == "continual_backprop":
        cbp_step(cbp, config, opt, params, cache, rng)
