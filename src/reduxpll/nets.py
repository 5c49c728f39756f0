"""Dense feedforward nets with exact fp64 gradients.

Fixed architecture family: affine layers, tanh on hidden layers, softmax on
the output. tanh keeps everything smooth, so analytic gradients and the
hypergradient can be checked against central finite differences to tight
tolerances. All functions are pure: parameters and tapes are never mutated
in place, so one forward's tape can serve any number of backward passes, and
the training loop can check bitwise that a hypergradient left its predictor
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, DimensionError, NumericError

# Softmax outputs are floored here so log() can never see an exact zero.
PROB_FLOOR = 1e-300
# Cross-entropy clamps probabilities at this value inside the log.
CE_CLAMP = 1e-12
# Tolerance for "rows of a target matrix lie on the simplex".
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class MlpParams:
    """Parameters of one net: weights[i] is (fan_in, fan_out), biases[i] is (fan_out,)."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]


# Gradients share the container: same shapes, layer for layer.
Gradient = MlpParams


@dataclass(frozen=True)
class GradTape:
    """Cached forward activations for one batch; reusable by any number of backwards."""

    params: "MlpParams"
    inputs: list[np.ndarray]  # inputs[i] is what layer i consumed
    probs: np.ndarray


def init_mlp(sizes: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Random init with 1/sqrt(fan_in) scaled normal weights and zero biases."""
    if len(sizes) < 2:
        raise ContractViolation(f"need at least input and output sizes, got {sizes!r}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpParams(tuple(weights), tuple(biases))


def zeros_like_params(params: MlpParams) -> MlpParams:
    return MlpParams(
        tuple(np.zeros_like(w) for w in params.weights),
        tuple(np.zeros_like(b) for b in params.biases),
    )


def to_flat(params: MlpParams) -> np.ndarray:
    """Concatenate all parameters into one fp64 vector (bit-exact round trip)."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def from_flat(template: MlpParams, flat: np.ndarray) -> MlpParams:
    """Inverse of to_flat, using `template` for the layer shapes."""
    flat = np.asarray(flat, dtype=np.float64)
    need = sum(w.size + b.size for w, b in zip(template.weights, template.biases))
    if flat.size != need:
        raise DimensionError(f"flat vector has {flat.size} entries, template needs {need}")
    weights, biases = [], []
    pos = 0
    for w, b in zip(template.weights, template.biases):
        weights.append(flat[pos : pos + w.size].reshape(w.shape).copy())
        pos += w.size
        biases.append(flat[pos : pos + b.size].copy())
        pos += b.size
    return MlpParams(tuple(weights), tuple(biases))


def param_axpy(a: float, x: MlpParams, y: MlpParams) -> MlpParams:
    """a*x + y, layer by layer."""
    return MlpParams(
        tuple(a * wx + wy for wx, wy in zip(x.weights, y.weights)),
        tuple(a * bx + by for bx, by in zip(x.biases, y.biases)),
    )


def param_scale(a: float, x: MlpParams) -> MlpParams:
    return MlpParams(
        tuple(a * w for w in x.weights), tuple(a * b for b in x.biases)
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return np.maximum(p, PROB_FLOOR)


def forward(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, GradTape]:
    """Run the net on a (m, in_dim) batch; returns simplex rows and their tape."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[1] != params.in_dim:
        raise DimensionError(
            f"batch has {x.shape[1]} features, net expects {params.in_dim}"
        )
    inputs = []
    h = x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        a = h @ w + b
        h = a if i == last else np.tanh(a)
    probs = softmax(h)
    if not np.all(np.isfinite(probs)):
        raise NumericError("forward pass produced non-finite probabilities")
    return probs, GradTape(params=params, inputs=inputs, probs=probs)


def check_simplex_rows(mat: np.ndarray, what: str, tol: float = SIMPLEX_TOL) -> None:
    mat = np.atleast_2d(mat)
    if np.any(mat < -tol) or np.any(np.abs(mat.sum(axis=-1) - 1.0) > tol):
        raise ContractViolation(f"{what} rows are off the probability simplex (tol {tol})")


def backward_ce(
    tape: GradTape, probs: np.ndarray, targets: np.ndarray
) -> tuple[float, Gradient]:
    """Mean soft-target cross-entropy and its exact parameter gradient.

    loss = -(1/m) sum_i sum_j t_ij log p_ij, with p clamped at CE_CLAMP inside
    the log. The softmax+CE gradient shortcut (p - t)/m is used at the output.
    """
    probs = np.atleast_2d(probs)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.shape != probs.shape:
        raise DimensionError(
            f"targets shape {targets.shape} != probs shape {probs.shape}"
        )
    check_simplex_rows(targets, "cross-entropy target")
    m = probs.shape[0]
    loss = -float((targets * np.log(np.maximum(probs, CE_CLAMP))).sum()) / m
    if not np.isfinite(loss):
        raise NumericError(f"non-finite cross-entropy loss ({loss!r})")
    d_logits = (probs - targets) / m
    grad = _backward_layers(tape, d_logits)
    return loss, grad


def backward_probs_vjp(tape: GradTape, d_probs: np.ndarray) -> Gradient:
    """Parameter gradient for an arbitrary upstream gradient on the softmax output."""
    p = tape.probs
    d_probs = np.atleast_2d(d_probs)
    if d_probs.shape != p.shape:
        raise DimensionError(f"d_probs shape {d_probs.shape} != probs shape {p.shape}")
    d_logits = p * (d_probs - (d_probs * p).sum(axis=-1, keepdims=True))
    return _backward_layers(tape, d_logits)


def _backward_layers(tape: GradTape, d_out: np.ndarray) -> Gradient:
    n = len(tape.inputs)
    d_weights: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    d_a = d_out
    for i in range(n - 1, -1, -1):
        x = tape.inputs[i]
        d_weights[i] = x.T @ d_a
        d_biases[i] = d_a.sum(axis=0)
        if i > 0:
            d_h = d_a @ tape.params.weights[i].T
            h = tape.inputs[i]  # post-tanh activation = input of layer i
            d_a = d_h * (1.0 - h * h)
    return MlpParams(tuple(d_weights), tuple(d_biases))


def sgd_step(params: MlpParams, grad: Gradient, step_size: float) -> MlpParams:
    """params - step_size * grad as fresh arrays; the inputs are untouched."""
    if step_size < 0:
        raise ContractViolation(f"step_size must be >= 0, got {step_size}")
    return MlpParams(
        tuple(w - step_size * g for w, g in zip(params.weights, grad.weights)),
        tuple(b - step_size * g for b, g in zip(params.biases, grad.biases)),
    )


def forward_jvp(tape: GradTape, tangent: Gradient) -> np.ndarray:
    """Directional derivative of log-probs along `tangent` at the tape's forward.

    Returns d_logprobs where d_logprobs[i, j] is the derivative of log p_ij
    with respect to a unit move of the parameters along `tangent`. The primal
    activations come from the tape, so no layer of the net runs again.
    """
    params, inputs = tape.params, tape.inputs
    dh = np.zeros_like(inputs[0])
    last = params.n_layers - 1
    for i in range(params.n_layers):
        da = inputs[i] @ tangent.weights[i] + dh @ params.weights[i] + tangent.biases[i]
        if i == last:
            dh = da
        else:
            h = inputs[i + 1]  # post-tanh activation of layer i
            dh = (1.0 - h * h) * da
    # d log p_j = da_j - sum_k p_k da_k
    return dh - (tape.probs * dh).sum(axis=-1, keepdims=True)


# Maps (gamma, inner features) to a batch of inner targets plus a VJP pulling
# an upstream gradient on those targets back to gamma-shaped parameters.
PseudoLabelFn = Callable[
    [MlpParams, np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], Gradient]]
]


def hypergradient(
    theta: MlpParams,
    gamma: MlpParams,
    inner_batch: np.ndarray,
    outer_batch: np.ndarray,
    outer_targets: np.ndarray,
    beta2: float,
    pseudo_label_fn: PseudoLabelFn,
    *,
    inner_forward: tuple[np.ndarray, GradTape] | None = None,
) -> Gradient:
    """Exact gradient of the post-step validation loss with respect to gamma.

    The inner step is theta+ = theta - beta2 * grad_theta CE(f(x_in), V(gamma))
    and the outer loss is CE(f(x_out; theta+), y_out). Because the inner CE
    gradient is linear in the targets V, the full chain rule collapses to

        d L_out / d gamma = -beta2 * (dV/dgamma)^T B,
        B_ij = -(1/m) * d/ds log p_ij(theta + s*u) |_{s=0},  u = grad L_out(theta+),

    which is one reverse pass for u, one forward-mode pass for B, and one VJP
    through the pseudo-label map. No truncation: the second-order cross term
    is the whole computation.

    Theta runs forward on the inner batch once: that tape serves both the
    inner step and the forward-mode pass. `inner_forward` is the caller's
    `forward(theta, inner_batch)` result; when given, it is that tape.
    """
    inner_batch = np.atleast_2d(np.asarray(inner_batch, dtype=np.float64))
    m = inner_batch.shape[0]
    targets, vjp = pseudo_label_fn(gamma, inner_batch)

    probs_in, tape_in = (
        forward(theta, inner_batch) if inner_forward is None else inner_forward
    )
    _, g_inner = backward_ce(tape_in, probs_in, targets)
    theta_plus = sgd_step(theta, g_inner, beta2)

    probs_out, tape_out = forward(theta_plus, outer_batch)
    _, u = backward_ce(tape_out, probs_out, outer_targets)

    d_logprobs = forward_jvp(tape_in, u)
    sensitivity = -d_logprobs / m
    grad_gamma = param_scale(-beta2, vjp(sensitivity))

    flat = to_flat(grad_gamma)
    if not np.all(np.isfinite(flat)):
        raise NumericError(
            "non-finite hypergradient "
            f"(|targets|max={np.abs(targets).max():.3g}, "
            f"|u|max={np.abs(to_flat(u)).max():.3g})"
        )
    return grad_gamma
