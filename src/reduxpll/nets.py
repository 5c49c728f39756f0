"""Dense feedforward nets with exact fp64 gradients.

Fixed architecture family: affine layers, tanh on hidden layers, softmax on
the output. tanh keeps everything smooth, so analytic gradients and the
hypergradient can be checked against central finite differences to tight
tolerances.

Each net (and each gradient) is one contiguous fp64 buffer, `flat`, laid out
W0, b0, W1, b1, ...; its `weights`/`biases` are views into it, so an optimizer
step, a snapshot or a checkpoint row is one array operation. All functions
are pure: a function writes only buffers it has just made, before it hands
them on, so one forward's tape can serve any number of backward passes (a
tape keeps the tanh slopes it computes for them, once each).
A net's `flat` is the buffer itself, and `from_flat` wraps one without
copying it, so a caller that keeps a buffer to compare later (the training
loop's check that a hypergradient left its predictor untouched) keeps a copy.

Every function is rank-polymorphic over a leading lane axis: a lane stack of
S nets of one shape has a (S, P) buffer, so weights[i] is (S, fan_in,
fan_out) and biases[i] is (S, fan_out), a batch is (S, m, in_dim) (or one
(m, in_dim) batch shared by all lanes), and each lane's slice of every result
is bit-identical to the result for that net alone. numpy's stacked matmul
runs one gemm per slice, and every reduction runs along the same axis as for
one net.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, DimensionError, NumericError

# Softmax outputs are floored here so log() can never see an exact zero.
PROB_FLOOR = 1e-300
# Cross-entropy clamps probabilities at this value inside the log.
CE_CLAMP = 1e-12
# Tolerance for "rows of a target matrix lie on the simplex".
SIMPLEX_TOL = 1e-9


class MlpParams:
    """One net, or a lane stack of nets of one shape, in one fp64 buffer.

    `flat` is (*lanes, P) and `sizes` is one net's layer widths (in_dim, ...,
    out_dim). weights[i] (*lanes, fan_in, fan_out) and biases[i] (*lanes,
    fan_out) are views into `flat`. `MlpParams(weights, biases)` copies the
    given layers into a new buffer.
    """

    flat: np.ndarray
    sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases):
            raise DimensionError(f"{len(weights)} weight arrays for {len(biases)} biases")
        self.sizes = (np.shape(weights[0])[-2], *(np.shape(b)[-1] for b in biases))
        self.flat = np.empty((*np.shape(biases[0])[:-1], _n_params(self.sizes)))
        for view, layer in zip(self.weights + self.biases, (*weights, *biases)):
            if np.shape(layer) != view.shape:
                raise DimensionError(f"layer of shape {np.shape(layer)} where {view.shape} fits")
            view[...] = layer

    def __getattr__(self, name: str):
        # weights and biases are made on first use: many buffers (momentum
        # sums, gradients fed only to sgd_step) never need their layers
        if name not in ("weights", "biases"):
            raise AttributeError(name)
        flat, layers = self.flat, _layout(self.sizes)
        lead = flat.shape[:-1]
        self.weights = tuple([flat[..., cols].reshape(lead + shape) for cols, shape, _ in layers])
        self.biases = tuple([flat[..., cols] for _, _, cols in layers])
        return getattr(self, name)


# Gradients share the container: same layout, layer for layer.
Gradient = MlpParams


@functools.cache
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
    """Per layer of nets of widths `sizes`: its weight columns of the buffer,
    the weight shape and its bias columns."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = pos + fan_in * fan_out
        layers.append((slice(pos, end), (fan_in, fan_out), slice(end, end + fan_out)))
        pos = end + fan_out
    return tuple(layers)


def _n_params(sizes: tuple[int, ...]) -> int:
    return _layout(sizes)[-1][2].stop


def _wrap(flat: np.ndarray, sizes: tuple[int, ...]) -> MlpParams:
    """The nets whose buffer is `flat`, without a copy."""
    params = MlpParams.__new__(MlpParams)
    params.flat, params.sizes = flat, sizes
    return params


class GradTape:
    """Cached forward activations for one batch; reusable by any number of backwards.

    `inputs[i]` is what layer i of `params` consumed: for i > 0, the tanh
    activation h of layer i - 1, whose slope 1 - h*h every backward and JVP
    through that layer needs; `_slope(i)` computes it on first use and keeps it.
    """

    __slots__ = ("params", "inputs", "probs", "_slopes")

    def __init__(self, params: MlpParams, inputs: list[np.ndarray], probs: np.ndarray):
        self.params, self.inputs, self.probs = params, inputs, probs
        self._slopes = {}

    def _slope(self, i: int) -> np.ndarray:
        slope = self._slopes.get(i)
        if slope is None:
            x = self.inputs[i]
            slope = x * x
            np.subtract(1.0, slope, out=slope)
            self._slopes[i] = slope
        return slope


def init_mlp(sizes: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Random init with 1/sqrt(fan_in) scaled normal weights and zero biases."""
    if len(sizes) < 2:
        raise ContractViolation(f"need at least input and output sizes, got {sizes!r}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def stack(lanes: Sequence[MlpParams]) -> MlpParams:
    """Nets of one shape as one lane stack (a new leading axis)."""
    sizes = lanes[0].sizes
    if any(p.sizes != sizes for p in lanes):
        raise DimensionError(f"cannot stack nets of sizes {[p.sizes for p in lanes]}")
    return _wrap(np.stack([p.flat for p in lanes]), sizes)


def take(params: MlpParams, lanes) -> MlpParams:
    """The nets at `lanes` of a lane stack, copied; an int index drops the lane axis."""
    return _wrap(np.take(params.flat, lanes, axis=0), params.sizes)


def nonfinite_lanes(arr: np.ndarray, net_ndim: int) -> list[int]:
    """Lanes whose slice of `arr` holds a non-finite value.

    `net_ndim` is the rank `arr` has for one net; without a lane axis beyond
    it the list is empty.
    """
    if arr.ndim <= net_ndim:
        return []
    finite = np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1)
    return np.flatnonzero(~finite).tolist()


def from_flat(template: MlpParams, flat: np.ndarray) -> MlpParams:
    """Nets shaped like `template` whose buffer is `flat` (not a copy)."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != template.flat.shape:
        raise DimensionError(
            f"flat vector has shape {flat.shape}, template needs {template.flat.shape}"
        )
    return _wrap(flat, template.sizes)


def _least(arr: np.ndarray) -> float:
    """The least entry of `arr` that is not NaN (inf if there is none).

    So `_least(arr) < t` is `np.any(arr < t)` in one reduction, NaN and
    empty arrays included, where `arr.min()` would return NaN or raise.
    """
    return np.fmin.reduce(arr, axis=None, initial=np.inf)


def _greatest(arr: np.ndarray) -> float:
    """The greatest entry of `arr` that is not NaN (-inf if there is none)."""
    return np.fmax.reduce(arr, axis=None, initial=-np.inf)


# Reductions over the label (last) axis. numpy sums fewer than 8 entries left
# to right from 0.0, so below this many labels a chain of column adds gives
# the bits of np.add.reduce (and a chain of np.maximum those of
# np.maximum.reduce); from 8 entries it sums pairwise.
_COLUMN_LABELS = 8
# A reduction over 5 labels costs about 25 ns a row for a sum and 75 ns for a
# maximum, a column call 1-2 us up to a few hundred rows, and the sum's chain
# makes one call more (its 0.0 start). From these row counts, measured at
# c = 5, the column chain costs less.
_SUM_COLUMN_ROWS = 512
_MAX_COLUMN_ROWS = 128


def _by_columns(arr: np.ndarray, min_rows: int) -> bool:
    """Whether a reduction over the labels of `arr` goes column by column."""
    c = arr.shape[-1]
    return 2 <= c < _COLUMN_LABELS and arr.size >= min_rows * c


def _row_sum(arr: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """`np.add.reduce(arr, axis=-1, keepdims=keepdims)`, bit for bit."""
    if not _by_columns(arr, _SUM_COLUMN_ROWS):
        return np.add.reduce(arr, axis=-1, keepdims=keepdims)
    total = arr[..., 0] + 0.0  # numpy's start: 0.0 + (-0.0) is 0.0
    for j in range(1, arr.shape[-1]):
        total += arr[..., j]
    return total[..., None] if keepdims else total


def _row_max(arr: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """`np.maximum.reduce(arr, axis=-1, keepdims=keepdims)`, bit for bit."""
    if not _by_columns(arr, _MAX_COLUMN_ROWS):
        return np.maximum.reduce(arr, axis=-1, keepdims=keepdims)
    top = np.maximum(arr[..., 0], arr[..., 1])
    for j in range(2, arr.shape[-1]):
        np.maximum(top, arr[..., j], out=top)
    return top[..., None] if keepdims else top


def _sum_gap(arr: np.ndarray) -> float:
    """max |row sum - 1| over the rows of `arr` whose sum is not NaN (-inf if none)."""
    return _greatest(np.abs(_row_sum(arr) - 1.0))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _row_max(logits, keepdims=True)
    np.exp(z, out=z)
    z /= _row_sum(z, keepdims=True)
    return np.maximum(z, PROB_FLOOR, out=z)


def forward(params: MlpParams, batch: np.ndarray) -> tuple[np.ndarray, GradTape]:
    """Run the net on a (..., m, in_dim) fp64 batch; returns simplex rows and their tape."""
    in_dim = params.sizes[0]
    if batch.shape[-1] != in_dim:
        raise DimensionError(f"batch has {batch.shape[-1]} features, net expects {in_dim}")
    inputs = []
    h = batch
    last = len(params.sizes) - 2
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ w
        h += b[..., None, :]
        if i != last:
            np.tanh(h, out=h)
    probs = softmax(h)
    # softmax rows lie in [PROB_FLOOR, 1] or are NaN: the sum is NaN or finite
    if not math.isfinite(np.add.reduce(probs, axis=None)):
        raise NumericError(
            "forward pass produced non-finite probabilities",
            lanes=nonfinite_lanes(probs, 2),
        )
    return probs, GradTape(params, inputs, probs)


def check_simplex_rows(mat: np.ndarray, what: str) -> None:
    tol = SIMPLEX_TOL
    if _least(mat) < -tol or _sum_gap(mat) > tol:
        raise ContractViolation(f"{what} rows are off the probability simplex (tol {tol})")


def _ce_logit_grad(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(probs - targets) / m, the cross-entropy gradient at the logits, checked.

    The simplex check skips NaN entries (its reductions do), so NaN targets
    pass it; they are caught here as a non-finite gradient, which for targets
    that pass the check is exactly when the loss is non-finite.
    """
    if targets.shape != probs.shape:
        raise DimensionError(
            f"targets shape {targets.shape} != probs shape {probs.shape}"
        )
    check_simplex_rows(targets, "cross-entropy target")
    d_logits = probs - targets
    d_logits /= probs.shape[-2]
    # probs are softmax rows and the rows that pass the check are bounded, so
    # the sum cannot overflow: it is not finite exactly when an entry is not
    if not math.isfinite(np.add.reduce(d_logits, axis=None)):
        raise NumericError(
            "non-finite cross-entropy gradient", lanes=nonfinite_lanes(d_logits, 2)
        )
    return d_logits


def ce_gradient(tape: GradTape, targets: np.ndarray) -> Gradient:
    """The parameter gradient of `backward_ce`'s loss at the tape's probs, without the loss."""
    return _backward_layers(tape, _ce_logit_grad(tape.probs, targets))


def backward_ce(
    tape: GradTape, probs: np.ndarray, targets: np.ndarray
) -> tuple[float, Gradient]:
    """Mean soft-target cross-entropy and its exact parameter gradient.

    loss = -(1/m) sum_i sum_j t_ij log p_ij, with p clamped at CE_CLAMP inside
    the log. The softmax+CE gradient shortcut (p - t)/m is used at the output.
    The loss is a float for one net and one value per lane for a stack.
    """
    d_logits = _ce_logit_grad(probs, targets)
    m = probs.shape[-2]
    terms = np.maximum(probs, CE_CLAMP)
    np.log(terms, out=terms)
    terms *= targets
    loss = np.add.reduce(terms.reshape(*terms.shape[:-2], -1), axis=-1) / -m
    loss = float(loss) if loss.ndim == 0 else loss
    return loss, _backward_layers(tape, d_logits)


def backward_probs_vjp(tape: GradTape, d_probs: np.ndarray) -> Gradient:
    """Parameter gradient for an arbitrary upstream gradient on the softmax output."""
    p = tape.probs
    if d_probs.shape != p.shape:
        raise DimensionError(f"d_probs shape {d_probs.shape} != probs shape {p.shape}")
    d_logits = d_probs - _row_sum(d_probs * p, keepdims=True)
    d_logits *= p
    return _backward_layers(tape, d_logits)


def _backward_layers(tape: GradTape, d_out: np.ndarray) -> Gradient:
    params = tape.params
    grad = _wrap(np.empty((*d_out.shape[:-2], params.flat.shape[-1])), params.sizes)
    d_a = d_out
    for i in range(len(params.sizes) - 2, -1, -1):
        x = tape.inputs[i]  # for i > 0, the post-tanh activation of layer i - 1
        np.matmul(x.swapaxes(-1, -2), d_a, out=grad.weights[i])
        np.add.reduce(d_a, axis=-2, out=grad.biases[i])
        if i > 0:
            d_a = d_a @ params.weights[i].swapaxes(-1, -2)
            d_a *= tape._slope(i)
    return grad


def sgd_step(params: MlpParams, grad: Gradient, step_size: float) -> MlpParams:
    """params - step_size * grad in a fresh buffer; the inputs are untouched."""
    if step_size < 0:
        raise ContractViolation(f"step_size must be >= 0, got {step_size}")
    return _wrap(params.flat - step_size * grad.flat, params.sizes)


def forward_jvp(tape: GradTape, tangent: Gradient) -> np.ndarray:
    """Directional derivative of log-probs along `tangent` at the tape's forward.

    Returns d_logprobs where d_logprobs[i, j] is the derivative of log p_ij
    with respect to a unit move of the parameters along `tangent`. The primal
    activations come from the tape, so no layer of the net runs again.
    """
    params, inputs = tape.params, tape.inputs
    last = len(params.sizes) - 2
    for i in range(last + 1):
        da = inputs[i] @ tangent.weights[i]
        if i:  # the batch itself does not move
            da += dh @ params.weights[i]
        da += tangent.biases[i][..., None, :]
        if i != last:
            da *= tape._slope(i + 1)  # through the tanh of layer i
        dh = da
    # d log p_j = da_j - sum_k p_k da_k
    return dh - _row_sum(tape.probs * dh, keepdims=True)


def hypergradient(
    tape_in: GradTape,
    targets: np.ndarray,
    targets_vjp: Callable[[np.ndarray], Gradient],
    outer_batch: np.ndarray,
    outer_targets: np.ndarray,
    beta2: float,
) -> Gradient:
    """Exact gradient of the post-step validation loss with respect to gamma.

    `tape_in` is the caller's `forward(theta, x_in)` tape (theta is its
    `params`), `targets` are the inner targets V(gamma) on x_in and
    `targets_vjp` pulls a gradient on them back to gamma. The inner step is
    theta+ = theta - beta2 * grad_theta CE(f(x_in), V) and the outer loss is
    CE(f(x_out; theta+), y_out). Because the inner CE gradient is linear in
    the targets V, the full chain rule collapses to

        d L_out / d gamma = -beta2 * (dV/dgamma)^T B,
        B_ij = -(1/m) * d/ds log p_ij(theta + s*u) |_{s=0},  u = grad L_out(theta+),

    which is one reverse pass for u, one forward-mode pass for B, and one VJP
    through the target map. No truncation: the second-order cross term is the
    whole computation. The tape serves both the inner step and the
    forward-mode pass, so theta does not run forward on x_in here.
    """
    g_inner = ce_gradient(tape_in, targets)
    theta_plus = sgd_step(tape_in.params, g_inner, beta2)

    _, tape_out = forward(theta_plus, outer_batch)
    u = ce_gradient(tape_out, outer_targets)

    sensitivity = forward_jvp(tape_in, u)
    sensitivity /= -tape_in.probs.shape[-2]  # -(x / m), bit for bit
    vjp_gamma = targets_vjp(sensitivity)
    flat = -beta2 * vjp_gamma.flat
    if not np.logical_and.reduce(np.isfinite(flat), axis=None):
        raise NumericError(
            "non-finite hypergradient "
            f"(|targets|max={np.abs(targets).max():.3g}, "
            f"|u|max={np.abs(u.flat).max():.3g})",
            lanes=nonfinite_lanes(flat, 1),
        )
    return _wrap(flat, vjp_gamma.sizes)
