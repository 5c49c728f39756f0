import functools

import numpy as np
import pytest

from reduxpll import nets, training
from reduxpll.errors import ContractViolation, DimensionError, NumericError

from conftest import ce_value, fd_gradient, random_simplex_rows, rel_error, zero_net


def test_zero_net_outputs_uniform_rows():
    params = nets.MlpParams((np.zeros((3, 4)),), (np.zeros(4),))
    probs, _ = nets.forward(params, np.random.default_rng(0).random((6, 3)))
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_identity_like_net_puts_argmax_at_hot_index():
    params = nets.MlpParams((10.0 * np.eye(4),), (np.zeros(4),))
    x = np.eye(4)[[2]]
    probs, _ = nets.forward(params, x)
    assert probs.argmax() == 2


def test_random_net_rows_sum_to_one():
    rng = np.random.default_rng(42)
    params = nets.init_mlp([5, 8, 6], rng)
    probs, _ = nets.forward(params, rng.random((4, 5)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert np.all(probs > 0.0)


def test_forward_shape_mismatch_raises():
    params = nets.MlpParams((np.zeros((3, 4)),), (np.zeros(4),))
    with pytest.raises(DimensionError):
        nets.forward(params, np.zeros((2, 5)))


def test_tape_serves_repeated_backwards_bit_for_bit():
    rng = np.random.default_rng(0)
    params = nets.init_mlp([3, 6, 4], rng)
    x = rng.random((5, 3))
    probs, tape = nets.forward(params, x)
    nets.backward_probs_vjp(tape, rng.standard_normal((5, 4)))
    for targets in (random_simplex_rows(rng, 5, 4), np.full((5, 4), 0.25)):
        loss, grad = nets.backward_ce(tape, probs, targets)
        fresh_probs, fresh_tape = nets.forward(params, x)
        fresh_loss, fresh_grad = nets.backward_ce(fresh_tape, fresh_probs, targets)
        assert loss == fresh_loss
        assert np.array_equal(nets.to_flat(grad), nets.to_flat(fresh_grad))


def test_flat_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    params = nets.init_mlp([4, 7, 3], rng)
    rebuilt = nets.from_flat(params, nets.to_flat(params))
    for a, b in zip(params.weights + params.biases, rebuilt.weights + rebuilt.biases):
        assert np.array_equal(a, b)


def _reference_to_flat(weights, biases):
    """The layout every net's buffer must have: W0, b0, W1, b1, ... concatenated."""
    lead = biases[0].shape[:-1]
    parts = []
    for w, b in zip(weights, biases):
        parts.append(w.reshape(*lead, -1))
        parts.append(b)
    return np.concatenate(parts, axis=-1)


@pytest.mark.parametrize("lead", [(), (3,), (3, 4)], ids=["one", "lanes", "lanes-branches"])
@pytest.mark.parametrize("seed", range(3))
def test_one_buffer_holds_every_layer_in_the_reference_layout(lead, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, size=int(rng.integers(2, 5))).tolist()
    weights = [rng.standard_normal((*lead, a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal((*lead, b)) for b in sizes[1:]]
    params = nets.MlpParams(weights, biases)
    flat = nets.to_flat(params)
    assert np.array_equal(flat, _reference_to_flat(weights, biases))
    for view, layer in zip(params.weights + params.biases, weights + biases):
        assert np.shares_memory(view, flat) and np.array_equal(view, layer)

    rebuilt = nets.from_flat(params, flat)
    assert nets.to_flat(rebuilt) is flat
    for view in rebuilt.weights + rebuilt.biases:
        assert np.shares_memory(view, flat)

    grad = nets.from_flat(params, rng.standard_normal(flat.shape))
    kept = flat.copy(), nets.to_flat(grad).copy()
    stepped = nets.sgd_step(params, grad, 0.3)
    assert np.array_equal(flat, kept[0]) and np.array_equal(nets.to_flat(grad), kept[1])
    assert not np.shares_memory(nets.to_flat(stepped), flat)
    assert np.array_equal(
        nets.to_flat(stepped),
        _reference_to_flat(
            [w - 0.3 * g for w, g in zip(weights, grad.weights)],
            [b - 0.3 * g for b, g in zip(biases, grad.biases)],
        ),
    )

    x = rng.standard_normal((5, sizes[0]))  # one batch shared by every net
    probs, tape = nets.forward(params, x)
    _, backward = nets.backward_ce(tape, probs, np.full(probs.shape, 1.0 / sizes[-1]))
    assert nets.to_flat(backward).shape == flat.shape
    for view in backward.weights + backward.biases:
        assert np.shares_memory(view, nets.to_flat(backward))


def test_stack_and_take_index_one_buffer():
    rng = np.random.default_rng(4)
    lanes = [nets.init_mlp([3, 5, 2], rng) for _ in range(4)]
    stacked = nets.stack(lanes)
    assert np.array_equal(nets.to_flat(stacked), np.stack([nets.to_flat(p) for p in lanes]))
    one, some = nets.take(stacked, 2), nets.take(stacked, [3, 0])
    assert np.array_equal(nets.to_flat(one), nets.to_flat(lanes[2]))
    assert np.array_equal(nets.to_flat(some), nets.to_flat(stacked)[[3, 0]])
    for taken in (one, some):  # copies, not views of the stack
        assert not np.shares_memory(nets.to_flat(taken), nets.to_flat(stacked))
    with pytest.raises(DimensionError):  # both buffers hold 9 numbers
        nets.stack([nets.init_mlp([2, 2, 1], rng), nets.init_mlp([2, 3], rng)])


def test_from_flat_rejects_wrong_length():
    params = nets.init_mlp([3, 4], np.random.default_rng(0))
    with pytest.raises(DimensionError):
        nets.from_flat(params, np.zeros(5))


def test_init_is_deterministic_per_seed():
    a = nets.init_mlp([4, 5, 3], np.random.default_rng(9))
    b = nets.init_mlp([4, 5, 3], np.random.default_rng(9))
    assert np.array_equal(nets.to_flat(a), nets.to_flat(b))


# -- cross-entropy backward ---------------------------------------------------

def test_ce_gradient_zero_when_targets_match_uniform_probs():
    params = nets.MlpParams((np.zeros((3, 4)),), (np.zeros(4),))
    x = np.random.default_rng(1).random((5, 3))
    probs, tape = nets.forward(params, x)
    _, grad = nets.backward_ce(tape, probs, np.full((5, 4), 0.25))
    assert np.all(nets.to_flat(grad) == 0.0)


def test_ce_loss_tiny_for_confident_correct_prediction():
    params = nets.MlpParams((np.zeros((2, 3)),), (np.array([30.0, 0.0, 0.0]),))
    x = np.zeros((1, 2))
    probs, tape = nets.forward(params, x)
    targets = np.array([[1.0, 0.0, 0.0]])
    loss, _ = nets.backward_ce(tape, probs, targets)
    assert loss <= 1e-6


def test_ce_rejects_off_simplex_targets():
    rng = np.random.default_rng(0)
    params = nets.init_mlp([3, 4], rng)
    probs, tape = nets.forward(params, rng.random((2, 3)))
    bad = np.full((2, 4), 0.3)
    with pytest.raises(ContractViolation):
        nets.backward_ce(tape, probs, bad)


@pytest.mark.parametrize("lanes", [None, 3])
def test_ce_rejects_targets_with_a_negative_entry(lanes):
    # every row sums to 1, and one entry of the last row of the last lane is -0.2
    rng = np.random.default_rng(4)
    one = [3, 4]
    params = (
        nets.init_mlp(one, rng)
        if lanes is None
        else nets.stack([nets.init_mlp(one, rng) for _ in range(lanes)])
    )
    probs, tape = nets.forward(params, rng.random((2, 3)))
    targets = random_simplex_rows(rng, (lanes or 1) * 2, 4).reshape(probs.shape)
    nets.backward_ce(tape, probs, targets)
    targets.reshape(-1, 4)[-1] = [1.2, -0.2, 0.0, 0.0]  # a view: the last lane's last row
    with pytest.raises(ContractViolation, match="off the probability simplex"):
        nets.backward_ce(tape, probs, targets)


def _elementwise_simplex_verdict(mat, tol=nets.SIMPLEX_TOL):
    """The simplex-row check written with one comparison per entry (the reference)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    return bool(np.any(mat < -tol) or np.any(np.abs(mat.sum(axis=-1) - 1.0) > tol))


@pytest.mark.parametrize(
    "mat",
    [
        [[0.5, 0.5]],
        [[1.2, -0.2]],
        [[0.7, 0.7]],
        [[np.nan, 1.0]],
        [[np.nan, -1.0]],  # a NaN beside a negative entry: reject, as the reference does
        [[0.5, 0.5], [np.nan, np.nan]],
        [[0.5, 0.5], [np.nan, 0.5], [0.9, 0.9]],  # a NaN row beside a bad row sum
        [[np.inf, 0.0]],
        [[-np.inf, 1.0]],
        [[np.inf, -np.inf]],
        [[0.0, 1.0, 0.0]],
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        [[[0.5, 0.5]], [[np.nan, -1.0]]],  # lanes
    ],
)
def test_simplex_check_gives_the_elementwise_verdict(mat):
    expected = _elementwise_simplex_verdict(mat)
    try:
        nets.check_simplex_rows(np.asarray(mat, dtype=np.float64), "test")
        raised = False
    except ContractViolation:
        raised = True
    assert raised == expected


@pytest.mark.parametrize("seed", range(20))
def test_backward_ce_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = nets.init_mlp([3, 4, 3], rng)
    x = rng.standard_normal((5, 3))
    targets = rng.random((5, 3)) + 1e-3
    targets /= targets.sum(axis=1, keepdims=True)

    probs, tape = nets.forward(params, x)
    _, grad = nets.backward_ce(tape, probs, targets)

    def loss_fn(flat):
        p, _ = nets.forward(nets.from_flat(params, flat), x)
        return ce_value(p, targets)

    numeric = fd_gradient(loss_fn, nets.to_flat(params))
    assert rel_error(nets.to_flat(grad), numeric) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_backward_probs_vjp_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    params = nets.init_mlp([3, 5, 4], rng)
    x = rng.standard_normal((6, 3))
    upstream = rng.standard_normal((6, 4))

    probs, tape = nets.forward(params, x)
    grad = nets.backward_probs_vjp(tape, upstream)

    def scalar_fn(flat):
        p, _ = nets.forward(nets.from_flat(params, flat), x)
        return float((p * upstream).sum())

    numeric = fd_gradient(scalar_fn, nets.to_flat(params))
    assert rel_error(nets.to_flat(grad), numeric) < 1e-6


# -- sgd ----------------------------------------------------------------------

def test_sgd_zero_gradient_is_identity():
    params = nets.init_mlp([3, 4], np.random.default_rng(0))
    out = nets.sgd_step(params, zero_net(params), 0.5)
    assert np.array_equal(nets.to_flat(out), nets.to_flat(params))


def test_sgd_with_grad_equal_params_and_unit_step_zeroes_everything():
    params = nets.init_mlp([3, 4], np.random.default_rng(1))
    out = nets.sgd_step(params, params, 1.0)
    assert np.all(nets.to_flat(out) == 0.0)


def test_sgd_two_steps_compose_linearly_for_fixed_gradient():
    rng = np.random.default_rng(2)
    params = nets.init_mlp([3, 4], rng)
    grad = nets.init_mlp([3, 4], rng)
    twice = nets.sgd_step(nets.sgd_step(params, grad, 0.1), grad, 0.2)
    once = nets.sgd_step(params, grad, 0.3)
    assert np.allclose(nets.to_flat(twice), nets.to_flat(once), atol=1e-15)


def test_sgd_never_mutates_inputs():
    rng = np.random.default_rng(3)
    params = nets.init_mlp([3, 4], rng)
    grad = nets.init_mlp([3, 4], rng)
    before = nets.to_flat(params).copy()
    nets.sgd_step(params, grad, 0.7)
    assert np.array_equal(nets.to_flat(params), before)


# -- jvp and hypergradient ------------------------------------------------------

def test_batch_functions_write_only_buffers_they_made():
    """forward, both backwards, the JVP and the hypergradient leave every input,
    every parameter buffer and every earlier tape bit-identical."""
    rng = np.random.default_rng(11)
    sizes = [3, 5, 4, 3]
    theta = nets.stack([nets.init_mlp(sizes, rng) for _ in range(2)])
    gamma = nets.stack([nets.init_mlp(sizes, rng) for _ in range(2)])
    tangent = nets.stack([nets.init_mlp(sizes, rng) for _ in range(2)])
    x = rng.standard_normal((6, 3))  # one batch shared by both lanes
    x_out = rng.standard_normal((2, 7, 3))
    targets = random_simplex_rows(rng, 12, 3).reshape(2, 6, 3)
    y_out = np.eye(3)[rng.integers(0, 3, (2, 7))]
    d_probs = rng.standard_normal((2, 6, 3))
    U = _random_reduction_stack(rng, 12, 3).reshape(2, 6, 3, 3)

    def fn(gamma_params, feats):
        w, tape = nets.forward(gamma_params, feats)
        return np.einsum("...ij,...ijr->...ir", w, U), lambda d: nets.backward_probs_vjp(
            tape, np.einsum("...ir,...ijr->...ij", d, U)
        )

    probs, tape = nets.forward(theta, x)
    watched = [x, x_out, targets, y_out, d_probs, U, theta.flat, gamma.flat, tangent.flat]
    watched += [probs, tape.probs, *tape.inputs]
    before = [a.copy() for a in watched]

    def unchanged():
        return all(a.tobytes() == b.tobytes() for a, b in zip(watched, before))

    for call in (
        lambda: nets.forward(theta, x),
        lambda: nets.backward_ce(tape, probs, targets),
        lambda: nets.backward_probs_vjp(tape, d_probs),
        lambda: nets.forward_jvp(tape, tangent),
        lambda: nets.hypergradient(theta, gamma, x, x_out, y_out, 0.3, fn),
        lambda: nets.hypergradient(
            theta, gamma, x, x_out, y_out, 0.3, fn, inner_forward=(probs, tape)
        ),
    ):
        call()
        assert unchanged()
    # a second tape made after the calls is the first one, bit for bit
    probs_again, tape_again = nets.forward(theta, x)
    assert probs_again.tobytes() == probs.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(tape_again.inputs, tape.inputs))


@pytest.mark.parametrize("seed", range(5))
def test_forward_jvp_matches_directional_finite_difference(seed):
    rng = np.random.default_rng(200 + seed)
    params = nets.init_mlp([3, 4, 3], rng)
    direction = nets.init_mlp([3, 4, 3], rng)
    x = rng.standard_normal((4, 3))

    _, tape = nets.forward(params, x)
    d_logprobs = nets.forward_jvp(tape, direction)

    step = 1e-6
    flat = nets.to_flat(params)
    d_flat = nets.to_flat(direction)
    p_up, _ = nets.forward(nets.from_flat(params, flat + step * d_flat), x)
    p_dn, _ = nets.forward(nets.from_flat(params, flat - step * d_flat), x)
    numeric = (np.log(p_up) - np.log(p_dn)) / (2.0 * step)
    assert rel_error(d_logprobs.ravel(), numeric.ravel()) < 1e-6


def _meta_pseudo_label_fn(U):
    """Targets = softmax(g(x)) @ U with the exact VJP: the trainer's own map."""
    return functools.partial(training._reduction_targets, U)


def _random_reduction_stack(rng, m, c):
    U = rng.random((m, c, c)) + 1e-3
    return U / U.sum(axis=2, keepdims=True)


def test_hypergradient_zero_when_beta2_zero():
    rng = np.random.default_rng(5)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((4, 3))
    x_out = rng.standard_normal((4, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 4)]
    fn = _meta_pseudo_label_fn(_random_reduction_stack(rng, 4, 3))
    grad = nets.hypergradient(theta, gamma, x_in, x_out, y_out, 0.0, fn)
    assert np.all(nets.to_flat(grad) == 0.0)


def test_hypergradient_zero_when_targets_ignore_gamma():
    rng = np.random.default_rng(6)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((4, 3))
    x_out = rng.standard_normal((4, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 4)]
    fixed = np.full((4, 3), 1.0 / 3.0)

    def fn(gamma_params, x):
        return fixed, lambda d: zero_net(gamma_params)

    grad = nets.hypergradient(theta, gamma, x_in, x_out, y_out, 0.1, fn)
    assert np.all(nets.to_flat(grad) == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_hypergradient_matches_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((5, 3))
    x_out = rng.standard_normal((6, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 6)]
    U = _random_reduction_stack(rng, 5, 3)
    fn = _meta_pseudo_label_fn(U)
    beta2 = 0.2

    grad = nets.hypergradient(theta, gamma, x_in, x_out, y_out, beta2, fn)

    def outer_loss(gamma_flat):
        g = nets.from_flat(gamma, gamma_flat)
        targets, _ = fn(g, x_in)
        probs_in, tape_in = nets.forward(theta, x_in)
        _, g_inner = nets.backward_ce(tape_in, probs_in, targets)
        theta_plus = nets.sgd_step(theta, g_inner, beta2)
        probs_out, _ = nets.forward(theta_plus, x_out)
        return ce_value(probs_out, y_out)

    numeric = fd_gradient(outer_loss, nets.to_flat(gamma))
    assert rel_error(nets.to_flat(grad), numeric) < 1e-4


def test_hypergradient_reuses_caller_forward_bit_for_bit():
    rng = np.random.default_rng(8)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((5, 3))
    x_out = rng.standard_normal((6, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 6)]
    fn = _meta_pseudo_label_fn(_random_reduction_stack(rng, 5, 3))
    own = nets.hypergradient(theta, gamma, x_in, x_out, y_out, 0.2, fn)
    probs, tape = nets.forward(theta, x_in)
    shared = nets.hypergradient(
        theta, gamma, x_in, x_out, y_out, 0.2, fn, inner_forward=(probs, tape)
    )
    assert np.array_equal(nets.to_flat(own), nets.to_flat(shared))
    # the tape is still good for the caller's own backward afterwards
    _, grad = nets.backward_ce(tape, probs, np.full((5, 3), 1.0 / 3.0))
    assert np.all(np.isfinite(nets.to_flat(grad)))


def test_hypergradient_raises_on_nonfinite():
    rng = np.random.default_rng(7)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    bad_weights = tuple(w * np.nan for w in gamma.weights)
    gamma_bad = nets.MlpParams(bad_weights, gamma.biases)
    x = rng.standard_normal((4, 3))
    y = np.eye(3)[rng.integers(0, 3, 4)]
    fn = _meta_pseudo_label_fn(_random_reduction_stack(rng, 4, 3))
    with pytest.raises((NumericError, ContractViolation)):
        nets.hypergradient(theta, gamma_bad, x, x, y, 0.1, fn)
