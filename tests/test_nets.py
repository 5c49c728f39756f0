import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert np.array_equal(grad.flat, fresh_grad.flat)


def test_flat_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    params = nets.init_mlp([4, 7, 3], rng)
    rebuilt = nets.from_flat(params, params.flat)
    for a, b in zip(params.weights + params.biases, rebuilt.weights + rebuilt.biases):
        assert np.array_equal(a, b)


def _reference_flat(weights, biases):
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
    flat = params.flat
    assert np.array_equal(flat, _reference_flat(weights, biases))
    for view, layer in zip(params.weights + params.biases, weights + biases):
        assert np.shares_memory(view, flat) and np.array_equal(view, layer)

    rebuilt = nets.from_flat(params, flat)
    assert rebuilt.flat is flat
    for view in rebuilt.weights + rebuilt.biases:
        assert np.shares_memory(view, flat)

    grad = nets.from_flat(params, rng.standard_normal(flat.shape))
    kept = flat.copy(), grad.flat.copy()
    stepped = nets.sgd_step(params, grad, 0.3)
    assert np.array_equal(flat, kept[0]) and np.array_equal(grad.flat, kept[1])
    assert not np.shares_memory(stepped.flat, flat)
    assert np.array_equal(
        stepped.flat,
        _reference_flat(
            [w - 0.3 * g for w, g in zip(weights, grad.weights)],
            [b - 0.3 * g for b, g in zip(biases, grad.biases)],
        ),
    )

    x = rng.standard_normal((5, sizes[0]))  # one batch shared by every net
    probs, tape = nets.forward(params, x)
    _, backward = nets.backward_ce(tape, probs, np.full(probs.shape, 1.0 / sizes[-1]))
    assert backward.flat.shape == flat.shape
    for view in backward.weights + backward.biases:
        assert np.shares_memory(view, backward.flat)


def test_stack_and_take_index_one_buffer():
    rng = np.random.default_rng(4)
    lanes = [nets.init_mlp([3, 5, 2], rng) for _ in range(4)]
    stacked = nets.stack(lanes)
    assert np.array_equal(stacked.flat, np.stack([p.flat for p in lanes]))
    one, some = nets.take(stacked, 2), nets.take(stacked, [3, 0])
    assert np.array_equal(one.flat, lanes[2].flat)
    assert np.array_equal(some.flat, stacked.flat[[3, 0]])
    for taken in (one, some):  # copies, not views of the stack
        assert not np.shares_memory(taken.flat, stacked.flat)
    with pytest.raises(DimensionError):  # both buffers hold 9 numbers
        nets.stack([nets.init_mlp([2, 2, 1], rng), nets.init_mlp([2, 3], rng)])


def test_from_flat_rejects_wrong_length():
    params = nets.init_mlp([3, 4], np.random.default_rng(0))
    with pytest.raises(DimensionError):
        nets.from_flat(params, np.zeros(5))


def test_init_is_deterministic_per_seed():
    a = nets.init_mlp([4, 5, 3], np.random.default_rng(9))
    b = nets.init_mlp([4, 5, 3], np.random.default_rng(9))
    assert np.array_equal(a.flat, b.flat)


# -- cross-entropy backward ---------------------------------------------------

def test_ce_gradient_zero_when_targets_match_uniform_probs():
    params = nets.MlpParams((np.zeros((3, 4)),), (np.zeros(4),))
    x = np.random.default_rng(1).random((5, 3))
    probs, tape = nets.forward(params, x)
    _, grad = nets.backward_ce(tape, probs, np.full((5, 4), 0.25))
    assert np.all(grad.flat == 0.0)


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


def test_ce_rejects_targets_of_another_shape():
    # without the check a (1, c) row broadcasts against the (m, c) batch and gives a loss
    rng = np.random.default_rng(0)
    params = nets.init_mlp([3, 4], rng)
    probs, tape = nets.forward(params, rng.random((5, 3)))
    with pytest.raises(DimensionError, match=r"targets shape \(1, 4\) != probs shape \(5, 4\)"):
        nets.backward_ce(tape, probs, np.full((1, 4), 0.25))


def test_probs_vjp_rejects_an_upstream_gradient_of_another_shape():
    # without the check a (1, c) row broadcasts against the (m, c) batch
    rng = np.random.default_rng(0)
    params = nets.init_mlp([3, 4], rng)
    _, tape = nets.forward(params, rng.random((5, 3)))
    with pytest.raises(DimensionError, match=r"d_probs shape \(1, 4\) != probs shape \(5, 4\)"):
        nets.backward_probs_vjp(tape, rng.standard_normal((1, 4)))


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

    numeric = fd_gradient(loss_fn, params.flat)
    assert rel_error(grad.flat, numeric) < 1e-6


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

    numeric = fd_gradient(scalar_fn, params.flat)
    assert rel_error(grad.flat, numeric) < 1e-6


# -- sgd ----------------------------------------------------------------------

def test_sgd_zero_gradient_is_identity():
    params = nets.init_mlp([3, 4], np.random.default_rng(0))
    out = nets.sgd_step(params, zero_net(params), 0.5)
    assert np.array_equal(out.flat, params.flat)


def test_sgd_with_grad_equal_params_and_unit_step_zeroes_everything():
    params = nets.init_mlp([3, 4], np.random.default_rng(1))
    out = nets.sgd_step(params, params, 1.0)
    assert np.all(out.flat == 0.0)


def test_sgd_two_steps_compose_linearly_for_fixed_gradient():
    rng = np.random.default_rng(2)
    params = nets.init_mlp([3, 4], rng)
    grad = nets.init_mlp([3, 4], rng)
    twice = nets.sgd_step(nets.sgd_step(params, grad, 0.1), grad, 0.2)
    once = nets.sgd_step(params, grad, 0.3)
    assert np.allclose(twice.flat, once.flat, atol=1e-15)


def test_sgd_never_mutates_inputs():
    rng = np.random.default_rng(3)
    params = nets.init_mlp([3, 4], rng)
    grad = nets.init_mlp([3, 4], rng)
    before = params.flat.copy()
    nets.sgd_step(params, grad, 0.7)
    assert np.array_equal(params.flat, before)


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
    meta_targets, meta_vjp = training._reduction_targets(U, gamma, x)

    probs, tape = nets.forward(theta, x)
    watched = [x, x_out, targets, y_out, d_probs, U, theta.flat, gamma.flat, tangent.flat]
    watched += [meta_targets, probs, tape.probs, *tape.inputs]
    before = [a.copy() for a in watched]

    def unchanged():
        return all(a.tobytes() == b.tobytes() for a, b in zip(watched, before))

    for call in (
        lambda: nets.forward(theta, x),
        lambda: nets.backward_ce(tape, probs, targets),
        lambda: nets.backward_probs_vjp(tape, d_probs),
        lambda: nets.forward_jvp(tape, tangent),
        lambda: nets.hypergradient(tape, meta_targets, meta_vjp, x_out, y_out, 0.3),
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
    flat = params.flat
    d_flat = direction.flat
    p_up, _ = nets.forward(nets.from_flat(params, flat + step * d_flat), x)
    p_dn, _ = nets.forward(nets.from_flat(params, flat - step * d_flat), x)
    numeric = (np.log(p_up) - np.log(p_dn)) / (2.0 * step)
    assert rel_error(d_logprobs.ravel(), numeric.ravel()) < 1e-6


def _random_reduction_stack(rng, m, c):
    U = rng.random((m, c, c)) + 1e-3
    return U / U.sum(axis=2, keepdims=True)


def _meta_hypergradient(theta, gamma, x_in, x_out, y_out, beta2, U):
    """The trainer's meta step: theta's tape on x_in and targets softmax(g(x_in)) @ U."""
    _, tape = nets.forward(theta, x_in)
    targets, vjp = training._reduction_targets(U, gamma, x_in)
    return nets.hypergradient(tape, targets, vjp, x_out, y_out, beta2)


def test_hypergradient_zero_when_beta2_zero():
    rng = np.random.default_rng(5)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((4, 3))
    x_out = rng.standard_normal((4, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 4)]
    U = _random_reduction_stack(rng, 4, 3)
    grad = _meta_hypergradient(theta, gamma, x_in, x_out, y_out, 0.0, U)
    assert np.all(grad.flat == 0.0)


def test_hypergradient_zero_when_targets_ignore_gamma():
    rng = np.random.default_rng(6)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((4, 3))
    x_out = rng.standard_normal((4, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 4)]
    fixed = np.full((4, 3), 1.0 / 3.0)
    _, tape = nets.forward(theta, x_in)

    grad = nets.hypergradient(tape, fixed, lambda d: zero_net(gamma), x_out, y_out, 0.1)
    assert np.all(grad.flat == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_hypergradient_matches_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    theta = nets.init_mlp([3, 4, 3], rng)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x_in = rng.standard_normal((5, 3))
    x_out = rng.standard_normal((6, 3))
    y_out = np.eye(3)[rng.integers(0, 3, 6)]
    U = _random_reduction_stack(rng, 5, 3)
    beta2 = 0.2

    grad = _meta_hypergradient(theta, gamma, x_in, x_out, y_out, beta2, U)

    def outer_loss(gamma_flat):
        targets, _ = training._reduction_targets(U, nets.from_flat(gamma, gamma_flat), x_in)
        probs_in, tape_in = nets.forward(theta, x_in)
        _, g_inner = nets.backward_ce(tape_in, probs_in, targets)
        theta_plus = nets.sgd_step(theta, g_inner, beta2)
        probs_out, _ = nets.forward(theta_plus, x_out)
        return ce_value(probs_out, y_out)

    numeric = fd_gradient(outer_loss, gamma.flat)
    assert rel_error(grad.flat, numeric) < 1e-4


def test_hypergradient_raises_on_nonfinite():
    """Finite tape and targets, a VJP that overflows in lane 1 of 2: the guard names lane 1."""
    rng = np.random.default_rng(7)
    theta = nets.stack([nets.init_mlp([3, 4, 3], rng) for _ in range(2)])
    gamma = nets.stack([nets.init_mlp([3, 4, 3], rng) for _ in range(2)])
    x = rng.standard_normal((2, 4, 3))
    y = np.eye(3)[rng.integers(0, 3, (2, 4))]
    U = _random_reduction_stack(rng, 8, 3).reshape(2, 4, 3, 3)
    _, tape = nets.forward(theta, x)
    targets, vjp = training._reduction_targets(U, gamma, x)

    def overflowing_vjp(d_targets):
        grad = vjp(d_targets)
        with np.errstate(over="ignore"):
            grad.flat[1] *= 1e300
            grad.flat[1] *= 1e300
        return grad

    with pytest.raises(NumericError, match="non-finite hypergradient") as err:
        nets.hypergradient(tape, targets, overflowing_vjp, x, y, 0.1)
    assert err.value.lanes == [1]


def _with_a_nan_row(rows, lane):
    """`rows` with a NaN row in `lane`: it passes the simplex check, whose reductions skip NaN."""
    bad = rows.copy()
    bad[lane, 0] = np.nan
    nets.check_simplex_rows(bad, "test")
    return bad


@pytest.mark.parametrize("nan_in", ["inner", "outer"])
def test_hypergradient_names_the_lane_of_nan_cross_entropy_targets(nan_in):
    """NaN inner targets or validation targets in lane 1 of 3 stop at the
    gradient of their cross-entropy, before any later step sees them."""
    rng = np.random.default_rng(8)
    theta = nets.stack([nets.init_mlp([3, 4, 3], rng) for _ in range(3)])
    gamma = nets.stack([nets.init_mlp([3, 4, 3], rng) for _ in range(3)])
    x = rng.standard_normal((3, 4, 3))
    y = np.eye(3)[rng.integers(0, 3, (3, 4))]
    U = _random_reduction_stack(rng, 12, 3).reshape(3, 4, 3, 3)
    _, tape = nets.forward(theta, x)
    targets, vjp = training._reduction_targets(U, gamma, x)
    if nan_in == "inner":
        targets = _with_a_nan_row(targets, 1)
    else:
        y = _with_a_nan_row(y, 1)
    with pytest.raises(NumericError, match="non-finite cross-entropy gradient") as err:
        nets.hypergradient(tape, targets, vjp, x, y, 0.1)
    assert err.value.lanes == [1]


def test_backward_ce_names_the_lane_of_nan_targets():
    rng = np.random.default_rng(9)
    theta = nets.stack([nets.init_mlp([3, 4, 3], rng) for _ in range(3)])
    probs, tape = nets.forward(theta, rng.standard_normal((3, 5, 3)))
    targets = _with_a_nan_row(random_simplex_rows(rng, 15, 3).reshape(3, 5, 3), 2)
    with pytest.raises(NumericError, match="non-finite cross-entropy gradient") as err:
        nets.backward_ce(tape, probs, targets)
    assert err.value.lanes == [2]


# -- reductions over the label axis ---------------------------------------------

# values that test the order of a reduction: signed zeros, ties, non-finite
_SPECIAL = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
)


@settings(max_examples=200, deadline=None)
@given(
    c=st.integers(2, 7),
    rows=st.sampled_from([1, 7, 64, 127, 128, 129, 511, 512, 513, 700]),
    lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
    special=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_label_axis_reductions_are_numpys_bit_for_bit(c, rows, lead, special, seed):
    """Row sums and maxima equal numpy's one-call reductions on both sides of
    the column thresholds, for one net and lane stacks alike."""
    rng = np.random.default_rng(seed)
    shape = (*lead, rows, c)
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    pick = rng.random(shape) < special
    arr[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
    with np.errstate(invalid="ignore", over="ignore"):
        for keepdims in (False, True):
            for ours, numpys in (
                (nets._row_sum(arr, keepdims), np.add.reduce(arr, axis=-1, keepdims=keepdims)),
                (nets._row_max(arr, keepdims), np.maximum.reduce(arr, axis=-1, keepdims=keepdims)),
            ):
                assert ours.shape == numpys.shape
                assert ours.tobytes() == numpys.tobytes()


@pytest.mark.parametrize("lead", [(600,), (3, 200)])
def test_column_sums_of_negative_zeros_are_numpys_positive_zero(lead):
    rows = np.full((*lead, 5), -0.0)
    assert nets._by_columns(rows, nets._SUM_COLUMN_ROWS)
    assert nets._row_sum(rows).tobytes() == np.add.reduce(rows, axis=-1).tobytes()
    assert not np.signbit(nets._row_sum(rows)).any()


@pytest.mark.parametrize("c", [8, 9, 12])
def test_eight_or_more_labels_keep_numpys_pairwise_reduction(c):
    """numpy sums 8 or more entries pairwise, which a column chain does not."""
    row = np.ones(c)
    row[0], row[-1] = 1e16, -1e16
    arr = np.tile(row, (1000, 1))
    chain = arr[:, 0] + 0.0
    for j in range(1, c):
        chain += arr[:, j]
    pairwise = np.add.reduce(arr, axis=-1)
    assert not np.array_equal(chain, pairwise)
    for min_rows in (nets._SUM_COLUMN_ROWS, nets._MAX_COLUMN_ROWS):
        assert not nets._by_columns(arr, min_rows)
    assert nets._row_sum(arr).tobytes() == pairwise.tobytes()
