import numpy as np
import pytest

from reduxpll import nets, pseudo
from reduxpll.errors import ConfigError, ContractViolation

from conftest import fd_gradient, random_candidates, random_simplex_rows, rel_error


def test_basic_pseudo_worked_example():
    mu = pseudo.basic_pseudo([0.1, 0.6, 0.3], [True, True, False])
    assert np.allclose(mu, [1 / 7, 6 / 7, 0.0], atol=1e-15)


def test_basic_pseudo_uniform_output_gives_uniform_over_candidates():
    mu = pseudo.basic_pseudo([0.25, 0.25, 0.25, 0.25], [True, True, True, False])
    assert np.allclose(mu, [1 / 3, 1 / 3, 1 / 3, 0.0])


def test_basic_pseudo_preserves_candidate_argmax():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = int(rng.integers(3, 8))
        probs = random_simplex_rows(rng, 1, c)[0]
        mask = random_candidates(rng, 1, c)[0]
        mu = pseudo.basic_pseudo(probs, mask)
        masked = np.where(mask, probs, -np.inf)
        assert mu.argmax() == masked.argmax()


def test_basic_pseudo_zero_mass_fallback_is_uniform(caplog):
    with caplog.at_level("WARNING"):
        mu = pseudo.basic_pseudo([0.0, 0.0, 1.0], [True, True, False])
    assert np.allclose(mu, [0.5, 0.5, 0.0])
    assert "uniform" in caplog.text


def test_reduction_row_worked_example():
    u = pseudo.reduction_row([0.2, 0.5, 0.3], [True, True, True], excluded_label=1)
    assert np.allclose(u, [0.4, 0.0, 0.6], atol=1e-15)


def test_reduction_row_single_remaining_candidate_is_one_hot():
    u = pseudo.reduction_row([0.3, 0.3, 0.4], [True, False, True], excluded_label=2)
    assert np.allclose(u, [1.0, 0.0, 0.0])


def test_reduction_row_noncandidate_label_reduces_to_basic():
    probs = [0.2, 0.5, 0.3]
    mask = [True, True, False]
    u = pseudo.reduction_row(probs, mask, excluded_label=2)
    assert np.allclose(u, pseudo.basic_pseudo(probs, mask))


def test_reduction_row_empty_support_raises():
    with pytest.raises(ContractViolation):
        pseudo.reduction_row([0.5, 0.5], [True, False], excluded_label=0)


def test_reduction_rows_sum_to_one_over_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        c = int(rng.integers(3, 8))
        probs = random_simplex_rows(rng, 1, c)[0]
        mask = random_candidates(rng, 1, c)[0]
        j = int(rng.integers(0, c))
        if mask[j] and mask.sum() == 1:
            continue
        u = pseudo.reduction_row(probs, mask, j)
        assert abs(u.sum() - 1.0) < 1e-12


def test_reduction_pseudo_one_hot_weight_selects_row():
    U = np.array([[0.0, 0.4, 0.6], [0.7, 0.0, 0.3], [0.2, 0.8, 0.0]])
    v = pseudo.reduction_pseudo(np.array([0.0, 1.0, 0.0]), U)
    assert np.allclose(v, U[1])


def test_reduction_pseudo_identical_rows_collapse_for_any_weight():
    row = np.array([0.1, 0.2, 0.7])
    U = np.tile(row, (3, 1))
    v = pseudo.reduction_pseudo(np.array([0.2, 0.5, 0.3]), U)
    assert np.allclose(v, row)


def test_reduction_pseudo_worked_matrix_vector_product():
    U = np.array([[0.0, 0.4, 0.6], [0.7, 0.0, 0.3], [0.2, 0.8, 0.0]])
    v = pseudo.reduction_pseudo(np.array([0.5, 0.25, 0.25]), U)
    assert np.allclose(v, [0.225, 0.4, 0.375], atol=1e-15)


@pytest.mark.parametrize(
    "alpha,expected",
    [(1.0, [1.0, 0.0, 0.0]), (0.0, [0.0, 1.0, 0.0]), (0.5, [0.5, 0.5, 0.0])],
)
def test_combine_endpoints_and_midpoint(alpha, expected):
    q = pseudo.combine([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], alpha)
    assert np.allclose(q, expected)


@pytest.mark.parametrize("alpha", [-0.1, 1.1])
def test_combine_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ConfigError):
        pseudo.combine([1.0, 0.0], [0.0, 1.0], alpha)


def test_meta_weights_zero_net_is_uniform():
    gamma = nets.MlpParams((np.zeros((4, 5)),), (np.zeros(5),))
    w = pseudo.meta_weights(gamma, np.array([1.0, -2.0, 0.5, 3.0]))
    assert np.allclose(w, 0.2, atol=1e-15)


def test_meta_weights_always_on_simplex():
    rng = np.random.default_rng(2)
    gamma = nets.init_mlp([3, 6, 4], rng)
    w = pseudo.meta_weights(gamma, rng.standard_normal((50, 3)))
    assert np.all(w > 0.0)
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12


def test_meta_weights_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    gamma = nets.init_mlp([3, 4, 3], rng)
    x = rng.standard_normal((1, 3))

    for out_idx in range(3):
        probs, tape = nets.forward(gamma, x)
        upstream = np.zeros((1, 3))
        upstream[0, out_idx] = 1.0
        analytic = nets.to_flat(nets.backward_probs_vjp(tape, upstream))

        def w_component(flat, k=out_idx):
            w = pseudo.meta_weights(nets.from_flat(gamma, flat), x)
            return float(w[0, k])

        numeric = fd_gradient(w_component, nets.to_flat(gamma), step=1e-6)
        assert rel_error(analytic, numeric) < 1e-6


def test_initial_state_is_uniform_over_legal_support():
    cands = np.array([[True, True, False], [True, False, True]])
    state = pseudo.PseudoLabelState.initial(cands, alpha=0.3)
    assert np.allclose(state.mu[0], [0.5, 0.5, 0.0])
    # row 0 of instance 0 excludes label 0: uniform over {1}
    assert np.allclose(state.U[0, 0], [0.0, 1.0, 0.0])
    assert np.allclose(state.U[0, 2], [0.5, 0.5, 0.0])
    state.validate(cands)


def test_state_validate_catches_off_support_mass():
    cands = np.array([[True, True, False]])
    state = pseudo.PseudoLabelState.initial(cands, alpha=0.3)
    state.q[0] = [0.5, 0.0, 0.5]
    with pytest.raises(ContractViolation):
        state.validate(cands)


def test_simplex_invariants_over_many_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        c = int(rng.integers(3, 8))
        mask = random_candidates(rng, 1, c)[0]
        f = random_simplex_rows(rng, 1, c)[0]
        mu = pseudo.basic_pseudo(f, mask)
        U = pseudo.init_reduction_matrix(mask[None])[0]
        for j in range(c):
            phi = random_simplex_rows(rng, 1, c)[0]
            U[j] = pseudo.reduction_row(phi, mask, j)
        w = random_simplex_rows(rng, 1, c)[0]
        v = pseudo.reduction_pseudo(w, U)
        q = pseudo.combine(mu, v, float(rng.random()))
        for vec in (mu, v, q):
            assert abs(vec.sum() - 1.0) < 1e-9
            assert np.all(vec >= -1e-12)
            assert np.all(vec[~mask] == 0.0)


def test_reduction_matrix_empty_support_names_the_label():
    probs = np.full((3, 2, 3), 1.0 / 3.0)
    S = np.array([[True, True, False], [False, True, False]])
    with pytest.raises(ContractViolation, match="excluding label 1"):
        pseudo.reduction_matrix(probs, S)


def test_reduction_matrix_zero_mass_rows_fall_back_to_uniform(caplog):
    probs = np.full((3, 2, 3), 1.0 / 3.0)
    probs[0, 1] = [0.0, 0.0, 1.0]  # branch 0 puts no mass on instance 1's row support
    S = np.array([[True, True, True], [True, True, False]])
    U = pseudo.reduction_matrix(probs, S)
    assert np.array_equal(U[1, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(U[0, 0], [0.0, 0.5, 0.5])
    assert "zero candidate mass on 1 row(s)" in caplog.text
