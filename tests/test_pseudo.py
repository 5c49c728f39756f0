import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reduxpll import nets, pseudo
from reduxpll.errors import ConfigError, ContractViolation

from conftest import random_candidates, random_simplex_rows


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


def test_basic_pseudo_zero_mass_is_a_contract_violation():
    with pytest.raises(ContractViolation, match="basic_pseudo: zero candidate mass on 1 row"):
        pseudo.basic_pseudo([0.0, 0.0, 1.0], [True, True, False])


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
    "shape", [(3,), (5,), (7,), (64, 5), (1, 64, 5), (5, 64, 5), (9, 64, 5), (1600, 5), (2, 4, 8)]
)
def test_reduction_pseudo_is_one_contraction_for_a_vector_and_a_batch(shape):
    rng = np.random.default_rng(sum(shape))
    c, rows = shape[-1], int(np.prod(shape[:-1]))
    for _ in range(20):
        w = random_simplex_rows(rng, rows, c).reshape(shape)
        U = random_simplex_rows(rng, rows * c, c).reshape(*shape, c)
        v = pseudo.reduction_pseudo(w, U)
        if w.ndim == 1:
            assert np.array_equal(v, pseudo.reduction_pseudo(w[None], U[None])[0])
        else:  # the same contraction over an explicit instance axis, as the reference
            assert np.array_equal(v, np.einsum("...ij,...ijr->...ir", w, U))


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


@pytest.mark.parametrize(
    "name, row, match",
    [
        ("mu", [1.2, -0.2, 0.0], "mu has negative entries"),
        ("q", [1.2, -0.2, 0.0], "q has negative entries"),
        ("v", [1.2, -0.2, 0.0], "v has negative entries"),
        ("mu", [np.nan, -0.5, 0.0], "mu has negative entries"),  # NaN beside a negative
        ("mu", [0.6, 0.6, 0.0], "mu rows do not sum to 1"),
        ("v", [0.6, 0.6, 0.0], "v rows do not sum to 1"),
        ("w", [0.6, 0.6, 0.0], "w rows are off the simplex"),
        ("w", [1.5, -0.5, 0.0], "w rows are off the simplex"),
    ],
)
def test_state_validate_catches_off_simplex_rows_in_any_lane(name, row, match):
    cands = np.array([[True, True, False], [True, True, True]])
    state = pseudo.PseudoLabelState.initial(cands, alpha=np.array([0.3, 0.6]))
    state.validate(cands)
    getattr(state, name)[1, 0] = row  # lane 1, instance 0 (candidates {0, 1})
    with pytest.raises(ContractViolation, match=match):
        state.validate(cands)


@pytest.mark.parametrize(
    "row, match",
    [
        ([0.0, 2.0, 0.0], "do not sum to 1"),
        ([0.5, 0.5, 0.0], "own excluded label"),
        ([0.0, 0.5, 0.5], "outside the candidate sets"),
    ],
)
def test_state_validate_catches_bad_reduction_rows_in_any_lane(row, match):
    cands = np.array([[True, True, False], [True, True, True]])
    state = pseudo.PseudoLabelState.initial(cands, alpha=np.array([0.3, 0.6]))
    state.validate(cands)
    state.U[1, 0, 0] = row  # lane 1, instance 0, the row that excludes label 0
    with pytest.raises(ContractViolation, match=match):
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


def test_reduction_matrix_refuses_exactly_the_sets_with_an_empty_row():
    c = 4
    probs = np.full((c, 1, c), 1.0 / c)
    for code in range(2**c):
        S = np.array([[bool(code >> k & 1) for k in range(c)]])
        empty = [j for j in range(c) if not np.any(S[0] & (np.arange(c) != j))]
        if empty:
            with pytest.raises(ContractViolation, match=f"excluding label {empty[0]}"):
                pseudo.reduction_matrix(probs, S)
        else:
            assert pseudo.reduction_matrix(probs, S).shape == (1, c, c)
    # lanes: the one-label set of lane 1 is found behind lane 0's full rows
    S = np.array([[[True, True, True, True]], [[False, False, True, False]]])
    with pytest.raises(ContractViolation, match="excluding label 2"):
        pseudo.reduction_matrix(np.full((2, c, 1, c), 1.0 / c), S)


def test_reduction_matrix_zero_mass_rows_are_a_contract_violation():
    probs = np.full((3, 2, 3), 1.0 / 3.0)
    probs[0, 1] = [0.0, 0.0, 1.0]  # branch 0 puts no mass on instance 1's row support
    S = np.array([[True, True, True], [True, True, False]])
    with pytest.raises(ContractViolation, match="zero candidate mass on 1 row"):
        pseudo.reduction_matrix(probs, S)
    probs[0, 1] = [0.0, 1e-300, 1.0]  # the softmax floor leaves mass on every label
    assert np.array_equal(pseudo.reduction_matrix(probs, S)[1, 0], [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Properties over random batches (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def candidate_batches(draw, lanes=1):
    """(mask, simplex): candidate masks of at least two labels per row, and a
    drawer of softmax rows of any shape."""
    c = draw(st.integers(3, 7))
    m = draw(st.integers(1, 12))
    rows = draw(
        st.lists(
            st.sets(st.integers(0, c - 1), min_size=2, max_size=c),
            min_size=lanes * m,
            max_size=lanes * m,
        )
    )
    mask = np.zeros((lanes * m, c), dtype=bool)
    for i, labels in enumerate(rows):
        mask[i, sorted(labels)] = True

    def simplex(*shape):
        return nets.softmax(draw(arrays(np.float64, shape, elements=st.floats(-40.0, 40.0))))

    return (mask if lanes == 1 else mask.reshape(lanes, m, c)), simplex


def _on_simplex(rows, tol=1e-12):
    return np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= tol)


@settings(max_examples=150, deadline=None)
@given(batch=candidate_batches(), alpha=st.floats(0.0, 1.0))
def test_every_target_construction_stays_on_the_simplex_inside_the_candidates(batch, alpha):
    mask, simplex = batch
    m, c = mask.shape
    mu = pseudo.basic_pseudo(simplex(m, c), mask)
    U = pseudo.reduction_matrix(simplex(c, m, c), mask)
    v = pseudo.reduction_pseudo(simplex(m, c), U)
    q = pseudo.combine(mu, v, alpha)
    for rows in (mu, v, q):
        assert _on_simplex(rows)
        assert np.all(rows[~mask] == 0.0)
    # row j of each reduction matrix also keeps off label j
    assert _on_simplex(U)
    assert np.all(U * ~mask[:, None, :] == 0.0)
    assert np.all(U[:, np.arange(c), np.arange(c)] == 0.0)


@settings(max_examples=150, deadline=None)
@given(batch=candidate_batches())
def test_reduction_matrix_equals_stacked_reduction_rows(batch):
    mask, simplex = batch
    m, c = mask.shape
    branch_probs = simplex(c, m, c)
    reference = np.stack(
        [pseudo.reduction_row(branch_probs[j], mask, j) for j in range(c)], axis=1
    )
    assert np.array_equal(pseudo.reduction_matrix(branch_probs, mask), reference)


@settings(max_examples=60, deadline=None)
@given(batch=candidate_batches(lanes=3), alpha=st.floats(0.0, 1.0))
def test_a_lane_axis_gives_each_lane_its_own_rows_bitwise(batch, alpha):
    mask, simplex = batch
    lanes, m, c = mask.shape
    probs, branch_probs, w = simplex(lanes, m, c), simplex(lanes, c, m, c), simplex(lanes, m, c)
    alphas = np.array([alpha, 1.0 - alpha, 0.5])
    mu = pseudo.basic_pseudo(probs, mask)
    U = pseudo.reduction_matrix(branch_probs, mask)
    v = pseudo.reduction_pseudo(w, U)
    q = pseudo.combine(mu, v, alphas[:, None, None])
    for k in range(lanes):
        U_k = pseudo.reduction_matrix(branch_probs[k], mask[k])
        v_k = pseudo.reduction_pseudo(w[k], U_k)
        assert np.array_equal(mu[k], pseudo.basic_pseudo(probs[k], mask[k]))
        assert np.array_equal(U[k], U_k)
        assert np.array_equal(v[k], v_k)
        assert np.array_equal(q[k], pseudo.combine(mu[k], v_k, alphas[k]))
