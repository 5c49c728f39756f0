"""Shared numerical oracles and fixtures.

The finite-difference helpers re-derive gradients from loss *values* only, so
they stay independent of every analytic backward path they are used to check.
"""

import numpy as np
import pytest

from reduxpll import data, nets


def fd_gradient(loss_fn, flat0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over a flat vector."""
    grad = np.empty_like(flat0)
    for i in range(flat0.size):
        up = flat0.copy()
        up[i] += step
        down = flat0.copy()
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(exact)), 1e-300)
    return float(np.linalg.norm(approx - exact)) / denom


def ce_value(probs: np.ndarray, targets: np.ndarray) -> float:
    """Loss value only (mean soft-target cross-entropy), for FD oracles."""
    p = np.maximum(np.atleast_2d(probs), 1e-12)
    return -float((np.atleast_2d(targets) * np.log(p)).sum()) / np.atleast_2d(probs).shape[0]


def random_net(rng, sizes) -> nets.MlpParams:
    return nets.init_mlp(sizes, rng)


def zero_net(like: nets.MlpParams) -> nets.MlpParams:
    """Nets shaped like `like` with every parameter zero."""
    return nets.from_flat(like, np.zeros_like(like.flat))


def random_simplex_rows(rng, n, c) -> np.ndarray:
    raw = rng.random((n, c)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def random_candidates(rng, n, c, min_size=2, max_size=None) -> np.ndarray:
    """Random candidate masks with min_size <= |S| <= max_size (< c)."""
    max_size = (c - 1) if max_size is None else max_size
    masks = np.zeros((n, c), dtype=bool)
    for i in range(n):
        size = int(rng.integers(min_size, max_size + 1))
        masks[i, rng.choice(c, size=size, replace=False)] = True
    return masks


@pytest.fixture(scope="session")
def default_dataset():
    """The default synthetic benchmark: generated, corrupted, split."""
    ds = data.gen_gaussian_mixture(5, 2, 2000, 2.5, seed=0)
    ds = data.corrupt_instance_dependent(ds, 0.5, seed=0)
    return data.split(ds, data.SplitSpec(seed=0))


@pytest.fixture(scope="session")
def small_dataset():
    """A fast variant for loop-heavy training tests."""
    ds = data.gen_gaussian_mixture(5, 2, 600, 2.5, seed=7)
    ds = data.corrupt_instance_dependent(ds, 0.5, seed=7)
    return data.split(ds, data.SplitSpec(seed=7))
