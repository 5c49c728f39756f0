"""Bitwise-determinism pins for the training loop.

The hashes below were recorded from the per-branch implementation of the
batch step (one `nets.forward` per branch, one `reduction_row` per label, a
separate trial step). Any rewrite of the step must reproduce them exactly,
and the stacked branch head must equal the per-branch nets it replaced.
"""

import hashlib
import zipfile

import numpy as np
import pytest

from reduxpll import nets, pseudo, training
from reduxpll.errors import ContractViolation, NumericError

from conftest import random_candidates, random_simplex_rows

FAST = dict(epochs=5, batch_size=64)

TRAJECTORY_PREFIXES = {
    "reduxpll": [
        "97295e6f9fc065f1", "c527f8b9e6112432", "4cba1e10fc189ab6",
        "0463c59a16d87b16", "4f6dd9da18e3a63a",
    ],
    "reduxpll-uniform-w": [
        "3dd60fe5097faf6f", "0a6ee99a710a9100", "0a4270180fe1d683",
        "bd2d97e92d65dd3b", "c26be41ca0b0c4ff",
    ],
    "proden": [
        "60b5e54a7aa8fa6e", "d1274abeb16e84c7", "ac1c80a1e87f3923",
        "39300d18e342c210", "270aee62697a966b",
    ],
}

# sha256 prefixes of each member's contents for a 2-epoch reduxpll fit, seed 2
CHECKPOINT_MEMBERS = {
    "U.npy": "5795efa5cefbfdfa",
    "best_theta.npy": "bb621392aa3c8def",
    "gamma.npy": "781f8121935c6cd0",
    "meta.json": "bae6926a19aad47a",
    "mu.npy": "ad96400c14111d0c",
    "omega_bufs.npy": "9953b9705667b34b",
    "omegas.npy": "dd7b47e7c4ce04d3",
    "prev_q.npy": "f9d4fc6dcbbcdd61",
    "q.npy": "f9d4fc6dcbbcdd61",
    "theta.npy": "bb621392aa3c8def",
    "theta_buf.npy": "142f5fe2320b9b70",
    "v.npy": "65c5c8bbd671ab0c",
    "w.npy": "e624613897782902",
}


@pytest.mark.parametrize("method", training.METHODS)
def test_trajectory_hashes_are_pinned_for_seeds_0_to_4(small_dataset, method):
    got = [
        training.fit(
            small_dataset, training.TrainConfig(method=method, seed=seed, **FAST)
        ).trajectory_hash()[:16]
        for seed in range(5)
    ]
    assert got == TRAJECTORY_PREFIXES[method]


def test_checkpoint_member_contents_are_pinned(small_dataset, tmp_path):
    path = tmp_path / "ck.npz"
    cfg = training.TrainConfig(method="reduxpll", seed=2, epochs=2)
    training.fit(small_dataset, cfg, checkpoint_path=path)
    with zipfile.ZipFile(path) as zf:
        got = {name: hashlib.sha256(zf.read(name)).hexdigest()[:16] for name in zf.namelist()}
    assert got == CHECKPOINT_MEMBERS


def test_checkpoint_members_are_stored_uncompressed(small_dataset, tmp_path):
    path = tmp_path / "ck.npz"
    training.fit(small_dataset, training.TrainConfig(epochs=1), checkpoint_path=path)
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}


@pytest.mark.parametrize("seed", range(5))
def test_stacked_branch_head_equals_per_branch_nets(seed):
    rng = np.random.default_rng(seed)
    c, d, m = int(rng.integers(3, 8)), int(rng.integers(2, 40)), int(rng.integers(1, 70))
    branches = [nets.init_mlp([d, c], rng) for _ in range(c)]
    branches = [
        nets.MlpParams(br.weights, (0.3 * rng.standard_normal(c),)) for br in branches
    ]
    head = nets.MlpParams(
        (np.stack([br.weights[0] for br in branches]),),
        (np.stack([br.biases[0] for br in branches]),),
    )
    z = np.tanh(rng.standard_normal((m, d)))
    S = random_candidates(rng, m, c)
    U = random_simplex_rows(rng, m * c, c).reshape(m, c, c)

    probs = training._branch_probs(head, z)
    grad = training._branch_grad(z, probs, U.transpose(1, 0, 2))
    rows = head.flat  # one row per branch
    for j, br in enumerate(branches):
        probs_j, tape_j = nets.forward(br, z)
        assert np.array_equal(probs[j], probs_j)
        _, grad_j = nets.backward_ce(tape_j, probs_j, U[:, j, :])
        assert np.array_equal(grad.weights[0][j], grad_j.weights[0])
        assert np.array_equal(grad.biases[0][j], grad_j.biases[0])
        assert np.array_equal(rows[j], br.flat)

    reference = np.stack([pseudo.reduction_row(probs[j], S, j) for j in range(c)], axis=1)
    assert np.array_equal(pseudo.reduction_matrix(probs, S), reference)

    rebuilt = nets.from_flat(head, rows)
    assert np.array_equal(rebuilt.flat, rows)


def test_branch_grad_keeps_the_target_checks():
    head = nets.MlpParams((np.zeros((3, 2, 3)),), (np.zeros((3, 3)),))
    z = np.ones((4, 2))
    probs = training._branch_probs(head, z)
    off_simplex = np.full((3, 4, 3), 0.5)
    with pytest.raises(ContractViolation):
        training._branch_grad(z, probs, off_simplex)
    nan_targets = np.full((3, 4, 3), np.nan)
    with pytest.raises(NumericError):
        training._branch_grad(z, probs, nan_targets)
    with pytest.raises(NumericError):
        training._branch_probs(nets.MlpParams((np.full((3, 2, 3), np.nan),), head.biases), z)
