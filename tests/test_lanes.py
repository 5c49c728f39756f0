"""Lane stacks: runs trained in lockstep equal the same runs trained alone.

`training.fit_lanes` trains runs that differ only in seed and alpha on one
stacked state. Each lane's trajectory, files and models must be
byte-identical to `training.fit` of that lane's config.
"""

from dataclasses import replace

import numpy as np
import pytest

from reduxpll import nets, training
from reduxpll.errors import ConfigError, NumericError

from test_determinism import FAST, TRAJECTORY_PREFIXES


def _bundles_equal(a: training.ModelBundle, b: training.ModelBundle) -> bool:
    """The same nets, bit for bit; a net the method does not train is None in both."""
    nets_a, nets_b = vars(a), vars(b)
    has = {name for name, net in nets_a.items() if net is not None}
    return has == {name for name, net in nets_b.items() if net is not None} and all(
        np.array_equal(nets_a[name].flat, nets_b[name].flat) for name in has
    )


@pytest.mark.parametrize("method", training.METHODS)
def test_five_lanes_reproduce_the_pinned_trajectories(small_dataset, method):
    configs = [training.TrainConfig(method=method, seed=seed, **FAST) for seed in range(5)]
    results = training.fit_lanes(small_dataset, configs)
    assert [r.trajectory_hash()[:16] for r in results] == TRAJECTORY_PREFIXES[method]


def test_each_lane_writes_the_files_of_its_single_run(small_dataset, tmp_path):
    configs = [training.TrainConfig(method="reduxpll", seed=seed, epochs=2) for seed in (2, 0, 4)]
    lanes, alone = tmp_path / "lanes", tmp_path / "alone"
    lanes.mkdir()
    alone.mkdir()
    training.fit_lanes(
        small_dataset,
        configs,
        metrics_paths=[lanes / f"metrics{c.seed}.jsonl" for c in configs],
        checkpoint_paths=[lanes / f"ck{c.seed}.npz" for c in configs],
    )
    for c in configs:
        training.fit(
            small_dataset,
            c,
            metrics_path=alone / f"metrics{c.seed}.jsonl",
            checkpoint_path=alone / f"ck{c.seed}.npz",
        )
    for name in sorted(p.name for p in alone.iterdir()):
        assert (lanes / name).read_bytes() == (alone / name).read_bytes(), name


@pytest.mark.parametrize("method", training.METHODS)
def test_lanes_that_stop_early_at_different_epochs_each_equal_their_own_fit(
    small_dataset, tmp_path, method
):
    configs = [
        training.TrainConfig(method=method, seed=seed, epochs=12, patience=2)
        for seed in range(4)
    ]
    results = training.fit_lanes(
        small_dataset, configs, checkpoint_paths=[tmp_path / f"lane{c.seed}.npz" for c in configs]
    )
    stops = [len(r.history) for r in results]
    assert len(set(stops)) > 1  # the lanes leave the stack apart
    # off the checkpoint cadence, so only the last-epoch save writes these lanes' files
    assert any(stop % training.CHECKPOINT_EVERY for stop in stops)
    for config, lane in zip(configs, results):
        ckpt = tmp_path / f"alone{config.seed}.npz"
        alone = training.fit(small_dataset, config, checkpoint_path=ckpt)
        assert lane.trajectory_hash() == alone.trajectory_hash()
        assert lane.best_epoch == alone.best_epoch
        assert np.array_equal(lane.best_theta.flat, alone.best_theta.flat)
        assert _bundles_equal(lane.final_bundle, alone.final_bundle)
        assert (tmp_path / f"lane{config.seed}.npz").read_bytes() == ckpt.read_bytes()
        assert training.load_checkpoint(ckpt, small_dataset[0], config).epoch == len(alone.history)


def test_a_proden_stack_that_drops_a_lane_has_no_reduction_side(small_dataset):
    configs = [training.TrainConfig(method="proden", seed=seed) for seed in range(3)]
    stack = training.init_lanes(small_dataset[0], configs)
    state = training._keep_lanes(stack, [0, 2])
    assert all(arr is None for arr in (state.pls.U, state.pls.w, state.pls.v))
    assert np.array_equal(state.pls.q, stack.pls.q[[0, 2]])


def test_a_sweep_lane_equals_a_fit_at_its_alpha(small_dataset):
    base = training.TrainConfig(method="reduxpll", **FAST)
    grid = [replace(base, alpha=a, seed=s) for a in (0.1, 0.5, 0.9) for s in (0, 1)]
    for config, lane in zip(grid, training.fit_lanes(small_dataset, grid)):
        alone = training.fit(small_dataset, replace(base, alpha=config.alpha, seed=config.seed))
        assert lane.trajectory_hash() == alone.trajectory_hash()
        assert _bundles_equal(lane.final_bundle, alone.final_bundle)


# each net, for the methods that run it; a poisoned theta keeps the bare method id
POISONED_NETS = (
    [pytest.param(method, "theta", id=method) for method in training.METHODS]
    + [pytest.param(m, "omegas", id=f"{m}-omegas") for m in ("reduxpll", "reduxpll-uniform-w")]
    + [pytest.param("reduxpll", "gamma", id="reduxpll-gamma")]
)


@pytest.mark.parametrize("method, net", POISONED_NETS)
def test_numeric_error_in_one_lane_names_that_lanes_seed(small_dataset, method, net):
    configs = [training.TrainConfig(method=method, seed=seed, epochs=1) for seed in (3, 5, 7)]
    state = training.init_lanes(small_dataset[0], configs)
    params = getattr(state.bundle, net)
    poisoned = params.weights[0].copy()
    poisoned[1] = np.nan  # lane 1 only, seed 5
    state.bundle = replace(
        state.bundle, **{net: nets.MlpParams((poisoned, *params.weights[1:]), params.biases)}
    )
    with pytest.raises(NumericError) as err:
        training.train_epoch(state, small_dataset, configs[0])
    assert err.value.lanes == [1]
    message = str(err.value)
    assert "seed 5" in message and "epoch 1, batch 0" in message
    assert "seed 3" not in message and "seed 7" not in message


def test_fit_lanes_rejects_stacks_it_cannot_run(small_dataset, tmp_path):
    a = training.TrainConfig(epochs=1)
    b = replace(a, seed=1)
    with pytest.raises(ConfigError, match="seed and alpha"):
        training.fit_lanes(small_dataset, [a, replace(a, beta1=0.1)])
    with pytest.raises(ConfigError, match="entries for 2 lanes"):
        training.fit_lanes(small_dataset, [a, b], metrics_paths=[tmp_path / "m.jsonl"])
    with pytest.raises(ConfigError, match="resumes one lane"):
        training.fit_lanes(small_dataset, [a, b], resume_from=tmp_path / "ck.npz")
    with pytest.raises(ConfigError, match="at least one"):
        training.fit_lanes(small_dataset, [])
