import collections
import gc
import hashlib
import json
import warnings
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduxpll import data, nets, training
from reduxpll.errors import ConfigError, ContractViolation, NumericError

from conftest import zero_net

FAST = dict(epochs=5, batch_size=64)

# sha256 prefixes of each member's contents for a 2-epoch proden fit, seed 2;
# proden trains theta alone: no head, meta net or reduction side (U, w, v)
PRODEN_CHECKPOINT_MEMBERS = {
    "best_theta.npy": "9beab537600505c1",
    "meta.json": "cedca7c2316b0d58",
    "mu.npy": "11febd4455f94a56",
    "prev_q.npy": "a4c3bbe4841b081e",
    "q.npy": "a4c3bbe4841b081e",
    "theta.npy": "9beab537600505c1",
    "theta_buf.npy": "60cb5f5310d6be2d",
}

# the same for reduxpll-uniform-w, which trains theta and the head but no meta net
UNIFORM_W_CHECKPOINT_MEMBERS = {
    "U.npy": "cd9dff258258612f",
    "best_theta.npy": "b591a524853414c0",
    "meta.json": "33a99a6bf15b1c04",
    "mu.npy": "3feae037901efffe",
    "omega_bufs.npy": "ab8ec67a8b37bbfc",
    "omegas.npy": "b823ba3cccc92937",
    "prev_q.npy": "cef0ebc75df5ea81",
    "q.npy": "cef0ebc75df5ea81",
    "theta.npy": "478d5ecb06353ada",
    "theta_buf.npy": "3c930d91916a234d",
    "v.npy": "fce30dd183d6ca42",
    "w.npy": "9900337d1ea9434b",
}

# the nets each method trains; the others are None in its bundle
TRAINED_NETS = {
    "reduxpll": {"theta", "omegas", "gamma"},
    "reduxpll-uniform-w": {"theta", "omegas"},
    "proden": {"theta"},
}


def _histories_equal(a, b):
    return [asdict(m) for m in a] == [asdict(m) for m in b]


def _built_nets(bundle: training.ModelBundle) -> dict:
    """The bundle's nets that are not None, by name."""
    return {name: net for name, net in vars(bundle).items() if net is not None}


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        training.TrainConfig(method="nope").validate()
    with pytest.raises(ConfigError):
        training.TrainConfig(alpha=1.5).validate()
    with pytest.raises(ConfigError):
        training.TrainConfig(beta2=-0.1).validate()
    with pytest.raises(ConfigError):
        training.TrainConfig(patience=0).validate()
    with pytest.raises(ConfigError, match="non-negative"):
        training.TrainConfig(seed=-1).validate()
    for bad in (
        dict(epochs="ten"), dict(epochs=True), dict(batch_size=64.5), dict(seed=None),
        dict(alpha="0.3"), dict(momentum=None), dict(beta1=False),
        dict(hidden_sizes=5), dict(hidden_sizes=(0,)), dict(meta_hidden_sizes=(32, -1)),
        dict(hidden_sizes=(32.0,)), dict(beta3=float("nan")), dict(beta1=float("inf")),
        dict(alpha=10**400),
    ):
        with pytest.raises(ConfigError):
            training.TrainConfig(**bad).validate()
    with pytest.raises(ConfigError, match="hidden_sizes"):
        training.TrainConfig.from_dict({"hidden_sizes": 5}).validate()
    # an int in a float field is taken unchanged, so its config hash stays
    ints = training.TrainConfig.from_dict({"alpha": 0, "momentum": 0})
    ints.validate()
    assert ints.to_dict()["alpha"] == 0 and isinstance(ints.to_dict()["alpha"], int)


def test_config_hash_tracks_content():
    a = training.TrainConfig()
    b = replace(a, alpha=0.4)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == training.TrainConfig().config_hash()


def test_batch_size_larger_than_train_set_is_rejected(small_dataset):
    cfg = training.TrainConfig(batch_size=10_000, epochs=1)
    with pytest.raises(ConfigError):
        training.fit(small_dataset, cfg)


def test_determinism_identical_seed_identical_trajectory(small_dataset):
    cfg = training.TrainConfig(method="reduxpll", seed=3, **FAST)
    r1 = training.fit(small_dataset, cfg)
    r2 = training.fit(small_dataset, cfg)
    assert _histories_equal(r1.history, r2.history)
    assert np.array_equal(
        r1.final_bundle.theta.flat, r2.final_bundle.theta.flat
    )


def test_five_seeds_produce_distinct_trajectories(small_dataset):
    hashes = set()
    for seed in range(5):
        cfg = training.TrainConfig(method="reduxpll", seed=seed, **FAST)
        hashes.add(training.fit(small_dataset, cfg).trajectory_hash())
    assert len(hashes) == 5


def test_alpha_one_matches_proden_trajectory_bitwise(small_dataset):
    cfg_rx = training.TrainConfig(method="reduxpll", alpha=1.0, seed=5, **FAST)
    cfg_pr = training.TrainConfig(method="proden", alpha=1.0, seed=5, **FAST)
    r_rx = training.fit(small_dataset, cfg_rx)
    r_pr = training.fit(small_dataset, cfg_pr)
    assert _histories_equal(r_rx.history, r_pr.history)
    assert np.array_equal(
        r_rx.final_bundle.theta.flat, r_pr.final_bundle.theta.flat
    )


def test_frozen_meta_matches_uniform_weight_ablation_bitwise(small_dataset):
    # a meta net of zeros weighs the branches uniformly, and beta3 = 0 keeps it so
    cfg_rx = training.TrainConfig(method="reduxpll", beta3=0.0, seed=6, **FAST)
    state = training.init_lanes(small_dataset[0], [cfg_rx])  # a one-lane stack
    state.bundle.gamma = zero_net(state.bundle.gamma)
    for _ in range(cfg_rx.epochs):
        state, _ = training.train_epoch(state, small_dataset, cfg_rx)

    cfg_uw = training.TrainConfig(method="reduxpll-uniform-w", seed=6, **FAST)
    r_uw = training.fit(small_dataset, cfg_uw)
    assert _histories_equal(state.lanes[0].history, r_uw.history)
    for name in ("theta", "omegas"):
        rx, uw = getattr(state.bundle, name), getattr(r_uw.final_bundle, name)
        assert np.array_equal(rx.flat[0], uw.flat), name


def test_patience_one_with_frozen_steps_stops_after_two_epochs(small_dataset):
    cfg = training.TrainConfig(
        method="proden", beta1=0.0, beta2=0.0, beta3=0.0, patience=1, epochs=50
    )
    result = training.fit(small_dataset, cfg)
    assert len(result.history) == 2


# validation accuracies drawn from three values, so ties are common
_VAL_ACCURACIES = st.sampled_from([0.25, 0.5, 0.75])


def _incremental_rule(val_accuracies):
    """(best epoch, best val accuracy, patience count) after each epoch, kept
    one epoch at a time: only a strictly greater accuracy improves, and an
    improvement resets the count."""
    best_epoch, best, stagnant, steps = -1, -np.inf, 0, []
    for epoch, val in enumerate(val_accuracies, 1):
        if val > best:
            best_epoch, best, stagnant = epoch, val, 0
        else:
            stagnant += 1
        steps.append((best_epoch, best, stagnant))
    return steps


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vals=st.lists(_VAL_ACCURACIES, min_size=1, max_size=20))
def test_a_history_gives_the_record_of_the_incremental_rule(vals):
    history = [
        training.EpochMetrics(epoch, 0.0, val, epoch / 100, None, 0.0)  # a test accuracy per epoch
        for epoch, val in enumerate(vals, 1)
    ]
    best_epoch, best, stagnant = _incremental_rule(vals)[-1]
    assert training._record(history) == {
        "epoch": len(vals), "stagnant": stagnant, "best_epoch": best_epoch,
        "best_val_accuracy": best, "best_test_accuracy": best_epoch / 100,
    }


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    scripts=st.lists(st.lists(_VAL_ACCURACIES, min_size=8, max_size=8), min_size=3, max_size=3),
    patience=st.integers(1, 4),
)
def test_fit_lanes_stops_each_lane_where_the_incremental_rule_does(
    small_dataset, scripts, patience
):
    """Each lane's validation accuracies are scripted by its seed."""
    configs = [
        training.TrainConfig(method="proden", seed=seed, epochs=8, patience=patience)
        for seed in range(3)
    ]
    train_epoch = training.train_epoch

    def scripted_epoch(state, datasets, config):
        state, metrics = train_epoch(state, datasets, config)
        for lane, lane_metrics in zip(state.lanes, metrics):  # the history holds these objects
            lane_metrics.val_accuracy = scripts[lane.config.seed][lane_metrics.epoch - 1]
        return state, metrics

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "train_epoch", scripted_epoch)
        results = training.fit_lanes(small_dataset, configs)
    for script, result in zip(scripts, results):
        steps = _incremental_rule(script)
        stop = next((e for e, step in enumerate(steps, 1) if step[2] >= patience), len(script))
        assert len(result.history) == stop
        assert (result.best_epoch, result.best_val_accuracy) == steps[stop - 1][:2]
        assert result.test_accuracy == result.history[result.best_epoch - 1].test_accuracy


def test_single_batch_epoch_runs_exactly_one_update_cycle(small_dataset):
    train_ds, val_ds, test_ds = small_dataset
    n = train_ds.n
    cfg = training.TrainConfig(method="reduxpll", batch_size=n, epochs=1)
    state = training.init_lanes(train_ds, [cfg])
    state, _ = training.train_epoch(state, small_dataset, cfg)
    assert state.rollback_checks == 1


def test_rollback_verified_every_batch_over_five_epochs(small_dataset):
    train_ds = small_dataset[0]
    cfg = training.TrainConfig(method="reduxpll", **FAST)
    state = training.init_lanes(train_ds, [cfg])
    batches_per_epoch = -(-train_ds.n // cfg.batch_size)
    for _ in range(cfg.epochs):
        state, _ = training.train_epoch(state, small_dataset, cfg)
    assert state.rollback_checks == cfg.epochs * batches_per_epoch


@pytest.mark.parametrize("method", training.METHODS)
def test_each_method_runs_only_its_phases(small_dataset, method):
    cfg = training.TrainConfig(method=method, epochs=1)
    state = training.init_lanes(small_dataset[0], [cfg])
    before = {name: net.flat.copy() for name, net in _built_nets(state.bundle).items()}
    state, _ = training.train_epoch(state, small_dataset, cfg)
    after = {name: net.flat for name, net in _built_nets(state.bundle).items()}
    # a net the method does not train is never built, so it is None, not frozen
    assert set(before) == set(after) == TRAINED_NETS[method]
    assert all(not np.array_equal(after[name], before[name]) for name in after)
    assert (state.omega_buf is None) == ("omegas" not in after)
    assert (state.rollback_checks > 0) == ("gamma" in after)
    no_reduction_side = [arr is None for arr in (state.pls.U, state.pls.w, state.pls.v)]
    assert no_reduction_side == [method == "proden"] * 3


def test_best_checkpoint_dominates_final_epoch(small_dataset):
    cfg = training.TrainConfig(method="reduxpll", seed=1, epochs=12)
    result = training.fit(small_dataset, cfg)
    assert result.best_val_accuracy >= result.history[-1].val_accuracy
    assert result.best_epoch == max(
        range(1, len(result.history) + 1),
        key=lambda e: (result.history[e - 1].val_accuracy, -e),
    )


def test_basic_targets_stay_candidate_supported_every_epoch(small_dataset):
    train_ds = small_dataset[0]
    cfg = training.TrainConfig(method="proden", epochs=3)
    state = training.init_lanes(train_ds, [cfg])
    for _ in range(3):
        state, _ = training.train_epoch(state, small_dataset, cfg)
        assert np.all(state.pls.mu[:, ~train_ds.candidates] == 0.0)  # every lane


def test_supervised_sanity_run_reaches_high_accuracy():
    angles = 2.0 * np.pi * np.arange(3) / 3
    means = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mixture = data.GaussianMixture(means=means, scales=np.ones(3))
    ds = mixture.sample(600, np.random.default_rng(0))
    parts = data.split(ds, data.SplitSpec(seed=0))
    cfg = training.TrainConfig(method="proden", epochs=50, batch_size=64, seed=0)
    result = training.fit(parts, cfg, allow_supervised=True)
    assert result.test_accuracy >= 0.95


def test_epoch_metrics_fields_are_sane(small_dataset):
    cfg = training.TrainConfig(method="reduxpll", epochs=2)
    result = training.fit(small_dataset, cfg)
    for m in result.history:
        assert 0.0 <= m.val_accuracy <= 1.0
        assert 0.0 <= m.test_accuracy <= 1.0
        assert 0.0 <= m.bayes_consistency <= 1.0
        assert m.pseudo_label_drift >= 0.0
        assert np.isfinite(m.train_loss)


def test_metrics_jsonl_is_written_per_epoch(small_dataset, tmp_path):
    path = tmp_path / "metrics.jsonl"
    cfg = training.TrainConfig(method="reduxpll", epochs=3)
    result = training.fit(small_dataset, cfg, metrics_path=path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [m["epoch"] for m in lines] == [1, 2, 3]
    assert lines[-1] == asdict(result.history[-1])


def test_checkpoint_resume_reproduces_straight_run(small_dataset, tmp_path):
    ckpt = tmp_path / "ck.npz"
    cfg = training.TrainConfig(method="reduxpll", seed=2, epochs=6)
    straight = training.fit(small_dataset, cfg)

    cfg_half = replace(cfg, epochs=3)
    training.fit(small_dataset, cfg_half, checkpoint_path=ckpt)
    resumed = training.fit(small_dataset, cfg, resume_from=ckpt)
    assert _histories_equal(straight.history, resumed.history)
    assert np.array_equal(
        straight.final_bundle.theta.flat,
        resumed.final_bundle.theta.flat,
    )


def test_checkpoints_land_every_ten_epochs_and_resume_to_the_straight_run(
    small_dataset, tmp_path, monkeypatch
):
    assert training.CHECKPOINT_EVERY == 10
    cfg = training.TrainConfig(method="proden", seed=2, epochs=25)
    straight_metrics, straight_ckpt = tmp_path / "straight.jsonl", tmp_path / "straight.npz"
    epoch10 = tmp_path / "epoch10.npz"
    save = training.save_checkpoint
    saved = []

    def recording_save(path, state, *rest):
        save(path, state, *rest)
        saved.append(state.epoch)
        if state.epoch == 10:
            epoch10.write_bytes(straight_ckpt.read_bytes())

    with monkeypatch.context() as patch:
        patch.setattr(training, "save_checkpoint", recording_save)
        straight = training.fit(
            small_dataset, cfg, metrics_path=straight_metrics, checkpoint_path=straight_ckpt
        )
    assert saved == [10, 20, 25]

    metrics, ckpt = tmp_path / "metrics.jsonl", tmp_path / "ck.npz"
    metrics.write_text("stale\n")
    ckpt.write_bytes(epoch10.read_bytes())
    assert training.load_checkpoint(ckpt, small_dataset[0], cfg).epoch == 10
    resumed = training.fit(
        small_dataset, cfg, metrics_path=metrics, checkpoint_path=ckpt, resume_from=ckpt
    )
    assert _histories_equal(straight.history, resumed.history)
    assert metrics.read_bytes() == straight_metrics.read_bytes()
    assert ckpt.read_bytes() == straight_ckpt.read_bytes()


def test_resuming_the_checkpoint_of_an_early_stop_trains_no_further(small_dataset, tmp_path):
    cfg = training.TrainConfig(method="proden", seed=0, epochs=30, patience=2)
    metrics, ckpt = tmp_path / "metrics.jsonl", tmp_path / "ck.npz"
    straight = training.fit(small_dataset, cfg, metrics_path=metrics, checkpoint_path=ckpt)
    assert len(straight.history) < cfg.epochs  # the run stopped early
    logged, saved = metrics.read_bytes(), ckpt.read_bytes()
    resumed = training.fit(
        small_dataset, cfg, metrics_path=metrics, checkpoint_path=ckpt, resume_from=ckpt
    )
    assert _histories_equal(straight.history, resumed.history)
    assert (resumed.best_epoch, resumed.test_accuracy) == (
        straight.best_epoch, straight.test_accuracy
    )
    assert np.array_equal(resumed.best_theta.flat, straight.best_theta.flat)
    assert metrics.read_bytes() == logged
    assert ckpt.read_bytes() == saved


def test_resume_rejects_a_checkpoint_of_another_training_set_size(small_dataset, tmp_path):
    def parts(n):
        ds = data.gen_gaussian_mixture(5, 2, n, 2.5, seed=7)
        ds = data.corrupt_instance_dependent(ds, 0.5, seed=7)
        return data.split(ds, data.SplitSpec(seed=7))

    ckpt = tmp_path / "ck.npz"
    cfg = training.TrainConfig(method="reduxpll", seed=2, epochs=2)
    training.fit(parts(300), cfg, checkpoint_path=ckpt)
    with pytest.raises(ConfigError) as err:
        training.fit(parts(400), replace(cfg, epochs=4), resume_from=ckpt)
    message = str(err.value)
    assert str(ckpt) in message and "(240, 5)" in message and "(320, 5)" in message


def test_a_rejected_checkpoint_leaves_no_file_open(small_dataset, tmp_path):
    ckpt = tmp_path / "ck.npz"
    cfg = training.TrainConfig(method="proden", seed=2, epochs=1)
    training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    other = data.split(data.gen_gaussian_mixture(5, 2, 100, 2.5, seed=7), data.SplitSpec(seed=7))

    def rejected():
        # the kept traceback and this frame form a cycle that only gc frees
        with pytest.raises(ConfigError, match="training set needs") as err:
            training.load_checkpoint(ckpt, other[0], cfg)
        return err

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        rejected()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_resume_after_a_crash_before_the_checkpoint_logs_each_epoch_once(
    small_dataset, tmp_path, monkeypatch
):
    cfg = training.TrainConfig(method="proden", seed=2, epochs=6)
    straight = tmp_path / "straight.jsonl"
    training.fit(small_dataset, cfg, metrics_path=straight)

    metrics, ckpt = tmp_path / "metrics.jsonl", tmp_path / "ck.npz"
    save = training.save_checkpoint

    def dying_save(path, state, *rest):
        if state.epoch == 4:  # epoch 4 is logged, its checkpoint never lands
            raise OSError("killed while checkpointing epoch 4")
        save(path, state, *rest)

    monkeypatch.setattr(training, "CHECKPOINT_EVERY", 2)  # saves at epochs 2, 4 and 6
    monkeypatch.setattr(training, "save_checkpoint", dying_save)
    with pytest.raises(OSError, match="epoch 4"):
        training.fit(small_dataset, cfg, metrics_path=metrics, checkpoint_path=ckpt)
    monkeypatch.undo()
    training.fit(
        small_dataset, cfg, metrics_path=metrics, checkpoint_path=ckpt, resume_from=ckpt
    )
    epochs = [json.loads(line)["epoch"] for line in metrics.read_text().splitlines()]
    assert epochs == [1, 2, 3, 4, 5, 6]
    assert metrics.read_bytes() == straight.read_bytes()


def test_failed_checkpoint_write_leaves_the_previous_one_resumable(
    small_dataset, tmp_path, monkeypatch
):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    ckpt = run_dir / "ck.npz"
    cfg = training.TrainConfig(method="reduxpll", seed=2, epochs=5)
    writestr = zipfile.ZipFile.writestr

    def failing_writestr(self, info, payload, *args, **kwargs):
        if info.filename == "meta.json" and json.loads(payload)["epoch"] == 4:
            raise OSError("disk full")
        return writestr(self, info, payload, *args, **kwargs)

    monkeypatch.setattr(training, "CHECKPOINT_EVERY", 2)  # saves at epochs 2, 4 and 5
    monkeypatch.setattr(zipfile.ZipFile, "writestr", failing_writestr)
    with pytest.raises(OSError, match="disk full"):
        training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    monkeypatch.undo()
    assert [p.name for p in run_dir.iterdir()] == ["ck.npz"]  # no temp file left
    assert training.load_checkpoint(ckpt, small_dataset[0], cfg).epoch == 2
    resumed = training.fit(small_dataset, cfg, resume_from=ckpt)
    assert _histories_equal(training.fit(small_dataset, cfg).history, resumed.history)


def test_checkpoint_rejects_mismatched_config(small_dataset, tmp_path):
    ckpt = tmp_path / "ck.npz"
    cfg = training.TrainConfig(method="reduxpll", seed=2, epochs=2)
    training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    other = replace(cfg, alpha=0.9, epochs=4)
    with pytest.raises(ConfigError):
        training.fit(small_dataset, other, resume_from=ckpt)


def test_checkpoint_bytes_are_deterministic(small_dataset, tmp_path):
    cfg = training.TrainConfig(method="reduxpll", seed=2, epochs=2)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    training.fit(small_dataset, cfg, checkpoint_path=a)
    training.fit(small_dataset, cfg, checkpoint_path=b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "method, pinned",
    [("proden", PRODEN_CHECKPOINT_MEMBERS), ("reduxpll-uniform-w", UNIFORM_W_CHECKPOINT_MEMBERS)],
    ids=["proden", "reduxpll-uniform-w"],
)
def test_baseline_checkpoint_members_are_pinned(small_dataset, tmp_path, method, pinned):
    path = tmp_path / "ck.npz"
    training.fit(
        small_dataset, training.TrainConfig(method=method, seed=2, epochs=2),
        checkpoint_path=path,
    )
    with zipfile.ZipFile(path) as zf:
        got = {name: hashlib.sha256(zf.read(name)).hexdigest()[:16] for name in zf.namelist()}
    assert "gamma.npy" not in got  # neither baseline has a meta net
    assert got == pinned


def _rewrite_checkpoint(path, edit):
    """Rewrite the checkpoint at `path` with its arrays passed through `edit`."""
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files if name != "meta.json"}
    training._write_deterministic_npz(path, edit(arrays), meta)


def test_a_proden_checkpoint_with_zero_reduction_arrays_resumes_to_the_straight_run(
    small_dataset, tmp_path
):
    # the older format stored proden's reduction side as all-zero U, w and v
    cfg = training.TrainConfig(method="proden", seed=2, epochs=4)
    straight_ckpt, ckpt = tmp_path / "straight.npz", tmp_path / "ck.npz"
    straight = training.fit(small_dataset, cfg, checkpoint_path=straight_ckpt)
    training.fit(small_dataset, replace(cfg, epochs=2), checkpoint_path=ckpt)

    def with_zeros(arrays):
        n, c = arrays["mu"].shape
        return {**arrays, "U": np.zeros((n, c, c)), "w": np.zeros((n, c)), "v": np.zeros((n, c))}

    _rewrite_checkpoint(ckpt, with_zeros)
    with zipfile.ZipFile(ckpt) as zf:
        assert {"U.npy", "w.npy", "v.npy"} <= set(zf.namelist())
    state = training.load_checkpoint(ckpt, small_dataset[0], cfg)
    assert all(arr is None for arr in (state.pls.U, state.pls.w, state.pls.v))
    resumed = training.fit(small_dataset, cfg, checkpoint_path=ckpt, resume_from=ckpt)
    assert resumed.trajectory_hash() == straight.trajectory_hash()
    assert ckpt.read_bytes() == straight_ckpt.read_bytes()  # written in the new format


@pytest.mark.parametrize("method", ["proden", "reduxpll-uniform-w"])
def test_a_checkpoint_with_the_nets_its_method_does_not_train_resumes_to_the_straight_run(
    small_dataset, tmp_path, method
):
    # older checkpoints of the baselines held every net: the untrained ones at
    # their initial values, the head's momentum buffer at zero
    cfg = training.TrainConfig(method=method, seed=2, epochs=4)
    straight_ckpt, ckpt = tmp_path / "straight.npz", tmp_path / "ck.npz"
    straight = training.fit(small_dataset, cfg, checkpoint_path=straight_ckpt)
    training.fit(small_dataset, replace(cfg, epochs=2), checkpoint_path=ckpt)
    full = training.init_lanes(small_dataset[0], [replace(cfg, method="reduxpll")])
    untrained = {"gamma": full.bundle.gamma.flat[0]}
    if method == "proden":
        untrained.update(omegas=full.bundle.omegas.flat[0], omega_bufs=full.omega_buf[0])

    _rewrite_checkpoint(ckpt, lambda arrays: {**arrays, **untrained})
    with zipfile.ZipFile(ckpt) as zf:
        assert {f"{name}.npy" for name in untrained} <= set(zf.namelist())
    state = training.load_checkpoint(ckpt, small_dataset[0], cfg)
    assert set(_built_nets(state.bundle)) == TRAINED_NETS[method]
    resumed = training.fit(small_dataset, cfg, checkpoint_path=ckpt, resume_from=ckpt)
    assert resumed.trajectory_hash() == straight.trajectory_hash()
    assert ckpt.read_bytes() == straight_ckpt.read_bytes()  # written without them


@pytest.mark.parametrize("method, member", [("reduxpll", "U"), ("reduxpll-uniform-w", "omegas")])
def test_a_checkpoint_without_a_member_its_method_needs_is_a_config_error(
    small_dataset, tmp_path, method, member
):
    cfg = training.TrainConfig(method=method, seed=2, epochs=1)
    ckpt = tmp_path / "ck.npz"
    training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    _rewrite_checkpoint(ckpt, lambda arrays: {k: v for k, v in arrays.items() if k != member})
    with pytest.raises(ConfigError, match=f"has no {member} member") as err:
        training.load_checkpoint(ckpt, small_dataset[0], cfg)
    assert str(ckpt) in str(err.value)


@pytest.mark.parametrize(
    "method, member, edit",
    [
        ("proden", "theta", lambda arr: arr[:7]),
        ("reduxpll-uniform-w", "omega_bufs", lambda arr: arr[:, :-1]),
        ("proden", "best_theta", lambda arr: arr[:-1]),
        ("reduxpll", "gamma", lambda arr: arr.astype(np.float32)),
        ("reduxpll", "w", lambda arr: arr[:, :-1]),
    ],
    ids=["theta-size", "omega-bufs-shape", "best-theta-size", "gamma-dtype", "w-shape"],
)
def test_a_misfit_checkpoint_member_is_a_config_error_naming_the_file_and_member(
    small_dataset, tmp_path, method, member, edit
):
    cfg = training.TrainConfig(method=method, seed=2, epochs=1)
    ckpt = tmp_path / "ck.npz"
    training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    _rewrite_checkpoint(ckpt, lambda arrays: {**arrays, member: edit(arrays[member])})
    with pytest.raises(ConfigError, match=f"holds {member} as ") as err:
        training.load_checkpoint(ckpt, small_dataset[0], cfg)
    assert str(ckpt) in str(err.value) and "training set needs float64" in str(err.value)


@pytest.mark.parametrize("content", [b"", b"not a zip"], ids=["empty", "text"])
def test_a_file_that_is_no_zip_archive_is_refused_as_one(small_dataset, tmp_path, content):
    # np.load would read it as a pickle and name allow_pickle, or hit the end of the file
    path = tmp_path / "ck.npz"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="is not a readable zip archive") as err:
        training.load_checkpoint(path, small_dataset[0], training.TrainConfig())
    assert str(path) in str(err.value)


def _rewrite_meta(path, text):
    """Rewrite the checkpoint at `path` with `text` as its meta.json, or none for None."""
    with zipfile.ZipFile(path) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    members.pop("meta.json")
    if text is not None:
        members["meta.json"] = text
    with zipfile.ZipFile(path, "w") as zf:
        for name, payload in members.items():
            zf.writestr(name, payload)


def _edited_meta(edit):
    """A meta.json rewrite: the checkpoint's own document passed through `edit`."""

    def rewrite(meta):
        edit(meta)
        return json.dumps(meta)

    return rewrite


def _set(*path, value):
    def edit(meta):
        for key in path[:-1]:
            meta = meta[key]
        meta[path[-1]] = value

    return _edited_meta(edit)


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (lambda meta: None, "has no meta.json member"),
        (lambda meta: "{nope", "member meta.json: invalid JSON"),
        (_set("rng_states", "bogus", value={}), "member meta.json: unknown key rng_states.bogus"),
        (_set("stagnant", value="3"), "member meta.json: stagnant must be an integer, got '3'"),
        (_set("epoch", value="x"), "member meta.json: epoch must be an integer, got 'x'"),
        (_set("history", 0, "extra", value=1), "member meta.json: unknown key history[0].extra"),
        (_set("best_val_accuracy", value=-np.inf), "-Infinity is not a JSON number"),
        (_edited_meta(lambda meta: meta.pop("history")), "member meta.json: no history field"),
        (_set("rng_states", "shuffle", "bit_generator", value="MT19937"),
         "member meta.json: numpy refuses rng_states.shuffle (state must be for a PCG64 RNG)"),
        (_set("rng_states", "val", "state", "state", value=-1),
         "member meta.json: numpy refuses rng_states.val ("),
        # numbers that well-formed JSON holds but the one-epoch history does not give
        (_set("epoch", value=7), "member meta.json: epoch must be 1 by the history, got 7"),
        (_set("best_epoch", value=0), "member meta.json: best_epoch must be 1 by the history"),
        (_set("best_val_accuracy", value=0.99),
         "member meta.json: best_val_accuracy must be 0."),
        (_set("best_test_accuracy", value=0.1),
         "member meta.json: best_test_accuracy must be 0."),
        (_set("stagnant", value=3), "member meta.json: stagnant must be 0 by the history, got 3"),
        (_edited_meta(lambda meta: meta["history"].insert(0, {**meta["history"][0], "epoch": 2})),
         "member meta.json: history[0].epoch must be 1, got 2"),
        (_set("history", 0, "epoch", value=2), "member meta.json: history[0].epoch must be 1, got 2"),
    ],
    ids=["no-meta", "not-json", "unknown-stream", "stagnant-text", "epoch-text",
         "history-extra-key", "minus-infinity", "no-history", "numpy-refuses-generator",
         "numpy-refuses-state", "epoch-not-the-history-length", "best-epoch-not-the-historys",
         "best-val-accuracy-not-the-historys", "best-test-accuracy-not-the-historys",
         "stagnant-not-the-historys", "history-out-of-order", "history-skips-an-epoch"],
)
def test_a_malformed_meta_json_is_a_config_error_naming_the_file_and_member(
    small_dataset, tmp_path, rewrite, message
):
    cfg = training.TrainConfig(method="proden", seed=2, epochs=1)
    ckpt = tmp_path / "ck.npz"
    training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    with zipfile.ZipFile(ckpt) as zf:
        meta = json.loads(zf.read("meta.json"))
    _rewrite_meta(ckpt, rewrite(meta))
    with pytest.raises(ConfigError) as err:
        training.load_checkpoint(ckpt, small_dataset[0], cfg)
    assert str(err.value).startswith(f"checkpoint {ckpt}") and message in str(err.value)


@pytest.mark.parametrize("method", training.METHODS)
def test_a_checkpoint_holds_the_stacks_lane_arrays_and_best_theta(small_dataset, tmp_path, method):
    cfg = training.TrainConfig(method=method, seed=2, epochs=1)
    ckpt = tmp_path / "ck.npz"
    training.fit(small_dataset, cfg, checkpoint_path=ckpt)
    table = training._lane_arrays(training.init_lanes(small_dataset[0], [cfg]))
    with np.load(ckpt) as npz:
        assert set(npz.files) == {*table, "best_theta", "meta.json"}
        saved = {name: npz[name] for name in table}
    loaded = training._lane_arrays(training.load_checkpoint(ckpt, small_dataset[0], cfg))
    assert list(loaded) == list(table)
    assert all(np.array_equal(loaded[name], saved[name][None]) for name in table)


def test_nonfinite_loss_raises_numeric_error_with_context(small_dataset):
    train_ds = small_dataset[0]
    cfg = training.TrainConfig(method="proden", epochs=1)
    state = training.init_lanes(train_ds, [cfg])
    poisoned = nets.MlpParams(
        tuple(w * np.nan for w in state.bundle.theta.weights),
        state.bundle.theta.biases,
    )
    state.bundle = replace(state.bundle, theta=poisoned)
    with pytest.raises(NumericError) as err:
        training.train_epoch(state, small_dataset, cfg)
    assert "epoch 1" in str(err.value)


def test_resume_requires_labels_and_validates_datasets(small_dataset):
    train_ds, val_ds, test_ds = small_dataset
    bare_val = data.PllDataset(val_ds.features, val_ds.candidates, None, None)
    with pytest.raises(ConfigError):
        training.fit((train_ds, bare_val, test_ds), training.TrainConfig(epochs=1))


@pytest.mark.parametrize("part, name", [(1, "validation"), (2, "test")])
def test_an_empty_validation_or_test_split_is_a_config_error(small_dataset, part, name):
    # an empty validation split crashed the meta step; an empty test split gave NaN accuracy
    parts = list(small_dataset)
    parts[part] = parts[part].subset(np.empty(0, dtype=int))
    with pytest.raises(ConfigError, match=f"{name} split is empty"):
        training.fit(tuple(parts), training.TrainConfig(method="reduxpll", epochs=1))


def test_rollback_check_fails_when_the_hypergradient_mutates_theta(
    small_dataset, monkeypatch
):
    original = nets.forward_jvp

    def mutating_forward_jvp(tape, tangent):
        tape.params.weights[0][0, 0] += 1e-3  # an in-place write to theta
        return original(tape, tangent)

    monkeypatch.setattr(nets, "forward_jvp", mutating_forward_jvp)
    cfg = training.TrainConfig(method="reduxpll", epochs=1)
    state = training.init_lanes(small_dataset[0], [cfg])
    with pytest.raises(ContractViolation, match="rollback drifted at epoch 1, batch 0"):
        training.train_epoch(state, small_dataset, cfg)
    assert state.rollback_checks == 0


def test_branch_grad_names_the_lane_of_nan_targets():
    """A NaN row of lane 1's branch targets passes the simplex check and stops
    at the gradient, named by its lane of the stack."""
    rng = np.random.default_rng(3)
    heads = [nets.stack([nets.init_mlp([4, 3], rng) for _ in range(3)]) for _ in range(2)]
    head = nets.stack(heads)
    z = np.tanh(rng.standard_normal((2, 5, 4)))
    probs, tape = nets.forward(head, z[..., None, :, :])  # as the batch step runs the head
    targets = probs.copy()
    targets[1, 2, 0] = np.nan
    nets.check_simplex_rows(targets, "test")
    with pytest.raises(NumericError, match="non-finite cross-entropy gradient") as err:
        nets.ce_gradient(tape, targets)
    assert err.value.lanes == [1]


def test_a_reduxpll_batch_makes_its_fixed_passes(small_dataset, monkeypatch):
    """7 forwards, one loss backward (the commit), three gradient-only
    backwards (the branch head, the trial step and the validation loss), one
    JVP and one VJP."""
    calls = collections.Counter()
    for name in ("forward", "backward_ce", "ce_gradient", "forward_jvp", "backward_probs_vjp"):

        def counted(*args, _name=name, _original=getattr(nets, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(nets, name, counted)
    cfg = training.TrainConfig(method="reduxpll", epochs=1)
    state = training.init_lanes(small_dataset[0], [cfg])
    train_ds, val_ds, _ = small_dataset
    val_targets = training.one_hot(val_ds.true_labels, val_ds.c)
    idx = np.arange(cfg.batch_size)[None]
    training._batch_step(state, train_ds, val_ds, val_targets, idx, cfg, 1, 0)
    assert calls == {
        "forward": 7, "backward_ce": 1, "ce_gradient": 3, "forward_jvp": 1, "backward_probs_vjp": 1,
    }
