import gc
import json
import warnings
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest

from reduxpll import data, nets, training
from reduxpll.errors import ConfigError, ContractViolation, NumericError

from conftest import zero_net

FAST = dict(epochs=5, batch_size=64)


def _histories_equal(a, b):
    return [asdict(m) for m in a] == [asdict(m) for m in b]


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
        nets.to_flat(r1.final_bundle.theta), nets.to_flat(r2.final_bundle.theta)
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
        nets.to_flat(r_rx.final_bundle.theta), nets.to_flat(r_pr.final_bundle.theta)
    )


def test_frozen_meta_matches_uniform_weight_ablation_bitwise(small_dataset):
    train_ds = small_dataset[0]
    cfg_rx = training.TrainConfig(method="reduxpll", beta3=0.0, seed=6, **FAST)
    init = training.init_lanes(train_ds, [cfg_rx]).bundle  # a one-lane stack
    bundle = training.ModelBundle(
        theta=nets.take(init.theta, 0),
        omegas=nets.take(init.omegas, 0),
        gamma=zero_net(nets.take(init.gamma, 0)),
    )
    r_rx = training.fit(small_dataset, cfg_rx, init_bundle=bundle)

    cfg_uw = training.TrainConfig(method="reduxpll-uniform-w", seed=6, **FAST)
    r_uw = training.fit(small_dataset, cfg_uw)
    assert _histories_equal(r_rx.history, r_uw.history)
    assert np.array_equal(
        nets.to_flat(r_rx.final_bundle.theta), nets.to_flat(r_uw.final_bundle.theta)
    )


def test_patience_one_with_frozen_steps_stops_after_two_epochs(small_dataset):
    cfg = training.TrainConfig(
        method="proden", beta1=0.0, beta2=0.0, beta3=0.0, patience=1, epochs=50
    )
    result = training.fit(small_dataset, cfg)
    assert len(result.history) == 2


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
    omegas, gamma = state.bundle.omegas.flat.copy(), state.bundle.gamma.flat.copy()
    state, _ = training.train_epoch(state, small_dataset, cfg)
    branches_ran = not np.array_equal(state.bundle.omegas.flat, omegas)
    meta_ran = not np.array_equal(state.bundle.gamma.flat, gamma)
    assert branches_ran == (method != "proden")
    assert meta_ran == (method == "reduxpll")
    assert (state.rollback_checks > 0) == meta_ran
    if method == "proden":
        for arr in (state.pls.U, state.pls.w, state.pls.v):
            assert not arr.flags.writeable and not arr.any()


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
        nets.to_flat(straight.final_bundle.theta),
        nets.to_flat(resumed.final_bundle.theta),
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
    assert np.array_equal(nets.to_flat(resumed.best_theta), nets.to_flat(straight.best_theta))
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
