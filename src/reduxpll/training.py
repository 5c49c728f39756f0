"""Training loop: one-pass batch step, meta-learned weighting, checkpoints.

Each mini-batch makes one pass, one private function per phase:

1. run the predictor forward on the batch once; its tape supplies the
   features (the penultimate activation), the inner step of the
   hypergradient and the committed step below,
2. `_update_branches`: a momentum step of the stacked branch head (the `c`
   one-layer branches as one `(c, d, c)` weight stack) toward the stored
   reduction rows; `_reduction_rows`: all rows at once from the updated head,
3. `_update_meta`: a meta step by the exact hypergradient of a validation
   mini-batch loss through one plain trial step of the predictor toward the
   meta-weighted reduction targets; the trial step exists only inside
   `nets.hypergradient`, and the predictor is verified bit-identical after,
4. `_mix_targets`: weights/targets from the updated meta net, combined with
   the stored basic targets,
5. `_commit`: a momentum step toward the combined targets; `_refresh`: the
   stored basic targets from the updated predictor.

The two baselines are special cases of the same step, not separate paths:
`reduxpll-uniform-w` replaces the meta weights with a uniform vector and
skips step 3; `proden` skips steps 2-4 and trains on the stored basic
targets alone. Steps 1 and 5 are written once for all three methods.

Lanes: several runs that differ only in seed and alpha train in lockstep on
one `TrainerState` whose arrays carry a leading lane axis, so each numpy call
of the step serves every run (vmap-style ensembling). `fit` is the one-lane
case of `fit_lanes`. Each lane's slice of every array is bit-identical to a
run of that lane alone.

Determinism: every random choice draws from a purpose-keyed stream derived
from the run seed, so method variants that skip a stream (e.g. the baselines
never sample validation batches) still shuffle and initialize identically.
Each lane has its own streams.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nets, pseudo
from .data import PllDataset, validate_dataset
from .errors import ConfigError, ContractViolation, NumericError

METHODS = ("reduxpll", "reduxpll-uniform-w", "proden")

# purpose-keyed RNG streams spawned from the run seed
_STREAMS = {"theta_init": 0, "omega_init": 1, "gamma_init": 2, "shuffle": 3, "val": 4}

# a lane's checkpoint is written at every epoch divisible by this and at its last
# epoch; a crash then costs at most CHECKPOINT_EVERY - 1 epochs of recompute
CHECKPOINT_EVERY = 10


@dataclass(frozen=True)
class TrainConfig:
    method: str = "reduxpll"
    alpha: float = pseudo.DEFAULT_ALPHA
    beta1: float = 0.05  # branch step size
    beta2: float = 0.05  # predictor step size (trial and committed)
    beta3: float = 0.5  # meta step size (hypergradients are second-order small)
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 200
    patience: int = 50
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (32, 32)
    meta_hidden_sizes: tuple[int, ...] = (32, 32)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a float field takes ints unchanged, so their config hash stays
            kinds = {"int": int, "float": (int, float)}.get(f.type)
            if kinds and (not isinstance(value, kinds) or isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be a {f.type}, got {value!r}")
            if f.type == "float" and not -np.inf < value < np.inf:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        for name in ("hidden_sizes", "meta_hidden_sizes"):
            sizes = getattr(self, name)
            if not isinstance(sizes, tuple) or any(type(v) is not int or v < 1 for v in sizes):
                raise ConfigError(f"{name} must list positive layer widths, got {sizes!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("beta1", "beta2", "beta3"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.hidden_sizes:
            raise ConfigError("predictor needs at least one hidden layer")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["hidden_sizes"] = list(self.hidden_sizes)
        doc["meta_hidden_sizes"] = list(self.meta_hidden_sizes)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("hidden_sizes", "meta_hidden_sizes"):
            if isinstance(doc.get(key), list):
                doc[key] = tuple(doc[key])
        return cls(**doc)

    def config_hash(self) -> str:
        return _doc_hash(self.to_dict())

    def resume_hash(self) -> str:
        """Hash of everything that must match to resume a run (epoch budget may grow)."""
        return _resume_hash(self.to_dict())


def _doc_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _resume_hash(doc: dict) -> str:
    """`config_hash` of a config document without its epoch budget."""
    return _doc_hash({k: v for k, v in doc.items() if k != "epochs"})


@dataclass
class EpochMetrics:
    """One epoch of a run; flat fields only, so `vars()` is its JSON document."""

    epoch: int
    train_loss: float
    val_accuracy: float
    test_accuracy: float
    bayes_consistency: float | None
    pseudo_label_drift: float


@dataclass
class ModelBundle:
    theta: nets.MlpParams
    # the c branches as one stacked head: its buffer is (c, d*c + c), one row
    # per branch, and row j is branch j, the one that excludes label j
    omegas: nets.MlpParams
    gamma: nets.MlpParams


@dataclass
class Lane:
    """What one run of a lane stack keeps apart from the others.

    The run's parameters and pseudo-labels are its slice of the stack's
    arrays; its config, streams, early-stopping record and history live here.
    """

    config: TrainConfig
    rngs: dict[str, np.random.Generator]
    stagnant: int = 0
    best_epoch: int = -1
    best_val_accuracy: float = -np.inf
    best_test_accuracy: float = 0.0
    best_theta_flat: np.ndarray | None = None
    # the run's only history record: checkpoints persist it, metrics files copy it
    history: list[EpochMetrics] = field(default_factory=list)


@dataclass
class TrainerState:
    """Runs in lockstep: every array has a leading lane axis, one slice per lane."""

    bundle: ModelBundle
    # momentum buffers, laid out like the buffers of theta and the head
    theta_buf: np.ndarray
    omega_buf: np.ndarray
    pls: pseudo.PseudoLabelState
    prev_q: np.ndarray
    lanes: list[Lane]
    epoch: int = 0
    rollback_checks: int = 0


@dataclass
class RunResult:
    best_theta: nets.MlpParams
    best_epoch: int
    best_val_accuracy: float
    test_accuracy: float
    history: list[EpochMetrics]
    final_bundle: ModelBundle
    config: TrainConfig

    def trajectory_hash(self) -> str:
        blob = json.dumps([vars(m) for m in self.history], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _stream(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAMS[purpose],))
    )


def _momentum_step(params, grad, buf, lr, momentum):
    """buf' = momentum*buf + grad; params' = params - lr*buf' (all fresh arrays)."""
    new_buf = momentum * buf + grad.flat
    return nets.sgd_step(params, nets.from_flat(params, new_buf), lr), new_buf


def one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    """Rows of the (c, c) identity picked by `labels`, each in [0, c)."""
    return (np.asarray(labels)[..., None] == np.arange(c)).astype(np.float64)


def accuracy(theta: nets.MlpParams, ds: PllDataset) -> float:
    probs, _ = nets.forward(theta, ds.features)
    return float((probs.argmax(axis=1) == ds.true_labels).mean())


def _fresh_lane(config: TrainConfig) -> Lane:
    return Lane(
        config=config,
        rngs={"shuffle": _stream(config.seed, "shuffle"), "val": _stream(config.seed, "val")},
    )


def init_lanes(
    train_ds: PllDataset,
    configs: Sequence[TrainConfig],
    init_bundles: Sequence[ModelBundle | None] | None = None,
) -> TrainerState:
    """A fresh lane stack, one lane per config; a given bundle replaces a lane's init."""
    q, c = train_ds.q, train_ds.c
    bundles = []
    for config, bundle in zip(configs, init_bundles or [None] * len(configs)):
        if bundle is None:
            d = config.hidden_sizes[-1]
            omega_rng = _stream(config.seed, "omega_init")
            bundle = ModelBundle(
                theta=nets.init_mlp(
                    [q, *config.hidden_sizes, c], _stream(config.seed, "theta_init")
                ),
                omegas=nets.stack([nets.init_mlp([d, c], omega_rng) for _ in range(c)]),
                gamma=nets.init_mlp(
                    [q, *config.meta_hidden_sizes, c], _stream(config.seed, "gamma_init")
                ),
            )
        bundles.append(bundle)
    bundle = ModelBundle(
        theta=nets.stack([b.theta for b in bundles]),
        omegas=nets.stack([b.omegas for b in bundles]),
        gamma=nets.stack([b.gamma for b in bundles]),
    )
    pls = pseudo.PseudoLabelState.initial(
        train_ds.candidates,
        np.array([config.alpha for config in configs]),
        with_reduction=configs[0].method != "proden",
    )
    return TrainerState(
        bundle=bundle,
        theta_buf=np.zeros_like(bundle.theta.flat),
        omega_buf=np.zeros_like(bundle.omegas.flat),
        pls=pls,
        prev_q=pls.q.copy(),
        lanes=[_fresh_lane(config) for config in configs],
    )


def _take_bundle(bundle: ModelBundle, lanes) -> ModelBundle:
    """`nets.take` of every net in the bundle."""
    return ModelBundle(
        theta=nets.take(bundle.theta, lanes),
        omegas=nets.take(bundle.omegas, lanes),
        gamma=nets.take(bundle.gamma, lanes),
    )


def _keep_lanes(state: TrainerState, keep: list[int]) -> TrainerState:
    """The stack of the lanes at `keep`, in that order."""
    pls = state.pls
    return TrainerState(
        bundle=_take_bundle(state.bundle, keep),
        theta_buf=state.theta_buf[keep],
        omega_buf=state.omega_buf[keep],
        pls=pseudo.PseudoLabelState(
            mu=pls.mu[keep], U=pls.U[keep], w=pls.w[keep], v=pls.v[keep], q=pls.q[keep],
            alpha=pls.alpha[keep],
        ),
        prev_q=state.prev_q[keep],
        lanes=[state.lanes[k] for k in keep],
        epoch=state.epoch,
        rollback_checks=state.rollback_checks,
    )


def _branch_probs(head: nets.MlpParams, z: np.ndarray) -> np.ndarray:
    """All branch outputs on features z (m, d) as one (c, m, c) stack."""
    return nets.forward(head, z[..., None, :, :])[0]


def _branch_grad(z: np.ndarray, probs: np.ndarray, targets: np.ndarray) -> nets.Gradient:
    """Per-branch `nets.backward_ce` gradient, in one buffer laid out like the head's."""
    layout = nets.empty((z.shape[-1], probs.shape[-1]))
    return nets.backward_ce(nets.GradTape(layout, [z[..., None, :, :]], probs), probs, targets)[1]


def _reduction_targets(U: np.ndarray, gamma: nets.MlpParams, feats: np.ndarray):
    """Meta-weighted reduction targets on `feats` and their VJP back to gamma."""
    w, tape = nets.forward(gamma, feats)

    def vjp(d_targets):
        return nets.backward_probs_vjp(tape, np.einsum("...ir,...ijr->...ij", d_targets, U))

    return pseudo.reduction_pseudo(w, U), vjp


def _update_branches(state: TrainerState, z: np.ndarray, rows, config: TrainConfig) -> None:
    """Momentum step of the head; branch j's targets are row j of the stored rows."""
    head = state.bundle.omegas
    grad = _branch_grad(z, _branch_probs(head, z), state.pls.U[rows].swapaxes(-3, -2))
    state.bundle.omegas, state.omega_buf = _momentum_step(
        head, grad, state.omega_buf, config.beta1, config.momentum
    )


def _reduction_rows(head: nets.MlpParams, z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The batch's (m, c, c) reduction rows from the head's outputs on z."""
    return pseudo.reduction_matrix(_branch_probs(head, z), S)


def _update_meta(state, val_ds, x, inner_forward, U, config, epoch, batch_idx) -> None:
    """Meta step by the hypergradient of a sampled validation batch loss."""
    theta = state.bundle.theta
    theta_snapshot = theta.flat.copy()  # a copy: the check watches theta's own buffer
    val_idx = np.stack([
        lane.rngs["val"].integers(0, val_ds.n, size=config.batch_size)
        for lane in state.lanes
    ])
    val_targets = one_hot(np.asarray(val_ds.true_labels)[val_idx], val_ds.c)
    hyper = nets.hypergradient(
        theta, state.bundle.gamma, x, val_ds.features[val_idx], val_targets, config.beta2,
        functools.partial(_reduction_targets, U), inner_forward=inner_forward,
    )
    state.bundle.gamma = nets.sgd_step(state.bundle.gamma, hyper, config.beta3)
    # the trial step must leave no trace: theta is bit-identical to before
    if not np.array_equal(state.bundle.theta.flat, theta_snapshot):
        raise ContractViolation(f"rollback drifted at epoch {epoch}, batch {batch_idx}")
    state.rollback_checks += 1


def _mix_targets(state: TrainerState, rows, x, q, U, method: str) -> np.ndarray:
    """q mixed with the reduction rows U, weighted by the meta net or uniformly."""
    if method == "reduxpll":
        w = pseudo.meta_weights(state.bundle.gamma, x)
    else:
        w = np.full(q.shape, 1.0 / q.shape[-1])
    v = pseudo.reduction_pseudo(w, U)
    state.pls.U[rows] = U
    state.pls.w[rows] = w
    state.pls.v[rows] = v
    return pseudo.combine(q, v, state.pls.alpha[:, None, None])


def _commit(state: TrainerState, tape, probs, q, config: TrainConfig) -> np.ndarray:
    """The predictor's momentum step toward the targets q; returns each lane's loss."""
    loss, grad = nets.backward_ce(tape, probs, q)
    state.bundle.theta, state.theta_buf = _momentum_step(
        state.bundle.theta, grad, state.theta_buf, config.beta2, config.momentum
    )
    return loss


def _refresh(state: TrainerState, rows, x, S, q) -> None:
    """Store the targets q and the basic targets of the updated predictor."""
    refreshed, _ = nets.forward(state.bundle.theta, x)
    state.pls.mu[rows] = pseudo.basic_pseudo(refreshed, S)
    state.pls.q[rows] = q


def _batch_step(
    state: TrainerState,
    train_ds: PllDataset,
    val_ds: PllDataset,
    idx: np.ndarray,
    config: TrainConfig,
    epoch: int,
    batch_idx: int,
) -> np.ndarray:
    """One mini-batch in every lane; idx is (S, m), lane s trains on rows idx[s]."""
    rows = (np.arange(len(idx))[:, None], idx)  # lane s, instance idx[s, i]
    x = train_ds.features[idx]
    S = train_ds.candidates[idx]
    # the batch's only forward of theta on x: its tape serves the features,
    # the hypergradient's inner step and the committed step
    probs, tape = nets.forward(state.bundle.theta, x)
    q = state.pls.mu[rows]  # stored basic targets from the previous refresh
    if config.method != "proden":
        z = tape.inputs[-1]
        _update_branches(state, z, rows, config)
        U = _reduction_rows(state.bundle.omegas, z, S)
        if config.method == "reduxpll":
            _update_meta(state, val_ds, x, (probs, tape), U, config, epoch, batch_idx)
        q = _mix_targets(state, rows, x, q, U, config.method)
    loss = _commit(state, tape, probs, q, config)
    _refresh(state, rows, x, S, q)
    return loss


def _lane_failure(state: TrainerState, exc: NumericError, where: str) -> NumericError:
    """`exc` restated with the seed, alpha and |theta|max of each lane it names."""
    flat = state.bundle.theta.flat
    lanes = exc.lanes or range(len(state.lanes))
    who = "; ".join(
        f"seed {state.lanes[k].config.seed}, alpha {state.lanes[k].config.alpha:g} "
        f"(|theta|max={np.abs(flat[k]).max():.3g})"
        for k in lanes
    )
    method = state.lanes[0].config.method
    return NumericError(f"{where}: {exc} (method={method}; {who})", lanes=exc.lanes)


def train_epoch(
    state: TrainerState,
    datasets: tuple[PllDataset, PllDataset, PllDataset],
    config: TrainConfig,
) -> tuple[TrainerState, list[EpochMetrics]]:
    """Run one full pass over the shuffled training set in every lane.

    `config` supplies what the lanes share (method, step sizes, batch size);
    each lane's seed and alpha are in its own config. Returns the state and
    each lane's metrics, which are also appended to the lane's history.
    """
    train_ds, val_ds, test_ds = datasets
    epoch = state.epoch + 1
    n = train_ds.n
    m = config.batch_size
    perms = np.stack([lane.rngs["shuffle"].permutation(n) for lane in state.lanes])
    losses = []
    for k, start in enumerate(range(0, n, m)):
        idx = perms[:, start : start + m]
        try:
            losses.append(_batch_step(state, train_ds, val_ds, idx, config, epoch, k))
        except NumericError as exc:
            raise _lane_failure(state, exc, f"epoch {epoch}, batch {k}") from exc
    state.pls.validate(train_ds.candidates, check_reduction=config.method != "proden")

    # in place, so the drift makes no stack-sized temporaries: prev_q holds
    # |q - prev_q| for the drift, then a copy of q
    step = np.abs(np.subtract(state.pls.q, state.prev_q, out=state.prev_q), out=state.prev_q)
    drift = step.sum(axis=-1).mean(axis=-1)
    np.copyto(state.prev_q, state.pls.q)
    consistency = [None] * len(state.lanes)
    if train_ds.posterior is not None:
        bayes = np.asarray(train_ds.posterior).argmax(axis=1)
        consistency = (state.pls.q.argmax(axis=-1) == bayes).mean(axis=-1).tolist()
    # one row of batch losses per lane, so each lane's mean sums like one run's
    lane_losses = np.array(losses).T.copy()
    metrics = []
    for k in range(len(state.lanes)):
        # one lane at a time: evaluation activations stay at one run's size
        theta = nets.take(state.bundle.theta, k)
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=float(np.mean(lane_losses[k])),
                val_accuracy=accuracy(theta, val_ds),
                test_accuracy=accuracy(theta, test_ds),
                bayes_consistency=consistency[k],
                pseudo_label_drift=float(drift[k]),
            )
        )
    state.epoch = epoch
    for lane, lane_metrics in zip(state.lanes, metrics):
        lane.history.append(lane_metrics)
    return state, metrics


def _lane_result(state: TrainerState, k: int) -> RunResult:
    lane = state.lanes[k]
    bundle = _take_bundle(state.bundle, k)
    return RunResult(
        best_theta=nets.from_flat(bundle.theta, lane.best_theta_flat),
        best_epoch=lane.best_epoch,
        best_val_accuracy=lane.best_val_accuracy,
        test_accuracy=lane.best_test_accuracy,
        history=lane.history,
        final_bundle=bundle,
        config=lane.config,
    )


def fit_lanes(
    datasets: tuple[PllDataset, PllDataset, PllDataset],
    configs: Sequence[TrainConfig],
    *,
    init_bundles: Sequence[ModelBundle | None] | None = None,
    metrics_paths: Sequence | None = None,
    checkpoint_paths: Sequence | None = None,
    resume_from=None,
    allow_supervised: bool = False,
) -> list[RunResult]:
    """Train one run per config in lockstep on one lane stack; results in config order.

    The configs may differ only in `seed` and `alpha`. Each lane keeps its
    own streams, history, best model, metrics file and checkpoint, all
    byte-identical to a `fit` of its config alone; a lane that stops early
    leaves the stack and the others go on. The per-lane keyword lists align
    with `configs`; a None entry means none for that lane. `resume_from` is a
    checkpoint to resume a one-lane stack from.
    """
    configs = list(configs)
    count = len(configs)
    if count == 0:
        raise ConfigError("fit_lanes needs at least one config")
    if resume_from is not None and count != 1:
        raise ConfigError(f"a checkpoint resumes one lane, not {count}")
    config = configs[0]  # what the lanes share
    for lane_config in configs:
        lane_config.validate()
        if replace(lane_config, seed=config.seed, alpha=config.alpha) != config:
            raise ConfigError("lanes may differ only in seed and alpha")

    def per_lane(name, values):
        values = [None] * count if values is None else list(values)
        if len(values) != count:
            raise ConfigError(f"{name} has {len(values)} entries for {count} lanes")
        return values

    init_bundles = per_lane("init_bundles", init_bundles)
    metrics_paths = per_lane("metrics_paths", metrics_paths)
    checkpoint_paths = per_lane("checkpoint_paths", checkpoint_paths)

    train_ds, val_ds, test_ds = datasets
    validate_dataset(train_ds, allow_supervised=allow_supervised)
    for part, name in ((val_ds, "validation"), (test_ds, "test")):
        if part.true_labels is None:
            raise ConfigError(f"{name} split needs true labels")
    if config.batch_size > train_ds.n:
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds training set size {train_ds.n}"
        )

    if resume_from is None:
        state = init_lanes(train_ds, configs, init_bundles)
    else:
        state = load_checkpoint(resume_from, train_ds, config)
    ids = list(range(count))  # the config index of each lane still in the stack
    results: list[RunResult | None] = [None] * count
    with contextlib.ExitStack() as files:
        metrics_fhs = [
            None if path is None else files.enter_context(Path(path).open("w"))
            for path in metrics_paths
        ]
        for fh, lane in zip(metrics_fhs, state.lanes):
            if fh is not None:
                fh.writelines(_metrics_line(m) for m in lane.history)
        # only a run resumed from the checkpoint of its early stop starts stopped
        while ids and state.epoch < config.epochs and state.lanes[0].stagnant < config.patience:
            state, metrics = train_epoch(state, datasets, config)
            finished = []
            for k, (i, lane, lane_metrics) in enumerate(zip(ids, state.lanes, metrics)):
                if metrics_fhs[i] is not None:
                    metrics_fhs[i].write(_metrics_line(lane_metrics))
                    metrics_fhs[i].flush()
                if lane_metrics.val_accuracy > lane.best_val_accuracy:
                    lane.best_val_accuracy = lane_metrics.val_accuracy
                    lane.best_epoch = lane_metrics.epoch
                    lane.best_test_accuracy = lane_metrics.test_accuracy
                    lane.best_theta_flat = nets.take(state.bundle.theta, k).flat
                    lane.stagnant = 0
                else:
                    lane.stagnant += 1
                stops = lane.stagnant >= config.patience
                if checkpoint_paths[i] is not None and (
                    stops or state.epoch == config.epochs or state.epoch % CHECKPOINT_EVERY == 0
                ):
                    save_checkpoint(checkpoint_paths[i], state, k)
                if stops:
                    finished.append(k)
            if finished:
                for k in finished:
                    results[ids[k]] = _lane_result(state, k)
                keep = [k for k in range(len(ids)) if k not in finished]
                state = _keep_lanes(state, keep)
                ids = [ids[k] for k in keep]
    for k, i in enumerate(ids):
        results[i] = _lane_result(state, k)
    return results


def fit(
    datasets: tuple[PllDataset, PllDataset, PllDataset],
    config: TrainConfig,
    *,
    init_bundle: ModelBundle | None = None,
    metrics_path=None,
    checkpoint_path=None,
    resume_from=None,
    allow_supervised: bool = False,
) -> RunResult:
    """Train to completion or early stop; returns the best-validation model.

    Validation accuracy must strictly improve at least once every `patience`
    epochs or training halts. `metrics_path` receives the run history as one
    JSON object per epoch. With `checkpoint_path` the full trainer state,
    history included, is persisted every `CHECKPOINT_EVERY` (10) epochs and
    at the run's last epoch, so a crash costs at most 9 epochs of recompute.
    `resume_from` continues such a run exactly, from any of its checkpoints,
    and rewrites `metrics_path` from the checkpoint's history, so epochs
    logged after the last checkpoint are not repeated. This is `fit_lanes`
    with one lane.
    """
    return fit_lanes(
        datasets,
        [config],
        init_bundles=[init_bundle],
        metrics_paths=[metrics_path],
        checkpoint_paths=[checkpoint_path],
        resume_from=resume_from,
        allow_supervised=allow_supervised,
    )[0]


def _metrics_line(metrics: EpochMetrics) -> str:
    return json.dumps(vars(metrics), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Checkpointing (deterministic bytes: fixed zip timestamps)
# ---------------------------------------------------------------------------

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _write_deterministic_npz(path, arrays: dict, meta: dict) -> None:
    """Write the archive to a temp file beside `path`, then rename it onto `path`.

    The rename is atomic, so a crash mid-write leaves the previous checkpoint
    intact, and a failed write removes its temp file.
    """
    from numpy.lib import format as npformat

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # stored, not deflated: deflating every epoch cost a quarter of a fit
        with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED) as zf:
            for name in sorted(arrays):
                buf = io.BytesIO()
                npformat.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
                zf.writestr(info, buf.getvalue())
            meta_json = json.dumps(meta, sort_keys=True)
            zf.writestr(zipfile.ZipInfo("meta.json", date_time=_ZIP_EPOCH), meta_json)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, state: TrainerState, lane: int = 0) -> None:
    """Persist lane `lane` of the stack as a one-run checkpoint.

    Each net is its buffer's row for the lane; the branch head's row holds
    one row per branch, each laid out as `nets.to_flat` of that branch alone.
    """
    run = state.lanes[lane]
    config_doc = run.config.to_dict()
    bundle = state.bundle
    arrays = {
        "theta": bundle.theta.flat[lane],
        "gamma": bundle.gamma.flat[lane],
        "omegas": bundle.omegas.flat[lane],
        "theta_buf": state.theta_buf[lane],
        "omega_bufs": state.omega_buf[lane],
        "mu": state.pls.mu[lane],
        "U": state.pls.U[lane],
        "w": state.pls.w[lane],
        "v": state.pls.v[lane],
        "q": state.pls.q[lane],
        "prev_q": state.prev_q[lane],
        "best_theta": (
            run.best_theta_flat if run.best_theta_flat is not None else np.zeros(0)
        ),
    }
    meta = {
        "config": config_doc,
        "config_hash": _doc_hash(config_doc),
        "resume_hash": _resume_hash(config_doc),
        "epoch": state.epoch,
        "stagnant": run.stagnant,
        "best_epoch": run.best_epoch,
        "best_val_accuracy": run.best_val_accuracy,
        "best_test_accuracy": run.best_test_accuracy,
        "rollback_checks": state.rollback_checks,
        "rng_states": {k: g.bit_generator.state for k, g in run.rngs.items()},
        "history": [vars(h) for h in run.history],
    }
    _write_deterministic_npz(path, arrays, meta)


def load_checkpoint(path, train_ds: PllDataset, config: TrainConfig) -> TrainerState:
    """The one-lane state a checkpoint holds."""
    path = Path(path)
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
    if meta["resume_hash"] != config.resume_hash():
        raise ConfigError(
            f"checkpoint {path} was written under a different configuration"
        )
    with np.load(path) as npz:
        data = {member: npz[member] for member in npz.files}
    n, c = train_ds.candidates.shape
    for member, shape in (
        ("mu", (n, c)), ("U", (n, c, c)), ("w", (n, c)), ("v", (n, c)),
        ("q", (n, c)), ("prev_q", (n, c)),
    ):
        got = data[member].shape
        if got != shape:
            raise ConfigError(
                f"checkpoint {path} holds {member} of shape {got}, "
                f"but the training set needs {shape}"
            )
    # one-lane layouts of the three nets, to check the members against
    theta = nets.empty([train_ds.q, *config.hidden_sizes, c], (1,))
    omegas = nets.empty([config.hidden_sizes[-1], c], (1, c))
    gamma = nets.empty([train_ds.q, *config.meta_hidden_sizes, c], (1,))

    def params(like: nets.MlpParams, member: str) -> nets.MlpParams:
        """The member as a one-lane stack, checked against the layout of `like`."""
        return nets.from_flat(like, data[member][None])

    bundle = ModelBundle(
        theta=params(theta, "theta"),
        omegas=params(omegas, "omegas"),
        gamma=params(gamma, "gamma"),
    )
    lane = _fresh_lane(config)
    lane.stagnant = int(meta["stagnant"])
    lane.best_epoch = int(meta["best_epoch"])
    lane.best_val_accuracy = float(meta["best_val_accuracy"])
    lane.best_test_accuracy = float(meta["best_test_accuracy"])
    lane.best_theta_flat = data["best_theta"] if data["best_theta"].size else None
    lane.history = [EpochMetrics(**h) for h in meta["history"]]
    for key, rng_state in meta["rng_states"].items():
        lane.rngs[key].bit_generator.state = rng_state
    return TrainerState(
        bundle=bundle,
        theta_buf=params(theta, "theta_buf").flat,
        omega_buf=params(omegas, "omega_bufs").flat,
        pls=pseudo.PseudoLabelState(
            mu=data["mu"][None],
            U=data["U"][None],
            w=data["w"][None],
            v=data["v"][None],
            q=data["q"][None],
            alpha=np.array([config.alpha]),
        ),
        prev_q=data["prev_q"][None],
        lanes=[lane],
        epoch=int(meta["epoch"]),
        rollback_checks=int(meta["rollback_checks"]),
    )
