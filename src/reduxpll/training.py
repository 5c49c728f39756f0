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
`_NETS` lists the nets each method trains, the others are None, and the step
skips the phases of a None net. `reduxpll-uniform-w` has no meta net: it uses
uniform weights and skips step 3. `proden` has no head either: it skips steps
2-4, trains on the stored basic targets alone and has no `U`, `w` or `v`.

Lanes: several runs that differ only in seed and alpha train in lockstep on
one `TrainerState` whose arrays carry a leading lane axis, so each numpy call
of the step serves every run (vmap-style ensembling). `fit` is the one-lane
case of `fit_lanes`. Each lane's slice of every array is bit-identical to a
run of that lane alone.

Determinism: every random choice draws from a purpose-keyed stream derived
from the run seed, so method variants that skip a stream (e.g. the baselines
never sample validation batches) still shuffle and initialize theta identically.
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
from numpy.lib import format as npformat

from . import METHODS, METRICS_LINE, nets, pseudo
from .data import PllDataset, validate_dataset
from .errors import ConfigError, ContractViolation, NumericError, check, parse_object

# purpose-keyed RNG streams spawned from the run seed; `<net>_init` initializes
# that net, so a baseline skips the streams of the nets it lacks (and val)
_STREAMS = {"theta_init": 0, "omegas_init": 1, "gamma_init": 2, "shuffle": 3, "val": 4}

# a lane's checkpoint is written at every epoch divisible by this and at its last
# epoch; a crash then costs at most CHECKPOINT_EVERY - 1 epochs of recompute
CHECKPOINT_EVERY = 10

# the nets each method trains besides theta; `U`, `w` and `v` exist with the head
_NETS = {"reduxpll": ("omegas", "gamma"), "reduxpll-uniform-w": ("omegas",), "proden": ()}


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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Refuse a config that does not fit `_CONFIG`, or breaks what a schema cannot state."""
        check(self.to_dict(), _CONFIG, "TrainConfig", ConfigError)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not -np.inf < value < np.inf:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            is_widths = f.type == "tuple[int, ...]"  # a tuple, not a list: a frozen config hashes
            if is_widths and (type(value) is not tuple or min(value, default=1) < 1):
                raise ConfigError(f"{f.name} must list positive layer widths, got {value!r}")
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
        return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config of a document that fits `_CONFIG`; an absent key keeps its default."""
        check(doc, _CONFIG, "TrainConfig", ConfigError)
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in doc.items()})

    def config_hash(self) -> str:
        return _doc_hash(self.to_dict())

    def resume_hash(self) -> str:
        """Hash of everything that must match to resume a run (epoch budget may grow)."""
        return _doc_hash({k: v for k, v in self.to_dict().items() if k != "epochs"})


# a config document, each key by its field's declared type; any key may be absent
_CONFIG = {
    f"{f.name}?": {"int": int, "float": float, "str": str, "tuple[int, ...]": [int]}[f.type]
    for f in fields(TrainConfig)
}


def _doc_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class EpochMetrics:
    """One epoch of a run; flat, so `vars()` is its JSON line (`reduxpll.METRICS_LINE`)."""

    epoch: int
    train_loss: float
    val_accuracy: float
    test_accuracy: float
    bayes_consistency: float | None
    pseudo_label_drift: float


@dataclass
class ModelBundle:
    """Theta and the nets its method trains (`_NETS`); the others are None."""

    theta: nets.MlpParams
    # the c branches as one stacked head: its buffer is (c, d*c + c), one row
    # per branch, and row j is branch j, the one that excludes label j
    omegas: nets.MlpParams | None = None
    gamma: nets.MlpParams | None = None  # the meta net


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
    omega_buf: np.ndarray | None
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
    """buf = momentum*buf + grad, in place; returns params - lr*buf in a fresh buffer."""
    buf *= momentum
    buf += grad.flat
    return nets.sgd_step(params, nets.from_flat(params, buf), lr)


def one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    """Rows of the (c, c) identity picked by `labels`, each in [0, c)."""
    return (np.asarray(labels)[..., None] == np.arange(c)).astype(np.float64)


def accuracy(theta: nets.MlpParams, ds: PllDataset) -> float:
    probs, _ = nets.forward(theta, ds.features)
    return float((probs.argmax(axis=1) == ds.true_labels).mean())


def init_lanes(train_ds: PllDataset, configs: Sequence[TrainConfig]) -> TrainerState:
    """A fresh lane stack, one lane per config, with the nets their method trains."""

    def init(rng, sizes, lead):
        """One net of widths `sizes` or, for lead (c,), a head of c of them."""
        if not lead:
            return nets.init_mlp(sizes, rng)
        return nets.stack([nets.init_mlp(sizes, rng) for _ in range(lead[0])])

    config, q, c = configs[0], train_ds.q, train_ds.c
    # layer widths and per-lane lead shape of each net
    layouts = {
        "theta": ((q, *config.hidden_sizes, c), ()),
        "omegas": ((config.hidden_sizes[-1], c), (c,)),  # the c branches
        "gamma": ((q, *config.meta_hidden_sizes, c), ()),
    }
    bundle = ModelBundle(**{
        name: nets.stack([init(_stream(cfg.seed, f"{name}_init"), *layouts[name])
                          for cfg in configs])
        for name in ("theta", *_NETS[config.method])
    })
    pls = pseudo.PseudoLabelState.initial(
        train_ds.candidates,
        np.array([config.alpha for config in configs]),
        with_reduction=bundle.omegas is not None,
    )
    return TrainerState(
        bundle=bundle,
        theta_buf=np.zeros_like(bundle.theta.flat),
        omega_buf=None if bundle.omegas is None else np.zeros_like(bundle.omegas.flat),
        pls=pls,
        prev_q=pls.q.copy(),
        lanes=[Lane(cfg, {key: _stream(cfg.seed, key) for key in ("shuffle", "val")})
               for cfg in configs],
    )


# the `PseudoLabelState` arrays a stack holds, those that are not None
_PLS_ARRAYS = ("mu", "U", "w", "v", "q")


def _lane_arrays(state: TrainerState) -> dict[str, np.ndarray]:
    """The stack's arrays with a lane axis by checkpoint member name; a None one has none."""
    arrays = {
        **{name: None if net is None else net.flat for name, net in vars(state.bundle).items()},
        "theta_buf": state.theta_buf,
        "omega_bufs": state.omega_buf,
        **{name: getattr(state.pls, name) for name in _PLS_ARRAYS},
        "prev_q": state.prev_q,
    }
    return {name: arr for name, arr in arrays.items() if arr is not None}


def _from_lane_arrays(arrays, sizes, lanes, epoch, rollback_checks) -> TrainerState:
    """The stack whose `_lane_arrays` are `arrays`; `sizes` has the widths of each net."""
    return TrainerState(
        bundle=ModelBundle(**{name: nets._wrap(arrays[name], s) for name, s in sizes.items()}),
        theta_buf=arrays["theta_buf"],
        omega_buf=arrays.get("omega_bufs"),
        pls=pseudo.PseudoLabelState(
            **{name: arrays.get(name) for name in _PLS_ARRAYS},
            alpha=np.array([lane.config.alpha for lane in lanes]),
        ),
        prev_q=arrays["prev_q"],
        lanes=lanes, epoch=epoch, rollback_checks=rollback_checks,
    )


def _keep_lanes(state: TrainerState, keep: list[int]) -> TrainerState:
    """The stack of the lanes at `keep`, in that order."""
    return _from_lane_arrays(
        {name: arr[keep] for name, arr in _lane_arrays(state).items()},
        {name: net.sizes for name, net in vars(state.bundle).items() if net is not None},
        [state.lanes[k] for k in keep], state.epoch, state.rollback_checks,
    )


def _branch_probs(head: nets.MlpParams, z: np.ndarray) -> np.ndarray:
    """All branch outputs on features z (m, d) as one (c, m, c) stack."""
    return nets.forward(head, z[..., None, :, :])[0]


@functools.cache
def _head_layout(d: int, c: int) -> nets.MlpParams:
    """One branch's layout, a read-only template whose values are never read."""
    layout = nets.empty((d, c))
    layout.flat.flags.writeable = False
    return layout


def _branch_grad(z: np.ndarray, probs: np.ndarray, targets: np.ndarray) -> nets.Gradient:
    """Per-branch `nets.ce_gradient`, in one buffer laid out like the head's."""
    tape = nets.GradTape(_head_layout(z.shape[-1], probs.shape[-1]), [z[..., None, :, :]], probs)
    return nets.ce_gradient(tape, targets)


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
    state.bundle.omegas = _momentum_step(
        head, grad, state.omega_buf, config.beta1, config.momentum
    )


def _reduction_rows(head: nets.MlpParams, z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The batch's (m, c, c) reduction rows from the head's outputs on z."""
    return pseudo.reduction_matrix(_branch_probs(head, z), S)


def _update_meta(state, val_ds, val_targets, x, tape, U, config, epoch, batch_idx) -> None:
    """Meta step by the hypergradient of a validation batch loss; `tape` is theta's on x.

    `val_targets` are the one-hot rows of the validation labels.
    """
    theta_snapshot = state.bundle.theta.flat.copy()  # a copy: the check watches theta's own buffer
    val_idx = np.array([
        lane.rngs["val"].integers(0, val_ds.n, size=config.batch_size)
        for lane in state.lanes
    ])
    targets, targets_vjp = _reduction_targets(U, state.bundle.gamma, x)
    hyper = nets.hypergradient(
        tape, targets, targets_vjp, val_ds.features.take(val_idx, axis=0),
        val_targets.take(val_idx, axis=0), config.beta2,
    )
    state.bundle.gamma = nets.sgd_step(state.bundle.gamma, hyper, config.beta3)
    # the trial step must leave no trace: theta is bit-identical to before
    if not np.logical_and.reduce(state.bundle.theta.flat == theta_snapshot, axis=None):
        raise ContractViolation(f"rollback drifted at epoch {epoch}, batch {batch_idx}")
    state.rollback_checks += 1


def _mix_targets(state: TrainerState, rows, x, q, U) -> np.ndarray:
    """q mixed with the reduction rows U, weighted by the meta net, if any, or uniformly."""
    if state.bundle.gamma is None:
        w = np.full(q.shape, 1.0 / q.shape[-1])
    else:
        w = pseudo.meta_weights(state.bundle.gamma, x)
    v = pseudo.reduction_pseudo(w, U)
    state.pls.U[rows] = U
    state.pls.w[rows] = w
    state.pls.v[rows] = v
    return pseudo.combine(q, v, state.pls.alpha[:, None, None])


def _commit(state: TrainerState, tape, probs, q, config: TrainConfig) -> np.ndarray:
    """The predictor's momentum step toward the targets q; returns each lane's loss."""
    loss, grad = nets.backward_ce(tape, probs, q)
    state.bundle.theta = _momentum_step(
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
    val_targets: np.ndarray,
    idx: np.ndarray,
    config: TrainConfig,
    epoch: int,
    batch_idx: int,
) -> np.ndarray:
    """One mini-batch in every lane; idx is (S, m), lane s trains on rows idx[s].

    `val_targets` are the one-hot rows of val_ds's labels.
    """
    rows = (np.arange(len(idx))[:, None], idx)  # lane s, instance idx[s, i]
    x = train_ds.features.take(idx, axis=0)
    S = train_ds.candidates.take(idx, axis=0)
    # the batch's only forward of theta on x: its tape serves the features,
    # the hypergradient's inner step and the committed step
    probs, tape = nets.forward(state.bundle.theta, x)
    q = state.pls.mu[rows]  # stored basic targets from the previous refresh
    if state.bundle.omegas is not None:
        z = tape.inputs[-1]
        _update_branches(state, z, rows, config)
        U = _reduction_rows(state.bundle.omegas, z, S)
        if state.bundle.gamma is not None:
            _update_meta(state, val_ds, val_targets, x, tape, U, config, epoch, batch_idx)
        q = _mix_targets(state, rows, x, q, U)
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
    val_targets = one_hot(val_ds.true_labels, val_ds.c)  # for every batch's meta step
    epoch = state.epoch + 1
    n = train_ds.n
    m = config.batch_size
    perms = np.stack([lane.rngs["shuffle"].permutation(n) for lane in state.lanes])
    losses = []
    for k, start in enumerate(range(0, n, m)):
        idx = perms[:, start : start + m]
        try:
            losses.append(_batch_step(state, train_ds, val_ds, val_targets, idx, config, epoch, k))
        except NumericError as exc:
            raise _lane_failure(state, exc, f"epoch {epoch}, batch {k}") from exc
    state.pls.validate(train_ds.candidates)

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
    bundle = ModelBundle(**{
        name: None if net is None else nets.take(net, k) for name, net in vars(state.bundle).items()
    })
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
        if replace(lane_config, seed=config.seed, alpha=config.alpha) != config:
            raise ConfigError("lanes may differ only in seed and alpha")

    def per_lane(name, values):
        values = [None] * count if values is None else list(values)
        if len(values) != count:
            raise ConfigError(f"{name} has {len(values)} entries for {count} lanes")
        return values

    metrics_paths = per_lane("metrics_paths", metrics_paths)
    checkpoint_paths = per_lane("checkpoint_paths", checkpoint_paths)

    train_ds, val_ds, test_ds = datasets
    validate_dataset(train_ds, allow_supervised=allow_supervised)
    for part, name in ((val_ds, "validation"), (test_ds, "test")):
        if part.true_labels is None:
            raise ConfigError(f"{name} split needs true labels")
        if part.n == 0:
            raise ConfigError(f"{name} split is empty")
    if config.batch_size > train_ds.n:
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds training set size {train_ds.n}"
        )

    if resume_from is None:
        state = init_lanes(train_ds, configs)
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

# a checkpoint is written to its name plus this suffix, then renamed onto it
TMP_SUFFIX = ".tmp"

# the `Lane` fields that `meta.json` stores under their own names
_LANE_RECORD = ("stagnant", "best_epoch", "best_val_accuracy", "best_test_accuracy")

# the checkpoint's meta.json, as `save_checkpoint` writes it: `config` holds every
# key of `_CONFIG`; `resume_hash`, not `config`, is what a resume must match, and
# each stream's state is numpy's PCG64 one
_META = {
    "config": {key.removesuffix("?"): kind for key, kind in _CONFIG.items()},
    "config_hash": str, "resume_hash": str, "epoch": int, "rollback_checks": int,
    "stagnant": int, "best_epoch": int, "best_val_accuracy": float, "best_test_accuracy": float,
    "rng_states": {stream: {"bit_generator": str, "state": {"state": int, "inc": int},
                            "has_uint32": int, "uinteger": int} for stream in ("shuffle", "val")},
    "history": [METRICS_LINE],
}


def _write_deterministic_npz(path, arrays: dict, meta: dict) -> None:
    """Write the archive to a temp file beside `path`, then rename it onto `path`.

    The rename is atomic, so a crash mid-write leaves the previous checkpoint
    intact, and a failed write removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + TMP_SUFFIX)
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

    Its members are row `lane` of each of the stack's `_lane_arrays` and
    `best_theta`; the branch head's row holds one row per branch, each laid
    out as the `flat` buffer of that branch alone.
    """
    run = state.lanes[lane]
    arrays = {name: arr[lane] for name, arr in _lane_arrays(state).items()}
    arrays["best_theta"] = run.best_theta_flat if run.best_theta_flat is not None else np.zeros(0)
    meta = {
        "config": run.config.to_dict(),
        "config_hash": run.config.config_hash(),
        "resume_hash": run.config.resume_hash(),
        "epoch": state.epoch,
        **{name: getattr(run, name) for name in _LANE_RECORD},
        "rollback_checks": state.rollback_checks,
        "rng_states": {k: g.bit_generator.state for k, g in run.rngs.items()},
        "history": [vars(h) for h in run.history],
    }
    _write_deterministic_npz(path, arrays, meta)


def load_checkpoint(path, train_ds: PllDataset, config: TrainConfig) -> TrainerState:
    """The one-lane state a checkpoint holds, reading the members `config`'s method has.

    Each array member must have the float64 shape of a fresh stack of `config`,
    and `meta.json` must fit `_META`; a file that is no zip archive or a missing
    or misfit member is a ConfigError that names the file and the member.
    Extra members (the untrained nets and reduction side that older
    checkpoints of the baselines hold) are not read.
    """
    fresh = init_lanes(train_ds, [config])
    shapes = {name: arr.shape[1:] for name, arr in _lane_arrays(fresh).items()}
    shapes["best_theta"] = shapes["theta"]
    where = f"checkpoint {path}, member meta.json"
    try:
        # not `np.load`, which reads a file that is no zip archive as a refused pickle
        with np.lib.npyio.NpzFile(path) as npz:
            if "meta.json" not in npz.files:
                raise ConfigError(f"checkpoint {path} has no meta.json member")
            meta = parse_object(npz.zip.read("meta.json"), where, _META, ConfigError)
            if meta["resume_hash"] != config.resume_hash():
                raise ConfigError(f"checkpoint {path} was written under a different configuration")
            for member in shapes:
                if member not in npz.files:
                    raise ConfigError(f"checkpoint {path} has no {member} member")
            data = {member: npz[member] for member in shapes}
    except zipfile.BadZipFile as exc:
        raise ConfigError(f"checkpoint {path} is not a readable zip archive ({exc})") from None
    for member, shape in shapes.items():
        arr = data[member]
        if arr.shape != shape or arr.dtype != np.float64:
            raise ConfigError(
                f"checkpoint {path} holds {member} as {arr.dtype} {arr.shape}, "
                f"but the training set needs float64 {shape}"
            )
    lane = replace(fresh.lanes[0], **{name: meta[name] for name in _LANE_RECORD})
    lane.best_theta_flat = data["best_theta"]
    lane.history = [EpochMetrics(**h) for h in meta["history"]]
    for key, rng_state in meta["rng_states"].items():
        try:
            lane.rngs[key].bit_generator.state = rng_state
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: numpy refuses rng_states.{key} ({exc})") from None
    return _from_lane_arrays(
        {member: arr[None] for member, arr in data.items()},  # best_theta is not read
        {name: net.sizes for name, net in vars(fresh.bundle).items() if net is not None},
        [lane], meta["epoch"], meta["rollback_checks"],
    )
