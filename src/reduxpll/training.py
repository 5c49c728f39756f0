"""Training loop: one-pass batch step, meta-learned weighting, checkpoints.

Each mini-batch makes one pass:

1. run the predictor forward on the batch once; its tape supplies the
   features (the penultimate activation), the inner step of the
   hypergradient and the committed step below,
2. update the stacked branch head (the `c` one-layer branches as one
   `(c, d, c)` weight stack) toward the stored reduction rows with momentum
   SGD, then refresh all rows at once from the updated head,
3. update the meta net by the exact hypergradient of a validation
   mini-batch loss through one plain trial step of the predictor toward the
   meta-weighted reduction targets; the trial step exists only inside
   `nets.hypergradient`, and the predictor is verified bit-identical after
   this phase,
4. recompute weights/targets with the updated meta net and combine them
   with the stored basic targets,
5. commit a momentum step toward the combined targets; finally refresh the
   stored basic targets from the updated predictor.

The two baselines reuse the same plumbing: `reduxpll-uniform-w` replaces the
meta weights with a uniform vector and skips the bi-level machinery;
`proden` trains on the stored basic targets alone.

Determinism: every random choice draws from a purpose-keyed stream derived
from the run seed, so method variants that skip a stream (e.g. the baselines
never sample validation batches) still shuffle and initialize identically.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import nets, pseudo
from .data import PllDataset, validate_dataset
from .errors import ConfigError, ContractViolation, DimensionError, NumericError

METHODS = ("reduxpll", "reduxpll-uniform-w", "proden")

# purpose-keyed RNG streams spawned from the run seed
_STREAMS = {"theta_init": 0, "omega_init": 1, "gamma_init": 2, "shuffle": 3, "val": 4}


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
            if key in doc:
                doc[key] = tuple(int(v) for v in doc[key])
        return cls(**doc)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def resume_hash(self) -> str:
        """Hash of everything that must match to resume a run (epoch budget may grow)."""
        doc = self.to_dict()
        doc.pop("epochs")
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float
    test_accuracy: float
    bayes_consistency: float | None
    pseudo_label_drift: float


@dataclass
class ModelBundle:
    theta: nets.MlpParams
    # the c branches as one stacked head: weights[0] is (c, d, c), biases[0]
    # is (c, c), and slice j is branch j, the one that excludes label j
    omegas: nets.MlpParams
    gamma: nets.MlpParams


@dataclass
class TrainerState:
    bundle: ModelBundle
    theta_buf: nets.MlpParams
    omega_buf: nets.MlpParams
    pls: pseudo.PseudoLabelState
    prev_q: np.ndarray
    rngs: dict[str, np.random.Generator]
    epoch: int = 0
    stagnant: int = 0
    best_epoch: int = -1
    best_val_accuracy: float = -np.inf
    best_test_accuracy: float = 0.0
    best_theta_flat: np.ndarray | None = None
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
        blob = json.dumps([asdict(m) for m in self.history], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _stream(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAMS[purpose],))
    )


def _momentum_step(params, grad, buf, lr, momentum):
    """buf' = momentum*buf + grad; params' = params - lr*buf' (all fresh arrays)."""
    new_buf = nets.param_axpy(momentum, buf, grad)
    return nets.sgd_step(params, new_buf, lr), new_buf


def one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    out = np.zeros((len(labels), c))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def accuracy(theta: nets.MlpParams, ds: PllDataset) -> float:
    probs, _ = nets.forward(theta, ds.features)
    return float((probs.argmax(axis=1) == ds.true_labels).mean())


def init_state(
    train_ds: PllDataset, config: TrainConfig, init_bundle: ModelBundle | None = None
) -> TrainerState:
    q, c = train_ds.q, train_ds.c
    d = config.hidden_sizes[-1]
    if init_bundle is None:
        theta = nets.init_mlp([q, *config.hidden_sizes, c], _stream(config.seed, "theta_init"))
        omega_rng = _stream(config.seed, "omega_init")
        branches = [nets.init_mlp([d, c], omega_rng) for _ in range(c)]
        omegas = nets.MlpParams(
            (np.stack([br.weights[0] for br in branches]),),
            (np.stack([br.biases[0] for br in branches]),),
        )
        gamma = nets.init_mlp([q, *config.meta_hidden_sizes, c], _stream(config.seed, "gamma_init"))
        bundle = ModelBundle(theta=theta, omegas=omegas, gamma=gamma)
    else:
        bundle = init_bundle
    pls = pseudo.PseudoLabelState.initial(
        train_ds.candidates, config.alpha, with_reduction=config.method != "proden"
    )
    return TrainerState(
        bundle=bundle,
        theta_buf=nets.zeros_like_params(bundle.theta),
        omega_buf=nets.zeros_like_params(bundle.omegas),
        pls=pls,
        prev_q=pls.q.copy(),
        rngs={
            "shuffle": _stream(config.seed, "shuffle"),
            "val": _stream(config.seed, "val"),
        },
    )


def _branch_probs(head: nets.MlpParams, z: np.ndarray) -> np.ndarray:
    """All branch outputs on features z (m, d) as one (c, m, c) stack."""
    probs = nets.softmax(np.matmul(z, head.weights[0]) + head.biases[0][:, None, :])
    if not np.all(np.isfinite(probs)):
        raise NumericError("branch head produced non-finite probabilities")
    return probs


def _branch_grad(z: np.ndarray, probs: np.ndarray, targets: np.ndarray) -> nets.Gradient:
    """Per-branch mean cross-entropy gradient, stacked like the head.

    Runs the checks of `nets.backward_ce` on every branch: simplex targets and
    a finite loss.
    """
    nets.check_simplex_rows(targets, "branch target")
    m = z.shape[0]
    loss = -float((targets * np.log(np.maximum(probs, nets.CE_CLAMP))).sum()) / m
    if not np.isfinite(loss):
        raise NumericError(f"non-finite branch cross-entropy loss ({loss!r})")
    d_a = (probs - targets) / m
    return nets.MlpParams((np.matmul(z.T, d_a),), (d_a.sum(axis=1),))


def _batch_step(
    state: TrainerState,
    train_ds: PllDataset,
    val_ds: PllDataset,
    idx: np.ndarray,
    config: TrainConfig,
    epoch: int,
    batch_idx: int,
) -> float:
    x = train_ds.features[idx]
    S = train_ds.candidates[idx]
    c = train_ds.c
    theta = state.bundle.theta
    # the batch's only forward of theta on x: its tape serves the features,
    # the hypergradient's inner step and the committed step
    probs, tape = nets.forward(theta, x)

    if config.method == "proden":
        q = state.pls.mu[idx]  # stored basic targets from the previous refresh
        loss, grad = nets.backward_ce(tape, probs, q)
        theta_new, state.theta_buf = _momentum_step(
            theta, grad, state.theta_buf, config.beta2, config.momentum
        )
        state.bundle = replace(state.bundle, theta=theta_new)
        refreshed, _ = nets.forward(theta_new, x)
        mu = pseudo.basic_pseudo(refreshed, S)
        state.pls.mu[idx] = mu
        state.pls.q[idx] = q
        return loss

    z = tape.inputs[-1]

    # branch updates toward the stored (previous-refresh) reduction rows;
    # branch j's targets are row j of each instance's matrix
    head = state.bundle.omegas
    grad_head = _branch_grad(z, _branch_probs(head, z), state.pls.U[idx].transpose(1, 0, 2))
    head, state.omega_buf = _momentum_step(
        head, grad_head, state.omega_buf, config.beta1, config.momentum
    )
    state.bundle = replace(state.bundle, omegas=head)

    U_new = pseudo.reduction_matrix(_branch_probs(head, z), S)

    if config.method == "reduxpll":
        theta_snapshot = nets.to_flat(theta)

        # meta update through a trial step on a sampled validation batch
        val_idx = state.rngs["val"].integers(0, val_ds.n, size=config.batch_size)
        val_x = val_ds.features[val_idx]
        val_targets = one_hot(np.asarray(val_ds.true_labels)[val_idx], c)

        def pseudo_label_fn(gamma_params, feats):
            w_probs, w_tape = nets.forward(gamma_params, feats)
            targets = pseudo.reduction_pseudo(w_probs, U_new)

            def vjp(d_targets):
                d_w = np.einsum("ir,ijr->ij", d_targets, U_new)
                return nets.backward_probs_vjp(w_tape, d_w)

            return targets, vjp

        hyper = nets.hypergradient(
            theta, state.bundle.gamma, x, val_x, val_targets, config.beta2,
            pseudo_label_fn, inner_forward=(probs, tape),
        )
        gamma_new = nets.sgd_step(state.bundle.gamma, hyper, config.beta3)
        state.bundle = replace(state.bundle, gamma=gamma_new)

        # recompute targets with the updated meta net
        w2 = pseudo.meta_weights(gamma_new, x)
        v2 = pseudo.reduction_pseudo(w2, U_new)

        # the trial step must leave no trace: theta is bit-identical to before
        if not np.array_equal(nets.to_flat(state.bundle.theta), theta_snapshot):
            raise ContractViolation(
                f"rollback drifted at epoch {epoch}, batch {batch_idx}"
            )
        state.rollback_checks += 1
    else:  # reduxpll-uniform-w
        w2 = np.full((len(idx), c), 1.0 / c)
        v2 = pseudo.reduction_pseudo(w2, U_new)

    q = pseudo.combine(state.pls.mu[idx], v2, config.alpha)

    loss, grad = nets.backward_ce(tape, probs, q)
    theta_new, state.theta_buf = _momentum_step(
        theta, grad, state.theta_buf, config.beta2, config.momentum
    )
    state.bundle = replace(state.bundle, theta=theta_new)

    # refresh stored pseudo-label state for the batch
    refreshed, _ = nets.forward(theta_new, x)
    state.pls.mu[idx] = pseudo.basic_pseudo(refreshed, S)
    state.pls.U[idx] = U_new
    state.pls.w[idx] = w2
    state.pls.v[idx] = v2
    state.pls.q[idx] = q
    return loss


def train_epoch(
    state: TrainerState,
    datasets: tuple[PllDataset, PllDataset, PllDataset],
    config: TrainConfig,
) -> tuple[TrainerState, EpochMetrics]:
    """Run one full pass over the shuffled training set and report metrics."""
    train_ds, val_ds, test_ds = datasets
    epoch = state.epoch + 1
    n = train_ds.n
    m = config.batch_size
    perm = state.rngs["shuffle"].permutation(n)
    losses = []
    for k, start in enumerate(range(0, n, m)):
        idx = perm[start : start + m]
        try:
            losses.append(_batch_step(state, train_ds, val_ds, idx, config, epoch, k))
        except NumericError as exc:
            flat = nets.to_flat(state.bundle.theta)
            raise NumericError(
                f"epoch {epoch}, batch {k}: {exc} "
                f"(method={config.method}, |theta|max={np.abs(flat).max():.3g})"
            ) from exc
    state.pls.validate(train_ds.candidates, check_reduction=config.method != "proden")

    drift = float(np.abs(state.pls.q - state.prev_q).sum(axis=1).mean())
    state.prev_q = state.pls.q.copy()
    consistency = None
    if train_ds.posterior is not None:
        consistency = float(
            (state.pls.q.argmax(axis=1) == np.asarray(train_ds.posterior).argmax(axis=1)).mean()
        )
    metrics = EpochMetrics(
        epoch=epoch,
        train_loss=float(np.mean(losses)),
        val_accuracy=accuracy(state.bundle.theta, val_ds),
        test_accuracy=accuracy(state.bundle.theta, test_ds),
        bayes_consistency=consistency,
        pseudo_label_drift=drift,
    )
    state.epoch = epoch
    return state, metrics


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
    epochs or training halts. Metrics are appended to `metrics_path` as one
    JSON object per epoch. With `checkpoint_path` the full trainer state is
    persisted every epoch; `resume_from` continues such a run exactly.
    """
    config.validate()
    train_ds, val_ds, test_ds = datasets
    validate_dataset(train_ds, allow_supervised=allow_supervised)
    for part, name in ((val_ds, "validation"), (test_ds, "test")):
        if part.true_labels is None:
            raise ConfigError(f"{name} split needs true labels")
    if config.batch_size > train_ds.n:
        raise ConfigError(
            f"batch_size {config.batch_size} exceeds training set size {train_ds.n}"
        )

    history: list[EpochMetrics] = []
    if resume_from is not None:
        state, history = load_checkpoint(resume_from, train_ds, config)
    else:
        state = init_state(train_ds, config, init_bundle)

    metrics_fh = None
    if metrics_path is not None:
        mode = "a" if resume_from is not None else "w"
        metrics_fh = Path(metrics_path).open(mode)
    try:
        while state.epoch < config.epochs:
            state, metrics = train_epoch(state, datasets, config)
            history.append(metrics)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(asdict(metrics), sort_keys=True) + "\n")
                metrics_fh.flush()
            if metrics.val_accuracy > state.best_val_accuracy:
                state.best_val_accuracy = metrics.val_accuracy
                state.best_epoch = metrics.epoch
                state.best_test_accuracy = metrics.test_accuracy
                state.best_theta_flat = nets.to_flat(state.bundle.theta)
                state.stagnant = 0
            else:
                state.stagnant += 1
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, state, config, history)
            if state.stagnant >= config.patience:
                break
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    best_theta = nets.from_flat(state.bundle.theta, state.best_theta_flat)
    return RunResult(
        best_theta=best_theta,
        best_epoch=state.best_epoch,
        best_val_accuracy=state.best_val_accuracy,
        test_accuracy=state.best_test_accuracy,
        history=history,
        final_bundle=state.bundle,
        config=config,
    )


def train_proden(
    datasets: tuple[PllDataset, PllDataset, PllDataset],
    config: TrainConfig,
    **kwargs,
) -> RunResult:
    """Self-training baseline on the candidate-renormalized targets alone."""
    return fit(datasets, replace(config, method="proden"), **kwargs)


# ---------------------------------------------------------------------------
# Checkpointing (deterministic bytes: fixed zip timestamps)
# ---------------------------------------------------------------------------

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _write_deterministic_npz(path, arrays: dict, meta: dict) -> None:
    from numpy.lib import format as npformat

    # stored, not deflated: deflating every epoch cost a quarter of a fit
    with zipfile.ZipFile(Path(path), "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            npformat.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH), buf.getvalue())
        meta_json = json.dumps(meta, sort_keys=True)
        zf.writestr(zipfile.ZipInfo("meta.json", date_time=_ZIP_EPOCH), meta_json)


def _head_rows(head: nets.MlpParams) -> np.ndarray:
    """One row per branch, laid out as `nets.to_flat` of that branch alone."""
    w, b = head.weights[0], head.biases[0]
    return np.concatenate([w.reshape(len(w), -1), b], axis=1)


def _head_from_rows(template: nets.MlpParams, rows: np.ndarray) -> nets.MlpParams:
    """Inverse of `_head_rows`, using `template` for the stacked shapes."""
    shape = template.weights[0].shape
    if rows.shape != (shape[0], shape[1] * shape[2] + shape[2]):
        raise DimensionError(f"branch rows have shape {rows.shape}, head needs {shape}")
    split = shape[1] * shape[2]
    return nets.MlpParams(
        (rows[:, :split].reshape(shape).copy(),), (rows[:, split:].copy(),)
    )


def save_checkpoint(path, state: TrainerState, config: TrainConfig, history) -> None:
    arrays = {
        "theta": nets.to_flat(state.bundle.theta),
        "gamma": nets.to_flat(state.bundle.gamma),
        "omegas": _head_rows(state.bundle.omegas),
        "theta_buf": nets.to_flat(state.theta_buf),
        "omega_bufs": _head_rows(state.omega_buf),
        "mu": state.pls.mu,
        "U": state.pls.U,
        "w": state.pls.w,
        "v": state.pls.v,
        "q": state.pls.q,
        "prev_q": state.prev_q,
        "best_theta": (
            state.best_theta_flat
            if state.best_theta_flat is not None
            else np.zeros(0)
        ),
    }
    meta = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "resume_hash": config.resume_hash(),
        "epoch": state.epoch,
        "stagnant": state.stagnant,
        "best_epoch": state.best_epoch,
        "best_val_accuracy": state.best_val_accuracy,
        "best_test_accuracy": state.best_test_accuracy,
        "rollback_checks": state.rollback_checks,
        "rng_states": {k: g.bit_generator.state for k, g in state.rngs.items()},
        "history": [asdict(h) for h in history],
    }
    _write_deterministic_npz(path, arrays, meta)


def load_checkpoint(
    path, train_ds: PllDataset, config: TrainConfig
) -> tuple[TrainerState, list[EpochMetrics]]:
    path = Path(path)
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
    if meta["resume_hash"] != config.resume_hash():
        raise ConfigError(
            f"checkpoint {path} was written under a different configuration"
        )
    data = np.load(path)
    template = init_state(train_ds, config)
    bundle = ModelBundle(
        theta=nets.from_flat(template.bundle.theta, data["theta"]),
        omegas=_head_from_rows(template.bundle.omegas, data["omegas"]),
        gamma=nets.from_flat(template.bundle.gamma, data["gamma"]),
    )
    state = TrainerState(
        bundle=bundle,
        theta_buf=nets.from_flat(template.bundle.theta, data["theta_buf"]),
        omega_buf=_head_from_rows(template.bundle.omegas, data["omega_bufs"]),
        pls=pseudo.PseudoLabelState(
            mu=data["mu"].copy(),
            U=data["U"].copy(),
            w=data["w"].copy(),
            v=data["v"].copy(),
            q=data["q"].copy(),
            alpha=config.alpha,
        ),
        prev_q=data["prev_q"].copy(),
        rngs=template.rngs,
        epoch=int(meta["epoch"]),
        stagnant=int(meta["stagnant"]),
        best_epoch=int(meta["best_epoch"]),
        best_val_accuracy=float(meta["best_val_accuracy"]),
        best_test_accuracy=float(meta["best_test_accuracy"]),
        rollback_checks=int(meta["rollback_checks"]),
        best_theta_flat=(
            data["best_theta"].copy() if data["best_theta"].size else None
        ),
    )
    for key, rng_state in meta["rng_states"].items():
        state.rngs[key].bit_generator.state = rng_state
    history = [EpochMetrics(**h) for h in meta["history"]]
    return state, history
