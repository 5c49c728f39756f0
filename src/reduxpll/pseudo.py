"""Pseudo-label algebra for candidate-label training targets.

Four target constructions, all living on the probability simplex restricted
to each instance's candidate set S:

* basic targets: the predictor's output renormalized over S,
* reduction rows: a branch output renormalized over S minus one excluded
  label (one row per excludable label, stacked into a per-instance matrix),
* reduction targets: a weight vector (from the meta net, or uniform) times
  the reduction matrix,
* combined targets: alpha * basic + (1 - alpha) * reduction.

All operations accept a single vector or a batch of row vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ConfigError, ContractViolation

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.3


def _as_batch(x, dtype=np.float64):
    arr = np.asarray(x, dtype=dtype)
    return np.atleast_2d(arr), arr.ndim == 1


def _masked_renormalize(probs: np.ndarray, mask: np.ndarray, what: str) -> np.ndarray:
    """Zero outside mask, renormalize inside it; uniform fallback on zero mass."""
    masked = np.where(mask, probs, 0.0)
    denom = masked.sum(axis=-1, keepdims=True)
    bad = denom[..., 0] <= 0.0
    if np.any(bad):
        # Unreachable with softmax outputs (strictly positive), kept as a guard.
        log.warning(
            "%s: zero candidate mass on %d row(s); falling back to uniform",
            what,
            int(bad.sum()),
        )
        counts = mask.sum(axis=-1, keepdims=True)
        uniform = np.where(mask, 1.0 / np.maximum(counts, 1), 0.0)
        masked = np.where(bad[..., None], uniform, masked)
        denom = np.where(bad[..., None], 1.0, denom)
    return masked / denom


def basic_pseudo(probs, candidates) -> np.ndarray:
    """Predictor output renormalized over the candidate set (zero elsewhere)."""
    p, squeeze = _as_batch(probs)
    s, _ = _as_batch(candidates, dtype=bool)
    out = _masked_renormalize(p, s, "basic_pseudo")
    return out[0] if squeeze else out


def reduction_row(probs, candidates, excluded_label: int) -> np.ndarray:
    """Branch output renormalized over S minus the excluded label.

    If the excluded label is not a candidate the row degenerates to the plain
    candidate renormalization.
    """
    p, squeeze = _as_batch(probs)
    s, _ = _as_batch(candidates, dtype=bool)
    mask = s.copy()
    mask[:, excluded_label] = False
    if np.any(mask.sum(axis=-1) == 0):
        raise ContractViolation(
            f"candidate set reduces to nothing when excluding label {excluded_label}"
        )
    out = _masked_renormalize(p, mask, "reduction_row")
    return out[0] if squeeze else out


def reduction_matrix(branch_probs: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Stack all reduction rows: branch_probs is (c, m, c), result is (m, c, c).

    Row j of each instance's matrix is branch j's output renormalized over the
    candidates minus label j, i.e. `reduction_row(branch_probs[j], S, j)`,
    computed for every j at once.
    """
    c = branch_probs.shape[0]
    s = np.atleast_2d(np.asarray(candidates, dtype=bool))
    mask = s[:, None, :] & ~np.eye(c, dtype=bool)
    empty = np.argwhere(~mask.any(axis=-1))
    if empty.size:
        raise ContractViolation(
            f"candidate set reduces to nothing when excluding label {empty[0, 1]}"
        )
    return _masked_renormalize(branch_probs.transpose(1, 0, 2), mask, "reduction_matrix")


def reduction_pseudo(w, U) -> np.ndarray:
    """Weighted aggregation of the reduction rows: v = w @ U per instance."""
    w_arr = np.asarray(w, dtype=np.float64)
    U_arr = np.asarray(U, dtype=np.float64)
    if w_arr.ndim == 1:
        return w_arr @ U_arr
    return np.einsum("ij,ijr->ir", w_arr, U_arr)


def combine(mu, v, alpha: float) -> np.ndarray:
    """Convex combination alpha * mu + (1 - alpha) * v."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * np.asarray(mu, dtype=np.float64) + (1.0 - alpha) * np.asarray(
        v, dtype=np.float64
    )


def meta_weights(gamma: nets.MlpParams, x) -> np.ndarray:
    """Per-instance branch weights from the meta net (softmax output rows)."""
    x_arr = np.asarray(x, dtype=np.float64)
    probs, _ = nets.forward(gamma, x_arr)
    return probs[0] if x_arr.ndim == 1 else probs


def uniform_over(mask) -> np.ndarray:
    """Uniform distribution over a boolean support mask (rows sum to 1)."""
    m, squeeze = _as_batch(mask, dtype=bool)
    counts = m.sum(axis=-1, keepdims=True)
    if np.any(counts == 0):
        raise ContractViolation("cannot build a uniform distribution on empty support")
    out = np.where(m, 1.0 / counts, 0.0)
    return out[0] if squeeze else out


def init_reduction_matrix(candidates: np.ndarray) -> np.ndarray:
    """Initial reduction rows: uniform over S minus the row's label."""
    s = np.atleast_2d(np.asarray(candidates, dtype=bool))
    m, c = s.shape
    U = np.empty((m, c, c))
    for j in range(c):
        mask = s.copy()
        mask[:, j] = False
        U[:, j, :] = uniform_over(mask)
    return U


@dataclass
class PseudoLabelState:
    """Per-instance pseudo-label storage refreshed batch by batch during training."""

    mu: np.ndarray  # (n, c) candidate-renormalized predictor targets
    U: np.ndarray  # (n, c, c) reduction rows
    w: np.ndarray  # (n, c) branch weights last used
    v: np.ndarray  # (n, c) aggregated reduction targets
    q: np.ndarray  # (n, c) combined training targets
    alpha: float

    @classmethod
    def initial(
        cls,
        candidates: np.ndarray,
        alpha: float,
        *,
        with_reduction: bool = True,
    ):
        """Uniform start: mu uniform over S, U rows uniform over S minus label.

        with_reduction=False leaves the reduction-side arrays zeroed for
        methods that train on the basic targets alone.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        s = np.asarray(candidates, dtype=bool)
        n, c = s.shape
        mu = uniform_over(s)
        if with_reduction:
            U = init_reduction_matrix(s)
            w = np.full((n, c), 1.0 / c)
            v = reduction_pseudo(w, U)
            q = combine(mu, v, alpha)
        else:
            U = np.zeros((n, c, c))
            w = np.zeros((n, c))
            v = np.zeros((n, c))
            q = mu.copy()
        return cls(mu=mu, U=U, w=w, v=v, q=q, alpha=alpha)

    def validate(
        self, candidates: np.ndarray, tol: float = 1e-9, *, check_reduction: bool = True
    ) -> None:
        """Cheap invariant sweep over every instance; raises on violation."""
        s = np.asarray(candidates, dtype=bool)
        targets = [("mu", self.mu), ("q", self.q)]
        if check_reduction:
            targets.append(("v", self.v))
        for name, arr in targets:
            if np.any(np.abs(arr.sum(axis=-1) - 1.0) > tol):
                raise ContractViolation(f"{name} rows do not sum to 1 within {tol}")
            if np.any(arr < -tol):
                raise ContractViolation(f"{name} has negative entries beyond {tol}")
            if np.any(np.abs(arr[~s]) > tol):
                raise ContractViolation(f"{name} puts mass outside the candidate sets")
        if not check_reduction:
            return
        if np.any(np.abs(self.w.sum(axis=-1) - 1.0) > tol) or np.any(self.w < -tol):
            raise ContractViolation("w rows are off the simplex")
        n, c = s.shape
        row_sums = self.U.sum(axis=-1)
        if np.any(np.abs(row_sums - 1.0) > tol):
            raise ContractViolation("U rows do not sum to 1")
        diag = self.U[:, np.arange(c), np.arange(c)]
        if np.any(np.abs(diag) > tol):
            raise ContractViolation("U rows put mass on their own excluded label")
        outside = self.U * ~s[:, None, :]
        if np.any(np.abs(outside) > tol):
            raise ContractViolation("U rows put mass outside the candidate sets")
