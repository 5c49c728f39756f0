"""Pseudo-label algebra for candidate-label training targets.

Four target constructions, all living on the probability simplex restricted
to each instance's candidate set S:

* basic targets: the predictor's output renormalized over S,
* reduction rows: a branch output renormalized over S minus one excluded
  label (one row per excludable label, stacked into a per-instance matrix),
* reduction targets: a weight vector times the reduction matrix; the
  trainer takes the weights from the meta net's `nets.forward` rows, or
  uniform,
* combined targets: alpha * basic + (1 - alpha) * reduction.

All operations accept a single vector or a batch of row vectors, and a batch
may carry leading lane axes (one batch per run of a lane stack): every
operation is row-wise, so each lane's rows equal that run's rows alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import ConfigError, ContractViolation

DEFAULT_ALPHA = 0.3


def _as_rows(x: np.ndarray) -> np.ndarray:
    """`x` with at least two axes, the same array when it has them."""
    return x if x.ndim >= 2 else np.atleast_2d(x)


def _as_batch(x, dtype=np.float64):
    arr = np.asarray(x, dtype=dtype)
    return _as_rows(arr), arr.ndim == 1


@functools.cache
def _off_diagonal(c: int) -> np.ndarray:
    """The read-only (c, c) mask that is True off the diagonal."""
    mask = ~np.eye(c, dtype=bool)
    mask.flags.writeable = False
    return mask


def _masked_renormalize(probs: np.ndarray, mask: np.ndarray, what: str) -> np.ndarray:
    """Zero outside mask, renormalize inside it; a row with no mass is an error."""
    masked = np.where(mask, probs, 0.0)
    denom = nets._row_sum(masked, keepdims=True)
    if nets._least(denom) <= 0.0:
        # softmax outputs are floored at PROB_FLOOR, so training never gets here
        bad = int((denom <= 0.0).sum())
        raise ContractViolation(f"{what}: zero candidate mass on {bad} row(s)")
    masked /= denom
    return masked


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
    computed for every j at once. Lanes are leading axes of both arguments.
    """
    s = _as_rows(np.asarray(candidates, dtype=bool))
    mask = s[..., None, :] & _off_diagonal(branch_probs.shape[-3])
    # S minus label j is empty exactly when S is {j} or empty, so every row
    # has support when every candidate set has two labels or more
    if np.minimum.reduce(s.sum(axis=-1), axis=None, initial=2) < 2:
        empty = np.argwhere(~mask.any(axis=-1))
        raise ContractViolation(
            f"candidate set reduces to nothing when excluding label {empty[0, -1]}"
        )
    return _masked_renormalize(branch_probs.swapaxes(-3, -2), mask, "reduction_matrix")


def reduction_pseudo(w, U) -> np.ndarray:
    """Weighted aggregation of the reduction rows: v = w @ U per instance."""
    return np.einsum("...j,...jr->...r", np.asarray(w, np.float64), np.asarray(U, np.float64))


def combine(mu, v, alpha) -> np.ndarray:
    """Convex combination alpha * mu + (1 - alpha) * v.

    `alpha` may be an array broadcasting against the rows, e.g. one weight
    per lane shaped (S, 1, 1).
    """
    if not np.logical_and.reduce(np.logical_and(0.0 <= alpha, alpha <= 1.0), axis=None):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * np.asarray(mu, dtype=np.float64) + (1.0 - alpha) * np.asarray(
        v, dtype=np.float64
    )


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
    return uniform_over(s[:, None, :] & _off_diagonal(s.shape[-1]))


@dataclass
class PseudoLabelState:
    """Per-instance pseudo-label storage refreshed batch by batch during training.

    A lane stack adds a leading lane axis to every array. A method that
    trains on `mu` alone has no reduction side: its `U`, `w` and `v` are None.
    It keeps no alpha: the trainer mixes `q` at each lane's config alpha.
    """

    mu: np.ndarray  # (n, c) candidate-renormalized predictor targets
    U: np.ndarray | None  # (n, c, c) reduction rows
    w: np.ndarray | None  # (n, c) branch weights last used
    v: np.ndarray | None  # (n, c) aggregated reduction targets
    q: np.ndarray  # (n, c) combined training targets

    @classmethod
    def initial(
        cls,
        candidates: np.ndarray,
        alpha,
        *,
        with_reduction: bool = True,
    ):
        """Uniform start: mu uniform over S, U rows uniform over S minus label.

        with_reduction=False gives no reduction side (U, w and v None) and
        q = mu, for methods that train on the basic targets alone. An array
        of alphas, one per lane, gives a lane stack.
        """
        alphas = np.asarray(alpha, dtype=np.float64)
        if not np.all((0.0 <= alphas) & (alphas <= 1.0)):
            raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
        s = np.asarray(candidates, dtype=bool)
        n, c = s.shape
        lead = alphas.shape
        mu = np.broadcast_to(uniform_over(s), (*lead, n, c)).copy()
        if not with_reduction:
            return cls(mu=mu, U=None, w=None, v=None, q=mu.copy())
        U = np.broadcast_to(init_reduction_matrix(s), (*lead, n, c, c)).copy()
        w = np.full((*lead, n, c), 1.0 / c)
        v = reduction_pseudo(w, U)
        q = combine(mu, v, alphas[..., None, None])
        return cls(mu=mu, U=U, w=w, v=v, q=q)

    def validate(self, candidates: np.ndarray) -> None:
        """Cheap invariant sweep over mu, q and any reduction side; raises on violation."""
        s = np.asarray(candidates, dtype=bool)
        tol = nets.SIMPLEX_TOL
        targets = [("mu", self.mu), ("q", self.q)]
        if self.U is not None:
            targets.append(("v", self.v))
        # one reduction per check, with the verdict of np.any(x > tol) etc.;
        # x * outside is x off S and ±0 (or NaN, which the reductions skip) on
        # S, and a float mask multiplies without a cast. Masked products go
        # one run's rows at a time, which keeps the temporaries at one run's size.
        least, greatest, sum_gap = nets._least, nets._greatest, nets._sum_gap
        n, c = s.shape
        outside = (~s).astype(np.float64)
        for name, arr in targets:
            if sum_gap(arr) > tol:
                raise ContractViolation(f"{name} rows do not sum to 1 within {tol}")
            if least(arr) < -tol:
                raise ContractViolation(f"{name} has negative entries beyond {tol}")
            for run in arr.reshape(-1, n, c):
                off = run * outside
                if greatest(np.abs(off, out=off)) > tol:
                    raise ContractViolation(f"{name} puts mass outside the candidate sets")
        if self.U is None:
            return
        w = self.w
        if sum_gap(w) > tol or least(w) < -tol:
            raise ContractViolation("w rows are off the simplex")
        outside = outside[:, None, :]
        for U in self.U.reshape(-1, n, c, c):
            if sum_gap(U) > tol:
                raise ContractViolation("U rows do not sum to 1")
            if greatest(np.abs(U.diagonal(axis1=-2, axis2=-1))) > tol:
                raise ContractViolation("U rows put mass on their own excluded label")
            off = U * outside
            if greatest(np.abs(off, out=off)) > tol:
                raise ContractViolation("U rows put mass outside the candidate sets")
