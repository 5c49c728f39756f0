"""Dataset model and synthetic data generation.

A dataset couples features with per-instance candidate label sets. The hidden
correct label is always one of the candidates, and a candidate set is never
empty, never all labels, and never just the correct label on its own. The
synthetic generator is a balanced Gaussian mixture whose exact class
posterior is kept with each instance, so downstream consistency metrics and
the theory harness have ground truth to compare against.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError


@dataclass
class PllDataset:
    """Features, candidate masks, and optional true labels / exact posteriors."""

    features: np.ndarray  # (n, q) float64
    candidates: np.ndarray  # (n, c) bool
    true_labels: np.ndarray | None = None  # (n,) int64
    posterior: np.ndarray | None = None  # (n, c) float64, rows on the simplex

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]

    @property
    def c(self) -> int:
        return self.candidates.shape[1]

    def subset(self, idx) -> "PllDataset":
        idx = np.asarray(idx)
        return PllDataset(
            features=self.features[idx],
            candidates=self.candidates[idx],
            true_labels=None if self.true_labels is None else self.true_labels[idx],
            posterior=None if self.posterior is None else self.posterior[idx],
        )


def validate_dataset(
    ds: PllDataset,
    *,
    require_posterior: bool = False,
    allow_supervised: bool = False,
) -> None:
    """Check every dataset invariant; raise DataError listing offending rows.

    allow_supervised permits singleton candidate sets equal to {true label},
    which is useful for fully supervised sanity runs but rejected by default.
    """
    feats = np.asarray(ds.features)
    cands = np.asarray(ds.candidates)
    if feats.ndim != 2 or cands.ndim != 2 or feats.shape[0] != cands.shape[0]:
        raise DataError(
            f"features {feats.shape} and candidates {cands.shape} are not aligned"
        )
    if not np.all(np.isfinite(feats)):
        rows = np.unique(np.nonzero(~np.isfinite(feats))[0])
        raise DataError(f"non-finite features in rows {rows.tolist()[:20]}", rows)
    sizes = cands.sum(axis=1)
    empty = np.nonzero(sizes == 0)[0]
    if empty.size:
        raise DataError(f"empty candidate sets in rows {empty.tolist()[:20]}", empty)
    full = np.nonzero(sizes == ds.c)[0]
    if full.size:
        raise DataError(
            f"candidate sets equal to the whole label space in rows {full.tolist()[:20]}",
            full,
        )
    if ds.true_labels is not None:
        y = np.asarray(ds.true_labels)
        if y.shape != (ds.n,):
            raise DataError(f"true_labels shape {y.shape} does not match n={ds.n}")
        if np.any(y < 0) or np.any(y >= ds.c):
            bad = np.nonzero((y < 0) | (y >= ds.c))[0]
            raise DataError(f"labels out of range in rows {bad.tolist()[:20]}", bad)
        missing = np.nonzero(~cands[np.arange(ds.n), y])[0]
        if missing.size:
            raise DataError(
                f"true label missing from candidates in rows {missing.tolist()[:20]}",
                missing,
            )
        if not allow_supervised:
            singleton = np.nonzero((sizes == 1) & cands[np.arange(ds.n), y])[0]
            if singleton.size:
                raise DataError(
                    "candidate sets equal to the bare true label in rows "
                    f"{singleton.tolist()[:20]}",
                    singleton,
                )
    if require_posterior and ds.posterior is None:
        raise DataError("posterior required but absent")
    if ds.posterior is not None:
        post = np.asarray(ds.posterior)
        if post.shape != (ds.n, ds.c):
            raise DataError(f"posterior shape {post.shape} != ({ds.n}, {ds.c})")
        off = np.nonzero(
            (np.abs(post.sum(axis=1) - 1.0) > 1e-9) | np.any(post < -1e-12, axis=1)
        )[0]
        if off.size:
            raise DataError(
                f"posterior rows off the simplex in rows {off.tolist()[:20]}", off
            )


@dataclass(frozen=True)
class GaussianMixture:
    """Balanced isotropic Gaussian mixture with closed-form posterior.

    Components share the mixture weight 1/c; per-component scales are the
    standard deviations of their isotropic covariances.
    """

    means: np.ndarray  # (c, q)
    scales: np.ndarray  # (c,)

    @classmethod
    def ring_with_hub(
        cls, c: int, q: int, separation: float, hub_scale: float = 2.0
    ) -> "GaussianMixture":
        """c-1 unit-scale components on a circle plus one broad hub at the origin.

        The hub's density spreads over every ring class, so its label is a
        plausible candidate throughout the feature space; this is the
        geometry that makes feature-correlated wrong candidates common.
        """
        if c < 3:
            raise ConfigError(f"need at least 3 classes, got {c}")
        if q < 2:
            raise ConfigError(f"hub layout needs at least 2 feature dims, got {q}")
        means = np.zeros((c, q))
        angles = 2.0 * np.pi * np.arange(c - 1) / (c - 1)
        means[: c - 1, 0] = separation * np.cos(angles)
        means[: c - 1, 1] = separation * np.sin(angles)
        scales = np.ones(c)
        scales[c - 1] = hub_scale
        return cls(means=means, scales=scales)

    @property
    def c(self) -> int:
        return self.means.shape[0]

    @property
    def q(self) -> int:
        return self.means.shape[1]

    def posterior(self, x) -> np.ndarray:
        """Exact class posterior rows (density share) for (n, q) or (q,) inputs."""
        x_arr = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d2 = ((x_arr[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        log_density = -0.5 * d2 / self.scales[None, :] ** 2 - self.q * np.log(
            self.scales
        )[None, :]
        log_density -= log_density.max(axis=1, keepdims=True)
        e = np.exp(log_density)
        post = e / e.sum(axis=1, keepdims=True)
        return post[0] if np.asarray(x).ndim == 1 else post

    def sample(self, n: int, rng: np.random.Generator) -> PllDataset:
        """Draw features from the mixture marginal, labels from the exact posterior."""
        comp = rng.integers(0, self.c, size=n)
        x = self.means[comp] + rng.standard_normal((n, self.q)) * self.scales[comp][
            :, None
        ]
        post = self.posterior(x)
        u = rng.random(n)
        labels = (post.cumsum(axis=1) < u[:, None]).sum(axis=1)
        labels = np.minimum(labels, self.c - 1)
        candidates = np.zeros((n, self.c), dtype=bool)
        candidates[np.arange(n), labels] = True
        return PllDataset(
            features=x,
            candidates=candidates,
            true_labels=labels.astype(np.int64),
            posterior=post,
        )


def gen_gaussian_mixture(
    c: int, q: int, n: int, separation: float, seed: int
) -> PllDataset:
    """Synthetic dataset with exact posteriors; candidates start as {true label}.

    Layout: c-1 unit-scale classes on a circle of radius `separation` plus a
    broad hub class over the origin (scale 2). The hub label stays plausible
    across the ring, which is what gives the corruption step its
    feature-correlated wrong candidates.
    """
    if n < c:
        raise ConfigError(f"need n >= c, got n={n}, c={c}")
    mixture = GaussianMixture.ring_with_hub(c, q, separation)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return mixture.sample(n, rng)


def corrupt_instance_dependent(
    ds: PllDataset, ambiguity: float, seed: int
) -> PllDataset:
    """Add incorrect candidates with probability scaled by their posterior.

    Each incorrect label j joins instance i's candidate set independently with
    probability ambiguity * eta_j / max_incorrect_eta, so the most confusable
    label joins with probability exactly `ambiguity`. Repairs keep the set
    legal: if nothing joined, the most likely incorrect label is force-added;
    if everything joined, the least likely incorrect label is removed.
    Deterministic per (seed, instance index), independent of iteration order.
    """
    if ds.posterior is None:
        raise ConfigError("instance-dependent corruption needs exact posteriors")
    if ds.true_labels is None:
        raise ConfigError("instance-dependent corruption needs true labels")
    if not 0.0 < ambiguity <= 1.0:
        raise ConfigError(f"ambiguity must be in (0, 1], got {ambiguity}")
    n, c = ds.n, ds.c
    post = np.asarray(ds.posterior)
    labels = np.asarray(ds.true_labels)
    candidates = np.zeros((n, c), dtype=bool)
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        y = labels[i]
        eta = post[i]
        incorrect = np.arange(c) != y
        top = eta[incorrect].max()
        if top > 0.0:
            flip_p = ambiguity * eta / top
        else:
            flip_p = np.zeros(c)
        flips = (rng.random(c) < flip_p) & incorrect
        if not flips.any():
            # guarantee the set is larger than {y}
            j = int(np.argmax(np.where(incorrect, eta, -np.inf)))
            flips[j] = True
        elif flips.sum() == c - 1:
            # guarantee the set is not the whole label space
            j = int(np.argmin(np.where(flips, eta, np.inf)))
            flips[j] = False
        candidates[i] = flips
        candidates[i, y] = True
    return PllDataset(
        features=np.asarray(ds.features).copy(),
        candidates=candidates,
        true_labels=labels.copy(),
        posterior=post.copy(),
    )


# ---------------------------------------------------------------------------
# CSV and manifest I/O
# ---------------------------------------------------------------------------

def save_csv(ds: PllDataset, path) -> None:
    """Write the dataset as CSV: x0..x{q-1}, candidates, [label], [eta0..]."""
    path = Path(path)
    header = [f"x{j}" for j in range(ds.q)] + ["candidates"]
    if ds.true_labels is not None:
        header.append("label")
    if ds.posterior is not None:
        header += [f"eta{j}" for j in range(ds.c)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            row.append(",".join(str(j) for j in np.nonzero(ds.candidates[i])[0]))
            if ds.true_labels is not None:
                row.append(str(int(ds.true_labels[i])))
            if ds.posterior is not None:
                row += [repr(float(v)) for v in ds.posterior[i]]
            writer.writerow(row)


def load_csv(path, c: int | None = None) -> PllDataset:
    """Read a dataset written by save_csv; validates on ingestion.

    The label count is taken from posterior columns when present, from `c`
    otherwise, and as a last resort from the largest candidate index seen.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc

    feat_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    eta_cols = [i for i, name in enumerate(header) if name.startswith("eta")]
    try:
        cand_col = header.index("candidates")
    except ValueError:
        raise ParseError(f"{path}: no 'candidates' column in header {header}") from None
    label_col = header.index("label") if "label" in header else None

    n, q = len(rows), len(feat_cols)
    features = np.empty((n, q))
    cand_lists: list[list[int]] = []
    labels = np.empty(n, dtype=np.int64) if label_col is not None else None
    eta = np.empty((n, len(eta_cols))) if eta_cols else None
    for i, row in enumerate(rows):
        lineno = i + 2  # header is line 1
        if len(row) != len(header):
            raise ParseError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            features[i] = [float(row[j]) for j in feat_cols]
            cand_lists.append(
                [int(tok) for tok in row[cand_col].split(",") if tok != ""]
            )
            if labels is not None:
                labels[i] = int(row[label_col])
            if eta is not None:
                eta[i] = [float(row[j]) for j in eta_cols]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc

    if eta is not None:
        n_labels = eta.shape[1]
    elif c is not None:
        n_labels = c
    else:
        n_labels = 1 + max((max(lst) for lst in cand_lists if lst), default=0)
    candidates = np.zeros((n, n_labels), dtype=bool)
    for i, lst in enumerate(cand_lists):
        for j in lst:
            if not 0 <= j < n_labels:
                raise ParseError(f"{path}:{i + 2}: candidate index {j} out of range")
            candidates[i, j] = True
    ds = PllDataset(
        features=features, candidates=candidates, true_labels=labels, posterior=eta
    )
    validate_dataset(ds)
    return ds


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, ds: PllDataset, csv_path, *, ambiguity=None, seed=None) -> None:
    manifest = {
        "n": ds.n,
        "c": ds.c,
        "q": ds.q,
        "ambiguity": ambiguity,
        "seed": seed,
        "checksum": file_checksum(csv_path),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        fracs = (self.train, self.val, self.test)
        if any(f <= 0 for f in fracs):
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {fracs}")


def _largest_remainder(total: int, fracs) -> list[int]:
    ideal = [total * f for f in fracs]
    counts = [int(np.floor(v)) for v in ideal]
    rema = [v - c for v, c in zip(ideal, counts)]
    for _ in range(total - sum(counts)):
        k = int(np.argmax(rema))
        counts[k] += 1
        rema[k] = -1.0
    return counts


def _allocate_stratified(class_counts: list[int], fracs) -> list[list[int]]:
    """Per-class seat counts: exact split totals, each cell within 1 of ideal.

    Floors first; leftover seats are assigned class by class to the splits
    with the largest residual demand (realizable by the bipartite
    degree-sequence argument, so the greedy never strands a seat).
    """
    n = sum(class_counts)
    targets = _largest_remainder(n, fracs)
    floors = [
        [int(np.floor(cnt * f)) for f in fracs] for cnt in class_counts
    ]
    remainders = [
        [cnt * f - fl for f, fl in zip(fracs, fls)]
        for cnt, fls in zip(class_counts, floors)
    ]
    col_need = [t - sum(fls[s] for fls in floors) for s, t in enumerate(targets)]
    alloc = [list(fls) for fls in floors]
    for ci, cnt in enumerate(class_counts):
        seats = cnt - sum(floors[ci])
        # distinct splits per class keep every cell within 1 of its ideal;
        # highest-residual-demand-first realizes the degree sequence
        order = sorted(
            range(len(fracs)),
            key=lambda s: (-col_need[s], -remainders[ci][s], s),
        )
        for s in order[:seats]:
            alloc[ci][s] += 1
            col_need[s] -= 1
    return alloc


def split(ds: PllDataset, spec: SplitSpec) -> tuple[PllDataset, PllDataset, PllDataset]:
    """Deterministic disjoint train/val/test split, stratified by true label."""
    spec.validate()
    fracs = (spec.train, spec.val, spec.test)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if ds.true_labels is not None:
        class_ids = sorted(np.unique(np.asarray(ds.true_labels)).tolist())
        groups = [np.nonzero(np.asarray(ds.true_labels) == cid)[0] for cid in class_ids]
    else:
        groups = [np.arange(ds.n)]
    alloc = _allocate_stratified([g.size for g in groups], fracs)
    parts: list[list[np.ndarray]] = [[], [], []]
    for g, seats in zip(groups, alloc):
        order = g[rng.permutation(g.size)]
        start = 0
        for s, cnt in enumerate(seats):
            parts[s].append(order[start : start + cnt])
            start += cnt
    idx = [np.sort(np.concatenate(p)) if p else np.empty(0, dtype=int) for p in parts]
    return ds.subset(idx[0]), ds.subset(idx[1]), ds.subset(idx[2])
