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
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError

# Rows per block wherever a whole-dataset pass would otherwise make (n, c)
# temporaries: the mixture posterior, the corruption and the validator.
_ROW_BLOCK = 16384


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
    n, c = cands.shape

    def reject_rows(message, test):
        rows = _rows_where(n, test)
        if rows.size:
            raise DataError(f"{message} in rows {rows.tolist()[:20]}", rows)

    def sizes(b):
        return cands[b].sum(axis=1)

    reject_rows("non-finite features", lambda b: ~np.isfinite(feats[b]).all(axis=1))
    reject_rows("empty candidate sets", lambda b: sizes(b) == 0)
    reject_rows(
        "candidate sets equal to the whole label space", lambda b: sizes(b) == c
    )
    if ds.true_labels is not None:
        y = np.asarray(ds.true_labels)
        if y.shape != (n,):
            raise DataError(f"true_labels shape {y.shape} does not match n={n}")
        reject_rows("labels out of range", lambda b: (y[b] < 0) | (y[b] >= c))

        def has_label(b):
            return np.take_along_axis(cands[b], y[b, None], axis=1)[:, 0]

        reject_rows("true label missing from candidates", lambda b: ~has_label(b))
        if not allow_supervised:
            reject_rows(
                "candidate sets equal to the bare true label",
                lambda b: (sizes(b) == 1) & has_label(b),
            )
    if require_posterior and ds.posterior is None:
        raise DataError("posterior required but absent")
    if ds.posterior is not None:
        post = np.asarray(ds.posterior)
        if post.shape != (n, c):
            raise DataError(f"posterior shape {post.shape} != ({n}, {c})")
        reject_rows(
            "posterior rows off the simplex",
            lambda b: (np.abs(post[b].sum(axis=1) - 1.0) > 1e-9)
            | np.any(post[b] < -1e-12, axis=1),
        )


def _rows_where(n: int, test) -> np.ndarray:
    """Indices of the rows where test(row slice) is true, _ROW_BLOCK rows at a time."""
    hits = [
        start + np.flatnonzero(test(slice(start, start + _ROW_BLOCK)))
        for start in range(0, n, _ROW_BLOCK)
    ]
    return np.concatenate(hits) if hits else np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class GaussianMixture:
    """Balanced isotropic Gaussian mixture with closed-form posterior.

    Components share the mixture weight 1/c; per-component scales are the
    standard deviations of their isotropic covariances.
    """

    means: np.ndarray  # (c, q)
    scales: np.ndarray  # (c,)

    @classmethod
    def ring_with_hub(cls, c: int, q: int, separation: float) -> "GaussianMixture":
        """c-1 unit-scale components on a circle plus one hub of scale 2 at the origin.

        The hub's density spreads over every ring class, so its label is a
        plausible candidate throughout the feature space; this is the
        geometry that makes feature-correlated wrong candidates common.
        """
        if c < 3:
            raise ConfigError(f"need at least 3 classes, got {c}")
        if q < 2:
            raise ConfigError(f"hub layout needs at least 2 feature dims, got {q}")
        if not np.isfinite(separation):
            raise ConfigError(f"separation must be finite, got {separation}")
        means = np.zeros((c, q))
        angles = 2.0 * np.pi * np.arange(c - 1) / (c - 1)
        means[: c - 1, 0] = separation * np.cos(angles)
        means[: c - 1, 1] = separation * np.sin(angles)
        scales = np.ones(c)
        scales[c - 1] = 2.0
        return cls(means=means, scales=scales)

    @property
    def c(self) -> int:
        return self.means.shape[0]

    @property
    def q(self) -> int:
        return self.means.shape[1]

    def posterior(self, x) -> np.ndarray:
        """Exact class posterior rows (density share) for (n, q) or (q,) inputs.

        Raises FloatingPointError when a squared distance overflows.
        """
        x_arr = np.atleast_2d(np.asarray(x, dtype=np.float64))
        with np.errstate(over="raise", invalid="raise"):
            d2 = ((x_arr[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
            log_density = -0.5 * d2 / self.scales[None, :] ** 2 - self.q * np.log(
                self.scales
            )[None, :]
            log_density -= log_density.max(axis=1, keepdims=True)
        e = np.exp(log_density)
        post = e / e.sum(axis=1, keepdims=True)
        return post[0] if np.asarray(x).ndim == 1 else post

    def sample(self, n: int, rng: np.random.Generator) -> PllDataset:
        """Draw features from the mixture marginal, labels from the exact posterior.

        The three draws are whole-length, so the stream does not depend on the
        block size; features, posteriors and labels are then made in row blocks,
        each label overwriting its row's component.
        """
        labels = rng.integers(0, self.c, size=n)  # components, then labels
        x = rng.standard_normal((n, self.q))
        u = rng.random(n)
        post = np.empty((n, self.c))
        candidates = np.zeros((n, self.c), dtype=bool)
        for start in range(0, n, _ROW_BLOCK):
            blk = slice(start, start + _ROW_BLOCK)
            comp = labels[blk]
            x[blk] *= self.scales[comp][:, None]
            x[blk] += self.means[comp]
            post[blk] = self.posterior(x[blk])
            below = (post[blk].cumsum(axis=1) < u[blk, None]).sum(axis=1)
            labels[blk] = np.minimum(below, self.c - 1)
            np.put_along_axis(candidates[blk], labels[blk, None], True, axis=1)
        return PllDataset(
            features=x, candidates=candidates, true_labels=labels, posterior=post
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
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    mixture = GaussianMixture.ring_with_hub(c, q, separation)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    try:
        return mixture.sample(n, rng)
    except FloatingPointError as exc:
        raise ConfigError(
            f"separation {separation} overflows the mixture posterior ({exc})"
        ) from None


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and the 128-bit
# PCG64 multiplier, split into 64-bit limbs
_M32 = 0xFFFFFFFF
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 `a` and the constant `b`."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step, state * multiplier + inc mod 2**128, on (hi, lo) limbs."""
    new_hi = (
        _mulhi64(lo, _PCG_MULT_LO)
        + hi * np.uint64(_PCG_MULT_LO)
        + lo * np.uint64(_PCG_MULT_HI)
    )
    new_lo = lo * np.uint64(_PCG_MULT_LO)
    out_lo = new_lo + inc_lo
    return new_hi + inc_hi + (out_lo < new_lo), out_lo


def _row_uniforms(seed: int, n: int, c: int, start: int = 0) -> np.ndarray:
    """(n, c) doubles; row i is the first c of instance start + i's stream,
    default_rng(SeedSequence(seed, spawn_key=(start + i,))).random(c).

    The SeedSequence pool mixing, the PCG64 seeding and its XSL-RR output are
    replayed in wrapping uint32/uint64 arithmetic for all rows at once. Only
    the spawn key differs between rows, and it is the last entropy word, so
    the words before it broadcast as length-1 arrays.
    """
    words = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_SS_POOL - len(words))  # padded because a spawn key follows
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(start, start + n, dtype=np.uint32))

    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = _SS_MIX_L * x - _SS_MIX_R * y
        return out ^ (out >> 16)

    pool = [hashmix(w) for w in entropy[:_SS_POOL]]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words, paired low word first
    hash_const = _SS_INIT_B
    halves = []
    for k in range(8):
        value = pool[k % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _M32
        value = value * np.uint32(hash_const)
        halves.append(np.broadcast_to(value ^ (value >> 16), (n,)).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        halves[2 * k] | (halves[2 * k + 1] << 32) for k in range(4)
    )
    del halves

    # PCG64 seeding: inc = (seq << 1) | 1, step from 0, add the seed, step
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)

    out = np.empty((n, c))
    for k in range(c):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        bits = (xored >> rot) | (xored << ((64 - rot) & 63))
        out[:, k] = (bits >> 11) * 2.0**-53
    return out


def corrupt_instance_dependent(
    ds: PllDataset, ambiguity: float, seed: int
) -> PllDataset:
    """Add incorrect candidates with probability scaled by their posterior.

    Each incorrect label j joins instance i's candidate set independently with
    probability ambiguity * eta_j / max_incorrect_eta, so the most confusable
    label joins with probability exactly `ambiguity`. Repairs keep the set
    legal: if nothing joined, the most likely incorrect label is force-added;
    if everything joined, the least likely incorrect label is removed.
    Deterministic per (seed, instance index), independent of iteration order:
    instance i compares its flip probabilities with the first c doubles of
    default_rng(SeedSequence(seed, spawn_key=(i,))), computed by
    `_row_uniforms` for a block of _ROW_BLOCK instances at a time. Only the
    candidate masks are new: the result shares the input's features, true
    labels and posterior arrays.
    """
    if ds.posterior is None:
        raise ConfigError("instance-dependent corruption needs exact posteriors")
    if ds.true_labels is None:
        raise ConfigError("instance-dependent corruption needs true labels")
    if not 0.0 < ambiguity <= 1.0:
        raise ConfigError(f"ambiguity must be in (0, 1], got {ambiguity}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    post = np.asarray(ds.posterior)
    labels = np.asarray(ds.true_labels)
    candidates = np.empty((ds.n, ds.c), dtype=bool)
    for start in range(0, ds.n, _ROW_BLOCK):
        blk = slice(start, start + _ROW_BLOCK)
        candidates[blk] = _corrupt_rows(
            post[blk], labels[blk], ambiguity, int(seed), start
        )
    return PllDataset(
        features=np.asarray(ds.features),
        candidates=candidates,
        true_labels=labels,
        posterior=post,
    )


def _corrupt_rows(post, labels, ambiguity: float, seed: int, start: int) -> np.ndarray:
    """Candidate masks of the instances start, start + 1, ... with these rows."""
    n, c = post.shape
    # first, while nothing else is held: replaying the streams needs the most scratch
    uniforms = _row_uniforms(seed, n, c, start)
    rows = np.arange(n)
    incorrect = np.ones((n, c), dtype=bool)
    incorrect[rows, labels] = False
    wrong_eta = np.where(incorrect, post, -np.inf)
    top = wrong_eta.max(axis=1, keepdims=True)
    flip_p = np.zeros((n, c))
    np.divide(ambiguity * post, top, out=flip_p, where=top > 0.0)
    flips = (uniforms < flip_p) & incorrect
    none = ~flips.any(axis=1)
    full = np.nonzero(~none & (flips.sum(axis=1) == c - 1))[0]
    # guarantee the set is larger than {y}
    flips[none, wrong_eta[none].argmax(axis=1)] = True
    # guarantee the set is not the whole label space
    flips[full, np.where(flips[full], post[full], np.inf).argmin(axis=1)] = False
    flips[rows, labels] = True
    return flips


# ---------------------------------------------------------------------------
# CSV and manifest I/O
# ---------------------------------------------------------------------------

_CSV_BLOCK = 1024  # rows formatted or parsed per whole-column pass


def _distinct_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D bool array and each row's index into them.

    np.unique(mask, axis=0, return_inverse=True) without its slow sort of
    rows as opaque records.
    """
    order = np.lexsort(mask.T[::-1])
    ordered = mask[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(ordered), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


def save_csv(ds: PllDataset, path) -> None:
    """Write the dataset as CSV: x0..x{q-1}, candidates, [label], [eta0..].

    The bytes are those of csv.writer on one row at a time: floats as repr,
    the candidate indices joined by commas and quoted when there is more than
    one, and CRLF line ends. Rows are formatted a column at a time in blocks.
    """
    path = Path(path)
    header = [f"x{j}" for j in range(ds.q)] + ["candidates"]
    if ds.true_labels is not None:
        header.append("label")
    if ds.posterior is not None:
        header += [f"eta{j}" for j in range(ds.c)]
    features = np.asarray(ds.features, dtype=np.float64)
    cands = np.asarray(ds.candidates, dtype=bool)
    labels = None if ds.true_labels is None else np.asarray(ds.true_labels, dtype=np.int64)
    post = None if ds.posterior is None else np.asarray(ds.posterior, dtype=np.float64)

    def candidate_field(mask):
        field = ",".join(map(str, np.flatnonzero(mask).tolist()))
        # csv.writer quotes a field holding the delimiter, and a lone empty field
        quoted = "," in field or (field == "" and len(header) == 1)
        return f'"{field}"' if quoted else field

    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, ds.n, _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            masks, mask_ids = _distinct_rows(cands[block])
            cand_fields = [candidate_field(mask) for mask in masks]
            cols = [list(map(repr, col)) for col in features[block].T.tolist()]
            cols.append([cand_fields[k] for k in mask_ids.tolist()])
            if labels is not None:
                cols.append(list(map(str, labels[block].tolist())))
            if post is not None:
                cols += [list(map(repr, col)) for col in post[block].T.tolist()]
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def _float_columns(cols, idx, m: int) -> np.ndarray:
    out = np.empty((m, len(idx)))
    for k, j in enumerate(idx):
        out[:, k] = np.fromiter(map(float, cols[j]), dtype=np.float64, count=m)
    return out


def _candidate_list(field: str) -> list[int]:
    return [int(tok) for tok in field.split(",") if tok != ""]


def load_csv(path, c: int | None = None) -> PllDataset:
    """Read a dataset written by save_csv; validates on ingestion.

    The label count is taken from posterior columns when present, from `c`
    otherwise, and as a last resort from the largest candidate index seen.
    Rows are read and converted a column at a time in blocks; a malformed
    row raises ParseError naming its line (the header is line 1).
    """
    path = Path(path)
    cand_ids: dict[str, int] = {}  # distinct candidate field -> index
    cand_lists: list[list[int]] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            feat_cols = [i for i, name in enumerate(header) if name.startswith("x")]
            eta_cols = [i for i, name in enumerate(header) if name.startswith("eta")]
            if "candidates" not in header:
                raise ParseError(f"{path}: no 'candidates' column in header {header}")
            cand_col = header.index("candidates")
            label_col = header.index("label") if "label" in header else None
            feat_parts = [np.empty((0, len(feat_cols)))]
            code_parts = [np.empty(0, dtype=np.intp)]
            label_parts = [np.empty(0, dtype=np.int64)]
            eta_parts = [np.empty((0, len(eta_cols)))]

            def raise_first_bad_row(rows, start):
                for lineno, row in enumerate(rows, start):
                    if len(row) != len(header):
                        raise ParseError(
                            f"{path}:{lineno}: expected {len(header)} fields, "
                            f"got {len(row)}"
                        )
                    try:
                        for j in feat_cols:
                            float(row[j])
                        _candidate_list(row[cand_col])
                        if label_col is not None:
                            int(row[label_col])
                        for j in eta_cols:
                            float(row[j])
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: {exc}") from exc

            first_line = 2  # of the block; the header is line 1
            while rows := list(itertools.islice(reader, _CSV_BLOCK)):
                m = len(rows)
                if set(map(len, rows)) != {len(header)}:
                    raise_first_bad_row(rows, first_line)
                cols = list(zip(*rows))
                try:
                    feat_parts.append(_float_columns(cols, feat_cols, m))
                    for field in dict.fromkeys(cols[cand_col]):
                        if field not in cand_ids:
                            cand_lists.append(_candidate_list(field))
                            cand_ids[field] = len(cand_ids)
                    code_parts.append(
                        np.fromiter(map(cand_ids.__getitem__, cols[cand_col]), np.intp, m)
                    )
                    if label_col is not None:
                        label_parts.append(
                            np.fromiter(map(int, cols[label_col]), np.int64, m)
                        )
                    if eta_cols:
                        eta_parts.append(_float_columns(cols, eta_cols, m))
                except ValueError:
                    raise_first_bad_row(rows, first_line)
                    raise
                first_line += m
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc

    # one field at a time, each block list freed once it is joined
    features = _join(feat_parts)
    codes = _join(code_parts)
    labels = _join(label_parts) if label_col is not None else None
    eta = _join(eta_parts) if eta_cols else None
    if eta is not None:
        n_labels = eta.shape[1]
    elif c is not None:
        n_labels = c
    else:
        n_labels = 1 + max((max(lst) for lst in cand_lists if lst), default=0)
    masks = np.zeros((len(cand_lists), n_labels), dtype=bool)
    bad_index = {}
    for k, lst in enumerate(cand_lists):
        out_of_range = [j for j in lst if not 0 <= j < n_labels]
        if out_of_range:
            bad_index[k] = out_of_range[0]
        else:
            masks[k, lst] = True
    if bad_index:
        i = int(np.flatnonzero(np.isin(codes, list(bad_index)))[0])
        raise ParseError(
            f"{path}:{i + 2}: candidate index {bad_index[int(codes[i])]} out of range"
        )
    candidates = masks[codes]
    del codes
    ds = PllDataset(
        features=features, candidates=candidates, true_labels=labels, posterior=eta
    )
    validate_dataset(ds)
    return ds


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """np.concatenate(parts), emptying the list so that the blocks can be freed."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def file_checksum(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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

# the train/val/test shares of every split
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 0

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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
    """Deterministic disjoint `SPLIT_FRACTIONS` split, stratified by true label."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    if ds.true_labels is not None:
        class_ids = sorted(np.unique(np.asarray(ds.true_labels)).tolist())
        groups = [np.nonzero(np.asarray(ds.true_labels) == cid)[0] for cid in class_ids]
    else:
        groups = [np.arange(ds.n)]
    alloc = _allocate_stratified([g.size for g in groups], SPLIT_FRACTIONS)
    parts: list[list[np.ndarray]] = [[], [], []]
    for g, seats in zip(groups, alloc):
        order = g[rng.permutation(g.size)]
        start = 0
        for s, cnt in enumerate(seats):
            parts[s].append(order[start : start + cnt])
            start += cnt
    idx = [np.sort(np.concatenate(p)) if p else np.empty(0, dtype=int) for p in parts]
    return ds.subset(idx[0]), ds.subset(idx[1]), ds.subset(idx[2])
