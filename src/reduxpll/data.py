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
import functools
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
            raise DataError(f"{message} in rows {rows.tolist()[:20]}", rows, message)

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
        # NaN fails every comparison, so the simplex test alone would pass it
        reject_rows("non-finite posteriors", lambda b: ~np.isfinite(post[b]).all(axis=1))
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


def _mulhi64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 `a` and `b` (an array or an int)."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
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
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


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


# A CSV field is a row of bytes: a comma, then the text, with 0 bytes as
# padding anywhere after the comma; the writer drops every 0 byte of a line.
# A float's field is 32 bytes, made as four little-endian uint64 words:
# byte 0 is the comma, byte 1 the sign, bytes 2-23 the body (17 digits
# right-aligned, the point inserted among them) and bytes 24-28 the suffix.
_FLOAT_FIELD = 32
_BODY = 22  # body bytes; body column j is field byte 2 + j
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW10_MIN, _POW10_MAX = -292, 324  # the powers of ten that Schubfach multiplies by
_EXP_MIN, _EXP_MAX = -324, 308  # decimal exponents of doubles in scientific notation
_ABS = np.uint64(2**63 - 1)
_INF_BITS = np.uint64(0x7FF0000000000000)
_NAN_TEXT, _INF_TEXT = np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8)


def _words(text: bytes, at: int = 0) -> np.ndarray:
    """The four words of a field that holds `text` from byte `at` on, 0 elsewhere."""
    field = bytes(at) + text + bytes(_FLOAT_FIELD - at - len(text))
    return np.frombuffer(field, dtype="<u8")


@functools.cache
def _format_tables() -> dict[str, np.ndarray]:
    """Tables of the float formatter, built once on first use.

    g_hi, g_lo: the 128-bit floor(10**e / 2**(floor(log2 10**e) - 127)) + 1
    for e from _POW10_MIN to _POW10_MAX, split into 64-bit halves. quads: the
    ASCII of 0000..9999 as little-endian words. suffix: the last word of a
    field holding "", "0" (after an integral value's point) and "e-324" to
    "e+308". Word masks of a field's body, indexed by a body column j: keep,
    the columns from j on; before, after and dot, the columns before, after
    and at a point in column j, where j = _BODY stands for the last column
    with no point written (one digit in scientific notation).
    """
    g = []
    for e in range(_POW10_MIN, _POW10_MAX + 1):
        shift = ((e * 1741647) >> 19) - 127  # floor(log2 10**e) - 127
        num, den = 10 ** max(e, 0) << max(-shift, 0), 10 ** max(-e, 0) << max(shift, 0)
        g.append(num // den + 1)
    # quads and suffix are 8-byte texts read as little-endian words. The digits
    # of 0000..9999 are made in uint16: a 320 KB int64 temporary would raise
    # glibc's mmap threshold, and later blocks would stay on the heap.
    quads = np.zeros((10000, 8), dtype=np.uint8)
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    quads[:, :4] = np.arange(10000, dtype=np.uint16)[:, None] // places % 10 + ord("0")
    # "", "0" and "e%+03d" % e; a two-digit exponent is written with three
    # digits, then moved left over its leading 0
    exponent = np.arange(_EXP_MIN, _EXP_MAX + 1)
    suffix = np.zeros((2 + exponent.size, 8), dtype=np.uint8)
    suffix[1, 0] = ord("0")
    exps = suffix[2:]
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    exps[:, 2:5] = np.abs(exponent)[:, None] // [100, 10, 1] % 10 + ord("0")
    two = np.abs(exponent) < 100
    exps[two, 2:5] = exps[two, 3:6]
    ones = b"\xff" * _BODY
    cols = [*range(_BODY), _BODY - 1]
    tables = {
        "g_hi": np.array([v >> 64 for v in g], dtype=np.uint64),
        "g_lo": np.array([v & (2**64 - 1) for v in g], dtype=np.uint64),
        "quads": quads.view("<u8")[:, 0],
        "suffix": suffix.view("<u8")[:, 0],
        "keep": np.stack([_words(ones[j:], 2 + j) for j in range(_BODY)]),
        "before": np.stack([_words(ones[:j], 2) for j in cols]),
        "after": np.stack([_words(ones[j + 1 :], 3 + j) for j in cols]),
        "dot": np.stack([_words(b".", 2 + j) for j in range(_BODY)] + [_words(b"")]),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _round_to_odd(g_hi, g_lo, cp):
    """The top 64 bits of the 192-bit products g * cp, made odd where the 64 bits
    below them exceed 1, the most that g's rounding up can add to them."""
    x_hi = _mulhi64(g_lo, cp)
    y_lo = g_hi * cp + x_hi
    y_hi = _mulhi64(g_hi, cp) + (y_lo < x_hi)
    return y_hi | (y_lo > 1)


def _shortest_decimals(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) with d * 10**k the shortest decimal that reads back as each double.

    `mag` holds the bits of finite positive doubles (other values give
    garbage). Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020): scale the rounding interval's ends and middle by a power of ten,
    rounding to odd, and pick the shortest decimal inside it, the nearer one on
    a tie of length, the even one on a tie of distance. d may end in zeros.
    """
    biased = (mag >> 52).astype(np.int64)
    frac = mag & np.uint64(2**52 - 1)
    c = frac | (biased != 0).astype(np.uint64) << 52
    q = np.maximum(biased, 1) - 1075  # the double is c * 2**q
    closer = (frac == 0) & (biased > 1)  # the lower neighbour is half as far
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10 of 2**q, or of 3/4 2**q)
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    tables = _format_tables()
    g_hi, g_lo = tables["g_hi"][-k - _POW10_MIN], tables["g_lo"][-k - _POW10_MIN]
    cb = c << 2
    vb = _round_to_odd(g_hi, g_lo, cb << h)
    lower = _round_to_odd(g_hi, g_lo, (cb - 2 + closer) << h) + (c & 1)
    upper = _round_to_odd(g_hi, g_lo, (cb + 2) << h) - (c & 1)
    s = vb >> 2
    # one digit fewer: at most one of its neighbours lies inside
    sp = vb // 40
    up_in = lower <= 40 * sp
    wp_in = 40 * sp + 40 <= upper
    use_sp = (s >= 10) & (up_in != wp_in)
    u_in = lower <= 4 * s
    w_in = 4 * s + 4 <= upper
    round_up = (vb > 4 * s + 2) | ((vb == 4 * s + 2) & ((s & 1) == 1))
    d = np.where(use_sp, sp + wp_in, s + np.where(u_in != w_in, w_in, round_up))
    return d, k + use_sp


def _float_fields(values: np.ndarray) -> np.ndarray:
    """(*values.shape, _FLOAT_FIELD) bytes: each double as repr writes it, after a comma.

    The layout follows repr: scientific notation below 1e-4 and from 1e16 on
    (the shortest digits put the point at or left of the fourth place after
    it, or past the sixteenth digit), with a signed exponent of at least two
    digits; '.0' after integral values; 'nan', 'inf' and '-inf' for the
    non-finite values.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    tables = _format_tables()
    bits = x.view(np.uint64)
    mag = bits & _ABS
    regular = (mag != 0) & (mag < _INF_BITS)
    d, k = _shortest_decimals(mag)
    d[~regular] = 0  # zeros print as 0.0; non-finite fields are replaced below
    k[~regular] = 0
    trailing = np.flatnonzero((d % 10 == 0) & regular)
    if trailing.size:  # strip trailing zeros: 16, 8, 4, 2 and then 1 at a time
        dt, kt = d[trailing], k[trailing]
        for p in (16, 8, 4, 2, 1):
            even = dt % _POW10[p] == 0
            dt = np.where(even, dt // _POW10[p], dt)
            kt += even * p
        d[trailing], k[trailing] = dt, kt
    n = np.searchsorted(_POW10[1:18], d, side="right") + 1  # digits of d
    point = k + n  # the value is 0.(digits) * 10**point
    sci = (point < -3) | (point > 16)
    integral = (k >= 0) & ~sci
    whole = np.flatnonzero(integral)
    if whole.size:  # all digits before the point: put the stripped zeros back
        d[whole] *= _POW10[k[whole]]
        n[whole] = point[whole]

    # 17 digits in ASCII end the body, and '0' fills the five bytes before them
    top, rest = np.divmod(d, _POW10[16])
    halves = np.stack(np.divmod(rest, _POW10[8]), axis=1)
    quads = tables["quads"][np.stack(np.divmod(halves, _POW10[4]), axis=2)]
    words = np.empty((x.size, 4), dtype=np.uint64)
    words[:, 0] = (top + ord("0")) << 56 | int(_words(b"00000", 2)[0])
    words[:, 1:3] = quads[..., 0] | quads[..., 1] << 32
    words[:, 3] = 0
    # keep the significant digits, and the zeros of "0.000ddd" below 1
    lead = _BODY - n - np.where(sci, 0, np.maximum(1 - point, 0))
    words &= np.take(tables["keep"], lead, axis=0)
    # the point follows the integer part (one digit in scientific notation),
    # and the digits before it move one byte left
    frac = np.where(sci, n - 1, n - point)
    col = np.where(sci & (n == 1), _BODY, _BODY - 1 - frac)
    flat = words.reshape(-1)
    moved = flat >> 8
    moved[:-1] |= flat[1:] << 56  # byte b takes byte b + 1
    words &= np.take(tables["after"], col, axis=0)
    words |= moved.reshape(-1, 4) & np.take(tables["before"], col, axis=0)
    words |= np.take(tables["dot"], col, axis=0)
    words[:, 0] |= ord(",") | (bits >> 63) * (ord("-") << 8)
    words[:, 3] = tables["suffix"][np.where(sci, point - 1 - _EXP_MIN + 2, integral)]

    out = words.astype("<u8", copy=False).view(np.uint8)
    special = np.flatnonzero(mag >= _INF_BITS)
    if special.size:
        nan = mag[special] > _INF_BITS
        out[special, 1] *= ~nan  # repr writes no sign on a nan
        out[special, 2:] = 0
        out[special, 2:5] = np.where(nan[:, None], _NAN_TEXT, _INF_TEXT)
    return out.reshape(*np.shape(values), _FLOAT_FIELD)


def _int_fields(values: np.ndarray) -> np.ndarray:
    """(n, w) bytes: each int64 as str writes it, after a comma."""
    neg = values < 0
    mag = np.where(neg, -values, values).astype(np.uint64)  # -(-2**63) wraps to 2**63
    width = len(str(int(mag.max()))) if mag.size else 1
    powers = _POW10[width - 1 :: -1]
    out = np.empty((mag.size, width + 2), dtype=np.uint8)
    out[:, 0] = ord(",")
    out[:, 1] = neg * ord("-")
    out[:, 2:] = mag[:, None] // powers % 10 + ord("0")
    leading = mag[:, None] < powers
    leading[:, -1] = False  # zero is one digit
    out[:, 2:][leading] = 0
    return out


def _text_fields(texts: list[str]) -> np.ndarray:
    """(len(texts), w) bytes: each ASCII text after a comma."""
    width = 1 + max(map(len, texts), default=0)
    rows = b"".join(b"," + t.encode().ljust(width - 1, b"\0") for t in texts)
    return np.frombuffer(rows, dtype=np.uint8).reshape(len(texts), width)


def save_csv(ds: PllDataset, path) -> str:
    """Write the dataset as CSV: x0..x{q-1}, candidates, [label], [eta0..].

    The bytes are those of csv.writer on one row at a time: floats as repr,
    the candidate indices joined by commas and quoted when there is more than
    one, and CRLF line ends. Each block of rows becomes one byte matrix, a
    line per row, whose fields `_float_fields`, `_int_fields` and
    `_text_fields` make. Returns the sha256 hex digest of the bytes written.
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

    head = (",".join(header) + "\r\n").encode()
    digest = hashlib.sha256(head)
    with path.open("wb") as fh:
        fh.write(head)
        split = ds.q * _FLOAT_FIELD  # the features' bytes of a line
        for start in range(0, ds.n, _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            m = min(_CSV_BLOCK, ds.n - start)
            masks, mask_ids = _distinct_rows(cands[block])
            floats = features[block] if post is None else np.hstack([features[block], post[block]])
            floats = _float_fields(floats).reshape(m, -1)
            fields = [floats[:, :split], _text_fields([candidate_field(k) for k in masks])[mask_ids]]
            if labels is not None:
                fields.append(_int_fields(labels[block]))
            fields += [floats[:, split:], np.broadcast_to(_CRLF, (m, 2))]
            lines = np.concatenate(fields, axis=1)
            lines[:, 0] = 0  # the first field's comma
            text = lines[lines != 0]
            fh.write(text)
            digest.update(text)
    return digest.hexdigest()


_NOT_A = {float: "could not convert string to float", int: "invalid literal for int() with base 10"}


def _number(kind, text: str):
    """float(text) or int(text), where text, stripped, is ASCII and holds no '_'."""
    if text.strip().isascii() and "_" not in text:
        return kind(text)
    raise ValueError(f"{_NOT_A[kind]}: {text!r}")


def _indices(field: str) -> list[int]:
    """The integers of a candidates field, joined by commas; empty items are skipped."""
    return [_number(int, tok) for tok in field.split(",") if tok != ""]


def _fields(line: str) -> list[str]:
    """csv.reader's fields of one line, read with errors="surrogateescape";
    ValueError where the line is not UTF-8 or a quote is open at its end."""
    text = line.rstrip("\r\n")
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 ({exc})") from None
    (fields,) = csv.reader([text + "\n"])
    if fields and fields[-1].endswith("\n"):  # only an open quote keeps the line break
        raise ValueError("a quoted field does not close on its line")
    return fields


_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 1}
# a table's bytes column is as wide as its block's longest line, so a block is
# tabled in slices of at most _TABLE_CHARS // longest lines
_TABLE_CHARS = 2**20


class _CsvBlocks:
    """The fields of load_csv's header, read from blocks of lines by `table`;
    `refuse` names the first line of a block that `table` refused. Distinct
    candidate fields are parsed once, in `ids` and `lists`."""

    def __init__(self, path: Path, header: list[str]):
        self.path = path
        self.feat = [i for i, name in enumerate(header) if name.startswith("x")]
        self.eta = [i for i, name in enumerate(header) if name.startswith("eta")]
        self.cand = header.index("candidates")
        self.label = header.index("label") if "label" in header else None
        self.kinds = ["f8" if name.startswith(("x", "eta")) else "S" for name in header]
        if self.label is not None:
            self.kinds[self.label] = "i8"
        self.ids: dict[bytes, int] = {}  # distinct candidate field -> index
        self.lists: list[list[int]] = []

    def table(self, lines: list[str]) -> tuple:
        """(features, codes, labels, eta) of one row per line; ValueError unless
        each line is a record. numpy's C reader reads a number as `_number` does,
        but it skips blank lines and joins a quoted line break (the row count
        shows both), reads the last line's open quote to the end, and drops the
        trailing NULs of a bytes field."""
        if "\0" in "".join(lines):
            raise ValueError("a NUL character")
        if not lines[0].rstrip("\r\n"):  # a block of blank lines would make numpy warn
            raise ValueError("a blank line")
        longest = max(map(len, lines))  # no field can be cut short
        dtype = np.dtype(
            [(f"f{j}", f"S{longest}" if k == "S" else k) for j, k in enumerate(self.kinds)]
        )
        table = np.loadtxt(lines, dtype=dtype, **_LOADTXT)
        if len(table) != len(lines):
            raise ValueError(f"{len(table)} rows in {len(lines)} lines")
        last = lines[-1].rstrip("\r\n") + "\n"  # its fields as text; dtype=str is slow
        if np.loadtxt([last], dtype=f"U{len(last)}", **_LOADTXT)[-1].endswith("\n"):
            raise ValueError("a quoted field does not close on its line")
        fields = table[f"f{self.cand}"].tolist()
        for field in dict.fromkeys(fields):  # a refusal ends the load: no half-update matters
            if field not in self.ids:
                self.lists.append(_indices(field.decode("latin-1")))  # chars < 256
                self.ids[field] = len(self.ids)
        codes = np.fromiter(map(self.ids.__getitem__, fields), np.intp, len(fields))
        labels = None if self.label is None else table[f"f{self.label}"].copy()
        return self._columns(table, self.feat), codes, labels, self._columns(table, self.eta)

    @staticmethod
    def _columns(table, cols: list[int]) -> np.ndarray:
        out = np.empty((len(table), len(cols)))
        for k, j in enumerate(cols):
            out[:, k] = table[f"f{j}"]
        return out

    def refuse(self, lines: list[str], first_line: int):
        """Raise the ParseError of the first of `lines` that `table` refuses alone."""
        for lineno, line in enumerate(lines, first_line):
            try:
                self.table([line])
            except ValueError as exc:
                raise ParseError(f"{self.path}:{lineno}: {self._reason(line) or exc}") from None
        raise RuntimeError(f"{self.path}:{first_line}: a block is refused but none of its lines")

    def _reason(self, line: str) -> str | None:
        """Why a line is not a record, in the words of csv.reader, float() and
        int(); None where they find no fault (a NUL in a column that is not
        read) or cannot split the line."""
        try:
            row = _fields(line)
            if len(row) != len(self.kinds):
                return f"expected {len(self.kinds)} fields, got {len(row)}"
            for j in self.feat:
                _number(float, row[j])
            _indices(row[self.cand])
            if self.label is not None and not -(2**63) <= _number(int, row[self.label]) < 2**63:
                return f"label {int(row[self.label])} is out of the int64 range"
            for j in self.eta:
                _number(float, row[j])
        except ValueError as exc:
            return str(exc)
        except csv.Error:  # a field past its size limit
            pass
        return None


def load_csv(path, c: int | None = None) -> PllDataset:
    """Read a dataset written by save_csv; validates on ingestion.

    The label count is taken from posterior columns when present, from `c`
    otherwise, and as a last resort from the largest candidate index seen.
    The file is UTF-8, with one record per line. Rows are read in blocks of
    _CSV_BLOCK lines, tabled in slices sized by the block's longest line
    (see _CsvBlocks and _TABLE_CHARS); a line that is not a record raises
    ParseError naming it (the header is line 1), and a row that breaks a
    dataset invariant raises DataError naming the line of the first such row.
    """
    path = Path(path)
    try:
        # a byte that is not UTF-8 reads as a lone surrogate, which no field accepts
        with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
            first = fh.readline()
            if not first:
                raise ParseError(f"{path}: empty file")
            try:
                header = _fields(first)
            except (ValueError, csv.Error) as exc:
                raise ParseError(f"{path}:1: {exc}") from None
            if "candidates" not in header:
                raise ParseError(f"{path}:1: no 'candidates' column in header {header}")
            blocks = _CsvBlocks(path, header)
            parts = [[np.empty((0, len(blocks.feat)))], [np.empty(0, dtype=np.intp)]]
            parts += [[np.empty(0, dtype=np.int64)], [np.empty((0, len(blocks.eta)))]]
            first_line = 2  # of the slice; the header is line 1
            while block := list(itertools.islice(fh, _CSV_BLOCK)):
                step = max(1, _TABLE_CHARS // max(map(len, block)))
                for lines in (block[at : at + step] for at in range(0, len(block), step)):
                    try:
                        columns = blocks.table(lines)
                    except ValueError:
                        blocks.refuse(lines, first_line)  # raises ParseError
                    for part, array in zip(parts, columns):
                        part.append(array)
                    first_line += len(lines)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc

    # one field at a time, each block list freed once it is joined
    features = _join(parts[0])
    codes = _join(parts[1])
    labels = _join(parts[2]) if blocks.label is not None else None
    eta = _join(parts[3]) if blocks.eta else None
    cand_lists = blocks.lists
    if eta is not None:
        n_labels = eta.shape[1]
    elif c is not None:
        n_labels = c
    else:
        n_labels = 1 + max((max(lst) for lst in cand_lists if lst), default=0)
    masks = np.zeros((len(cand_lists), n_labels), dtype=bool)
    for k, lst in enumerate(cand_lists):  # in the order of their first lines
        bad = [j for j in lst if not 0 <= j < n_labels]
        if bad:
            i = int(np.flatnonzero(codes == k)[0])  # row i is on line i + 2
            raise ParseError(f"{path}:{i + 2}: candidate index {bad[0]} out of range")
        masks[k, lst] = True
    candidates = masks[codes]
    del codes
    ds = PllDataset(
        features=features, candidates=candidates, true_labels=labels, posterior=eta
    )
    try:
        validate_dataset(ds)
    except DataError as exc:  # a loaded dataset can break only the invariants of rows
        line = exc.rows[0] + 2  # one record per line, after the header
        raise DataError(f"{path}:{line}: {exc.reason}", exc.rows, exc.reason) from None
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


def write_manifest(path, ds: PllDataset, checksum: str, *, ambiguity=None, seed=None) -> None:
    """Write the dataset's manifest; `checksum` is the CSV's digest, as save_csv returns it."""
    manifest = {
        "n": ds.n,
        "c": ds.c,
        "q": ds.q,
        "ambiguity": ambiguity,
        "seed": seed,
        "checksum": checksum,
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
