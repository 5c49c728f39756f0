"""Numerical verification of the pseudo-label consistency guarantees.

Works over finite scenarios: the exact posterior row and probability weight
of each point, as two arrays, a set of excluded labels, and accuracy
budgets. The two verifiers sample score functions uniformly from
coordinate-wise balls around the posterior (for the plain predictor) and
around the reduced posterior (for the label-subspace model), re-project onto
the simplex, and estimate how often each side's pseudo-label argmax matches
the most likely label. All argmax ties break toward the lowest label index.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    AssumptionError,
    ConfigError,
    ContractViolation,
    ParseError,
    ScenarioError,
    check,
    parse_object,
    read_text,
)

BALL_SLACK = 1e-12  # fp dust allowance when re-checking ball membership
# rows the ball sampler draws at a time; 512 KiB at 4 labels fits L2, and
# below 8 labels the draw is copied once, into column-major order
BALL_BLOCK = 16384
_MAX_RESAMPLE_ROUNDS = 1000

# a scenario document; `labels`, when given, is the length of every `eta` row
_SCENARIO = {
    "name?": str, "labels?": int, "points": [{"eta": [float], "weight": float}],
    "excluded": [int], "tau": float, "epsilon": float, "epsilon_prime": float,
    "tsybakov?": ({"C": float, "lambda": float, "t0": float}, None),
}


@dataclass(frozen=True)
class TsybakovConstants:
    C: float
    lam: float
    t0: float


@dataclass
class TheoryScenario:
    """Finite instance space with exact posteriors and accuracy budgets."""

    etas: np.ndarray  # (k, c): the exact posterior row of each of k points
    weights: np.ndarray  # (k,): each point's probability
    excluded: frozenset[int]
    tau: float
    epsilon: float
    epsilon_prime: float
    tsybakov: TsybakovConstants | None = None
    name: str = ""

    @property
    def c(self) -> int:
        return self.etas.shape[1]

    def validate(self) -> None:
        etas, w = self.etas, self.weights
        if etas.ndim != 2 or w.shape != etas.shape[:1]:
            raise ScenarioError("etas must be a (points, labels) array with one weight per row")
        if not len(etas):
            raise ScenarioError("scenario has no points")
        if not (np.isfinite(etas).all() and np.isfinite(w).all()):
            raise ScenarioError("posterior rows and point weights must be finite")
        if np.any(np.abs(etas.sum(axis=1) - 1.0) > 1e-9) or np.any(etas < -1e-12):
            raise ScenarioError("posterior rows are off the probability simplex")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ScenarioError("point weights must be nonnegative and sum to 1")
        if any(not 0 <= j < self.c for j in self.excluded):
            raise ScenarioError(f"excluded labels out of range for c={self.c}")
        if len(self.excluded) >= self.c:
            raise ScenarioError("excluded set must be a proper subset of the labels")
        if not 0.0 < self.epsilon < 1.0:
            raise ScenarioError(f"epsilon must be in (0, 1), got {self.epsilon}")
        tau_cap = min(1.0, 2.0 * self.epsilon)
        if not 0.0 < self.tau <= tau_cap:
            raise ScenarioError(
                f"tau must be in (0, {tau_cap}], got {self.tau}"
            )
        if not 0.0 < self.epsilon_prime < 1.0:
            raise ScenarioError(
                f"epsilon_prime must be in (0, 1), got {self.epsilon_prime}"
            )
        if self.tsybakov is not None:
            t = self.tsybakov
            if not (t.C > 0 and t.lam > 0 and 0.0 < t.t0 <= 1.0):
                raise ScenarioError(
                    f"Tsybakov constants out of range: C={t.C}, lambda={t.lam}, t0={t.t0}"
                )
        t = troubled(self)
        if t.members.size:
            bound = epsilon_prime_bound(self, t)
            if self.epsilon_prime >= min(1.0, bound):
                raise ScenarioError(
                    f"epsilon_prime {self.epsilon_prime} violates the subspace-model "
                    f"accuracy hypothesis (needs < {min(1.0, bound):.6g})"
                )

    # -- JSON ----------------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict, name: str = "", where="scenario") -> "TheoryScenario":
        """The scenario `doc` describes; a refusal names `where`, the document's file."""
        check(doc, _SCENARIO, where)
        rows = [[float(v) for v in p["eta"]] for p in doc["points"]]
        if "labels" in doc and any(len(row) != doc["labels"] for row in rows):
            raise ParseError(f"{where}: labels is {doc['labels']}; an eta row has another length")
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ScenarioError(f"{where}: posterior rows must all be flat with {c} entries")
        tsy = doc.get("tsybakov")
        if tsy is not None:
            tsy = TsybakovConstants(float(tsy["C"]), float(tsy["lambda"]), float(tsy["t0"]))
        scenario = cls(
            etas=np.array(rows, dtype=np.float64).reshape(len(rows), c),
            weights=np.array([float(p["weight"]) for p in doc["points"]]),
            excluded=frozenset(doc["excluded"]),
            tau=float(doc["tau"]),
            epsilon=float(doc["epsilon"]),
            epsilon_prime=float(doc["epsilon_prime"]),
            tsybakov=tsy,
            name=doc.get("name", name),
        )
        try:
            scenario.validate()
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        return scenario

    @classmethod
    def from_json(cls, path) -> "TheoryScenario":
        path = Path(path)
        return cls.from_dict(parse_object(read_text(path), path), name=path.stem, where=path)


def builtin_scenario_names() -> list[str]:
    root = resources.files("reduxpll.scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin_scenario(name: str) -> TheoryScenario:
    candidate = resources.files("reduxpll.scenarios") / f"{name}.json"
    if not candidate.is_file():
        raise ParseError(f"no builtin scenario {name!r}; available: {builtin_scenario_names()}")
    return TheoryScenario.from_json(candidate)


# ---------------------------------------------------------------------------
# Troubled points
# ---------------------------------------------------------------------------

def reduced_posterior(eta, excluded) -> np.ndarray:
    """Posterior conditioned on the label lying outside the excluded set."""
    eta = np.asarray(eta, dtype=np.float64)
    mask = np.zeros(eta.size, dtype=bool)
    mask[list(excluded)] = True
    removed = float(eta[mask].sum())
    if 1.0 - removed <= 1e-12:
        raise ScenarioError(
            "excluded labels carry (almost) all posterior mass; reduction is singular"
        )
    return np.where(mask, 0.0, eta / (1.0 - removed))


@dataclass(frozen=True)
class TroubledSet:
    """A scenario's troubled points and, for each, the labels its bounds use."""

    members: np.ndarray  # (m,) ascending point indices
    eta: np.ndarray  # (m, c) their posterior rows
    top: np.ndarray  # the most likely label
    a: np.ndarray | None  # the top excluded label; None if none is excluded
    b: np.ndarray | None  # the top label neither excluded nor `top`; None if none is left
    runner_up: np.ndarray  # the top label other than `top`
    excluded_mass: np.ndarray  # the posterior mass of the excluded labels

    def posterior(self, labels: np.ndarray) -> np.ndarray:
        """Each member's posterior of its entry in `labels`."""
        return self.eta[np.arange(len(labels)), labels]


def troubled(scenario: TheoryScenario) -> TroubledSet:
    """The points troubled by the excluded labels, in one pass over all points.

    A point is troubled when every excluded label is disturbing: it is not the
    most likely label, its posterior is within tau of the top one, and it
    beats every other incorrect label strictly. With no label excluded, every
    point is troubled. Every argmax breaks ties toward the lowest label.
    """
    etas = scenario.etas
    ex = np.array(sorted(scenario.excluded), dtype=np.intp)
    rows = np.arange(len(etas))
    top = etas.argmax(axis=1)
    rivals = etas.copy()  # -inf at the top label
    rivals[rows, top] = -np.inf
    runner_up = rivals.argmax(axis=1)
    rivals[:, ex] = -np.inf  # and at every excluded label
    far = etas[rows, top][:, None] - etas[:, ex] > scenario.tau
    member = ~np.isin(top, ex) & ~far.any(axis=1)
    if ex.size:
        member &= rivals.max(axis=1) < etas[:, ex].min(axis=1)
    members = np.flatnonzero(member)
    eta = etas[members]
    return TroubledSet(
        members=members,
        eta=eta,
        top=top[members],
        a=ex[eta[:, ex].argmax(axis=1)] if ex.size else None,
        b=rivals[members].argmax(axis=1) if scenario.c > ex.size + 1 else None,
        runner_up=runner_up[members],
        # added in the set's iteration order, on which the bound's last bits depend
        excluded_mass=sum((eta[:, j] for j in scenario.excluded), np.zeros(len(eta))),
    )


def epsilon_prime_bound(scenario: TheoryScenario, t: TroubledSet) -> float:
    """Largest admissible accuracy budget for the label-subspace model.

    min over the troubled points `t` of
    (eta_top - eta_b)(eta_top - eta_a) / (4 eps (1 - excluded mass)).
    """
    if not t.members.size:
        raise ScenarioError("troubled set is empty; construct a scenario with members")
    if t.a is None:
        raise ScenarioError("excluded set is empty; no top excluded label exists")
    if t.b is None:
        raise ScenarioError(
            "no incorrect label remains outside the excluded set; scenario is degenerate"
        )
    top = t.posterior(t.top)
    vals = (
        (top - t.posterior(t.b))
        * (top - t.posterior(t.a))
        / (4.0 * scenario.epsilon * (1.0 - t.excluded_mass))
    )
    return float(vals.min())


# ---------------------------------------------------------------------------
# Ball sampling
# ---------------------------------------------------------------------------

def sample_simplex_ball(
    rng: np.random.Generator,
    center: np.ndarray,
    radius: float,
    support: np.ndarray,
    count: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Uniform coordinate draws in [center +- radius], clipped, renormalized.

    Draws whose renormalized point leaves the ball (beyond fp dust) are
    rejected and resampled, so `count` rows are accepted in all. Each rejection
    round draws its rows in blocks of at most BALL_BLOCK rows and yields every
    drawn block with its acceptance mask, `(block, ok)`; only the number it
    rejected carries into the next round, so memory does not grow with
    `count`. Rejected rows stay in the block and may hold NaN. Accepted rows
    come out in round order, not in the order of their first draw.

    Raises ContractViolation, before any draw, for a negative or non-finite
    radius, a non-finite center, an empty support or a negative count.
    """
    if not (np.isfinite(radius) and radius >= 0.0):
        raise ContractViolation(f"ball radius must be finite and nonnegative, got {radius}")
    if not np.isfinite(center).all():
        raise ContractViolation(f"ball center must be finite, got {center}")
    if not support.any():
        raise ContractViolation("ball support is empty")
    if count < 0:
        raise ContractViolation(f"ball row count must be nonnegative, got {count}")
    c = center.size
    columns = np.flatnonzero(support).tolist()
    lo = np.clip(center - radius, 0.0, 1.0)
    width = np.clip(center + radius, 0.0, 1.0) - lo
    bound = radius + BALL_SLACK
    # Below 8 labels a block is column-major, so that every column step below
    # runs on contiguous memory; from 8 labels on it stays row-major, because
    # numpy's row reduction there would sum a column-major block in another order.
    order = "F" if c < 8 else "C"
    need = count
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        rejected = 0
        for start in range(0, need, BALL_BLOCK):
            k = min(BALL_BLOCK, need - start)
            # rng.uniform(lo, hi) makes lo + (hi - lo) * next_double; the same
            # map in place on standard doubles gives its bits for less than its
            # broadcasting costs. The draw stays a `uniform` call: bench/tracer.py
            # counts rows there.
            # The canvas takes the draw as a temporary, so across a yield the
            # generator holds no block besides the one it yields.
            if len(columns) == c:
                draw = np.asarray(rng.uniform(size=(k, c)), order=order)
            else:
                draw = np.zeros((k, c), order=order)
                draw[:, support] = rng.uniform(size=(k, len(columns)))
            # one column at a time: broadcasting along rows of c entries costs more
            for j in columns:
                col = draw[:, j]
                col *= width[j]
                col += lo[j]
            # below 8 labels the block is column-major, and numpy sums it column
            # by column, left to right, as it sums a row of fewer than 8 entries;
            # an unsupported column adds +0.0
            total = np.add.reduce(draw, axis=1)
            ok = total > 0.0
            # a row summing to 0 is all zeros: it divides to NaN and `ok` rejects it
            with np.errstate(invalid="ignore"):
                draw /= total[:, None]
            # one column at a time: a reduction along rows of c entries costs more
            for j in range(c):
                ok &= np.abs(draw[:, j] - center[j]) <= bound
            rejected += k - int(np.count_nonzero(ok))
            yield draw, ok
        need = rejected
        if need == 0:
            return
    raise ScenarioError(
        f"ball sampling kept rejecting after {_MAX_RESAMPLE_ROUNDS} rounds "
        f"(radius {radius} too tight around the simplex)"
    )


def _count_hits(
    blocks: Iterator[tuple[np.ndarray, np.ndarray]], star: int, candidates: np.ndarray
) -> int:
    """Accepted rows whose argmax over the `candidates` columns is `star`.

    Compares `star` with one rival column at a time under argmax's tie rule
    (the lowest index wins): it must beat a rival left of it strictly and one
    right of it at least weakly. Writes into each block's `ok` mask.
    """
    rivals = [j for j in np.flatnonzero(candidates) if j != star]
    hits = 0
    for block, ok in blocks:
        s = block[:, star]
        for j in rivals:
            ok &= (np.greater if j < star else np.greater_equal)(s, block[:, j])
        hits += int(np.count_nonzero(ok))
    return hits


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------

@dataclass
class Theorem1Report:
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    combined_se: float
    gap: float
    holds: bool
    trials: int
    troubled_points: list[int]
    epsilon_prime_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Theorem2Report:
    empirical_consistency: float
    empirical_se: float
    bound: float
    worst_case_t: float
    holds: bool
    trials: int
    troubled_points: list[int]
    tsybakov: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _binomial_se(p_hat: float, n: int) -> float:
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))


def _troubled_trials(scenario: TheoryScenario, trials: int, seed: int):
    """The troubled set, the stream seeded by `seed`, and `(eta, star, count)`
    for each troubled point that drew trials in the stream's first draw, a
    multinomial split of `trials` by weight. The ball draws continue the stream.
    """
    t = troubled(scenario)
    w = scenario.weights[t.members]
    if not w.sum() > 0.0:
        raise ScenarioError("troubled set is empty or carries no weight; nothing to sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = rng.multinomial(trials, w / w.sum())
    draws = [(eta, int(star), int(count))
             for eta, star, count in zip(t.eta, t.top, counts) if count]
    return t, rng, draws


def _phi_hits(rng, scenario: TheoryScenario, eta, star: int, radius: float, count: int) -> int:
    """Draws in the ball around the reduced posterior whose plain argmax is `star`."""
    support = np.ones(scenario.c, dtype=bool)
    support[list(scenario.excluded)] = False
    center = reduced_posterior(eta, scenario.excluded)
    blocks = sample_simplex_ball(rng, center, radius, support, count)
    return _count_hits(blocks, star, np.ones(scenario.c, dtype=bool))


def verify_theorem1(
    scenario: TheoryScenario,
    trials: int,
    seed: int,
    *,
    f_radius: float | None = None,
    phi_radius: float | None = None,
) -> Theorem1Report:
    """Estimate both sides of the consistency comparison by Monte Carlo.

    Per trial: draw a troubled point, a predictor score within the epsilon
    ball around its posterior, and a subspace-model score within the
    epsilon-prime ball around its reduced posterior. The predictor's
    pseudo-label is the argmax restricted to the candidate set (the most
    likely label plus the excluded labels); the subspace model's is its plain
    argmax. Radius overrides (e.g. 0 for exact scores) replace the scenario
    budgets for sampling only.
    """
    if trials <= 0:
        raise ConfigError(f"trials must be positive, got {trials}")
    scenario.validate()
    t, rng, draws = _troubled_trials(scenario, trials, seed)
    f_rad = scenario.epsilon if f_radius is None else f_radius
    phi_rad = scenario.epsilon_prime if phi_radius is None else phi_radius

    lhs_hits = 0
    rhs_hits = 0
    for eta, star, count in draws:
        candidates = np.zeros(scenario.c, dtype=bool)
        candidates[[star, *scenario.excluded]] = True
        lhs_hits += _count_hits(
            sample_simplex_ball(rng, eta, f_rad, np.ones(scenario.c, dtype=bool), count),
            star,
            candidates,
        )
        rhs_hits += _phi_hits(rng, scenario, eta, star, phi_rad, count)

    lhs = lhs_hits / trials
    rhs = rhs_hits / trials
    lhs_se = _binomial_se(lhs, trials)
    rhs_se = _binomial_se(rhs, trials)
    combined = float(np.hypot(lhs_se, rhs_se))
    return Theorem1Report(
        lhs=lhs,
        rhs=rhs,
        lhs_se=lhs_se,
        rhs_se=rhs_se,
        combined_se=combined,
        gap=rhs - lhs,
        holds=lhs <= rhs + 2.0 * combined,
        trials=trials,
        troubled_points=t.members.tolist(),
        epsilon_prime_bound=epsilon_prime_bound(scenario, t),
    )


def verify_theorem2(scenario: TheoryScenario, trials: int, seed: int) -> Theorem2Report:
    """Check the lower bound on subspace-model consistency over troubled points.

    The bound is evaluated at the worst troubled point:
    1 - C * (4 eps eps' (1 - eta_runnerup) / (eta_top - eta_b))^lambda, and the
    margin condition is verified on the troubled subset before use.
    """
    if trials <= 0:
        raise ConfigError(f"trials must be positive, got {trials}")
    scenario.validate()
    if scenario.tsybakov is None:
        raise ConfigError("scenario carries no Tsybakov constants")
    t, rng, draws = _troubled_trials(scenario, trials, seed)
    tsy = scenario.tsybakov
    if not check_tsybakov(scenario, tsy.C, tsy.lam, tsy.t0):
        raise AssumptionError(
            "margin condition fails on the troubled subset for the supplied constants"
        )

    ts = (
        4.0
        * scenario.epsilon
        * scenario.epsilon_prime
        * (1.0 - t.posterior(t.runner_up))
        / (t.posterior(t.top) - t.posterior(t.b))
    )
    worst_t = float(ts.max())
    if worst_t > tsy.t0:
        raise AssumptionError(
            f"bound argument {worst_t:.6g} exceeds t0={tsy.t0}; the margin "
            "condition does not cover it"
        )
    bound = 1.0 - tsy.C * worst_t**tsy.lam

    hits = sum(
        _phi_hits(rng, scenario, eta, star, scenario.epsilon_prime, count)
        for eta, star, count in draws
    )
    empirical = hits / trials
    return Theorem2Report(
        empirical_consistency=empirical,
        empirical_se=_binomial_se(empirical, trials),
        bound=bound,
        worst_case_t=worst_t,
        holds=empirical >= bound,
        trials=trials,
        troubled_points=t.members.tolist(),
        tsybakov={"C": tsy.C, "lambda": tsy.lam, "t0": tsy.t0},
    )


def check_tsybakov(scenario: TheoryScenario, C: float, lam: float, t0: float) -> bool:
    """Grid check that the margin CDF is dominated by C * t^lambda up to t0.

    Evaluates P(margin <= t), conditional on the troubled subset (the form
    the consistency bound uses), on a grid of 100 points in (0, t0] against
    the stated envelope (with fp-dust slack).
    """
    if not 0.0 < t0 <= 1.0:
        raise ContractViolation(f"t0 must be in (0, 1], got {t0}")
    if not (C > 0 and lam > 0):  # a NaN constant too
        raise ContractViolation(f"C and lambda must be positive, got {C}, {lam}")
    t = troubled(scenario)
    if not t.members.size:
        raise ScenarioError("no troubled points to evaluate the margin condition on")
    margins = t.posterior(t.top) - t.posterior(t.runner_up)
    weights = scenario.weights[t.members]
    if weights.sum() <= 0.0:
        raise ScenarioError("the troubled points carry no weight")
    weights = weights / weights.sum()
    grid = t0 * np.arange(1, 101) / 100.0
    cdf = (weights[None, :] * (margins[None, :] <= grid[:, None])).sum(axis=1)
    return bool(np.all(cdf <= C * grid**lam + 1e-12))
