"""Numerical verification of the pseudo-label consistency guarantees.

Works over finite scenarios: a list of points with exact posterior rows and
probability weights, a set of excluded labels, and accuracy budgets. The two
verifiers sample score functions uniformly from coordinate-wise balls around
the posterior (for the plain predictor) and around the reduced posterior (for
the label-subspace model), re-project onto the simplex, and estimate how
often each side's pseudo-label argmax matches the most likely label. All
argmax ties break toward the lowest label index.
"""

from __future__ import annotations

import json
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
)

BALL_SLACK = 1e-12  # fp dust allowance when re-checking ball membership
BALL_BLOCK = 65536  # rows the ball sampler draws and yields at a time
_MAX_RESAMPLE_ROUNDS = 1000


@dataclass(frozen=True)
class ScenarioPoint:
    eta: np.ndarray  # (c,) exact posterior row
    weight: float


@dataclass(frozen=True)
class TsybakovConstants:
    C: float
    lam: float
    t0: float


@dataclass
class TheoryScenario:
    """Finite instance space with exact posteriors and accuracy budgets."""

    points: list[ScenarioPoint]
    excluded: frozenset[int]
    tau: float
    epsilon: float
    epsilon_prime: float
    tsybakov: TsybakovConstants | None = None
    name: str = ""

    @property
    def c(self) -> int:
        return self.points[0].eta.size

    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.points])

    def etas(self) -> np.ndarray:
        return np.stack([p.eta for p in self.points])

    def validate(self) -> None:
        if not self.points:
            raise ScenarioError("scenario has no points")
        c = self.c
        if any(p.eta.shape != (c,) for p in self.points):
            raise ScenarioError(f"posterior rows must all be flat with {c} entries")
        etas = self.etas()
        w = self.weights()
        if not (np.isfinite(etas).all() and np.isfinite(w).all()):
            raise ScenarioError("posterior rows and point weights must be finite")
        if np.any(np.abs(etas.sum(axis=1) - 1.0) > 1e-9) or np.any(etas < -1e-12):
            raise ScenarioError("posterior rows are off the probability simplex")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ScenarioError("point weights must be nonnegative and sum to 1")
        if any(not 0 <= j < c for j in self.excluded):
            raise ScenarioError(f"excluded labels out of range for c={c}")
        if len(self.excluded) >= c:
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
        members = members_of_J(self)
        if members:
            bound = epsilon_prime_bound(self)
            if self.epsilon_prime >= min(1.0, bound):
                raise ScenarioError(
                    f"epsilon_prime {self.epsilon_prime} violates the subspace-model "
                    f"accuracy hypothesis (needs < {min(1.0, bound):.6g})"
                )

    # -- JSON ----------------------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict, name: str = "") -> "TheoryScenario":
        try:
            _reject_unknown_keys("scenario", doc, "name", "labels", "points", "excluded",
                                 "tau", "epsilon", "epsilon_prime", "tsybakov")
            points = []
            for p in doc["points"]:
                _reject_unknown_keys("point", p, "eta", "weight")
                points.append(
                    ScenarioPoint(
                        eta=np.asarray(p["eta"], dtype=np.float64), weight=float(p["weight"])
                    )
                )
            if "labels" in doc and any(p.eta.size != doc["labels"] for p in points):
                raise ParseError(f"labels is {doc['labels']!r}; an eta row has another length")
            tsy = None
            if doc.get("tsybakov") is not None:
                t = doc["tsybakov"]
                _reject_unknown_keys("tsybakov", t, "C", "lambda", "t0")
                tsy = TsybakovConstants(
                    C=float(t["C"]), lam=float(t["lambda"]), t0=float(t["t0"])
                )
            scenario = cls(
                points=points,
                excluded=frozenset(int(j) for j in doc["excluded"]),
                tau=float(doc["tau"]),
                epsilon=float(doc["epsilon"]),
                epsilon_prime=float(doc["epsilon_prime"]),
                tsybakov=tsy,
                name=str(doc.get("name", name)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed scenario document: {exc}") from exc
        scenario.validate()
        return scenario

    @classmethod
    def from_json(cls, path) -> "TheoryScenario":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(doc, name=path.stem)


def _reject_unknown_keys(what: str, doc: dict, *known: str) -> None:
    unknown = set(doc).difference(known)
    if unknown:
        raise ParseError(f"unknown {what} keys: {sorted(unknown)}")


def builtin_scenario_names() -> list[str]:
    root = resources.files("reduxpll.scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin_scenario(name: str) -> TheoryScenario:
    root = resources.files("reduxpll.scenarios")
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        raise ParseError(
            f"no builtin scenario {name!r}; available: {builtin_scenario_names()}"
        )
    return TheoryScenario.from_dict(json.loads(candidate.read_text()), name=name)


# ---------------------------------------------------------------------------
# Pointwise definitions
# ---------------------------------------------------------------------------

def bayes_label(eta) -> int:
    """Most likely label; ties break to the lowest index."""
    return int(np.argmax(np.asarray(eta)))


def second_best(eta) -> int:
    """Runner-up label: best over labels other than the most likely one."""
    eta = np.asarray(eta, dtype=np.float64)
    masked = eta.copy()
    masked[bayes_label(eta)] = -np.inf
    return int(np.argmax(masked))


def margin(eta) -> float:
    """Gap between the top posterior and the runner-up."""
    eta = np.asarray(eta, dtype=np.float64)
    return float(eta[bayes_label(eta)] - eta[second_best(eta)])


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


def membership_J(scenario: TheoryScenario, index: int) -> bool:
    """Whether point `index` belongs to the troubled set for the excluded labels.

    Every excluded label must be disturbing (close to the top posterior, and
    not the top label itself), and every non-excluded incorrect label must
    have strictly smaller posterior than every excluded one.
    """
    eta = scenario.points[index].eta
    star = bayes_label(eta)
    excluded = sorted(scenario.excluded)
    if not excluded:
        return True
    for j in excluded:
        if j == star:
            return False
        if eta[star] - eta[j] > scenario.tau:
            return False
    others = [k for k in range(scenario.c) if k != star and k not in scenario.excluded]
    if others:
        if max(eta[k] for k in others) >= min(eta[j] for j in excluded):
            return False
    return True


def members_of_J(scenario: TheoryScenario) -> list[int]:
    return [i for i in range(len(scenario.points)) if membership_J(scenario, i)]


def _a_label(eta, excluded) -> int:
    ex = sorted(excluded)
    if not ex:
        raise ScenarioError("excluded set is empty; no top excluded label exists")
    return ex[int(np.argmax([eta[j] for j in ex]))]


def _b_label(eta, excluded) -> int:
    star = bayes_label(eta)
    rest = [k for k in range(len(eta)) if k != star and k not in excluded]
    if not rest:
        raise ScenarioError(
            "no incorrect label remains outside the excluded set; scenario is degenerate"
        )
    return rest[int(np.argmax([eta[k] for k in rest]))]


def epsilon_prime_bound(scenario: TheoryScenario) -> float:
    """Largest admissible accuracy budget for the label-subspace model.

    min over troubled points of
    (eta_top - eta_b)(eta_top - eta_a) / (4 eps (1 - excluded mass)).
    """
    members = members_of_J(scenario)
    if not members:
        raise ScenarioError("troubled set is empty; construct a scenario with members")
    vals = []
    for i in members:
        eta = scenario.points[i].eta
        star = bayes_label(eta)
        a = _a_label(eta, scenario.excluded)
        b = _b_label(eta, scenario.excluded)
        removed = sum(eta[j] for j in scenario.excluded)
        vals.append(
            (eta[star] - eta[b])
            * (eta[star] - eta[a])
            / (4.0 * scenario.epsilon * (1.0 - removed))
        )
    return float(min(vals))


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
                draw = rng.uniform(size=(k, c))
            else:
                draw = np.zeros((k, c))
                draw[:, support] = rng.uniform(size=(k, len(columns)))
            # one column at a time: broadcasting along rows of c entries costs more
            for j in columns:
                col = draw[:, j]
                col *= width[j]
                col += lo[j]
            if c < 8:
                # numpy's reduce adds fewer than 8 entries left to right, so
                # column adds give its bits; a zero column adds nothing
                total = draw[:, columns[0]].copy()
                for j in columns[1:]:
                    total += draw[:, j]
            else:
                # numpy sums 8 or more entries pairwise
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
    """The troubled points, the stream seeded by `seed`, and `(eta, star, count)`
    for each troubled point that drew trials in the stream's first draw, a
    multinomial split of `trials` by weight. The ball draws continue the stream.
    """
    members = members_of_J(scenario)
    w = scenario.weights()[members]
    if not w.sum() > 0.0:
        raise ScenarioError("troubled set is empty or carries no weight; nothing to sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = []
    for i, count in zip(members, rng.multinomial(trials, w / w.sum())):
        if count:
            eta = scenario.points[i].eta
            draws.append((eta, bayes_label(eta), int(count)))
    return members, rng, draws


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
    members, rng, draws = _troubled_trials(scenario, trials, seed)
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
        troubled_points=members,
        epsilon_prime_bound=epsilon_prime_bound(scenario),
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
    members, rng, draws = _troubled_trials(scenario, trials, seed)
    tsy = scenario.tsybakov
    if not check_tsybakov(scenario, tsy.C, tsy.lam, tsy.t0, restrict_to_troubled=True):
        raise AssumptionError(
            "margin condition fails on the troubled subset for the supplied constants"
        )

    ts = []
    for i in members:
        eta = scenario.points[i].eta
        star = bayes_label(eta)
        s = second_best(eta)
        b = _b_label(eta, scenario.excluded)
        ts.append(
            4.0
            * scenario.epsilon
            * scenario.epsilon_prime
            * (1.0 - eta[s])
            / (eta[star] - eta[b])
        )
    worst_t = float(max(ts))
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
        troubled_points=members,
        tsybakov={"C": tsy.C, "lambda": tsy.lam, "t0": tsy.t0},
    )


def check_tsybakov(
    scenario: TheoryScenario,
    C: float,
    lam: float,
    t0: float,
    *,
    restrict_to_troubled: bool = False,
) -> bool:
    """Grid check that the margin CDF is dominated by C * t^lambda up to t0.

    Evaluates P(margin <= t) on a grid of 100 points in (0, t0] against the
    stated envelope (with fp-dust slack). With restrict_to_troubled the CDF is
    conditional on the troubled subset, which is the form the consistency
    bound actually uses.
    """
    if not 0.0 < t0 <= 1.0:
        raise ContractViolation(f"t0 must be in (0, 1], got {t0}")
    if C <= 0 or lam <= 0:
        raise ContractViolation(f"C and lambda must be positive, got {C}, {lam}")
    idx = members_of_J(scenario) if restrict_to_troubled else range(len(scenario.points))
    idx = list(idx)
    if not idx:
        raise ScenarioError("no points to evaluate the margin condition on")
    margins = np.array([margin(scenario.points[i].eta) for i in idx])
    weights = scenario.weights()[idx]
    if weights.sum() <= 0.0:
        raise ScenarioError("the points to evaluate the margin condition on carry no weight")
    weights = weights / weights.sum()
    grid = t0 * np.arange(1, 101) / 100.0
    cdf = (weights[None, :] * (margins[None, :] <= grid[:, None])).sum(axis=1)
    return bool(np.all(cdf <= C * grid**lam + 1e-12))
