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

import numpy as np

from .errors import (
    AssumptionError,
    ConfigError,
    ContractViolation,
    ParseError,
    ScenarioError,
)

BALL_SLACK = 1e-12  # fp dust allowance when re-checking ball membership
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
        etas = self.etas()
        if np.any(np.abs(etas.sum(axis=1) - 1.0) > 1e-9) or np.any(etas < -1e-12):
            raise ScenarioError("posterior rows are off the probability simplex")
        w = self.weights()
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
            if t.C <= 0 or t.lam <= 0 or not 0.0 < t.t0 <= 1.0:
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

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "labels": self.c,
            "excluded": sorted(self.excluded),
            "tau": self.tau,
            "epsilon": self.epsilon,
            "epsilon_prime": self.epsilon_prime,
            "points": [
                {"eta": [float(v) for v in p.eta], "weight": p.weight}
                for p in self.points
            ],
        }
        if self.tsybakov is not None:
            out["tsybakov"] = {
                "C": self.tsybakov.C,
                "lambda": self.tsybakov.lam,
                "t0": self.tsybakov.t0,
            }
        return out

    @classmethod
    def from_dict(cls, doc: dict, name: str = "") -> "TheoryScenario":
        try:
            points = [
                ScenarioPoint(
                    eta=np.asarray(p["eta"], dtype=np.float64), weight=float(p["weight"])
                )
                for p in doc["points"]
            ]
            tsy = None
            if doc.get("tsybakov") is not None:
                t = doc["tsybakov"]
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
    out = np.where(mask, 0.0, eta / (1.0 - removed))
    return out


def is_disturbing(eta, f_out, j: int, tau: float, epsilon: float) -> bool:
    """True iff label j is indistinguishable from correct given the budgets.

    Requires the model to track the posterior within epsilon everywhere on
    the point and the posterior gap to label j to be at most tau.
    """
    if not 0.0 < epsilon < 1.0:
        raise ContractViolation(f"epsilon must be in (0, 1), got {epsilon}")
    tau_cap = min(1.0, 2.0 * epsilon)
    if not 0.0 < tau <= tau_cap:
        raise ContractViolation(f"tau must be in (0, {tau_cap}], got {tau}")
    eta = np.asarray(eta, dtype=np.float64)
    f_out = np.asarray(f_out, dtype=np.float64)
    star = bayes_label(eta)
    if j == star:
        raise ContractViolation("a disturbing label must differ from the most likely label")
    if np.any(np.abs(f_out - eta) > epsilon):
        return False
    return bool(eta[star] - eta[j] <= tau)


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
) -> np.ndarray:
    """Uniform coordinate draws in [center +- radius], clipped, renormalized.

    Draws whose renormalized point leaves the ball (beyond fp dust) are
    rejected and resampled, so every returned row honors the budget.
    """
    c = center.size
    out = np.empty((count, c))
    need = np.arange(count)
    lo = np.clip(center - radius, 0.0, 1.0)
    hi = np.clip(center + radius, 0.0, 1.0)
    n_sup = int(support.sum())
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        k = need.size
        draw = np.zeros((k, c))
        draw[:, support] = rng.uniform(lo[support], hi[support], size=(k, n_sup))
        total = draw.sum(axis=1)
        ok = total > 0.0
        f = np.zeros_like(draw)
        f[ok] = draw[ok] / total[ok, None]
        ok &= (np.abs(f - center) <= radius + BALL_SLACK).all(axis=1)
        out[need[ok]] = f[ok]
        need = need[~ok]
        if need.size == 0:
            return out
    raise ScenarioError(
        f"ball sampling kept rejecting after {_MAX_RESAMPLE_ROUNDS} rounds "
        f"(radius {radius} too tight around the simplex)"
    )


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


def _conditional_counts(
    scenario: TheoryScenario, members: list[int], trials: int, rng: np.random.Generator
) -> np.ndarray:
    w = scenario.weights()[members]
    return rng.multinomial(trials, w / w.sum())


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
    if not scenario.excluded:
        raise ScenarioError("theorem verification needs a nonempty excluded set")
    members = members_of_J(scenario)
    if not members:
        raise ScenarioError("troubled set is empty; construct a scenario with members")
    bound = epsilon_prime_bound(scenario)

    f_rad = scenario.epsilon if f_radius is None else f_radius
    phi_rad = scenario.epsilon_prime if phi_radius is None else phi_radius
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = _conditional_counts(scenario, members, trials, rng)

    support_all = np.ones(scenario.c, dtype=bool)
    support_reduced = np.ones(scenario.c, dtype=bool)
    support_reduced[list(scenario.excluded)] = False

    lhs_hits = 0
    rhs_hits = 0
    for i, count in zip(members, counts):
        if count == 0:
            continue
        eta = scenario.points[i].eta
        star = bayes_label(eta)
        candidates = np.zeros(scenario.c, dtype=bool)
        candidates[star] = True
        candidates[list(scenario.excluded)] = True

        f_samples = sample_simplex_ball(rng, eta, f_rad, support_all, count)
        masked = np.where(candidates, f_samples, -np.inf)
        lhs_hits += int((masked.argmax(axis=1) == star).sum())

        eta_reduced = reduced_posterior(eta, scenario.excluded)
        phi_samples = sample_simplex_ball(
            rng, eta_reduced, phi_rad, support_reduced, count
        )
        rhs_hits += int((phi_samples.argmax(axis=1) == star).sum())

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
        epsilon_prime_bound=bound,
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
    if not scenario.excluded:
        raise ScenarioError("theorem verification needs a nonempty excluded set")
    members = members_of_J(scenario)
    if not members:
        raise ScenarioError("troubled set is empty; construct a scenario with members")
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

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = _conditional_counts(scenario, members, trials, rng)
    support_reduced = np.ones(scenario.c, dtype=bool)
    support_reduced[list(scenario.excluded)] = False
    hits = 0
    for i, count in zip(members, counts):
        if count == 0:
            continue
        eta = scenario.points[i].eta
        eta_reduced = reduced_posterior(eta, scenario.excluded)
        phi_samples = sample_simplex_ball(
            rng, eta_reduced, scenario.epsilon_prime, support_reduced, count
        )
        hits += int((phi_samples.argmax(axis=1) == bayes_label(eta)).sum())

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
    weights = weights / weights.sum()
    grid = t0 * np.arange(1, 101) / 100.0
    cdf = (weights[None, :] * (margins[None, :] <= grid[:, None])).sum(axis=1)
    return bool(np.all(cdf <= C * grid**lam + 1e-12))
