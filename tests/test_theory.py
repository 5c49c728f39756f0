import hashlib
import json
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reduxpll import theory
from reduxpll.cli import main
from reduxpll.errors import (
    AssumptionError,
    ConfigError,
    ContractViolation,
    ParseError,
    ScenarioError,
)


def make_scenario(points, weights, excluded, tau, eps, eps_p, tsy=None):
    return theory.TheoryScenario(
        points=[
            theory.ScenarioPoint(eta=np.asarray(e, dtype=np.float64), weight=w)
            for e, w in zip(points, weights)
        ],
        excluded=frozenset(excluded),
        tau=tau,
        epsilon=eps,
        epsilon_prime=eps_p,
        tsybakov=None if tsy is None else theory.TsybakovConstants(*tsy),
    )


# -- reduced posterior ---------------------------------------------------------

def test_reduced_posterior_worked_example():
    out = theory.reduced_posterior([0.5, 0.3, 0.2], {1})
    assert np.allclose(out, [5 / 7, 0.0, 2 / 7], atol=1e-15)


def test_reduced_posterior_empty_exclusion_is_identity():
    eta = np.array([0.4, 0.35, 0.25])
    assert np.array_equal(theory.reduced_posterior(eta, set()), eta)


def test_reduced_posterior_is_singular_when_excluded_mass_is_everything():
    with pytest.raises(ScenarioError):
        theory.reduced_posterior([0.0, 1.0, 0.0], {1})


def test_reduced_posterior_preserves_argmax_over_kept_labels():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        c = int(rng.integers(3, 7))
        eta = rng.random(c) + 1e-6
        eta /= eta.sum()
        excluded = set(rng.choice(c, size=int(rng.integers(1, c - 1)), replace=False).tolist())
        if 1.0 - sum(eta[j] for j in excluded) <= 1e-9:
            continue
        reduced = theory.reduced_posterior(eta, excluded)
        kept = [k for k in range(c) if k not in excluded]
        expect = kept[int(np.argmax(eta[kept]))]
        assert int(np.argmax(reduced)) == expect


# -- disturbing labels (the rule as membership_J applies it) --------------------

ETA = np.array([0.4, 0.35, 0.25])


def _one_point(excluded, tau):
    return make_scenario([ETA], [1.0], excluded, tau=tau, eps=0.06, eps_p=0.01)


def test_disturbing_true_for_close_runner_up():
    assert theory.membership_J(_one_point({1}, tau=0.1), 0)


def test_disturbing_false_when_gap_exceeds_tau():
    assert theory.membership_J(_one_point({1}, tau=0.06), 0)  # the gap is 0.05
    assert not theory.membership_J(_one_point({1}, tau=0.04), 0)


def test_disturbing_validates_tau_range_and_target_label():
    with pytest.raises(ScenarioError, match="tau"):
        _one_point({1}, tau=0.2).validate()  # tau > 2 eps
    assert not theory.membership_J(_one_point({0}, tau=0.1), 0)  # 0 is the top label


# -- membership in the troubled set ----------------------------------------------

def test_membership_holds_for_runner_up_exclusion_with_generous_tau():
    scen = make_scenario(
        [[0.4, 0.35, 0.2, 0.05]], [1.0], excluded={1}, tau=0.4, eps=0.3, eps_p=0.01
    )
    assert theory.membership_J(scen, 0)


def test_membership_fails_when_excluded_contains_bayes_label():
    scen = make_scenario(
        [[0.4, 0.35, 0.2, 0.05]], [1.0], excluded={0}, tau=0.4, eps=0.3, eps_p=0.01
    )
    assert not theory.membership_J(scen, 0)


def test_membership_matches_literal_set_builder_on_random_scenario():
    rng = np.random.default_rng(1)
    etas = rng.random((20, 5)) + 1e-3
    etas /= etas.sum(axis=1, keepdims=True)
    weights = np.full(20, 1 / 20)
    scen = make_scenario(etas, weights, excluded={1, 3}, tau=0.4, eps=0.25, eps_p=1e-4)

    def literal(eta, excluded, tau):
        # re-implementation straight from the set-builder, no shared helpers
        y = max(range(len(eta)), key=lambda k: (eta[k], -k))
        for j in excluded:
            if j == y:
                return False
            if not (eta[y] - eta[j] <= tau):
                return False
            for k in range(len(eta)):
                if k != y and k not in excluded and not (eta[k] < eta[j]):
                    return False
        return True

    for i in range(20):
        assert theory.membership_J(scen, i) == literal(etas[i], {1, 3}, 0.4)


# -- scenario io and validation ---------------------------------------------------

def test_builtin_scenarios_load_and_validate():
    names = theory.builtin_scenario_names()
    assert "theorem1-4class" in names and "theorem2-tsybakov" in names
    for name in names:
        scen = theory.load_builtin_scenario(name)
        scen.validate()
        assert theory.members_of_J(scen)


def test_scenario_json_round_trip(tmp_path):
    scen = theory.load_builtin_scenario("theorem1-4class")
    path = tmp_path / "scen.json"
    path.write_text((resources.files("reduxpll.scenarios") / "theorem1-4class.json").read_text())
    again = theory.TheoryScenario.from_json(path)
    assert again.excluded == scen.excluded
    assert np.allclose(again.etas(), scen.etas())


def test_malformed_scenario_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        theory.TheoryScenario.from_json(path)
    path.write_text(json.dumps({"points": []}))
    with pytest.raises(ParseError):
        theory.TheoryScenario.from_json(path)


def _bundled_doc(name):
    return json.loads((resources.files("reduxpll.scenarios") / f"{name}.json").read_text())


def _misspell_tsybakov(doc):
    doc["tsybakv"] = doc.pop("tsybakov")


def _unknown_point_key(doc):
    doc["points"][0]["label"] = 0


def _unknown_tsybakov_key(doc):
    doc["tsybakov"]["t1"] = 0.5


def _too_many_labels(doc):
    doc["labels"] = 7


def _ragged_rows(doc):
    del doc["labels"]  # so the rows reach validate()
    doc["points"][1]["eta"].append(0.0)


def _nan_weight(doc):
    doc["points"][0]["weight"] = float("nan")


def _nan_eta(doc):
    doc["points"][0]["eta"][2] = float("nan")


def _nan_tsybakov_constant(doc):
    doc["tsybakov"]["C"] = float("nan")


SCENARIO_DEFECTS = {
    "misspelled-key": (_misspell_tsybakov, ParseError),
    "unknown-point-key": (_unknown_point_key, ParseError),
    "unknown-tsybakov-key": (_unknown_tsybakov_key, ParseError),
    "labels-off-eta-length": (_too_many_labels, ParseError),
    "ragged-rows": (_ragged_rows, ScenarioError),
    "nan-weight": (_nan_weight, ScenarioError),
    "nan-eta": (_nan_eta, ScenarioError),
    "nan-tsybakov-constant": (_nan_tsybakov_constant, ScenarioError),
}


@pytest.mark.parametrize("defect", sorted(SCENARIO_DEFECTS))
@pytest.mark.parametrize("name", ["theorem1-4class", "theorem2-tsybakov"])
def test_malformed_scenario_documents_are_rejected(tmp_path, capsys, name, defect):
    mutate, error = SCENARIO_DEFECTS[defect]
    doc = _bundled_doc(name)
    mutate(doc)
    with pytest.raises(error):
        theory.TheoryScenario.from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-theory", "--scenario", str(path), "--trials", "100"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_excluded_set_is_rejected(tmp_path, capsys):
    scen = make_scenario(
        [[0.45, 0.40, 0.10, 0.05]], [1.0], set(), tau=0.2, eps=0.1, eps_p=0.002,
        tsy=(20.0, 1.0, 1.0),
    )
    for check in (
        scen.validate,
        lambda: theory.verify_theorem1(scen, 100, seed=0),
        lambda: theory.verify_theorem2(scen, 100, seed=0),
    ):
        with pytest.raises(ScenarioError, match="excluded set is empty"):
            check()
    doc = _bundled_doc("theorem1-4class")
    doc["excluded"] = []
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-theory", "--scenario", str(path), "--trials", "100"]) == 2
    assert "excluded set is empty" in capsys.readouterr().err


def test_scenario_validation_rejects_bad_budgets():
    with pytest.raises(ScenarioError):
        make_scenario([[0.5, 0.3, 0.2]], [1.0], {1}, tau=0.5, eps=0.1, eps_p=0.01).validate()
    with pytest.raises(ScenarioError):
        make_scenario([[0.5, 0.3, 0.2]], [1.0], {1}, tau=0.1, eps=1.5, eps_p=0.01).validate()
    with pytest.raises(ScenarioError):
        make_scenario([[0.5, 0.3, 0.2]], [0.7], {1}, tau=0.1, eps=0.1, eps_p=0.01).validate()


def test_scenario_validation_enforces_subspace_accuracy_hypothesis():
    # bound for this point is (0.45-0.10)(0.45-0.40)/(0.4*0.6) = 0.0729...
    scen = make_scenario(
        [[0.45, 0.40, 0.10, 0.05]], [1.0], {1}, tau=0.2, eps=0.1, eps_p=0.08
    )
    with pytest.raises(ScenarioError):
        scen.validate()


# -- ball sampling -----------------------------------------------------------------

def test_ball_samples_honor_radius_and_support():
    rng = np.random.default_rng(2)
    center = np.array([0.6, 0.0, 0.3, 0.1])
    support = np.array([True, False, True, True])
    blocks = theory.sample_simplex_ball(rng, center, 0.05, support, 500)
    out = np.concatenate([b[ok] for b, ok in blocks])
    assert np.abs(out - center).max() <= 0.05 + 1e-9
    assert np.all(out[:, 1] == 0.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_ball_radius_zero_returns_center_exactly():
    rng = np.random.default_rng(3)
    center = np.array([0.5, 0.3, 0.2])
    blocks = theory.sample_simplex_ball(rng, center, 0.0, np.ones(3, bool), 7)
    out = np.concatenate([b[ok] for b, ok in blocks])
    assert np.allclose(out, center, atol=1e-15)


def reference_ball(rng, center, radius, support, count):
    """The one-shot sampler: every round draws all its rows in one call.

    Row i of the result is the first accepted redraw of row i, so its rows are
    the streaming sampler's, in another order.
    """
    c = center.size
    out = np.empty((count, c))
    need = np.arange(count)
    lo = np.clip(center - radius, 0.0, 1.0)
    hi = np.clip(center + radius, 0.0, 1.0)
    n_sup = int(support.sum())
    for _ in range(theory._MAX_RESAMPLE_ROUNDS):
        k = need.size
        draw = np.zeros((k, c))
        draw[:, support] = rng.uniform(lo[support], hi[support], size=(k, n_sup))
        total = draw.sum(axis=1)
        ok = total > 0.0
        np.divide(draw, total[:, None], out=draw, where=ok[:, None])
        ok &= (np.abs(draw - center) <= radius + theory.BALL_SLACK).all(axis=1)
        out[need[ok]] = draw[ok]
        need = need[~ok]
        if need.size == 0:
            return out
    raise ScenarioError("reference sampler kept rejecting")


# accepts about half its draws, so a few hundred rows take about ten rounds
REJECTING_CENTER = np.array([0.8] + [0.025] * 8)
REJECTING_RADIUS = 0.025


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


def _check_one_shot_rows_and_draws(monkeypatch, block, center, radius, support):
    monkeypatch.setattr(theory, "BALL_BLOCK", block)
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    expect = reference_ball(ref_rng, center, radius, support, 300)
    blocks = list(theory.sample_simplex_ball(rng, center, radius, support, 300))
    assert max(len(b) for b, _ in blocks) <= block
    # the ball rejects some draws, so more than one round runs
    assert sum(len(b) for b, _ in blocks) > 300
    rows = np.concatenate([b[ok] for b, ok in blocks])
    assert np.array_equal(_sorted_rows(rows), _sorted_rows(expect))
    # both consumed the same doubles: the streams are in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_ball_blocks_yield_the_one_shot_rows_and_draws(monkeypatch, block):
    support = np.ones(REJECTING_CENTER.size, bool)
    _check_one_shot_rows_and_draws(monkeypatch, block, REJECTING_CENTER, REJECTING_RADIUS, support)


# (center, radius, support) on each side of numpy's pairwise-sum threshold of
# 8 entries, and one with an unsupported label; REJECTING_CENTER has 9
SHORT_BALLS = {
    "8-labels": (np.array([0.72] + [0.04] * 7), 0.04, np.ones(8, bool)),
    "7-labels": (np.array([0.7] + [0.05] * 6), 0.05, np.ones(7, bool)),
    "4-labels-one-unsupported": (
        np.array([0.6, 0.0, 0.3, 0.1]), 0.1, np.array([True, False, True, True])
    ),
}


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("ball", sorted(SHORT_BALLS))
def test_short_and_partial_balls_yield_the_one_shot_rows_and_draws(monkeypatch, ball, block):
    _check_one_shot_rows_and_draws(monkeypatch, block, *SHORT_BALLS[ball])


BAD_BALL_ARGS = {
    "negative-radius": dict(radius=-0.1),
    "nan-radius": dict(radius=float("nan")),
    "inf-radius": dict(radius=float("inf")),
    "nan-center": dict(center=np.array([0.5, np.nan, 0.2])),
    "empty-support": dict(support=np.zeros(3, bool)),
    "negative-count": dict(count=-1),
}


@pytest.mark.parametrize("case", sorted(BAD_BALL_ARGS))
def test_ball_rejects_bad_arguments_before_any_draw(case):
    args = dict(center=np.array([0.5, 0.3, 0.2]), radius=0.1, support=np.ones(3, bool), count=10)
    args.update(BAD_BALL_ARGS[case])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ContractViolation, match="ball"):
        list(theory.sample_simplex_ball(rng, **args))
    assert rng.bit_generator.state == before


def test_verifier_radius_overrides_are_checked():
    scen = theory.load_builtin_scenario("theorem1-4class")
    for radii in (dict(f_radius=-0.1), dict(phi_radius=float("nan"))):
        with pytest.raises(ContractViolation, match="radius"):
            theory.verify_theorem1(scen, 100, seed=0, **radii)


def _rejecting_scenario():
    # nine labels around a dominant pair: the overridden radii below reject
    # about two draws in three for theorem 1 and one in two for theorem 2
    return make_scenario(
        [[0.5, 0.4] + [0.0125] * 8], [1.0], {1}, tau=0.1, eps=0.1, eps_p=0.001,
        tsy=(50.0, 1.0, 1.0),
    )


def _reports():
    scen = theory.load_builtin_scenario("theorem1-4class")
    rejecting = _rejecting_scenario()
    return [
        theory.verify_theorem1(scen, 3000, seed=4).to_dict(),
        theory.verify_theorem1(rejecting, 1500, seed=4, f_radius=0.03, phi_radius=0.03).to_dict(),
        theory.verify_theorem2(theory.load_builtin_scenario("theorem2-tsybakov"), 3000, seed=4).to_dict(),
        theory.verify_theorem2(rejecting, 1500, seed=4).to_dict(),
    ]


def reference_hits(blocks, star, candidates):
    """The argmax hit rule: non-candidate columns set to -inf on the accepted rows."""
    hits = 0
    for block, ok in blocks:
        rows = block[ok]
        rows[:, ~candidates] = -np.inf
        hits += int((rows.argmax(axis=1) == star).sum())
    return hits


def _one_shot_ball(*args):
    rows = reference_ball(*args)
    return iter([(rows, np.ones(len(rows), bool))])


@pytest.fixture(scope="module")
def one_shot_reports():
    # neither the block sampler nor the column-wise hit count takes part
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "sample_simplex_ball", _one_shot_ball)
        mp.setattr(theory, "_count_hits", reference_hits)
        return _reports()


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_reports_do_not_depend_on_the_ball_block(monkeypatch, one_shot_reports, block):
    monkeypatch.setattr(theory, "BALL_BLOCK", block)
    assert _reports() == one_shot_reports


def test_verifier_memory_does_not_grow_with_trials(monkeypatch):
    # 2e5 trials as whole (count, 4) arrays peak near 23 MiB; 1024-row blocks
    # stay near 0.2 MiB
    monkeypatch.setattr(theory, "BALL_BLOCK", 1024)
    scen = theory.load_builtin_scenario("theorem1-4class")
    tracemalloc.start()
    try:
        theory.verify_theorem1(scen, 200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ball_sampling_gives_up_after_the_round_cap(monkeypatch):
    monkeypatch.setattr(theory, "_MAX_RESAMPLE_ROUNDS", 1)
    support = np.ones(REJECTING_CENTER.size, bool)
    rng = np.random.default_rng(0)
    with pytest.raises(ScenarioError, match="kept rejecting after 1 rounds"):
        list(theory.sample_simplex_ball(rng, REJECTING_CENTER, REJECTING_RADIUS, support, 100))
    # a ball that accepts every draw finishes in the one round it is allowed
    blocks = list(theory.sample_simplex_ball(rng, REJECTING_CENTER, 0.0, support, 100))
    assert sum(int(ok.sum()) for _, ok in blocks) == 100


def test_ball_of_zero_total_draws_ends_in_the_round_cap(monkeypatch):
    # radius 0 around a vertex outside the support: every draw is all zeros,
    # divides to NaN without a warning, and is rejected
    monkeypatch.setattr(theory, "_MAX_RESAMPLE_ROUNDS", 1)
    center = np.array([1.0, 0.0, 0.0])
    support = np.array([False, True, True])
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="kept rejecting after 1 rounds"):
            for _, ok in theory.sample_simplex_ball(rng, center, 0.0, support, 50):
                assert not ok.any()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_hits_follow_the_argmax_tie_rule(data):
    # a three-value grid makes ties on both sides of `star` common
    c = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, 12))
    block = data.draw(arrays(np.float64, (k, c), elements=st.sampled_from([0.0, 0.25, 0.5])))
    ok = data.draw(arrays(np.bool_, k))
    star = data.draw(st.integers(0, c - 1))
    candidates = data.draw(arrays(np.bool_, c))
    candidates[star] = True
    if data.draw(st.booleans()):
        block[~ok] = np.nan  # rejected zero-total rows divide to NaN
    expect = reference_hits([(block, ok)], star, candidates)
    assert theory._count_hits(iter([(block, ok.copy())]), star, candidates) == expect


# sha256 of `json.dumps(report.to_dict(), sort_keys=True)` at 20 000 trials,
# recorded before the verifiers counted hits column by column. The phi-ball hits
# every time on both bundled scenarios (rhs and theorem 2 read 1.0), so the
# phi-side rule is checked against argmax on `_rejecting_scenario` above.
REPORT_SHA256 = {
    ("theorem1-4class", "verify_theorem1", 0): "53bc36f81ffe9b37b9f72d8ef84851b9d7b9e7aa3cc608ea3d0765fe209b2b3c",
    ("theorem1-4class", "verify_theorem1", 1): "ee3b6d94cf6ca745dfbf236eb348649ac883a38406e91b987118ca09b2f749eb",
    ("theorem1-4class", "verify_theorem1", 2): "25b31e413d69931b18350ffb32279499368a48b8ff6bdbea6d51f20634d7597c",
    ("theorem1-4class", "verify_theorem2", 0): "4c033faa629bdddf8b83a1c42a43b8ff0a9d490d34b76df40b3da1c6a81e1ac6",
    ("theorem1-4class", "verify_theorem2", 1): "4c033faa629bdddf8b83a1c42a43b8ff0a9d490d34b76df40b3da1c6a81e1ac6",
    ("theorem1-4class", "verify_theorem2", 2): "4c033faa629bdddf8b83a1c42a43b8ff0a9d490d34b76df40b3da1c6a81e1ac6",
    ("theorem2-tsybakov", "verify_theorem1", 0): "e18663f3c41aadabedc7c7d0bba97daeaf010d2514b62d941d5b09ca892c0802",
    ("theorem2-tsybakov", "verify_theorem1", 1): "5a7cfa8c60f557c3872250b3964b51edf341e90a46a698793603bb780aa65c40",
    ("theorem2-tsybakov", "verify_theorem1", 2): "f212f00134df3322bc3d9754401677fad8081ad8b7a73409ce133c5ec755fe61",
    ("theorem2-tsybakov", "verify_theorem2", 0): "7cc741ac5bc78530c05cd930bbcd2e9e7fd8a4c5c0b9091199e61f5bc3c2ad56",
    ("theorem2-tsybakov", "verify_theorem2", 1): "7cc741ac5bc78530c05cd930bbcd2e9e7fd8a4c5c0b9091199e61f5bc3c2ad56",
    ("theorem2-tsybakov", "verify_theorem2", 2): "7cc741ac5bc78530c05cd930bbcd2e9e7fd8a4c5c0b9091199e61f5bc3c2ad56",
}


@pytest.mark.parametrize("name, verifier, seed", sorted(REPORT_SHA256))
def test_builtin_report_bytes_are_pinned(name, verifier, seed):
    report = getattr(theory, verifier)(theory.load_builtin_scenario(name), 20_000, seed)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name, verifier, seed]


# -- theorem 1 ---------------------------------------------------------------------

def test_theorem1_exact_reduced_model_has_perfect_rhs():
    scen = theory.load_builtin_scenario("theorem1-4class")
    report = theory.verify_theorem1(scen, 2000, seed=0, phi_radius=0.0)
    assert report.rhs == 1.0


def test_theorem1_exact_predictor_has_perfect_lhs():
    scen = theory.load_builtin_scenario("theorem1-4class")
    report = theory.verify_theorem1(scen, 2000, seed=0, f_radius=0.0)
    assert report.lhs == 1.0
    assert report.holds


def test_theorem1_reports_consistent_monte_carlo_fields():
    scen = theory.load_builtin_scenario("theorem1-4class")
    report = theory.verify_theorem1(scen, 5000, seed=1)
    assert 0.0 <= report.lhs <= 1.0 and 0.0 <= report.rhs <= 1.0
    assert report.combined_se == pytest.approx(
        float(np.hypot(report.lhs_se, report.rhs_se))
    )
    assert report.troubled_points == [0, 2]
    assert report.holds and report.gap > 0.2


def test_theorem1_requires_nonempty_troubled_set():
    scen = make_scenario(
        [[0.7, 0.15, 0.1, 0.05]], [1.0], {1}, tau=0.1, eps=0.1, eps_p=0.001
    )
    with pytest.raises(ScenarioError):
        theory.verify_theorem1(scen, 100, seed=0)


def test_verifiers_reject_troubled_points_without_weight():
    # point 0 is the only troubled point; point 1 carries all the weight
    scen = make_scenario(
        [[0.45, 0.40, 0.10, 0.05], [0.7, 0.15, 0.1, 0.05]], [0.0, 1.0], {1},
        tau=0.2, eps=0.1, eps_p=0.0025, tsy=(20.0, 1.0, 1.0),
    )
    assert theory.members_of_J(scen) == [0]
    for verifier in (theory.verify_theorem1, theory.verify_theorem2):
        with pytest.raises(ScenarioError, match="carries no weight"):
            verifier(scen, 100, seed=0)


def test_theorem1_rejects_nonpositive_trials():
    scen = theory.load_builtin_scenario("theorem1-4class")
    with pytest.raises(ConfigError):
        theory.verify_theorem1(scen, 0, seed=0)


# -- theorem 2 ---------------------------------------------------------------------

def test_theorem2_holds_on_bundled_margin_scenario():
    scen = theory.load_builtin_scenario("theorem2-tsybakov")
    report = theory.verify_theorem2(scen, 5000, seed=0)
    assert report.holds
    assert report.empirical_consistency >= report.bound
    assert report.worst_case_t <= scen.tsybakov.t0


def test_theorem2_tiny_epsilon_prime_pushes_bound_to_one():
    scen = theory.load_builtin_scenario("theorem2-tsybakov")
    tight = theory.TheoryScenario(
        points=scen.points,
        excluded=scen.excluded,
        tau=scen.tau,
        epsilon=scen.epsilon,
        epsilon_prime=1e-9,
        tsybakov=scen.tsybakov,
    )
    report = theory.verify_theorem2(tight, 2000, seed=0)
    assert report.bound > 1.0 - 1e-7
    assert report.empirical_consistency == 1.0


def test_theorem2_large_lambda_with_margins_beyond_t0_still_holds():
    scen = make_scenario(
        [[0.45, 0.40, 0.10, 0.05]],
        [1.0],
        {1},
        tau=0.2,
        eps=0.1,
        eps_p=0.002,
        tsy=(1.0, 50.0, 0.04),  # all troubled margins (0.05) exceed t0
    )
    report = theory.verify_theorem2(scen, 2000, seed=0)
    assert report.bound > 1.0 - 1e-10
    assert report.holds


def test_theorem2_requires_tsybakov_constants():
    scen = theory.load_builtin_scenario("theorem1-4class")
    bare = theory.TheoryScenario(
        points=scen.points,
        excluded=scen.excluded,
        tau=scen.tau,
        epsilon=scen.epsilon,
        epsilon_prime=scen.epsilon_prime,
        tsybakov=None,
    )
    with pytest.raises(ConfigError):
        theory.verify_theorem2(bare, 100, seed=0)
    # asked for before the troubled set, which is empty here
    untroubled = make_scenario(
        [[0.7, 0.15, 0.1, 0.05]], [1.0], {1}, tau=0.1, eps=0.1, eps_p=0.001
    )
    with pytest.raises(ConfigError):
        theory.verify_theorem2(untroubled, 100, seed=0)


def test_theorem2_rejects_constants_failing_margin_condition():
    scen = theory.load_builtin_scenario("theorem1-4class")
    weak = theory.TheoryScenario(
        points=scen.points,
        excluded=scen.excluded,
        tau=scen.tau,
        epsilon=scen.epsilon,
        epsilon_prime=scen.epsilon_prime,
        tsybakov=theory.TsybakovConstants(C=0.1, lam=1.0, t0=1.0),
    )
    with pytest.raises(AssumptionError):
        theory.verify_theorem2(weak, 100, seed=0)


# -- margin condition ---------------------------------------------------------------

def test_tsybakov_vacuous_when_all_margins_exceed_t0():
    scen = make_scenario(
        [[0.6, 0.2, 0.1, 0.1]], [1.0], {1}, tau=1.0, eps=0.5, eps_p=0.01
    )
    assert theory.check_tsybakov(scen, C=1e-6, lam=5.0, t0=0.1)


def test_tsybakov_single_point_weight_threshold():
    def scen(weight_main):
        # companion point's margin (0.9985) clears every grid point below 1.0
        return make_scenario(
            [[0.7, 0.2, 0.05, 0.05], [0.999, 0.0005, 0.00025, 0.00025]],
            [weight_main, 1.0 - weight_main],
            {1},
            tau=1.0,
            eps=0.5,
            eps_p=0.001,
        )

    # margin of the first point is 0.5; envelope C*t at t=0.5 allows weight 0.5
    assert theory.check_tsybakov(scen(0.5), C=1.0, lam=1.0, t0=1.0)
    assert not theory.check_tsybakov(scen(0.6), C=1.0, lam=1.0, t0=1.0)


def test_tsybakov_scaling_c_never_breaks_a_pass():
    scen = theory.load_builtin_scenario("theorem2-tsybakov")
    assert theory.check_tsybakov(scen, 1.0, 1.0, 1.0, restrict_to_troubled=True)
    assert theory.check_tsybakov(scen, 10.0, 1.0, 1.0, restrict_to_troubled=True)


def test_tsybakov_validates_inputs():
    scen = theory.load_builtin_scenario("theorem2-tsybakov")
    with pytest.raises(ContractViolation):
        theory.check_tsybakov(scen, 1.0, 1.0, 0.0)
    with pytest.raises(ContractViolation):
        theory.check_tsybakov(scen, -1.0, 1.0, 0.5)
    # the troubled point carries no weight, the other point all of it
    weightless = make_scenario(
        [[0.5, 0.4, 0.1], [0.9, 0.05, 0.05]], [0.0, 1.0], {1}, tau=1.0, eps=0.5, eps_p=0.01
    )
    with pytest.raises(ScenarioError, match="carry no weight"):
        theory.check_tsybakov(weightless, 2.0, 1.0, 1.0, restrict_to_troubled=True)
