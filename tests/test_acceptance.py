"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 6 and 7 share one set of training runs (the expensive part).
"""

import csv
import json
import time

import numpy as np
import pytest

from reduxpll import data, nets, pseudo, theory, training
from reduxpll.cli import main as cli_main

from conftest import ce_value, fd_gradient, random_candidates, random_simplex_rows, rel_error


def _report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -- 1: simplex suite ---------------------------------------------------------

def test_criterion_1_simplex_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    tol = 1e-9
    ok = True
    for _ in range(10_000):
        c = int(rng.integers(3, 9))
        mask = random_candidates(rng, 1, c)[0]
        f = random_simplex_rows(rng, 1, c)[0]
        mu = pseudo.basic_pseudo(f, mask)
        U = np.empty((c, c))
        for j in range(c):
            U[j] = pseudo.reduction_row(random_simplex_rows(rng, 1, c)[0], mask, j)
        w = random_simplex_rows(rng, 1, c)[0]
        v = pseudo.reduction_pseudo(w, U)
        q = pseudo.combine(mu, v, float(rng.random()))
        for vec in (mu, v, q):
            ok &= abs(vec.sum() - 1.0) < tol and bool(np.all(vec >= -tol))
            ok &= bool(np.all(np.abs(vec[~mask]) < tol))
        row_sums = U.sum(axis=1)
        ok &= bool(np.all(np.abs(row_sums - 1.0) < tol))
        ok &= bool(np.all(np.abs(np.diag(U)[mask]) < tol))
        if not ok:
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    assert _report(1, "simplex suite", ok, f"10k draws in {elapsed:.1f}s")


# -- 2: gradient suite ----------------------------------------------------------

def test_criterion_2_gradient_suite():
    t0 = time.time()
    worst_ce, worst_hyper = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        params = nets.init_mlp([3, 4, 3], rng)
        x = rng.standard_normal((4, 3))
        targets = rng.random((4, 3)) + 1e-3
        targets /= targets.sum(axis=1, keepdims=True)
        probs, tape = nets.forward(params, x)
        _, grad = nets.backward_ce(tape, probs, targets)

        def ce_loss(flat, params=params, x=x, targets=targets):
            p, _ = nets.forward(nets.from_flat(params, flat), x)
            return ce_value(p, targets)

        worst_ce = max(
            worst_ce, rel_error(grad.flat, fd_gradient(ce_loss, params.flat))
        )

    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        theta = nets.init_mlp([3, 4, 3], rng)
        gamma = nets.init_mlp([3, 4, 3], rng)
        x_in = rng.standard_normal((4, 3))
        x_out = rng.standard_normal((5, 3))
        y_out = np.eye(3)[rng.integers(0, 3, 5)]
        U = rng.random((4, 3, 3)) + 1e-3
        U /= U.sum(axis=2, keepdims=True)
        beta2 = 0.2

        def plfn(g, x, U=U):
            w, tape = nets.forward(g, x)
            t = np.einsum("ij,ijr->ir", w, U)

            def vjp(d):
                return nets.backward_probs_vjp(tape, np.einsum("ir,ijr->ij", d, U))

            return t, vjp

        _, tape_in = nets.forward(theta, x_in)
        targets, vjp = plfn(gamma, x_in)
        hyper = nets.hypergradient(tape_in, targets, vjp, x_out, y_out, beta2)

        def outer_loss(flat, theta=theta, gamma=gamma, x_in=x_in, x_out=x_out,
                       y_out=y_out, beta2=beta2, plfn=plfn):
            g = nets.from_flat(gamma, flat)
            targets, _ = plfn(g, x_in)
            probs_in, tape_in = nets.forward(theta, x_in)
            _, g_inner = nets.backward_ce(tape_in, probs_in, targets)
            probs_out, _ = nets.forward(nets.sgd_step(theta, g_inner, beta2), x_out)
            return ce_value(probs_out, y_out)

        worst_hyper = max(
            worst_hyper,
            rel_error(hyper.flat, fd_gradient(outer_loss, gamma.flat)),
        )

    elapsed = time.time() - t0
    ok = worst_ce < 1e-6 and worst_hyper < 1e-4 and elapsed < 60.0
    assert _report(
        2,
        "gradient suite",
        ok,
        f"worst ce rel err {worst_ce:.2e}, worst hypergrad rel err {worst_hyper:.2e}, {elapsed:.1f}s",
    )


# -- 3: rollback exactness -------------------------------------------------------

def test_criterion_3_rollback_exactness(small_dataset):
    train_ds = small_dataset[0]
    cfg = training.TrainConfig(method="reduxpll", epochs=5, batch_size=64)
    state = training.init_lanes(train_ds, [cfg])
    batches = -(-train_ds.n // cfg.batch_size)
    for _ in range(cfg.epochs):
        # train_epoch raises if any rollback is not bit-identical
        state, _ = training.train_epoch(state, small_dataset, cfg)
    ok = state.rollback_checks == cfg.epochs * batches
    assert _report(
        3, "rollback exactness", ok, f"{state.rollback_checks} batch rollbacks verified"
    )


# -- 4 and 5: theorem verification -------------------------------------------------

def test_criterion_4_theorem1_gap():
    t0 = time.time()
    scen = theory.load_builtin_scenario("theorem1-4class")
    report = theory.verify_theorem1(scen, 100_000, seed=0)
    elapsed = time.time() - t0
    ok = (
        report.holds
        and report.gap >= 3.0 * report.combined_se
        and elapsed < 120.0
    )
    assert _report(
        4,
        "theorem-1 verification",
        ok,
        f"lhs {report.lhs:.4f} rhs {report.rhs:.4f} gap {report.gap:.4f} "
        f">= 3*{report.combined_se:.5f}, {elapsed:.1f}s",
    )


def test_criterion_5_theorem2_bound():
    t0 = time.time()
    scen = theory.load_builtin_scenario("theorem2-tsybakov")
    assert scen.tsybakov.C == 1.0 and scen.tsybakov.lam == 1.0
    report = theory.verify_theorem2(scen, 100_000, seed=0)
    elapsed = time.time() - t0
    ok = report.holds and report.empirical_consistency >= report.bound and elapsed < 120.0
    assert _report(
        5,
        "theorem-2 verification",
        ok,
        f"empirical {report.empirical_consistency:.4f} >= bound {report.bound:.4f}, "
        f"{elapsed:.1f}s",
    )


# -- 6 and 7: method ordering and trend shape ----------------------------------------

@pytest.fixture(scope="module")
def benchmark_runs(default_dataset):
    t0 = time.time()
    runs = {}
    for method in training.METHODS:
        # one lane stack per method: tests/test_lanes.py asserts that each lane
        # is byte-identical to a `fit` of its config alone
        configs = [training.TrainConfig(method=method, seed=seed) for seed in range(5)]
        runs[method] = training.fit_lanes(default_dataset, configs)
    runs["_elapsed"] = time.time() - t0
    return runs


def _pooled_std(a, b):
    return float(np.sqrt((np.var(a, ddof=1) + np.var(b, ddof=1)) / 2.0))


def test_criterion_6_method_ordering(benchmark_runs):
    accs = {
        m: np.array([r.test_accuracy for r in benchmark_runs[m]])
        for m in training.METHODS
    }
    rx, uw, pr = accs["reduxpll"], accs["reduxpll-uniform-w"], accs["proden"]
    margin_uw = rx.mean() - uw.mean()
    margin_pr = rx.mean() - pr.mean()
    ok = (
        margin_uw > _pooled_std(rx, uw)
        and margin_pr > _pooled_std(rx, pr)
        and benchmark_runs["_elapsed"] < 900.0
    )
    assert _report(
        6,
        "method ordering",
        ok,
        f"reduxpll {rx.mean():.4f} vs uniform-w {uw.mean():.4f} "
        f"(margin {margin_uw:.4f} > pooled {_pooled_std(rx, uw):.4f}) "
        f"and proden {pr.mean():.4f} (margin {margin_pr:.4f} > pooled {_pooled_std(rx, pr):.4f}); "
        f"15 runs in {benchmark_runs['_elapsed']:.0f}s",
    )


def test_criterion_7_consistency_and_convergence(benchmark_runs):
    cons_up = 0
    drift_down = 0
    for result in benchmark_runs["reduxpll"]:
        h = result.history
        if h[-1].bayes_consistency > h[0].bayes_consistency:
            cons_up += 1
        drift = [m.pseudo_label_drift for m in h]
        if np.mean(drift[-10:]) < np.mean(drift[:10]):
            drift_down += 1
    ok = cons_up >= 4 and drift_down >= 4
    assert _report(
        7,
        "consistency/convergence trend",
        ok,
        f"consistency rose in {cons_up}/5 seeds, drift fell in {drift_down}/5",
    )


# -- 8: alpha sweep integrity ----------------------------------------------------------

def test_criterion_8_alpha_sweep(tmp_path):
    ds_dir = tmp_path / "ds"
    assert cli_main(["generate", "--n", "400", "--seed", "2", "--out", str(ds_dir)]) == 0
    sweep_dir = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep-alpha",
            "--dataset", str(ds_dir),
            "--out", str(sweep_dir),
            "--method", "reduxpll",
            "--seeds", "1",
            "--epochs", "10",
        ]
    )
    with (sweep_dir / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    accs = [float(r["mean_test_accuracy"]) for r in rows]
    flags = [r["best"] == "True" for r in rows]
    ok = (
        code == 0
        and [r["alpha"] for r in rows] == [f"{0.1 * k:.1f}" for k in range(1, 10)]
        and all(np.isfinite(a) for a in accs)
        and sum(flags) == 1
        and flags[int(np.argmax(accs))]
    )
    assert _report(
        8,
        "alpha sweep integrity",
        ok,
        f"9 settings finite, best alpha {rows[int(np.argmax(accs))]['alpha']}",
    )
