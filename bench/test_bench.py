"""Tests of the benchmark itself: each correctness check can fail, and tracing
changes nothing it observes.

Run from the repository root:  PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench
from reduxpll import data, theory, training
from tracer import Tracer, pool_idle_share

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ROWS = 300


def tiny_generated():
    ds = data.gen_gaussian_mixture(bench.C, bench.Q, ROWS, bench.SEPARATION, 0)
    return data.corrupt_instance_dependent(ds, bench.AMBIGUITY, 0)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A tiny generated dataset and a two-epoch reduxpll run on it, via the CLI."""
    base = tmp_path_factory.mktemp("outputs")
    rc, *_ = bench.call_cli(bench.generate_argv(ROWS, 0, base / "ds"))
    assert rc == 0
    rc, *_ = bench.call_cli(
        ["train", "--dataset", str(base / "ds"), "--out", str(base / "run"),
         "--method", "reduxpll", "--epochs", "2", "--patience", "2"]
    )
    assert rc == 0
    return base / "ds", base / "run"


def test_perturbed_metrics_line_is_a_failed_operation(outputs, tmp_path):
    run_dir = shutil.copytree(outputs[1], tmp_path / "run")
    expect = checks.Expectations()
    observed, problems = checks.train_outputs(run_dir, seeds=1, epochs=2)
    assert problems == [] and expect.check_all(observed) == []

    path = run_dir / "metrics_seed0.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["train_loss"] = math.nextafter(row["train_loss"], math.inf)
    lines[1] = json.dumps(row, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")

    ledger = checks.Ledger()
    observed, problems = checks.train_outputs(run_dir, seeds=1, epochs=2)
    assert not ledger.record("train", 0, problems + expect.check_all(observed))
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_fields_added_to_epoch_metrics_later_are_ignored(outputs, tmp_path):
    run_dir = shutil.copytree(outputs[1], tmp_path / "run")
    expect = checks.Expectations(checks.train_outputs(run_dir, seeds=1, epochs=2)[0])
    path = run_dir / "metrics_seed0.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**r, "new_field": 1.5}) + "\n" for r in rows))
    observed, problems = checks.train_outputs(run_dir, seeds=1, epochs=2)
    assert problems == [] and expect.check_all(observed) == []


def test_metrics_fingerprint_is_the_trajectory_hash(outputs):
    rows = [json.loads(line) for line in (outputs[1] / "metrics_seed0.jsonl").read_text().splitlines()]
    history = [training.EpochMetrics(**r) for r in rows]
    result = training.RunResult(None, 0, 0.0, 0.0, history, None, None)
    assert checks.metrics_fingerprint(rows) == result.trajectory_hash()


def test_flipped_dataset_byte_is_a_failed_operation(outputs, tmp_path):
    ds_dir = shutil.copytree(outputs[0], tmp_path / "ds")
    csv_path = ds_dir / "dataset.csv"
    run = bench.Run(bench.WORKLOADS["fit-reduxpll"], seed=0, seconds=0, trace=False)
    run.expect = checks.Expectations({"dataset_sha256": checks.sha256_file(csv_path)})
    run.generated = tiny_generated()
    run.check_dataset_file("generate", 0, "", ds_dir)
    run.timed_load(csv_path, checks.DATASET_FIELDS)
    assert (run.ledger.attempted, run.ledger.failed) == (2, 0)

    blob = bytearray(csv_path.read_bytes())
    i = blob.index(b".", blob.index(b"\n")) + 3  # a digit of x0 in the first row
    blob[i] = ord("1") if blob[i] == ord("0") else ord("0")
    csv_path.write_bytes(bytes(blob))
    run.check_dataset_file("generate", 0, "", ds_dir)
    run.timed_load(csv_path, checks.DATASET_FIELDS)
    assert (run.ledger.attempted, run.ledger.failed) == (4, 2)
    assert "features read back differs" in run.ledger.problems[-1]


def test_report_that_does_not_hold_is_a_failed_operation(tmp_path):
    report = tmp_path / "t1.json"
    rc, _, printed, _ = bench.call_cli(
        ["verify-theory", "--scenario", "theorem1-4class", "--trials", "2000", "--out", str(report)]
    )
    assert rc == 0 and checks.report_outputs(report, printed)[1] == []

    doc = json.loads(printed)
    doc["theorem2"]["holds"] = False
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    report.write_text(text)
    ledger = checks.Ledger()
    ledger.record("verify-theory", 0, checks.report_outputs(report, text)[1])
    assert ledger.failed == 1 and "theorem2 does not hold" in ledger.problems[0]


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    rc, _, _, err = bench.call_cli(
        ["train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    )
    assert rc == 2 and "no dataset" in err
    ledger = checks.Ledger()
    ledger.record("train", rc, bench.stderr_problem(rc, err))
    assert ledger.failed == 1 and "exit code 2" in ledger.problems[0]


def test_traced_fit_has_the_untraced_trajectory_hash():
    parts = data.split(tiny_generated(), data.SplitSpec(seed=0))
    config = training.TrainConfig(epochs=3, patience=3)
    original_forward = training.nets.forward
    plain = training.fit(parts, config).trajectory_hash()
    with Tracer() as tracer:
        assert training.nets.forward is not original_forward
        traced = training.fit(parts, config).trajectory_hash()
    assert traced == plain
    assert training.nets.forward is original_forward
    assert tracer.stats["nets.forward"][0] > 0
    assert tracer.stats["data.validate_dataset"][0] == 1  # caught through training's alias
    assert tracer.counters["training.batches"] == 3 * math.ceil(parts[0].n / config.batch_size)


def test_self_times_partition_the_root_spans():
    parts = data.split(tiny_generated(), data.SplitSpec(seed=0))
    with Tracer() as tracer:
        training.fit(parts, training.TrainConfig(epochs=1, patience=1))
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent == -1)
    assert sum(st[2] for st in tracer.stats.values()) == pytest.approx(roots, rel=1e-9)
    assert all(st[2] >= -1e-9 for st in tracer.stats.values())


def test_traced_sampler_keeps_the_stream_and_counts_draws():
    scenario = theory.load_builtin_scenario("theorem1-4class")
    plain = theory.verify_theorem1(scenario, 5000, 3).to_dict()
    with Tracer() as tracer:
        traced = theory.verify_theorem1(scenario, 5000, 3).to_dict()
    assert traced == plain
    rows = tracer.counters["theory.sample_simplex_ball.rows"]
    drawn = tracer.counters["theory.sample_simplex_ball.drawn"]
    assert rows == 2 * 5000 and drawn >= rows


def test_pool_idle_share():
    assert pool_idle_share([1.0] * 5, 2) == pytest.approx(1 - 5 / 6)
    assert pool_idle_share([1.0] * 5, 1) == 0.0
    assert pool_idle_share([2.0], 2) == 0.0  # one task gets a one-process pool
    assert pool_idle_share([], 2) == 0.0


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in doc["end_to_end"])


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-reduxpll", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fit_workload_run_matches_the_reference():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "fit-reduxpll",
         "--seed", str(bench.REFERENCE_SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert '"reference_checked": true' in proc.stdout


def test_check_mode_reproduces_the_trajectory_hashes():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--check"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0
