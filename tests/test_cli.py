import csv
import json
from pathlib import Path

import numpy as np
import pytest

from reduxpll import data
from reduxpll.cli import main

FAST_TRAIN = ["--epochs", "4", "--batch-size", "64"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    code = main(
        ["generate", "--n", "400", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    return out


def test_generate_defaults_produce_valid_dataset(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--n", "500", "--out", str(out)]) == 0
    ds = data.load_csv(out / "dataset.csv")
    data.validate_dataset(ds, require_posterior=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n"] == 500 and manifest["c"] == 5 and manifest["q"] == 2


def test_generate_same_seed_same_checksum(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--n", "200", "--seed", "9", "--out", str(a)])
    main(["generate", "--n", "200", "--seed", "9", "--out", str(b)])
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["checksum"] == mb["checksum"]


def test_generate_rejects_empty_dataset(tmp_path):
    assert main(["generate", "--n", "0", "--out", str(tmp_path / "x")]) == 1


def test_unknown_method_is_usage_error(dataset_dir, tmp_path):
    code = main(
        ["train", "--dataset", str(dataset_dir), "--method", "bogus",
         "--out", str(tmp_path / "run")]
    )
    assert code == 1


def test_train_emits_per_seed_logs_and_summary(dataset_dir, tmp_path):
    out = tmp_path / "run"
    code = main(
        ["train", "--dataset", str(dataset_dir), "--method", "proden",
         "--seeds", "2", "--out", str(out), *FAST_TRAIN]
    )
    assert code == 0
    assert (out / "metrics_seed0.jsonl").exists()
    assert (out / "metrics_seed1.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text())
    accs = [r["test_accuracy"] for r in summary["per_seed"]]
    assert min(accs) <= summary["mean_test_accuracy"] <= max(accs)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]
    for name, checksum in manifest["artifacts"].items():
        assert data.file_checksum(out / name) == checksum


def test_train_outputs_are_idempotent_except_manifest_timestamp(dataset_dir, tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = main(
            ["train", "--dataset", str(dataset_dir), "--method", "reduxpll",
             "--seeds", "1", "--out", str(out), *FAST_TRAIN]
        )
        assert code == 0
        outs.append(out)
    for name in ("metrics_seed0.jsonl", "summary.json", "checkpoint_seed0.npz"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    m1 = json.loads((outs[0] / "run_manifest.json").read_text())
    m2 = json.loads((outs[1] / "run_manifest.json").read_text())
    m1.pop("created_at"), m2.pop("created_at")
    m1.pop("output_dir"), m2.pop("output_dir")
    assert m1 == m2


def test_train_methods_share_summary_schema(dataset_dir, tmp_path):
    keys = []
    for method in ("proden", "reduxpll"):
        out = tmp_path / method
        assert main(
            ["train", "--dataset", str(dataset_dir), "--method", method,
             "--seeds", "1", "--out", str(out), *FAST_TRAIN]
        ) == 0
        keys.append(sorted(json.loads((out / "summary.json").read_text())))
    assert keys[0] == keys[1]


def test_config_file_with_flag_override(dataset_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "proden", "epochs": 2, "alpha": 0.5}))
    out = tmp_path / "run"
    code = main(
        ["train", "--dataset", str(dataset_dir), "--config", str(cfg),
         "--alpha", "0.7", "--out", str(out), "--seeds", "1"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "proden"
    assert summary["alpha"] == 0.7


BAD_CONFIG_DOCS = [
    {"learning_rate": 1.0},
    {"epochs": "ten"},
    {"epochs": True},
    {"batch_size": 64.5},
    {"hidden_sizes": 5},
    {"hidden_sizes": [0]},
    {"alpha": "0.3"},
    {"momentum": None},
    {"beta3": float("nan")},
]


def test_config_file_with_unknown_key_is_rejected(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    argv = ["train", "--dataset", str(dataset_dir), "--config", str(cfg),
            "--out", str(tmp_path / "run")]
    for doc in BAD_CONFIG_DOCS:
        cfg.write_text(json.dumps(doc))
        assert main(argv) == 2, doc
    capsys.readouterr()
    cfg.write_text(json.dumps([1, 2]))  # a document that is not an object
    assert main(argv) == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[5]"])
def test_malformed_dataset_manifest_is_a_parse_error(dataset_dir, tmp_path, capsys, text):
    ds_dir = tmp_path / "ds"
    ds_dir.mkdir()
    (ds_dir / "dataset.csv").write_bytes((dataset_dir / "dataset.csv").read_bytes())
    (ds_dir / "manifest.json").write_text(text)
    code = main(
        ["train", "--dataset", str(ds_dir), "--out", str(tmp_path / "run"), *FAST_TRAIN]
    )
    assert code == 2
    assert str(ds_dir / "manifest.json") in capsys.readouterr().err


def test_sweep_alpha_rows_and_best_flag(dataset_dir, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", "0.1,0.3,0.9",
         "--method", "reduxpll", "--seeds", "1", "--out", str(out), *FAST_TRAIN]
    )
    assert code == 0
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.1", "0.3", "0.9"]
    accs = [float(r["mean_test_accuracy"]) for r in rows]
    assert all(np.isfinite(a) for a in accs)
    flags = [r["best"] == "True" for r in rows]
    assert sum(flags) == 1 and flags[int(np.argmax(accs))]


def test_sweep_alpha_rejects_a_repeated_alpha(dataset_dir, tmp_path, capsys):
    code = main(
        ["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", "0.3,0.5,0.3",
         "--out", str(tmp_path / "sweep"), *FAST_TRAIN]
    )
    assert code == 1
    assert "twice" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_verify_theory_builtin_scenario_passes(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(
        ["verify-theory", "--scenario", "theorem1-4class", "--trials", "3000",
         "--seed", "0", "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["theorem1"]["holds"] and report["theorem2"]["holds"]


def test_verify_theory_malformed_scenario_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["verify-theory", "--scenario", str(bad), "--trials", "10"]) == 2


def test_verify_theory_zero_trials_is_usage_error():
    assert main(["verify-theory", "--scenario", "theorem1-4class", "--trials", "0"]) == 1


def test_parallel_seed_execution_matches_sequential(dataset_dir, tmp_path, monkeypatch):
    # three seeds: one stack of three lanes, or pool chunks of two and one
    flags = ["train", "--dataset", str(dataset_dir), "--method", "reduxpll",
             "--seeds", "3", *FAST_TRAIN]
    seq_out, par_out = tmp_path / "seq", tmp_path / "par"
    monkeypatch.setenv("REDUXPLL_THREADS", "1")
    assert main([*flags, "--out", str(seq_out)]) == 0
    monkeypatch.setenv("REDUXPLL_THREADS", "2")
    assert main([*flags, "--out", str(par_out)]) == 0
    names = [f"{kind}_seed{s}.{ext}" for s in range(3)
             for kind, ext in (("metrics", "jsonl"), ("checkpoint", "npz"))]
    for name in [*names, "summary.json"]:
        assert (seq_out / name).read_bytes() == (par_out / name).read_bytes(), name


def test_report_aggregates_runs_and_flags_missing_metrics(dataset_dir, tmp_path):
    runs = []
    for method in ("proden", "reduxpll"):
        out = tmp_path / f"run_{method}"
        assert main(
            ["train", "--dataset", str(dataset_dir), "--method", method,
             "--seeds", "1", "--out", str(out), *FAST_TRAIN]
        ) == 0
        runs.append(out)
    report_dir = tmp_path / "report"
    code = main(["report", "--runs", *map(str, runs), "--out", str(report_dir)])
    assert code == 0
    series = sorted(p.name for p in report_dir.glob("*_series.csv"))
    assert len(series) == 2
    with (report_dir / series[0]).open() as fh:
        rows = list(csv.DictReader(fh))
    assert {"epoch", "bayes_consistency", "pseudo_label_drift"} <= set(rows[0])
    assert len(rows) >= 1

    empty = tmp_path / "empty_run"
    empty.mkdir()
    code = main(["report", "--runs", str(empty), "--out", str(report_dir)])
    assert code == 2


def test_non_integer_thread_count_is_usage_error(dataset_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REDUXPLL_THREADS", "two")
    code = main(
        ["train", "--dataset", str(dataset_dir), "--method", "proden",
         "--seeds", "2", "--out", str(tmp_path / "run"), *FAST_TRAIN]
    )
    assert code == 1
    assert "REDUXPLL_THREADS" in capsys.readouterr().err


def test_generate_one_feature_dimension_is_usage_error(tmp_path):
    assert main(["generate", "--q", "1", "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags", [["--n", "3"], ["--ambiguity", "1.5"], ["--seed", "-1"]]
)
def test_generate_values_the_data_layer_rejects_are_usage_errors(tmp_path, flags):
    assert main(["generate", *flags, "--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theory", "--scenario", "theorem1-4class", "--seed", "-1"],
        ["train", "--seed-base", "-1"],
        ["train", "--split-seed", "-1"],
        ["sweep-alpha", "--seed-base", "-1"],
    ],
    ids=["verify-theory-seed", "train-seed-base", "train-split-seed", "sweep-seed-base"],
)
def test_negative_seeds_are_usage_errors(tmp_path, capsys, dataset_dir, argv):
    if argv[0] != "verify-theory":
        argv = [*argv, "--dataset", str(dataset_dir), *FAST_TRAIN]
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    assert "seeds must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_writes_the_pinned_benchmark_dataset(tmp_path):
    # the n=2000 benchmark input; bench/reference.json holds the same sha256
    argv = ["--n", "2000", "--c", "5", "--q", "2", "--separation", "2.5"]
    argv += ["--ambiguity", "0.5", "--seed", "0", "--out", str(tmp_path)]
    assert main(["generate", *argv]) == 0
    assert data.file_checksum(tmp_path / "dataset.csv") == (
        "0fbeebba2ea51b91f56b63fa041d4efe80525fedd0b6f58e1bdfdd93d55723f6"
    )


@pytest.mark.parametrize(
    "argv, target",
    [
        (["generate", "--n", "100"], "file"),
        (["train", "--method", "proden"], "file"),
        (["sweep-alpha", "--alphas", "0.5"], "file"),
        (["report", "--runs", "run"], "file/x"),
        (["verify-theory", "--scenario", "theorem1-4class", "--trials", "100"], "dir"),
    ],
    ids=["generate", "train", "sweep-alpha", "report", "verify-theory"],
)
def test_an_out_path_that_cannot_be_written_is_a_usage_error(
    tmp_path, capsys, dataset_dir, argv, target
):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    if argv[0] in ("train", "sweep-alpha"):
        argv = [*argv, "--dataset", str(dataset_dir), *FAST_TRAIN]
    out = tmp_path / target
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: cannot ") and err.count("\n") == 1
