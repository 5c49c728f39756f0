import csv
import json
from pathlib import Path

import numpy as np
import pytest

from reduxpll import cli, data, theory
from reduxpll.cli import main
from reduxpll.errors import DataError

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


@pytest.mark.parametrize(
    "command, doc, flag",
    [
        ("train", {"seed": 5}, "--seed-base and --seeds"),
        ("sweep-alpha", {"seed": 5}, "--seed-base and --seeds"),
        ("sweep-alpha", {"alpha": 0.5}, "--alphas"),
    ],
    ids=["train-seed", "sweep-seed", "sweep-alpha"],
)
def test_a_config_file_may_not_set_what_the_command_sets_for_each_run(
    dataset_dir, tmp_path, capsys, command, doc, flag
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    argv = [command, "--dataset", str(dataset_dir), "--config", str(cfg), *FAST_TRAIN]
    if command == "sweep-alpha":
        argv += ["--alphas", "0.3"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"is set by {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["sweep-alpha", "--alphas", "0.3", "--alpha", "0.9"], "--alpha 0.9"),  # not --alphas
        (["train", "--batch", "64"], "--batch 64"),  # flags are spelled out
    ],
    ids=["sweep-alpha", "abbreviated"],
)
def test_a_flag_the_command_does_not_define_is_a_usage_error(
    dataset_dir, tmp_path, capsys, argv, unknown
):
    out = tmp_path / "run"
    argv = [*argv, "--dataset", str(dataset_dir), "--epochs", "4", "--out", str(out)]
    assert main(argv) == 1
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err
    assert not out.exists()


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


def test_sweep_alpha_manifest_covers_the_files_it_wrote_and_the_grid(dataset_dir, tmp_path):
    out = tmp_path / "sweep"
    # left by an earlier sweep into the same --out: not this run's files
    for stale in ("alpha_0.7/checkpoint_seed0.npz", "old/sweep.csv"):
        (out / stale).parent.mkdir(parents=True)
        (out / stale).write_text("stale\n")
    code = main(
        ["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", "0.3,0.5",
         "--method", "proden", "--seeds", "1", "--out", str(out), *FAST_TRAIN]
    )
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    written = sorted(
        p.relative_to(out).as_posix()
        for d in (out, out / "alpha_0.3", out / "alpha_0.5")
        for p in d.iterdir()
        if p.is_file() and p.name != "run_manifest.json"
    )
    assert "alpha_0.3/checkpoint_seed0.npz" in written
    assert "alpha_0.5/metrics_seed0.jsonl" in written
    assert sorted(manifest["artifacts"]) == written
    for name, checksum in manifest["artifacts"].items():
        assert data.file_checksum(out / name) == checksum
    assert manifest["alphas"] == [0.3, 0.5]


def test_train_manifest_covers_only_its_own_files(dataset_dir, tmp_path):
    out = tmp_path / "results"
    (out / "earlier_run").mkdir(parents=True)
    (out / "earlier_run" / "summary.json").write_text("{}\n")
    code = main(["train", "--dataset", str(dataset_dir), "--method", "proden", "--seeds", "1",
                 "--out", str(out), *FAST_TRAIN])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == [
        "checkpoint_seed0.npz", "metrics_seed0.jsonl", "summary.json",
    ]
    assert "alphas" not in manifest


def test_a_second_command_into_one_out_lists_only_its_own_files(dataset_dir, tmp_path):
    train, sweep = tmp_path / "train", tmp_path / "sweep"
    for seeds in ("3", "1"):
        common = ["--dataset", str(dataset_dir), "--method", "proden", "--seeds", seeds,
                  "--epochs", "2"]
        assert main(["train", *common, "--out", str(train)]) == 0
        assert main(["sweep-alpha", *common, "--alphas", "0.3", "--out", str(sweep)]) == 0
    assert (train / "checkpoint_seed2.npz").exists()  # left there by the first command
    manifest = json.loads((train / "run_manifest.json").read_text())
    assert manifest["seeds"] == [0]
    assert sorted(manifest["artifacts"]) == [
        "checkpoint_seed0.npz", "metrics_seed0.jsonl", "summary.json",
    ]
    assert (sweep / "alpha_0.3" / "metrics_seed2.jsonl").exists()
    manifest = json.loads((sweep / "run_manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == [
        "alpha_0.3/checkpoint_seed0.npz", "alpha_0.3/metrics_seed0.jsonl", "sweep.csv",
    ]


def test_sweep_alpha_rejects_a_repeated_alpha(dataset_dir, tmp_path, capsys):
    code = main(
        ["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", "0.3,0.5,0.3",
         "--out", str(tmp_path / "sweep"), *FAST_TRAIN]
    )
    assert code == 1
    assert "twice" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "alphas, message",
    [
        ("0.3,0.3000001", "--alphas writes a directory twice: alpha_0.3 alpha_0.3"),
        ("0.3,x", "invalid alpha list '0.3,x' (could not convert string to float: 'x')"),
    ],
    ids=["same-directory", "bad-token"],
)
def test_sweep_alpha_rejects_alphas_it_cannot_run_apart(
    dataset_dir, tmp_path, capsys, alphas, message
):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-alpha", "--dataset", str(dataset_dir), "--alphas", alphas,
         "--out", str(out), *FAST_TRAIN]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_report_reads_only_the_seeds_its_summary_lists(dataset_dir, tmp_path, capsys):
    run, report = tmp_path / "run", tmp_path / "report"
    train = ["train", "--dataset", str(dataset_dir), "--method", "proden",
             "--batch-size", "32", "--out", str(run)]
    assert main([*train, "--epochs", "3", "--seeds", "2"]) == 0
    assert main([*train, "--epochs", "2", "--seeds", "1"]) == 0  # seed 0 again
    assert (run / "metrics_seed1.jsonl").exists()  # the first command's, left behind
    assert main(["report", "--runs", str(run), "--out", str(report)]) == 0
    md = (report / "report.md").read_text()
    assert "over 1 seed(s)" in md and "seeds with logs: [0]" in md
    seed0 = [json.loads(line) for line in (run / "metrics_seed0.jsonl").read_text().splitlines()]
    with (report / "run_series.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["epoch"] for row in rows] == ["1", "2"]
    assert [float(row["pseudo_label_drift"]) for row in rows] == [
        epoch["pseudo_label_drift"] for epoch in seed0
    ]

    (run / "metrics_seed0.jsonl").unlink()  # a seed the summary lists has no file
    capsys.readouterr()
    assert main(["report", "--runs", str(run), "--out", str(report)]) == 2
    assert f"{run / 'metrics_seed0.jsonl'}: cannot read the file" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "--n", "100", "--separation", "1e308"], 2),
        (["train", "--batch-size", "5000"], 2),
        (["sweep-alpha", "--alphas", "0.3,0.5", "--batch-size", "5000"], 2),  # after alpha_*/
        (["report", "--runs", "missing"], 2),
    ],
    ids=["generate", "train", "sweep-alpha", "report"],
)
def test_a_failed_command_removes_the_empty_out_directories_it_made(
    tmp_path, dataset_dir, argv, code
):
    if argv[0] in ("train", "sweep-alpha"):
        argv = [argv[0], "--dataset", str(dataset_dir), *FAST_TRAIN, *argv[1:]]
    (tmp_path / "old").mkdir()
    out = tmp_path / "old" / "new" / "deeper"
    assert main([*argv, "--out", str(out)]) == code
    # a directory that existed before the command stays, empty or not
    assert [p.name for p in tmp_path.iterdir()] == ["old"]
    assert list((tmp_path / "old").iterdir()) == []
    assert main([*argv, "--out", str(tmp_path / "old")]) == code
    assert list((tmp_path / "old").iterdir()) == []


@pytest.mark.parametrize(
    "generate_flags, message",
    [
        (["--n", "5"], "test split is empty"),  # splits 4/1/0
        (["--c", "3", "--n", "3"], "validation split is empty"),  # splits 3/0/0
    ],
)
def test_an_empty_validation_or_test_split_exits_2(
    tmp_path, capsys, generate_flags, message
):
    ds_dir = tmp_path / "ds"
    assert main(["generate", *generate_flags, "--out", str(ds_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(ds_dir), "--epochs", "2", "--batch-size", "1"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_failed_command_keeps_an_out_directory_that_holds_files(
    tmp_path, dataset_dir, monkeypatch
):
    def fail(out_dir, written, **kwargs):
        raise DataError("the manifest failed")

    # train writes its metrics, checkpoint and summary before its manifest
    monkeypatch.setattr(cli, "_write_run_manifest", fail)
    out = tmp_path / "new" / "run"
    argv = ["train", "--dataset", str(dataset_dir), "--epochs", "1", "--out", str(out)]
    assert main(argv) == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint_seed0.npz", "metrics_seed0.jsonl", "summary.json"
    ]


# one valid metrics line and summary.json; `_doc` derives the malformed ones
EPOCH = {"epoch": 1, "train_loss": 1.25, "val_accuracy": 0.5, "test_accuracy": 0.5,
         "bayes_consistency": 0.5, "pseudo_label_drift": 0.1}
SUMMARY = {
    "method": "proden", "alpha": 0.5, "config_hash": "0" * 64, "seeds": [0],
    "per_seed": [{"seed": 0, "best_epoch": 1, "best_val_accuracy": 0.5, "test_accuracy": 0.5,
                  "epochs_run": 1}],
    "mean_test_accuracy": 0.5, "std_test_accuracy": 0.0,
}
DROP = object()


def _doc(base: dict, **changes) -> str:
    """`base` as one line of JSON, each key of `changes` set to its value or, for DROP, removed."""
    doc = {**base, **changes}
    return json.dumps({key: value for key, value in doc.items() if value is not DROP})


EPOCH_LINE = _doc(EPOCH)


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("metrics_seed0.jsonl", EPOCH_LINE + "\n{nope\n", ":2: invalid JSON"),
        ("metrics_seed0.jsonl", "[1, 2]\n", ":1: expected a JSON object"),
        ("metrics_seedx.jsonl", EPOCH_LINE + "\n", ": expected a name"),
        ("metrics_seed01.jsonl", EPOCH_LINE + "\n", ": expected a name"),
        ("metrics_seed0.jsonl", EPOCH_LINE + "\n\xff\n", ": cannot read the file"),
        ("metrics_seed0.jsonl", _doc(EPOCH, bayes_consistency=DROP), ":1: no bayes_consistency"),
        ("metrics_seed0.jsonl", _doc(EPOCH, pseudo_label_drift=DROP), ":1: no pseudo_label_drift"),
        ("metrics_seed0.jsonl", _doc(EPOCH, pseudo_label_drift="x"),
         ":1: pseudo_label_drift must be a number, got 'x'"),
        ("metrics_seed0.jsonl", _doc(EPOCH, bayes_consistency=float("nan")),
         ":1: NaN is not a JSON number"),
        ("metrics_seed0.jsonl", _doc(EPOCH, epoch="2"), ":1: epoch must be an integer, got '2'"),
        ("metrics_seed0.jsonl", _doc(EPOCH, seed=0), ":1: unknown key seed"),
        ("metrics_seed0.jsonl", EPOCH_LINE + "\n" + EPOCH_LINE, ":2: epoch 1 is logged twice"),
        ("metrics_seed0.jsonl", EPOCH_LINE + "\n" + _doc(EPOCH, epoch=3),
         ": no line logs epoch 2"),
        ("summary.json", "{nope", ": invalid JSON"),
        ("summary.json", _doc(SUMMARY, std_test_accuracy=DROP), ": no std_test_accuracy field"),
        ("summary.json", _doc(SUMMARY, seeds=3), ": seeds must be a list, got 3"),
        ("summary.json", _doc(SUMMARY, seeds=[0, "x"]),
         ": seeds[1] must be an integer, got 'x'"),
        ("summary.json", _doc(SUMMARY, mean_test_accuracy=float("nan")),
         ": NaN is not a JSON number"),
        ("summary.json", _doc(SUMMARY, method="nope"), ": method must be one of ("),
        ("summary.json", _doc(SUMMARY, seeds=[0, 0]),
         ": seeds must be distinct and >= 0, got [0, 0]"),
        ("summary.json", _doc(SUMMARY, seeds=[-1]), ": seeds must be distinct and >= 0, got [-1]"),
        ("summary.json", _doc(SUMMARY, per_seed="x"), ": per_seed must be a list, got 'x'"),
        ("summary.json", _doc(SUMMARY, per_seed=[{**SUMMARY["per_seed"][0], "seed": True}]),
         ": per_seed[0].seed must be an integer, got True"),
        ("summary.json", _doc(SUMMARY, per_seed=[]), ": per_seed must list the seeds [0] in order"),
        # a metrics file cut at a line boundary: its summary says 3 epochs ran
        ("metrics_seed0.jsonl",
         {"summary.json": _doc(SUMMARY, per_seed=[{**SUMMARY["per_seed"][0], "epochs_run": 3}]),
          "metrics_seed0.jsonl": EPOCH_LINE + "\n" + _doc(EPOCH, epoch=2) + "\n"},
         ": logs 2 epochs, "),
    ],
    ids=["bad-json", "not-object", "bad-seed-name", "zero-padded-seed", "not-utf8",
         "no-consistency", "no-drift", "drift-text", "nan-metric", "epoch-text",
         "unknown-key", "repeated-epoch", "missing-epoch", "summary-bad-json",
         "summary-no-std", "summary-seeds-int", "summary-seed-text", "summary-nan",
         "summary-unknown-method", "summary-repeated-seed", "summary-negative-seed",
         "summary-per-seed-text", "summary-per-seed-bool", "summary-per-seed-other-seeds",
         "fewer-epochs-than-the-summary"],
)
def test_report_names_the_file_and_line_of_a_malformed_run_file(
    tmp_path, capsys, name, text, where
):
    run = tmp_path / "run"
    run.mkdir()
    if name == "summary.json":
        (run / "metrics_seed0.jsonl").write_text(EPOCH_LINE + "\n")
    # `text` is the file `name`, or a dict of every file of the run
    for file, content in (text if isinstance(text, dict) else {name: text}).items():
        (run / file).write_bytes(content.encode("latin-1"))  # "\xff": one byte, not UTF-8
    assert main(["report", "--runs", str(run), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / name}{where}") and err.count("\n") == 1


@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_report_leaves_its_out_directory_as_it_found_it(tmp_path, capsys, existing):
    runs = []
    for name in ("a", "b", "c"):
        run = tmp_path / name
        run.mkdir()
        (run / "metrics_seed0.jsonl").write_text(EPOCH_LINE + "\n")
        runs.append(str(run))
    (tmp_path / "c" / "metrics_seed0.jsonl").write_text("{nope\n")  # the last run is malformed
    out = tmp_path / "rep"
    if existing:
        out.mkdir()
        (out / "a_series.csv").write_text("older\n")
    assert main(["report", "--runs", *runs, "--out", str(out)]) == 2
    assert f"{tmp_path / 'c' / 'metrics_seed0.jsonl'}:1: invalid JSON" in capsys.readouterr().err
    if existing:
        assert [p.name for p in out.iterdir()] == ["a_series.csv"]
        assert (out / "a_series.csv").read_text() == "older\n"
    else:
        assert not out.exists()


def test_report_rejects_two_runs_with_the_same_directory_name(tmp_path, capsys):
    runs = []
    for parent in ("a", "b"):
        run = tmp_path / parent / "rx"
        run.mkdir(parents=True)
        (run / "metrics_seed0.jsonl").write_text(EPOCH_LINE + "\n")
        runs.append(str(run))
    out = tmp_path / "rep"
    assert main(["report", "--runs", *runs, "--out", str(out)]) == 1
    assert "--runs lists a directory name twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["dir", "file/report.json", "file/x/report.json"])
def test_verify_theory_checks_out_before_any_verifier_runs(
    tmp_path, capsys, monkeypatch, target
):
    def verifier_ran(*args, **kwargs):
        raise AssertionError("a verifier ran")

    monkeypatch.setattr(theory, "verify_theorem1", verifier_ran)
    monkeypatch.setattr(theory, "verify_theorem2", verifier_ran)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    out = tmp_path / target
    argv = ["verify-theory", "--scenario", "theorem1-4class", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: --out {out}: cannot write the report (")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["generate", "--n", "200"], "dataset.csv"),
        (["train", "--method", "proden", "--epochs", "2", "--batch-size", "32"],
         "metrics_seed0.jsonl"),
        (["train", "--method", "proden", "--epochs", "2", "--batch-size", "32"], "summary.json"),
        (["train", "--method", "proden", "--epochs", "2", "--batch-size", "32"],
         "checkpoint_seed0.npz.tmp"),  # the checkpoint is written through this name
        (["sweep-alpha", "--alphas", "0.3", "--epochs", "2", "--batch-size", "32"], "sweep.csv"),
        (["sweep-alpha", "--alphas", "0.3", "--epochs", "2", "--batch-size", "32"],
         "alpha_0.3/checkpoint_seed0.npz.tmp"),
        (["report", "--runs"], "run_series.csv"),
    ],
    ids=["generate", "train-metrics", "train-summary", "train-checkpoint-temp", "sweep-alpha",
         "sweep-alpha-checkpoint-temp", "report"],
)
def test_a_directory_where_a_command_writes_a_file_is_a_usage_error(
    tmp_path, capsys, dataset_dir, argv, name
):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics_seed0.jsonl").write_text(EPOCH_LINE + "\n")
    if argv[0] in ("train", "sweep-alpha"):
        argv = [*argv, "--dataset", str(dataset_dir)]
    elif argv[0] == "report":
        argv = [*argv, str(run)]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: cannot write {name} (Is a directory)\n"
    # refused before any work: nothing was written beside the directory
    assert {p.relative_to(out) for p in out.rglob("*")} == {Path(name), *Path(name).parents[:-1]}


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{\"a\": 1}", ": cannot read the file ("),
        (b"[1, 2]", ": expected a JSON object"),
        (b'{"tau": NaN}', ": NaN is not a JSON number"),
        (b'{"tau": -Infinity}', ": -Infinity is not a JSON number"),
    ],
    ids=["not-utf8", "array", "nan", "infinity"],
)
def test_a_malformed_scenario_file_is_a_parse_error_naming_it(tmp_path, capsys, content, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["verify-theory", "--scenario", str(path), "--trials", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{message}") and err.count("\n") == 1


def _copy_dataset(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for name in ("dataset.csv", "manifest.json"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_a_truncated_dataset_csv_is_a_data_error(dataset_dir, tmp_path, capsys):
    ds_dir = _copy_dataset(dataset_dir, tmp_path / "ds")
    csv_path = ds_dir / "dataset.csv"
    lines = csv_path.read_bytes().splitlines(keepends=True)
    csv_path.write_bytes(b"".join(lines[:-1]))  # one row short, still a valid csv
    argv = ["train", "--dataset", str(ds_dir), "--method", "proden", *FAST_TRAIN]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert "checksum is " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("c", 6, "c is 6 but"),
        ("n", 399, "n is 399 but"),
        ("q", 3, "q is 3 but"),
        ("checksum", "0" * 64, "checksum is '000"),
        ("c", "5", "c must be an integer, got '5'"),
        ("n", True, "n must be an integer, got True"),
        ("q", 2.0, "q must be an integer, got 2.0"),
        ("checksum", None, "checksum must be a string, got None"),
    ],
)
def test_a_dataset_that_disagrees_with_its_manifest_is_a_data_error(
    dataset_dir, tmp_path, capsys, field, value, message
):
    ds_dir = _copy_dataset(dataset_dir, tmp_path / "ds")
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    manifest[field] = value
    (ds_dir / "manifest.json").write_text(json.dumps(manifest))
    argv = ["train", "--dataset", str(ds_dir), "--method", "proden", *FAST_TRAIN]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
