"""Command-line entry points: generate, train, sweep-alpha, verify-theory, report.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure. All outputs are byte-identical across repeated invocations with the
same flags; wall-clock timestamps appear only in run manifests. A command's
runs (the seeds of `train`, the alpha x seed grid of `sweep-alpha`) train in
lockstep as one lane stack.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import METHODS, METRICS_LINE
from .errors import AssumptionError, ConfigError, DataError, NumericError, ParseError
from .errors import ReduxPllError, ScenarioError, UsageError, parse_object, read_text

DEFAULT_ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))

# the files each run writes into its directory, by seed
_METRICS, _CHECKPOINT = "metrics_seed{}.jsonl", "checkpoint_seed{}.npz"

# the dataset manifest that `generate` writes (`data.write_manifest`); any key may be absent
_MANIFEST = {"checksum?": str, "n?": int, "c?": int, "q?": int, "ambiguity?": (float, None),
             "seed?": (int, None)}

# the summary.json that `train` writes
_SUMMARY = {
    "method": str, "alpha": float, "config_hash": str, "seeds": [int],
    "per_seed": [{"seed": int, "best_epoch": int, "best_val_accuracy": float,
                  "test_accuracy": float, "epochs_run": int}],
    "mean_test_accuracy": float, "std_test_accuracy": float,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a flag is spelled out: `--alpha` must not be read as `--alphas`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """argparse type for seeds: numpy's SeedSequence takes only non-negative ints."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {value}")
    return value


def _alphas(text: str) -> list[float]:
    """argparse type for --alphas: comma-separated numbers."""
    try:
        return [float(token) for token in text.split(",")]
    except ValueError as exc:  # float() names the token it cannot read
        raise argparse.ArgumentTypeError(f"invalid alpha list {text!r} ({exc})") from None


def _load_dataset(path_arg: str, split_seed: int) -> tuple[tuple, str]:
    """Load a dataset directory (csv + manifest) or a bare csv path.

    Returns the train/val/test split of the dataset by `split_seed` and the
    sha256 of its csv. Each of `checksum`, `n`, `c` and `q` that the manifest
    holds must match the file and the dataset.
    """
    from . import data

    path = Path(path_arg)
    manifest = {}
    if path.is_dir():
        csv_path = path / "dataset.csv"
        manifest_path = path / "manifest.json"
        if manifest_path.exists():
            manifest = parse_object(read_text(manifest_path), manifest_path, _MANIFEST)
    else:
        csv_path = path
    if not csv_path.exists():
        raise DataError(f"no dataset at {csv_path}")

    def expect(key, value):
        if manifest.get(key, value) != value:
            raise DataError(
                f"{manifest_path}: {key} is {manifest[key]!r} but {csv_path} has {value!r}"
            )

    checksum = data.file_checksum(csv_path)
    expect("checksum", checksum)
    ds = data.load_csv(csv_path, c=manifest.get("c"))
    for key in ("n", "c", "q"):
        expect(key, getattr(ds, key))
    return data.split(ds, data.SplitSpec(seed=split_seed)), checksum


def _build_config(args) -> training.TrainConfig:
    """defaults < config file < explicit CLI flags; a refused file value names the file."""
    from . import training

    fields = {key.removesuffix("?") for key in training._CONFIG}
    flags = {key: v for key, v in vars(args).items() if key in fields and v is not None}
    doc = {}
    if getattr(args, "config", None):
        doc = parse_object(read_text(Path(args.config)), args.config, training._CONFIG)
        for key, flag in (("seed", "--seed-base and --seeds"), ("alpha", "--alphas")):
            if key in doc and (key == "seed" or args.command == "sweep-alpha"):
                raise ConfigError(f"{args.config}: {key} is set by {flag}, not by the config file")
    try:  # a value that no flag overrides is the file's
        config = training.TrainConfig.from_dict({k: v for k, v in doc.items() if k not in flags})
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    return replace(config, **flags)


def _make_out_dir(path, made: list[Path]) -> Path:
    """Create the --out directory `path` (or one under it) with its parents.

    Appends to `made` each directory that did not exist before, parents first.
    """
    out_dir = Path(path)
    missing = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"--out {out_dir}: cannot create the directory ({exc.strerror})"
        ) from None
    finally:
        made.extend(p for p in reversed(missing) if p.is_dir())
    return out_dir


def _check_out(out: Path, names) -> None:
    """Refuse, before any work is done, an --out under which a file the command
    writes cannot be made: a directory stands in its place, or a file in the
    place of a directory above it. `names` are the files' paths under `out`;
    "" is `out` itself, the report of verify-theory.
    """
    for name in names:
        path = out / name
        if path.is_dir():
            reason = "Is a directory"
        elif not next(p for p in path.parents if p.exists()).is_dir():
            reason = "Not a directory"
        else:
            continue
        raise UsageError(f"--out {out}: cannot write {name or 'the report'} ({reason})")


def _run_files(seeds) -> list[str]:
    """The metrics files, the checkpoints and their temp files that the runs of `seeds` write."""
    from . import training

    names = (_METRICS, _CHECKPOINT, _CHECKPOINT + training.TMP_SUFFIX)
    return [name.format(seed) for name in names for seed in seeds]


def _run_lanes(ds_parts, configs, out_dirs) -> tuple[list[dict], list[Path]]:
    """Fit every config as one lane stack, logging lane k under out_dirs[k].

    Returns one summary row per config, in config order, and the files written.
    """
    from . import training

    lanes = list(zip(configs, out_dirs))
    metrics_paths = [out / _METRICS.format(cfg.seed) for cfg, out in lanes]
    checkpoint_paths = [out / _CHECKPOINT.format(cfg.seed) for cfg, out in lanes]
    results = training.fit_lanes(
        ds_parts, configs, metrics_paths=metrics_paths, checkpoint_paths=checkpoint_paths
    )
    # each row is a `per_seed` entry of `_SUMMARY`
    rows = [
        {
            "seed": result.config.seed,
            "best_epoch": result.best_epoch,
            "best_val_accuracy": result.best_val_accuracy,
            "test_accuracy": result.test_accuracy,
            "epochs_run": len(result.history),
        }
        for result in results
    ]
    return rows, [*metrics_paths, *checkpoint_paths]


def _summarize(per_seed: list[dict]) -> dict:
    accs = [r["test_accuracy"] for r in per_seed]
    return {
        "seeds": [r["seed"] for r in per_seed],
        "per_seed": per_seed,
        "mean_test_accuracy": float(np.mean(accs)),
        "std_test_accuracy": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
    }


def _alpha_dir(alpha: float) -> str:
    """The directory under a sweep's --out that holds the runs of `alpha`."""
    return f"alpha_{alpha:g}"


def _write_run_manifest(
    out_dir: Path, written, *, config, dataset_checksum, seeds, alphas=None
) -> None:
    """The run's identity and the checksum of each file the command wrote.

    `written` lists those files, each under `out_dir`; each is keyed by its
    POSIX path relative to `out_dir`. A sweep also lists its grid under
    `alphas`: its lanes ran those alphas in place of `config`'s.
    """
    from . import data

    manifest_path = out_dir / "run_manifest.json"
    artifacts = {p.relative_to(out_dir).as_posix(): data.file_checksum(p) for p in written}
    manifest = {
        "config_hash": config.config_hash(),
        "dataset_checksum": dataset_checksum,
        "seeds": list(seeds),
        "method": config.method,
        "output_dir": str(out_dir),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "artifacts": artifacts,
    }
    if alphas is not None:
        manifest["alphas"] = list(alphas)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.c < 3:
        raise UsageError(f"--c must be at least 3, got {args.c}")
    if args.n < args.c:
        raise UsageError(f"--n must be at least --c ({args.c}), got {args.n}")
    if args.q < 2:
        raise UsageError(f"--q must be at least 2, got {args.q}")
    if not 0.0 < args.ambiguity <= 1.0:
        raise UsageError(f"--ambiguity must be in (0, 1], got {args.ambiguity}")
    _check_out(Path(args.out), ["dataset.csv", "manifest.json"])
    from . import data

    out_dir = _make_out_dir(args.out, args.made_dirs)
    ds = data.gen_gaussian_mixture(args.c, args.q, args.n, args.separation, args.seed)
    ds = data.corrupt_instance_dependent(ds, args.ambiguity, args.seed)
    data.validate_dataset(ds, require_posterior=True)
    csv_path = out_dir / "dataset.csv"
    checksum = data.save_csv(ds, csv_path)
    data.write_manifest(
        out_dir / "manifest.json", ds, checksum, ambiguity=args.ambiguity, seed=args.seed
    )
    print(f"wrote {csv_path} (n={ds.n}, c={ds.c}, q={ds.q})")
    return 0


def cmd_train(args) -> int:
    if args.seeds <= 0:
        raise UsageError(f"--seeds must be positive, got {args.seeds}")
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    _check_out(Path(args.out), [*_run_files(seeds), "summary.json", "run_manifest.json"])
    parts, dataset_checksum = _load_dataset(args.dataset, args.split_seed)
    config = _build_config(args)
    out_dir = _make_out_dir(args.out, args.made_dirs)
    configs = [replace(config, seed=s) for s in seeds]
    per_seed, written = _run_lanes(parts, configs, [out_dir] * len(seeds))
    summary = {
        "method": config.method,
        "alpha": config.alpha,
        "config_hash": config.config_hash(),
        **_summarize(per_seed),
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_run_manifest(
        out_dir, [*written, summary_path], config=config, dataset_checksum=dataset_checksum,
        seeds=seeds,
    )
    print(
        f"{config.method}: test accuracy {summary['mean_test_accuracy']:.4f} "
        f"± {summary['std_test_accuracy']:.4f} over {len(seeds)} seed(s)"
    )
    return 0


def cmd_sweep_alpha(args) -> int:
    if args.seeds <= 0:
        raise UsageError(f"--seeds must be positive, got {args.seeds}")
    names = [_alpha_dir(alpha) for alpha in args.alphas]  # alphas of one name share its files
    if len(set(names)) != len(names):
        raise UsageError(f"--alphas writes a directory twice: {' '.join(names)}")
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    files = [f"{name}/{file}" for name in names for file in _run_files(seeds)]
    _check_out(Path(args.out), [*files, "sweep.csv", "run_manifest.json"])
    parts, dataset_checksum = _load_dataset(args.dataset, args.split_seed)
    base_config = _build_config(args)
    out_dir = _make_out_dir(args.out, args.made_dirs)
    alpha_dirs = [_make_out_dir(out_dir / name, args.made_dirs) for name in names]
    # the whole alpha x seed grid is one lane stack, alpha-major
    per_lane, written = _run_lanes(
        parts,
        [replace(base_config, alpha=alpha, seed=s) for alpha in args.alphas for s in seeds],
        [alpha_dir for alpha_dir in alpha_dirs for _ in seeds],
    )
    rows = []
    for i, alpha in enumerate(args.alphas):
        summary = _summarize(per_lane[i * len(seeds) : (i + 1) * len(seeds)])
        rows.append(
            {
                "alpha": alpha,
                "mean_test_accuracy": summary["mean_test_accuracy"],
                "std_test_accuracy": summary["std_test_accuracy"],
                "seeds": len(seeds),
            }
        )
    best_idx = int(np.argmax([r["mean_test_accuracy"] for r in rows]))
    sweep_path = out_dir / "sweep.csv"
    with sweep_path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["alpha", "mean_test_accuracy", "std_test_accuracy", "seeds", "best"],
        )
        writer.writeheader()
        for i, row in enumerate(rows):
            writer.writerow({**row, "best": i == best_idx})
    _write_run_manifest(
        out_dir, [*written, sweep_path], config=base_config, dataset_checksum=dataset_checksum,
        seeds=seeds, alphas=args.alphas,
    )
    print(f"wrote {sweep_path}; best alpha {rows[best_idx]['alpha']:g}")
    return 0


def cmd_verify_theory(args) -> int:
    if args.trials <= 0:
        raise UsageError(f"--trials must be positive, got {args.trials}")
    if args.out:
        _check_out(Path(args.out), [""])
    from . import theory

    name = args.scenario
    if name in theory.builtin_scenario_names():
        scenario = theory.load_builtin_scenario(name)
    else:
        scenario = theory.TheoryScenario.from_json(name)
    theorem2 = {"skipped": "scenario carries no Tsybakov constants"}
    # a verifier's refusal names the scenario too, as the reader's do
    try:
        theorem1 = theory.verify_theorem1(scenario, args.trials, args.seed).to_dict()
        if scenario.tsybakov is not None:
            theorem2 = theory.verify_theorem2(scenario, args.trials, args.seed).to_dict()
    except (AssumptionError, ScenarioError) as exc:
        raise type(exc)(f"{name}: {exc}") from None
    report = {"scenario": scenario.name, "trials": args.trials, "seed": args.seed,
              "theorem1": theorem1, "theorem2": theorem2}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
        except OSError as exc:
            raise UsageError(f"--out {out}: cannot write the report ({exc.strerror})") from None
    print(text, end="")
    return 0 if theorem1["holds"] and theorem2.get("holds", True) else 2


def _read_metrics_series(run_dir: Path, seeds) -> dict[int, dict[int, dict]]:
    """Per seed and epoch, the metrics line logged.

    The files read are those of `seeds`, each of which must exist, or for
    None every metrics file under the run. A file logs epochs 1, 2, ... up to
    its last, each once, in any order.
    """
    if seeds is None:
        files = sorted(run_dir.glob("metrics_seed*.jsonl"))
    else:
        files = [run_dir / _METRICS.format(seed) for seed in seeds]
    if not files:
        raise DataError(f"no metrics files (metrics_seed*.jsonl) under {run_dir}")
    series = {}
    for path in files:
        seed = path.stem.removeprefix("metrics_seed")
        if not (seed.isascii() and seed.isdigit()) or seed != str(int(seed)):
            raise ParseError(f"{path}: expected a name metrics_seed<seed>.jsonl")
        series[int(seed)] = points = {}
        for number, line in enumerate(read_text(path).splitlines(), start=1):
            if line:
                where = f"{path}:{number}"
                metrics = parse_object(line, where, METRICS_LINE)
                if metrics["epoch"] in points:
                    raise ParseError(f"{where}: epoch {metrics['epoch']} is logged twice")
                points[metrics["epoch"]] = metrics
        missing = set(range(1, len(points) + 1)).difference(points)
        if missing:
            raise ParseError(f"{path}: no line logs epoch {min(missing)}")
    return series


def cmd_report(args) -> int:
    names = [Path(run).name for run in args.runs]
    if len(set(names)) != len(names):
        raise UsageError(f"--runs lists a directory name twice: {' '.join(names)}")
    _check_out(Path(args.out), [*(f"{name}_series.csv" for name in names), "report.md"])
    out_dir = _make_out_dir(args.out, args.made_dirs)
    # every run is read and checked before the first file is written
    md = ["# Run report", ""]
    series_rows = {}
    for run in args.runs:
        run_dir = Path(run)
        if not run_dir.exists():
            raise DataError(f"run directory {run_dir} does not exist")
        name = run_dir.name
        md += [f"## {name}", ""]
        # a summary lists its command's seeds; other seeds' files are an earlier command's
        summary_path, seeds, per_seed = run_dir / "summary.json", None, []
        if summary_path.exists():
            summary = parse_object(read_text(summary_path), summary_path, _SUMMARY)
            method, seeds, per_seed = summary["method"], summary["seeds"], summary["per_seed"]
            if method not in METHODS:
                raise ParseError(f"{summary_path}: method must be one of {METHODS}, got {method!r}")
            if len(set(seeds)) < len(seeds) or min(seeds, default=0) < 0:
                raise ParseError(f"{summary_path}: seeds must be distinct and >= 0, got {seeds!r}")
            if [row["seed"] for row in per_seed] != seeds:
                raise ParseError(f"{summary_path}: per_seed must list the seeds {seeds!r} in order")
            md.append(
                f"- method `{method}`: test accuracy "
                f"{summary['mean_test_accuracy']:.4f} ± {summary['std_test_accuracy']:.4f} "
                f"over {len(seeds)} seed(s)"
            )
        series = _read_metrics_series(run_dir, seeds)
        for row in per_seed:  # a file cut at a line boundary leaves no gap
            logged = len(series[row["seed"]])
            if logged != row["epochs_run"]:
                raise ParseError(
                    f"{run_dir / _METRICS.format(row['seed'])}: logs {logged} epochs, "
                    f"{summary_path} gives epochs_run {row['epochs_run']}"
                )
        series_name = f"{name}_series.csv"
        series_rows[series_name] = rows = []
        # epoch e averages the seeds that logged it
        for e in range(1, max(map(len, series.values())) + 1):
            logged = [points[e] for points in series.values() if e in points]
            cons = [m["bayes_consistency"] for m in logged if m["bayes_consistency"] is not None]
            rows.append(
                {
                    "epoch": e,
                    "bayes_consistency": float(np.mean(cons)) if cons else "",
                    "pseudo_label_drift": float(np.mean([m["pseudo_label_drift"] for m in logged])),
                }
            )
        md.append(f"- seeds with logs: {sorted(series)}")
        md.append(f"- per-epoch series: `{series_name}`")
        md.append("")
    for series_name, rows in series_rows.items():
        with (out_dir / series_name).open("w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["epoch", "bayes_consistency", "pseudo_label_drift"]
            )
            writer.writeheader()
            writer.writerows(rows)
    report_path = out_dir / "report.md"
    report_path.write_text("\n".join(md) + "\n")
    print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--beta3", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seeds", type=int, default=1, help="number of seeded runs")
    p.add_argument("--seed-base", dest="seed_base", type=_seed, default=0)
    p.add_argument("--split-seed", dest="split_seed", type=_seed, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="reduxpll", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a candidate-label dataset")
    p.add_argument("--c", type=int, default=5, help="number of classes")
    p.add_argument("--q", type=int, default=2, help="feature dimension")
    p.add_argument("--n", type=int, default=2000, help="number of instances")
    p.add_argument("--separation", type=float, default=2.5)
    p.add_argument("--ambiguity", type=float, default=0.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one method over several seeds")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-alpha", help="summary accuracy per mixing weight")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alphas", type=_alphas, default=DEFAULT_ALPHA_GRID,
                   help="comma-separated grid (default 0.1..0.9)")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("verify-theory", help="run the consistency verifications")
    p.add_argument("--scenario", required=True, help="scenario JSON path or builtin name")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write the report JSON here as well")
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("report", help="consolidate run metrics into md + csv series")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A command that fails removes the --out directories it created that are
    still empty, deepest first; a tree or an older directory stays.
    """
    made: list[Path] = []
    code = None
    try:
        args = build_parser().parse_args(argv)
        args.made_dirs = made
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    except ReduxPllError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    finally:
        if code != 0:
            for path in reversed(made):
                with contextlib.suppress(OSError):
                    os.rmdir(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
