"""Command-line entry points: generate, train, sweep-alpha, verify-theory, report.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure. All outputs are byte-identical across repeated invocations with the
same flags; wall-clock timestamps appear only in run manifests. A command's
runs (the seeds of `train`, the alpha x seed grid of `sweep-alpha`) train in
lockstep as one lane stack; with REDUXPLL_THREADS=k > 1 the stack splits into
k contiguous chunks that run in parallel processes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data, theory, training
from .errors import DataError, NumericError, ParseError, ReduxPllError, UsageError

DEFAULT_ALPHA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


class _Parser(argparse.ArgumentParser):
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


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_dataset(path_arg: str) -> tuple[data.PllDataset, Path, dict | None]:
    """Accept either a dataset directory (csv + manifest) or a bare csv path."""
    path = Path(path_arg)
    manifest = None
    if path.is_dir():
        csv_path = path / "dataset.csv"
        manifest_path = path / "manifest.json"
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except json.JSONDecodeError as exc:
                raise ParseError(f"{manifest_path}: invalid JSON ({exc})") from exc
            if not isinstance(manifest, dict):
                raise ParseError(f"{manifest_path}: expected a JSON object")
    else:
        csv_path = path
    if not csv_path.exists():
        raise DataError(f"no dataset at {csv_path}")
    c = manifest.get("c") if manifest else None
    return data.load_csv(csv_path, c=c), csv_path, manifest


def _build_config(args) -> training.TrainConfig:
    """defaults < config file < explicit CLI flags."""
    doc = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        try:
            doc = json.loads(cfg_path.read_text())
        except OSError as exc:
            raise ParseError(f"{cfg_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{cfg_path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{cfg_path}: a config file holds one JSON object")
    for key in ("method", "alpha", "beta1", "beta2", "beta3", "batch_size", "epochs", "patience"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    config = training.TrainConfig.from_dict(doc)
    config.validate()
    return config


def _make_out_dir(path) -> Path:
    """Create the --out directory `path` (or one under it) with its parents."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"--out {out_dir}: cannot create the directory ({exc.strerror})"
        ) from None
    return out_dir


def _split_dataset(ds: data.PllDataset, split_seed: int):
    return data.split(ds, data.SplitSpec(seed=split_seed))


def _fit_lane_chunk(payload):
    """Worker for one chunk of lanes (top level so process pools can pickle it)."""
    ds_parts, lanes = payload
    results = training.fit_lanes(
        ds_parts,
        [cfg for cfg, _ in lanes],
        metrics_paths=[str(out / f"metrics_seed{cfg.seed}.jsonl") for cfg, out in lanes],
        checkpoint_paths=[str(out / f"checkpoint_seed{cfg.seed}.npz") for cfg, out in lanes],
    )
    return [
        {
            "seed": result.config.seed,
            "best_epoch": result.best_epoch,
            "best_val_accuracy": result.best_val_accuracy,
            "test_accuracy": result.test_accuracy,
            "epochs_run": len(result.history),
        }
        for result in results
    ]


def _run_lanes(ds_parts, configs, out_dirs) -> list[dict]:
    """Fit every config as one lane stack, logging lane k under out_dirs[k].

    With REDUXPLL_THREADS=k > 1 the lanes split into k contiguous chunks, one
    per pool worker. Results come back in config order either way.
    """
    lanes = [(config, Path(out)) for config, out in zip(configs, out_dirs)]
    raw = os.environ.get("REDUXPLL_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise UsageError(f"REDUXPLL_THREADS must be an integer, got {raw!r}") from None
    chunks = max(1, min(threads, len(lanes)))
    bounds = [len(lanes) * i // chunks for i in range(chunks + 1)]
    payloads = [(ds_parts, lanes[a:b]) for a, b in zip(bounds, bounds[1:])]
    if len(payloads) == 1:
        return _fit_lane_chunk(payloads[0])
    with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
        return [row for chunk in pool.map(_fit_lane_chunk, payloads) for row in chunk]


def _summarize(per_seed: list[dict]) -> dict:
    accs = [r["test_accuracy"] for r in per_seed]
    return {
        "seeds": [r["seed"] for r in per_seed],
        "per_seed": per_seed,
        "mean_test_accuracy": float(np.mean(accs)),
        "std_test_accuracy": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
    }


def _write_run_manifest(out_dir: Path, *, config, dataset_csv, seeds, method) -> None:
    artifacts = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "run_manifest.json" or not p.is_file():
            continue
        artifacts[p.name] = data.file_checksum(p)
    manifest = {
        "config_hash": config.config_hash(),
        "dataset_checksum": data.file_checksum(dataset_csv),
        "seeds": list(seeds),
        "method": method,
        "output_dir": str(out_dir),
        "created_at": _utc_now(),
        "artifacts": artifacts,
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


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
    out_dir = _make_out_dir(args.out)
    ds = data.gen_gaussian_mixture(args.c, args.q, args.n, args.separation, args.seed)
    ds = data.corrupt_instance_dependent(ds, args.ambiguity, args.seed)
    data.validate_dataset(ds, require_posterior=True)
    csv_path = out_dir / "dataset.csv"
    data.save_csv(ds, csv_path)
    data.write_manifest(
        out_dir / "manifest.json", ds, csv_path, ambiguity=args.ambiguity, seed=args.seed
    )
    print(f"wrote {csv_path} (n={ds.n}, c={ds.c}, q={ds.q})")
    return 0


def cmd_train(args) -> int:
    if args.seeds <= 0:
        raise UsageError(f"--seeds must be positive, got {args.seeds}")
    ds, csv_path, _ = _load_dataset(args.dataset)
    config = _build_config(args)
    out_dir = _make_out_dir(args.out)
    parts = _split_dataset(ds, args.split_seed)
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    per_seed = _run_lanes(parts, [replace(config, seed=s) for s in seeds], [out_dir] * len(seeds))
    summary = {
        "method": config.method,
        "alpha": config.alpha,
        "config_hash": config.config_hash(),
        **_summarize(per_seed),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    _write_run_manifest(
        out_dir, config=config, dataset_csv=csv_path, seeds=seeds, method=config.method
    )
    print(
        f"{config.method}: test accuracy {summary['mean_test_accuracy']:.4f} "
        f"± {summary['std_test_accuracy']:.4f} over {len(seeds)} seed(s)"
    )
    return 0


def cmd_sweep_alpha(args) -> int:
    if args.seeds <= 0:
        raise UsageError(f"--seeds must be positive, got {args.seeds}")
    alphas = DEFAULT_ALPHA_GRID if args.alphas is None else tuple(args.alphas)
    if len(set(alphas)) != len(alphas):
        raise UsageError(f"--alphas lists a value twice: {','.join(map(str, alphas))}")
    ds, csv_path, _ = _load_dataset(args.dataset)
    base_config = _build_config(args)
    out_dir = _make_out_dir(args.out)
    parts = _split_dataset(ds, args.split_seed)
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    alpha_dirs = [out_dir / f"alpha_{alpha:g}" for alpha in alphas]
    for alpha_dir in alpha_dirs:
        _make_out_dir(alpha_dir)
    # the whole alpha x seed grid is one lane stack, alpha-major
    per_lane = _run_lanes(
        parts,
        [replace(base_config, alpha=alpha, seed=s) for alpha in alphas for s in seeds],
        [alpha_dir for alpha_dir in alpha_dirs for _ in seeds],
    )
    rows = []
    for i, alpha in enumerate(alphas):
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
        out_dir,
        config=base_config,
        dataset_csv=csv_path,
        seeds=seeds,
        method=base_config.method,
    )
    print(f"wrote {sweep_path}; best alpha {rows[best_idx]['alpha']:g}")
    return 0


def cmd_verify_theory(args) -> int:
    if args.trials <= 0:
        raise UsageError(f"--trials must be positive, got {args.trials}")
    name = args.scenario
    if name in theory.builtin_scenario_names():
        scenario = theory.load_builtin_scenario(name)
    else:
        scenario = theory.TheoryScenario.from_json(name)
    report: dict = {
        "scenario": scenario.name,
        "trials": args.trials,
        "seed": args.seed,
        "theorem1": theory.verify_theorem1(scenario, args.trials, args.seed).to_dict(),
    }
    if scenario.tsybakov is not None:
        report["theorem2"] = theory.verify_theorem2(
            scenario, args.trials, args.seed
        ).to_dict()
    else:
        report["theorem2"] = {"skipped": "scenario carries no Tsybakov constants"}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
        except OSError as exc:
            raise UsageError(f"--out {out}: cannot write the report ({exc.strerror})") from None
    print(text, end="")
    t1 = report["theorem1"]
    ok1 = t1["holds"]
    ok2 = report["theorem2"].get("holds", True)
    return 0 if (ok1 and ok2) else 2


def _read_metrics_series(run_dir: Path) -> dict[int, list[dict]]:
    files = sorted(run_dir.glob("metrics_seed*.jsonl"))
    if not files:
        raise DataError(f"no metrics files (metrics_seed*.jsonl) under {run_dir}")
    series = {}
    for path in files:
        seed = int(path.stem.replace("metrics_seed", ""))
        lines = [json.loads(line) for line in path.read_text().splitlines() if line]
        series[seed] = lines
    return series


def cmd_report(args) -> int:
    out_dir = _make_out_dir(args.out)
    md = ["# Run report", ""]
    for run in args.runs:
        run_dir = Path(run)
        if not run_dir.exists():
            raise DataError(f"run directory {run_dir} does not exist")
        series = _read_metrics_series(run_dir)
        name = run_dir.name
        max_epoch = max(len(v) for v in series.values())
        rows = []
        for e in range(1, max_epoch + 1):
            cons = [
                s[e - 1]["bayes_consistency"]
                for s in series.values()
                if len(s) >= e and s[e - 1]["bayes_consistency"] is not None
            ]
            drift = [s[e - 1]["pseudo_label_drift"] for s in series.values() if len(s) >= e]
            rows.append(
                {
                    "epoch": e,
                    "bayes_consistency": float(np.mean(cons)) if cons else "",
                    "pseudo_label_drift": float(np.mean(drift)) if drift else "",
                }
            )
        series_path = out_dir / f"{name}_series.csv"
        with series_path.open("w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["epoch", "bayes_consistency", "pseudo_label_drift"]
            )
            writer.writeheader()
            writer.writerows(rows)
        md.append(f"## {name}")
        md.append("")
        summary_path = run_dir / "summary.json"
        if summary_path.exists():
            summary = json.loads(summary_path.read_text())
            md.append(
                f"- method `{summary.get('method', '?')}`: test accuracy "
                f"{summary['mean_test_accuracy']:.4f} ± {summary['std_test_accuracy']:.4f} "
                f"over {len(summary.get('seeds', []))} seed(s)"
            )
        md.append(f"- seeds with logs: {sorted(series)}")
        md.append(f"- per-epoch series: `{series_path.name}`")
        md.append("")
    report_path = out_dir / "report.md"
    report_path.write_text("\n".join(md) + "\n")
    print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--method", choices=training.METHODS)
    p.add_argument("--alpha", type=float)
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
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-alpha", help="summary accuracy per mixing weight")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--alphas",
        type=lambda s: [float(tok) for tok in s.split(",")],
        default=None,
        help="comma-separated grid (default 0.1..0.9)",
    )
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ReduxPllError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
