"""Correctness checks on the outputs of the benchmark's commands.

Every command the benchmark runs is one operation in a `Ledger`. It fails
when it exits nonzero or when any check on its outputs reports a problem.
Outputs are compared by fingerprint through `Expectations`: for the seed with
a stored reference the expected values come from bench/reference.json, and
otherwise from the first time the run observes them. Either way, repeated
commands in one run must produce identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# The EpochMetrics fields of the current schema; fields added later are ignored.
EPOCH_FIELDS = (
    "epoch",
    "train_loss",
    "val_accuracy",
    "test_accuracy",
    "bayes_consistency",
    "pseudo_label_drift",
)
SUMMARY_FIELDS = ("seed", "best_epoch", "best_val_accuracy", "test_accuracy", "epochs_run")
DATASET_FIELDS = ("features", "candidates", "true_labels", "posterior")


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def metrics_fingerprint(rows: list[dict]) -> str:
    """sha256 over the EPOCH_FIELDS of every epoch.

    For a metrics file holding exactly those fields this equals
    `RunResult.trajectory_hash()` of the same run.
    """
    picked = [{k: row[k] for k in EPOCH_FIELDS} for row in rows]
    return sha256_bytes(json.dumps(picked, sort_keys=True).encode())


def _unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


class Ledger:
    """Counts attempted and failed operations and keeps each failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, rc, problems: list[str]) -> bool:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}", *problems]
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems


class Expectations:
    """Expected fingerprints by key; an unknown key adopts its first observation."""

    def __init__(self, values: dict | None = None):
        self.values = dict(values or {})

    def check(self, key: str, observed) -> list[str]:
        if key not in self.values:
            self.values[key] = observed
            return []
        if self.values[key] != observed:
            return [f"{key} is {observed!r}, expected {self.values[key]!r}"]
        return []

    def check_all(self, observed: dict) -> list[str]:
        return [p for key, value in observed.items() for p in self.check(key, value)]


def train_outputs(out_dir, seeds: int, epochs: int) -> tuple[dict, list[str]]:
    """Fingerprints of a `train` output directory plus the invariants it breaks.

    Observed keys: `metrics_seed<s>` (per-epoch fingerprint), `checkpoint_seed<s>`
    (file sha256) and `summary` (the accuracy fields of summary.json).
    """
    out_dir = Path(out_dir)
    observed: dict = {}
    problems: list[str] = []
    try:
        for s in range(seeds):
            text = (out_dir / f"metrics_seed{s}.jsonl").read_text()
            rows = [json.loads(line) for line in text.splitlines() if line]
            if len(rows) != epochs:
                problems.append(f"seed {s}: {len(rows)} epochs logged, expected {epochs}")
            for row in rows:
                bayes = row.get("bayes_consistency")
                if not (
                    _unit_interval(row.get("val_accuracy"))
                    and _unit_interval(row.get("test_accuracy"))
                    and (bayes is None or _unit_interval(bayes))
                ):
                    problems.append(f"seed {s}: epoch {row.get('epoch')} accuracy outside [0, 1]")
            observed[f"metrics_seed{s}"] = metrics_fingerprint(rows)
            observed[f"checkpoint_seed{s}"] = sha256_file(out_dir / f"checkpoint_seed{s}.npz")
        summary = json.loads((out_dir / "summary.json").read_text())
        per_seed = [{k: r[k] for k in SUMMARY_FIELDS} for r in summary["per_seed"]]
        observed["summary"] = {
            "per_seed": per_seed,
            "mean_test_accuracy": summary["mean_test_accuracy"],
            "std_test_accuracy": summary["std_test_accuracy"],
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable training output: {exc!r}")
        return observed, problems
    if [r["seed"] for r in per_seed] != list(range(seeds)):
        problems.append(f"summary lists seeds {[r['seed'] for r in per_seed]}")
    for r in per_seed:
        if not (_unit_interval(r["test_accuracy"]) and _unit_interval(r["best_val_accuracy"])):
            problems.append(f"seed {r['seed']}: summary accuracy outside [0, 1]")
        if r["epochs_run"] != epochs:
            problems.append(f"seed {r['seed']}: ran {r['epochs_run']} epochs, expected {epochs}")
    return observed, problems


def dataset_differences(loaded, expected, fields=DATASET_FIELDS) -> list[str]:
    """Fields of `loaded` that are not bit-identical to `expected`."""
    return [
        f"{name} read back differs from the generated dataset"
        for name in fields
        if not np.array_equal(getattr(loaded, name), getattr(expected, name))
    ]


def report_outputs(path, printed: str) -> tuple[str | None, list[str]]:
    """sha256 of a verify-theory report and the problems with it.

    Both theorems must hold, and the report printed to stdout must equal the
    file written with --out.
    """
    try:
        text = Path(path).read_text()
        doc = json.loads(text)
    except (OSError, ValueError) as exc:
        return None, [f"unreadable report: {exc!r}"]
    problems = []
    if text != printed:
        problems.append("printed report differs from the written one")
    for theorem in ("theorem1", "theorem2"):
        section = doc.get(theorem)
        if not isinstance(section, dict) or section.get("holds") is not True:
            problems.append(f"{theorem} does not hold")
    return sha256_bytes(text.encode()), problems
