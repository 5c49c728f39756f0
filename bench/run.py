#!/usr/bin/env python3
"""Benchmark for reduxpll: drives `reduxpll.cli.main` on fixed workloads.

    python3 bench/run.py --workload fit-reduxpll --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload; exits 1 on any failure
    python3 bench/run.py --check                   # 40-epoch trajectory-hash gate
    python3 bench/run.py --workload all --record   # rewrite bench/reference.json (seed 0)

Run it from a source checkout: it imports the package from src/ next to this
directory and exits 2 when there is none. Each run is one fresh process. It
makes its inputs from --seed and, for --seconds, alternates set-ups in fresh
interpreters (median CPU seconds reported as setup_s) with reps of the
workload's CLI commands in process (median CPU seconds reported as cpu_s),
checking every output (bench/checks.py). The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, and with --trace 1 the
per-layer metrics of reps run under bench/tracer.py, alternated with
untraced reps to measure the tracing overhead. Results, provenance and
spans are also written under .bench_build/reduxpll-bench/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; setup interpreters and pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, pool_idle_share  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_build" / "reduxpll-bench"
REFERENCE_SEED = 0

# The default synthetic benchmark of the README; split seed 0 is the CLI default.
C, Q, SEPARATION, AMBIGUITY = 5, 2, 2.5, 0.5
GENERATE_FLAGS = ["--c", str(C), "--q", str(Q), "--separation", str(SEPARATION),
                  "--ambiguity", str(AMBIGUITY)]

MIN_REPS = 2  # repeated commands must agree, so every run makes at least two

# Trajectory-hash prefixes of the default dataset, seed 0, 40 epochs, no early stop.
TRAJECTORY_PREFIXES = {
    "reduxpll": "831a7636e7e411cb",
    "reduxpll-uniform-w": "1b3e747c3a4a5ed9",
    "proden": "1f793ed4448f99f3",
}


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # dataset size
    method: str = ""  # training workloads only
    seeds: int = 0
    epochs: int = 0  # early stopping is off: --patience equals --epochs
    trials: int = 0  # generate-verify only: Monte-Carlo trials per theorem
    setups_per_rep: int = 1  # fresh-interpreter set-ups before each rep
    # Workers that the computed cli.pool.idle_share schedules the fits onto. The
    # timed commands themselves run with REDUXPLL_THREADS=1: a pool as wide as
    # a small shared machine times its scheduler more than the program.
    pool_workers: int = 1


# Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-reduxpll", rows=2000, method="reduxpll", seeds=1, epochs=20),
        Workload("train-proden", rows=2000, method="proden", seeds=5, epochs=40, pool_workers=2),
        Workload("generate-verify", rows=100_000, trials=1_000_000, setups_per_rep=3),
    )
}

# Times are CPU seconds (user + system): every timed command runs in one
# single-threaded process, so on an idle machine they equal wall time, and they
# leave out the time a shared host takes the CPU away, which drifts over minutes.
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# Printed in the table and results file only: wall times drift with the host;
# each of the others applies to some workloads (ops_failed_frac is 0 by design),
# and BENCHMARK.json lists only metrics that every workload reports and that are
# never 0.
EXTRA_UNITS = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "epochs_per_s": "epochs/s",
    "generate_rows_per_s": "rows/s",
    "load_rows_per_s": "rows/s",
    "trials_per_s": "trials/s",
    "ops_failed_frac": "share",
}

PER_LAYER = {
    "nets.forward.calls_per_batch": "calls/batch",
    "nets.forward.self_s": "s",
    "nets.backward_ce.calls_per_batch": "calls/batch",
    "nets.backward_ce.self_s": "s",
    "nets.hypergradient.self_s": "s",
    "nets.forward_jvp.self_s": "s",
    "nets.sgd_step.self_s": "s",
    "nets.param_axpy.self_s": "s",
    "nets.to_flat.calls": "count",
    "pseudo.reduction_row.calls_per_batch": "calls/batch",
    "pseudo.reduction_matrix.self_s": "s",
    "pseudo.meta_weights.calls_per_batch": "calls/batch",
    "pseudo.basic_pseudo.self_s": "s",
    "pseudo.PseudoLabelState.validate.self_s": "s",
    "training.train_epoch.self_s": "s",
    "training.fit.self_s": "s",
    "training.fit.calls": "count",
    "training.accuracy.self_s": "s",
    "training.init_state.self_s": "s",
    "training.save_checkpoint.calls": "count",
    "training.save_checkpoint.self_s": "s",
    "training.save_checkpoint.bytes": "B",
    "training.save_checkpoint.share_of_fit": "share",
    "cli.pool.idle_share": "share",
    "data.file_checksum.self_s": "s",
    "data.file_checksum.bytes": "B",
    "data.gen_gaussian_mixture.self_s": "s",
    "data.corrupt_instance_dependent.self_s": "s",
    "data.corrupt_instance_dependent.us_per_row": "us/row",
    "data.save_csv.self_s": "s",
    "data.save_csv.bytes": "B",
    "data.load_csv.self_s": "s",
    "data.split.self_s": "s",
    "theory.sample_simplex_ball.calls": "count",
    "theory.sample_simplex_ball.self_s": "s",
    "theory.sample_simplex_ball.rows": "rows",
    "theory.sample_simplex_ball.accept_ratio": "share",
    "theory.verify_theorem1.self_s": "s",
    "theory.verify_theorem1.total_s": "s",
    "theory.verify_theorem2.self_s": "s",
    "theory.check_tsybakov.self_s": "s",
    "trace.overhead_frac": "share",
}

# A setup sample: a fresh interpreter imports the package and runs one CLI
# command (none for generate-verify, whose inputs are the bundled scenarios).
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from reduxpll import cli
argv = json.loads(sys.argv[2])
print(json.dumps({"rc": cli.main(argv) if argv else 0}))
"""


def generate_argv(rows: int, seed: int, out: Path) -> list[str]:
    return ["generate", *GENERATE_FLAGS, "--n", str(rows), "--seed", str(seed), "--out", str(out)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_seconds(*who: int) -> float:
    """User plus system CPU seconds of `resource.getrusage` for each of `who`."""
    return sum(u.ru_utime + u.ru_stime for u in map(resource.getrusage, who))


def call_cli(argv: list[str]):
    """Run `reduxpll.cli.main(argv)` in process; returns (rc, seconds, stdout, stderr)."""
    from reduxpll import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation; keep its traceback
        rc = "uncaught exception"
        err.write(traceback.format_exc(limit=4))
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def stderr_problem(rc, err: str) -> list[str]:
    return [f"stderr: {err.strip()[-400:]}"] if rc != 0 and err.strip() else []


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 record: bool = False):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ledger = checks.Ledger()
        reference = {}
        if seed == REFERENCE_SEED and not record and REFERENCE_PATH.exists():
            reference = json.loads(REFERENCE_PATH.read_text()).get(workload.name, {})
        self.reference_checked = bool(reference)
        self.expect = checks.Expectations(reference)
        self.work = OUT_DIR / f"work-{workload.name}-seed{seed}-{os.getpid()}"
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.tracer = None
        self.layer_reps: list[dict] = []  # per traced rep: per-layer values
        self.last_stats: dict = {}  # last traced rep: name -> [calls, total_s, self_s]
        self.walls = {False: [], True: []}  # trace mode: rep walls, untraced / traced
        self.rep_cpu = 0.0  # CPU seconds of the current rep's timed commands
        self.generated = None  # the dataset as generated in memory, for the read-back check
        self.scenarios: list[str] = []

    # -- commands ------------------------------------------------------------

    def cli(self, argv: list[str], traced: bool):
        if traced:
            self.tracer.next_command()
        cpu = cpu_seconds(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        result = call_cli(argv)
        self.rep_cpu += cpu_seconds(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) - cpu
        return result

    def setup_sample(self, argv: list[str]) -> tuple[object, float, float, str]:
        """(rc, wall seconds, CPU seconds, stderr) of one fresh interpreter."""
        cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(argv)],
            capture_output=True, text=True, timeout=170,
        )
        wall = time.perf_counter() - start
        cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])["rc"], wall, cpu, proc.stderr
        except (IndexError, ValueError, KeyError):
            return proc.returncode or "no result", wall, cpu, proc.stderr

    def check_dataset_file(self, label: str, rc, err: str, ds_dir: Path) -> None:
        try:
            problems = self.expect.check(
                "dataset_sha256", checks.sha256_file(ds_dir / "dataset.csv"))
        except OSError as exc:
            problems = [f"no dataset: {exc!r}"]
        self.ledger.record(label, rc, problems + stderr_problem(rc, err))

    def timed_load(self, csv_path: Path, fields) -> float:
        """Time `data.load_csv` and check the read-back against the generated dataset."""
        from reduxpll import data
        from reduxpll.errors import ReduxPllError

        cpu = cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            loaded = data.load_csv(csv_path, c=C)
        except ReduxPllError as exc:
            self.ledger.record("load_csv", f"raised {exc!r}", [])
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        self.rep_cpu += cpu_seconds(resource.RUSAGE_SELF) - cpu
        problems = checks.dataset_differences(loaded, self.generated, fields)
        if "candidates" not in fields:
            problems += self.expect.check(
                "candidates_sha256", checks.sha256_bytes(loaded.candidates.tobytes()))
        self.ledger.record("load_csv", 0, problems)
        return seconds

    # -- setup ---------------------------------------------------------------

    def prepare(self) -> None:
        """Make what the checks compare against; done once, in process, untimed."""
        from reduxpll import data, theory

        self.work.mkdir(parents=True, exist_ok=True)
        ds = data.gen_gaussian_mixture(C, Q, self.w.rows, SEPARATION, self.seed)
        if self.w.method:
            self.generated = data.corrupt_instance_dependent(ds, AMBIGUITY, self.seed)
        else:
            # corruption (the candidates) is checked by fingerprint instead:
            # redoing it here would cost as much as the timed generate
            self.generated = ds
            self.scenarios = theory.builtin_scenario_names()

    def setup_round(self) -> None:
        """Set up once in a fresh interpreter: import, and generate the training input."""
        if self.w.method:
            ds_dir = self.work / "input"
            rc, wall, cpu, err = self.setup_sample(generate_argv(self.w.rows, self.seed, ds_dir))
            self.check_dataset_file("setup generate", rc, err, ds_dir)
            if not self.samples["setup_s"]:  # the input must read back as generated
                self.timed_load(ds_dir / "dataset.csv", checks.DATASET_FIELDS)
        else:
            rc, wall, cpu, err = self.setup_sample([])
            self.ledger.record("setup import", rc, stderr_problem(rc, err))
        self.samples["setup_s"].append(cpu)
        self.samples["setup_wall_s"].append(wall)

    # -- reps ----------------------------------------------------------------

    def train_rep(self, traced: bool) -> float:
        """One `train` command (after a fresh `generate` in trace mode); returns its seconds."""
        w = self.w
        spent = 0.0
        ds_dir = self.work / "input"
        if self.trace:
            ds_dir = self.work / "rep-input"
            rc, seconds, _, err = self.cli(generate_argv(w.rows, self.seed, ds_dir), traced)
            self.check_dataset_file("generate", rc, err, ds_dir)
            spent += seconds
        out = self.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        rc, seconds, _, err = self.cli(
            ["train", "--dataset", str(ds_dir), "--out", str(out), "--method", w.method,
             "--seeds", str(w.seeds), "--epochs", str(w.epochs), "--patience", str(w.epochs)],
            traced,
        )
        observed, problems = checks.train_outputs(out, w.seeds, w.epochs)
        problems += self.expect.check_all(observed)
        self.ledger.record("train", rc, problems + stderr_problem(rc, err))
        self.samples["epochs_per_s"].append(w.seeds * w.epochs / seconds)
        return spent + seconds

    def generate_verify_rep(self, traced: bool) -> float:
        w = self.w
        ds_dir = self.work / "data"
        rc, gen_s, _, err = self.cli(generate_argv(w.rows, self.seed, ds_dir), traced)
        self.check_dataset_file("generate", rc, err, ds_dir)
        if traced:
            self.tracer.next_command()
        load_s = self.timed_load(ds_dir / "dataset.csv", ("features", "true_labels", "posterior"))
        verify_s = 0.0
        for name in self.scenarios:
            report = self.work / f"report-{name}.json"
            rc, seconds, printed, err = self.cli(
                ["verify-theory", "--scenario", name, "--trials", str(w.trials),
                 "--seed", str(self.seed), "--out", str(report)],
                traced,
            )
            sha, problems = checks.report_outputs(report, printed)
            problems += self.expect.check(f"report_{name}", sha)
            self.ledger.record(f"verify-theory {name}", rc, problems + stderr_problem(rc, err))
            verify_s += seconds
        self.samples["generate_rows_per_s"].append(w.rows / gen_s)
        self.samples["load_rows_per_s"].append(w.rows / load_s)
        self.samples["trials_per_s"].append(2 * len(self.scenarios) * w.trials / verify_s)
        return gen_s + load_s + verify_s

    def rep(self, traced: bool) -> float:
        if self.w.method:
            return self.train_rep(traced)
        return self.generate_verify_rep(traced)

    def traced_rep(self) -> float:
        if self.tracer is None:
            self.tracer = Tracer()
        first_span = len(self.tracer.spans)
        with self.tracer:
            wall = self.rep(traced=True)
        stats, counters = self.tracer.take_stats()
        fits = [s[2] - s[1] for s in self.tracer.spans[first_span:]
                if s is not None and s[0] == "training.fit"]
        self.last_stats = stats
        self.layer_reps.append(layer_values(stats, counters, fits, self.w.pool_workers))
        return wall

    # -- driving -------------------------------------------------------------

    def measure(self) -> None:
        """Alternate set-up rounds with reps of the timed commands for --seconds.

        Interleaving spreads every metric's samples over the whole run, so a
        slow or fast spell of a shared machine weighs on all of them alike. In
        trace mode reps alternate between untraced and traced. Every fit runs
        in this process (REDUXPLL_THREADS=1), so the tracer sees it.
        """
        os.environ["REDUXPLL_THREADS"] = "1"
        self.prepare()
        start = time.perf_counter()
        k = 0
        while k < MIN_REPS or time.perf_counter() - start < self.seconds:
            if k == 0 or not self.trace:
                for _ in range(self.w.setups_per_rep):
                    self.setup_round()
            traced = self.trace and k % 2 == 1
            self.rep_cpu = 0.0
            self.walls[traced].append(self.traced_rep() if traced else self.rep(traced=False))
            if not traced:
                self.samples["cpu_s"].append(self.rep_cpu)
            k += 1
        self.samples["wall_s"] = self.walls[False]

    def metrics(self) -> dict:
        """name -> (values, unit) for the table; the JSON line takes the medians."""
        out = {}
        if self.trace:
            for name, unit in PER_LAYER.items():
                out[name] = ([rep[name] for rep in self.layer_reps if name in rep], unit)
            overhead = statistics.median(self.walls[True]) / statistics.median(self.walls[False])
            out["trace.overhead_frac"] = ([overhead - 1.0], "share")
            return out
        self.samples["peak_rss_mb"] = [peak_rss_mib()]
        for name, unit in {**END_TO_END, **EXTRA_UNITS}.items():
            if self.samples.get(name):
                out[name] = (self.samples[name], unit)
        out["ops_failed_frac"] = ([self.ledger.failed / max(self.ledger.attempted, 1)], "share")
        return out

    def provenance(self, metrics: dict) -> dict:
        return {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_version(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "REDUXPLL_THREADS": os.environ.get("REDUXPLL_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "reference_checked": self.reference_checked,
            "samples": {name: len(values) for name, (values, _) in metrics.items()},
        }

    def write_results(self, metrics: dict, provenance: dict) -> None:
        results = OUT_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{self.w.name}-seed{self.seed}-trace{int(self.trace)}"
        doc = {
            "provenance": provenance,
            "metrics": {
                name: dict(zip(("q1", "median", "q3"), quartiles(values)), unit=unit,
                           n=len(values), values=values)
                for name, (values, unit) in metrics.items()
            },
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "problems": self.ledger.problems,
        }
        if self.trace:
            doc["layers"] = {
                name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                for name, st in sorted(self.last_stats.items())
            }
            self.tracer.write_spans(results / f"{stem}.spans.jsonl.gz")
        (results / f"{stem}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def execute(self) -> dict:
        try:
            self.measure()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        metrics = self.metrics()
        provenance = self.provenance(metrics)
        self.write_results(metrics, provenance)
        print_table(self.w.name, metrics)
        for problem in self.ledger.problems:
            print(f"FAILED {problem}")
        print("provenance " + json.dumps(provenance, sort_keys=True))
        names = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {  # a metric with no sample can only follow a failed command
                name: {"value": statistics.median(metrics.get(name, ([0.0],))[0]), "unit": unit}
                for name, unit in names.items()
            },
        }


def layer_values(stats: dict, counters: dict, fit_seconds: list[float], workers: int) -> dict:
    """Every PER_LAYER metric of one traced rep (0 where the layer did not run)."""
    def total(layer):
        return stats.get(layer, (0, 0.0, 0.0))[1]

    batches = counters.get("training.batches", 0)
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":  # a property of the whole run
            continue
        layer, _, kind = name.rpartition(".")
        calls, _, self_s = stats.get(layer, (0, 0.0, 0.0))
        if kind == "calls":
            value = calls
        elif kind == "self_s":
            value = self_s
        elif kind == "total_s":
            value = total(layer)
        elif kind == "calls_per_batch":
            value = calls / batches if batches else 0.0
        elif name == "training.save_checkpoint.share_of_fit":
            value = total(layer) / total("training.fit") if total("training.fit") else 0.0
        elif name == "data.corrupt_instance_dependent.us_per_row":
            rows = counters.get(f"{layer}.rows", 0)
            value = 1e6 * total(layer) / rows if rows else 0.0
        elif name == "theory.sample_simplex_ball.accept_ratio":
            drawn = counters.get(f"{layer}.drawn", 0)
            value = counters.get(f"{layer}.rows", 0) / drawn if drawn else 0.0
        elif name == "cli.pool.idle_share":  # computed: fits scheduled onto the pool
            value = pool_idle_share(fit_seconds, workers)
        else:  # bytes and rows counters
            value = counters.get(name, 0)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "reduxpll").rglob("*")):
        if path.suffix in (".py", ".json") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_version() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return None


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    print(f"{'metric':<44}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, (values, unit) in metrics.items():
        q1, med, q3 = quartiles(values)
        label = name + (" (computed)" if name == "cli.pool.idle_share" else "")
        print(f"{label:<44}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}  {unit}")


# ---------------------------------------------------------------------------
# Other modes
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own fresh process; one table; nonzero on any failure."""
    ok = True
    attempted = failed = 0
    combined = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"== {name}: no result (exit {proc.returncode})")
            ok = False
            continue
        ok &= proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(f"ops_failed_frac {failed / max(attempted, 1):.6g} share ({failed} of {attempted})")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if ok else 1


def run_check() -> int:
    """The 40-epoch seed-0 trajectory-hash gate, and tracing leaves a fit unchanged."""
    from reduxpll import data, training

    ds = data.gen_gaussian_mixture(C, Q, 2000, SEPARATION, 0)
    parts = data.split(data.corrupt_instance_dependent(ds, AMBIGUITY, 0), data.SplitSpec(seed=0))
    failures = 0
    hashes = {}
    for method, prefix in TRAJECTORY_PREFIXES.items():
        config = training.TrainConfig(method=method, epochs=40, patience=40, seed=0)
        hashes[method] = training.fit(parts, config).trajectory_hash()
        ok = hashes[method].startswith(prefix)
        failures += not ok
        print(f"{'ok' if ok else 'MISMATCH'} {method} {hashes[method][:16]} (expected {prefix})")
    with Tracer() as tracer:
        traced = training.fit(parts, training.TrainConfig(epochs=40, patience=40, seed=0))
    ok = traced.trajectory_hash() == hashes["reduxpll"]
    failures += not ok
    calls = tracer.stats["nets.forward"][0]
    print(f"{'ok' if ok else 'MISMATCH'} traced reduxpll fit has the untraced trajectory hash "
          f"({calls} nets.forward calls)")
    print(json.dumps({"correct": failures == 0, "attempted": len(TRAJECTORY_PREFIXES) + 1,
                      "failed": failures, "metrics": {}}))
    return 0 if failures == 0 else 1


def record_reference(run: Run) -> None:
    """Store the run's fingerprints for the reference seed (checkpoints excluded)."""
    doc = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    doc["seed"] = REFERENCE_SEED
    doc[run.w.name] = {k: v for k, v in sorted(run.expect.values.items())
                       if not k.startswith("checkpoint_")}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true", help="run the trajectory-hash gate")
    p.add_argument("--record", action="store_true",
                   help=f"store this run's fingerprints as the seed-{REFERENCE_SEED} reference")
    args = p.parse_args(argv)
    if not args.check and args.workload is None:
        p.error("--workload or --check is required")
    if args.record and args.seed != REFERENCE_SEED:
        p.error(f"--record stores the reference of seed {REFERENCE_SEED} only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reduxpll" / "cli.py").is_file():
        print(f"error: no reduxpll sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.check:
        return run_check()
    if args.workload == "all":
        return run_all(args)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.record)
    result = run.execute()
    if args.record:
        record_reference(run)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
