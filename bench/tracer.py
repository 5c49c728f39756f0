"""Per-layer tracing of the reduxpll package, installed from outside it.

`Tracer.install()` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
one span per call: name, start, end, parent span and the id of the command
that caused it. A wrapper is bound wherever the original function object is
bound inside the package, module attributes and `from x import y` aliases
alike, so internal calls are caught too. Nothing under src/ changes, and
`uninstall()` puts every original back.

Spans stay in memory; `write_spans` writes them out when the run ends. The
traced code runs in one thread, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.

A few spans also feed counters: bytes written or read for the checkpoint,
CSV and checksum layers, batches per epoch, corrupted rows, and the rows the
ball sampler returns versus draws (through `CountingRng`, which delegates to
the caller's generator and so leaves its stream untouched).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "reduxpll"
TRACED_MODULES = ("nets", "pseudo", "training", "data", "theory", "cli")


class CountingRng:
    """Delegates to a numpy Generator and counts the rows `uniform` draws."""

    def __init__(self, rng, counters):
        self._rng = rng
        self._counters = counters

    def uniform(self, *args, **kwargs):
        out = self._rng.uniform(*args, **kwargs)
        self._counters["theory.sample_simplex_ball.drawn"] += out.shape[0] if out.ndim else 1
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _proxy_rng(counters, arguments):
    arguments["rng"] = CountingRng(arguments["rng"], counters)


def _count_rows(counters, arguments):
    counters["theory.sample_simplex_ball.rows"] += arguments["count"]


def _count_batches(counters, arguments):
    train_ds = arguments["datasets"][0]
    counters["training.batches"] += math.ceil(train_ds.n / arguments["config"].batch_size)


def _count_corrupted_rows(counters, arguments):
    counters["data.corrupt_instance_dependent.rows"] += arguments["ds"].n


def _count_file_bytes(metric):
    def hook(counters, arguments):
        counters[metric] += os.path.getsize(arguments["path"])

    return hook


# hooks see the call's bound arguments; BEFORE hooks may replace them
BEFORE = {"theory.sample_simplex_ball": _proxy_rng}
AFTER = {
    "theory.sample_simplex_ball": _count_rows,
    "training.train_epoch": _count_batches,
    "data.corrupt_instance_dependent": _count_corrupted_rows,
    "training.save_checkpoint": _count_file_bytes("training.save_checkpoint.bytes"),
    "data.save_csv": _count_file_bytes("data.save_csv.bytes"),
    "data.file_checksum": _count_file_bytes("data.file_checksum.bytes"),
}


class Tracer:
    """Span recorder for one process; use as a context manager around traced work."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, command id)
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.command_id = 0
        self._stack: list = []  # [span index, name, child seconds, start]
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, name, 0.0, time.perf_counter()])

    def _leave(self) -> None:
        end = time.perf_counter()
        index, name, child, start = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans[index] = (name, start, end, parent, self.command_id)
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child

    def next_command(self) -> None:
        """Start a new command id; later spans carry it until the next call."""
        self.command_id += 1

    def take_stats(self) -> tuple[dict, dict]:
        """Return and reset the per-name stats and counters (spans are kept)."""
        stats, counters = self.stats, dict(self.counters)
        self.stats, self.counters = {}, defaultdict(float)
        return stats, counters

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        enter, leave = self._enter, self._leave
        if before is None and after is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()

            return traced

        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced_with_hooks(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if before is not None:
                before(tracer.counters, bound.arguments)
            enter(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                leave()
            if after is not None:
                after(tracer.counters, bound.arguments)
            return result

        return traced_with_hooks

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrapped = {}  # original function -> wrapper
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for member_name, member in list(vars(obj).items()):
                        if member_name.startswith("_"):
                            continue
                        name = f"{short}.{attr}.{member_name}"
                        if inspect.isfunction(member):
                            self._patch(obj, member_name, self._wrap(name, member))
                        elif isinstance(member, (classmethod, staticmethod)):
                            new = type(member)(self._wrap(name, member.__func__))
                            self._patch(obj, member_name, new)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # still open: the run ended inside it
                    continue
                name, start, end, parent, command = span
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "command": command}
                    )
                    + "\n"
                )


def pool_idle_share(durations: list[float], workers: int) -> float:
    """Idle share of `workers` processes running `durations` in submission order.

    The pool has min(workers, tasks) processes, as in the CLI. Each task goes
    to the worker that frees up first, as a process pool's `map` hands them
    out; the share is 1 - busy time / (processes * makespan).
    """
    workers = min(workers, len(durations))
    if workers < 1:
        return 0.0
    free_at = [0.0] * workers
    for d in durations:
        k = free_at.index(min(free_at))
        free_at[k] += d
    makespan = max(free_at)
    return 1.0 - sum(durations) / (workers * makespan) if makespan > 0 else 0.0
