"""The JSON documents the package writes and reads back, each against its schema.

The six documents are a dataset's `manifest.json`, a `--config` file, a
theory scenario, a run's `summary.json`, a line of `metrics_seed<s>.jsonl`
and a checkpoint's `meta.json`. Every one the program writes passes its own
schema, and a malformed one is refused by name: its reader exits 2 with one
`error:` line naming the file (`load_checkpoint` raises a ConfigError naming
it), and never ends in a traceback.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import zipfile
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reduxpll import METRICS_LINE, cli, theory, training
from reduxpll.errors import ConfigError, ParseError, check

EPOCHS = ["--epochs", "2", "--batch-size", "32"]
TRAIN_PRODEN = ["train", "--method", "proden", *EPOCHS]

# deterministic, so tier-1 is; the fixtures are built once per module
EXAMPLES = settings(
    derandomize=True, max_examples=100, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _run(argv) -> tuple[int, str, str]:
    """`main(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A generated dataset and a 2-epoch `train` of it for each method."""
    root = tmp_path_factory.mktemp("documents")
    assert _run(["generate", "--n", "100", "--out", str(root / "ds")])[0] == 0
    for method in training.METHODS:
        argv = ["train", "--dataset", str(root / "ds"), "--method", method, *EPOCHS]
        assert _run([*argv, "--out", str(root / method)])[0] == 0
    return root


@pytest.fixture(scope="module")
def proden_stdout(written, tmp_path_factory):
    """What `train` prints for the written dataset."""
    argv = [*TRAIN_PRODEN, "--dataset", str(written / "ds")]
    return _run([*argv, "--out", str(tmp_path_factory.mktemp("proden"))])[1]


def _bundled(name: str) -> dict:
    return json.loads((resources.files("reduxpll.scenarios") / f"{name}.json").read_text())


def _meta(checkpoint) -> dict:
    with zipfile.ZipFile(checkpoint) as zf:
        return json.loads(zf.read("meta.json"))


def test_every_document_the_program_writes_passes_its_own_schema(written):
    check(json.loads((written / "ds" / "manifest.json").read_text()), cli._MANIFEST, "manifest")
    for method in training.METHODS:
        run = written / method
        check(json.loads((run / "summary.json").read_text()), cli._SUMMARY, "summary")
        lines = (run / "metrics_seed0.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            check(json.loads(line), METRICS_LINE, "metrics line")
        meta = check(_meta(run / "checkpoint_seed0.npz"), training._META, "meta", ConfigError)
        assert len(meta["history"]) == 2
        check(meta["config"], training._CONFIG, "meta config")
    check(training.TrainConfig().to_dict(), training._CONFIG, "config")
    for name in theory.builtin_scenario_names():
        check(_bundled(name), theory._SCENARIO, name)
    assert len(theory.builtin_scenario_names()) == 2


def test_the_metrics_line_schema_lists_the_epoch_metrics_fields():
    assert list(METRICS_LINE) == list(training.EpochMetrics.__dataclass_fields__)


def test_the_config_schema_lists_the_train_config_fields():
    names = list(training.TrainConfig.__dataclass_fields__)
    assert list(training._CONFIG) == [f"{name}?" for name in names]
    assert list(training._META["config"]) == names  # a checkpoint's config holds every key


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: training.TrainConfig.from_dict({"bogus": 1}), "TrainConfig: unknown key bogus"),
        (lambda: training.TrainConfig(epochs="ten"),
         "TrainConfig: epochs must be an integer, got 'ten'"),
        (lambda: training.TrainConfig(hidden_sizes=[32]),
         "hidden_sizes must be a tuple of layer widths, got [32]"),
    ],
    ids=["unknown-key", "type", "list-widths"],
)
def test_a_config_built_in_code_is_checked_against_the_schema(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "doc, schema, message",
    [
        ({"a": 1}, {"a": float, "b?": str}, None),
        ({"a": True}, {"a": float}, "x: a must be a number, got True"),
        ({"a": 10**400}, {"a": float}, "x: a must be a number, got 1000"),
        ({"a": 1.0}, {"a": int}, "x: a must be an integer, got 1.0"),
        ({}, {"a": int}, "x: no a field"),
        ({"a": 1, "z": 2}, {"a": int}, "x: unknown key z"),
        ({"a": [{"b": 1}, {"b": None}]}, {"a": [{"b": int}]},
         "x: a[1].b must be an integer, got None"),
        ({"a": {"b": "s"}}, {"a": ({"b": int}, None)}, "x: a.b must be an integer, got 's'"),
        ({"a": 3}, {"a": ({"b": int}, None)}, "x: a must be an object or null, got 3"),
        ({"a": "s"}, {"a": [int]}, "x: a must be a list, got 's'"),
        ({"a": {"any": [1]}}, {"a": dict}, None),
        ([1], {"a": int}, "x: the document must be an object, got [1]"),
    ],
)
def test_check_names_the_key_and_the_kind(doc, schema, message):
    if message is None:
        assert check(doc, schema, "x") is doc
    else:
        with pytest.raises(ParseError) as err:
            check(doc, schema, "x")
        assert str(err.value).startswith(message)


# -- mutations ---------------------------------------------------------------

def _paths(doc, prefix=()):
    """The path of every value under `doc`, an object or a list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*prefix, key))


def _json_kind(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


# one value of each JSON kind; an int and a float count as two
OTHER_VALUES = ("x", 7, 0.5, True, None, [], {})


@st.composite
def mutated(draw, doc: dict, ops=("drop", "retype", "truncate")) -> str:
    """The text of `doc` with one key dropped or one value of another kind, or cut short."""
    text = json.dumps(doc)
    op = draw(st.sampled_from(ops))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    paths = [p for p in _paths(doc) if op == "retype" or isinstance(p[-1], str)]
    path = draw(st.sampled_from(paths))
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if op == "drop":
        del parent[path[-1]]
    else:
        kinds = [v for v in OTHER_VALUES if _json_kind(v) != _json_kind(parent[path[-1]])]
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(kinds)))
    return json.dumps(doc)


@st.composite
def mutated_config(draw, doc: dict) -> str:
    """A config file with one value of another kind, an unknown key or a NaN, or cut short."""
    op = draw(st.sampled_from(["retype", "truncate", "unknown", "nan"]))
    if op in ("retype", "truncate"):
        return draw(mutated(doc, ops=(op,)))
    key = draw(st.sampled_from(sorted(doc)))
    if op == "unknown":
        return json.dumps({**doc, f"{key}_": 1})
    return json.dumps({**doc, key: float("nan")})  # the token NaN


@st.composite
def mutated_lines(draw, lines: list[str]) -> str:
    """A metrics file with one line mutated or repeated, or the file cut short."""
    text = "".join(line + "\n" for line in lines)
    op = draw(st.sampled_from(["line", "repeat", "truncate"]))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(lines) - 1))
    new = [draw(mutated(json.loads(lines[i])))] if op == "line" else [lines[i], lines[i]]
    return "".join(line + "\n" for line in [*lines[:i], *new, *lines[i + 1:]])


def _fits(text: str, schema, error=ParseError) -> bool:
    """Whether `text` is a JSON object that fits `schema`."""
    try:
        check(json.loads(text), schema, "", error)
    except (ValueError, error):
        return False
    return True


def _refused_by_name(code: int, err: str, path) -> bool:
    """Whether the command exited 2 with one `error:` line that names `path`."""
    return code == 2 and err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@EXAMPLES
@given(data=st.data())
def test_a_mutated_manifest_trains_as_before_or_is_refused_by_name(
    written, proden_stdout, tmp_path, data
):
    ds = tmp_path / "ds"
    ds.mkdir(exist_ok=True)
    (ds / "dataset.csv").write_bytes((written / "ds" / "dataset.csv").read_bytes())
    text = data.draw(mutated(json.loads((written / "ds" / "manifest.json").read_text())))
    (ds / "manifest.json").write_text(text)
    code, out, err = _run([*TRAIN_PRODEN, "--dataset", str(ds), "--out", str(tmp_path / "run")])
    if code == 0:
        assert _fits(text, cli._MANIFEST)
        assert out == proden_stdout
    else:
        assert _refused_by_name(code, err, ds / "manifest.json"), err


# a config file of the defaults; `seed` is --seed-base's, and --beta2 steps proden
CONFIG = {key: v for key, v in training.TrainConfig().to_dict().items() if key != "seed"}
TRAIN_PRODEN_CONFIG = [*TRAIN_PRODEN, "--beta2", str(CONFIG["beta2"])]


def _train_with_config(written, tmp_path, text) -> tuple[int, str, str, str]:
    """`train`'s exit code, stdout and stderr with `text` as its --config file, and the path."""
    path = tmp_path / "config.json"
    path.write_text(text)
    argv = [*TRAIN_PRODEN_CONFIG, "--dataset", str(written / "ds"), "--config", str(path)]
    return (*_run([*argv, "--out", str(tmp_path / "run")]), str(path))


@pytest.mark.parametrize(
    "doc, message",
    [
        (CONFIG, None),
        ({"beta1": "x"}, "beta1 must be a number, got 'x'"),
        ({"bogus": 1}, "unknown key bogus"),
        ({"hidden_sizes": [32, "a"]}, "hidden_sizes[1] must be an integer, got 'a'"),
        ({"momentum": 1.5}, "momentum must be in [0, 1), got 1.5"),
        ({"hidden_sizes": [0]}, "hidden_sizes must list positive layer widths, got [0]"),
    ],
)
def test_a_config_file_trains_as_the_defaults_or_is_refused_by_name(
    written, proden_stdout, tmp_path, doc, message
):
    code, out, err, path = _train_with_config(written, tmp_path, json.dumps(doc))
    if message is None:
        assert (code, out, err) == (0, proden_stdout, "")
    else:
        assert (code, err) == (2, f"error: {path}: {message}\n")


@EXAMPLES
@given(data=st.data())
def test_a_mutated_config_trains_as_before_or_is_refused_by_name(
    written, proden_stdout, tmp_path, data
):
    text = data.draw(mutated_config(CONFIG))
    code, out, err, path = _train_with_config(written, tmp_path, text)
    if code == 0:
        assert out == proden_stdout
    else:
        assert _refused_by_name(code, err, path) and err.startswith(f"error: {path}: "), err


@EXAMPLES
@given(name=st.sampled_from(["theorem1-4class", "theorem2-tsybakov"]), data=st.data())
def test_a_mutated_scenario_verifies_or_is_refused_by_name(tmp_path, name, data):
    path = tmp_path / f"{name}.json"  # the file's stem is the scenario's name
    text = data.draw(mutated(_bundled(name)))
    path.write_text(text)
    code, _, err = _run(["verify-theory", "--scenario", str(path), "--trials", "200"])
    if _fits(text, theory._SCENARIO):
        assert code in (0, 2)  # a well-formed scenario may fail its verification
    else:
        assert _refused_by_name(code, err, path), err


def _report(run, out) -> tuple[int, dict, str]:
    """`report`'s exit code, the files it wrote by name, and its stderr."""
    code, _, err = _run(["report", "--runs", str(run), "--out", str(out)])
    files = {p.name: p.read_text() for p in sorted(out.iterdir())} if code == 0 else {}
    return code, files, err


@EXAMPLES
@given(method=st.sampled_from(training.METHODS), data=st.data())
def test_a_mutated_summary_reports_or_is_refused_by_name(written, tmp_path, method, data):
    run = tmp_path / method
    run.mkdir(exist_ok=True)
    metrics = (written / method / "metrics_seed0.jsonl").read_bytes()
    (run / "metrics_seed0.jsonl").write_bytes(metrics)
    text = data.draw(mutated(json.loads((written / method / "summary.json").read_text())))
    (run / "summary.json").write_text(text)
    code, files, err = _report(run, tmp_path / "rep")
    if code == 0:
        assert _fits(text, cli._SUMMARY)
        assert files["report.md"].startswith(f"# Run report\n\n## {method}\n\n- method `")
    else:
        assert _refused_by_name(code, err, run / "summary.json"), err


@EXAMPLES
@given(method=st.sampled_from(training.METHODS), data=st.data())
def test_a_mutated_metrics_file_reports_or_is_refused_by_name(written, tmp_path, method, data):
    run = tmp_path / method
    run.mkdir(exist_ok=True)
    (run / "summary.json").write_bytes((written / method / "summary.json").read_bytes())
    lines = (written / method / "metrics_seed0.jsonl").read_text().splitlines()
    text = data.draw(mutated_lines(lines))
    (run / "metrics_seed0.jsonl").write_text(text)
    code, files, err = _report(run, tmp_path / "rep")
    if code == 0:
        assert all(_fits(line, METRICS_LINE) for line in text.splitlines() if line)
        assert files[f"{method}_series.csv"].startswith("epoch,bayes_consistency,")
    else:
        assert _refused_by_name(code, err, run / "metrics_seed0.jsonl"), err


@pytest.fixture(scope="module")
def train_set(written):
    return cli._load_dataset(str(written / "ds"), 0)[0][0]


@EXAMPLES
@given(method=st.sampled_from(training.METHODS), data=st.data())
def test_a_mutated_checkpoint_loads_or_is_refused_by_name(
    written, train_set, tmp_path, method, data
):
    source = written / method / "checkpoint_seed0.npz"
    path = tmp_path / "ck.npz"
    if data.draw(st.booleans()):  # cut the archive short
        blob = source.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        text = None
    else:  # rewrite its meta.json
        text = data.draw(mutated(_meta(source)))
        with zipfile.ZipFile(source) as src, zipfile.ZipFile(path, "w") as dst:
            for info in src.infolist():
                dst.writestr(info, text if info.filename == "meta.json" else src.read(info))
    config = training.TrainConfig(method=method, epochs=2, batch_size=32)
    try:
        state = training.load_checkpoint(path, train_set, config)
    except ConfigError as exc:
        assert str(path) in str(exc)
    else:
        assert text is not None and _fits(text, training._META, ConfigError)
        assert state.epoch == 2
