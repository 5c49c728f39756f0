"""The package import, the modules each CLI command loads, dead code, method names and the CSV parser."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reduxpll

# loaded by none of `from reduxpll import cli`, `generate` and `verify-theory`
HEAVY = (
    "reduxpll.nets",
    "reduxpll.pseudo",
    "reduxpll.training",
    "concurrent.futures.process",
    "multiprocessing",
)

# the dataset codec, and the OpenSSL digests that it loads through hashlib
CODEC = ("reduxpll.data", "_hashlib")

# prints, after each argv list in turn, which of the watched modules are loaded
PROBE = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
watched = json.loads(sys.argv[2])
from reduxpll import cli
seen = [sorted(set(watched) & set(sys.modules))]
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen.append(sorted(set(watched) & set(sys.modules)))
print(json.dumps(seen))
"""


def _loaded_after(*commands, env=None, watched=(*HEAVY, "reduxpll.theory")):
    src = Path(reduxpll.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src), json.dumps(watched), json.dumps(commands)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, **(env or {})},
    )
    return [set(names) for names in json.loads(proc.stdout)]


def test_cli_and_generate_load_no_training_theory_or_pool_code(tmp_path):
    generate = ["generate", "--n", "50", "--out", str(tmp_path / "ds")]
    after_import, after_generate = _loaded_after(generate)
    assert after_import == set()
    assert after_generate == set()


def test_only_the_commands_that_read_or_write_a_dataset_load_its_codec(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    line = {"epoch": 1, "train_loss": 1.0, "val_accuracy": 0.5, "test_accuracy": 0.5,
            "bayes_consistency": 0.5, "pseudo_label_drift": 0}
    (run / "metrics_seed0.jsonl").write_text(json.dumps(line) + "\n")
    report = ["report", "--runs", str(run), "--out", str(tmp_path / "report")]
    verify = ["verify-theory", "--scenario", "theorem1-4class", "--trials", "1000"]
    generate = ["generate", "--n", "50", "--out", str(tmp_path / "ds")]
    loaded = _loaded_after(report, verify, generate, watched=CODEC)
    after_import, after_report, after_verify, after_generate = loaded
    assert after_import == after_report == set()
    assert "reduxpll.data" not in after_verify  # numpy.random loads hashlib itself, by secrets
    assert after_generate == set(CODEC)


def test_train_runs_its_lanes_in_its_own_process(tmp_path):
    # no code reads REDUXPLL_THREADS: it must not split the lanes over a process pool
    generate = ["generate", "--n", "200", "--out", str(tmp_path / "ds")]
    train = ["train", "--dataset", str(tmp_path / "ds"), "--seeds", "2",
             "--epochs", "2", "--batch-size", "64", "--out", str(tmp_path / "run")]
    *_, after_train = _loaded_after(generate, train, env={"REDUXPLL_THREADS": "2"})
    assert "reduxpll.training" in after_train
    assert after_train.isdisjoint({"concurrent.futures.process", "multiprocessing"})


def test_verify_theory_loads_theory_and_no_training_code():
    argv = ["verify-theory", "--scenario", "theorem1-4class", "--trials", "1000"]
    _, after = _loaded_after(argv)
    assert after == {"reduxpll.theory"}


def test_import_loads_no_submodule():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import reduxpll; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('reduxpll.'))))"
    )
    src = Path(reduxpll.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        reduxpll.nope
    with pytest.raises(ImportError):
        from reduxpll import nope  # noqa: F401


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
    }


# public functions that no code in the package calls, each with the callers outside it
OUTSIDE_CALLERS = {
    "training.py: def fit": "bench/run.py --check; the resume and checkpoint tests",
    "pseudo.py: def reduction_row": "the reference that reduction_matrix is tested against",
}


def test_the_package_has_no_unused_import_or_private_function():
    package = Path(reduxpll.__file__).parent
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    dead = []
    for name, tree in trees.items():
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                dead += [
                    f"{name}: import {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in used
                ]
    # a module-level function or class is referenced somewhere in the package
    everywhere = set().union(*map(_referenced_names, trees.values()))
    dead += [
        f"{name}: {'class' if isinstance(node, ast.ClassDef) else 'def'} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.endswith("__")
        and node.name not in everywhere
    ]
    # and so is each name a module-level assignment binds
    dead += [
        f"{name}: {node.id} ="
        for name, tree in trees.items()
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and not node.id.endswith("__") and node.id not in everywhere
    ]
    assert sorted(set(dead) - set(OUTSIDE_CALLERS)) == []
    assert sorted(set(OUTSIDE_CALLERS) - set(dead)) == []  # a listed name that is used leaves


def _method_names(operand: ast.AST) -> list[str]:
    """The method names an operand spells as string literals, alone or in a literal collection."""
    elts = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
    return [
        e.value for e in elts
        if isinstance(e, ast.Constant) and isinstance(e.value, str) and e.value in reduxpll.METHODS
    ]


def test_no_code_compares_a_value_with_a_method_name():
    # `training._NETS` alone says which nets, and so which phases, a method has
    package = Path(reduxpll.__file__).parent
    hits = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.MatchValue):  # `case "proden":`
                operands = [node.value]
            else:
                continue
            if any(map(_method_names, operands)):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []



def _one_element_list(call: ast.Call | None) -> bool:
    return (
        call is not None and not call.keywords and len(call.args) == 1
        and isinstance(call.args[0], ast.List) and len(call.args[0].elts) == 1
        and not isinstance(call.args[0].elts[0], ast.Starred)
    )


def test_data_calls_csv_reader_only_on_a_one_element_list():
    # numpy's reader reads the records; csv.reader on one line cannot join two lines
    path = Path(reduxpll.__file__).parent / "data.py"
    tree = ast.parse(path.read_text(), str(path))
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    readers, hits = 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "csv":  # `reader(fh)` would hide
            hits.append(f"data.py:{node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "reader":
            readers += 1
            if not _one_element_list(calls.get(id(node))):
                hits.append(f"data.py:{node.lineno}")
    assert readers and hits == []
