"""The package namespace carries what the demos import, every demo runs to
completion, importing the command line loads no process pool, every name in
a module's __all__ and every name the benchmark traces resolves, every public
function has a reader besides the unit tests, only core's one reader and one
writer open files, only core's CSV writer joins cells and lines, only core
writes a numeric bound's message, only problems names a problem kind, a
logging policy or one of their keys, only training names a fit method, only
predictor names an architecture kind, no function takes a grid beside the
problem that carries one, and the package has one exception type for bad
input and one for a training abort."""

import ast
import builtins
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import predopt

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(predopt.__path__))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _parse(module):
    path = ROOT / "src" / "predopt" / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _named_outside(owner, names):
    """(module, line, string) of each string constant in `names` in a module other than `owner`."""
    return [
        (module, node.lineno, node.value)
        for module in MODULES
        if module != owner
        for node in ast.walk(_parse(module))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    ]


def _package_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "predopt":
            yield from (alias.name for alias in node.names)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(_package_imports(demo))
    assert names, f"{demo.name} imports nothing from predopt"
    missing = [name for name in names if not hasattr(predopt, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # an absolute source path, since the demo runs in tmp_path (where it writes its files)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


def _loaded_by_importing_the_cli(modules) -> str:
    """The printed list of `modules` that a fresh `import predopt.cli` loads."""
    code = f"import sys, predopt.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_importing_the_command_line_loads_no_process_pool():
    # compare imports the process pool only when it starts worker processes
    pool_modules = ("concurrent.futures.process", "multiprocessing")
    assert _loaded_by_importing_the_cli(pool_modules) == "[]\n"


def test_importing_the_command_line_loads_no_thread_pool():
    # a seed imports the thread pool that draws its world when it runs: the
    # import pulls in logging, and every command would pay for it at startup
    assert _loaded_by_importing_the_cli(("concurrent.futures.thread",)) == "[]\n"


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"predopt.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _reads(path, strings=False):
    """The names a file reads: each loaded name, attribute and imported name,
    and each string constant too if `strings` (the benchmark names its trace
    targets in strings)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_function_has_a_reader_besides_the_tests():
    # a function or constant in a module's __all__ is read by another module of
    # the package (not __init__, which only re-exports), a demo, the benchmark or
    # the acceptance suite; one read only in its own module and by unit tests is
    # not public API. A class is public wherever a public function returns one.
    outside = [*DEMOS, *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    readers = set().union(*(_reads(path, strings=True) for path in outside))
    unread = set()
    for module in MODULES:
        others = [ROOT / "src" / "predopt" / f"{m}.py" for m in MODULES if m != module]
        read = readers.union(*map(_reads, others))
        mod = importlib.import_module(f"predopt.{module}")
        public = (name for name in mod.__all__ if not isinstance(getattr(mod, name), type))
        unread |= {f"{module}.{name}" for name in public if name not in read}
    assert unread == set()


def _trace_targets():
    """perfbench/run.py's TRACE_TARGETS, read from its source: importing the
    script would pin the BLAS thread counts of this process."""
    path = ROOT / "perfbench" / "run.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "TRACE_TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_TARGETS in {path}")


def test_benchmark_trace_targets_resolve():
    # a target that no longer resolves is only counted by the benchmark
    # (trace.missing_names), so a rename would otherwise pass this suite
    targets = _trace_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for _, module, attr in targets
        if not callable(getattr(importlib.import_module(f"predopt.{module}"), attr, None))
    ]
    assert missing == []


# Calls that open a file: open() itself, and os.open, os.fdopen, Path.open, ...
FILE_CALLS = {"open", "fdopen", "read_text", "write_text", "read_bytes", "write_bytes"}


def _calls(module):
    """(function, call) of each call in `module`, the function being the
    innermost one around the call, or "<module>"."""

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield where, child
            yield from walk(child, where)

    return walk(_parse(module), "<module>")


def test_only_core_reader_and_writer_open_files():
    # every file predopt reads goes through core._read_json, and every file it
    # writes through core._write_atomic
    found = set()
    for module in MODULES:
        for where, call in _calls(module):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.add((module, where, name))
    assert found == {("core", "_read_json", "open"), ("core", "_write_atomic", "open")}
    core = importlib.import_module("predopt.core")
    assert {"_read_json", "_write_atomic"}.isdisjoint(core.__all__)


def test_only_core_csv_writer_joins_cells_and_lines():
    # every CSV predopt writes is laid out by core._write_csv; each writer
    # gives it only the cells, in its own format
    found = {
        (module, where)
        for module in MODULES
        for where, call in _calls(module)
        if isinstance(func := call.func, ast.Attribute)
        and func.attr == "join"
        and isinstance(func.value, ast.Constant)
        and func.value.value in (",", "\n")
    }
    assert found == {("core", "_write_csv")}


def test_only_core_writes_a_numeric_bound():
    # every scalar bound is checked by core._require_finite or _require_int,
    # which own the "must be > ..." and "must be >= ..." messages
    found = [
        (module, node.lineno, node.value)
        for module in MODULES
        if module != "core"
        for node in ast.walk(_parse(module))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.search("must be [<>]", node.value)
    ]
    assert found == []


def test_only_problems_names_a_kind_a_policy_or_their_keys():
    # each kind and policy is one entry of problems._KINDS or _POLICIES, and
    # the config schema of their keys comes from problems._PARAM_SCHEMAS
    problems = importlib.import_module("predopt.problems")
    names = set(problems._KINDS) | set(problems._POLICIES)
    names |= {key for schema in problems._PARAM_SCHEMAS.values() for key in schema}
    assert names == {
        "newsvendor", "pricing", "uniform", "biased",
        "c_h", "c_s", "capacity", "policy", "center", "width",
    }  # fmt: skip
    assert _named_outside("problems", names) == []


def test_only_training_names_a_fit_method():
    # training._FITS holds each method's name and fit; the command line's
    # spelling with "-" and the results' method order are read from it
    assert _named_outside("training", {"simpo", "two_stage", "two-stage"}) == []


def test_only_predictor_names_an_architecture_kind():
    # predictor.Architecture checks each kind's hidden_units, so the command
    # line describes a model by its fields, not by its kind
    assert _named_outside("predictor", {"linear", "mlp1"}) == []


def test_no_function_takes_a_problem_and_a_grid():
    # a Problem carries its action grid, so no function takes a grid or its
    # points beside it; task_grad keeps the signature that tests/test_acceptance.py
    # calls, and refuses a grid that is not its problem's
    found = {
        (module, node.name)
        for module in MODULES
        for node in ast.walk(_parse(module))
        if isinstance(node, ast.FunctionDef)
        and "problem" in (names := {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)})
        and names & {"grid", "points"}
    }
    assert found == {("predictor", "task_grad")}


def _is_exception(base):
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    is_builtin = isinstance(builtin, type) and issubclass(builtin, BaseException)
    return is_builtin or name.endswith(("Error", "Exception"))


def test_one_exception_type_for_bad_input_and_one_for_an_abort():
    # every module reports bad input as core.ValidationError (exit 2) and a
    # training abort as training.TrainingError (exit 3)
    found = {
        (module, node.name)
        for module in MODULES
        for node in ast.walk(_parse(module))
        if isinstance(node, ast.ClassDef) and any(map(_is_exception, node.bases))
    }
    assert found == {("core", "ValidationError"), ("training", "TrainingError")}
