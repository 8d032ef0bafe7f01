"""The package surface that the export list and the benchmark tracer rely on."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import permsieve
import permsieve.bijections
import permsieve.statistics

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Recorder, install
rec = Recorder("guard")
install(rec)
from permsieve import orbits
from permsieve.scan import KNOWN_INSTANCES as known
orbits.decompose("inverse", 4)
for key in ("inverse", "reverse"):  # declared structures: read off, never walked
    orbits.orbit_sizes(key, 4)
print(json.dumps({
    "orbit_spans": [detail for name, detail, *_ in rec.spans if name == "orbits"],
    "apply_calls": rec.counts["bijections.apply_calls"],
    "known_is_tuple_of_triples": isinstance(known, tuple)
        and all(isinstance(t, tuple) and len(t) == 3 for t in known),
}))
"""


def test_exports_and_tracer_hooks_resolve():
    # every exported name of every package resolves
    missing = [f"{package.__name__}.{name}"
               for package in (permsieve, permsieve.statistics, permsieve.bijections)
               for name in package.__all__ if not hasattr(package, name)]
    assert missing == []

    # the tracer installs on a fresh interpreter; -B keeps bytecode out of perfbench/
    src = str(Path(permsieve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-B", "-c", TRACED_RUN], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # one map call per permutation of S_4, so decompose goes through MapDescriptor.__call__
    assert json.loads(done.stdout) == {"orbit_spans": ["inverse"], "apply_calls": 24,
                                       "known_is_tuple_of_triples": True}


GF_SPANS_RUN = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Recorder, install
rec = Recorder("guard")
install(rec)
from permsieve.sieving import generating_function
for key in ("st423", "st018"):  # a transfer-matrix step, and a closed form
    for _ in range(2):
        generating_function(key, 5)
print(json.dumps([detail for name, detail, *_ in rec.spans if name == "gf"]))
"""


def test_tracer_sees_one_gf_span_per_computed_function():
    """Both generating-function paths run inside the memoized function the tracer wraps."""
    src = str(Path(permsieve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-B", "-c", GF_SPANS_RUN], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["st423", "st018"]


TRACED_SCAN = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Recorder, install
rec = Recorder("guard")
install(rec)
import permsieve.cli
code = permsieve.cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "report_bytes": rec.counts["cli.report_bytes"],
    "emit_details": [detail for name, detail, *_ in rec.spans if name == "cli.emit"],
}))
"""


def test_tracer_measures_the_emitted_report(tmp_path):
    """The tracer wraps the emitter table and ``cli._emit``: one json emission, its bytes counted."""
    src = str(Path(permsieve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    report = tmp_path / "report.json"
    argv = ["scan", "--min-n", "4", "--max-n", "4", "--stats", "st018", "--maps", "reverse",
            "--cache-dir", str(tmp_path / "c"), "--output", str(report)]
    done = subprocess.run([sys.executable, "-B", "-c", TRACED_SCAN, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["code"] == 0
    assert out["report_bytes"] == report.stat().st_size > 0
    assert out["emit_details"].count("json") == 1


def test_no_unused_module_imports():
    """Every module-level import binds a name its module reads or exports (``__future__`` aside).

    A name listed in the module's ``__all__`` counts as read, so a package
    ``__init__.py`` may import what it re-exports.
    """
    package = Path(permsieve.__file__).resolve().parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(package)}: {name}" for name in bound if name not in read]
    assert unused == []


def test_every_raised_package_error_is_a_usage_error_or_a_fault():
    """``errors.py`` defines two classes, and every ``raise`` of a class imported from it names one.

    Input from outside the package that is refused raises ``UsageError``; a
    fault the package finds in itself raises ``PermsieveError``.  No caller
    tells finer classes apart, so there are none.
    """
    package = Path(permsieve.__file__).resolve().parent
    allowed = ["PermsieveError", "UsageError"]
    errors = ast.parse((package / "errors.py").read_text())
    assert [node.name for node in errors.body if isinstance(node, ast.ClassDef)] == allowed
    others = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        from_errors = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "errors"
                       for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(raised, "id", None) or getattr(raised, "attr", None)
            if name in from_errors and name not in allowed:
                others.append(f"{path.relative_to(package)}:{node.lineno}: {name}")
    assert others == []


def test_no_module_imports_dataclasses():
    """``import dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, which nothing else
    the package does needs: a record is a ``typing.NamedTuple``, any other class a plain one."""
    package = Path(permsieve.__file__).resolve().parent
    importers = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            importers += [f"{path.relative_to(package)}:{node.lineno}"
                          for name in names if name.partition(".")[0] == "dataclasses"]
    assert importers == []


STARTUP_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
import permsieve.cli
print(*[m for m in heavy if m in sys.modules], sep=",")
import permsieve.acceptance
print(*[m for m in heavy if m in sys.modules], sep=",")
"""


def test_startup_imports_no_introspection_module():
    """A ``permsieve`` process loads none of ``dataclasses``, ``inspect``, ``ast`` or ``dis``, nor,
    short of the gate's process pool (whose ``logging`` brings it), ``tokenize``.

    ``-I -S`` runs without site-packages, whose ``.pth`` files may import
    any of them first, and without ``PYTHONPATH``; the script puts ``src``
    on ``sys.path`` itself.
    """
    src = str(Path(permsieve.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", STARTUP_MODULES, src],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    after_cli, after_acceptance = done.stdout.splitlines()
    assert after_cli == ""
    assert after_acceptance in ("", "tokenize")


def test_package_has_no_assert_statement():
    """``python -O`` strips ``assert``, so a check the package makes of itself raises instead."""
    package = Path(permsieve.__file__).resolve().parent
    asserts = [f"{path.relative_to(package)}:{node.lineno}"
               for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_package_reads_no_environment_variable():
    """Every setting comes from a command-line flag: no module reads os.environ or os.getenv."""
    package = Path(permsieve.__file__).resolve().parent
    env_names = {"environ", "getenv"}
    reads = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.relative_to(package)}:{node.lineno}: {name}"
                      for name in names if name in env_names]
    assert reads == []


def test_every_module_level_definition_has_a_caller():
    """Every module-level ``def`` and ``class`` of the package is referenced, by a
    name, an attribute or an import, somewhere in the package or the benchmark
    harness outside its own definition; the tests do not count as callers."""
    package = Path(permsieve.__file__).resolve().parent
    paths = sorted(package.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    definitions = []
    referenced_from = {}  # name -> the (file, line) of each top-level statement that references it
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if path.is_relative_to(package) and isinstance(
                    top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path, top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                referenced_from.setdefault(name, set()).add((path, top.lineno))
    uncalled = [f"{path.relative_to(package)}: {top.name}" for path, top in definitions
                if not referenced_from.get(top.name, set()) - {(path, top.lineno)}]
    assert len(definitions) > 200
    assert uncalled == []
