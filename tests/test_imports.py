"""Import hygiene and language level, by ast scans in place of a linter.

Every name imported in src/ and tests/ is used: an imported name counts
as used when the module references it or lists it in __all__.  src/
imports only at module level.  Every source file parses as Python 3.10,
the oldest version the package supports.  The layers stay apart: the
checker and metrics import no regsim module but core at run time, and
the trace format imports neither its writer nor its judges, both in the
source and in the modules a fresh interpreter holds after the import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "regsim"


def python_files(*dirs: str) -> list[Path]:
    paths = [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    return paths


def unused_imports(source: str) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return ["line %d: %s" % (line, name) for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports() -> None:
    found = [
        "%s %s" % (p.relative_to(ROOT), hit)
        for p in python_files("src", "tests")
        for hit in unused_imports(p.read_text())
    ]
    assert found == []


def test_no_import_inside_a_function() -> None:
    found = []
    for path in python_files("src"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    "%s line %d" % (path.relative_to(ROOT), node.lineno)
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_sources_parse_as_python_3_10() -> None:
    for path in python_files("src", "tests", "perfbench"):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def runtime_regsim_imports(path: Path) -> set[str]:
    """The regsim modules a module of the regsim package imports, the
    package itself included, outside the body of an `if TYPE_CHECKING:`."""
    found = set()
    stack: list[ast.AST] = [ast.parse(path.read_text())]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack += node.orelse
            continue
        stack += ast.iter_child_nodes(node)
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # a relative import in src/regsim/ names a regsim module
                module = "regsim." + module if module else "regsim"
            found.add(module)
            if module == "regsim":
                found.update("regsim." + alias.name for alias in node.names)
    return {m for m in found if m == "regsim" or m.startswith("regsim.")}


def test_checker_and_metrics_import_only_core_at_run_time() -> None:
    # The judges of a trace do not load the simulator, config or the
    # protocols that wrote it.
    for name in ("checker", "metrics"):
        assert runtime_regsim_imports(SRC / ("%s.py" % name)) <= {"regsim.core"}, name


def test_trace_imports_neither_its_writer_nor_its_judges() -> None:
    forbidden = {"regsim", "regsim.netsim", "regsim.harness", "regsim.checker", "regsim.metrics",
                 "regsim.cli"}
    assert runtime_regsim_imports(SRC / "trace.py") & forbidden == set()


def modules_loaded_by(module: str) -> set[str]:
    """The regsim modules a fresh interpreter holds after `import module`."""
    code = "import sys, %s; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'regsim'))" % module
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("name", ["checker", "metrics"])
def test_importing_a_judge_loads_only_core(name) -> None:
    # Python imports the package before its module, so the package may
    # import nothing either.
    module = "regsim." + name
    assert modules_loaded_by(module) - {"regsim", "regsim.core", module} == set()


def test_importing_the_trace_format_loads_neither_its_writer_nor_its_judges() -> None:
    forbidden = {"regsim.netsim", "regsim.harness", "regsim.checker", "regsim.metrics", "regsim.cli"}
    assert modules_loaded_by("regsim.trace") & forbidden == set()
