"""Import hygiene and language level, by ast scans in place of a linter.

Every name imported in src/ and tests/ is used: an imported name counts
as used when the module references it or lists it in __all__.  src/
imports only at module level.  Every source file parses as Python 3.10,
the oldest version the package supports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
