"""Every name imported in src/ and tests/ is used.

An ast scan in place of a linter's unused-import rule: an imported name
counts as used when the module references it or lists it in __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    found = ["%s %s" % (p.relative_to(ROOT), hit) for p in paths for hit in unused_imports(p.read_text())]
    assert found == []
