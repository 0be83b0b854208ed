"""Source hygiene checks that stand in for a linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The package's __init__ imports names only to re-export them.
REEXPORT_MODULES = {ROOT / "src" / "hamroots" / "__init__.py"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_detector():
    source = "from __future__ import annotations\nimport os, re\nimport a.b as c\nre.sub\n"
    assert _unused_imports(source) == ["line 3: c", "line 2: os"]


def test_no_unused_imports_in_src_and_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    found = {str(path.relative_to(ROOT)): unused for path in files
             if path not in REEXPORT_MODULES
             and (unused := _unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
