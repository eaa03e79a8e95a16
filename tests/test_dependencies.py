"""numpy is lahn's only runtime dependency: every module of the package
imports only the standard library, numpy and lahn itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lahn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lahn"}


def imported_roots(path: Path) -> set[str]:
    """The top-level package of every absolute import in the file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imports_only_stdlib_numpy_and_lahn():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    outside = {path.name: sorted(imported_roots(path) - ALLOWED) for path in paths}
    assert {name: roots for name, roots in outside.items() if roots} == {}
