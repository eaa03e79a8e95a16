"""numpy is lahn's only runtime dependency: every module of the package
imports only the standard library, numpy and lahn itself. And ``blocks``
keeps no state of its own beyond its worker pool."""

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


def _literal(node: ast.expr) -> bool:
    """Whether the expression is built of literals and operators only."""
    return all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)) for n in ast.walk(node))


def test_blocks_keeps_no_module_state():
    # a pass's scratch belongs to its caller: the module assigns only
    # upper-case constants, and its one cache is the per-process pool
    tree = ast.parse((SRC / "blocks.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, (ast.Global, ast.Nonlocal)) for n in ast.walk(tree))
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    for node in body:
        if isinstance(node, ast.Assign):
            assert all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper() for t in node.targets), ast.unparse(node)
            assert _literal(node.value), ast.unparse(node)
        elif isinstance(node, ast.FunctionDef):
            assert not node.decorator_list or node.name == "_workers", node.name
        else:
            assert isinstance(node, (ast.Import, ast.ImportFrom)), ast.unparse(node)
