"""numpy is lahn's only runtime dependency: every module of the package
imports only the standard library, numpy and lahn itself. Each module
imports on its own, and the package itself loads none of them. lahn runs
in one process and one thread: no module imports a thread or process
module, and ``blocks`` keeps no state of its own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lahn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lahn"}
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def run_fresh(script: str) -> str:
    """The standard output of ``script`` run in a new interpreter that
    imports lahn from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_loads_no_module():
    script = "import sys, lahn\nprint(sorted(name for name in sys.modules if name.startswith('lahn.')))"
    assert run_fresh(script).strip() == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    assert run_fresh(f"import lahn.{module}\nprint(lahn.{module}.__name__)").strip() == f"lahn.{module}"


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
    # upper-case constants and caches nothing
    tree = ast.parse((SRC / "blocks.py").read_text(encoding="utf-8"))
    assert not any(isinstance(n, (ast.Global, ast.Nonlocal)) for n in ast.walk(tree))
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    for node in body:
        if isinstance(node, ast.Assign):
            assert all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper() for t in node.targets), ast.unparse(node)
            assert _literal(node.value), ast.unparse(node)
        elif isinstance(node, ast.FunctionDef):
            assert not node.decorator_list, node.name
        else:
            assert isinstance(node, (ast.Import, ast.ImportFrom)), ast.unparse(node)


def test_single_process():
    threads = {"threading", "_thread", "concurrent", "multiprocessing"}
    found = {path.name: sorted(imported_roots(path) & threads) for path in sorted(SRC.glob("*.py"))}
    assert {name: roots for name, roots in found.items() if roots} == {}
