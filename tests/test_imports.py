"""Every top-level import of a package module or a test file is used, and
every private module-level name of the package is referenced in it; and
a solve loads no scipy module and no ``numpy.ma``.

No linter runs on this repository, so these tests are the check that
deleting code does not leave imports or private helpers behind.
``__init__.py`` is skipped for imports: its imports are the package's
exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "singpencil").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "singpencil").glob("*.py"))


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def _private_definitions(tree):
    """Module-level functions, classes and assigned names that start with
    one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unreferenced_private_definitions():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    used = {name for tree in trees.values() for name in _references(tree)}
    unreferenced = sorted(f"{p.name}: {name}" for p, tree in trees.items()
                          for name in _private_definitions(tree)
                          if name.startswith("_") and not name.startswith("__")
                          and name not in used)
    assert unreferenced == []


def test_solve_loads_no_scipy():
    """``import singpencil`` and a solve of the toy pencil, in a fresh
    interpreter, leave no ``scipy`` module loaded: importing
    ``scipy.sparse`` alone raises peak RSS by about 20 MB (28.5 -> 49.1
    MB measured), far over the benchmark's 10% ``peak_rss_mb`` bound."""
    code = ("import sys\n"
            "import singpencil as sp\n"
            "from singpencil import problems\n"
            "sp.solve_singular(problems.gen_kronecker_toy().pencil, sp.SolverConfig(krylov_steps=5))\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "[]"


def test_solve_loads_no_masked_arrays():
    """A solve of the toy pencil, in a fresh interpreter, leaves
    ``numpy.ma`` unloaded.  ``np.unique`` imports it on its first call,
    which costs 15-20 ms (measured) in every process that solves: about a
    third of the ``first_solve_s`` of the order-10 pencils."""
    code = ("import sys\n"
            "import singpencil as sp\n"
            "from singpencil import problems\n"
            "sp.solve_singular(problems.gen_kronecker_toy().pencil, sp.SolverConfig(krylov_steps=5))\n"
            "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "False"
