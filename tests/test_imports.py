"""What the package's modules import and define: every imported name is
used, every private name is read, and importing the package stays
light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in (SRC / "fsdc").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads or writes, in sorted order.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_each_kind():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from scipy.linalg import solve_triangular\n"
              "from .sampling import cholesky_psd as factor\n"
              "np.zeros(os.sep)\n")
    assert unused_imports(source) == ["factor", "math", "solve_triangular"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(body):
    """The names a module or class body binds: assignments, functions and
    classes."""
    for node in body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name, node
            continue
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level and class-level names of ``sources``, a
    module name to source map, that no module reads, in sorted order as
    ``module.name`` or ``module.Class.name``.

    A name is read where it is loaded, bare or as an attribute; binding it
    or deleting it is not a read.  Dunder names are not private."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for name, node in _defined(tree.body):
            defined.append((name, f"{module}.{name}"))
            if isinstance(node, ast.ClassDef):
                defined.extend((attr, f"{module}.{name}.{attr}")
                               for attr, _ in _defined(node.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return sorted(full for name, full in defined
                  if name.startswith("_") and not name.endswith("__")
                  and name not in read)


def test_unread_private_names_finds_each_kind():
    sources = {
        "a": ("_LIMIT = 4\n_SIZE: int = 2\n_ONE, _TWO = 1, 2\n"
              "def _helper():\n    return _LIMIT\n"
              "def _unused():\n    _local = 1\n"
              "class _Hidden:\n    pass\n"
              "class Shown:\n    _slot = None\n    _kept = 1\n"
              "    def __init__(self):\n        self._seen = self._kept\n"
              "    def _method(self):\n        pass\n"),
        "b": "from a import _helper, _ONE\n_helper()\nprint(_ONE)\n",
    }
    assert unread_private_names(sources) == [
        "a.Shown._method", "a.Shown._slot", "a._Hidden", "a._SIZE", "a._TWO",
        "a._unused"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in (SRC / "fsdc").glob("*.py")}
    assert unread_private_names(sources) == []


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency: loading scipy.special alone
    # costs about 24 MB of resident memory and 0.24 s.  The process pool is
    # imported only when an evaluation asks for workers; multiprocessing
    # adds about 1.3 MB.  OpenSSL (``_hashlib``, which ``secrets`` loads)
    # added 3.8 MB beside numpy.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys\nimport fsdc\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
            "('scipy', 'multiprocessing') "
            "or m in ('concurrent.futures.process', '_hashlib')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
