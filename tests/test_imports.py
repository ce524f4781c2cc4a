"""What the package's modules import: every imported name is used, and
importing the package stays light."""

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


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency: loading scipy.special alone
    # costs about 24 MB of resident memory and 0.24 s.  The process pool is
    # imported only when an evaluation asks for workers; multiprocessing
    # adds about 1.3 MB.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys\nimport fsdc\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
            "('scipy', 'multiprocessing') or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
