"""Source hygiene: no unused module-level imports, and numpy stays off the
paths that do not need arrays."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfdsim

PACKAGE = Path(sfdsim.__file__).parent


def module_imports(body):
    """`(name, line)` of each name bound by an import at module level,
    including inside module-level `if` and `try` blocks."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, *(h.body for h in getattr(node, "handlers", ())),
                          getattr(node, "finalbody", ())):
                yield from module_imports(block)


def names_read(tree) -> set[str]:
    """Every name the module loads, plus the strings it lists in `__all__`."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = names_read(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in module_imports(tree.body)
              if name not in read]
    assert unused == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom . import used, unused\n__all__ = ['used']\n")
    assert [name for name, _ in module_imports(tree.body) if name not in names_read(tree)] == [
        "os", "unused"]


NO_NUMPY = """
import sys
import sfdsim
assert "numpy" not in sys.modules, "import sfdsim"
from sfdsim import cli
model, out = sys.argv[1:]
for argv in (["simulate", "--model", model, "--t-end", "30", "--out", out],
             ["simulate", "--t-end", "30", "--method", "rk4"],
             ["lint", model],
             ["fmt", model]):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
print("ok")
"""


def test_numpy_is_not_loaded_without_arrays(fixtures_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(fixtures_dir / "baseline.sfd"),
         str(tmp_path / "run.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "run.csv").read_text().count("\n") == 32
