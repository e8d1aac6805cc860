"""Source hygiene: no unused module-level imports or private definitions,
and numpy stays off the paths that do not need arrays."""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sfdsim
from sfdsim import build_baseline, engine, parse_model, validate_model

from modelgen import generate_model

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


def private_definitions(tree):
    """`(name, node)` of each module-level function, class or constant whose
    name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def unread_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """`module:name` of each private definition that no package module
    reads, as a name or an attribute, outside the definition itself."""
    reads = []  # (top-level node, names it reads)
    for tree in trees.values():
        for top in tree.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            reads.append((top, names))
    return [f"{module}:{name}" for module, tree in trees.items()
            for name, node in private_definitions(tree)
            if not any(name in names for top, names in reads if top is not node)]


def test_no_unread_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_definitions(trees) == []


def test_scan_sees_an_unread_private_definition():
    module = ast.parse(
        "_USED = 1\n_UNUSED: int = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Helper:\n    pass\n"
        "def __getattr__(name):\n    return _USED\n"
    )
    other = ast.parse("from .a import _Helper\nmodel._Helper()\n")
    assert unread_private_definitions({"a.py": module, "b.py": other}) == [
        "a.py:_UNUSED", "a.py:_recursive"]


def unread_public_functions(trees: dict[str, ast.Module], module: str) -> list[str]:
    """Each public module-level function of `module` that no other package
    module reads, as a name or an attribute."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for name, tree in trees.items() if name != module
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [node.name for node in trees[module].body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in read]


def test_every_public_expr_function_is_read_by_another_module():
    # `eval_expression` is the tests' reference interpreter, which no
    # package module runs; it is to move next to the tests (ROADMAP item 2).
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_functions(trees, "expr.py") == ["eval_expression"]


def test_scan_sees_an_unread_public_function():
    module = ast.parse(
        "def used(n):\n    return used(n - 1)\n"
        "def attribute():\n    pass\n"
        "def unread():\n    return unread()\n"
        "def _private():\n    pass\n"
    )
    other = ast.parse("from .a import unread\nused(1)\na.attribute()\n")
    assert unread_public_functions({"a.py": module, "b.py": other}, "a.py") == ["unread"]


def package_imports(tree) -> list[str]:
    """Each name an import anywhere in the module takes from `sfdsim`, or the
    module itself for a plain `import sfdsim...`."""
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names if a.name.partition(".")[0] == "sfdsim"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "sfdsim":
            taken += [a.name for a in node.names]
    return taken


def test_reference_lexer_takes_only_parse_error_from_the_package():
    # The lexer's oracle shares no token type, and no code, with the lexer.
    path = Path(__file__).parent / "reference_lexer.py"
    assert package_imports(ast.parse(path.read_text(), filename=str(path))) == ["ParseError"]


def test_reference_parser_takes_only_parse_error_from_the_package():
    # The grammar's oracle reads the reference lexer's tokens, spells its
    # own operators and builds plain tuples.
    path = Path(__file__).parent / "reference_parser.py"
    assert package_imports(ast.parse(path.read_text(), filename=str(path))) == ["ParseError"]


def test_scan_sees_a_package_import():
    tree = ast.parse(
        "from sfdsim.errors import ParseError\nfrom os import path\n"
        "def f():\n    from sfdsim.language import Token\n    import sfdsim.expr\n"
    )
    assert package_imports(tree) == ["ParseError", "Token", "sfdsim.expr"]


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


# A call of the builtin min or max; a model variable's local starts with "_".
MIN_MAX_CALL = re.compile(r"\b(?:min|max)\(")


def test_generated_code_calls_no_min_or_max():
    # min, max and clamp are emitted as conditional expressions, in the
    # evaluator, `bind`, the actions and the step loop alike. Models: the
    # baseline, the first 50 seed-21 `model_corpus` models and 60 random
    # models; loops: each model's topology under both methods, and a cycle.
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    corpus = [workloads.corpus_model(workloads._rng(21, i), i)[0] for i in range(50)]
    assert all("max(0, drive)" in text for text in corpus)
    models = [build_baseline(), *map(parse_model, corpus), *map(generate_model, range(60))]
    topologies = {("euler", (True, True), ((0, 1), (1, 0), (0, -1)))}
    for spec in models:
        vm = validate_model(spec)
        assert not MIN_MAX_CALL.search(vm.source), spec.name
        topologies |= {engine._topology(vm, method) for method in engine.METHODS}
    sources = [engine.segment_source(*topology) for topology in topologies]
    assert all(not MIN_MAX_CALL.search(source) for source in sources)
    assert sum(bool(re.search(r"k\d+ = 1\.0\n", source)) for source in sources) >= 10
    assert any("for _ in range(" in source for source in sources)  # a cyclic clamp
