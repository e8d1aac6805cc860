"""Source hygiene: no unused module-level imports or private definitions,
numpy stays off the paths that do not need arrays, and the studies name
no name of the plant model but through its table."""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tokenize
import types
from pathlib import Path

import pytest

import sfdsim
from sfdsim import build_baseline, cli, engine, parse_model, validate_model

from modelgen import generate_model
from test_step_loop import HAND_MODELS, random_topology

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


def plant_literals(source: str) -> list[tuple[str, int]]:
    """`(text, line)` of each string constant of `source` that is a name the
    built-in model defines: a stock, flow, auxiliary, parameter or event. A
    docstring is one constant, compared whole, so it does not match."""
    spec = build_baseline()
    names = {d.name for group in (spec.stocks, spec.flows, spec.auxiliaries, spec.parameters,
                                  spec.events) for d in group}
    return [(node.value, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in names]


def test_studies_take_the_plant_names_from_its_table():
    """`scenarios.py` reads the plant's names from `plant.STUDY_READS`."""
    assert plant_literals((PACKAGE / "scenarios.py").read_text()) == []


def test_scan_sees_a_plant_name():
    source = '"""Reads TotalCost."""\ntraj.final("TotalCost")\nf"{x} pickup"\n'
    assert plant_literals(source) == [("TotalCost", 2)]


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


@functools.cache
def bench_module(name: str):
    """`bench/<name>.py`, loaded from its file as module `bench_<name>`:
    `bench` is not a package. It is registered before it runs, as its
    dataclasses need."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    module_spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules[module_spec.name] = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


# A call of the builtin min or max; a model variable's local starts with "_".
MIN_MAX_CALL = re.compile(r"\b(?:min|max)\(")


def test_generated_code_calls_no_min_or_max():
    # min, max and clamp are emitted as conditional expressions, in the
    # evaluator, `bind`, the actions and the step loop alike. Models: the
    # baseline, the first 50 seed-21 `model_corpus` models and 60 random
    # models; loops: each model's topology under both methods, and a cycle.
    workloads = bench_module("workloads")
    corpus = [workloads.corpus_model(workloads._rng(21, i), i)[0] for i in range(50)]
    assert all("max(0, drive)" in text for text in corpus)
    models = [build_baseline(), *map(parse_model, corpus), *map(generate_model, range(60))]
    topologies = {("euler", (True, True), ((0, 1), (1, 0), (0, -1)))}
    for spec in models:
        vm = validate_model(spec)
        assert not MIN_MAX_CALL.search(vm.source), spec.name
        topologies |= {engine._topology(spec, method) for method in engine.METHODS}
    sources = [engine.segment_source(*topology) for topology in topologies]
    assert all(not MIN_MAX_CALL.search(source) for source in sources)
    assert sum(bool(re.search(r"k\d+ = 1\.0\n", source)) for source in sources) >= 10
    assert any("for _ in range(" in source for source in sources)  # a cyclic clamp


ARITHMETIC = {"+", "-", "*", "/"}


def int_operands(source: str) -> list[str]:
    """Each int literal in `source` that is an operand of `+ - * /`, with
    the tokens around it; the step index's `n + 1` is int arithmetic."""
    tokens = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                  tokenize.DEDENT)]
    return [" ".join(tokens[k - 2:k + 3]) for k in range(1, len(tokens) - 1)
            if tokens[k].isdigit() and ARITHMETIC & {tokens[k - 1], tokens[k + 1]}
            and tokens[k - 2:k] != ["n", "+"]]


def test_emitted_kernels_test_finiteness_with_one_sum():
    # Models: the hand models, 60 random topologies and the first 300
    # seed-21 `model_corpus` models; loops: each one's topology under both
    # methods. A stock test, or an evaluator's, is one sum, and no int
    # literal enters float arithmetic.
    workloads = bench_module("workloads")
    corpus = [workloads.corpus_model(workloads._rng(21, i), i)[0] for i in range(300)]
    models = [*HAND_MODELS.values(), *map(random_topology, range(60)),
              *map(parse_model, corpus)]
    topologies = {engine._topology(spec, method) for spec in models for method in engine.METHODS}
    assert int_operands("y = x + 2 * b\nt = t0 + (n + 1) * dt\nz = (0 - q)") == [
        "x + 2 * b", "= ( 0 - q"]
    for topology in topologies:
        source = engine.segment_source(*topology)
        assert source.count(") - s != 0.0:") == 1, topology
        assert "- 0)" not in source and "(0 - " not in source, topology
        assert int_operands(source) == [], topology
    for spec in models:
        source = validate_model(spec).source
        assert not re.search(r"\((_\w+) - \1\)", source), spec.name
        assert source.count(") - s == 0.0 or first_bad(ORDER, locals()) is None:") == 1
        assert int_operands(source) == [], spec.name


def fused_segment(source: str):
    """The code of `segment`, defined inside `bind` in a fused module."""
    (bind,) = [c for c in compile(source, "<fused>", "exec").co_consts
               if isinstance(c, types.CodeType)]
    (segment,) = [c for c in bind.co_consts if isinstance(c, types.CodeType)]
    return segment


@functools.cache
def line_tokens(line: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The int operands (see `int_operands`) and the names of one line of
    generated code. Generated lines repeat across models and stages, so
    each is tokenized once; no operation spans two lines."""
    names = [tok.string for tok in tokenize.generate_tokens(io.StringIO(line).readline)
             if tok.type == tokenize.NAME]
    return tuple(int_operands(line)), tuple(names)


def test_fused_loops_are_hygienic():
    # Models: the hand models, 60 random topologies and the first 300
    # seed-21 `model_corpus` models; loops: each one's fused loop under
    # both methods. No int literal enters float arithmetic; each step tests
    # its stocks once; the loop binds no name of the evaluator's text but
    # those its inlined text binds, and no `_pick` temporary of its own;
    # every model name it reads is a closure cell of its `bind`.
    workloads = bench_module("workloads")
    corpus = [workloads.corpus_model(workloads._rng(21, i), i)[0] for i in range(300)]
    models = [*HAND_MODELS.values(), *map(random_topology, range(60)),
              *map(parse_model, corpus)]
    for spec in models:
        vm = validate_model(spec)
        emitted = vm._emitted
        evaluator_names = {name for line in vm.source.splitlines()
                           for name in line_tokens(line)[1]}
        texts = [text for _, text in emitted.statements]
        texts += [text for values, _ in emitted.actions for text in values]
        # What the inlined text binds: its statements' variables, its `_pick`
        # temporaries, the sum `s`, and the draw `g` and row `o` it reads.
        inlined = {var for var, _ in emitted.statements} | {"s", "g", "o"}
        inlined |= {name for text in texts for name in re.findall(r"(\w+) :=", text)}
        cells = {*emitted.params, *(var for var, _ in emitted.hoists)}
        for method in engine.METHODS:
            source = engine._fused_source(emitted, engine._topology(spec, method),
                                          engine._event_plan(spec))
            lines = source.splitlines()
            assert [hit for line in lines for hit in line_tokens(line)[0]] == [], spec.name
            assert "- 0)" not in source and "(0 - " not in source, spec.name
            assert source.count(") - z != 0.0:") == 1, spec.name
            stages = 1 if method == "euler" else 4
            assert source.count("(s := ") == (stages if vm.order else 0), spec.name
            segment = fused_segment(source)
            own = set(segment.co_varnames) - inlined
            assert not own & evaluator_names, (spec.name, own & evaluator_names)
            assert not [name for name in own if re.fullmatch(r"[ab]\d+|_\w+", name)], spec.name
            assert set(segment.co_freevars) <= cells, spec.name
            assert not [name for name in segment.co_names if name.startswith("_")], spec.name


def test_a_model_run_once_compiles_no_fused_loop(tmp_path):
    # As `model_corpus` runs them: 200 distinct corpus models, each linted,
    # formatted and simulated once through `cli.main` in process.
    workloads = bench_module("workloads")
    engine._fused.cache_clear()
    misses = engine._segment.cache_info().misses
    path, out = tmp_path / "model.sfd", tmp_path / "model.csv"
    for i in range(200):
        path.write_text(workloads.corpus_model(workloads._rng(21, i), i)[0])
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["lint", str(path)], ["fmt", str(path)],
                         ["simulate", "--model", str(path), "--t-end", "60", "--out", str(out)]):
                assert cli.main(argv) == 0, (i, argv)
    info = engine._fused.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert engine._segment.cache_info().misses > misses  # the shared loops ran


# The targets of `bench/tracer.py` that the package no longer has. ROADMAP
# item 1, which drops them from the tracer, must update this list.
TRACER_ABSENT = ["expr.compile_function", "model.ValidatedModel.compiled"]


@pytest.mark.parametrize("name", ["plant_year", "policy_batch", "model_corpus"])
def test_benchmark_tracer_runs_over_the_package(name, tmp_path):
    # The tracer wraps package functions from outside and reads what they
    # return (`_measure_run` reads each run's Trajectory), so a package
    # change can break a traced benchmark run that no other test makes.
    # As the traced run does: trace one set-up and two ops, check each op
    # untraced, then read the layer metrics.
    workloads, tracing = bench_module("workloads"), bench_module("tracer")
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    problems, walls = [], []
    try:
        tracer.op = tracing.SETUP
        workload.setup()
        for i in range(2):
            inp = workload.make_input(i)
            tracer.op = i
            start = time.perf_counter()
            out = workload.run(inp)
            walls.append((time.perf_counter() - start) * 1e3)
            tracer.op = None
            problems += workload.check(inp, out)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert problems == []
    assert tracer.absent == TRACER_ABSENT
    assert tracer.runs  # every workload runs a simulation
    layers = tracer.layer_metrics(2, sum(walls), 1)
    assert all(value is None or math.isfinite(value) for value, _unit in layers.values())
    json.dumps(layers, allow_nan=False)


def reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("name", ["plant_year", "policy_batch", "model_corpus"])
def test_traced_benchmark_run_ends_with_a_strict_result(name, tmp_path):
    # As the benchmark is run: `bench/run.py` in a fresh process, from a
    # copy of the checkout, and judged by its last printed line. In process,
    # pytest has already imported every module, and no line is printed.
    root = Path(__file__).resolve().parents[1]
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("bench", "src"):
        shutil.copytree(root / part, tmp_path / part, ignore=ignore)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--trace", "1", "--seconds", "0.5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True, done.stdout[-2000:]
    report = json.loads((tmp_path / ".bench_out" / f"report-{name}-seed0-trace1.json").read_text())
    assert report["absent"] == TRACER_ABSENT
