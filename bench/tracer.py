"""Spans around the calls into each `sfdsim` module, installed from outside.

`Tracer.install` replaces each target function with a wrapper wherever its
caller looks it up: every `sfdsim` module attribute bound to the original
(so `sfdsim.scenarios.run_simulation`, `sfdsim.cli.run_simulation`,
`sfdsim.expr.daily_gauss`, `sfdsim.plant.daily_gauss`, ...), and the class
attribute for methods. A target that no longer exists is reported absent.
The recursive `expr.eval_expression` is deliberately not wrapped.

A span is (id, parent id, op id, thread id, target, start ns, end ns), kept
in memory and written out by `write_spans`. Parents come from a per-thread
stack. `ThreadPoolExecutor` workers start with an empty stack, so a span
opened there is parented explicitly to the span the main thread is inside,
which is the `run_sweep` span that owns the pool. Such children can overlap,
so their busy time can exceed their parent's wall time; `layer_metrics`
reports that ratio instead of hiding it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns

# (layer, owner, attribute). An owner is a module, or "module:Class" for a
# method. The metric prefix is "<layer>.<Class.>attribute".
TARGETS = (
    ("engine", "sfdsim.engine", "run_simulation"),
    ("engine", "sfdsim.engine:Trajectory", "to_csv"),
    ("engine", "sfdsim.engine:Trajectory", "events_to_csv"),
    ("expr", "sfdsim.expr", "daily_gauss"),
    ("expr", "sfdsim.expr", "compile_function"),
    ("model", "sfdsim.model", "validate_model"),
    ("model", "sfdsim.model:ValidatedModel", "compiled"),
    ("model", "sfdsim.model:ModelSpec", "with_params"),
    ("model", "sfdsim.model:ModelSpec", "with_event_schedule"),
    ("scenarios", "sfdsim.scenarios", "optimize_transport_policy"),
    ("scenarios", "sfdsim.scenarios", "run_sweep"),
    ("scenarios", "sfdsim.scenarios", "calibrate"),
    ("scenarios", "sfdsim.scenarios", "parse_scenario"),
    ("scenarios", "sfdsim.scenarios", "apply_scenario"),
    ("language", "sfdsim.language", "parse_model"),
    ("language", "sfdsim.language", "format_model"),
    ("language", "sfdsim.language", "lint_model"),
    ("cli", "sfdsim.cli", "main"),
    ("plant", "sfdsim.plant", "build_baseline"),
    ("plant", "sfdsim.plant", "summarize"),
    ("charts", "sfdsim.charts", "render_chart"),
)
SETUP = "setup"  # op id of spans recorded during a traced set-up
LAYERS = ("cli", "language", "model", "expr", "engine", "plant", "scenarios", "charts")


def metric_prefix(layer: str, owner: str, attr: str) -> str:
    cls = owner.partition(":")[2]
    return f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"


@dataclass
class RunInfo:
    """What one traced `run_simulation` call did, from its arguments and
    its returned Trajectory."""

    sim_days: float
    noisy: bool
    clamp_scaled: float


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.runs: dict[int, RunInfo] = {}
        self.bytes: dict[int, int] = {}  # span id -> bytes out (or in)
        self.op = None  # spans are recorded only while an op id (or SETUP) is set
        self.present: dict[str, str] = {}  # metric prefix -> layer
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _wrap(self, key: str, fn, measure):
        tracer = self
        signature = inspect.signature(fn) if measure is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, op, threading.get_ident(), key, start, end))
            if measure is not None:
                # Positional order, however the caller passed the arguments.
                bound = list(signature.bind(*args, **kwargs).arguments.values())
                measure(sid, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        measures = {
            "engine.run_simulation": self._measure_run,
            "engine.Trajectory.to_csv": self._measure_bytes,
            "language.parse_model": self._measure_bytes_in,
            "charts.render_chart": self._measure_bytes,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sfdsim" or name.startswith("sfdsim."))]
        for layer, owner, attr in TARGETS:
            key = metric_prefix(layer, owner, attr)
            mod_name, _, cls_name = owner.partition(":")
            holder = sys.modules.get(mod_name)
            if holder is not None and cls_name:
                holder = getattr(holder, cls_name, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original, measures.get(key))
            places = [holder] if cls_name else modules
            for place in places:
                for name, value in list(vars(place).items()):
                    if value is original:
                        self._undo.append((place, name, value))
                        setattr(place, name, wrapper)
            self.present[key] = layer

    def uninstall(self) -> None:
        for place, name, value in reversed(self._undo):
            setattr(place, name, value)
        self._undo.clear()

    # -- measures: quantities read from a call's arguments and result ------

    def _measure_bytes(self, sid, args, result) -> None:
        self.bytes[sid] = len(result)

    def _measure_bytes_in(self, sid, args, result) -> None:
        self.bytes[sid] = len(args[0])

    def _measure_run(self, sid, args, traj) -> None:
        import numpy as np
        from sfdsim import UnknownSymbolError, expr as ex

        model, config = args[0], args[1]
        spec = getattr(model, "spec", model)
        params = {p.name: p.value for p in spec.parameters}
        scales = []
        stack = [d.expression for d in (*spec.auxiliaries, *spec.flows)]
        while stack:
            node = stack.pop()
            if isinstance(node, ex.Call):
                if node.fn == "noise":
                    scales.append(node.args[0])
                stack.extend(node.args)
            elif isinstance(node, ex.BinOp):
                stack.extend((node.left, node.right))
        noisy = False
        for scale in scales:
            try:
                noisy = noisy or ex.eval_expression(scale, params) != 0.0
            except (UnknownSymbolError, ArithmeticError, ValueError):
                noisy = True  # the scale depends on state: assume it is used
        clamp = 0.0
        if config.method == "euler" and config.record_every == 1 and len(traj.times) > 1:
            values = traj.values[:-1]
            for f in spec.flows:
                column = values[:, traj.columns.index(f.name)]
                clamp += config.dt * float(np.sum(column)) - traj.flow_integrals[f.name]
        self.runs[sid] = RunInfo(config.t_end - config.t_start, noisy, clamp)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """Span id -> self time in ns: its duration minus the union of the
        intervals its children cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, parent, _op, _thread, _key, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _parent, _op, _thread, _key, start, end in self.spans:
            covered, cursor = 0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = end - start - covered
        return out

    def layer_metrics(self, ops: int, op_wall_ms: float,
                      setups: int) -> dict[str, tuple[float | None, str]]:
        """Layer metrics from the recorded spans: name -> (value, unit).

        Spans of op `SETUP` give `<target>.setup_ms`, self time per set-up;
        every other metric is per op, over `ops` traced ops whose wall
        times sum to `op_wall_ms`. A target that is absent reads None.
        """
        self_ns = self.self_times()
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        setup_ms: dict[str, float] = {}
        nbytes: dict[str, int] = {}
        # Children end, and so are recorded, before their parent.
        span_key = {span[0]: span[4] for span in self.spans}
        runs: list[RunInfo] = []
        run_ns = sweep_wall = sweep_busy = draws = useful = 0
        for sid, parent, op, _thread, key, start, end in self.spans:
            if op == SETUP:
                setup_ms[key] = setup_ms.get(key, 0.0) + self_ns[sid] / 1e6
                continue
            calls[key] = calls.get(key, 0) + 1
            self_ms[key] = self_ms.get(key, 0.0) + self_ns[sid] / 1e6
            if sid in self.bytes:
                nbytes[key] = nbytes.get(key, 0) + self.bytes[sid]
            if sid in self.runs:
                runs.append(self.runs[sid])
                run_ns += end - start
            if key == "scenarios.run_sweep":
                sweep_wall += end - start
            elif parent is not None and span_key.get(parent) == "scenarios.run_sweep":
                sweep_busy += end - start
            if key == "expr.daily_gauss":
                draws += 1
                run = self.runs.get(parent)
                useful += run is None or run.noisy

        per_op = 1.0 / ops
        out: dict[str, tuple[float | None, str]] = {}
        for layer, owner, attr in TARGETS:
            key = metric_prefix(layer, owner, attr)
            there = key in self.present
            out[f"{key}.calls"] = (calls.get(key, 0) * per_op if there else None, "1/op")
            out[f"{key}.self_ms"] = (self_ms.get(key, 0.0) * per_op if there else None, "ms/op")
            out[f"{key}.setup_ms"] = (setup_ms.get(key, 0.0) / setups if there else None, "ms")
        for key, name in (("engine.Trajectory.to_csv", "bytes"),
                          ("charts.render_chart", "bytes"),
                          ("language.parse_model", "bytes_in")):
            value = nbytes.get(key, 0) * per_op if key in self.present else None
            out[f"{key}.{name}"] = (value, "B/op")
        for layer in LAYERS:
            total = sum(v for k, v in self_ms.items() if self.present.get(k) == layer)
            out[f"{layer}.share"] = (total / op_wall_ms if op_wall_ms > 0 else 0.0, "ratio")

        days = sum(r.sim_days for r in runs)
        out["engine.sim_days_per_busy_s"] = (days / (run_ns / 1e9) if run_ns else 0.0, "1/s")
        out["engine.clamp_outflow_scaled"] = (sum(r.clamp_scaled for r in runs) * per_op,
                                              "amount/op")
        out["expr.noise_useful_ratio"] = (useful / draws if draws else 0.0, "ratio")
        out["scenarios.run_sweep.busy_over_wall"] = (
            sweep_busy / sweep_wall if sweep_wall else 0.0, "ratio")
        out["trace.spans_per_op"] = (sum(calls.values()) * per_op, "1/op")
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,thread,name,start_ns,end_ns\n")
            for sid, parent, op, thread, key, start, end in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{op},{thread},"
                         f"{key},{start},{end}\n")
