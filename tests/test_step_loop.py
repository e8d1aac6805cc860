"""The generated step loop against the reference per-step integrator, and
the cache of compiled loops."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import struct
import sys
import types
import weakref

import pytest

import sfdsim.engine as engine
import sfdsim.expr
from sfdsim import (
    ClampError,
    FlowDef,
    ModelSpec,
    NonFiniteError,
    SimConfig,
    StockDef,
    build_baseline,
    parse_expression,
    parse_model,
    run_simulation,
    validate_model,
)

from modelgen import generate_model
from reference_integrator import reference_run


def bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


def outcome(run, spec, config):
    """Everything a run produces, with floats as raw bits, or the error."""
    try:
        traj = run(spec, config)
    except (NonFiniteError, ClampError) as err:
        return (type(err), getattr(err, "name", None), getattr(err, "stocks", None),
                bits([err.t]), str(err))
    return (
        (len(traj.rows), len(traj.columns)),
        bits(traj.row_times),
        bits(v for row in traj.rows for v in row),
        tuple(traj.flow_integrals), bits(traj.flow_integrals.values()),
        tuple(traj.event_deltas), bits(traj.event_deltas.values()),
        tuple((e.event, e.target) for e in traj.events),
        bits(v for e in traj.events for v in (e.t, e.amount)),
    )


def variants(seed: int):
    """A generated model and versions of it that fault or change the floor:
    Level0 = 0 makes `S / (S + Level0)` divide 0 by 0 once S empties,
    a huge Rate0 overflows a stock, and one stock may go negative."""
    spec = generate_model(seed)
    yield spec
    yield spec.with_params({"Level0": 0.0})
    yield spec.with_params({"Rate0": 1e307})
    free = dataclasses.replace(spec.stocks[-1], non_negative=False)
    yield dataclasses.replace(spec, stocks=(*spec.stocks[:-1], free))


def model(stocks, flows) -> ModelSpec:
    return ModelSpec(
        name="M",
        stocks=tuple(stocks),
        flows=tuple(FlowDef(name, parse_expression(text), src, dst)
                    for name, text, src, dst in flows),
    )


HAND_MODELS = {
    "converging_cycle": model(
        [StockDef("A", 1.0), StockDef("B", 0.0)],
        [("ab", "5", "A", "B"), ("ba", "1 + 0.5 * sin(t)", "B", "A")]),
    "unconverged_cycle": model(
        [StockDef("A", 0.0), StockDef("B", 0.0)],
        [("ab", "10", "A", "B"), ("ba", "9.9", "B", "A"), ("outA", "0.001", "A", None)]),
    # With A = B = 0 the first step's factors fall by a constant ratio per
    # pass: they settle on pass 16 = 4n + 8, the last one allowed, with a
    # leak of 80, and would need a 17th with a leak of 70.
    "cycle_settles_on_last_pass": model(
        [StockDef("A", 0.0), StockDef("B", 0.0)],
        [("ab", "10", "A", "B"), ("ba", "9", "B", "A"), ("outA", "80", "A", None)]),
    "cycle_one_pass_short": model(
        [StockDef("A", 0.0), StockDef("B", 0.0)],
        [("ab", "10", "A", "B"), ("ba", "9", "B", "A"), ("outA", "70", "A", None)]),
    "stage_fault": model(
        [StockDef("S", 1.0)], [("out", "3 + 0 * ln(S + 0.5)", "S", None)]),
    "stock_overflow": model(
        [StockDef("S", 0.0), StockDef("D", 0.0, non_negative=False)],
        [("feed", "1e308", None, "S"), ("drain", "1e308", "D", None)]),
    "drained_chain": model(
        [StockDef("A", 3.0), StockDef("B", 0.0), StockDef("C", 1.0)],
        [("ab", "2 + sin(t)", "A", "B"), ("bc", "4", "B", "C"), ("cout", "C", "C", None),
         ("leak", "0.5", "A", None)]),
    # A three-stock cycle drained faster than it is fed, feeding a floored
    # stock D that drains too: D settles in the cycle's passes.
    "cycle_feeds_downstream": model(
        [StockDef("A", 1.0), StockDef("B", 0.5), StockDef("C", 0.0), StockDef("D", 0.2)],
        [("feed", "0.5", None, "A"), ("ab", "3", "A", "B"), ("bc", "2 + sin(t)", "B", "C"),
         ("ca", "2.5", "C", "A"), ("cd", "1", "C", "D"), ("dout", "2", "D", None)]),
    # C is fed by two clamped stocks, each drained faster than it is fed.
    "fan_in": model(
        [StockDef("A", 2.0), StockDef("B", 1.0), StockDef("C", 0.0)],
        [("ac", "3", "A", "C"), ("bc", "2 + cos(t)", "B", "C"), ("aout", "0.5", "A", None),
         ("cout", "4", "C", None)]),
    "no_flows": ModelSpec(name="Empty", stocks=(StockDef("S", 2.0),)),
    # Actions read a flow, an auxiliary, t and noise(5), which reads as 0.
    "event_reads_computed": parse_model("""model Reads {
        param K = 0.25
        stock S = 10
        stock R = 0
        aux half = S / 2
        flow out : S -> R = K * S
        event move every 3 start 2 {
          S -= out + half / 4 + t / 100 + noise(5)
          R += out * 2 + noise(5)
        }
      }"""),
    # The action reads an auxiliary that draws noise, at the firing's draw.
    "event_reads_noise": parse_model("""model Wet {
        stock S = 10
        aux wet = 1 + noise(0.5)
        flow out : S -> = 0.1 * S * wet
        event top every 4 {
          S += wet
        }
      }"""),
    # Both events fire on steps 4 and 8; the second reads what the first moved.
    "events_same_step": parse_model("""model Both {
        stock A = 8
        stock B = 1
        aux twice = 2 * A
        flow leak : A -> = 0.5
        event first every 4 { A -= A / 2  B += A / 2 }
        event second every 4 { B += twice + A  A = B - A }
      }"""),
    # A set below zero floors a non-negative stock, not one allowed negative.
    "event_set_below_zero": parse_model("""model SetNeg {
        stock S = 5
        stock F = 5 allow_negative
        flow feed : -> S = 1
        event reset every 5 { S = S - 20  F = F - 20 }
      }"""),
    # S empties at t = 1, where 1 / S would fault, but the refill reads no
    # flow or auxiliary, so only the refilled state is evaluated.
    "event_refills_empty": parse_model("""model Refill {
        stock S = 1
        aux inv = 1 / S
        flow drain : S -> = 1
        event refill every 1 { S += 5 }
      }"""),
    "event_fault": parse_model("""model EventFault {
        stock S = 1
        flow feed : -> S = 1
        event boom every 4 { S -= 1 / (S - S) }
      }"""),
    "event_overflow": parse_model("""model EventOverflow {
        stock S = 1
        flow feed : -> S = 1
        event boom every 4 { S += 1e308 * 10 }
      }"""),
}


def random_topology(seed: int) -> ModelSpec:
    """2-5 stocks, most of them floored, joined by flows with random
    endpoints, self-loops and cycles included, and constant or periodic
    rates that often drain a stock faster than it is fed."""
    rng = random.Random(seed)
    names = [f"S{i}" for i in range(rng.randint(2, 5))]
    stocks = [StockDef(name, round(rng.uniform(0.0, 4.0), 2), non_negative=rng.random() < 0.8)
              for name in names]
    flows = []
    for j in range(rng.randint(len(names), 2 * len(names) + 1)):
        src = rng.choice([None, *names])
        dst = rng.choice([None, *names] if src else names)
        rate = round(rng.uniform(0.2, 6.0), 3)
        text = str(rate) if rng.random() < 0.6 else f"{rate} + {rate / 2} * sin(t)"
        flows.append((f"f{j}", text, src, dst))
    return model(stocks, flows)


def clamp_activations(spec, config):
    """The run of `spec`, and the time `t` of each step that entered the
    clamp block of the generated loop, read by a line trace of that loop."""
    source = engine.segment_source(*engine._topology(spec, config.method))
    starts = [n for n, line in enumerate(source.splitlines(), 1)
              if re.fullmatch(r" +k\d+ = 1\.0", line)]
    assert starts, "the topology has a clamp block"
    calls = []

    def step_loop_lines(frame, event, arg):
        if frame.f_code.co_filename != "<sfdsim step loop>":
            return None
        if event == "line" and frame.f_lineno == starts[0]:
            calls.append(frame.f_locals["t"])
        return step_loop_lines

    previous = sys.gettrace()
    sys.settrace(step_loop_lines)
    try:
        traj = run_simulation(spec, config)
    finally:
        sys.settrace(previous)
    return traj, calls


class TestMatchesReference:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_generated_models(self, method, every):
        errors = set()
        for seed in range(30):
            config = SimConfig(t_start=float(seed % 2), t_end=91.0 + seed % 2,
                               dt=0.5 if seed % 3 == 0 else 1.0, method=method,
                               record_every=every, seed=seed)
            for spec in variants(seed):
                expected = outcome(reference_run, spec, config)
                assert outcome(run_simulation, spec, config) == expected, (seed, spec.name)
                if isinstance(expected[0], type):
                    errors.add(expected[0])
        assert NonFiniteError in errors

    @pytest.mark.parametrize("name", sorted(HAND_MODELS))
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_hand_models(self, name, method, every):
        config = SimConfig(t_end=12.0, method=method, record_every=every)
        spec = HAND_MODELS[name]
        assert outcome(run_simulation, spec, config) == outcome(reference_run, spec, config)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_random_topologies(self, method, every):
        errors = []
        for seed in range(60):
            spec = random_topology(seed)
            config = SimConfig(t_end=12.0, method=method, record_every=every)
            expected = outcome(reference_run, spec, config)
            assert outcome(run_simulation, spec, config) == expected, seed
            errors.append(expected[0])
        assert ClampError in errors
        assert errors.count(ClampError) < len(errors) // 2

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_noisy_plant_with_events(self, method, every):
        spec = build_baseline().with_params({"NoiseStdDev": 1.5})
        config = SimConfig(t_end=120.0, method=method, record_every=every, seed=11)
        assert outcome(run_simulation, spec, config) == outcome(reference_run, spec, config)

    def test_expected_errors(self):
        # The error cases above raise what they are meant to raise.
        with pytest.raises(ClampError) as clamp_err:
            run_simulation(HAND_MODELS["unconverged_cycle"], SimConfig(t_end=5.0))
        assert (clamp_err.value.stocks, clamp_err.value.t) == (("A", "B"), 0.0)
        with pytest.raises(ClampError) as clamp_err:
            run_simulation(HAND_MODELS["cycle_one_pass_short"], SimConfig(t_end=5.0))
        assert (clamp_err.value.stocks, clamp_err.value.t) == (("A",), 0.0)
        settled = run_simulation(HAND_MODELS["cycle_settles_on_last_pass"], SimConfig(t_end=5.0))
        assert settled.series("A") == settled.series("B") == [0.0] * 6
        with pytest.raises(NonFiniteError) as stage_err:
            run_simulation(HAND_MODELS["stage_fault"], SimConfig(t_end=3.0, method="rk4"))
        assert (stage_err.value.name, stage_err.value.t) == ("out", 0.5)
        with pytest.raises(NonFiniteError) as stock_err:
            run_simulation(HAND_MODELS["stock_overflow"], SimConfig(t_end=4.0, dt=2.0))
        assert (stock_err.value.name, stock_err.value.t) == ("S", 2.0)
        for name in ("event_fault", "event_overflow"):
            with pytest.raises(NonFiniteError) as event_err:
                run_simulation(HAND_MODELS[name], SimConfig(t_end=12.0))
            assert (event_err.value.name, event_err.value.t) == ("event boom", 4.0)

    def test_event_models_fire_as_meant(self):
        traj = run_simulation(HAND_MODELS["events_same_step"], SimConfig(t_end=4.0))
        # At t = 4, first takes A = 6 to 3 and B = 1 to 4; second reads that
        # state, and twice = 6 computed from it, for both its actions:
        # B = 4 + (6 + 3), A = 4 - 3.
        assert [(e.event, e.target, e.amount) for e in traj.events] == [
            ("first", "A", 3.0), ("first", "B", 3.0), ("second", "B", 9.0), ("second", "A", 1.0)]
        traj = run_simulation(HAND_MODELS["event_set_below_zero"], SimConfig(t_end=5.0))
        assert (traj.final("S"), traj.final("F")) == (0.0, -15.0)
        reads = run_simulation(HAND_MODELS["event_reads_computed"], SimConfig(t_end=3.0))
        assert reads.events[0].t == 2.0 and reads.events[0].amount > 0.0
        # The emptied state 1 / S would fault on is refilled before any use.
        traj = run_simulation(HAND_MODELS["event_refills_empty"], SimConfig(t_end=2.0))
        assert (traj.series("S"), traj.series("inv")) == ([1.0, 5.0, 9.0], [1.0, 0.2, 1 / 9])

    def test_clamp_called_only_when_an_update_undershoots(self):
        # S fills at 1/day and drains at 3/day from t = 6: it reaches 0 at
        # t = 9, and only the steps from there on would overdraw it.
        late_drain = model([StockDef("S", 0.0)],
                           [("feed", "1", None, "S"), ("out", "if(t > 5, 3, 0)", "S", None)])
        traj, calls = clamp_activations(late_drain, SimConfig(t_end=12.0))
        assert calls == [9.0, 10.0, 11.0]
        assert traj.series("S")[7:] == [4.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        assert clamp_activations(build_baseline(), SimConfig(t_end=365.0))[1] == []


class TestFinitenessDecisions:
    """Finite values whose sum passes the largest float do not stop a run;
    a value that is not finite stops it, named, at the time it appears.
    The reference checks each value on its own."""

    @staticmethod
    def check(spec, method):
        config = SimConfig(t_end=10.0, method=method)
        result = outcome(run_simulation, spec, config)
        assert result == outcome(reference_run, spec, config)
        return result

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_auxiliaries_summing_past_the_largest_float_run(self, method):
        spec = parse_model("""model BigAux {
            stock S = 1
            aux a = 1e308 + 0 * S
            aux b = 1e308 + 0 * t
            flow f : -> S = 1
          }""")
        self.check(spec, method)
        traj = run_simulation(spec, SimConfig(t_end=10.0, method=method))
        assert traj.series("a") == traj.series("b") == [1e308] * 11

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_stocks_summing_past_the_largest_float_run(self, method):
        spec = parse_model("""model BigStocks {
            stock A = 1e308
            stock B = 1e308
            flow f : A -> B = 0 * A
          }""")
        self.check(spec, method)
        traj = run_simulation(spec, SimConfig(t_end=10.0, method=method))
        assert traj.series("A") == traj.series("B") == [1e308] * 11

    @pytest.mark.parametrize("method, t", [("euler", 2.0), ("rk4", 1.5)])
    @pytest.mark.parametrize("opposite", ["", "aux b = 0 - a"])
    def test_an_infinite_auxiliary_is_named(self, method, t, opposite):
        # a is 1e308 at t = 1 and infinite from t = 1.5, an RK4 midpoint;
        # b, where declared, is its opposite, so a sum of the two is NaN.
        spec = parse_model(f"""model InfAux {{
            stock S = 1
            aux before = 2 * S
            aux a = 1e308 * t * t
            {opposite}
            aux after = S + 1
            flow f : -> S = 1
          }}""")
        error = self.check(spec, method)
        assert error[:2] == (NonFiniteError, "a") and error[3] == bits([t])

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_an_overflowing_stock_is_named(self, method):
        # S gains 1e307 a day from 1e308 and passes the largest float on day 8.
        spec = parse_model("""model Overflow {
            stock A = 1
            stock S = 1e308
            stock B = 1e308
            flow f : -> S = 1e307
          }""")
        error = self.check(spec, method)
        assert error[:2] == (NonFiniteError, "S") and error[3] == bits([8.0])


class TestLoopCache:
    def test_same_topology_shares_one_loop(self):
        a = generate_model(5)
        flows = tuple(dataclasses.replace(f, expression=parse_expression("Rate1 * 2 + t"))
                      for f in a.flows)
        b = dataclasses.replace(a, flows=flows).with_params({"Rate0": 3.0, "Level0": 1.0})
        key_a = engine._topology(a, "rk4")
        assert engine._topology(b, "rk4") == key_a
        assert engine._topology(a, "euler") != key_a
        engine._segment.cache_clear()
        run_simulation(a, SimConfig(t_end=10.0, method="rk4"))
        misses = engine._segment.cache_info().misses
        run_simulation(b, SimConfig(t_end=10.0, method="rk4", seed=3))
        info = engine._segment.cache_info()
        assert (info.misses, info.currsize) == (misses, 1)
        assert info.hits >= 1

    def test_distinct_topologies_stay_within_bound(self):
        bound = engine._segment.cache_parameters()["maxsize"]
        chain = ((-1, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, -1))
        for code in range(bound + 16):
            floored = tuple(bool(code >> i & 1) for i in range(7))
            segment = engine._segment("euler", floored, chain)
            assert callable(segment)
            assert engine._segment.cache_info().currsize <= bound
        assert engine._segment.cache_info().currsize == bound

    def test_evicted_loop_is_freed_by_refcount(self, gc_off):
        chain = ((-1, 0), (0, 1), (1, -1))
        engine._segment.cache_clear()
        first = weakref.ref(engine._segment("euler", (True, True), chain))
        assert first() is not None
        for floored in ((True, False), (False, True), (False, False)):
            engine._segment("rk4", floored, chain)
        assert first() is not None
        for code in range(engine._segment.cache_parameters()["maxsize"]):
            engine._segment("euler", tuple(bool(code >> i & 1) for i in range(7)), chain)
        assert first() is None

    def test_clamp_built_once_per_topology(self):
        engine._segment.cache_clear()
        spec = HAND_MODELS["drained_chain"]
        run_simulation(spec, SimConfig(t_end=12.0))
        run_simulation(spec.with_initial({"A": 9.0}), SimConfig(t_end=12.0, seed=2))
        info = engine._segment.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        segment = engine._segment(*engine._topology(spec, "euler"))
        assert {name: value for name, value in segment.__globals__.items()
                if name != "__builtins__"} == {"NonFiniteError": NonFiniteError,
                                               "ClampError": ClampError}

    def test_source_names_no_model_variable(self):
        vm = validate_model(build_baseline())
        source = engine.segment_source(*engine._topology(vm.spec, "rk4"))
        stocks = (s.name for s in vm.spec.stocks)
        assert all(name not in source for name in (*stocks, *vm.params, *vm.order))
        assert source.count("evaluate(") == 4
        assert "try" not in source  # the evaluator names its own faults
        assert "clamp(" not in source and "k0 = 1.0" in source  # the clamp is inlined
        # One finiteness test per step, a sum over every stock.
        assert source.count("if (s := x0 + x1 + x2) - s != 0.0:") == 1
        assert source.count(" - s != 0.0") == 1
        assert source.count("NonFiniteError(") == 1


class TestNoiseDraws:
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = sfdsim.expr.daily_gauss

        def counting(seed, day):
            calls.append(day)
            return real(seed, day)

        monkeypatch.setattr(sfdsim.expr, "daily_gauss", counting)
        return calls

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_same_draws_as_reference(self, draws, method, every):
        spec = build_baseline().with_params({"NoiseStdDev": 1.5})
        config = SimConfig(t_end=365.0, method=method, record_every=every)
        reference_run(spec, config)
        expected = list(draws)
        draws.clear()
        run_simulation(spec, config)
        assert draws == expected == list(range(366))

    def test_each_day_drawn_once(self, draws):
        # At dt = 0.7 an RK4 end stage's time t + dt can floor one day past
        # the next step's time, so the reference's lazy draw redraws days.
        spec = (build_baseline().with_params({"NoiseStdDev": 1.5})
                .with_event_schedule("pickup", start=7.0, interval=7.0))
        config = SimConfig(t_end=70.0, dt=0.7, method="rk4")
        expected = outcome(reference_run, spec, config)
        reference_days = list(draws)
        draws.clear()
        assert outcome(run_simulation, spec, config) == expected
        assert draws == sorted(set(reference_days))
        assert len(draws) < len(reference_days)

    def test_no_noise_shares_one_list_of_zeros(self, draws):
        g0, gm, ge = engine._noise_draws(False, SimConfig(t_end=10.0, method="rk4"), 10)
        assert g0 is gm is ge
        assert g0 == [0.0] * 11
        assert draws == []

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_loop_keeps_no_noise_state(self, method):
        source = engine.segment_source(*engine._topology(build_baseline(), method))
        assert not any(word in source for word in ("noisy", "gauss", "seed", "noise_day", "floor"))
        stages = ["g0[n]"] if method == "euler" else ["g0[n]", "gm[n]", "gm[n]", "ge[n]"]
        assert re.findall(r"evaluate\(\w+, (\w+\[n\])", source) == stages
        # The run defines no nested function, so no closure keeps noise state.
        code = run_simulation.__code__
        assert code.co_cellvars == ()
        assert all(c.co_name in ("<listcomp>", "<genexpr>", "<dictcomp>")
                   for c in code.co_consts if isinstance(c, types.CodeType))


def evaluations(spec, config):
    """The run of `spec`, and the time of each call of its generated
    evaluator, from the step loop or from an event action, read by a
    profile hook on the code named `evaluate` in `<sfdsim evaluator>`."""
    calls = []

    def evaluator_calls(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "evaluate"
                and code.co_filename == "<sfdsim evaluator>"):
            calls.append(frame.f_locals["t"])

    previous = sys.getprofile()
    sys.setprofile(evaluator_calls)
    try:
        traj = run_simulation(spec, config)
    finally:
        sys.setprofile(previous)
    return traj, calls


class TestEventEvaluations:
    def test_pickups_do_not_evaluate_the_model(self):
        # The pickup's action reads only a stock and parameters, so a
        # year evaluates once per step and once for the final row.
        traj, calls = evaluations(build_baseline(), SimConfig(t_end=365.0))
        assert {e.event for e in traj.events} == {"pickup"}
        assert calls == [float(n) for n in range(366)]

    def test_an_action_reading_an_auxiliary_evaluates(self):
        traj, calls = evaluations(HAND_MODELS["event_reads_computed"], SimConfig(t_end=12.0))
        fired = sorted({e.t for e in traj.events})
        assert fired == [2.0, 5.0, 8.0, 11.0]
        assert sorted(calls) == sorted([*map(float, range(13)), *fired])


class TestNothingInterpretedAfterValidation:
    def test_runs_never_walk_an_expression(self, monkeypatch):
        walked = []

        def refuse(*args, **kwargs):
            walked.append(args)
            raise AssertionError("eval_expression called")

        monkeypatch.setattr(sfdsim.expr, "eval_expression", refuse)
        spec = build_baseline()
        noisy = spec.with_params({"NoiseStdDev": 1.5})
        moved = noisy.with_event_schedule("pickup", start=10.0, interval=10.0)
        vm, noisy, moved = map(validate_model, (spec, noisy, moved))
        assert (vm.draws_noise, noisy.draws_noise, moved.draws_noise) == (False, True, True)
        for model in (vm, noisy, moved):
            for method in ("euler", "rk4"):
                traj = run_simulation(model.spec, SimConfig(t_end=365.0, method=method, seed=3))
                assert traj.events
        reads = run_simulation(HAND_MODELS["event_reads_computed"], SimConfig(t_end=12.0))
        assert reads.events
        with pytest.raises(NonFiniteError) as err:
            run_simulation(HAND_MODELS["stage_fault"], SimConfig(t_end=3.0, method="rk4"))
        assert (err.value.name, err.value.t) == ("out", 0.5)
        assert walked == []


class TestOneCallOfTheLoop:
    """A run is one call of the generated loop, events firing inside it,
    and each recorded row is the evaluator's row as it returns it."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_each_row_is_the_evaluators_row(self, method, every):
        specs = [*map(generate_model, range(20)), *map(random_topology, range(20)),
                 build_baseline().with_params({"NoiseStdDev": 1.5}),
                 HAND_MODELS["event_reads_noise"], HAND_MODELS["events_same_step"]]
        config = SimConfig(t_end=40.0, method=method, record_every=every, seed=4)
        ran = 0
        for spec in specs:
            try:
                traj = run_simulation(spec, config)
            except (NonFiniteError, ClampError):
                continue
            ran += 1
            vm = validate_model(spec)
            ns = len(spec.stocks)
            for t, row in zip(traj.row_times, traj.rows):
                g = sfdsim.expr.daily_gauss(config.seed, math.floor(t)) if vm.draws_noise else 0.0
                assert bits(row) == bits(vm.evaluator(t, g, *row[:ns])), (spec.name, t)
        assert ran > len(specs) // 2

    def test_a_baseline_year_calls_the_loop_once(self, monkeypatch):
        calls = []
        segment = engine._segment

        def counted(*key):
            loop = segment(*key)
            return lambda *args: calls.append(args[0]) or loop(*args)

        monkeypatch.setattr(engine, "_segment", counted)
        traj = run_simulation(build_baseline(), SimConfig(t_end=365.0))
        assert sorted({e.t for e in traj.events}) == [30.0 * k for k in range(1, 13)]
        # One call; its stops are the twelve pickups and the last step.
        assert calls == [[*((30 * k, [0]) for k in range(1, 13)), (365, None)]]

    def test_event_records_are_hashable_tuples_equal_to_the_reference(self):
        spec, config = build_baseline(), SimConfig(t_end=365.0)
        got, want = run_simulation(spec, config).events, reference_run(spec, config).events
        assert len(got) == 24 and got == want
        assert [(e.t.hex(), e.amount.hex()) for e in got] == [
            (e.t.hex(), e.amount.hex()) for e in want]
        record = got[0]
        assert type(record) is engine.EventRecord
        assert record == (30.0, "pickup", "AccumulatedSludge", record.amount)
        assert hash(record) == hash(want[0]) and len(set(got)) == 24
        with pytest.raises(AttributeError):
            record.amount = 0.0


# Models whose runs fail, for the fused loop's errors: an auxiliary that
# becomes infinite at an RK4 midpoint, an action that reads it, and an
# action whose value is infinite once a flow has moved.
FAULTY = {
    "infinite_auxiliary": parse_model("""model InfAux {
        stock S = 1
        aux a = 1e308 * t * t
        aux b = 0 - a
        flow f : -> S = 1
      }"""),
    "action_reads_infinite_auxiliary": parse_model("""model ActInf {
        stock S = 1
        aux a = if(t > 3.5, 1e308 * t, 0)
        flow f : -> S = 1
        event e every 2 { S += a * 0 + 1 }
      }"""),
    "action_value_overflows": parse_model("""model ActOverflow {
        stock S = 1
        flow f : -> S = S
        event e every 3 start 1 { S += f * 1e307 }
      }"""),
    "unbound_in_bind": parse_model("""model Unbound {
        param Zero = 0
        stock S = 1
        aux inv = 1 / Zero
        flow f : -> S = 1
      }"""),
}


FUSED_MODULES = engine._fused


@pytest.fixture
def loops(monkeypatch):
    """The loop each run takes, "shared" or "fused", in order."""
    taken = []
    shared, fused = engine._segment, engine._fused
    monkeypatch.setattr(engine, "_segment", lambda *key: taken.append("shared") or shared(*key))
    monkeypatch.setattr(engine, "_fused", lambda *key: taken.append("fused") or fused(*key))
    return taken


def on_both_loops(spec, config, loops):
    """The outcomes of a first run of `spec`, a structure not remembered,
    on the shared loop, and of a second run, on its fused loop."""
    sfdsim.model._last = None
    loops.clear()
    first = outcome(run_simulation, spec, config)
    second = outcome(run_simulation, spec, config)
    assert loops == ["shared", "fused"], spec.name
    return first, second


class TestFusedLoop:
    """A structure's second run under a method takes its fused loop, which
    gives what the shared loop gives, bit for bit, errors included."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_generated_models(self, method, every, loops):
        errors = set()
        for seed in range(30):
            config = SimConfig(t_start=float(seed % 2), t_end=41.0 + seed % 2,
                               dt=0.5 if seed % 3 == 0 else 1.0, method=method,
                               record_every=every, seed=seed)
            for spec in variants(seed):
                first, second = on_both_loops(spec, config, loops)
                assert second == first, (seed, spec.name)
                errors.add(first[0])
        assert NonFiniteError in errors

    @pytest.mark.parametrize("name", sorted({**HAND_MODELS, **FAULTY}))
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_hand_models(self, name, method, every, loops):
        spec = {**HAND_MODELS, **FAULTY}[name]
        for config in (SimConfig(t_end=12.0, method=method, record_every=every),
                       SimConfig(t_start=1.0, t_end=13.0, dt=0.5, method=method,
                                 record_every=every, seed=5)):
            first, second = on_both_loops(spec, config, loops)
            assert second == first

    def test_failing_runs_fail_alike(self, loops):
        cases = {
            ("stage_fault", "rk4"): (NonFiniteError, "out", 0.5),
            ("unconverged_cycle", "euler"): (ClampError, None, 0.0),
            ("infinite_auxiliary", "rk4"): (NonFiniteError, "a", 1.5),
            ("action_reads_infinite_auxiliary", "euler"): (NonFiniteError, "a", 4.0),
            ("action_value_overflows", "euler"): (NonFiniteError, "event e", 4.0),
            ("event_fault", "euler"): (NonFiniteError, "event boom", 4.0),
            ("event_overflow", "rk4"): (NonFiniteError, "event boom", 4.0),
            ("unbound_in_bind", "euler"): (NonFiniteError, "inv", 0.0),
        }
        for (name, method), (error, variable, t) in cases.items():
            spec = {**HAND_MODELS, **FAULTY}[name]
            first, second = on_both_loops(spec, SimConfig(t_end=12.0, method=method), loops)
            assert second == first
            assert first[:2] == (error, variable) and first[3] == bits([t]), name

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_random_topologies(self, method, every, loops):
        for seed in range(60):
            config = SimConfig(t_end=12.0, method=method, record_every=every)
            first, second = on_both_loops(random_topology(seed), config, loops)
            assert second == first, seed

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_noisy_plant_with_events(self, method, every, loops):
        spec = (build_baseline().with_params({"NoiseStdDev": 1.5})
                .with_event_schedule("pickup", start=7.0, interval=7.0))
        config = SimConfig(t_start=2.0, t_end=122.0, dt=0.5, method=method,
                           record_every=every, seed=11)
        first, second = on_both_loops(spec, config, loops)
        assert second == first
        assert len(first[-2]) > 20  # the pickups fired

    def test_variants_share_the_count_and_the_module(self, loops):
        # The first run of a structure under a method takes the shared
        # loop; every later run of it or of a variant, the fused loop. A
        # module is compiled once per source, topology and event plan: a
        # schedule is not part of it, a stock's floor is.
        spec, config = build_baseline(), SimConfig(t_end=60.0)
        compiled = FUSED_MODULES  # `_fused` itself, which the fixture wraps
        compiled.cache_clear()
        run_simulation(spec, config)
        for dose in (1.0, 2.0):
            run_simulation(spec.with_params({"Dose": dose}), config)
        run_simulation(spec.with_event_schedule("pickup", 10.0, 10.0), config)
        run_simulation(spec, SimConfig(t_end=60.0, method="rk4"))
        assert loops == ["shared", "fused", "fused", "fused", "shared"]
        assert compiled.cache_info().misses == 1
        free = dataclasses.replace(spec.stocks[1], non_negative=False)
        run_simulation(dataclasses.replace(spec, stocks=(spec.stocks[0], free, spec.stocks[2])),
                       config)
        assert loops[-1] == "fused" and compiled.cache_info().misses == 2

    def test_a_forgotten_structure_counts_again(self, loops):
        a, b, config = generate_model(1), generate_model(2), SimConfig(t_end=10.0)
        for _ in range(3):
            run_simulation(a, config)
            run_simulation(b, config)
        assert loops == ["shared"] * 6
        run_simulation(b, config)
        assert loops[-1] == "fused"

    def test_a_fused_run_binds_once(self, monkeypatch):
        binds = []
        fused = engine._fused

        def counted(*key):
            bind = fused(*key)
            return lambda *params: binds.append(params) or bind(*params)

        monkeypatch.setattr(engine, "_fused", counted)
        spec, config = build_baseline(), SimConfig(t_end=30.0)
        run_simulation(spec, config)
        for dose in (1.0, 2.0, 3.0):
            run_simulation(spec.with_params({"Dose": dose}), config)
        dose = [p.name for p in spec.parameters].index("Dose")
        assert [params[dose] for params in binds] == [1.0, 2.0, 3.0]

    def test_the_evaluator_runs_only_where_the_fused_loop_needs_it(self):
        # For the final row, and for an action that reads an auxiliary.
        run_simulation(build_baseline(), SimConfig(t_end=365.0))
        assert evaluations(build_baseline(), SimConfig(t_end=365.0))[1] == [365.0]
        spec = HAND_MODELS["event_reads_computed"]
        run_simulation(spec, SimConfig(t_end=12.0))
        traj, calls = evaluations(spec, SimConfig(t_end=12.0))
        assert calls == [2.0, 5.0, 8.0, 11.0, 12.0] == [*sorted({e.t for e in traj.events}), 12.0]

    def test_a_fault_the_evaluator_passes_is_an_internal_error(self):
        # The fused stage hands a fault to the evaluator, which must raise.
        spec, config = HAND_MODELS["stage_fault"], SimConfig(t_end=3.0, method="rk4")
        vm = validate_model(spec)
        bind = engine._fused(vm._emitted, engine._topology(spec, "rk4"), engine._event_plan(spec))
        segment = bind(*vm.params.values())
        draws = engine._noise_draws(False, config, 3)
        with pytest.raises(RuntimeError, match="inlined statements fault"):
            segment([(3, None)], {"S": 0.0}, [].append, 0.0, 1.0, 1, [], [],
                    lambda *args: None, ("S",), *draws, 1.0, 0.0)
