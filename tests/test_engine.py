"""Integrator semantics: stepping, clamping, events, recording, output."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import sfdsim.engine as engine
import sfdsim.expr
from sfdsim import (
    AuxDef,
    ClampError,
    EventAction,
    EventDef,
    EventGridError,
    FlowDef,
    ModelSpec,
    NonFiniteError,
    NotRecordedError,
    ParamDef,
    SfdError,
    SimConfig,
    StockDef,
    Trajectory,
    parse_expression,
    run_simulation,
)

from modelgen import generate_model
from reference_integrator import attachments


def make_model(stocks, flows, auxes=(), params=(), events=()) -> ModelSpec:
    return ModelSpec(
        name="M",
        stocks=tuple(stocks),
        flows=tuple(flows),
        auxiliaries=tuple(auxes),
        parameters=tuple(params),
        events=tuple(events),
    )


def expr(text: str):
    return parse_expression(text)


def recorded(column) -> Trajectory:
    """A trajectory of one column `Z` recorded on days 0, 1, 2, ..."""
    return Trajectory(
        row_times=[float(day) for day in range(len(column))], columns=("Z",),
        rows=[(v,) for v in column], events=(), parameters={}, flow_integrals={},
        event_deltas={}, config=SimConfig(t_end=float(len(column) - 1)),
    )


class TestEulerStepping:
    def test_two_stock_chain_three_steps(self):
        # A drains 10% per day into B: 100 -> 90 -> 81 -> 72.9.
        spec = make_model(
            stocks=[StockDef("A", 100.0), StockDef("B", 0.0)],
            flows=[FlowDef("move", expr("0.1 * A"), "A", "B")],
        )
        traj = run_simulation(spec, SimConfig(t_end=3.0))
        assert traj.series("A") == [100.0, 90.0, 81.0, 72.9]
        assert traj.series("B") == [0.0, 10.0, 19.0, 27.1]
        assert traj.final("A") + traj.final("B") == 100.0

    def test_constant_inflow(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("2.5"), None, "S")],
        )
        traj = run_simulation(spec, SimConfig(t_end=4.0))
        assert traj.final("S") == 10.0
        assert traj.flow_integrals["feed"] == 10.0

    def test_dt_scaling(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("3"), None, "S")],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0, dt=0.25))
        assert len(traj.row_times) == 5
        assert traj.final("S") == 3.0


class TestConservingClamp:
    def test_outflow_scaled_to_available_mass(self):
        # Demand 5/day from a stock holding 1: only 1 leaves, stock hits 0.
        spec = make_model(
            stocks=[StockDef("S", 1.0)],
            flows=[FlowDef("out", expr("5"), "S", None)],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("S") == 0.0
        assert traj.flow_integrals["out"] == 1.0

    def test_scaling_preserves_mass_downstream(self):
        spec = make_model(
            stocks=[StockDef("A", 1.0), StockDef("B", 0.0)],
            flows=[FlowDef("move", expr("5"), "A", "B")],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("A") == 0.0
        assert traj.final("B") == 1.0

    def test_chain_propagation(self):
        # A can only send 1 to B, so B's own outflow must scale to 1 too.
        spec = make_model(
            stocks=[StockDef("A", 1.0), StockDef("B", 0.0)],
            flows=[
                FlowDef("a2b", expr("5"), "A", "B"),
                FlowDef("bout", expr("4"), "B", None),
            ],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("A") == 0.0
        assert traj.final("B") == 0.0
        assert traj.flow_integrals["a2b"] == 1.0
        assert traj.flow_integrals["bout"] == 1.0

    def test_partial_scaling_splits_proportionally(self):
        # Two outflows demand 3 and 1 from a stock of 2: both scale by 1/2.
        spec = make_model(
            stocks=[StockDef("S", 2.0)],
            flows=[
                FlowDef("big", expr("3"), "S", None),
                FlowDef("small", expr("1"), "S", None),
            ],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("S") == 0.0
        assert traj.flow_integrals["big"] == 1.5
        assert traj.flow_integrals["small"] == 0.5

    def test_allow_negative_stock_is_not_clamped(self):
        spec = make_model(
            stocks=[StockDef("S", 1.0, non_negative=False)],
            flows=[FlowDef("out", expr("5"), "S", None)],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("S") == -4.0
        assert traj.flow_integrals["out"] == 5.0

    def test_chain_declared_downstream_first(self):
        # Upstream factors settle first whatever the declaration order.
        flows = [FlowDef("a2b", expr("5"), "A", "B"), FlowDef("bout", expr("4"), "B", None)]
        forward = make_model([StockDef("A", 1.0), StockDef("B", 0.0)], flows)
        backward = make_model([StockDef("B", 0.0), StockDef("A", 1.0)], flows[::-1])
        a = run_simulation(forward, SimConfig(t_end=3.0))
        b = run_simulation(backward, SimConfig(t_end=3.0))
        assert b.flow_integrals == a.flow_integrals == {"a2b": 1.0, "bout": 1.0}
        assert (b.final("A"), b.final("B")) == (0.0, 0.0)

    def test_converging_cycle(self):
        # A sends 5/day to B and gets 1/day back: A can pass on 2, B keeps 1.
        spec = make_model(
            stocks=[StockDef("A", 1.0), StockDef("B", 0.0)],
            flows=[FlowDef("ab", expr("5"), "A", "B"), FlowDef("ba", expr("1"), "B", "A")],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.flow_integrals == {"ab": 2.0, "ba": 1.0}
        assert (traj.final("A"), traj.final("B")) == (0.0, 1.0)

    def test_unconverged_cycle_raises(self):
        # Around the A <-> B loop each pass keeps 10/10.001 of the flow, so
        # the factors creep towards 0 far slower than the pass cap allows.
        # Flooring A instead would let outA drain mass the system never had.
        spec = make_model(
            stocks=[StockDef("A", 0.0), StockDef("B", 0.0)],
            flows=[
                FlowDef("ab", expr("10"), "A", "B"),
                FlowDef("ba", expr("9.9"), "B", "A"),
                FlowDef("outA", expr("0.001"), "A", None),
            ],
        )
        with pytest.raises(ClampError) as err:
            run_simulation(spec, SimConfig(t_end=5.0))
        assert err.value.stocks == ("A", "B")
        assert err.value.t == 0.0
        assert "A, B" in str(err.value) and "t=0" in str(err.value)

    def test_recorded_rate_is_instantaneous_demand(self):
        # The column shows the evaluated rate; realized amounts live in
        # flow_integrals.
        spec = make_model(
            stocks=[StockDef("S", 1.0)],
            flows=[FlowDef("out", expr("5"), "S", None)],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.series("out") == [5.0, 5.0]
        assert traj.flow_integrals["out"] == 1.0


class TestRk4:
    def test_single_decay_step_matches_hand_value(self):
        spec = make_model(
            stocks=[StockDef("S", 1.0)],
            flows=[FlowDef("decay", expr("S"), "S", None)],
        )
        traj = run_simulation(spec, SimConfig(t_end=0.1, dt=0.1, method="rk4"))
        assert traj.final("S") == pytest.approx(0.9048375, rel=1e-12)
        assert abs(traj.final("S") - math.exp(-0.1)) < 1e-7

    def test_more_accurate_than_euler(self):
        spec = make_model(
            stocks=[StockDef("S", 1.0)],
            flows=[FlowDef("decay", expr("S"), "S", None)],
        )
        cfg = dict(t_end=1.0, dt=0.1)
        euler = run_simulation(spec, SimConfig(**cfg, method="euler"))
        rk4 = run_simulation(spec, SimConfig(**cfg, method="rk4"))
        exact = math.exp(-1.0)
        assert abs(rk4.final("S") - exact) < abs(euler.final("S") - exact) / 100

    def test_clamp_applies_to_combined_rates(self):
        spec = make_model(
            stocks=[StockDef("S", 1.0)],
            flows=[FlowDef("out", expr("5"), "S", None)],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0, method="rk4"))
        assert traj.final("S") == 0.0
        assert traj.flow_integrals["out"] == 1.0


def scheduled(stock="S", op="subtract", action_text="min(S, 3000)",
              start=30.0, interval=30.0, name="haul"):
    return EventDef(
        name, start=start, interval=interval,
        actions=(EventAction(stock, op, expr(action_text)),),
    )


def walked_schedule(spec, config, steps):
    """`engine._event_schedule` as it was, walking every firing from each
    event's start, those before t_start included: the differential's
    reference."""
    schedule = {}
    for k, event in enumerate(spec.events):
        rel = (event.start - config.t_start) / config.dt
        n_start = round(rel)
        if abs(rel - n_start) > 1e-9:
            raise EventGridError(
                f"event '{event.name}' start {event.start:g} is off the dt={config.dt:g} grid"
            )
        if event.interval > 0:
            ri = event.interval / config.dt
            n_int = round(ri)
            if n_int == 0 or abs(ri - n_int) > 1e-9:
                raise EventGridError(
                    f"event '{event.name}' interval {event.interval:g} is off the "
                    f"dt={config.dt:g} grid"
                )
        else:
            n_int = 0

        n = n_start
        while n <= steps:
            if n >= 1:
                schedule.setdefault(n, []).append(k)
            if n_int == 0:
                break
            n += n_int
    return schedule


def schedule_outcome(schedule, spec, config, steps):
    """The schedule's items in order, or its error."""
    try:
        return list(schedule(spec, config, steps).items())
    except EventGridError as err:
        return str(err)


class TestEvents:
    def test_sawtooth(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("100"), None, "S")],
            events=[scheduled()],
        )
        traj = run_simulation(spec, SimConfig(t_end=65.0))
        s = traj.series("S")
        assert s[29] == 2900.0
        assert s[30] == 0.0  # rows show post-event state
        assert s[31] == 100.0
        assert s[60] == 0.0
        assert len(traj.events) == 2
        assert traj.events[0].amount == 3000.0
        assert traj.event_deltas["S"] == -6000.0

    def test_event_not_fired_at_t_start(self):
        spec = make_model(
            stocks=[StockDef("S", 50.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
            events=[scheduled(action_text="min(S, 10)", start=0.0, interval=10.0)],
        )
        traj = run_simulation(spec, SimConfig(t_end=25.0))
        assert traj.series("S")[0] == 50.0  # initial row untouched
        assert [e.t for e in traj.events] == [10.0, 20.0]

    def test_one_shot_event(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
            events=[scheduled(op="add", action_text="100", start=5.0, interval=0.0)],
        )
        traj = run_simulation(spec, SimConfig(t_end=20.0))
        assert [e.t for e in traj.events] == [5.0]
        assert traj.final("S") == 120.0

    def test_off_grid_start_rejected(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
            events=[scheduled(start=2.5, interval=10.0)],
        )
        with pytest.raises(EventGridError):
            run_simulation(spec, SimConfig(t_end=20.0))
        # The same schedule is fine on a finer grid.
        run_simulation(spec, SimConfig(t_end=20.0, dt=0.5))

    def test_off_grid_interval_rejected(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
            events=[scheduled(start=1.0, interval=0.5)],
        )
        with pytest.raises(EventGridError):
            run_simulation(spec, SimConfig(t_end=20.0))

    @pytest.mark.parametrize("seed", range(20))
    def test_schedule_matches_a_walk_of_every_firing(self, seed):
        # Random grids and schedules, on and off the grid: starts before,
        # at and after t_start, one-shot events, and horizons of 0 steps.
        rng = random.Random(seed)
        for _ in range(20):
            dt = rng.choice((1.0, 0.5, 0.25, 2.0, 0.1))
            t_start = rng.randint(-50, 50) * dt
            events = []
            for k in range(rng.randint(1, 3)):
                start = t_start + rng.randint(-300, 100) * dt
                interval = 0.0 if rng.random() < 0.25 else rng.randint(1, 40) * dt
                if rng.random() < 0.04:
                    start += dt / 3
                if rng.random() < 0.04:
                    interval = dt * 1.5
                events.append(EventDef(f"e{k}", start, interval, ()))
            spec = make_model(stocks=[StockDef("S", 0.0)], flows=[], events=events)
            config = SimConfig(t_start=t_start, t_end=t_start + rng.randint(0, 200) * dt, dt=dt)
            steps = config.step_count()
            assert schedule_outcome(engine._event_schedule, spec, config, steps) == \
                schedule_outcome(walked_schedule, spec, config, steps)

    @pytest.mark.parametrize("start, interval, t_start, expected", [
        (0.0, 30.0, 100.0, [20, 50, 80]),  # starts before t_start
        (100.0, 30.0, 100.0, [30, 60, 90]),  # starts on step 0: skipped there
        (40.0, 0.0, 10.0, [30]),  # one-shot
        (10.0, 0.0, 40.0, []),  # one-shot before t_start
        (10.0, 0.0, 10.0, []),  # one-shot on step 0
        (200.0, 0.0, 10.0, []),  # one-shot past t_end
    ])
    def test_schedule_edges(self, start, interval, t_start, expected):
        spec = make_model(stocks=[StockDef("S", 0.0)], flows=[],
                          events=[EventDef("e", start, interval, ())])
        config = SimConfig(t_start=t_start, t_end=t_start + 100.0)
        assert engine._event_schedule(spec, config, 100) == {n: [0] for n in expected}
        assert walked_schedule(spec, config, 100) == {n: [0] for n in expected}

    def test_actions_snapshot_pre_event_state(self):
        # Both actions see S = 5 even though the first removes 3 of it.
        spec = make_model(
            stocks=[StockDef("S", 5.0), StockDef("Moved", 0.0)],
            flows=[FlowDef("feed", expr("0"), None, "S")],
            events=[EventDef("shift", 1.0, 0.0, (
                EventAction("S", "subtract", expr("min(S, 3)")),
                EventAction("Moved", "add", expr("min(S, 3)")),
            ))],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("S") == 2.0
        assert traj.final("Moved") == 3.0

    def test_events_fire_in_declaration_order(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("0"), None, "S")],
            events=[
                EventDef("first", 1.0, 0.0,
                         (EventAction("S", "add", expr("10")),)),
                EventDef("second", 1.0, 0.0,
                         (EventAction("S", "subtract", expr("min(S, 4)")),)),
            ],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("S") == 6.0
        assert [e.event for e in traj.events] == ["first", "second"]
        assert [e.amount for e in traj.events] == [10.0, 4.0]

    def test_subtract_floors_at_zero(self):
        spec = make_model(
            stocks=[StockDef("S", 5.0)],
            flows=[FlowDef("feed", expr("0"), None, "S")],
            events=[scheduled(action_text="100", start=1.0, interval=0.0)],
        )
        traj = run_simulation(spec, SimConfig(t_end=1.0))
        assert traj.final("S") == 0.0
        assert traj.events[0].amount == 5.0  # only what was there

    def test_set_action(self):
        spec = make_model(
            stocks=[StockDef("S", 5.0)],
            flows=[FlowDef("feed", expr("0"), None, "S")],
            events=[scheduled(op="set", action_text="42", start=1.0, interval=0.0)],
        )
        traj = run_simulation(spec, SimConfig(t_end=2.0))
        assert traj.final("S") == 42.0
        assert traj.events[0].amount == 42.0


class TestConfig:
    def test_zero_length_horizon_records_initial_row(self):
        spec = make_model(
            stocks=[StockDef("S", 7.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
        )
        traj = run_simulation(spec, SimConfig(t_end=0.0))
        assert traj.row_times == [0.0]
        assert traj.final("S") == 7.0

    def test_fractional_step_count_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(t_end=10.3, dt=1.0).step_count()

    @pytest.mark.parametrize("t_end, dt", [(2.0, 1e-9), (1e12, 1.0)])
    def test_a_horizon_past_the_step_cap_rejected(self, t_end, dt):
        with pytest.raises(ValueError, match="has over 10000000 steps"):
            SimConfig(t_end=t_end, dt=dt).step_count()

    def test_the_step_cap_itself_is_allowed(self):
        assert SimConfig(t_end=1e7, dt=1.0).step_count() == 10_000_000

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(method="heun")
        with pytest.raises(ValueError):
            SimConfig(record_every=0)

    @pytest.mark.parametrize("field, value", [("record_every", 2.5), ("record_every", 2.0),
                                              ("seed", 1.5), ("seed", 1.0), ("seed", "1")])
    def test_non_integer_counts_rejected(self, field, value):
        # A fractional stride would record off its own grid, and a float seed
        # would fail only once a noisy run draws, as a TypeError.
        with pytest.raises(ValueError, match="must be integers"):
            SimConfig(t_end=10.0, **{field: value})

    def test_record_every_keeps_final_row(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
        )
        traj = run_simulation(spec, SimConfig(t_end=30.0, record_every=7))
        assert traj.row_times == [0.0, 7.0, 14.0, 21.0, 28.0, 30.0]

    def test_nonzero_t_start(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("t"), None, "S")],
            events=[scheduled(op="add", action_text="5", start=12.0, interval=0.0)],
        )
        traj = run_simulation(spec, SimConfig(t_start=10.0, t_end=14.0))
        assert traj.row_times == [10.0, 11.0, 12.0, 13.0, 14.0]
        # Euler integral of t over [10, 14) plus the one-shot event.
        assert traj.final("S") == 10.0 + 11.0 + 12.0 + 13.0 + 5.0


class TestFailureModes:
    def test_division_by_zero_reports_variable_and_time(self):
        spec = make_model(
            stocks=[StockDef("S", 2.0)],
            flows=[FlowDef("out", expr("1 / (S - 1)"), "S", None)],
        )
        with pytest.raises(NonFiniteError) as err:
            run_simulation(spec, SimConfig(t_end=10.0))
        assert err.value.name == "out"

    def test_overflow_detected(self):
        spec = make_model(
            stocks=[StockDef("S", 1.0)],
            flows=[FlowDef("grow", expr("exp(t * 10)"), None, "S")],
        )
        with pytest.raises(NonFiniteError):
            run_simulation(spec, SimConfig(t_end=200.0))


class TestTrajectoryApi:
    def make(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("1"), None, "S")],
            auxes=[AuxDef("doubled", expr("S * 2"))],
            params=[ParamDef("K", 3.0)],
        )
        return run_simulation(spec, SimConfig(t_end=5.0))

    def test_columns_are_stocks_flows_auxes(self):
        traj = self.make()
        assert traj.columns == ("S", "feed", "doubled")

    def test_series_reads_one_column_of_the_rows(self):
        traj = self.make()
        doubled = traj.series("doubled")
        assert type(doubled) is list
        assert doubled == [row[2] for row in traj.rows] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_at_exact_grid_time(self):
        traj = self.make()
        assert traj.at("S", 3.0) == 3.0
        with pytest.raises(NotRecordedError, match="t=2.5 is not a recorded time"):
            traj.at("S", 2.5)

    def test_unknown_column(self):
        traj = self.make()
        for read in (traj.series, traj.final, traj.peak, lambda name: traj.at(name, 3.0)):
            with pytest.raises(NotRecordedError) as err:
                read("missing")
            assert err.value.args == ("no recorded column 'missing'",)

    def test_not_recorded_is_a_key_error_of_the_package(self):
        assert issubclass(NotRecordedError, KeyError) and issubclass(NotRecordedError, SfdError)

    def test_parameters_snapshot(self):
        traj = self.make()
        assert traj.parameters == {"K": 3.0}

    def test_csv_shape(self):
        traj = self.make()
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,S,feed,doubled"
        assert lines[1] == "0.000000,0.000000,1.000000,0.000000"
        assert len(lines) == 7
        assert traj.to_csv().endswith("\n")

    def test_arrays_are_built_once_from_the_rows(self):
        traj = self.make()
        assert isinstance(traj.values, np.ndarray) and isinstance(traj.times, np.ndarray)
        assert traj.values is traj.values and traj.times is traj.times
        assert traj.times.tolist() == traj.row_times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert traj.values.tolist() == [list(row) for row in traj.rows]

    def test_accessors_return_python_floats(self):
        # Integer time bounds record integer times; the accessors still
        # return floats, as they did when reading numpy arrays.
        spec = make_model(stocks=[StockDef("S", 0.0)], flows=[FlowDef("feed", expr("1"), None, "S")])
        traj = run_simulation(spec, SimConfig(t_start=0, t_end=4, dt=1))
        for value in (traj.final("S"), traj.peak("S"), traj.at("S", 2), traj.at("feed", 4)):
            assert type(value) is float
        assert (traj.final("S"), traj.peak("S"), traj.at("S", 2)) == (4.0, 4.0, 2.0)

    @pytest.mark.parametrize("column", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (-3.0, -0.0, 0.0)])
    def test_peak_of_zero_is_positive_zero(self, column):
        traj = recorded(column)
        assert math.copysign(1.0, traj.peak("Z")) == 1.0
        assert "%.6f" % traj.peak("Z") == "0.000000"

    def test_events_csv_header(self):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("100"), None, "S")],
            events=[scheduled()],
        )
        traj = run_simulation(spec, SimConfig(t_end=35.0))
        lines = traj.events_to_csv().splitlines()
        assert lines[0] == "t,event,target,amount"
        assert lines[1] == "30.000000,haul,S,3000.000000"


class TestMassBalance:
    @pytest.mark.parametrize("seed", range(8))
    def test_balance_identity_random_models(self, seed):
        spec = generate_model(seed)
        method = "rk4" if seed % 2 else "euler"
        traj = run_simulation(spec, SimConfig(t_end=365.0, method=method))
        inflows, outflows = attachments(spec)
        for stock in spec.stocks:
            inflow = sum(traj.flow_integrals[f] for f in inflows[stock.name])
            outflow = sum(traj.flow_integrals[f] for f in outflows[stock.name])
            expected = stock.initial + inflow - outflow + traj.event_deltas[stock.name]
            scale = max(1.0, abs(expected), abs(traj.final(stock.name)))
            assert abs(traj.final(stock.name) - expected) / scale < 1e-9
            assert min(traj.series(stock.name)) >= 0.0


class TestDeterminism:
    def test_repeat_runs_identical(self):
        spec = generate_model(3)
        a = run_simulation(spec, SimConfig(t_end=200.0, seed=5))
        b = run_simulation(spec, SimConfig(t_end=200.0, seed=5))
        assert (a.row_times, a.rows) == (b.row_times, b.rows)
        assert a.to_csv() == b.to_csv()

    def test_noise_keyed_by_day_not_call_order(self, baseline_spec):
        noisy = baseline_spec.with_params({"NoiseStdDev": 2.0})
        dense = run_simulation(noisy, SimConfig(t_end=50.0, seed=9))
        sparse = run_simulation(noisy, SimConfig(t_end=50.0, seed=9, record_every=5))
        for t in range(0, 51, 5):
            assert sparse.at("temperature", float(t)) == dense.at("temperature", float(t))

    def test_seed_changes_noisy_output(self, baseline_spec):
        noisy = baseline_spec.with_params({"NoiseStdDev": 2.0})
        a = run_simulation(noisy, SimConfig(t_end=50.0, seed=1))
        b = run_simulation(noisy, SimConfig(t_end=50.0, seed=2))
        assert a.rows != b.rows


class TestLazyNoise:
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = sfdsim.expr.daily_gauss

        def counting(seed, day):
            calls.append(day)
            return real(seed, day)

        monkeypatch.setattr(sfdsim.expr, "daily_gauss", counting)
        return calls

    def test_zero_noise_scale_draws_nothing(self, baseline_spec, draws):
        assert baseline_spec.param("NoiseStdDev") == 0.0
        run_simulation(baseline_spec, SimConfig(t_end=365.0))
        assert draws == []

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_one_draw_per_simulated_day(self, baseline_spec, draws, method):
        noisy = baseline_spec.with_params({"NoiseStdDev": 1.5})
        run_simulation(noisy, SimConfig(t_end=365.0, method=method))
        assert draws == list(range(366))  # days 0 through 365

    def test_state_dependent_scale_draws(self, draws):
        spec = make_model(
            stocks=[StockDef("S", 0.0)],
            flows=[FlowDef("feed", expr("1 + noise(S * 0.1)"), None, "S")],
        )
        traj = run_simulation(spec, SimConfig(t_end=10.0))
        assert draws == list(range(11))
        feed = traj.series("feed")
        assert feed[0] == 1.0
        assert feed[1] != 1.0
