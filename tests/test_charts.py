"""SVG chart rendering."""

from __future__ import annotations

import math
import re

import pytest

from sfdsim import SimConfig, Trajectory, charts, parse_model, render_chart, run_simulation


@pytest.fixture(scope="module")
def short_run(baseline_spec):
    return run_simulation(baseline_spec, SimConfig(t_end=60.0))


class TestRenderChart:
    def test_one_panel_per_column(self, short_run):
        svg = render_chart(short_run, ["AccumulatedVinasse", "AccumulatedSludge"])
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "AccumulatedVinasse" in svg and "AccumulatedSludge" in svg

    def test_title_is_escaped(self, short_run):
        svg = render_chart(short_run, ["TotalCost"], title="cost <&> more")
        assert "cost &lt;&amp;&gt; more" in svg
        assert "<&>" not in svg

    def test_deterministic(self, short_run):
        columns = ["AccumulatedVinasse", "TotalCost"]
        assert render_chart(short_run, columns) == render_chart(short_run, columns)

    def test_flat_series_still_renders(self, baseline_spec):
        # Beyond 2**53 a padding of 1.0 rounds away, and the range with it.
        big = parse_model("model Big { stock S = 1e20 flow f : S -> = 0 }")
        mid = charts._TOP_PAD + charts._PANEL_LABEL_H + charts._PANEL_PLOT_H / 2
        for spec, t_end, column in ((baseline_spec, 0.0, "AccumulatedVinasse"),
                                    (big, 3.0, "S")):
            traj = run_simulation(spec, SimConfig(t_end=t_end))
            svg = render_chart(traj, [column])
            assert "<polyline" in svg
            (points,) = re.findall(r'points="([^"]*)"', svg)
            assert {point.split(",")[1] for point in points.split()} == {f"{mid:.2f}"}

    @pytest.mark.parametrize("text, ys", [
        ("model Wide { stock S = -1e308 allow_negative flow f : -> S = 1e308 }",
         ["158.00", "98.00", "38.00"]),
        ("model Top { stock S = 1.7976931348623157e308 flow f : S -> = 0 }", None),
        ("model Bottom { stock S = -1.7976931348623157e308 allow_negative flow f : S -> = 0 }",
         None),
    ], ids=["wider-than-the-largest-float", "flat-at-the-largest", "flat-at-the-lowest"])
    def test_huge_ranges_give_finite_coordinates_and_labels(self, text, ys):
        traj = run_simulation(parse_model(text), SimConfig(t_end=2.0))
        svg = render_chart(traj, ["S"])
        (points,) = re.findall(r'points="([^"]*)"', svg)
        pairs = [point.split(",") for point in points.split()]
        labels = re.findall(rf'<text x="{charts._MARGIN_LEFT - 6}" [^>]*>([^<]*)<', svg)
        assert len(labels) == 2
        assert all(math.isfinite(float(v)) for v in [*labels, *(c for pair in pairs for c in pair)])
        if ys is not None:
            assert [y for _, y in pairs] == ys

    def test_points_are_the_scaled_time_and_value(self, short_run):
        columns = ["AccumulatedVinasse", "TotalCost", "temperature"]
        svg = render_chart(short_run, columns, title="run")
        times = short_run.row_times
        plot_w = charts._WIDTH - charts._MARGIN_LEFT - charts._MARGIN_RIGHT
        panel_h = charts._PANEL_LABEL_H + charts._PANEL_PLOT_H + charts._PANEL_GAP
        got = re.findall(r'points="([^"]*)"', svg)
        assert len(got) == len(columns)
        for idx, (name, points) in enumerate(zip(columns, got)):
            series = short_run.series(name)
            lo, hi = min(series) + 0.0, max(series) + 0.0
            plot_y = charts._TOP_PAD + charts._TITLE_H + idx * panel_h + charts._PANEL_LABEL_H
            expected = []
            for t, v in zip(times, series):
                x = charts._MARGIN_LEFT + (t - times[0]) / (times[-1] - times[0]) * plot_w
                y = plot_y + charts._PANEL_PLOT_H - (v - lo) / (hi - lo) * charts._PANEL_PLOT_H
                expected.append(f"{x:.2f},{y:.2f}")
            assert points == " ".join(expected), name

    def test_unknown_column_rejected(self, short_run):
        with pytest.raises(KeyError):
            render_chart(short_run, ["NoSuchSeries"])

    def test_empty_columns_rejected(self, short_run):
        with pytest.raises(ValueError):
            render_chart(short_run, [])

    @pytest.mark.parametrize("column, bounds", [
        ((-2.0, -0.0, 0.0), (">0<", ">-2<")),
        ((-2.0, 0.0, -0.0), (">0<", ">-2<")),
        ((0.0, -0.0, 3.0), (">3<", ">0<")),
        ((-0.0, 0.0, 3.0), (">3<", ">0<")),
    ])
    def test_zero_bounds_print_without_sign(self, column, bounds):
        traj = Trajectory(
            row_times=[0.0, 1.0, 2.0], columns=("Z",), rows=[(v,) for v in column],
            events=(), parameters={}, flow_integrals={}, event_deltas={},
            config=SimConfig(t_end=2.0),
        )
        svg = render_chart(traj, ["Z"])
        hi, lo = bounds
        assert f'text-anchor="end"{hi}' in svg and f'text-anchor="end"{lo}' in svg
        assert ">-0<" not in svg
