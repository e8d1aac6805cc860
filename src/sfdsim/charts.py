"""Standalone SVG charts for trajectories.

One panel per plotted column, stacked vertically and sharing the time
axis. Output is plain SVG text with no external references, and rendering
is deterministic: the same trajectory always yields byte-identical markup.
"""

from __future__ import annotations

import math
import sys

from .engine import Trajectory

_PALETTE = ("#2563eb", "#dc2626", "#059669", "#7c3aed", "#d97706", "#0891b2")

_WIDTH = 900
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 24
_PANEL_LABEL_H = 22
_PANEL_PLOT_H = 120
_PANEL_GAP = 18
_TOP_PAD = 16
_BOTTOM_PAD = 34
_TITLE_H = 30


def _label(v: float) -> str:
    return f"{v:.6g}"


def render_chart(traj: Trajectory, columns: list[str] | tuple[str, ...],
                 title: str | None = None) -> str:
    """Render the chosen columns of a trajectory as stacked SVG panels."""
    if not columns:
        raise ValueError("at least one column is required")
    times = [float(t) for t in traj.row_times]
    if not times:
        raise ValueError("trajectory has no recorded rows")
    panels = [traj.series(name) for name in columns]  # raises early on unknown names

    t0 = times[0]
    t1 = times[-1]
    span = t1 - t0 if t1 > t0 else 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    xs = [f"{_MARGIN_LEFT + (t - t0) / span * plot_w:.2f}" for t in times]

    panel_h = _PANEL_LABEL_H + _PANEL_PLOT_H + _PANEL_GAP
    title_h = _TITLE_H if title else 0
    height = _TOP_PAD + title_h + len(columns) * panel_h + _BOTTOM_PAD

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">'
    )
    out.append(
        "<style>text{font-family:Menlo,Consolas,monospace;font-size:12px;"
        "fill:#1f2937}.panel{fill:#f8fafc;stroke:#cbd5e1}.grid{stroke:#e2e8f0}"
        ".name{font-size:13px;font-weight:bold}</style>"
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="#ffffff"/>')

    y_cursor = _TOP_PAD
    if title:
        out.append(
            f'<text class="name" x="{_MARGIN_LEFT}" y="{y_cursor + 14}">{_escape(title)}</text>'
        )
        y_cursor += _TITLE_H

    for idx, (name, series) in enumerate(zip(columns, panels)):
        # Bounds of zero read +0.0 whichever sign of zero comes first.
        lo = min(series) + 0.0
        hi = max(series) + 0.0
        if hi <= lo:
            lo, hi = lo - 1.0, hi + 1.0
            if hi <= lo:  # beyond 2**53 the 1.0 is lost to rounding
                lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        color = _PALETTE[idx % len(_PALETTE)]

        label_y = y_cursor + 14
        plot_y = y_cursor + _PANEL_LABEL_H
        out.append(f'<text class="name" x="{_MARGIN_LEFT}" y="{label_y}">{_escape(name)}</text>')
        out.append(
            f'<rect class="panel" x="{_MARGIN_LEFT}" y="{plot_y}" '
            f'width="{plot_w}" height="{_PANEL_PLOT_H}"/>'
        )
        mid_y = f"{plot_y + _PANEL_PLOT_H / 2:.2f}"
        out.append(
            f'<line class="grid" x1="{_MARGIN_LEFT}" y1="{mid_y}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{mid_y}"/>'
        )

        bottom, values, shift, scale = plot_y + _PANEL_PLOT_H, series, lo, hi - lo
        if not math.isfinite(scale):
            # Wider than the largest float: keep the bounds finite and scale
            # from halves, whose differences cannot overflow.
            lo, hi = max(lo, -sys.float_info.max), min(hi, sys.float_info.max)
            values, shift, scale = [v / 2 for v in series], lo / 2, hi / 2 - lo / 2
        points = " ".join([f"{x},{bottom - (v - shift) / scale * _PANEL_PLOT_H:.2f}"
                           for x, v in zip(xs, values)])
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{plot_y + 12}" '
            f'text-anchor="end">{_label(hi)}</text>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{plot_y + _PANEL_PLOT_H}" '
            f'text-anchor="end">{_label(lo)}</text>'
        )
        y_cursor += panel_h

    axis_y = y_cursor - _PANEL_GAP + 18
    out.append(f'<text x="{_MARGIN_LEFT}" y="{axis_y}">t = {_label(t0)}</text>')
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w}" y="{axis_y}" '
        f'text-anchor="end">t = {_label(t1)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
