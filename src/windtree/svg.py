"""Minimal SVG rendering of a trajectory for eyeballing against figures.

One polyline for the path over the obstacle forest, drawn as one rect
filled with a pattern whose tile is one period-2 cell holding one grey
square. Static markup only.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import io
from .billiard import TrajectoryLog

_CANVAS = 900.0
_PAD = 1.5


def trajectory_svg_text(log: TrajectoryLog) -> str:
    xs = np.concatenate(([log.initial.position.x], log.x))
    ys = np.concatenate(([log.initial.position.y], log.y))
    x0, x1 = float(xs.min()) - _PAD, float(xs.max()) + _PAD
    y0, y1 = float(ys.min()) - _PAD, float(ys.max()) + _PAD
    span = max(x1 - x0, y1 - y0)
    scale = _CANVAS / span

    def to_px(x, y):
        # SVG y axis points down; floats or arrays alike
        return (x - x0) * scale, (y1 - y) * scale

    width = (x1 - x0) * scale
    height = (y1 - y0) * scale
    # One tile is the period-2 cell whose top-left corner is the even lattice
    # point at or beyond the canvas' top-left, with its obstacle centered in
    # it. Tile numbers keep every digit (shortest round-trip form), so the
    # squares do not drift over the tiles that cross the canvas.
    tile_x, tile_y = to_px(2.0 * math.floor(x0 / 2.0), 2.0 * math.ceil(y1 / 2.0))
    side = scale  # obstacle squares have unit side
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<defs><pattern id="forest" patternUnits="userSpaceOnUse" x="{tile_x!r}" '
        f'y="{tile_y!r}" width="{2 * side!r}" height="{2 * side!r}">',
        f'<rect x="{side / 2!r}" y="{side / 2!r}" width="{side!r}" '
        f'height="{side!r}" fill="#d0d0d0" stroke="#909090" stroke-width="0.5"/>',
        '</pattern></defs>',
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="white"/>',
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="url(#forest)"/>',
    ]
    px, py = to_px(xs, ys)
    coords = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#d03020" stroke-width="1.2"/>'
    )
    parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" fill="#2040c0"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trajectory_svg(log: TrajectoryLog, path: Path | str) -> None:
    io.atomic_write(trajectory_svg_text(log), path)
