"""Minimal SVG rendering of a trajectory for eyeballing against figures.

One polyline for the path, grey squares for every obstacle inside the
trajectory's bounding region. Static markup only.
"""

from __future__ import annotations

import math
from pathlib import Path

from .billiard import TrajectoryLog

_CANVAS = 900.0
_PAD = 1.5


def trajectory_svg_text(log: TrajectoryLog) -> str:
    xs = [log.initial.position.x, *log.x.tolist()]
    ys = [log.initial.position.y, *log.y.tolist()]
    x0, x1 = min(xs) - _PAD, max(xs) + _PAD
    y0, y1 = min(ys) - _PAD, max(ys) + _PAD
    span = max(x1 - x0, y1 - y0)
    scale = _CANVAS / span

    def to_px(x: float, y: float) -> tuple[float, float]:
        # SVG y axis points down
        return (x - x0) * scale, (y1 - y) * scale

    width = (x1 - x0) * scale
    height = (y1 - y0) * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
        f'<rect width="{width:.2f}" height="{height:.2f}" fill="white"/>',
    ]
    side = scale  # obstacle squares have unit side
    for cx in _odd_range(x0, x1):
        for cy in _odd_range(y0, y1):
            px, py = to_px(cx - 0.5, cy + 0.5)
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{side:.2f}" '
                f'height="{side:.2f}" fill="#d0d0d0" stroke="#909090" stroke-width="0.5"/>'
            )
    coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in map(to_px, xs, ys))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#d03020" stroke-width="1.2"/>'
    )
    sx, sy = to_px(xs[0], ys[0])
    parts.append(f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="3" fill="#2040c0"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _odd_range(lo: float, hi: float):
    c = 2 * math.floor((lo - 1.0) / 2.0) + 1  # greatest odd <= lo
    while c <= hi + 1:
        if c + 0.5 >= lo and c - 0.5 <= hi:
            yield c
        c += 2


def write_trajectory_svg(log: TrajectoryLog, path: Path | str) -> None:
    Path(path).write_text(trajectory_svg_text(log))
