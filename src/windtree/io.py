"""Readers and writers for the pipeline artifacts.

CSV numbers are rendered with 17 significant digits, which is enough for a
parse/re-serialize cycle to reproduce the file byte for byte. JSON floats
use Python's shortest round-trip representation, which preserves values
exactly as well.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .billiard import WALLS, ParticleState, TrajectoryLog, Vec2
from .sweep import SlopeObservation, SweepResult


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering."""
    return f"{x:.17g}"


# -- trajectory ------------------------------------------------------------

TRAJECTORY_HEADER = "k,x,y,t,wall"
_WALL_NAMES = [w.value for w in WALLS]


def trajectory_csv_text(log: TrajectoryLog) -> str:
    init = log.initial
    return trajectory_rows_text(
        k=range(len(log) + 1),
        x=[init.position.x, *log.x.tolist()],
        y=[init.position.y, *log.y.tolist()],
        t=[init.elapsed_time, *log.t.tolist()],
        wall=["", *(_WALL_NAMES[c] for c in log.wall.tolist())],
    )


def trajectory_rows_text(k, x, y, t, wall) -> str:
    """CSV text of trajectory columns, one row per index k."""
    lines = [TRAJECTORY_HEADER]
    lines += [f"{a},{fmt(b)},{fmt(c)},{fmt(d)},{e}" for a, b, c, d, e in zip(k, x, y, t, wall)]
    return "\n".join(lines) + "\n"


def write_trajectory_csv(log: TrajectoryLog, path: Path | str) -> None:
    Path(path).write_text(trajectory_csv_text(log))


def read_trajectory_csv(path: Path | str) -> dict:
    """Columns k, x, y, t as arrays and wall as strings ('' on the k=0 row),
    the keyword arguments of trajectory_rows_text."""
    rows = _csv_rows(path, TRAJECTORY_HEADER)
    k, x, y, t, wall = zip(*rows) if rows else ((),) * 5
    return {
        "k": np.array([int(v) for v in k], dtype=np.int64),
        "x": np.array([float(v) for v in x]),
        "y": np.array([float(v) for v in y]),
        "t": np.array([float(v) for v in t]),
        "wall": list(wall),
    }


def _state_to_json(state: ParticleState) -> dict:
    return {
        "position": [state.position.x, state.position.y],
        "velocity": [state.velocity.x, state.velocity.y],
        "elapsed_time": state.elapsed_time,
    }


def _state_from_json(doc: dict) -> ParticleState:
    return ParticleState(
        position=Vec2(*doc["position"]),
        velocity=Vec2(*doc["velocity"]),
        elapsed_time=doc["elapsed_time"],
    )


def trajectory_json_doc(log: TrajectoryLog) -> dict:
    """What trajectory.csv does not hold: the initial state, the post-bounce
    velocity columns and the truncation."""
    return {
        "initial": _state_to_json(log.initial),
        "vx": log.vx.tolist(),
        "vy": log.vy.tolist(),
        "truncated": log.truncated,
        "truncation_reason": log.truncation_reason,
    }


def write_trajectory_json(log: TrajectoryLog, path: Path | str) -> None:
    write_json(trajectory_json_doc(log), path)


def read_trajectory(cols: dict, doc: dict) -> TrajectoryLog:
    """The log of a trajectory.csv, parsed by read_trajectory_csv, joined with
    its trajectory.json document: hit points, times and walls from the CSV,
    velocities and truncation from the JSON."""
    initial = _state_from_json(doc["initial"])
    if [*cols["x"][:1], *cols["y"][:1], *cols["t"][:1]] != [*initial.position,
                                                            initial.elapsed_time]:
        raise ValueError("trajectory.csv row k=0 is not the initial state of trajectory.json")
    return TrajectoryLog(
        initial=initial,
        x=cols["x"][1:],
        y=cols["y"][1:],
        t=cols["t"][1:],
        wall=np.array([_WALL_NAMES.index(w) for w in cols["wall"][1:]], dtype=np.int8),
        vx=np.array(doc["vx"], dtype=float),
        vy=np.array(doc["vy"], dtype=float),
        truncated=doc["truncated"],
        truncation_reason=doc["truncation_reason"],
    )


# -- sweep ------------------------------------------------------------------

SWEEP_HEADER = "t,slope,D,logD"


def sweep_csv_text(observations: Iterable[SlopeObservation]) -> str:
    lines = [SWEEP_HEADER]
    for o in observations:
        lines.append(f"{o.t},{fmt(o.slope)},{fmt(o.min_distance)},{fmt(o.log_min_distance)}")
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path: Path | str) -> None:
    Path(path).write_text(sweep_csv_text(result.observations))


def read_sweep_csv(path: Path | str) -> list[SlopeObservation]:
    return [
        SlopeObservation(t=int(t), slope=float(slope), min_distance=float(d),
                         log_min_distance=float(log_d))
        for t, slope, d, log_d in _csv_rows(path, SWEEP_HEADER)
    ]


def sweep_meta_doc(result: SweepResult, elapsed_seconds: float) -> dict:
    spec = result.spec
    return {
        "spec": {
            "slope_start": spec.slope_start,
            "slope_step": spec.slope_step,
            "count": spec.count,
            "k_min": spec.k_min,
            "k_max": spec.k_max,
        },
        "log_base": "e",
        "completed": len(result.observations),
        "failures": [
            {"t": f.t, "slope": f.slope, "reason": f.reason} for f in result.failures
        ],
        "elapsed_seconds": elapsed_seconds,
    }


# -- model, residuals, histogram ---------------------------------------------

def model_json_doc(report, *, residual_variant: str, gamma_diag_init: float,
                   max_iters: int, tol: float, update_delta: bool) -> dict:
    p = report.params
    return {
        "m": p.m,
        "delta": p.delta.tolist(),
        "gamma": p.gamma.tolist(),
        "mu": p.mu.tolist(),
        "sigma": p.sigma.tolist(),
        "loglik_trace": list(report.loglik_trace),
        "state_order": list(report.state_order),
        "metadata": {
            "init_scheme": "quantile-seeded k-means groups",
            "gamma_diag_init": gamma_diag_init,
            "max_iters": max_iters,
            "tol": tol,
            "iterations": report.iterations,
            "residual_variant": residual_variant,
            "update_delta": update_delta,
            "warnings": list(report.warnings),
        },
    }


RESIDUALS_HEADER = "t,x,u"


def residuals_csv_text(ts: Iterable[int], xs: Iterable[float], us: Iterable[float]) -> str:
    lines = [RESIDUALS_HEADER]
    for t, x, u in zip(ts, xs, us):
        lines.append(f"{t},{fmt(x)},{fmt(u)}")
    return "\n".join(lines) + "\n"


def read_residuals_csv(path: Path | str) -> list[dict]:
    return [{"t": int(t), "x": float(x), "u": float(u)}
            for t, x, u in _csv_rows(path, RESIDUALS_HEADER)]


def histogram_json_doc(counts: np.ndarray) -> dict:
    counts = np.asarray(counts)
    return {
        "bins": int(counts.size),
        "counts": [int(c) for c in counts],
        "total": int(counts.sum()),
    }


# -- generic CSV and JSON helpers ---------------------------------------------

def _csv_rows(path: Path | str, header: str) -> list[list[str]]:
    """The non-blank rows under `header`; ValueError unless the file starts
    with that header and every row has its number of fields."""
    names = header.split(",")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != names:
            raise ValueError(f"unexpected header {first}, want {header}")
        rows = [row for row in reader if row]
    if any(len(row) != len(names) for row in rows):
        raise ValueError(f"row without exactly {len(names)} fields")
    return rows


def write_json(doc: dict, path: Path | str) -> None:
    Path(path).write_text(json_text(doc))


def json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
