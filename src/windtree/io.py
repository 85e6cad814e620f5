"""Readers and writers for the pipeline artifacts.

Each CSV artifact is described once, by its columns and their types; one
renderer (`csv_text`) and one parser (`parse_csv`) work on a dict of
columns for all of them. `ARTIFACTS` lists every text file the commands
write, so that writing one (`write_artifact`) and re-reading it
(`parse_artifact`, `render_artifact`) go through the same codec.

CSV numbers are rendered with 17 significant digits, which is enough for a
parse/re-serialize cycle to reproduce the file byte for byte. JSON floats
use Python's shortest round-trip representation, which preserves values
exactly as well. Every file is written to `<name>.tmp` and moved into place
with `os.replace`, so a file is either its old or its new content.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .billiard import WALLS, ParticleState, TrajectoryLog, Vec2
from .sweep import SweepResult


# -- the codec -------------------------------------------------------------

# Each CSV artifact: its header's column names, in order, and their types.
TRAJECTORY_CSV = {"k": int, "x": float, "y": float, "t": float, "wall": str}
SWEEP_CSV = {"t": int, "slope": float, "D": float, "logD": float}
RESIDUALS_CSV = {"t": int, "x": float, "u": float}

# The text artifacts the commands write, in the order diagnose checks them:
# a CSV by its columns, a JSON document by None. summary.json comes first,
# as its slope gives the trajectory's initial velocity.
ARTIFACTS = {
    "summary.json": None,
    "trajectory.csv": TRAJECTORY_CSV,
    "sweep.csv": SWEEP_CSV,
    "sweep_meta.json": None,
    "model.json": None,
    "residuals.csv": RESIDUALS_CSV,
    "histogram.json": None,
}


def csv_text(columns: dict, spec: dict) -> str:
    """CSV text of `columns` (name -> sequence), one row per index, under
    the header of `spec`: floats with 17 significant digits ("%.17g"),
    other values as `str` does, each row through one %-template."""
    template = ",".join("%.17g" if kind is float else "%s" for kind in spec.values())
    rows = zip(*(v.tolist() if isinstance(v, np.ndarray) else v
                 for v in (columns[name] for name in spec)), strict=True)
    return "\n".join([",".join(spec), *(template % row for row in rows)]) + "\n"


def parse_csv(text: str, spec: dict) -> dict:
    """The columns of a CSV text under the header of `spec`: int and float
    columns as arrays, str columns as lists. Blank rows are skipped;
    ValueError for another header, a row with another number of fields or
    a value its column's type does not parse or int64 does not hold."""
    names = list(spec)
    reader = csv.reader(text.splitlines())
    first = next(reader, None)
    if first != names:
        raise ValueError(f"unexpected header {first}, want {','.join(names)}")
    rows = [row for row in reader if row]
    if any(len(row) != len(names) for row in rows):
        raise ValueError(f"row without exactly {len(names)} fields")
    columns = zip(*rows) if rows else [()] * len(names)
    return {name: _parse_column(values, kind)
            for (name, kind), values in zip(spec.items(), columns)}


def _parse_column(values, kind):
    if kind is str:
        return list(values)
    try:
        return np.array([kind(v) for v in values], dtype=np.int64 if kind is int else float)
    except OverflowError as exc:  # an int beyond int64
        raise ValueError(str(exc)) from None


def parse_artifact(name: str, text: str):
    """The document of the artifact called `name`: a dict of columns for a
    CSV, the parsed JSON otherwise."""
    spec = ARTIFACTS[name]
    return json.loads(text) if spec is None else parse_csv(text, spec)


def render_artifact(name: str, doc) -> str:
    """The text of the artifact called `name`; parse_artifact's inverse."""
    spec = ARTIFACTS[name]
    return json_text(doc) if spec is None else csv_text(doc, spec)


def write_artifact(doc, path: Path | str) -> None:
    """Write `doc` as the artifact named by the file name of `path`."""
    atomic_write(render_artifact(Path(path).name, doc), path)


def write_json(doc: dict, path: Path | str) -> None:
    atomic_write(json_text(doc), path)


def json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def atomic_write(text: str, path: Path | str) -> None:
    """Write `text` to `<path>.tmp`, then move it onto `path`: a reader
    sees the old file or the new one, never a part. If either step fails,
    the old file stays as it was and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


# -- trajectory ------------------------------------------------------------

def trajectory_columns(log: TrajectoryLog) -> dict:
    """The trajectory.csv columns of a log: the initial position and time
    as row k=0 (wall ''), then one row per strike. No velocity is stored:
    the initial one is summary.json's slope, and the rest follow from it
    and the walls (TrajectoryLog.velocities)."""
    init = log.initial
    return {
        "k": range(len(log) + 1),
        "x": [init.position.x, *log.x.tolist()],
        "y": [init.position.y, *log.y.tolist()],
        "t": [init.elapsed_time, *log.t.tolist()],
        "wall": ["", *(WALLS[c] for c in log.wall.tolist())],
    }


def read_trajectory(cols: dict, velocity: Vec2) -> TrajectoryLog:
    """The log of parsed trajectory.csv columns, started with `velocity`:
    the initial state from row k=0, the strikes from the rows after it. The
    table does not hold the initial velocity or the truncation;
    summary.json does."""
    if not len(cols["k"]):
        raise ValueError("trajectory.csv has no k=0 row")
    if cols["wall"][0]:
        raise ValueError(f"trajectory.csv row k=0 names wall {cols['wall'][0]!r}")
    x, y, t = cols["x"], cols["y"], cols["t"]
    return TrajectoryLog(
        initial=ParticleState(position=Vec2(float(x[0]), float(y[0])), velocity=velocity,
                              elapsed_time=float(t[0])),
        x=x[1:],
        y=y[1:],
        t=t[1:],
        wall=np.array([WALLS.index(w) for w in cols["wall"][1:]], dtype=np.int8),
    )


# -- sweep -----------------------------------------------------------------

def sweep_meta_doc(result: SweepResult, elapsed_seconds: float) -> dict:
    return {
        "spec": dataclasses.asdict(result.spec),
        "log_base": "e",
        "completed": len(result.columns["t"]),
        "failures": [dataclasses.asdict(f) for f in result.failures],
        "elapsed_seconds": elapsed_seconds,
    }


# -- model -----------------------------------------------------------------

def model_json_doc(report) -> dict:
    p = report.params
    return {
        "m": p.m,
        "delta": p.delta.tolist(),
        "gamma": p.gamma.tolist(),
        "mu": p.mu.tolist(),
        "sigma": p.sigma.tolist(),
        "loglik_trace": list(report.loglik_trace),
        "state_order": list(report.state_order),
        "metadata": {"warnings": list(report.warnings)},
    }
