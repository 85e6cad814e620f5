"""The four benchmark workloads.

Each workload makes its inputs from a seed, lists the operations of one
timed iteration (``windtree`` CLI commands run in-process, or API calls),
and checks each operation's output after the timed region. Why each
workload exists is in bench/README.md.
"""

from __future__ import annotations

import bisect
import contextlib
import io as stdio
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from run_pipeline import PUBLISHED
from windtree import billiard, cli, io, sweep

FIT_T = 3000
FIT_STATES = (2, 3, 4)
# About 6 standard errors of the widest state's mean (sd 1.12 over ~1300
# draws); a fit that merges or swaps states misses by more than 1.
FIT_MEAN_TOL = 0.2

TRAJ_SLOPES = 32
TRAJ_COLLISIONS = 500
# SVG size grows with the square of a trajectory's extent, which jumps
# between neighbouring slopes, and the odd/odd grid slopes graze corners.
# So each slope sits half a grid step off the reference grid, plus a seeded
# offset of at most TRAJ_OFFSET_STEPS steps: across seeds this keeps the mix
# of recurrent and divergent shapes, and with it the artifact size, within
# about 5%.
TRAJ_OFFSET_STEPS = 0.04

EXP_DIRECTIONS = 12
EXP_COLLISIONS = 20_000
EXP_ANGLES = (0.1, math.pi / 2 - 0.1)
NEXT_COLLISION_SAMPLES = 1000


@dataclass
class Op:
    """One timed operation and the check run on its output afterwards.

    ``action`` returns an exit code; ``check`` returns an error message or
    None. The operation fails if it exits non-zero, raises, or fails its
    check.
    """

    label: str
    action: Callable[[], int]
    check: Optional[Callable[[], Optional[str]]] = None
    output: str = field(default="", repr=False)

    def run(self):
        buffer = stdio.StringIO()
        try:
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
                code = self.action()
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        self.output = buffer.getvalue()
        return code

    def error(self, code) -> Optional[str]:
        if code != 0:
            return f"exit {code}; output: {self.output[-500:]!r}"
        if self.check is None:
            return None
        try:
            return self.check()
        except (OSError, ValueError, KeyError) as exc:
            return f"check raised {exc!r}"


def cli_op(label: str, argv: list[str], check=None) -> Op:
    return Op(label, partial(cli.main, argv), check)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.input = work / "input"
        self.out = work / "out"
        self.input.mkdir(parents=True, exist_ok=True)
        self.reference = read_json(root / "configs" / "reference.json")
        self.config = self.input / "config.json"
        self.ops: list[Op] = []
        self.sizes: dict = {}

    def write_config(self, doc: dict) -> None:
        self.config.write_text(json.dumps(doc, indent=2) + "\n")

    def cli_args(self, out: Path) -> list[str]:
        return ["--config", str(self.config), "--out", str(out), "--jobs", "1"]

    def reset(self) -> None:
        """Start each iteration from an empty output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())

    def layer_probes(self) -> dict:
        """Per-layer metrics measured outside the traced iterations; only
        the exponent workload times the first-hit walk."""
        return {"billiard.next_collision_us": 0.0}


class Pipeline(Workload):
    """The reference config through sweep -> fit -> diagnose."""

    name = "pipeline"

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        doc = self.reference
        spec = doc["sweep"]
        if seed:
            spec["slope_start"] += float(self.rng.uniform()) * spec["slope_step"]
        self.write_config(doc)
        self.count = spec["count"]
        self.first_csv = None
        args = self.cli_args(self.out)
        self.ops = [
            cli_op("sweep", ["sweep", *args], self.check_sweep),
            cli_op("fit", ["fit", *args], self.check_fit),
            cli_op("diagnose", ["diagnose", *args]),
        ]
        self.sizes = {"slopes": self.count, "collisions": spec["k_max"],
                      "slope_start": spec["slope_start"],
                      "states": doc["hmm"]["m"], "em_iters": doc["hmm"]["max_iters"]}

    def check_sweep(self):
        meta = read_json(self.out / "sweep_meta.json")
        if meta["completed"] != self.count or meta["failures"]:
            return (f"{meta['completed']} of {self.count} observations, "
                    f"{len(meta['failures'])} gaps")
        csv = (self.out / "sweep.csv").read_bytes()
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            return "sweep.csv differs from the first iteration's"
        return None

    def check_fit(self):
        model = read_json(self.out / "model.json")
        if model["m"] != self.sizes["states"]:
            return f"model has {model['m']} states"
        return None


class Trajectory(Workload):
    """simulate then diagnose for seeded slopes, each in its own out dir."""

    name = "trajectory"

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.write_config(self.reference)
        spec = self.reference["sweep"]
        start, step, count = spec["slope_start"], spec["slope_step"], spec["count"]
        # one slope from each of TRAJ_SLOPES equal strata of the reference grid
        offsets = self.rng.uniform(0.0, TRAJ_OFFSET_STEPS, TRAJ_SLOPES)
        self.slopes = [start + (int((i + 0.5) * count / TRAJ_SLOPES) + 0.5 + float(off)) * step
                       for i, off in enumerate(offsets)]
        for i, slope in enumerate(self.slopes):
            out = self.out / f"slope{i:02d}"
            args = self.cli_args(out)
            self.ops.append(cli_op(
                f"simulate slope={slope!r}",
                ["simulate", *args, "--slope", repr(slope),
                 "--collisions", str(TRAJ_COLLISIONS)],
                partial(self.check_simulate, out)))
            self.ops.append(cli_op(f"diagnose {out.name}", ["diagnose", *args]))
        self.sizes = {"slopes": TRAJ_SLOPES, "collisions": TRAJ_COLLISIONS}

    @staticmethod
    def check_simulate(out: Path):
        summary = read_json(out / "summary.json")
        if summary["n_collisions"] != TRAJ_COLLISIONS and not summary["truncated"]:
            return (f"{summary['n_collisions']} of {TRAJ_COLLISIONS} collisions "
                    f"without a recorded truncation")
        return None


def published_series(rng: np.random.Generator, length: int) -> np.ndarray:
    """Draw a series from the published 3-state Gaussian HMM."""
    cumulative = [np.cumsum(row).tolist() for row in PUBLISHED["gamma"]]
    u = rng.random(length)
    states = [1]
    for t in range(1, length):
        row = cumulative[states[-1]]
        states.append(min(bisect.bisect_right(row, u[t]), len(row) - 1))
    states = np.array(states)
    return rng.normal(np.array(PUBLISHED["mu"])[states], np.array(PUBLISHED["sigma"])[states])


class Fit(Workload):
    """fit --states m for m in 2, 3, 4 on a series drawn from the published
    table, each followed by diagnose."""

    name = "fit"

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.write_config(self.reference)
        spec = self.reference["sweep"]
        xs = published_series(self.rng, FIT_T)
        self.series = self.input / "sweep.csv"
        lines = ["t,slope,D,logD"]
        for t, x in enumerate(xs, start=1):
            slope = spec["slope_start"] + (t - 1) * spec["slope_step"]
            lines.append(f"{t},{slope:.17g},{math.exp(x):.17g},{x:.17g}")
        self.series.write_text("\n".join(lines) + "\n")
        for m in FIT_STATES:
            out = self.out / f"m{m}"
            args = self.cli_args(out)
            self.ops.append(cli_op(f"fit m={m}",
                                   ["fit", *args, "--states", str(m), str(self.series)],
                                   partial(self.check_fit, out, m)))
            self.ops.append(cli_op(f"diagnose m={m}", ["diagnose", *args]))
        self.sizes = {"length": FIT_T, "states": list(FIT_STATES),
                      "em_iters": self.reference["hmm"]["max_iters"]}

    @staticmethod
    def check_fit(out: Path, m: int):
        model = read_json(out / "model.json")
        if model["m"] != m:
            return f"model has {model['m']} states, asked for {m}"
        if m == len(PUBLISHED["mu"]):
            miss = max(abs(a - b) for a, b in zip(model["mu"], PUBLISHED["mu"]))
            if not miss <= FIT_MEAN_TOL:
                return f"fitted means {model['mu']} miss the generating ones by {miss}"
        return None


class Exponent(Workload):
    """sweep.estimate_diffusion_exponent over seeded directions (API only)."""

    name = "exponent"

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        lo, hi = EXP_ANGLES
        # one direction from each of EXP_DIRECTIONS equal strata of the angle range
        self.directions = [lo + (i + float(u)) * (hi - lo) / EXP_DIRECTIONS
                           for i, u in enumerate(self.rng.random(EXP_DIRECTIONS))]
        self.first_value = None
        self.ops = [Op("estimate_diffusion_exponent", self.estimate, self.check_estimate)]
        self.sizes = {"directions": EXP_DIRECTIONS, "collisions": EXP_COLLISIONS}

    def estimate(self) -> int:
        # min_successes = every direction: a skipped direction raises
        value = sweep.estimate_diffusion_exponent(
            self.directions, EXP_COLLISIONS, min_successes=len(self.directions))
        io.write_json({"directions": self.directions, "n_collisions": EXP_COLLISIONS,
                       "median_exponent": value}, self.out / "exponent.json")
        return 0

    def check_estimate(self):
        value = read_json(self.out / "exponent.json")["median_exponent"]
        if not math.isfinite(value):
            return f"median exponent {value!r} is not finite"
        if self.first_value is None:
            self.first_value = value
        elif value != self.first_value:
            return f"median exponent {value!r} differs from the first iteration's"
        return None

    def layer_probes(self) -> dict:
        """Time the first-hit walk alone: next_collision re-issued from a
        seeded sample of post-collision states of the first direction."""
        log = billiard.simulate(billiard.state_from_angle(self.directions[0]),
                                2 * NEXT_COLLISION_SAMPLES)
        pts = log.event_points()
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(len(pts) - 1, NEXT_COLLISION_SAMPLES, replace=False)
        states = [
            billiard.state_from_angle(
                math.atan2(pts[k + 1, 1] - pts[k, 1], pts[k + 1, 0] - pts[k, 0]),
                billiard.Vec2(float(pts[k, 0]), float(pts[k, 1])))
            for k in picks
        ]
        per_call = []
        for _ in range(5):
            start = time.perf_counter()
            for state in states:
                billiard.next_collision(state)
            per_call.append((time.perf_counter() - start) / len(states))
        return {"billiard.next_collision_us": 1e6 * statistics.median(per_call)}


WORKLOADS = {w.name: w for w in (Pipeline, Trajectory, Fit, Exponent)}
