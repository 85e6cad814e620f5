"""Recurrence statistic over a slope sweep, motion classification, and the
distance-growth exponent estimator.

The headline statistic for one initial slope is the minimum distance from
the origin attained between two collision counts (k_min through k_max); its
natural log forms the observation series the hidden Markov model is fitted
to. The log base choice is recorded in the sweep metadata written by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .billiard import (
    Lockstep,
    TrajectoryLog,
    distance_series,
    simulate,
    state_from_angle,
    state_from_slope,
    truncation_reason,
)

# Thresholds calibrated on the exemplar slopes (see classify_motion): a
# wandering-but-recurrent orbit re-approaches its start to within ~2 units
# over 500 collisions while divergent orbits stay two orders of magnitude
# farther out; periodic drift cycles run to ~450 collisions per repeat,
# and a cycle repeats its y-coordinates within EPS_QUASI.
EPS_RECUR = 5.0
EPS_QUASI = 1.0
QUASI_WINDOW = 480
MIN_OVERLAP = 25
# classify_motion compares LAG_BLOCK_ELEMENTS // (n // 2) lags of an
# n-strike log at once (at least one), so a block's temporaries hold at most
# this many numbers, or n // 2 where one lag alone needs more.
LAG_BLOCK_ELEMENTS = 2**15
# build_sweep steps at most SWEEP_CHUNK rays in lockstep. A Lockstep batch
# owns 1061 bytes per ray (956 of step scratch, 105 of ray state), so a
# chunk of 2000 holds about 2.1 MB, and its steps allocate nothing that
# grows with it. Median seconds of `windtree sweep` (cli.main, in a fresh
# process) over the reference interval, 7 runs each in shuffled order,
# 2-core Xeon with 2 MiB of L2 per core, by chunk size, and minor page
# faults per step of one batch of 965 bytes per ray:
#   slopes    500   1000   2000   3000   5000  one batch
#   3000     0.77   0.66   0.63   0.65      -   0.65 (0.6 faults)
#   10000    2.18   1.73   1.68   1.64   1.80   1.80 (2.1 faults)
# Smaller chunks pay numpy's per-call cost on more steps, and larger ones
# run slower per ray (9 more runs at 10000 slopes: 2000 1.68, 3000 1.73,
# 5000 1.81 s). Once the batch carried its start cells the curve was flat
# from 1000 to 3000 (9 runs at 10000 slopes: 1.59, 1.55, 1.58 s).
SWEEP_CHUNK = 2000
# growth_exponent fits GROWTH_POINTS log-spaced counts from GROWTH_START on.
GROWTH_POINTS = 25
GROWTH_START = 100


class CorridorTruncation(Exception):
    """The trajectory ran out of obstacles (corridor) before k_max collisions."""


class InsufficientData(ValueError):
    """The trajectory log is too short to classify."""


@dataclass(frozen=True)
class SweepSpec:
    """Arithmetic grid of initial slopes plus the collision window for the
    recurrence statistic."""

    slope_start: float = 1.4140
    slope_step: float = 0.0025
    count: int = 300
    k_min: int = 500
    k_max: int = 1000

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 < self.k_min <= self.k_max:
            raise ValueError("need 0 < k_min <= k_max")

    def slope_at(self, t: int) -> float:
        """Slope of the t-th sweep sample (1-based), computed from the index
        rather than by repeated addition so grids are bit-reproducible."""
        if not 1 <= t <= self.count:
            raise ValueError(f"t must be in [1, {self.count}]")
        return self.slope_start + (t - 1) * self.slope_step


@dataclass(frozen=True)
class SweepFailure:
    t: int
    slope: float
    reason: str


@dataclass
class SweepResult:
    """The sweep.csv columns of the completed grid samples, as arrays keyed
    as in io.SWEEP_CSV (t, slope, D, logD), and a gap record per sample
    that gave no observation."""

    spec: SweepSpec
    columns: dict[str, np.ndarray]
    failures: list[SweepFailure] = field(default_factory=list)


class MotionLabel(Enum):
    RECURRENT = "Recurrent"
    QUASI_PERIODIC_DIVERGENT = "QuasiPeriodicDivergent"
    RAPID_DIVERGENT = "RapidDivergent"


@dataclass(frozen=True)
class MotionClass:
    label: MotionLabel
    evidence: dict


def _sweep_span(spec: SweepSpec, first: int, last: int) -> SweepResult:
    """Recurrence statistic of grid samples first..last, all rays in lockstep.

    Each ray gives bitwise the minimum of simulate's collision distances
    over the window; only O(rays) state is kept between collisions. A
    sample whose ray meets nothing within the horizon becomes a gap record.
    The batch's numpy settings (Lockstep.steps) hold over the whole loop.
    """
    slopes = [spec.slope_at(t) for t in range(first, last + 1)]
    velocities = [state_from_slope(slope).velocity for slope in slopes]
    n = len(slopes)
    rays = Lockstep(np.zeros(n), np.zeros(n), [v.x for v in velocities],
                    [v.y for v in velocities], np.zeros(n))
    rows = np.arange(n)  # grid sample of each live ray
    dmin = np.full(n, math.inf)
    dist = np.empty(n)
    gaps = []  # (grid sample, reason)
    for k, misses in enumerate(rays.steps(spec.k_max), 1):
        if misses:
            reason = truncation_reason(k - 1)
            gaps += [(row, reason) for row in rows[misses].tolist()]
            rays.drop(misses)
            rows, dmin, dist = np.delete(rows, misses), np.delete(dmin, misses), dist[:len(rays)]
        if k >= spec.k_min:
            np.minimum(dmin, np.hypot(*rays.p, out=dist), out=dmin)
    failures = [SweepFailure(t=first + row, slope=slopes[row],
                             reason=f"slope {slopes[row]!r}: {reason}")
                for row, reason in sorted(gaps)]
    # math.log one value at a time: np.log is not guaranteed to round alike
    columns = {"t": first + rows, "slope": np.array(slopes)[rows], "D": dmin,
               "logD": np.array([math.log(d) for d in dmin.tolist()], dtype=float)}
    return SweepResult(spec=spec, columns=columns, failures=failures)


def build_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the recurrence statistic over the whole slope grid.

    Slopes failing with a corridor truncation, slope 0 among them, become
    explicit gap records instead of observations. Every strike lies on an
    obstacle wall, where |x| and |y| are at least 0.5, so D >= sqrt(2) / 2
    and log D is defined. The grid runs as consecutive lockstep batches of
    SWEEP_CHUNK samples, in t order; each ray's statistic is independent of
    the others in its batch, so the result is bitwise that of one batch.
    """
    parts = [_sweep_span(spec, first, min(first + SWEEP_CHUNK - 1, spec.count))
             for first in range(1, spec.count + 1, SWEEP_CHUNK)]
    return SweepResult(
        spec=spec,
        columns={name: np.concatenate([part.columns[name] for part in parts])
                 for name in parts[0].columns},
        failures=[f for part in parts for f in part.failures],
    )


def classify_motion(log: TrajectoryLog) -> MotionClass:
    """Label a trajectory Recurrent, QuasiPeriodicDivergent, or RapidDivergent.

    Recurrent: some collision in the final half of the log comes back
    within EPS_RECUR of the starting point. Quasi-periodic divergent: some
    lag tau <= QUASI_WINDOW translates the tail of the y-coordinate series
    onto itself within EPS_QUASI (at least MIN_OVERLAP events compared);
    this is exactly how a drift cycle whose displacement is horizontal shows
    up. Everything else is rapid divergence.

    The deviation of lag tau is the largest |y[i] - y[i - tau]| over the
    last min(n - tau, n // 2) events; the evidence keeps the first lag of
    least deviation up to the first lag within EPS_QUASI, where the scan
    stops.
    """
    n = len(log)
    if n < 2 * MIN_OVERLAP:
        raise InsufficientData(f"need at least {2 * MIN_OVERLAP} events, have {n}")
    min_return, final, largest = motion_distances(log)
    evidence = {
        "min_return_distance": min_return,
        "eps_recur": EPS_RECUR,
        "final_distance": final,
        "max_distance": largest,
        "quasi_period": None,
        "quasi_max_dev": None,
        "eps": EPS_QUASI,
    }
    if min_return < EPS_RECUR:
        return MotionClass(label=MotionLabel.RECURRENT, evidence=evidence)

    h = n // 2
    tail = log.y[n - h:]
    # Row n - tau of `windows` lines y[n - h - tau:n - tau] up with the tail.
    # Past tau = n - h that slice would start before y, so y is padded with
    # h zeros in front; the same row of `real` masks the padding out.
    windows = sliding_window_view(np.concatenate((np.zeros(h), log.y[:n - 1])), h)
    real = sliding_window_view(np.arange(n + h - 1) >= h, h)
    last = min(QUASI_WINDOW, n - MIN_OVERLAP)
    block = max(1, LAG_BLOCK_ELEMENTS // h)
    best_dev = math.inf
    for first in range(1, last + 1, block):
        taus = np.arange(first, min(first + block, last + 1))
        rows = slice(n - taus[-1], n - first + 1)
        devs = tail - windows[rows][::-1]
        devs = np.abs(devs, out=devs).max(axis=1, initial=0.0, where=real[rows][::-1])
        within = np.flatnonzero(devs <= EPS_QUASI)
        if within.size:
            devs = devs[:within[0] + 1]
        i = int(devs.argmin())  # first lag of the block's least deviation
        if devs[i] < best_dev:
            best_dev = float(devs[i])
            evidence["quasi_max_dev"] = best_dev
            evidence["quasi_period"] = int(taus[i])
        if within.size:
            return MotionClass(label=MotionLabel.QUASI_PERIODIC_DIVERGENT, evidence=evidence)
    return MotionClass(label=MotionLabel.RAPID_DIVERGENT, evidence=evidence)


def motion_distances(log: TrajectoryLog) -> tuple[float, float, float]:
    """classify_motion's min_return_distance, final_distance and
    max_distance: the strikes' distances from the starting point, least over
    the final half of the strikes, last and largest. The log must hold at
    least one strike."""
    start = log.initial.position
    d_start = np.hypot(log.x - start.x, log.y - start.y)
    return float(d_start[len(log) // 2:].min()), float(d_start[-1]), float(d_start.max())


def growth_exponent(times: Sequence[float], distances: Sequence[float]) -> float:
    """Slope of log running-max distance against log time at log-spaced counts."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(distances, dtype=float)
    if t.size != d.size or t.size < GROWTH_START:
        raise ValueError(f"need aligned series with at least {GROWTH_START} entries")
    running = np.maximum.accumulate(d)
    ks = np.unique(np.geomspace(GROWTH_START, t.size, GROWTH_POINTS).astype(int)) - 1
    logs_t = np.log(t[ks])
    logs_d = np.log(running[ks])
    slope, _intercept = np.polyfit(logs_t, logs_d, 1)
    return float(slope)


def estimate_diffusion_exponent(directions: Sequence[float], n_collisions: int,
                                min_successes: int = 5) -> float:
    """Median distance-growth exponent over a set of direction angles.

    Each direction is simulated from the origin for n_collisions events and
    regressed with growth_exponent; corridor-truncated directions are
    skipped. The asymptotic prediction for almost every direction is 2/3,
    but estimates at accessible trajectory lengths scatter widely around it.
    """
    if len(directions) < 10:
        raise ValueError("need at least 10 directions")
    if n_collisions < 10_000:
        raise ValueError("need at least 10^4 collisions per direction")
    exponents = []
    for theta in directions:
        log = simulate(state_from_angle(theta), n_collisions)
        if len(log) < n_collisions:
            continue
        exponents.append(growth_exponent(log.t, distance_series(log)))
    if len(exponents) < min_successes:
        raise CorridorTruncation(
            f"only {len(exponents)} of {len(directions)} directions completed"
        )
    return float(np.median(exponents))
