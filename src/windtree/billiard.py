"""Event-driven billiard in a periodic forest of unit-square obstacles.

Unit squares are centered at every odd-integer lattice point, so the
obstacle nearest the origin to the north-east spans [0.5, 1.5] x [0.5, 1.5]
and adjacent squares are one unit apart. A point particle travels at unit
speed and reflects specularly off obstacle walls; time equals path length.

All functions here are pure: no shared mutable state, safe to call from
many threads or processes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple, Optional

import numpy as np

WALL_TOL = 1e-9        # a point this close to a wall counts as on it
CORNER_TOL = 1e-9      # hits this close to a corner retro-reflect
MIN_FLIGHT = 1e-9      # shorter flights would re-hit the wall just departed
DEFAULT_HORIZON = 1e6  # path-length cap before declaring a corridor
SPEED_TOL = 1e-6       # tolerated deviation of |velocity| from 1


class NoHitWithinHorizon(Exception):
    """The ray met no obstacle within the horizon (corridor direction)."""


class DegenerateVelocity(ValueError):
    """Velocity norm deviates from 1 by more than SPEED_TOL."""


# The wall names; a wall code (int8 columns, kernel results) indexes this tuple.
WALLS = ("Left", "Right", "Bottom", "Top", "Corner")
_LEFT, _RIGHT, _BOTTOM, _TOP, _CORNER = range(len(WALLS))
NO_HIT = -1            # wall code of a ray that met nothing within the horizon
# Whether a strike on each wall flips (vx, vy), indexed by wall code: a side
# flips one component and a corner retro-reflects.
_FLIPS = ((True, False), (True, False), (False, True), (False, True), (True, True))


class Vec2(NamedTuple):
    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def unit(x: float, y: float) -> Vec2:
    """Rescale (x, y) to unit norm."""
    n = math.hypot(x, y)
    if n == 0.0 or not math.isfinite(n):
        raise DegenerateVelocity(f"cannot normalize ({x}, {y})")
    return Vec2(x / n, y / n)


@dataclass(frozen=True)
class ParticleState:
    """Position and unit velocity of the particle; elapsed_time is path length."""

    position: Vec2
    velocity: Vec2
    elapsed_time: float = 0.0

    def __post_init__(self):
        for v in (*self.position, *self.velocity, self.elapsed_time):
            if not math.isfinite(v):
                raise ValueError("particle state components must be finite")
        if abs(self.velocity.norm() - 1.0) > SPEED_TOL:
            raise DegenerateVelocity(
                f"|velocity| = {self.velocity.norm()!r} is not 1 within {SPEED_TOL}"
            )


def state_from_slope(slope: float) -> ParticleState:
    """Particle at the origin moving with velocity proportional to (1, slope)."""
    return ParticleState(position=Vec2(0.0, 0.0), velocity=unit(1.0, slope))


def state_from_angle(theta: float, position: Vec2 = Vec2(0.0, 0.0)) -> ParticleState:
    """Particle at `position` moving at angle `theta` from the +x axis."""
    return ParticleState(position=position, velocity=unit(math.cos(theta), math.sin(theta)))


@dataclass(frozen=True)
class CollisionEvent:
    """One wall strike: where, when (cumulative path length), and on which
    wall, by its name in WALLS."""

    point: Vec2
    time: float
    wall: str
    obstacle_center: tuple[int, int]


@dataclass(eq=False)
class TrajectoryLog:
    """Initial state plus one row per collision, held as columns.

    Row k-1 is the k-th wall strike: the hit point (x, y) snapped onto its
    wall, the cumulative path length t, the wall code (an index into WALLS),
    and the post-bounce velocity (vx, vy). The struck obstacle's center is
    cell_centers(x, y). Construction applies ParticleState's checks to every
    row: components finite and |(vx, vy)| within SPEED_TOL of 1.
    """

    initial: ParticleState
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    wall: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    truncated: bool = False
    truncation_reason: Optional[str] = None

    def __post_init__(self):
        columns = (self.x, self.y, self.t, self.wall, self.vx, self.vy)
        if len({len(c) for c in columns}) != 1:
            raise ValueError("trajectory columns differ in length")
        finite = (np.isfinite(self.x) & np.isfinite(self.y) & np.isfinite(self.t)
                  & np.isfinite(self.vx) & np.isfinite(self.vy))
        speed = np.hypot(self.vx, self.vy)
        bad = ~finite | (np.abs(speed - 1.0) > SPEED_TOL)
        if bad.any():
            # raise what ParticleState raises for the first bad row
            k = int(bad.argmax())
            if not finite[k]:
                raise ValueError("particle state components must be finite")
            norm = math.hypot(self.vx[k], self.vy[k])
            raise DegenerateVelocity(f"|velocity| = {norm!r} is not 1 within {SPEED_TOL}")

    def __len__(self) -> int:
        return len(self.t)

    def corner_count(self) -> int:
        return int(np.count_nonzero(self.wall == _CORNER))

    def event_points(self) -> np.ndarray:
        """(n, 2) array of collision points."""
        return np.column_stack([self.x, self.y])


def cell_centers(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Odd-integer centers of the period-2 cells holding the points (x, y),
    as two int64 arrays (int64 scalars for scalar coordinates).

    Each cell [2i, 2i+2) x [2j, 2j+2) holds the obstacle centered at
    (2i+1, 2j+1): 2 floor(p / 2) + 1 on each axis, as the strike walk places
    its bands. An even coordinate, between two centers, lies in the cell
    above it; it is 0.5 from every obstacle, so no wall test depends on it.
    """
    return tuple((2.0 * np.floor(np.asarray(p) * 0.5) + 1.0).astype(np.int64)
                 for p in (x, y))


# ---------------------------------------------------------------------------
# The strike walk: obstacle bands paired in ray order. An obstacle is where
# an x-band |x - c| < 0.5 (c odd) and a y-band overlap; along a ray, a band
# is an open interval of path length, its slab.
# ---------------------------------------------------------------------------

# Points along a ray within _REACH of a start within _REACH of the origin lie
# within 2**53, where odd band centers and their steps of 2 are exact.
_REACH = 2.0**52


def _check_horizon(horizon) -> None:
    """Reject a horizon that is not positive or exceeds _REACH (NaN and inf
    included): farther out, the walk's band steps could stop moving."""
    if not 0 < horizon <= _REACH:
        raise ValueError("horizon must be positive and at most 2**52")


def _band(p, v, inv_v, t):
    """Center c of the first band on one axis, along the ray from p with
    component v != 0 (inv_v = 1 / v), whose far slab time (c + side - p) *
    inv_v exceeds path length t. That is the band of the cell holding the
    ray's point at t or the next (the one before ends at least 0.5 behind
    the point), so one floor and one exact slab-time comparison settle c."""
    side = 0.5 if v > 0.0 else -0.5
    c = 2.0 * math.floor((p + t * v) * 0.5) + 1.0
    if (c + side - p) * inv_v <= t:
        c += 4.0 * side
    return c


def _strikes(px, py, vx, vy, horizon):
    """The wall strikes of the ray from (px, py) along (vx, vy), in order.

    Yields (s, hx, hy, wall, vx, vy) for each strike: the path length s from
    the previous strike (from the start, for the first), the hit point
    snapped onto the wall plane, the wall code (an index into WALLS) and the
    velocity after the bounce, renormalized through math.hypot. Stops when
    nothing is struck within path length `horizon` of the last strike; the
    caller checks the horizon, as a generator's body runs only once it is
    advanced. Flights shorter than MIN_FLIGHT are ignored so the wall just
    departed is never re-hit; tangent grazes do not count as hits.

    Each strike steps through the bands of the faster axis f in ray order
    and pairs each with the first band of the slower axis s whose slab ends
    after the f-slab starts: over one f-band, s moves at most 1. The pair is
    an obstacle the ray enters unless the s-slab starts after the f-slab
    ends; then the walk jumps to the first f-band that ends after the
    s-slab starts, so a strike costs a few steps in every direction. With vs == 0 the ray is in
    an s-band for all time, or in a corridor. A strike from a coordinate
    beyond +-_REACH meets nothing.

    Two facts save work after the first strike:
      - the walk starts on the wall just struck, moving away, so the far
        slab time of the struck obstacle's band is 0 and the walk starts
        past it;
      - once hypot returns exactly 1.0, every later bounce only flips signs
        of a velocity whose hypot is 1.0 and divides by 1.0, so hypot is
        skipped from then on.
    """
    unit_norm = False  # hypot has returned exactly 1.0
    # bounces only flip signs, so the faster axis stays the faster one
    x_fast = abs(vx) >= abs(vy)
    while True:
        if not (-_REACH < px < _REACH and -_REACH < py < _REACH):
            return  # beyond odd-integer resolution
        pf, vf, ps, vs = (px, vx, py, vy) if x_fast else (py, vy, px, vx)
        inv_f = 1.0 / vf
        side_f = 0.5 if vf > 0.0 else -0.5  # the far wall of a band, from its center
        cf = _band(pf, vf, inv_f, 0.0)
        if vs == 0.0:
            cs = 2.0 * math.floor(ps * 0.5) + 1.0
            if not cs - 0.5 < ps < cs + 0.5:
                return  # a corridor between obstacle rows or columns
            ns, fs = -math.inf, math.inf
        else:
            inv_s = 1.0 / vs
            side_s = 0.5 if vs > 0.0 else -0.5
            cs = _band(ps, vs, inv_s, 0.0)
            ns = (cs - side_s - ps) * inv_s
            fs = (cs + side_s - ps) * inv_s
        while True:
            nf = (cf - side_f - pf) * inv_f
            ff = (cf + side_f - pf) * inv_f
            while fs <= nf:
                cs += 4.0 * side_s
                ns = (cs - side_s - ps) * inv_s
                fs = (cs + side_s - ps) * inv_s
            # the slabs overlap (max(nf, ns) < min(ff, fs)) unless ns >= ff
            s = nf if nf > ns else ns
            if s > horizon:
                return
            if ns < ff and s >= MIN_FLIGHT:
                break
            # jump past the s-slab's start, or step past a strike too close
            cf = _band(pf, vf, inv_f, ns if ns > ff else ff)

        # snap the hit onto the struck wall's plane (ha), and along that wall
        # (hb) onto a corner point within CORNER_TOL; an entry exactly
        # through a corner point is a corner hit too
        if nf == ns:
            hf, hs, wall = cf - side_f, cs - side_s, _CORNER
        else:
            f_struck = nf > ns
            if f_struck:
                ha, hb, cb = cf - side_f, ps + s * vs, cs
                wall = (_LEFT if x_fast else _BOTTOM) + (side_f < 0.0)
            else:
                ha, hb, cb = cs - side_s, pf + s * vf, cf
                wall = (_BOTTOM if x_fast else _LEFT) + (side_s < 0.0)
            lo, hi = cb - 0.5, cb + 0.5
            if abs(hb - lo) <= CORNER_TOL:
                hb, wall = lo, _CORNER
            elif abs(hb - hi) <= CORNER_TOL:
                hb, wall = hi, _CORNER
            hf, hs = (ha, hb) if f_struck else (hb, ha)
        hx, hy = (hf, hs) if x_fast else (hs, hf)

        flip_x, flip_y = _FLIPS[wall]
        rx = -vx if flip_x else vx
        ry = -vy if flip_y else vy
        if unit_norm:
            vx, vy = rx, ry
        else:
            n = math.hypot(rx, ry)
            vx, vy = rx / n, ry / n
            unit_norm = n == 1.0
        yield s, hx, hy, wall, vx, vy
        px, py = hx, hy


def next_collision(state: ParticleState, horizon: float = DEFAULT_HORIZON) -> CollisionEvent:
    """First wall strike of the ray from `state`, or NoHitWithinHorizon.

    If the position lies on an obstacle wall, that wall is excluded from
    candidacy at path length < MIN_FLIGHT.
    """
    _check_horizon(horizon)
    hit = next(_strikes(state.position.x, state.position.y,
                        state.velocity.x, state.velocity.y, horizon), None)
    if hit is None:
        raise NoHitWithinHorizon(
            f"no obstacle within path length {horizon:g} from {tuple(state.position)}"
        )
    s, hx, hy, wall = hit[:4]
    return CollisionEvent(
        point=Vec2(hx, hy),
        time=state.elapsed_time + s,
        wall=WALLS[wall],
        # a hit point lies on its obstacle's wall, 0.5 from any cell edge
        obstacle_center=tuple(map(int, cell_centers(hx, hy))),
    )


def point_in_obstacle(x: float, y: float, shrink: float = 0.0) -> bool:
    """True when (x, y) lies strictly inside an obstacle shrunk by `shrink`."""
    cx, cy = cell_centers(x, y)
    return bool(abs(x - cx) < 0.5 - shrink and abs(y - cy) < 0.5 - shrink)


def _normalize_on_wall(px, py, vx, vy):
    """Reflect in place a velocity that points into the obstacle whose wall
    the position sits on (within WALL_TOL). Needed so velocity-reversed
    post-collision states retrace instead of tunneling; not a logged event.
    """
    cx, cy = map(float, cell_centers(px, py))
    in_x_span = (cx - 0.5) - WALL_TOL <= px <= (cx + 0.5) + WALL_TOL
    in_y_span = (cy - 0.5) - WALL_TOL <= py <= (cy + 0.5) + WALL_TOL
    flip_x = in_y_span and (
        (abs(px - (cx - 0.5)) <= WALL_TOL and vx > 0.0)
        or (abs(px - (cx + 0.5)) <= WALL_TOL and vx < 0.0)
    )
    flip_y = in_x_span and (
        (abs(py - (cy - 0.5)) <= WALL_TOL and vy > 0.0)
        or (abs(py - (cy + 0.5)) <= WALL_TOL and vy < 0.0)
    )
    return (-vx if flip_x else vx), (-vy if flip_y else vy)


def simulate(initial: ParticleState, n_collisions: int,
             horizon: float = DEFAULT_HORIZON) -> TrajectoryLog:
    """Run the particle through `n_collisions` wall strikes.

    The log is truncated (with a recorded reason) if a corridor direction
    exhausts the horizon first. An initial position on a wall with inward
    velocity is reflected in place before the first flight.
    """
    if n_collisions < 0:
        raise ValueError("n_collisions must be >= 0")
    _check_horizon(horizon)
    px, py = initial.position
    if point_in_obstacle(px, py, shrink=WALL_TOL):
        raise ValueError(f"initial position {tuple(initial.position)} is inside an obstacle")
    vx, vy = _normalize_on_wall(px, py, initial.velocity.x, initial.velocity.y)
    strikes = chain.from_iterable(islice(_strikes(px, py, vx, vy, horizon), n_collisions))
    s, x, y, wall, vx, vy = np.fromiter(strikes, float).reshape(-1, 6).T.copy()
    # the running sum from the initial time, one addition per strike
    t = np.add.accumulate(np.concatenate([[initial.elapsed_time], s]))[1:]
    truncated = len(s) < n_collisions
    return TrajectoryLog(
        initial=initial, x=x, y=y, t=t, wall=wall.astype(np.int8), vx=vx, vy=vy,
        truncated=truncated,
        truncation_reason=truncation_reason(horizon, len(s)) if truncated else None,
    )


def truncation_reason(horizon: float, collisions: int) -> str:
    """Why a trajectory stopped after `collisions` strikes: a corridor."""
    return f"no obstacle within horizon {horizon:g} after {collisions} collisions"


# ---------------------------------------------------------------------------
# Lockstep batch: simulate's next strike and bounce over many rays at once.
# numpy computes side-wall strikes away from corners with the scalar walk's
# IEEE operations elementwise; every other ray takes the scalar walk itself.
# So each ray follows its scalar trajectory bit for bit.
# ---------------------------------------------------------------------------

LOCKSTEP_CELLS = 4     # candidate block: the cells (a, b) ahead with a + b < this
# The walls of the obstacle k cells ahead on one axis, near then far, as
# offsets from the start cell's center in the direction of travel.
_PLANE_OFFSETS = np.array([[2.0 * k + side for k in range(LOCKSTEP_CELLS)]
                           for side in (-0.5, 0.5)])[:, None, :, None]
# The block's rows of the flattened (near/far, axis, cells ahead) slab times:
# tx1 at a, ty1 at b, tx2 at a and ty2 at b, one column per cell (a, b).
_BLOCK_ROWS = np.array([(a, LOCKSTEP_CELLS + b, 2 * LOCKSTEP_CELLS + a, 3 * LOCKSTEP_CELLS + b)
                        for a in range(LOCKSTEP_CELLS) for b in range(LOCKSTEP_CELLS - a)]).T


class Rays(NamedTuple):
    """Positions, unit velocities and elapsed path lengths of R rays."""

    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    t: np.ndarray


def step_rays(rays: Rays, horizon: float = DEFAULT_HORIZON) -> tuple[Rays, np.ndarray]:
    """Advance every ray to its next wall strike and reflect it there.

    Returns the post-bounce rays and the wall code (an index into WALLS) of
    each strike. A ray that meets nothing within the horizon keeps its state
    and gets the code NO_HIT. Each ray's result is bitwise the next event and
    post-bounce state of `simulate` from the same state.

    Instead of walking bands in order, each ray tests one fixed block of
    candidate obstacles at once: the cells a steps along x and b steps along
    y ahead of its start cell, in its direction of travel, with a, b >= 0
    and a + b < LOCKSTEP_CELLS. The slab times are _strikes' expressions,
    computed once per axis and cells ahead (tx1 depends on a alone, ty1 on
    b), and the ray takes the valid candidate with the smallest t_near.
    This is the walk's first hit:
      - a valid candidate passes the walk's test of a pair of bands, slabs
        that overlap at least MIN_FLIGHT ahead, so it is an obstacle the
        ray really enters;
      - a ray moves monotonically in x and y, so the block is closed under
        "earlier along the ray": any obstacle met before a candidate is
        itself a candidate;
      - the walk takes bands in ray order and returns its first valid pair,
        which has the smallest t_near, and both stop at t_near > horizon.
    The block keeps only a hit through one wall (tx1 != ty1) farther than
    CORNER_TOL from its ends, by _strikes' own test. Every other ray takes
    the scalar walk's first strike from the same state: no valid candidate
    within the horizon, a velocity component so small (zero, say) that
    1/vx * 1/vy is not finite, a coordinate beyond +-_REACH, or a corner.
    Only the walk labels corners.
    """
    _check_horizon(horizon)
    x, y, vx, vy, t = rays
    n = len(x)
    columns = np.arange(n)
    p = np.array([x, y])
    v = np.array([vx, vy])
    # inf and nan arise only on rays the scalar walk finishes, or exactly as
    # Python float arithmetic gives them without warning
    with np.errstate(all="ignore"):
        inv_v = 1.0 / v
        ahead = v > 0.0
        # (near/far, axis, cells ahead, ray): the walls of the obstacles
        # ahead on each axis. Every term is a small integer or half-integer,
        # so each plane is exactly _strikes' cx - 0.5 or cx + 0.5.
        planes = ((2.0 * np.floor(p * 0.5) + 1.0)[:, None]
                  + _PLANE_OFFSETS * np.where(ahead, 1.0, -1.0)[:, None])
        slabs = ((planes - p[:, None]) * inv_v[:, None]).reshape(4 * LOCKSTEP_CELLS, n)
        tx1, ty1, tx2, ty2 = slabs.take(_BLOCK_ROWS, axis=0)
        # np.maximum and np.minimum differ from _strikes' comparisons only
        # on nan and signed zeros, which no valid candidate has
        t_near = np.maximum(tx1, ty1)
        valid = (MIN_FLIGHT <= t_near) & (t_near < np.minimum(tx2, ty2))
        t_near = np.where(valid, t_near, np.inf)
        first = t_near.argmin(axis=0)
        s = t_near[first, columns]
        # the first hit's x and y rows, as flat indices
        rows = _BLOCK_ROWS[:2].take(first, axis=1) * n + columns
        entry = slabs.take(rows)
        near = planes.take(rows)
        far = planes.take(rows + planes.size // 2)
        vertical = entry[0] > entry[1]
        # p + s * v is _strikes' hit coordinate along the struck wall, which
        # its corner test compares with both ends of the wall
        point = p + s * v
        close = (np.abs(point - near) <= CORNER_TOL) | (np.abs(point - far) <= CORNER_TOL)
        clean = ((s <= horizon) & (entry[0] != entry[1]) & ~np.where(vertical, close[1], close[0])
                 & np.isfinite(inv_v[0] * inv_v[1]) & (np.abs(p).max(axis=0) < _REACH))
        hx, hy = np.where([vertical, ~vertical], near, point)
        walls = np.where(vertical, np.where(ahead[0], _LEFT, _RIGHT),
                         np.where(ahead[1], _BOTTOM, _TOP)).astype(np.int8)
        r = np.where([vertical, ~vertical], -v, v)  # a side wall flips its normal component
        # math.hypot, as in simulate: np.hypot is not guaranteed to round alike
        next_vx, next_vy = r / np.fromiter(map(math.hypot, *r.tolist()), float, n)
        next_t = t + s
    for i in np.flatnonzero(~clean):
        # a ray that meets nothing keeps its state
        si, hx[i], hy[i], walls[i], next_vx[i], next_vy[i] = next(
            _strikes(float(x[i]), float(y[i]), float(vx[i]), float(vy[i]), horizon),
            (None, x[i], y[i], NO_HIT, vx[i], vy[i]))
        next_t[i] = t[i] if si is None else t[i] + si
    return Rays(x=hx, y=hy, vx=next_vx, vy=next_vy, t=next_t), walls


def strike_origins(log: TrajectoryLog) -> Rays:
    """The state each logged strike starts from, as one batch for step_rays:
    the initial state, its velocity reflected in place as simulate does, then
    every post-bounce state but the last. Stepping this batch once reproduces
    the log's rows bit for bit when the log came from simulate."""
    (px, py), (vx, vy), t = log.initial.position, log.initial.velocity, log.initial.elapsed_time
    vx, vy = _normalize_on_wall(px, py, vx, vy)
    n = len(log)

    def before(first, column):
        return np.concatenate([[first], column])[:n]

    return Rays(x=before(px, log.x), y=before(py, log.y), vx=before(vx, log.vx),
                vy=before(vy, log.vy), t=before(t, log.t))


def distance_series(log: TrajectoryLog) -> np.ndarray:
    """Euclidean distance of each collision point from the origin."""
    return np.hypot(log.x, log.y)
