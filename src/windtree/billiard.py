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
# flips one component and a corner retro-reflects. NO_HIT's row is last, at
# index -1, and flips nothing.
_FLIPS = ((True, False), (True, False), (False, True), (False, True), (True, True),
          (False, False))


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
    (2i+1, 2j+1): the strike walk's 2 floor(p / 2) + 1 on each axis. An
    even coordinate, between two centers, lies in the cell above it; it is
    0.5 from every obstacle, so no wall test depends on that choice.
    """
    return tuple((2.0 * np.floor(np.asarray(p) * 0.5) + 1.0).astype(np.int64)
                 for p in (x, y))


# ---------------------------------------------------------------------------
# The strike walk: incremental walk over period-2 cells in ray order.
# Each cell holds exactly one obstacle, strictly inside the cell with a 0.5
# margin, so testing cells in entry order yields the globally first hit.
# ---------------------------------------------------------------------------

def _check_horizon(horizon) -> None:
    """Reject a horizon that is not positive and finite (NaN included): a
    ray that never leaves the space between two obstacle columns walks on
    forever under an infinite one."""
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")


def _first_odd_at_least(z: float) -> float:
    return 2.0 * math.ceil((z - 1.0) / 2.0) + 1.0


def _last_odd_at_most(z: float) -> float:
    return 2.0 * math.floor((z - 1.0) / 2.0) + 1.0


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

    Two facts save work after the first strike:
      - the walk starts in the cell of the obstacle just struck, on its
        wall and moving away (t_far <= 0), so it steps past that cell
        without testing it;
      - once hypot returns exactly 1.0, every later bounce only flips signs
        of a velocity whose hypot is 1.0 and divides by 1.0, so hypot is
        skipped from then on.
    """
    test_start = True  # false once the start cell holds the obstacle just struck
    unit_norm = False  # hypot has returned exactly 1.0
    while True:
        if vx == 0.0 or vy == 0.0:
            # an axis-parallel ray stays in one row or column: resolve it in
            # closed form over its (along, across) coordinates
            if vy == 0.0:
                along, across, v, walls = px, py, vx, (_LEFT, _RIGHT)
            else:
                along, across, v, walls = py, px, vy, (_BOTTOM, _TOP)
            c_across = 2.0 * math.floor(across * 0.5) + 1.0
            lo, hi = c_across - 0.5, c_across + 0.5
            if not (lo < across < hi):
                return  # corridor between obstacle rows or columns
            if v > 0.0:
                hit, wall = _first_odd_at_least(along + 0.5 + MIN_FLIGHT) - 0.5, walls[0]
            else:
                hit, wall = _last_odd_at_most(along - 0.5 - MIN_FLIGHT) + 0.5, walls[1]
            s = (hit - along) / v
            if s > horizon:
                return
            if abs(across - lo) <= CORNER_TOL or abs(across - hi) <= CORNER_TOL:
                wall = _CORNER
            hx, hy = (hit, across) if vy == 0.0 else (across, hit)
        else:
            inv_vx = 1.0 / vx
            inv_vy = 1.0 / vy
            ix = math.floor(px * 0.5)
            iy = math.floor(py * 0.5)
            if vx > 0.0:
                step_x, t_max_x = 1, (2.0 * ix + 2.0 - px) * inv_vx
            else:
                step_x, t_max_x = -1, (2.0 * ix - px) * inv_vx
            if vy > 0.0:
                step_y, t_max_y = 1, (2.0 * iy + 2.0 - py) * inv_vy
            else:
                step_y, t_max_y = -1, (2.0 * iy - py) * inv_vy
            t_delta_x = abs(2.0 * inv_vx)
            t_delta_y = abs(2.0 * inv_vy)

            test = test_start
            while True:
                if test:
                    cx = 2.0 * ix + 1.0
                    cy = 2.0 * iy + 1.0
                    tx1 = (cx - 0.5 - px) * inv_vx
                    tx2 = (cx + 0.5 - px) * inv_vx
                    if tx1 > tx2:
                        tx1, tx2 = tx2, tx1
                    ty1 = (cy - 0.5 - py) * inv_vy
                    ty2 = (cy + 0.5 - py) * inv_vy
                    if ty1 > ty2:
                        ty1, ty2 = ty2, ty1
                    t_near = tx1 if tx1 > ty1 else ty1
                    t_far = tx2 if tx2 < ty2 else ty2
                    # strict t_near < t_far drops tangencies (zero normal velocity)
                    if MIN_FLIGHT <= t_near < t_far and t_near <= horizon:
                        break
                test = True
                if t_max_x < t_max_y:
                    t_entry = t_max_x
                    t_max_x += t_delta_x
                    ix += step_x
                elif t_max_y < t_max_x:
                    t_entry = t_max_y
                    t_max_y += t_delta_y
                    iy += step_y
                else:
                    # exact cell-corner crossing: obstacles sit 0.5 inside each
                    # cell, so skipping the two side cells cannot miss a hit
                    t_entry = t_max_x
                    t_max_x += t_delta_x
                    t_max_y += t_delta_y
                    ix += step_x
                    iy += step_y
                if t_entry > horizon:
                    return

            # snap the hit onto its wall plane and label it, promoting
            # near-corner hits
            s = t_near
            if tx1 > ty1:
                hx = cx - 0.5 if vx > 0.0 else cx + 0.5
                hy = py + s * vy
                wall = _LEFT if vx > 0.0 else _RIGHT
                lo, hi = cy - 0.5, cy + 0.5
                if abs(hy - lo) <= CORNER_TOL:
                    hy, wall = lo, _CORNER
                elif abs(hy - hi) <= CORNER_TOL:
                    hy, wall = hi, _CORNER
            elif ty1 > tx1:
                hy = cy - 0.5 if vy > 0.0 else cy + 0.5
                hx = px + s * vx
                wall = _BOTTOM if vy > 0.0 else _TOP
                lo, hi = cx - 0.5, cx + 0.5
                if abs(hx - lo) <= CORNER_TOL:
                    hx, wall = lo, _CORNER
                elif abs(hx - hi) <= CORNER_TOL:
                    hx, wall = hi, _CORNER
            else:
                # entry exactly through a corner point
                hx = cx - 0.5 if vx > 0.0 else cx + 0.5
                hy = cy - 0.5 if vy > 0.0 else cy + 0.5
                wall = _CORNER

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
        test_start = False


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
        # a hit point lies on its obstacle's wall, so its cell is the walk's
        # floor(p / 2) on each axis, without ties
        obstacle_center=(2 * math.floor(hx * 0.5) + 1, 2 * math.floor(hy * 0.5) + 1),
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
# Lockstep batch: the same first hit, classification and reflection as
# simulate, run over many rays at once with numpy. Every operation is the
# scalar kernel's IEEE operation applied elementwise, so each ray follows its
# scalar trajectory bit for bit.
# ---------------------------------------------------------------------------

LOCKSTEP_CELLS = 4     # candidate block: the cells (a, b) ahead with a + b < this
# the block's offsets (a, b), in cells along each axis of travel, as columns
_BLOCK_A, _BLOCK_B = (np.array(column, dtype=float)[:, None] for column in zip(
    *[(a, b) for a in range(LOCKSTEP_CELLS) for b in range(LOCKSTEP_CELLS - a)]))
_FLIP_X, _FLIP_Y = np.array(_FLIPS).T   # _FLIPS as columns, for wall code arrays


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

    Instead of walking cells in order, each ray tests one fixed block of
    candidate obstacles at once: the cells a steps along x and b steps along
    y ahead of its start cell, in its direction of travel, with a, b >= 0
    and a + b < LOCKSTEP_CELLS. The slab times are _strikes' expressions,
    and the ray takes the valid candidate with the smallest t_near. This is
    the walk's first hit:
      - a valid candidate is an obstacle the ray really crosses, so the
        scalar walk visits its cell;
      - a ray moves monotonically in x and y, so the block is closed under
        "earlier along the ray": any obstacle met before a candidate is
        itself a candidate;
      - along any ray, obstacles are at least 1 apart in path length, so the
        smallest t_near is the one the walk meets first;
      - the walk's t_entry <= horizon follows from t_near <= horizon.
    Rays with no valid candidate, and rays with a velocity component so
    small (zero, say) that 1/vx * 1/vy is not finite, are finished by the
    scalar walk from the same state, which gives the same answer.
    """
    _check_horizon(horizon)
    x, y, vx, vy, t = rays
    n = len(x)
    # inf and nan arise only on rays the scalar walk finishes, or exactly as
    # Python float arithmetic gives them without warning
    with np.errstate(all="ignore"):
        inv_vx = 1.0 / vx
        inv_vy = 1.0 / vy
        step_x = np.where(vx > 0.0, 1.0, -1.0)
        step_y = np.where(vy > 0.0, 1.0, -1.0)
        # (block, ray) arrays; the near plane of a cell is its center minus
        # half a step, which is _strikes' swapped slab bound bitwise
        cx = 2.0 * (np.floor(x * 0.5) + _BLOCK_A * step_x) + 1.0
        cy = 2.0 * (np.floor(y * 0.5) + _BLOCK_B * step_y) + 1.0
        half_x = 0.5 * step_x
        half_y = 0.5 * step_y
        tx1 = (cx - half_x - x) * inv_vx
        tx2 = (cx + half_x - x) * inv_vx
        ty1 = (cy - half_y - y) * inv_vy
        ty2 = (cy + half_y - y) * inv_vy
        # np.maximum and np.minimum differ from _strikes' comparisons only
        # on nan and signed zeros, which no valid candidate has
        t_near = np.maximum(tx1, ty1)
        valid = ((MIN_FLIGHT <= t_near) & (t_near < np.minimum(tx2, ty2))
                 & (t_near <= horizon) & np.isfinite(inv_vx * inv_vy))
        # flat index of each ray's first hit; take is cheaper than
        # take_along_axis on arrays this small
        first = np.where(valid, t_near, np.inf).argmin(axis=0) * n + np.arange(n)
        s = t_near.take(first)
        walked = valid.take(first)
        hx, hy, walls = _classify_hits(x, y, vx, vy, s, tx1.take(first), ty1.take(first),
                                       cx.take(first), cy.take(first))
    for i in np.flatnonzero(~walked):
        hit = next(_strikes(float(x[i]), float(y[i]), float(vx[i]), float(vy[i]), horizon),
                   None)
        if hit is None:
            s[i], hx[i], hy[i], walls[i] = 0.0, x[i], y[i], NO_HIT
        else:
            s[i], hx[i], hy[i], walls[i] = hit[:4]

    struck = walls != NO_HIT
    rx = np.where(_FLIP_X[walls], -vx, vx)
    ry = np.where(_FLIP_Y[walls], -vy, vy)
    # math.hypot, as in simulate: np.hypot is not guaranteed to round alike
    norm = np.fromiter(map(math.hypot, rx.tolist(), ry.tolist()), float, n)
    next_rays = Rays(
        x=hx,
        y=hy,
        vx=np.where(struck, rx / norm, vx),
        vy=np.where(struck, ry / norm, vy),
        t=np.where(struck, t + s, t),
    )
    return next_rays, walls


def _classify_hits(x, y, vx, vy, s, tx1, ty1, cx, cy):
    """_strikes' snapping and labelling of a hit, elementwise: the snapped hit
    points and the wall codes."""
    vertical = tx1 > ty1
    horizontal = ty1 > tx1
    # through the corner point itself when neither
    wall_x = np.where(vx > 0.0, cx - 0.5, cx + 0.5)
    wall_y = np.where(vy > 0.0, cy - 0.5, cy + 0.5)
    px = np.where(horizontal, x + s * vx, wall_x)
    py = np.where(vertical, y + s * vy, wall_y)
    code = np.where(vertical, np.where(vx > 0.0, _LEFT, _RIGHT),
                    np.where(horizontal, np.where(vy > 0.0, _BOTTOM, _TOP), _CORNER))
    # promote near-corner hits: snap the coordinate along the wall
    along = np.where(vertical, py, px)
    center = np.where(vertical, cy, cx)
    lo = center - 0.5
    hi = center + 0.5
    near_lo = np.abs(along - lo) <= CORNER_TOL
    near_hi = ~near_lo & (np.abs(along - hi) <= CORNER_TOL)
    snapped = np.where(near_lo, lo, np.where(near_hi, hi, along))
    corner = (vertical | horizontal) & (near_lo | near_hi)
    return (np.where(horizontal, snapped, px), np.where(vertical, snapped, py),
            np.where(corner, _CORNER, code).astype(np.int8))


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
