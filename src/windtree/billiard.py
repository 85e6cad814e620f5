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
HORIZON = 1e6          # path-length cap of one flight before declaring a corridor
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
_FLIP_TABLE = np.array(_FLIPS)


class Vec2(NamedTuple):
    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def unit(x: float, y: float) -> Vec2:
    """Rescale (x, y) to unit norm: divide by math.hypot until it returns
    exactly 1.0, for at most four divisions.

    One division can leave hypot an ulp off 1.0; the next one or two land
    on a fixed point, which a further division leaves bit for bit. No
    kernel renormalizes: a bounce only flips signs, so every later state
    keeps this velocity's (|vx|, |vy|). A velocity that does not settle
    within the cap is still valid, as bounces keep its magnitude too.
    """
    n = math.hypot(x, y)
    if n == 0.0 or not math.isfinite(n):
        raise DegenerateVelocity(f"cannot normalize ({x}, {y})")
    for _ in range(4):
        x, y = x / n, y / n
        n = math.hypot(x, y)
        if n == 1.0:
            break
    return Vec2(x, y)


@dataclass(frozen=True)
class ParticleState:
    """Position and velocity of the particle; elapsed_time is path length.

    The speed must be within SPEED_TOL of 1, and every later state keeps
    it as given, as a bounce only flips signs; unit() makes it exactly 1.0
    where four divisions can.
    """

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
    wall, the cumulative path length t and the wall code (an index into
    WALLS). The struck obstacle's center is cell_centers(x, y), and the
    post-bounce velocity follows from the initial one and the walls, as a
    bounce only flips signs (velocities()). Construction checks that the
    columns have one length, that x, y and t are finite, as ParticleState's
    are, and that every wall code indexes WALLS.
    """

    initial: ParticleState
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    wall: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        if len({len(c) for c in (self.x, self.y, self.t, self.wall)}) != 1:
            raise ValueError("trajectory columns differ in length")
        if not (np.isfinite(self.x) & np.isfinite(self.y) & np.isfinite(self.t)).all():
            raise ValueError("particle state components must be finite")
        # NO_HIT (-1) would index the Corner flips
        bad = (self.wall < 0) | (self.wall >= len(WALLS))
        if bad.any():
            raise ValueError(f"wall code {int(self.wall[bad.argmax()])} is not an index into WALLS")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def truncation_reason(self) -> Optional[str]:
        return truncation_reason(len(self)) if self.truncated else None

    def velocities(self) -> tuple[np.ndarray, np.ndarray]:
        """The post-bounce velocity (vx, vy) of every strike: the initial
        velocity, reflected in place as simulate does, with each component's
        sign flipped by every strike whose wall flips it (_FLIPS). Negation
        is exact, so this is bitwise the velocity both kernels carry."""
        vx, vy = _start_velocity(self.initial)
        odd = np.logical_xor.accumulate(_FLIP_TABLE[self.wall], axis=0)
        return np.where(odd[:, 0], -vx, vx), np.where(odd[:, 1], -vy, vy)

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
    A coordinate that is not finite or has |p| >= 2**53, where 2 floor(p / 2)
    + 1 is no longer an exact odd integer, is a ValueError.
    """
    centers = []
    for p in map(np.asarray, (x, y)):
        exact = np.abs(p) < 2.0**53  # False on nan
        if not exact.all():
            raise ValueError(f"no exact cell center for coordinate {float(p[~exact].flat[0])!r}")
        centers.append((2.0 * np.floor(p * 0.5) + 1.0).astype(np.int64))
    return tuple(centers)


def _cell_center(p: float) -> float:
    """cell_centers of one scalar coordinate, as a float: the walk's own
    2 floor(p / 2) + 1, with the same ValueError where that is not an exact
    odd integer. One point through cell_centers' 0-d arrays costs about
    fifty times as much."""
    if not abs(p) < 2.0**53:  # True on nan
        raise ValueError(f"no exact cell center for coordinate {float(p)!r}")
    return 2.0 * math.floor(p * 0.5) + 1.0


# ---------------------------------------------------------------------------
# The strike walk: obstacle bands paired in ray order. An obstacle is where
# an x-band |x - c| < 0.5 (c odd) and a y-band overlap; along a ray, a band
# is an open interval of path length, its slab.
# ---------------------------------------------------------------------------

# A flight is at most HORIZON <= _REACH long, so its points from a start
# within _REACH of the origin lie within 2**52, where the walls c +- 0.5 of
# odd band centers c are exact.
_REACH = 2.0**51


# The interior pre-check's half-width: a hit h along a wall of band c with
# c - _INTERIOR < h < c + _INTERIOR lies strictly inside the wall's ends
# c -+ 0.5 and farther than CORNER_TOL from both (proof in _strikes).
_INTERIOR = 0.5 - 2.0 * CORNER_TOL


def _corner_snap(h, c):
    """The corner test of a hit h along a wall of band c: h snapped onto the
    end c - 0.5 or c + 0.5 within CORNER_TOL of it, and whether it was."""
    lo, hi = c - 0.5, c + 0.5
    if abs(h - lo) <= CORNER_TOL:
        return lo, True
    if abs(h - hi) <= CORNER_TOL:
        return hi, True
    return h, False


def _strikes(px, py, vx, vy):
    """The wall strikes of the ray from (px, py) along (vx, vy), in order.

    Yields (s, hx, hy, wall) for each strike: the path length s from the
    previous strike (from the start, for the first), the hit point snapped
    onto the wall plane and the wall code (an index into WALLS). The bounce
    flips the sign of one velocity component or, at a corner, of both, as
    _FLIPS[wall] says; it keeps the speed as given. Stops when
    nothing is struck within path length HORIZON of the last strike.
    Flights shorter than MIN_FLIGHT are ignored so the wall just
    departed is never re-hit; tangent grazes do not count as hits.

    Each strike steps through the bands of the faster axis f in ray order
    and pairs each with the first band of the slower axis s whose slab ends
    after the f-slab starts: over one f-band, s moves at most 1. The pair is
    an obstacle the ray enters unless the s-slab starts after the f-slab
    ends; then the walk jumps to the first f-band that ends after the
    s-slab starts, so a strike costs a few steps in every direction. A band
    placed from path length t (0 for a first strike, the s-slab's start
    for a jump) is 2 floor((p + t v) / 2) + 1, the band of the cell holding
    the ray's point at t, or the next one where that band's far slab ends
    by t: one floor and one exact slab-time comparison, inline. With vs == 0
    the ray is in an s-band for all time, or in a corridor. So it is with
    |vs| < 2**-1024, whose inverse overflows: within HORIZON <= _REACH the
    ray moves less than 2**-973 across the bands, and on a band's edge it
    grazes, as at vs == 0. A strike from a coordinate beyond +-_REACH meets
    nothing.

    A side strike is resolved on its own axis's branch, which opens with
    an interior pre-check of the hit h along the wall, in band c:
    c - _INTERIOR < h < c + _INTERIOR. Where it holds, both corner tests
    abs(h - (c -+ 0.5)) <= CORNER_TOL must fail and h lies strictly inside
    the band, so they are skipped; every other hit, near an end or outside
    the band, takes them (_corner_snap). The pre-check is conservative for
    every odd |c| < 2**52, where lo = c - 0.5 is exact. With d = 0.5 -
    _INTERIOR (2 CORNER_TOL within 1e-16), c - _INTERIOR is the real
    lo + d rounded, b; let h > b. If b == lo, d is at most half the float
    step g above lo, and h > lo is a float, so h - lo >= g >= 2d, and
    rounding keeps it at least g, a power of two: fl(h - lo) > CORNER_TOL.
    If b > lo, b - lo is exact (Sterbenz) and h - lo > b - lo rounds to at
    least b - lo; with floats spaced u near lo + d, b - lo >= d - u/2 >
    CORNER_TOL where u <= CORNER_TOL, and b - lo >= u > CORNER_TOL
    otherwise. Either way h > lo and fl(h - lo) > CORNER_TOL; the upper end
    mirrors this.

    Each strike hands the next what it has settled, each bitwise what a
    fresh walk from the post-bounce state would compute:
      - the frame: bounces only flip signs, so the faster axis stays the
        faster one, and the walk runs in (f, s) coordinates throughout.
        1 / v flips with v, as 1 / -v == -(1 / v) in IEEE arithmetic, and
        so does, on each axis, the side (+-0.5 from a band's center) of a
        band's far wall;
      - the bands: the next walk starts on the wall just struck, moving
        away. On the flipped axis its band is the struck band's neighbour
        behind it, as the struck band's far slab time is 0; so it is on
        both axes after an entry exactly through a corner point. Along the
        wall it is the struck band where the pre-check holds. Otherwise,
        and along the wall after a corner, the band is placed afresh, which
        gives the struck band wherever the hit lies strictly inside it.
    """
    # read once per walk, locals in the inner loop
    horizon, reach, min_flight, interior, floor = HORIZON, _REACH, MIN_FLIGHT, _INTERIOR, math.floor
    x_fast = abs(vx) >= abs(vy)
    pf, ps, vf, vs = (px, py, vx, vy) if x_fast else (py, px, vy, vx)
    inv_f = 1.0 / vf
    inv_s = 1.0 / vs if vs != 0.0 else math.inf
    # vs == 0, or too small for 1 / vs: the ray keeps its s-band (inv_s unread)
    s_fixed = math.isinf(inv_s)
    # on each axis, the far wall of a band from its center
    side_f, side_s = (0.5 if vf > 0.0 else -0.5), (0.5 if vs > 0.0 else -0.5)
    # the wall codes of an f-band's walls and of an s-band's
    wall_f, wall_s = (_LEFT, _BOTTOM) if x_fast else (_BOTTOM, _LEFT)
    cf = cs = None  # the bands to start in, once a strike has settled them
    while True:
        if not (-reach < pf < reach and -reach < ps < reach):
            return  # beyond odd-integer resolution
        if cf is None:
            cf = 2.0 * floor(pf * 0.5) + 1.0
            if (cf + side_f - pf) * inv_f <= 0.0:
                cf += 4.0 * side_f
        if s_fixed:
            cs = 2.0 * floor(ps * 0.5) + 1.0
            if not cs - 0.5 < ps < cs + 0.5:
                return  # a corridor between obstacle rows or columns
            ns, fs = -math.inf, math.inf
        else:
            if cs is None:
                cs = 2.0 * floor(ps * 0.5) + 1.0
                if (cs + side_s - ps) * inv_s <= 0.0:
                    cs += 4.0 * side_s
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
            if ns < ff and s >= min_flight:
                break
            # jump past the s-slab's start, or step past a strike too close
            t = ns if ns > ff else ff
            cf = 2.0 * floor((pf + t * vf) * 0.5) + 1.0
            if (cf + side_f - pf) * inv_f <= t:
                cf += 4.0 * side_f

        # snap the hit onto the struck wall's plane, and along that wall onto
        # a corner point within CORNER_TOL
        if nf > ns:  # the near wall of f-band cf, struck at hs along it
            hf, hs, wall = cf - side_f, ps + s * vs, wall_f + (side_f < 0.0)
            if not cs - interior < hs < cs + interior:
                hs, corner = _corner_snap(hs, cs)
                cs = None
                if corner:
                    vs, inv_s, side_s, wall = -vs, -inv_s, -side_s, _CORNER
            cf -= 4.0 * side_f
            vf, inv_f, side_f = -vf, -inv_f, -side_f
        elif ns > nf:  # the near wall of s-band cs, struck at hf along it
            hf, hs, wall = pf + s * vf, cs - side_s, wall_s + (side_s < 0.0)
            if not cf - interior < hf < cf + interior:
                hf, corner = _corner_snap(hf, cf)
                cf = None
                if corner:
                    vf, inv_f, side_f, wall = -vf, -inv_f, -side_f, _CORNER
            cs -= 4.0 * side_s
            vs, inv_s, side_s = -vs, -inv_s, -side_s
        else:  # an entry exactly through a corner point
            hf, hs, wall = cf - side_f, cs - side_s, _CORNER
            cf, cs = cf - 4.0 * side_f, cs - 4.0 * side_s
            vf, inv_f, side_f = -vf, -inv_f, -side_f
            vs, inv_s, side_s = -vs, -inv_s, -side_s
        yield (s, hf, hs, wall) if x_fast else (s, hs, hf, wall)
        pf, ps = hf, hs


def point_in_obstacle(x: float, y: float, shrink: float = 0.0) -> bool:
    """True when (x, y) lies strictly inside an obstacle shrunk by `shrink`."""
    cx, cy = _cell_center(x), _cell_center(y)
    return bool(abs(x - cx) < 0.5 - shrink and abs(y - cy) < 0.5 - shrink)


def _normalize_on_wall(px, py, vx, vy):
    """Reflect in place a velocity that points into the obstacle whose wall
    the position sits on (within WALL_TOL). Needed so velocity-reversed
    post-collision states retrace instead of tunneling; not a logged event.
    """
    cx, cy = _cell_center(px), _cell_center(py)
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


def _within_reach(px, py) -> bool:
    return -_REACH < px < _REACH and -_REACH < py < _REACH


def _start_velocity(initial: ParticleState) -> tuple[float, float]:
    """The velocity of the first flight from `initial`: reflected in place
    off the wall its position sits on, within the walk's reach."""
    (px, py), (vx, vy) = initial.position, initial.velocity
    return _normalize_on_wall(px, py, vx, vy) if _within_reach(px, py) else (vx, vy)


def simulate(initial: ParticleState, n_collisions: int) -> TrajectoryLog:
    """Run the particle through `n_collisions` wall strikes.

    The log is truncated if a corridor direction exhausts the horizon first,
    or at once from a start with a coordinate beyond +-_REACH. An initial
    position on a wall with inward velocity is reflected in place before the
    first flight.
    """
    if n_collisions < 0:
        raise ValueError("n_collisions must be >= 0")
    px, py = initial.position
    # the walk's reach rule comes first: a start beyond +-_REACH meets
    # nothing, and past 2**63 its cell center has no int64 value
    if _within_reach(px, py) and point_in_obstacle(px, py, shrink=WALL_TOL):
        raise ValueError(f"initial position {tuple(initial.position)} is inside an obstacle")
    strikes = chain.from_iterable(
        islice(_strikes(px, py, *_start_velocity(initial)), n_collisions))
    s, x, y, wall = np.fromiter(strikes, float).reshape(-1, 4).T.copy()
    # the running sum from the initial time, one addition per strike
    t = np.add.accumulate(np.concatenate([[initial.elapsed_time], s]))[1:]
    return TrajectoryLog(initial=initial, x=x, y=y, t=t, wall=wall.astype(np.int8),
                         truncated=len(s) < n_collisions)


def truncation_reason(collisions: int) -> str:
    """Why a trajectory stopped after `collisions` strikes: a corridor."""
    return f"no obstacle within horizon {HORIZON:g} after {collisions} collisions"


def next_collision(state: ParticleState) -> CollisionEvent:
    """The strike of simulate(state, 1), or NoHitWithinHorizon where its log
    is empty: the same start rules, a ValueError from inside an obstacle
    included."""
    log = simulate(state, 1)
    if not len(log):
        raise NoHitWithinHorizon(f"from {tuple(state.position)}: {log.truncation_reason}")
    hx, hy = float(log.x[0]), float(log.y[0])
    return CollisionEvent(
        point=Vec2(hx, hy),
        time=float(log.t[0]),
        wall=WALLS[log.wall[0]],
        # a hit point lies on its obstacle's wall, 0.5 from any cell edge
        obstacle_center=(int(_cell_center(hx)), int(_cell_center(hy))),
    )


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
    """Positions, velocities and elapsed path lengths of R rays."""

    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    t: np.ndarray


def step_rays(rays: Rays) -> tuple[Rays, np.ndarray]:
    """Advance every ray to its next wall strike and reflect it there.

    Returns the post-bounce rays and the wall code (an index into WALLS) of
    each strike. A ray that meets nothing within the horizon keeps its state
    and gets the code NO_HIT. Each ray's result is bitwise the next event and
    post-bounce state of `simulate` from the same state: like the scalar
    walk, a bounce only flips signs, so the two agree on any velocity.

    That holds for walk-ready rays only: none inside an obstacle, and none on
    a wall with its velocity into that wall's obstacle. simulate rejects the
    first and reflects the second in place before its first flight; step_rays
    checks neither, and walks such a ray through the obstacle. The sweep's
    origin starts, post-bounce states and strike_origins' batch are all
    walk-ready, and a per-ray check would add numpy passes to every step.

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
        which has the smallest t_near, and both stop at t_near > HORIZON.
    The block keeps only a hit through one wall (tx1 != ty1) farther than
    CORNER_TOL from its ends, by _strikes' own test. Every other ray takes
    the scalar walk's first strike from the same state: no valid candidate
    within the horizon, a velocity component so small (zero, say) that
    1/vx * 1/vy is not finite, a coordinate beyond +-_REACH, or a corner.
    Only the walk labels corners.
    """
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
        clean = ((s <= HORIZON) & (entry[0] != entry[1]) & ~np.where(vertical, close[1], close[0])
                 & np.isfinite(inv_v[0] * inv_v[1]) & (np.abs(p).max(axis=0) < _REACH))
        normal = np.array([vertical, ~vertical])  # the struck wall's normal axis
        hx, hy = np.where(normal, near, point)
        walls = np.where(vertical, np.where(ahead[0], _LEFT, _RIGHT),
                         np.where(ahead[1], _BOTTOM, _TOP)).astype(np.int8)
        # a side wall flips its normal component
        next_vx, next_vy = np.where(normal, -v, v)
        next_t = t + s
    for i in np.flatnonzero(~clean):
        hit = next(_strikes(float(x[i]), float(y[i]), float(vx[i]), float(vy[i])), None)
        if hit is None:  # a ray that meets nothing keeps its state
            hx[i], hy[i], walls[i], next_vx[i], next_vy[i], next_t[i] = (
                x[i], y[i], NO_HIT, vx[i], vy[i], t[i])
            continue
        si, hx[i], hy[i], walls[i] = hit
        flip_x, flip_y = _FLIPS[walls[i]]
        next_vx[i], next_vy[i] = (-vx[i] if flip_x else vx[i]), (-vy[i] if flip_y else vy[i])
        next_t[i] = t[i] + si
    return Rays(x=hx, y=hy, vx=next_vx, vy=next_vy, t=next_t), walls


def strike_origins(log: TrajectoryLog) -> Rays:
    """The state each logged strike starts from, as one batch for step_rays:
    the initial state, its velocity reflected in place as simulate does, then
    every post-bounce state but the last (velocities()). Stepping this batch
    once reproduces the log's rows and velocities bit for bit when the log
    came from simulate."""
    (px, py), t = log.initial.position, log.initial.elapsed_time
    vx, vy = _start_velocity(log.initial)
    n = len(log)

    def before(first, column):
        return np.concatenate([[first], column])[:n]

    lvx, lvy = log.velocities()
    return Rays(x=before(px, log.x), y=before(py, log.y), vx=before(vx, lvx),
                vy=before(vy, lvy), t=before(t, log.t))


def distance_series(log: TrajectoryLog) -> np.ndarray:
    """Euclidean distance of each collision point from the origin."""
    return np.hypot(log.x, log.y)
