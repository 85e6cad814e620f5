"""Event-driven billiard in a periodic forest of unit-square obstacles.

Unit squares are centered at every odd-integer lattice point, so the
obstacle nearest the origin to the north-east spans [0.5, 1.5] x [0.5, 1.5]
and adjacent squares are one unit apart. A point particle travels at unit
speed and reflects specularly off obstacle walls; time equals path length.

The functions here are pure: they share no mutable state, and many
threads or processes may call them at once. The one object with state is a
Lockstep batch of rays. It owns its arrays and the scratch arrays its steps
write into, none of them at module level, and one thread steps it at a time.
"""

from __future__ import annotations

import contextlib
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
        """The post-bounce velocity (vx, vy) of every strike: the first
        flight's velocity (_start_velocity, with its ValueError), with each
        component's sign flipped by every strike whose wall flips it
        (_FLIPS). Negation is exact, so this is bitwise the velocity both
        kernels carry."""
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
        centers.append(_band_centers(p).astype(np.int64))
    return tuple(centers)


def _band_centers(p):
    """2 floor(p / 2) + 1 of every coordinate in p, as floats: the walk's
    band of each, unchecked."""
    return 2.0 * np.floor(p * 0.5) + 1.0


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


def _start_velocity(initial: ParticleState) -> tuple[float, float]:
    """The velocity of the first flight from `initial`: the one start rule,
    which simulate, velocities() and strike_origins take.

    The walk's reach rule comes first: a start with a coordinate beyond
    +-_REACH meets nothing and keeps its velocity (past 2**63 its cell
    center has no int64 value). Within it the start's cell is placed once,
    as _strikes places its bands, at exact odd-integer centers. A start
    inside that cell's obstacle shrunk by WALL_TOL is a ValueError. On a
    wall (within WALL_TOL), a velocity into the wall's obstacle is
    reflected in place, so that a velocity-reversed post-bounce state
    retraces instead of tunneling; the reflection is not a logged strike.
    """
    (px, py), (vx, vy) = initial.position, initial.velocity
    if not (-_REACH < px < _REACH and -_REACH < py < _REACH):
        return vx, vy
    cx, cy = 2.0 * math.floor(px * 0.5) + 1.0, 2.0 * math.floor(py * 0.5) + 1.0
    if abs(px - cx) < 0.5 - WALL_TOL and abs(py - cy) < 0.5 - WALL_TOL:
        raise ValueError(f"initial position {(float(px), float(py))} is inside an obstacle")
    if (cy - 0.5) - WALL_TOL <= py <= (cy + 0.5) + WALL_TOL and (
            (abs(px - (cx - 0.5)) <= WALL_TOL and vx > 0.0)
            or (abs(px - (cx + 0.5)) <= WALL_TOL and vx < 0.0)):
        vx = -vx
    if (cx - 0.5) - WALL_TOL <= px <= (cx + 0.5) + WALL_TOL and (
            (abs(py - (cy - 0.5)) <= WALL_TOL and vy > 0.0)
            or (abs(py - (cy + 0.5)) <= WALL_TOL and vy < 0.0)):
        vy = -vy
    return vx, vy


def simulate(initial: ParticleState, n_collisions: int) -> TrajectoryLog:
    """Run the particle through `n_collisions` wall strikes, the first
    flight along _start_velocity(initial).

    The log is truncated if a corridor direction exhausts the horizon first,
    or at once from a start with a coordinate beyond +-_REACH. A start
    inside an obstacle is a ValueError, whatever `n_collisions` is.
    """
    if n_collisions < 0:
        raise ValueError("n_collisions must be >= 0")
    px, py = initial.position
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


def next_collision(state: ParticleState) -> TrajectoryLog:
    """simulate(state, 1).

    bench/workloads.py's layer probe calls it and ignores the result, the
    only reason it is kept: it goes when the bench calls simulate instead.
    """
    return simulate(state, 1)


# ---------------------------------------------------------------------------
# Lockstep batch: simulate's strikes and bounces over many rays at once.
# numpy computes side-wall strikes away from corners with the scalar walk's
# IEEE operations elementwise; every other ray takes the scalar walk itself.
# So each ray follows its scalar trajectory bit for bit.
# ---------------------------------------------------------------------------

LOCKSTEP_CELLS = 4     # candidate block: the cells (a, b) ahead with a + b < this
# The walls of the obstacle k cells ahead on either axis, near then far, as
# offsets from the start cell's center in the direction of travel, shaped
# (near/far, cells ahead, axis, ray) for broadcasting.
_PLANE_OFFSETS = np.array([[2.0 * k + side for k in range(LOCKSTEP_CELLS)]
                           for side in (-0.5, 0.5)])[:, :, None, None]
# The block's rows of the flattened (near/far, cells ahead, axis) slab
# times: tx1 at a, ty1 at b, tx2 at a and ty2 at b, one column per cell
# (a, b).
_BLOCK_ROWS = np.array([(2 * a, 2 * b + 1, 2 * (LOCKSTEP_CELLS + a), 2 * (LOCKSTEP_CELLS + b) + 1)
                        for a in range(LOCKSTEP_CELLS) for b in range(LOCKSTEP_CELLS - a)]).T


@contextlib.contextmanager
def _step_settings():
    """The numpy settings Lockstep steps run under: floating-point errors
    ignored, and a 256-element ufunc buffer.

    inf and nan arise only on rays the scalar walk finishes, or exactly as
    Python float arithmetic gives them without warning. With its default
    8192-element buffer, numpy copies the broadcast operands of the plane
    and slab arithmetic on fewer rays through fresh buffers at every call; a
    256-element one spares them. numpy >= 2 restores both as errstate exits.
    """
    with np.errstate(all="ignore"):
        np.setbufsize(256)
        yield


class Lockstep:
    """R rays stepped together, one wall strike per step.

    Built once from the columns x, y, vx, vy and t of the rays, each
    stepped from the state it is given: the start rule (_start_velocity)
    is the caller's, as strike_origins applies it to a log's initial state.

    The batch holds the positions p and velocities v as (2, R) arrays and
    the elapsed path lengths t, and carries across strikes what each
    velocity fixes: its inverse inv_v, its travel signs sign
    (np.copysign(1.0, v), so that -0.0 has its own), side (0.5 * sign, the
    far wall of a band from its center, as _strikes' side_f and side_s)
    and whether 1/vx * 1/vy is finite (finite). v, inv_v, sign and side are
    the rows of one (4, 2, R) array, so a bounce negates a component of all
    four in one multiply. Negation is exact, 1 / -v == -(1 / v), so the
    carried values are bitwise those of a batch built afresh from the
    stepped rays, and |1/vx * 1/vy| never changes. So are the centers of
    each ray's start cell, centers (2 floor(p / 2) + 1 on each axis): a
    strike on the block settles them as the struck obstacle's, as _strikes
    carries its bands, and a strike of the walk places them afresh.

    A step writes into scratch arrays the batch owns and reuses, 956 bytes
    per ray beside the rays' own 105, and allocates nothing that grows with
    the batch. The arrays p, v and t that a step leaves hold until the
    next step, which overwrites them; one thread steps a batch. The wall
    codes (wall) are built from the step's own flags on first read.
    """

    def __init__(self, x, y, vx, vy, t):
        self.p = np.array([x, y], dtype=float)
        self.t = np.array(t, dtype=float)
        self._state = np.empty((4, *self.p.shape))
        self.v, self.inv_v, self.sign, self.side = self._state
        self.v[...] = vx, vy
        with _step_settings():
            np.divide(1.0, self.v, out=self.inv_v)
            # a ray with a component too small (zero, say) for this product
            # to be finite never leaves the scalar walk
            self.finite = np.isfinite(self.inv_v[0] * self.inv_v[1])
            self.centers = _band_centers(self.p)
        np.copysign(1.0, self.v, out=self.sign)
        np.multiply(self.sign, 0.5, out=self.side)
        # c - _INTERIOR and c + _INTERIOR from a band center c in one add,
        # the first as c + -_INTERIOR, bitwise the same; _INTERIOR as it is
        # when the batch is built
        self._interior = np.array([-_INTERIOR, _INTERIOR])[:, None, None]
        # the coming steps whose reach rule needs no scan (see _step)
        self._unscanned = 0
        self._wall = np.full(len(self.t), NO_HIT, dtype=np.int8)
        self._allocate()

    def __len__(self) -> int:
        return len(self.t)

    def _allocate(self):
        """The scratch arrays of a step over the batch's rays."""
        n, cells, block = len(self.t), LOCKSTEP_CELLS, _BLOCK_ROWS.shape[1]
        # (planes/slabs, near/far, cells ahead, axis, ray): the walls of the
        # obstacles ahead on each axis, and their slab times
        self._walls = np.empty((2, 2, cells, 2, n))
        # the flat index in _walls of each axis's near plane, then of its
        # slab time, 1 cell before the start cell, so that adding 2 n per
        # cell ahead names a wall
        behind = (np.arange(2)[:, None] - 2) * n + np.arange(n)
        self._behind = np.stack([behind, behind + self._walls[0].size])
        self._block = np.empty((4, block, n))      # tx1, ty1, tx2, ty2 of each candidate
        self._t_near, self._t_far = np.empty((block, n)), np.empty((block, n))
        self._invalid, self._invalid_far = (np.empty((block, n), dtype=bool) for _ in range(2))
        self._reached = np.empty((cells, 2, n), dtype=bool)
        # take indices stay intp: take copies any other index type afresh
        self._counts = np.empty((2, n), dtype=np.intp)
        self._rows = np.empty((2, 2, n), dtype=np.intp)
        self._s = np.empty(n)
        self._taken, self._bounds = np.empty((2, 2, n)), np.empty((2, 2, n))
        self._next_p, self._flip = np.empty((2, n)), np.empty((2, n))
        self._normal, self._inside, self._inside_hi = (
            np.empty((2, n), dtype=bool) for _ in range(3))
        self._clean, self._one_wall = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    @property
    def wall(self) -> np.ndarray:
        """The wall code (an index into WALLS) of each ray's last strike,
        NO_HIT before the first step and for a ray that met nothing.

        Built on first read after a step, from the step's own flags: a
        bounce leaves the struck axis's travel sign pointing away from the
        wall, so a vertical wall is Left where sign[0] < 0 and Right
        otherwise, and any other is Bottom where sign[1] < 0 and Top
        otherwise. The codes of the rays the scalar walk took, Corner and
        NO_HIT among them, are its own.
        """
        if self._wall is None:
            # read as int8, so that the sum and putmask cast no copy of it
            ahead = np.greater(self.sign, 0.0).view(np.int8)
            self._wall = ahead[1] + np.int8(_BOTTOM)
            np.putmask(self._wall, self._normal[0], ahead[0])
            walked, codes = self._walked
            self._wall[walked] = codes
        return self._wall

    def drop(self, rows):
        """Remove the rays at the indices `rows`, as step() lists its misses.
        No coordinate grows, so the reach rule's budget of unscanned steps
        (_step) holds."""
        keep = np.ones(len(self.t), dtype=bool)
        keep[rows] = False
        self._wall = self.wall[keep]
        self.p, self.centers = self.p[:, keep], self.centers[:, keep]
        self._state = self._state[..., keep]
        self.v, self.inv_v, self.sign, self.side = self._state
        self.t, self.finite = self.t[keep], self.finite[keep]
        self._allocate()

    def step(self) -> list[int]:
        """Advance every ray to its next wall strike and reflect it there.

        Afterwards wall reads each strike's wall code (an index into WALLS).
        Each ray's result is bitwise the next strike and post-bounce state
        of simulate from the same state: like the scalar walk, a bounce only
        flips signs, so the two agree on any velocity. A ray that meets
        nothing within the horizon keeps its state and gets the code NO_HIT,
        and the returned list holds the indices of those rays, in order.

        The step runs under the numpy settings of _step_settings, entered
        and left in this call, so numpy's error handling and buffer size are
        the caller's again when it returns. A loop of many steps enters
        them once with steps().
        """
        with _step_settings():
            return self._step()

    def steps(self, count: int):
        """Yield step()'s list of misses for each of `count` steps.

        The numpy settings of _step_settings are entered once, before the
        first step, and left when the iteration ends or the generator is
        closed, as it is when a loop over it breaks or raises: between two
        steps the caller's own code runs under them too, with numpy's
        floating-point errors ignored. Each step is bitwise a step(). Nested
        settings must be left last in, first out, so a caller finishes or
        closes one such generator before it starts another.
        """
        with _step_settings():
            for _ in range(count):
                yield self._step()

    def _step(self) -> list[int]:
        """step(), under settings the caller has entered.

        Instead of walking bands in order, each ray tests one fixed block of
        candidate obstacles at once: the cells a steps along x and b steps
        along y ahead of its start cell, in its direction of travel, with
        a, b >= 0 and a + b < LOCKSTEP_CELLS. The slab times are _strikes'
        expressions, computed once per axis and cells ahead (tx1 depends on
        a alone, ty1 on b), and the ray's path length s to its hit is the
        smallest t_near of a valid candidate, a min-reduce. This is the
        walk's first hit:
          - a valid candidate passes the walk's test of a pair of bands,
            slabs that overlap at least MIN_FLIGHT ahead, so it is an
            obstacle the ray really enters;
          - a ray moves monotonically in x and y, so the block is closed
            under "earlier along the ray": any obstacle met before a
            candidate is itself a candidate;
          - the walk takes bands in ray order and returns its first valid
            pair, which has the smallest t_near, and both stop at
            t_near > HORIZON.
        Valid candidates never share a t_near (of two, the later one on some
        axis starts there no earlier than the other's far slab ends), so the
        hit is one cell (a*, b*). a* is the count of near slab times tx1 <=
        s, minus 1: tx1 is non-decreasing in a, and tx1[a* + 1] >= tx2[a*] >
        s, as the hit's x-slab ends after it. So is b* on y, and no argmin
        is taken. One take reads the hit's near planes and entry slab times.

        The block keeps only a hit through one wall (tx1 != ty1) that passes
        _strikes' own interior pre-check along that wall, c - _INTERIOR < h
        < c + _INTERIOR, where the walk skips its corner tests. Every other
        ray takes the scalar walk's first strike from the same state: no
        valid candidate within the horizon, a velocity component so small
        that 1/vx * 1/vy is not finite, a coordinate beyond +-_REACH, or a
        hit near or past a wall's ends. So the corner rule is the walk's
        alone, and only the walk finds no strike.

        The reach rule is a budget: a scan that finds every |p| <= M <
        _REACH spares the steps after it their scans while no coordinate can
        reach _REACH. No flight is longer than HORIZON, so a step moves a
        coordinate by at most HORIZON max |v|, and by CORNER_TOL more where
        the walk snaps a hit onto a corner. The budget allows HORIZON (1 +
        max |v|) a step, 2 HORIZON at unit speed, which leaves HORIZON for
        the snap and rounding: floor((_REACH - M) / (HORIZON (1 + max |v|)))
        steps, none where a speed is not finite. drop() keeps it. Where some
        coordinate breaks the rule, the rays are checked one by one.

        The struck cell's centers c are the next step's start cell: the hit
        lies on its wall, strictly inside the wall's ends, so 2 floor(h / 2)
        + 1 is c on both axes. The bounce multiplies the (4, 2, R) state of
        v, inv_v, sign and side by one flip factor, 1 or -1 per component,
        where a masked np.negative(where=) of the state took 9-12 us at 300
        rays and 116-121 us at 3000 (2-core x86 host, numpy 2.4).
        """
        p, v, side, t, centers = self.p, self.v, self.side, self.t, self.centers
        n = len(t)
        walls, s, rows, point, flip, bounds = (
            self._walls, self._s, self._rows, self._next_p, self._flip, self._bounds)
        planes, slabs = walls
        t_near, invalid, normal, inside = self._t_near, self._invalid, self._normal, self._inside
        clean, one_wall = self._clean, self._one_wall
        # (near/far, cells ahead, axis, ray): the walls of the obstacles
        # ahead on each axis. Every term is a small integer or half-integer,
        # so each plane is exactly _strikes' c - 0.5 or c + 0.5 of a band
        # center c = 2 floor(p / 2) + 1.
        np.multiply(_PLANE_OFFSETS, self.sign, out=planes)
        planes += centers
        np.subtract(planes, p, out=slabs)
        slabs *= self.inv_v
        # every index taken is in range, so mode="clip" clips none; it
        # spares take a buffered copy of out
        tx1, ty1, tx2, ty2 = slabs.reshape(4 * LOCKSTEP_CELLS, n).take(
            _BLOCK_ROWS, axis=0, out=self._block, mode="clip")
        # np.maximum and np.minimum differ from _strikes' comparisons
        # only on nan and signed zeros, which no valid candidate has
        np.maximum(tx1, ty1, out=t_near)
        np.minimum(tx2, ty2, out=self._t_far)
        # a candidate is valid unless t_near < MIN_FLIGHT or t_near >=
        # t_far; s, the least valid t_near, is inf where none is. Slab
        # times are nan only where 1/vx * 1/vy is not finite, on rays
        # the walk takes.
        np.less(t_near, MIN_FLIGHT, out=invalid)
        invalid |= np.greater_equal(t_near, self._t_far, out=self._invalid_far)
        np.putmask(t_near, invalid, np.inf)
        np.minimum.reduce(t_near, axis=0, out=s)
        # the hit's near planes and entry slab times, by flat index: the
        # count of near slab times <= s, 2 n apart, from the wall one cell
        # behind the start's. Where s is no hit they name some wall of the
        # ray, or clip; the walk takes those rays.
        counts = np.add.reduce(np.less_equal(slabs[0], s, out=self._reached), axis=0,
                               out=self._counts)
        counts *= 2 * n
        near, entry = walls.take(np.add(counts, self._behind, out=rows), out=self._taken,
                                 mode="clip")
        # ty1 - tx1 and tx1 - ty1: the struck wall's normal axis is where
        # it is negative, x for a vertical wall (tx1 > ty1), and the bounce
        # flips that component, so the flip factor is its sign. Where the
        # two tie, the walk takes the ray.
        np.subtract(entry[::-1], entry, out=flip)
        np.less(flip, 0.0, out=normal)
        np.less_equal(s, HORIZON, out=clean)
        clean &= np.not_equal(flip[0], 0.0, out=one_wall)
        clean &= self.finite
        np.copysign(1.0, flip, out=flip)
        # the reach rule, ray by ray only where some coordinate breaks it
        if self._unscanned:
            self._unscanned -= 1
        else:
            reach = float(np.abs(p, out=bounds[0]).max(initial=0.0))
            if reach < _REACH:
                stride = HORIZON * (1.0 + float(np.abs(v, out=bounds[1]).max(initial=0.0)))
                self._unscanned = math.floor((_REACH - reach) / stride) if stride < math.inf else 0
            else:
                within = np.less(bounds[0], _REACH, out=inside)
                clean &= within[0]
                clean &= within[1]
        # _strikes' hit p + s * v, snapped onto the struck wall's plane
        np.multiply(v, s, out=point)
        point += p
        np.putmask(point, normal, near)
        # _strikes' interior pre-check c - _INTERIOR < h < c + _INTERIOR on
        # both axes, with the struck band's center c = near + side exact,
        # written over the start cell's. On the normal axis h is the wall
        # plane c -+ 0.5, which fails it, so it holds on either axis just
        # where it holds along the wall.
        band = np.add(near, side, out=centers)
        lo, hi = np.add(band, self._interior, out=bounds)
        np.less(lo, point, out=inside)
        inside &= np.less(point, hi, out=self._inside_hi)
        clean &= np.logical_or(inside[0], inside[1], out=inside[0])
        walked, codes, misses = [], [], []
        if not clean.all():
            walked = np.flatnonzero(np.logical_not(clean, out=clean))
            for i in walked.tolist():
                hit = next(_strikes(float(p[0, i]), float(p[1, i]), float(v[0, i]),
                                    float(v[1, i])), None)
                if hit is None:  # a ray that meets nothing keeps its state
                    misses.append(i)
                    codes.append(NO_HIT)
                    point[:, i], flip[:, i] = p[:, i], 1.0
                    s[i] = -0.0  # t + -0.0 is t, bit for bit
                    continue
                s[i], point[0, i], point[1, i], wall = hit
                codes.append(wall)
                flip[:, i] = [-1.0 if f else 1.0 for f in _FLIPS[wall]]
            # the walk's strike settles no cell: place it as __init__ does
            centers[:, walked] = _band_centers(point[:, walked])
        self.p, self._next_p = point, p
        self._wall, self._walked = None, (walked, codes)
        t += s
        self._state *= flip
        return misses


def strike_origins(log: TrajectoryLog) -> Lockstep:
    """The state each logged strike starts from, as one batch: the initial
    position and time with the first flight's velocity (_start_velocity),
    then every post-bounce state but the last (velocities()). Stepping this
    batch once reproduces the log's rows and velocities bit for bit when
    the log came from simulate."""
    (px, py), t = log.initial.position, log.initial.elapsed_time
    vx, vy = _start_velocity(log.initial)
    n = len(log)

    def before(first, column):
        return np.concatenate([[first], column])[:n]

    lvx, lvy = log.velocities()
    return Lockstep(before(px, log.x), before(py, log.y), before(vx, lvx), before(vy, lvy),
                    before(t, log.t))


def distance_series(log: TrajectoryLog) -> np.ndarray:
    """Euclidean distance of each collision point from the origin."""
    return np.hypot(log.x, log.y)
