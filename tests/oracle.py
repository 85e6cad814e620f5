"""Independent oracles for the billiard and HMM tests.

Everything here avoids the production algorithms on purpose. For the
billiard, the obstacle-membership predicate plus brute-force ray marching
and bisection are the ground truth the event-driven solver is checked
against. For the HMM there are two references. The scaled recursion
stepping one observation at a time over the production densities is the
one the two-level scan's forward rows must match to the last digits. The
scan runs this recursion itself inside blocks of `hmm.SCAN_BLOCK` steps,
but enters each block from a row built out of matrix products over all
earlier blocks, and those products can lose entries this recursion keeps.
The scan compares the two rows at every forward block seam, where a
block's last row meets the next block's entry row. If they disagree it
must raise NumericalUnderflow, never return tables that disagree with
these. The scan holds a stack of m x m matrices, T m^2 numbers, where this
recursion holds O(T m). The recursion is not exact: where entries of
order Gamma_ij^2 flush to 0, its log-likelihood can be off by several times
its own size. A
forward-backward in log space, with the log densities computed directly,
is the exact-arithmetic reference every returned table must match to 1e-9.

Two references run on the production scalar kernel instead: the one-slope
recurrence statistic on `simulate`, which the lockstep sweep must match
bit for bit, and the interpolated position along a logged trajectory.
`final_state` reads a log's last post-bounce state, and `fmt` is the
per-value rendering that `io.csv_text`'s row template must reproduce.

`classify_motion` computes the deviations of a block of lags at once,
from a zero-padded copy of the y series under a mask; the per-lag loop it
replaced is kept here, and its label and evidence must match bit for bit.
"""

import math

import numpy as np
from scipy.special import logsumexp

from windtree.billiard import ParticleState, Vec2, distance_series, simulate, state_from_slope
from windtree.hmm import NumericalUnderflow, _density_matrix
from windtree.sweep import (
    EPS_QUASI,
    EPS_RECUR,
    MIN_OVERLAP,
    QUASI_WINDOW,
    CorridorTruncation,
    InsufficientData,
    MotionClass,
    MotionLabel,
)

MARCH_STEP = 1e-4
BISECT_TOL = 1e-8


def nearest_odd(z):
    """Odd integer closest to z; a tie (an even z) resolves to the one above,
    as billiard.cell_centers does."""
    lo = 2 * np.floor((np.asarray(z, dtype=float) - 1.0) / 2.0) + 1
    hi = lo + 2
    pick_hi = (hi - z) <= (z - lo)
    return np.where(pick_hi, hi, lo)


def inside_obstacle(x, y):
    """Strict interior test against the unit squares at odd-integer centers."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (np.abs(x - nearest_odd(x)) < 0.5) & (np.abs(y - nearest_odd(y)) < 0.5)


def march_first_hit(px, py, vx, vy, step=MARCH_STEP, max_path=1e4, chunk=8192):
    """First boundary crossing of the ray, found by fine-step marching.

    Marches along the ray in increments of `step` until a sample falls
    strictly inside an obstacle, then bisects the crossing to BISECT_TOL.
    Returns (s, x, y, wall_name) or None if no sample is inside within
    max_path. `wall_name` matches the production labels, with hits within
    1e-9 of a corner called "Corner".
    """
    start = 0.0
    while start < max_path:
        n = min(chunk, int((max_path - start) / step) + 1)
        s = start + step * np.arange(1, n + 1)
        xs = px + s * vx
        ys = py + s * vy
        hit = np.flatnonzero(inside_obstacle(xs, ys))
        if hit.size:
            i = int(hit[0])
            s_in = float(s[i])
            s_out = s_in - step if i > 0 or start > 0.0 else 0.0
            return _refine(px, py, vx, vy, s_out, s_in)
        start += n * step
    return None


def _refine(px, py, vx, vy, s_out, s_in):
    while s_in - s_out > BISECT_TOL:
        mid = 0.5 * (s_out + s_in)
        if bool(inside_obstacle(px + mid * vx, py + mid * vy)):
            s_in = mid
        else:
            s_out = mid
    s = 0.5 * (s_out + s_in)
    x = px + s * vx
    y = py + s * vy
    cx = float(nearest_odd(x))
    cy = float(nearest_odd(y))
    # label by the wall plane the crossing sits on, given the travel direction
    gap_left = abs(x - (cx - 0.5))
    gap_right = abs(x - (cx + 0.5))
    gap_bottom = abs(y - (cy - 0.5))
    gap_top = abs(y - (cy + 0.5))
    gx = gap_left if vx > 0 else gap_right
    gy = gap_bottom if vy > 0 else gap_top
    if min(gap_left, gap_right) <= 1e-9 and min(gap_bottom, gap_top) <= 1e-9:
        wall = "Corner"
    elif gx <= gy:
        wall = "Left" if vx > 0 else "Right"
    else:
        wall = "Bottom" if vy > 0 else "Top"
    return s, x, y, wall, int(cx), int(cy)


def segment_enters_interior(p, q, samples=2000, margin=1e-9):
    """Dense-sampling check that the open segment avoids obstacle interiors."""
    u = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    xs = p[0] + u * (q[0] - p[0])
    ys = p[1] + u * (q[1] - p[1])
    deep_x = np.abs(xs - nearest_odd(xs)) < 0.5 - margin
    deep_y = np.abs(ys - nearest_odd(ys)) < 0.5 - margin
    return bool(np.any(deep_x & deep_y))


def sequential_forward_backward(params, obs):
    """The scaled forward and backward recursions, one observation per step.

    Returns (alpha_hat, beta_hat, log_c): alpha_hat and log_c as in
    `windtree.hmm.ForwardBackwardTables`, and beta_hat scaled so that
    sum(alpha_hat[t] * beta_hat[t]) == 1, which makes alpha_hat * beta_hat
    the state posteriors. Raises NumericalUnderflow naming the first
    observation whose scale factor is not positive and finite.
    """
    dens = _density_matrix(params, np.asarray(obs, dtype=float))
    T, m = dens.shape

    alpha_hat = np.empty((T, m))
    c = np.empty(T)
    w = params.delta * dens[0]
    for t in range(T):
        if t > 0:
            w = (alpha_hat[t - 1] @ params.gamma) * dens[t]
        c[t] = w.sum()
        if c[t] <= 0.0 or not math.isfinite(c[t]):
            raise NumericalUnderflow(
                f"observation {t} has zero density under every state"
            )
        alpha_hat[t] = w / c[t]

    # divided by the stored c, not multiplied by exp(-log c), which
    # overflows where a positive c lies below about 1e-308
    beta_hat = np.empty((T, m))
    beta_hat[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        b = params.gamma @ (dens[t + 1] * beta_hat[t + 1])
        beta_hat[t] = b / c[t + 1]
    return alpha_hat, beta_hat, np.log(c)


def log_space_forward_backward(params, obs):
    """Forward-backward in log space, a log-sum-exp per step in float64:
    the exact-arithmetic reference for `windtree.hmm`'s tables.

    The log densities are computed directly, so none underflows, and no
    scaled quantity is formed, so nothing leaves the floating-point range.
    Returns a dict of the log-likelihood `loglik`, the log scale factors
    `log_c` (T,), the (T, m) filtered `alpha_hat`, predicted `pred` and
    smoothed `state_prob` probabilities,
    the (T - 1, m, m) pair posteriors `pair_prob` and the (T, m)
    pseudo-residual `weights`: each state's probability given every
    observation but x_t.
    """
    x = np.asarray(obs, dtype=float)
    z = (x[:, None] - params.mu[None, :]) / params.sigma[None, :]
    log_d = -0.5 * z * z - np.log(params.sigma)[None, :] - 0.5 * math.log(2.0 * math.pi)
    with np.errstate(divide="ignore"):
        log_gamma = np.log(params.gamma)
        log_pred = np.empty_like(log_d)
        log_pred[0] = np.log(params.delta)
    T = len(x)
    log_alpha = np.empty_like(log_d)
    log_alpha[0] = log_pred[0] + log_d[0]
    for t in range(1, T):
        log_pred[t] = logsumexp(log_alpha[t - 1][:, None] + log_gamma, axis=0)
        log_alpha[t] = log_pred[t] + log_d[t]
    log_beta = np.zeros_like(log_d)
    for t in range(T - 2, -1, -1):
        log_beta[t] = logsumexp(log_gamma + (log_d[t + 1] + log_beta[t + 1])[None, :], axis=1)

    def normalized(a):
        return np.exp(a - logsumexp(a, axis=-1, keepdims=True))

    prefix = logsumexp(log_alpha, axis=1)  # log p(x_0..x_t)
    loglik = float(prefix[-1])
    pair = log_alpha[:-1, :, None] + log_gamma[None] + (log_d[1:] + log_beta[1:])[:, None, :]
    return {
        "loglik": loglik,
        "log_c": np.diff(prefix, prepend=0.0),
        "alpha_hat": normalized(log_alpha),
        "pred": normalized(log_pred),
        "state_prob": normalized(log_alpha + log_beta),
        "pair_prob": np.exp(pair - loglik),
        "weights": normalized(log_pred + log_beta),
    }


def recurrence_statistic(slope, spec, t=1):
    """The sweep.csv row (t, slope, D, logD) of one slope from `simulate`:
    D is the minimum origin distance over collisions k_min..k_max."""
    log = simulate(state_from_slope(slope), spec.k_max)
    if len(log) < spec.k_max:
        raise CorridorTruncation(
            f"slope {slope!r}: {log.truncation_reason or 'trajectory too short'}"
        )
    dmin = float(distance_series(log)[spec.k_min - 1:spec.k_max].min())
    return {"t": t, "slope": slope, "D": dmin, "logD": math.log(dmin)}


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering of one float."""
    return f"{x:.17g}"


def final_state(log) -> ParticleState:
    """The particle state after a log's last strike, or its initial state."""
    if not len(log):
        return log.initial
    vx, vy = log.velocities()
    return ParticleState(Vec2(float(log.x[-1]), float(log.y[-1])),
                         Vec2(float(vx[-1]), float(vy[-1])), float(log.t[-1]))


def position_at_time(log, t):
    """Position at path-time t, linearly interpolated between logged events.

    Beyond the last event the final free flight is extrapolated.
    """
    if t < log.initial.elapsed_time:
        raise ValueError("time precedes the initial state")
    i = int(np.searchsorted(log.t, t))  # first event at or after t
    if i == 0:
        (px, py), pt = log.initial.position, log.initial.elapsed_time
    else:
        px, py, pt = float(log.x[i - 1]), float(log.y[i - 1]), float(log.t[i - 1])
    if i == len(log):
        v = final_state(log).velocity
        dt = t - pt
        return Vec2(px + dt * v.x, py + dt * v.y)
    seg = float(log.t[i]) - pt
    u = 0.0 if seg == 0.0 else (t - pt) / seg
    return Vec2(px + u * (float(log.x[i]) - px), py + u * (float(log.y[i]) - py))


def sequential_classify_motion(log):
    """`classify_motion` as it ran before its lags were scanned in blocks:
    one numpy reduction per lag, over unpadded slices."""
    n = len(log)
    if n < 2 * MIN_OVERLAP:
        raise InsufficientData(f"need at least {2 * MIN_OVERLAP} events, have {n}")
    start = log.initial.position
    d_start = np.hypot(log.x - start.x, log.y - start.y)
    min_return = float(d_start[n // 2:].min())
    evidence = {
        "min_return_distance": min_return,
        "eps_recur": EPS_RECUR,
        "final_distance": float(d_start[-1]),
        "max_distance": float(d_start.max()),
        "quasi_period": None,
        "quasi_max_dev": None,
        "eps": EPS_QUASI,
    }
    if min_return < EPS_RECUR:
        return MotionClass(label=MotionLabel.RECURRENT, evidence=evidence)

    y = log.y
    best_dev = math.inf
    for tau in range(1, min(QUASI_WINDOW, n - MIN_OVERLAP) + 1):
        w = min(n - tau, n // 2)
        dev = float(np.abs(y[n - w:] - y[n - w - tau:n - tau]).max())
        if dev < best_dev:
            best_dev = dev
            evidence["quasi_max_dev"] = dev
            evidence["quasi_period"] = tau
        if dev <= EPS_QUASI:
            return MotionClass(label=MotionLabel.QUASI_PERIODIC_DIVERGENT, evidence=evidence)
    return MotionClass(label=MotionLabel.RAPID_DIVERGENT, evidence=evidence)
