"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The published-table comparison (criterion 5) is
soft by design: deviations are printed with the observed values; only a
missing three-cluster structure fails it.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from windtree.billiard import (
    ParticleState,
    Vec2,
    next_collision,
    point_in_obstacle,
    simulate,
    state_from_slope,
    step_rays,
    strike_origins,
)
from windtree.hmm import (
    forward_backward,
    posterior_pairs,
    pseudo_residuals,
    residual_histogram,
)
from windtree.sweep import MotionLabel, classify_motion, estimate_diffusion_exponent

from oracle import final_state, march_first_hit, position_at_time
from test_hmm import enumerate_paths, random_params

PUBLISHED_MEANS = (-0.613, 1.9753, 4.7825)
PUBLISHED_GAMMA_ARGMAX = (1, 2, 1)          # row -> most likely next state, 0-based
PUBLISHED_MINOR_MASS = 0.1262               # middle state's transition mass to the low state


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_geometry_oracle():
    rng = np.random.default_rng(20250810)
    started = time.perf_counter()
    worst = 0.0
    mismatches = 0
    for _ in range(1000):
        while True:
            x, y = rng.uniform(-1.0, 1.0, 2)
            if not point_in_obstacle(x, y, shrink=-1e-9):
                break
        theta = rng.uniform(0.0, 2.0 * math.pi)
        vx, vy = math.cos(theta), math.sin(theta)
        event = next_collision(ParticleState(Vec2(x, y), Vec2(vx, vy)))
        oracle = march_first_hit(x, y, vx, vy)
        s, ox, oy, wall, _, _ = oracle
        err = math.hypot(event.point.x - ox, event.point.y - oy)
        worst = max(worst, err)
        if err > 1e-6 or event.wall != wall:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(1, "geometry vs ray-marching oracle",
           mismatches == 0 and elapsed < 30.0,
           f"1000 seeded ICs, {mismatches} mismatches, worst point error "
           f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_conservation_and_reversal():
    started = time.perf_counter()
    log = simulate(state_from_slope(1.414), 10_000)
    # each bounce computed again by the lockstep kernel, from the state
    # before it, rather than read off the log's derived velocities
    rays, _ = step_rays(strike_origins(log))
    speed_err = float(np.abs(np.hypot(rays.vx, rays.vy) - 1.0).max())

    fwd = simulate(state_from_slope(1.414), 50)
    final = final_state(fwd)
    back = simulate(
        ParticleState(final.position, Vec2(-final.velocity.x, -final.velocity.y)), 50)
    recovered = position_at_time(back, final.elapsed_time)
    return_err = math.hypot(recovered.x, recovered.y)
    elapsed = time.perf_counter() - started
    report(2, "speed conservation and time reversal",
           speed_err <= 1e-9 and return_err <= 1e-8 and elapsed < 5.0,
           f"max |speed-1| {speed_err:.2e} over 10^4 collisions, "
           f"k=50 reversal error {return_err:.2e}, {elapsed:.1f}s")


def test_criterion_3_forward_backward_vs_enumeration():
    rng = np.random.default_rng(31415)
    started = time.perf_counter()
    worst_ll = 0.0
    worst_pair = 0.0
    for T in range(1, 7):
        for m in range(1, 4):
            for _ in range(50):
                params = random_params(rng, m)
                obs = rng.normal(0.0, 2.0, T)
                L, state, pair = enumerate_paths(params, obs)
                tables = forward_backward(params, obs)
                post = posterior_pairs(params, tables)
                rel = abs(tables.log_likelihood - math.log(L)) / max(1.0, abs(math.log(L)))
                worst_ll = max(worst_ll, rel)
                if T > 1:
                    worst_pair = max(worst_pair, float(np.abs(post.pair_prob - pair).max()))
                worst_pair = max(worst_pair, float(np.abs(post.state_prob - state).max()))
    elapsed = time.perf_counter() - started
    report(3, "forward-backward and pair posteriors vs path enumeration",
           worst_ll <= 1e-12 and worst_pair <= 1e-12 and elapsed < 10.0,
           f"T<=6, m<=3, 50 draws each: worst loglik rel {worst_ll:.1e}, "
           f"worst posterior dev {worst_pair:.1e}, {elapsed:.1f}s")


def test_criterion_4_em_monotonicity(reference_sweep, reference_fit):
    _result, sweep_seconds = reference_sweep
    report_obj, fit_seconds = reference_fit
    trace = report_obj.loglik_trace
    monotone = all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    report(4, "EM log-likelihood monotone over 15 iterations",
           len(trace) == 15 and monotone and fit_seconds < 1.0
           and sweep_seconds < 120.0,
           f"trace {trace[0]:.2f} -> {trace[-1]:.2f}, fit {fit_seconds:.2f}s, "
           f"sweep {sweep_seconds:.1f}s")


def test_criterion_5_reference_fit_reproduction(reference_series, reference_fit):
    report_obj, _seconds = reference_fit
    p = report_obj.params
    deviations = []

    for j, (got, want) in enumerate(zip(p.mu, PUBLISHED_MEANS), start=1):
        if abs(got - want) > 0.5:
            deviations.append(f"mu{j}={got:.4f} vs published {want} "
                              f"(|diff|={abs(got - want):.2f} > 0.5)")
    argmax = tuple(int(i) for i in p.gamma.argmax(axis=1))
    if argmax != PUBLISHED_GAMMA_ARGMAX:
        deviations.append(f"gamma argmax rows {argmax} vs published {PUBLISHED_GAMMA_ARGMAX}")
    minor = float(p.gamma[1, 0])
    if not 0.02 < minor < 0.35:
        deviations.append(f"middle-state minor mass {minor:.4f} outside (0.02, 0.35) "
                          f"(published {PUBLISHED_MINOR_MASS})")

    # hard requirement: three well-separated, genuinely occupied states
    gaps = np.diff(p.mu)
    masses = posterior_pairs(p, forward_backward(p, reference_series)).state_prob.sum(axis=0)
    three_clusters = bool(np.all(gaps >= 1.0) and np.all(masses >= 3.0))

    detail = (f"means {np.round(p.mu, 4).tolist()}, sigmas "
              f"{np.round(p.sigma, 4).tolist()}, gamma argmax {argmax}, "
              f"minor mass {minor:.4f}, state masses {np.round(masses, 1).tolist()}")
    if deviations:
        detail += " | reported deviations from the published table: " + "; ".join(deviations)
    else:
        detail += " | matches the published table within the soft bands"
    report(5, "three-state fit vs published table (soft)", three_clusters, detail)


def test_criterion_6_motion_classes():
    started = time.perf_counter()
    labels = {}
    for slope in (1.414, 1.732, 1.618):
        labels[slope] = classify_motion(simulate(state_from_slope(slope), 500)).label
    elapsed = time.perf_counter() - started
    ok = (labels[1.414] is MotionLabel.RECURRENT
          and labels[1.732] is MotionLabel.QUASI_PERIODIC_DIVERGENT
          and labels[1.618] is MotionLabel.RAPID_DIVERGENT
          and elapsed < 5.0)
    report(6, "motion classification of the three exemplar slopes", ok,
           ", ".join(f"{s} -> {l.value}" for s, l in labels.items())
           + f", {elapsed:.1f}s")


def test_criterion_7_experiment_two_recurrence():
    started = time.perf_counter()
    log = simulate(state_from_slope(1.718), 250)
    pts = log.event_points()
    first = pts[0]
    dist = np.hypot(pts[1:, 0] - first[0], pts[1:, 1] - first[1])
    best = float(dist.min())
    k_best = int(dist.argmin()) + 2
    elapsed = time.perf_counter() - started
    report(7, "slope 1.718 returns near its first collision point",
           best < 1.0 and elapsed < 1.0,
           f"closest return {best:.4f} at collision {k_best}, {elapsed:.2f}s")


def test_criterion_8_diffusion_exponent():
    rng = np.random.default_rng(987654321)
    directions = rng.uniform(0.1, math.pi / 2.0 - 0.1, 20)
    started = time.perf_counter()
    median = estimate_diffusion_exponent(directions, 100_000)
    elapsed = time.perf_counter() - started
    report(8, "median distance-growth exponent (asymptotic value 2/3)",
           0.5 <= median <= 0.85 and elapsed < 600.0,
           f"median {median:.4f} over 20 seeded directions at 10^5 collisions, "
           f"{elapsed:.0f}s")


def test_criterion_9_residual_diagnostics(reference_series, reference_fit):
    report_obj, _seconds = reference_fit
    residuals = pseudo_residuals(report_obj.params, reference_series)
    counts = residual_histogram(residuals)
    stat = float((((counts - 30.0) ** 2) / 30.0).sum())
    gate = float(chi2.ppf(0.999, 9))
    ok = (counts.sum() == 300 and counts.min() >= 5 and counts.max() <= 70
          and stat < gate)
    report(9, "pseudo-residual histogram approximately uniform", ok,
           f"counts {counts.tolist()} (sum {counts.sum()}, min {counts.min()}, "
           f"max {counts.max()}; published extremes 19/48), "
           f"chi-square {stat:.1f} < {gate:.1f}")
