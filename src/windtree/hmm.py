"""Gaussian-emission hidden Markov model fitted by Baum-Welch EM.

The likelihood of an observation sequence is the matrix product
delta P(x1) . Gamma P(x2) ... Gamma P(xT) 1, with P(x) the diagonal matrix
of per-state normal densities. That product underflows long before T = 300,
so every routine here works with row-normalized forward vectors and
accumulated log scale factors.

Neither pass steps through time in Python. Each is the row recursion
r_t = r_{t-1} M_t / c_t, with c_t the entry sum of r_{t-1} M_t, over a
stack of m x m matrices: Gamma P(x_t) for the forward rows, and the
reversed, transposed stack P(x_s) Gamma^T for the backward ones. A
two-level scan (Blelloch, "Prefix sums and their applications", 1990)
runs both passes together on blocks of SCAN_BLOCK steps: the product of
each block, a doubling scan over the block products that gives every block
its entry row, then the recursion inside all blocks at once. That is
O(T m^3) work in about 60 batched numpy calls plus 3 for each of the
ceil(log2(T / SCAN_BLOCK)) doubling levels, and O(T m^2) memory: the
(2, T, m, m) stack, padded to whole blocks and built once, plus the
(2, T / SCAN_BLOCK, m, m) block products. Inside a block each step is one
vector-matrix product, as in the one-step recursion (tests/oracle.py). On
random models alpha_hat and log c agree with it to about 1e-15 and
beta_hat to about 1e-12 relative.

A product rescaled as a whole keeps its entries within about 320 decades
of its largest, while the recursion rescales one row at a time. With
transition probabilities below about 1e-70, or long runs in which the
states' densities differ by many orders of magnitude, an entry row can lose
an entry that the recursion keeps. The last row of each block and the next
block's entry row are one vector computed both ways, so every block seam
is compared entry by entry to SEAM_RTOL. Where one disagrees,
NumericalUnderflow names the pass and the seam's observation, rather than
the pass returning tables that disagree with the recursion.

EM drives a transition probability that the data avoid toward 0 faster
than geometrically: its update is its current value times a ratio below 1.
On a series of T = 3000 drawn from the published 3-state model (the
benchmark's fit input at seed 414), a 4-state fit's smallest entry went
1.8e-112, 3.8e-180 and 2.0e-310 at iterations 9-11; at iteration 12 an
entry of 2.3e-308, at the bottom of the normal range, failed the backward
pass's seam check, though the one-step recursion (tests/oracle.py) still
had a finite likelihood. So the M-step sets each entry
below GAMMA_FLOOR = 1e-200 to exactly 0, a zero EM keeps (its pair
posterior is 0), and names it in the fit warnings; the rows are not
re-divided, as they then sum to 1 within m * 1e-200. Above the floor a
product Gamma_ij p_j(x) stays in the normal range for every density above
2.2e-308 / 1e-200 = 2.2e-108, within about 22 standard deviations of a
unit-sd state's mean, so the scan keeps its relative precision there.

The fit is checked with ordinary pseudo-residuals, each observation
conditioned on all the others, counted over HIST_BINS equal bins of [0, 1].
Their normal CDF is Phi(z) = erfc(-z sqrt(1/2)) / 2, with the standard
library's math.erfc. The erfc form keeps its relative precision in the
lower tail, where 1 + erf(z) would cancel. Multiplying by sqrt(1/2), as
Cephes' ndtr does, keeps it within 1.5e-13 relative of that ndtr on
[-40, 40]; dividing by sqrt(2) instead measured 4.7e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

PROB_TOL = 1e-12        # slack for probability-vector and row-sum checks
DEGENERATE_MASS = 1e-8  # a state owning less posterior mass is frozen
LLOYD_ROUNDS = 50       # at most this many k-means rounds in default_init
GAMMA_DIAG = 0.8        # default_init's transition-matrix diagonal
HIST_BINS = 10          # equal-width bins of [0, 1] in residual_histogram
SQRT_HALF = math.sqrt(0.5)  # Phi(z) = erfc(-z * SQRT_HALF) / 2
SCAN_BLOCK = 8          # steps per block of the two-level row scan
SEAM_RTOL = 1e-12       # a block seam's two rows agree to this relative to each entry,
SEAM_ATOL = np.finfo(float).tiny  # give or take the smallest normal double
SUBNORMAL_ULP = np.finfo(float).smallest_subnormal  # spacing of doubles below SEAM_ATOL
GAMMA_FLOOR = 1e-200    # the M-step sets smaller transition probabilities to 0

_erfc = np.frompyfunc(math.erfc, 1, 1)


class EmptyObservations(ValueError):
    """The observation sequence is empty."""


class NumericalUnderflow(ArithmeticError):
    """Some observation has zero density under every state."""


@dataclass(frozen=True)
class HmmParams:
    """Initial distribution, transition matrix, and per-state normal emissions."""

    delta: np.ndarray   # (m,) initial state probabilities
    gamma: np.ndarray   # (m, m) row-stochastic transition matrix
    mu: np.ndarray      # (m,) state means
    sigma: np.ndarray   # (m,) state standard deviations, all > 0

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        m = self.delta.shape[0]
        if self.gamma.shape != (m, m) or self.mu.shape != (m,) or self.sigma.shape != (m,):
            raise ValueError("inconsistent parameter shapes")
        if not all(np.all(np.isfinite(a)) for a in (self.delta, self.gamma, self.mu, self.sigma)):
            raise ValueError("parameters must be finite")
        if np.any(self.delta < 0) or abs(self.delta.sum() - 1.0) > PROB_TOL:
            raise ValueError("delta must be a probability vector")
        if np.any(self.gamma < 0) or np.any(np.abs(self.gamma.sum(axis=1) - 1.0) > PROB_TOL):
            raise ValueError("gamma rows must each sum to 1")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma entries must be positive")

    @property
    def m(self) -> int:
        return self.delta.shape[0]

    def permuted(self, order: Sequence[int]) -> "HmmParams":
        """Relabel states by `order` (new state j = old state order[j])."""
        idx = np.asarray(order)
        return HmmParams(
            delta=self.delta[idx],
            gamma=self.gamma[np.ix_(idx, idx)],
            mu=self.mu[idx],
            sigma=self.sigma[idx],
        )


@dataclass
class ForwardBackwardTables:
    """Scaled forward/backward rows plus per-step log scale factors.

    Unscaled quantities are recoverable as
    alpha_t = alpha_hat[t] * exp(sum(log_c[: t + 1])) and
    beta_t = beta_hat[t] * exp(sum(log_c[t + 1 :])), which makes
    alpha_hat[t] @ beta_hat[t] == 1 for every t.
    """

    alpha_hat: np.ndarray    # (T, m)
    beta_hat: np.ndarray     # (T, m)
    log_c: np.ndarray        # (T,)
    log_likelihood: float
    dens: np.ndarray         # (T, m) per-state densities of the observations


@dataclass
class PosteriorTables:
    """Smoothed state and successive-pair probabilities given all observations."""

    state_prob: np.ndarray   # (T, m)
    pair_prob: np.ndarray    # (T-1, m, m); [t, j, k] = Pr(C_t = j, C_{t+1} = k | X)


@dataclass
class FitReport:
    """Outcome of an EM fit, states relabeled in ascending-mean order."""

    params: HmmParams
    loglik_trace: list[float]
    state_order: tuple[int, ...]
    warnings: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.loglik_trace)


def _density_matrix(params: HmmParams, obs: np.ndarray) -> np.ndarray:
    """(T, m) matrix of per-state normal densities at each observation."""
    # far-tail z*z may overflow to inf; exp then flushes the density to 0,
    # which the recursions report as NumericalUnderflow
    with np.errstate(over="ignore"):
        z = (obs[:, None] - params.mu[None, :]) / params.sigma[None, :]
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * params.sigma[None, :])


def _scan(prods: np.ndarray) -> np.ndarray:
    """Inclusive prefix products along axis -3 of a (..., n, m, m) stack of
    unit-entry-sum matrices, in place, each rescaled to unit entry sum.

    A doubling (Hillis-Steele) scan: after the step of stride s, entry t
    holds the product of the input's entries max(0, t - 2s + 1) .. t, so
    ceil(log2 n) batched products cover every prefix. A product whose
    entries have all underflowed to 0 comes out as NaN.
    """
    step = np.empty_like(prods)
    s = 1
    while s < prods.shape[-3]:
        np.matmul(prods[..., :-s, :, :], prods[..., s:, :, :], out=step[..., s:, :, :])
        np.divide(step[..., s:, :, :], step[..., s:, :, :].sum(axis=(-2, -1), keepdims=True),
                  out=prods[..., s:, :, :])
        s *= 2
    return prods


def _entry_rows(blocks: np.ndarray) -> np.ndarray:
    """Entry rows (K, B, 1, m) of the row recursion for the (K, B, L, m, m)
    blocks: e_0 for block 0, and row 0 of the prefix product of the block
    products before it for every other block.

    Every factor, then every product, is rescaled to unit entry sum. A
    factor rescaled first keeps densities near the bottom of the
    floating-point range from underflowing in the product. The block
    products are freed on return, before the rows are allocated, so the
    passes never hold both.
    """
    K, B, L, m, _ = blocks.shape
    prods = blocks[:, :, 0] / blocks[:, :, 0].sum(axis=(-2, -1), keepdims=True)
    for j in range(1, L):
        prods = prods @ (blocks[:, :, j] / blocks[:, :, j].sum(axis=(-2, -1), keepdims=True))
        prods /= prods.sum(axis=(-2, -1), keepdims=True)
    entry = np.zeros((K, B, 1, m))
    entry[:, 0, 0, 0] = 1.0
    entry[:, 1:] = _scan(prods[:, :-1])[:, :, :1]
    return entry


def _row_scan(stack: np.ndarray):
    """The row recursion w = r @ M_t, c_t = sum(w), r = w / c_t from r = e_0,
    over each stack k of a (K, n, m, m) array, n a multiple of SCAN_BLOCK.

    Returns the rows (K, n, m), the sums c (K, n) and seam_ok (K, B - 1)
    over the B = n / SCAN_BLOCK blocks. Each block's entry row comes from
    the block products, by the doubling scan over them, and the recursion
    then runs inside every block at once. Seam b is row (b + 1) SCAN_BLOCK
    - 1, computed once as the last row of block b and once as the entry
    row of block b + 1; seam_ok says whether the two agree in every entry.
    """
    K, n, m, _ = stack.shape
    L = SCAN_BLOCK
    B = n // L
    blocks = stack.reshape(K, B, L, m, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        entry = _entry_rows(blocks)
        rows = np.empty((K, B, L, 1, m))
        c = np.empty((K, B, L, 1, 1))
        r = entry
        for j in range(L):
            w = r @ blocks[:, :, j]
            np.sum(w, axis=-1, keepdims=True, out=c[:, :, j])
            r = np.divide(w, c[:, :, j], out=rows[:, :, j])

        last, nxt = rows[:, :-1, L - 1, 0], entry[:, 1:, 0]
        seam_ok = (np.abs(last - nxt) <= SEAM_RTOL * np.abs(nxt) + SEAM_ATOL).all(axis=-1)
    return rows.reshape(K, n, m), c.reshape(K, n), seam_ok


def _passes(params: HmmParams, obs: Sequence[float]):
    """The densities (T, m), the rows (2, n, m) of the forward and the
    backward pass and the forward sums c (T,).

    alpha_t is proportional to (delta D_0)(Gamma D_1)...(Gamma D_t), with
    D_t = diag(dens[t]). Row 0 of the forward stack's first matrix is
    delta D_0 and its other rows are 0, so the rows from e_0 are alpha_hat
    and their sums the scale factors c_t. beta_t is proportional to
    (Gamma D_{t+1})...(Gamma D_{T-1}) 1, so the backward stack is D_s Gamma^T
    for s = T - 1 down to 1, seeded the same way with 1^T D_{T-1} Gamma^T;
    its rows are the directions of beta_{T-2}, ..., beta_0. Identity
    matrices pad both to whole blocks.

    Raises NumericalUnderflow at the first observation whose scale factor
    is not positive and finite, unless a forward seam before it disagrees,
    and then at the first disagreeing backward seam.
    """
    x = np.asarray(obs, dtype=float)
    if x.size == 0:
        raise EmptyObservations("observation sequence is empty")
    dens = _density_matrix(params, x)
    T, m = dens.shape

    stack = np.empty((2, -(-T // SCAN_BLOCK) * SCAN_BLOCK, m, m))
    np.multiply(params.gamma, dens[:, None, :], out=stack[0, :T])
    stack[0, 0] = 0.0
    stack[0, 0, 0] = params.delta * dens[0]
    stack[0, T:] = np.eye(m)
    np.multiply(params.gamma.T, dens[:0:-1, :, None], out=stack[1, :T - 1])
    if T > 1:
        seed = stack[1, 0].sum(axis=0)
        stack[1, 0] = 0.0
        stack[1, 0, 0] = seed
    stack[1, T - 1:] = np.eye(m)
    rows, c, seam_ok = _row_scan(stack)

    c = c[0, :T]
    bad = np.flatnonzero(~((c > 0.0) & np.isfinite(c)))
    s = _first_bad_seam(seam_ok[0], int(bad[0]) if bad.size else T - 1)
    if s is not None:
        raise NumericalUnderflow(
            f"the scaled forward product to observation {s} "
            f"leaves the floating-point range"
        )
    if bad.size:
        raise NumericalUnderflow(
            f"observation {int(bad[0])} has zero density under every state"
        )
    if T > 1:
        s = _first_bad_seam(seam_ok[1], T - 2)
        if s is not None:
            raise NumericalUnderflow(
                f"the scaled backward product from observation {T - 1 - s} "
                f"leaves the floating-point range"
            )
    return dens, rows, c


def _first_bad_seam(seam_ok: np.ndarray, end: int) -> Optional[int]:
    """Row of the first disagreeing seam before row `end`, or None. Seams
    from `end` on feed no row that is used or that has not already failed."""
    bad = np.flatnonzero(~seam_ok[: end // SCAN_BLOCK])
    return int((bad[0] + 1) * SCAN_BLOCK - 1) if bad.size else None


def forward_backward(params: HmmParams, obs: Sequence[float]) -> ForwardBackwardTables:
    """Scaled forward/backward tables of the observation sequence.

    beta_t is proportional to (Gamma D_{t+1})...(Gamma D_{T-1}) 1; the
    backward rows give its direction, scaled so that
    alpha_hat[t] @ beta_hat[t] == 1.
    """
    dens, rows, c = _passes(params, obs)
    T = len(dens)
    alpha_hat = rows[0, :T]

    beta_hat = np.ones_like(alpha_hat)
    if T > 1:
        back = rows[1, T - 2::-1]
        scale = (alpha_hat[:-1] * back).sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(back, scale, out=beta_hat[:-1])
            # a subnormal entry of a row keeps only the absolute precision
            # SUBNORMAL_ULP, which the rescaling divides by `scale`; past the
            # seam tolerance the entry is lost
            lost = ~np.isfinite(beta_hat)
            lost[:-1] |= (back > 0.0) & (SUBNORMAL_ULP / scale
                                         > SEAM_RTOL * beta_hat[:-1] + SEAM_ATOL)
        if lost.any():
            t = int(np.flatnonzero(lost.any(axis=1))[-1])
            raise NumericalUnderflow(
                f"the scaled backward product from observation {t + 1} "
                f"leaves the floating-point range"
            )

    log_c = np.log(c)
    return ForwardBackwardTables(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        log_c=log_c,
        log_likelihood=float(log_c.sum()),
        dens=dens,
    )


def posterior_pairs(params: HmmParams, tables: ForwardBackwardTables) -> PosteriorTables:
    """Smoothed state and pair probabilities from the scaled tables of an
    observation sequence under `params`.

    pair_prob[t, j, k] = alpha_hat[t, j] gamma[j, k] p_k(x_{t+1})
    beta_hat[t+1, k] / c_{t+1}, the scaled form of the joint posterior of
    consecutive hidden states.
    """
    state = tables.alpha_hat * tables.beta_hat
    state /= state.sum(axis=1, keepdims=True)

    # one (T - 1, m, m) array, multiplied in place
    pair = tables.alpha_hat[:-1, :, None] * params.gamma[None]
    pair *= (tables.dens[1:] * tables.beta_hat[1:])[:, None, :]
    pair *= np.exp(-tables.log_c[1:])[:, None, None]
    return PosteriorTables(state_prob=state, pair_prob=pair)


def default_init(obs: Sequence[float], m: int) -> HmmParams:
    """Deterministic EM starting point.

    The transition matrix gets GAMMA_DIAG on the diagonal with the rest
    spread evenly off-diagonal; the initial distribution is uniform. Means
    come from quantile seeds refined by at most LLOYD_ROUNDS Lloyd
    assignment rounds (plain 1-d k-means, no randomness), with per-group
    standard deviations; equal-count splits alone leave badly unbalanced
    clusters merged, which a short EM run cannot then separate.
    """
    x = np.sort(np.asarray(obs, dtype=float))
    if x.size < m:
        raise ValueError(f"need at least {m} observations to initialize {m} states")
    if m == 1:
        gamma = np.ones((1, 1))
    else:
        gamma = np.full((m, m), (1.0 - GAMMA_DIAG) / (m - 1))
        np.fill_diagonal(gamma, GAMMA_DIAG)

    centers = np.quantile(x, (np.arange(m) + 0.5) / m)
    labels = np.zeros(x.size, dtype=int)
    for _ in range(LLOYD_ROUNDS):
        new_labels = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(m):
            if np.any(labels == j):
                centers[j] = x[labels == j].mean()
    floor = _sigma_floor(x)
    overall = max(float(np.std(x)), floor)
    mu = np.array([x[labels == j].mean() if np.any(labels == j) else centers[j]
                   for j in range(m)])
    sigma = np.array([max(x[labels == j].std(), floor) if np.sum(labels == j) > 1
                      else overall / m for j in range(m)])
    return HmmParams(delta=np.full(m, 1.0 / m), gamma=gamma, mu=mu, sigma=sigma)


def _sigma_floor(obs: np.ndarray) -> float:
    sd = float(np.std(obs))
    return 1e-6 * sd if sd > 0 else 1e-12


def baum_welch(obs: Sequence[float], init: HmmParams, max_iters: int = 15) -> FitReport:
    """Fit by EM: forward/backward posteriors, then closed-form updates.

    Runs exactly `max_iters` iterations. Delta is updated to the posterior
    of the first state.

    States with posterior mass below DEGENERATE_MASS are frozen at their
    current parameters and reported in the fit warnings. A transition
    probability the update puts below GAMMA_FLOOR is set to 0, which later
    updates keep, and reported in the fit warnings too.
    """
    x = np.asarray(obs, dtype=float)
    if x.size == 0:
        raise EmptyObservations("observation sequence is empty")
    if x.size < init.m:
        raise ValueError("need at least m observations")
    floor = _sigma_floor(x)

    params = init
    trace: list[float] = []
    warnings: list[str] = []
    for it in range(max_iters):
        tables = forward_backward(params, x)
        post = posterior_pairs(params, tables)
        trace.append(tables.log_likelihood)

        mass = post.state_prob.sum(axis=0)
        frozen = mass < DEGENERATE_MASS
        if frozen.any():
            warnings.append(
                f"iteration {it + 1}: state(s) {np.flatnonzero(frozen).tolist()} "
                f"degenerate (posterior mass < {DEGENERATE_MASS:g}); frozen"
            )

        delta = post.state_prob[0]
        pair_sum = post.pair_prob.sum(axis=0)
        out_mass = post.state_prob[:-1].sum(axis=0)
        gamma = params.gamma.copy()
        ok = ~frozen & (out_mass > 0)
        gamma[ok] = pair_sum[ok] / out_mass[ok, None]
        gamma[ok] /= gamma[ok].sum(axis=1, keepdims=True)
        small = (gamma > 0.0) & (gamma < GAMMA_FLOOR)
        warnings += [f"iteration {it + 1}: gamma[{i}, {j}] = {gamma[i, j]:.3g} below "
                     f"{GAMMA_FLOOR:g}; set to 0" for i, j in zip(*np.nonzero(small))]
        gamma[small] = 0.0

        mu = params.mu.copy()
        sigma = params.sigma.copy()
        mu[~frozen] = (post.state_prob[:, ~frozen] * x[:, None]).sum(axis=0) / mass[~frozen]
        var = (post.state_prob[:, ~frozen] * (x[:, None] - mu[None, ~frozen]) ** 2).sum(axis=0)
        sigma[~frozen] = np.maximum(np.sqrt(var / mass[~frozen]), floor)

        params = HmmParams(delta=delta, gamma=gamma, mu=mu, sigma=sigma)
        del tables, post  # freed before the next iteration's passes allocate

    order = tuple(int(i) for i in np.argsort(params.mu, kind="stable"))
    return FitReport(
        params=params.permuted(order),
        loglik_trace=trace,
        state_order=order,
        warnings=warnings,
    )


def pseudo_residuals(params: HmmParams, obs: Sequence[float],
                     tables: Optional[ForwardBackwardTables] = None) -> np.ndarray:
    """Uniform residuals u_t = Pr(X_t <= x_t | X_s = x_s for all s != t).

    The mixture weights are the posterior state probabilities computed with
    x_t removed, proportional to (alpha_hat[t-1] @ gamma) * beta_hat[t].
    """
    x = np.asarray(obs, dtype=float)
    if x.size == 0:
        raise EmptyObservations("observation sequence is empty")
    z = (x[:, None] - params.mu[None, :]) / params.sigma[None, :]
    cdf = 0.5 * _erfc(z * -SQRT_HALF).astype(float)
    if tables is None:
        tables = forward_backward(params, x)
    weights = tables.beta_hat.copy()
    weights[0] *= params.delta
    weights[1:] *= tables.alpha_hat[:-1] @ params.gamma
    weights /= weights.sum(axis=1, keepdims=True)
    return np.clip((weights * cdf).sum(axis=1), 0.0, 1.0)


def residual_histogram(u: np.ndarray) -> np.ndarray:
    """Counts over HIST_BINS equal-width bins of [0, 1]; u = 1 falls in the last bin."""
    counts, _ = np.histogram(u, bins=HIST_BINS, range=(0.0, 1.0))
    return counts
