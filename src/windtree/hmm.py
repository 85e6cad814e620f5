"""Gaussian-emission hidden Markov model fitted by Baum-Welch EM.

The likelihood of an observation sequence is the matrix product
delta P(x1) . Gamma P(x2) ... Gamma P(xT) 1, with P(x) the diagonal matrix
of per-state normal densities. That product underflows long before T = 300,
so every routine here works with row-normalized forward vectors and
accumulated log scale factors.

Neither pass steps through time in Python. The forward vectors are the
prefix products of the (T, m, m) stack Gamma P(x_t), and the backward
vectors the prefix products of the reversed, transposed stack. A doubling
scan computes every prefix in ceil(log2 T) batched matrix products,
rescaling each product to unit entry sum, at O(T m^2) memory. The results
agree with the one-step-at-a-time recursion to about 1e-12 relative.
A block product can underflow to 0 where that recursion would not; a
model with transition probabilities of 1e-200 does it in the tests. The
scan then raises NumericalUnderflow naming the pass and observation.

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
    iterations: int
    state_order: tuple[int, ...]
    warnings: list[str] = field(default_factory=list)


def _density_matrix(params: HmmParams, obs: np.ndarray) -> np.ndarray:
    """(T, m) matrix of per-state normal densities at each observation."""
    # far-tail z*z may overflow to inf; exp then flushes the density to 0,
    # which the recursions report as NumericalUnderflow
    with np.errstate(over="ignore"):
        z = (obs[:, None] - params.mu[None, :]) / params.sigma[None, :]
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * params.sigma[None, :])


def _scan(prods: np.ndarray) -> np.ndarray:
    """Inclusive prefix products prods[0] @ prods[1] @ ... @ prods[t] of a
    (T, m, m) stack, in place, each rescaled to unit entry sum.

    A doubling (Hillis-Steele) scan: after the step of stride s, entry t
    holds the product of the input's entries max(0, t - 2s + 1) .. t, so
    ceil(log2 T) batched products cover every prefix. A product whose
    entries have all underflowed to 0 comes out as NaN.
    """
    with np.errstate(invalid="ignore"):
        prods /= prods.sum(axis=(1, 2), keepdims=True)
        step = np.empty_like(prods)
        s = 1
        while s < len(prods):
            np.matmul(prods[:-s], prods[s:], out=step[s:])
            np.divide(step[s:], step[s:].sum(axis=(1, 2), keepdims=True), out=prods[s:])
            s *= 2
    return prods


def _forward(params: HmmParams, obs: Sequence[float]):
    """The scaled forward pass: the (T, m) densities, the row-normalized
    forward vectors alpha_hat and the log scale factors log_c.

    alpha_t is proportional to (delta D_0)(Gamma D_1)...(Gamma D_t), with
    D_t = diag(dens[t]). The scan gives its direction at t - 1, and one
    vectorized step (alpha_hat[t - 1] @ Gamma) * dens[t] gives c_t as a sum
    of nonnegative terms.
    """
    x = np.asarray(obs, dtype=float)
    if x.size == 0:
        raise EmptyObservations("observation sequence is empty")
    dens = _density_matrix(params, x)

    # row 0 of mats[0] is delta D_0 and its other rows are 0, so row 0 of
    # every prefix product is the forward direction
    mats = params.gamma * dens[:, None, :]
    mats[0] = 0.0
    mats[0, 0] = params.delta * dens[0]
    prior = _scan(mats[:-1])[:, 0]
    w = dens.copy()
    w[0] *= params.delta
    w[1:] *= prior @ params.gamma
    c = w.sum(axis=1)
    bad = np.flatnonzero(~((c > 0.0) & np.isfinite(c)))
    if bad.size:
        t = int(bad[0])
        if t > 0 and not np.all(np.isfinite(prior[t - 1])):
            raise NumericalUnderflow(
                f"the scaled forward product to observation {t - 1} "
                f"leaves the floating-point range"
            )
        raise NumericalUnderflow(
            f"observation {t} has zero density under every state"
        )
    return dens, w / c[:, None], np.log(c)


def forward_backward(params: HmmParams, obs: Sequence[float]) -> ForwardBackwardTables:
    """Scaled forward/backward tables of the observation sequence.

    beta_t is proportional to (Gamma D_{t+1})...(Gamma D_{T-1}) 1. Its
    transpose is the prefix product of the reversed stack D_s Gamma^T
    seeded with 1^T, so the same scan gives its direction, scaled so that
    alpha_hat[t] @ beta_hat[t] == 1.
    """
    dens, alpha_hat, log_c = _forward(params, obs)

    beta_hat = np.ones_like(alpha_hat)
    if len(dens) > 1:
        mats = params.gamma.T * dens[:0:-1, :, None]
        seed = mats[0].sum(axis=0)
        mats[0] = 0.0
        mats[0, 0] = seed
        with np.errstate(divide="ignore", invalid="ignore"):
            beta_hat[:-1] = _scan(mats)[::-1, 0]
            beta_hat[:-1] /= (alpha_hat[:-1] * beta_hat[:-1]).sum(axis=1, keepdims=True)
        if not np.all(np.isfinite(beta_hat)):
            t = int(np.flatnonzero(~np.isfinite(beta_hat).all(axis=1))[-1])
            raise NumericalUnderflow(
                f"the scaled backward product from observation {t + 1} "
                f"leaves the floating-point range"
            )

    return ForwardBackwardTables(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        log_c=log_c,
        log_likelihood=float(log_c.sum()),
        dens=dens,
    )


def log_likelihood(params: HmmParams, obs: Sequence[float]) -> float:
    """Log of the matrix-product likelihood, via the scaled forward pass."""
    return float(_forward(params, obs)[2].sum())


def posterior_pairs(params: HmmParams, obs: Sequence[float],
                    tables: Optional[ForwardBackwardTables] = None) -> PosteriorTables:
    """Smoothed state and pair probabilities from the scaled tables.

    pair_prob[t, j, k] = alpha_hat[t, j] gamma[j, k] p_k(x_{t+1})
    beta_hat[t+1, k] / c_{t+1}, the scaled form of the joint posterior of
    consecutive hidden states.
    """
    if tables is None:
        tables = forward_backward(params, obs)

    state = tables.alpha_hat * tables.beta_hat
    state /= state.sum(axis=1, keepdims=True)

    pair = ((tables.alpha_hat[:-1, :, None]
             * params.gamma[None]
             * (tables.dens[1:] * tables.beta_hat[1:])[:, None, :])
            * np.exp(-tables.log_c[1:])[:, None, None])
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
    current parameters and reported in the fit warnings.
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
        post = posterior_pairs(params, x, tables)
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

        mu = params.mu.copy()
        sigma = params.sigma.copy()
        mu[~frozen] = (post.state_prob[:, ~frozen] * x[:, None]).sum(axis=0) / mass[~frozen]
        var = (post.state_prob[:, ~frozen] * (x[:, None] - mu[None, ~frozen]) ** 2).sum(axis=0)
        sigma[~frozen] = np.maximum(np.sqrt(var / mass[~frozen]), floor)

        params = HmmParams(delta=delta, gamma=gamma, mu=mu, sigma=sigma)

    order = tuple(int(i) for i in np.argsort(params.mu, kind="stable"))
    return FitReport(
        params=params.permuted(order),
        loglik_trace=trace,
        iterations=len(trace),
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
