"""Gaussian-emission hidden Markov model fitted by Baum-Welch EM.

The likelihood of an observation sequence is the matrix product
delta P(x1) . Gamma P(x2) ... Gamma P(xT) 1, with P(x) the diagonal matrix
of per-state normal densities. That product underflows long before T = 300,
so every routine here works with probability vectors and accumulated log
scale factors, by forward filtering and backward smoothing (Cappe, Moulines
& Ryden, "Inference in Hidden Markov Models", 2005, ch. 3).

Both passes are the row recursion r_t = r_{t-1} M_t / c_t, with c_t the
entry sum of r_{t-1} M_t, over a stack of m x m matrices. The forward
matrices are Gamma P(x_t); their rows are the filtered probabilities
alpha_hat_t = Pr(C_t | x_0..x_t), and the log-likelihood is the sum of
log c_t. The backward matrices, for t = T - 2 down to 0, are
R_t[j, i] = alpha_hat_t(i) Gamma_ij / p_{t+1}(j), with p_{t+1} =
alpha_hat_t Gamma the predicted probabilities; from gamma_{T-1} =
alpha_hat_{T-1} their rows are the smoothed probabilities gamma_t =
Pr(C_t | x_0..x_{T-1}). Each R_t is row-stochastic, with row j all 0 where
p_{t+1}(j) = 0, so every backward row is a probability vector. The
unnormalized backward vectors beta_t, whose entries can span more than the
floating-point range, are never formed.

Neither pass steps through time in Python. A two-level scan (Blelloch,
"Prefix sums and their applications", 1990; for these two passes, Hassan,
Sarkka & Garcia-Fernandez, "Temporal parallelization of inference in
hidden Markov models", IEEE Trans. Signal Process. 2021) runs each pass on
blocks of SCAN_BLOCK steps: the product of each block, a doubling scan over
the block products that gives every block its entry row, then the
recursion inside all blocks at once. Inside a block each step is one
vector-matrix product, as in the one-step recursion (tests/oracle.py). On
random models alpha_hat and log c agree with it to about 1e-15 relative,
and every table agrees with a log-space forward-backward (tests/oracle.py)
to 1e-9.

The arrays are state-major: the state axes come first, then the step
within a block, the stack and the block. A pass is one
(m, m, SCAN_BLOCK, 1, B) stack, B = ceil(T / SCAN_BLOCK), whose entry
[i, j, l, 0, b] is entry (i, j) of step l of block b, and its rows are
(m, SCAN_BLOCK, 1, B). So step l of every block is one contiguous row of B
entries per matrix entry, and each matrix product is written out over such
rows: m multiplies and m - 1 adds per entry, accumulated in j order
(`_product`). An entry sum adds over the leading axes. A product is then
2m - 1 numpy calls and an entry sum 2, so a pass takes about 30m + 40 numpy
operations plus 2m + 2 for each of the ceil(log2 B) doubling levels,
whatever T is. Memory is O(T m^2): one stack of m^2 B SCAN_BLOCK doubles at
a time, block products and temporaries of m^2 B doubles each, and the rows.
No product goes through numpy's matrix multiplication, which hands a stack
of products to OpenBLAS, whose kernel is chosen for the CPU at run time and
rounds differently from the sum of products in j order: on one x86 host,
16% to 28% of the entries of stacks of random m x m products (m = 2..5)
differed in the last bit. Written out elementwise, every entry is the same
IEEE multiplies and adds on every host, so the fitted digits do not depend
on the BLAS build.

Every table after the scans is state-major too: the densities, the
filtered, predicted and smoothed probabilities and the smoothing ratios are
C-contiguous (m, T) arrays, and the pair posteriors one (m, m, T - 1) array,
so each operation on them, through the M-step and the residual weights,
runs along rows of T numbers rather than over the m entries of a step.
`_density_matrix`, `ForwardBackwardTables` and `posterior_pairs` hand out
their (T, m) and (T - 1, m, m) transposes, as views. The M-step's sums over
t (state masses, out-masses, pair sums, and the numerators of mu and sigma)
are numpy's pairwise sums along one such row; the sums over states add in
state order. So no sum of a series depends on what it is batched with.

A product rescaled as a whole keeps its entries within about 320 decades
of its largest, while the recursion rescales one row at a time. With
transition probabilities below about 1e-70, or long runs in which the
states' densities differ by many orders of magnitude, a forward entry row
can lose an entry that the recursion keeps. The last row of each block and
the next block's entry row are one vector computed both ways, so every
forward block seam is compared entry by entry to SEAM_RTOL. Where one
disagrees, NumericalUnderflow names the seam's observation, rather than the
pass returning tables that disagree with the recursion. The backward
matrices and their block products are row-stochastic, so a backward entry
row loses only entries below about 1e-308 of a unit row sum; EM needs a
probability only to absolute precision, and the backward seams are not
compared.

EM drives a transition probability that the data avoid toward 0 faster
than geometrically: its update is its current value times a ratio below 1.
On a series of T = 3000 drawn from the published 3-state model (the
benchmark's fit input at seed 414), a 4-state fit's smallest entry went
1.8e-112, 3.8e-180 and 2.0e-310 at iterations 9-11; at iteration 12 an
entry of 2.3e-308, at the bottom of the normal range, failed a seam check
of the scaled backward vectors, which the passes then scanned, though the
one-step recursion (tests/oracle.py) still had a finite likelihood. So the
M-step sets each entry below GAMMA_FLOOR = 1e-200 to exactly 0, a zero EM
keeps (its pair posterior is 0), and names it in the fit warnings; the rows
are not re-divided, as they then sum to 1 within m * 1e-200. The floor now
guards the forward products only: above it a product Gamma_ij p_j(x) stays
in the normal range for every density above 2.2e-308 / 1e-200 = 2.2e-108,
within about 22 standard deviations of a unit-sd state's mean, so the
forward scan keeps its relative precision there.

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
GAMMA_FLOOR = 1e-200    # the M-step sets smaller transition probabilities to 0


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
    """Filtered, predicted and smoothed state probabilities of an
    observation sequence, with its per-step log scale factors.

    alpha_hat[t] = Pr(C_t | x_0..x_t), pred[t] = Pr(C_t | x_0..x_{t-1})
    (delta at t = 0) and state_prob[t] = Pr(C_t | x_0..x_{T-1}), each row
    summing to 1; log_c[t] = log p(x_t | x_0..x_{t-1}), whose sum is the
    log-likelihood. Each (T, m) table is the transpose of a C-contiguous
    (m, T) array, one row over t per state; `.T` gives that array.
    """

    alpha_hat: np.ndarray    # (T, m)
    pred: np.ndarray         # (T, m)
    state_prob: np.ndarray   # (T, m)
    log_c: np.ndarray        # (T,)
    log_likelihood: float


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
    """(T, m) matrix of per-state normal densities at each observation, the
    transpose of a C-contiguous (m, T) array."""
    # far-tail z*z may overflow to inf; exp then flushes the density to 0,
    # which the recursions report as NumericalUnderflow
    with np.errstate(over="ignore"):
        z = (obs[None, :] - params.mu[:, None]) / params.sigma[:, None]
        return (np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * params.sigma[:, None])).T


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix products out[i, k] = sum_j a[i, j] b[j, k] at every
    trailing index of a (p, m, ...) and a (m, q, ...) array: m multiplies and
    m - 1 adds, each over whole rows, accumulated in j order."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, b.shape[0]):
        out += a[:, j, None] * b[None, j]
    return out


def _entry_sum(a: np.ndarray) -> np.ndarray:
    """The entry sums of an (m, m, ...) stack: each row summed in column
    order, then the row sums in row order.

    numpy adds fewer than 8 terms in order whatever the trailing shape, so
    for m < 8 these sums, like the row sums of the passes, do not depend on
    what a stack is batched with.
    """
    return a.sum(axis=1).sum(axis=0)


def _scan(prods: np.ndarray) -> np.ndarray:
    """Inclusive prefix products along the last axis of an (m, m, ..., n)
    stack of unit-entry-sum matrices, in place, each rescaled to unit entry
    sum.

    A doubling (Hillis-Steele) scan: after the step of stride s, entry t
    holds the product of the input's entries max(0, t - 2s + 1) .. t, so
    ceil(log2 n) products cover every prefix. A product whose entries have
    all underflowed to 0 comes out as NaN.
    """
    s = 1
    while s < prods.shape[-1]:
        step = _product(prods[..., :-s], prods[..., s:])
        np.divide(step, _entry_sum(step), out=prods[..., s:])
        s *= 2
    return prods


def _entry_rows(blocks: np.ndarray) -> np.ndarray:
    """Entry rows (m, K, B) of the row recursion for the (m, m, SCAN_BLOCK,
    K, B) blocks: e_0 for block 0, and row 0 of the prefix product of the block
    products before it for every other block.

    Every factor, then every product, is rescaled to unit entry sum. A
    factor rescaled first keeps densities near the bottom of the
    floating-point range from underflowing in the product. The block
    products are freed on return, before the rows are allocated, so the
    passes never hold both.
    """
    m, _, L, K, B = blocks.shape
    sums = _entry_sum(blocks)
    prods = blocks[:, :, 0] / sums[0]
    for j in range(1, L):
        prods = _product(prods, blocks[:, :, j] / sums[j])
        prods /= _entry_sum(prods)
    entry = np.zeros((m, K, B))
    entry[0, :, 0] = 1.0
    entry[:, :, 1:] = _scan(prods[..., :-1])[0]
    return entry


def _row_scan(blocks: np.ndarray):
    """The row recursion w = r M_t, c_t = sum(w), r = w / c_t from r = e_0,
    over each stack k of an (m, m, SCAN_BLOCK, K, B) array whose entry
    [:, :, j, k, b] is the matrix M_t of step t = b SCAN_BLOCK + j of stack k.

    Returns the rows (m, SCAN_BLOCK, K, B) and the sums c (SCAN_BLOCK, K, B),
    indexed by step like the blocks, and seam_ok (K, B - 1). Each block's
    entry row comes from the block products, by the doubling scan over
    them, and the recursion then runs inside every block at once. Seam b is
    row (b + 1) SCAN_BLOCK - 1, computed once as the last row of block b and
    once as the entry row of block b + 1; seam_ok says whether the two
    agree in every entry.
    """
    m, _, L, K, B = blocks.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        entry = _entry_rows(blocks)
        rows = np.empty((m, L, K, B))
        c = np.empty((L, K, B))
        r = entry
        for j in range(L):
            w = _product(r[None], blocks[:, :, j])[0]
            np.sum(w, axis=0, out=c[j])
            r = np.divide(w, c[j], out=rows[:, j])

        last, nxt = rows[:, L - 1, :, :-1], entry[:, :, 1:]
        seam_ok = (np.abs(last - nxt) <= SEAM_RTOL * np.abs(nxt) + SEAM_ATOL).all(axis=0)
    return rows, c, seam_ok


def _step_index(T: int) -> np.ndarray:
    """The step n = b SCAN_BLOCK + l of each [l, b] of a stack's blocks:
    a (SCAN_BLOCK, B) array, B = ceil(T / SCAN_BLOCK)."""
    return np.arange(-(-T // SCAN_BLOCK) * SCAN_BLOCK).reshape(-1, SCAN_BLOCK).T


def _stack(g: np.ndarray, v: np.ndarray, seed: np.ndarray, T: int,
           p: Optional[np.ndarray] = None) -> np.ndarray:
    """The (m, m, SCAN_BLOCK, 1, B) stack of `_row_scan` for T steps whose
    vectors v (m, SCAN_BLOCK, B) are laid out as `_step_index`'s steps.

    Step n is g diag(v_n), with row j divided by p_n[j] where p is given,
    except step 0, which has row 0 `seed` and its other rows 0. Identity
    matrices pad the last block.
    """
    m, L, B = v.shape
    blocks = np.multiply(g[:, :, None, None], v[None])
    if p is not None:
        # where p_n[j] = 0, every term of it, and so row j, is already 0;
        # step 0 and the padding, overwritten below, may overflow
        with np.errstate(over="ignore"):
            np.divide(blocks, p[:, None], out=blocks, where=p[:, None] > 0.0)
    blocks[:, :, 0, 0] = 0.0
    blocks[0, :, 0, 0] = seed
    blocks[:, :, T - (B - 1) * L:, -1] = np.eye(m)[:, :, None]
    return blocks[:, :, :, None]


def _time_order(a: np.ndarray, T: int) -> np.ndarray:
    """The C-contiguous (..., T) rows of a stack's (..., SCAN_BLOCK, B) rows
    or sums, with step n = b SCAN_BLOCK + l at [..., n]."""
    pos = np.arange(a.shape[-2] * a.shape[-1]).reshape(a.shape[-2:]).T.ravel()[:T]
    return np.take(a.reshape(a.shape[:-2] + (-1,)), pos, axis=-1)


def _forward(params: HmmParams, obs: Sequence[float]):
    """The forward rows alpha_hat, state-major (m, T), and their sums c (T,).

    Raises NumericalUnderflow at the first observation whose scale factor
    is not positive and finite, unless a seam before it disagrees, and then
    at that seam.
    """
    x = np.asarray(obs, dtype=float)
    if x.size == 0:
        raise EmptyObservations("observation sequence is empty")
    dens = _density_matrix(params, x).T
    T = x.size
    d = np.take(dens, _step_index(T), axis=1, mode="clip")
    rows, c, seam_ok = _row_scan(_stack(params.gamma, d, params.delta * dens[:, 0], T))
    c = _time_order(c[:, 0], T)
    bad = np.flatnonzero(~((c > 0.0) & np.isfinite(c)))
    end = int(bad[0]) if bad.size else T - 1
    # seams from `end` on feed no row that is used or that has not already failed
    seams = np.flatnonzero(~seam_ok[0, : end // SCAN_BLOCK])
    if seams.size:
        raise NumericalUnderflow(
            f"the scaled forward product to observation "
            f"{(int(seams[0]) + 1) * SCAN_BLOCK - 1} leaves the floating-point range"
        )
    if bad.size:
        raise NumericalUnderflow(f"observation {end} has zero density under every state")
    return _time_order(rows[:, :, 0], T), c


def forward_backward(params: HmmParams, obs: Sequence[float]) -> ForwardBackwardTables:
    """Forward filtering, then backward smoothing, of the observation sequence.

    The smoothed rows are gamma_{T-1} = alpha_hat_{T-1} and, backwards,
    gamma_t(i) = alpha_hat_t(i) sum_j Gamma_ij q_{t+1}(j), with
    q = gamma / p taken as 0 where p = 0 (gamma is 0 there too): the row
    recursion over R_t[j, i] = alpha_hat_t(i) Gamma_ij / p_{t+1}(j), whose
    step s is t = T - 1 - s.
    """
    alpha_hat, c = _forward(params, obs)
    T = len(c)
    pred = np.empty_like(alpha_hat)
    pred[:, 0] = params.delta
    pred[:, 1:] = _product(alpha_hat[None, :, :-1], params.gamma[:, :, None])[0]
    t = T - 1 - _step_index(T)
    a = np.take(alpha_hat, t, axis=1, mode="clip")
    p = np.take(pred, t + 1, axis=1, mode="clip")
    rows, _, _ = _row_scan(_stack(params.gamma.T, a, alpha_hat[:, -1], T, p))
    log_c = np.log(c)
    return ForwardBackwardTables(
        alpha_hat=alpha_hat.T,
        pred=pred.T,
        state_prob=_time_order(rows[:, :, 0], T)[:, ::-1].copy().T,
        log_c=log_c,
        log_likelihood=float(log_c.sum()),
    )


def _smoothing_ratio(tables: ForwardBackwardTables) -> np.ndarray:
    """The state-major (m, T) q_t = gamma_t / p_t, the smoothed over the
    predicted probabilities, taken as 0 where p_t = 0."""
    pred = tables.pred.T
    return np.divide(tables.state_prob.T, pred, out=np.zeros_like(pred), where=pred > 0.0)


def posterior_pairs(params: HmmParams, tables: ForwardBackwardTables) -> np.ndarray:
    """The (T-1, m, m) smoothed pair probabilities from the tables of an
    observation sequence under `params`.

    [t, i, j] = Pr(C_t = i, C_{t+1} = j | X) = alpha_hat[t, i] gamma[i, j]
    q[t+1, j], the joint posterior of consecutive hidden states, with
    q = state_prob / pred taken as 0 where pred = 0. In memory it is a
    C-contiguous (m, m, T-1) array, which `.transpose(1, 2, 0)` gives: each
    [:, i, j] is a contiguous row over t.
    """
    pair = tables.alpha_hat.T[:, None, :-1] * params.gamma[:, :, None]
    pair *= _smoothing_ratio(tables)[None, :, 1:]
    return pair.transpose(2, 0, 1)


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
        new_labels = np.argmin(np.abs(x - centers[:, None]), axis=0)
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
        state_prob = tables.state_prob.T
        trace.append(tables.log_likelihood)

        mass = state_prob.sum(axis=1)
        frozen = mass < DEGENERATE_MASS
        if frozen.any():
            warnings.append(
                f"iteration {it + 1}: state(s) {np.flatnonzero(frozen).tolist()} "
                f"degenerate (posterior mass < {DEGENERATE_MASS:g}); frozen"
            )

        delta = state_prob[:, 0].copy()
        pair_sum = posterior_pairs(params, tables).transpose(1, 2, 0).sum(axis=2)
        out_mass = state_prob[:, :-1].sum(axis=1)
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
        mu[~frozen] = (state_prob[~frozen] * x).sum(axis=1) / mass[~frozen]
        var = (state_prob[~frozen] * (x - mu[~frozen, None]) ** 2).sum(axis=1)
        sigma[~frozen] = np.maximum(np.sqrt(var / mass[~frozen]), floor)

        params = HmmParams(delta=delta, gamma=gamma, mu=mu, sigma=sigma)
        del tables, state_prob  # freed before the next iteration's passes allocate

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

    The mixture weights are the posterior state probabilities given every
    observation but x_t, proportional to pred[t] * (Gamma q[t+1]) with
    q = state_prob / pred taken as 0 where pred = 0, and to pred[T-1] at the
    last step. They do not divide by the densities at x_t, one of which may
    be 0 where the others are not.
    """
    x = np.asarray(obs, dtype=float)
    if x.size == 0:
        raise EmptyObservations("observation sequence is empty")
    z = (x[None, :] - params.mu[:, None]) / params.sigma[:, None]
    cdf = 0.5 * np.fromiter(map(math.erfc, (z * -SQRT_HALF).ravel().tolist()),
                            float, z.size).reshape(z.shape)
    if tables is None:
        tables = forward_backward(params, x)
    weights = tables.pred.T.copy()
    q = _smoothing_ratio(tables)[:, None, 1:]
    weights[:, :-1] *= _product(params.gamma[:, :, None], q)[:, 0]
    weights /= weights.sum(axis=0)
    return np.clip((weights * cdf).sum(axis=0), 0.0, 1.0)


def residual_histogram(u: np.ndarray) -> np.ndarray:
    """Counts over HIST_BINS equal-width bins of [0, 1]; u = 1 falls in the last bin."""
    counts, _ = np.histogram(u, bins=HIST_BINS, range=(0.0, 1.0))
    return counts
