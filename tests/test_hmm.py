"""Gaussian HMM tests: scaled recursions against brute-force enumeration,
EM behavior, and residual diagnostics."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

from windtree.hmm import (
    EmptyObservations,
    HmmParams,
    NumericalUnderflow,
    baum_welch,
    default_init,
    forward_backward,
    posterior_pairs,
    pseudo_residuals,
    residual_histogram,
)
from windtree import hmm
from windtree.hmm import _density_matrix

from oracle import log_space_forward_backward, sequential_forward_backward
# the fit benchmark's draw from the published model: a seed names the same
# series here and in the benchmark
from workloads import published_series

LOG_STD_NORM_PEAK = -0.9189385332046727  # ln(1/sqrt(2 pi))
EPS = 1e-200


def random_params(rng, m):
    delta = rng.uniform(0.1, 1.0, m)
    delta /= delta.sum()
    gamma = rng.uniform(0.1, 1.0, (m, m))
    gamma /= gamma.sum(axis=1, keepdims=True)
    return HmmParams(delta=delta, gamma=gamma,
                     mu=rng.normal(0.0, 2.0, m), sigma=rng.uniform(0.3, 2.0, m))


def enumerate_paths(params, obs):
    """Likelihood plus state/pair posteriors by summing over every hidden
    path, in extended precision. Ground truth for the scaled recursions."""
    m, T = params.m, len(obs)
    delta = params.delta.astype(np.longdouble)
    gamma = params.gamma.astype(np.longdouble)
    dens = _density_matrix(params, np.asarray(obs, dtype=float)).astype(np.longdouble)
    total = np.longdouble(0.0)
    state = np.zeros((T, m), dtype=np.longdouble)
    pair = np.zeros((max(T - 1, 0), m, m), dtype=np.longdouble)
    for path in itertools.product(range(m), repeat=T):
        p = delta[path[0]] * dens[0, path[0]]
        for t in range(1, T):
            p *= gamma[path[t - 1], path[t]] * dens[t, path[t]]
        total += p
        for t in range(T):
            state[t, path[t]] += p
        for t in range(T - 1):
            pair[t, path[t], path[t + 1]] += p
    return float(total), (state / total).astype(float), (pair / total).astype(float)


def density(params, j, x):
    """Normal density of state j at x, as the recursions see it."""
    return float(_density_matrix(params, np.array([x]))[0, j])


class TestEmissionDensity:
    def test_standard_normal_peak(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        assert density(p, 0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-10)

    def test_peak_scales_with_sigma(self):
        p = HmmParams([1.0], [[1.0]], [2.0], [0.5])
        assert density(p, 0, 2.0) == pytest.approx(0.7978845608028654, abs=1e-10)

    def test_three_sigma_tail(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        assert density(p, 0, 3.0) == pytest.approx(0.0044318484119380075, abs=1e-12)

    def test_log_form_agrees(self):
        # a 1-state model's log-likelihood of one observation is its log density
        p = HmmParams([1.0], [[1.0]], [0.7], [1.3])
        z = (-0.2 - 0.7) / 1.3
        log_form = -0.5 * z * z - math.log(1.3) - 0.5 * math.log(2.0 * math.pi)
        assert forward_backward(p, [-0.2]).log_likelihood == pytest.approx(log_form, abs=1e-12)
        assert log_form == pytest.approx(math.log(density(p, 0, -0.2)), abs=1e-12)


class TestLogLikelihood:
    def test_single_state_single_observation(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        assert forward_backward(p, [0.0]).log_likelihood == pytest.approx(
            LOG_STD_NORM_PEAK, abs=1e-10)

    def test_single_state_factorizes(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        assert forward_backward(p, [0.0, 0.0]).log_likelihood == pytest.approx(
            2.0 * LOG_STD_NORM_PEAK, abs=1e-10)

    def test_two_state_mixture(self):
        p = HmmParams([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], [1.0, 1.0])
        # both components evaluate the standard normal at 0.5
        want = math.log(0.3520653267642995)
        assert forward_backward(p, [0.5]).log_likelihood == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(-1.0439385332046727, abs=1e-10)

    def test_empty_observations(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        with pytest.raises(EmptyObservations):
            forward_backward(p, [])

    def test_no_underflow_at_t300(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 3)
        obs = rng.normal(0.0, 2.0, 300)
        ll = forward_backward(p, obs).log_likelihood
        assert math.isfinite(ll)

    def test_matches_extended_precision_product_to_t20(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            T = int(rng.integers(1, 21))
            p = random_params(rng, m)
            obs = rng.normal(0.0, 2.0, T)
            delta = p.delta.astype(np.longdouble)
            gamma = p.gamma.astype(np.longdouble)
            dens = _density_matrix(p, obs).astype(np.longdouble)
            v = delta * dens[0]
            for t in range(1, T):
                v = (v @ gamma) * dens[t]
            direct = float(np.log(v.sum()))
            assert forward_backward(p, obs).log_likelihood == pytest.approx(
                direct, rel=1e-10, abs=1e-10)


class TestForwardBackward:
    def test_base_case_t1(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 3)
        x = 0.37
        tables = forward_backward(p, [x])
        w = p.delta * np.array([density(p, j, x) for j in range(3)])
        np.testing.assert_allclose(tables.alpha_hat[0], w / w.sum(), rtol=1e-12)
        assert tables.log_likelihood == pytest.approx(math.log(w.sum()), abs=1e-12)

    def test_alpha_rows_normalized(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, 3)
        tables = forward_backward(p, rng.normal(0, 2, 40))
        np.testing.assert_allclose(tables.alpha_hat.sum(axis=1), 1.0, atol=1e-10)

    def test_loglik_is_scale_factor_sum(self):
        rng = np.random.default_rng(8)
        p = random_params(rng, 2)
        tables = forward_backward(p, rng.normal(0, 2, 25))
        assert tables.log_likelihood == pytest.approx(tables.log_c.sum(), abs=1e-12)

    def test_state_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        for T in (5, 200):
            p = random_params(rng, 2)
            tables = forward_backward(p, rng.normal(0, 2, T))
            np.testing.assert_allclose(tables.state_prob.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_underflow_reported(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1e-300])
        with pytest.raises(NumericalUnderflow):
            forward_backward(p, [1.0])

    def test_matches_enumeration_t4(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, 2)
        obs = rng.normal(0, 2, 4)
        L, _, _ = enumerate_paths(p, obs)
        tables = forward_backward(p, obs)
        assert tables.log_likelihood == pytest.approx(math.log(L), abs=1e-12)


def published_params():
    """The paper's 3-state table; gamma has a zero in every row."""
    return HmmParams(delta=[0.0, 1.0, 0.0],
                     gamma=[[0.0, 1.0, 0.0], [0.1262, 0.0, 0.8738], [0.0, 1.0, 0.0]],
                     mu=[-0.613, 1.9753, 4.7825], sigma=[0.13139, 0.10825, 1.1217])


def draw_series(rng, params, T):
    """Observations of a state path drawn from params, started in state 1."""
    states = [1]
    for _ in range(T - 1):
        states.append(rng.choice(params.m, p=params.gamma[states[-1]]))
    return rng.normal(params.mu[states], params.sigma[states])


def assert_matches_sequential(params, obs):
    alpha, beta, log_c = sequential_forward_backward(params, obs)
    tables = forward_backward(params, obs)
    np.testing.assert_allclose(tables.alpha_hat, alpha, rtol=1e-12, atol=0)
    # an absolute error in log c_t is a relative error in c_t
    np.testing.assert_allclose(tables.log_c, log_c, rtol=1e-12, atol=1e-12)
    assert tables.log_likelihood == pytest.approx(log_c.sum(), rel=1e-12)
    state = alpha * beta
    state /= state.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(tables.state_prob, state, rtol=1e-10, atol=0)


class TestScanMatchesSequential:
    """The time-parallel scan against the one-step-at-a-time recursion."""

    # T - 1 of 7, 8, 9, 16 and 64 puts the last forward or backward step at
    # either side of a block edge of the two-level scan (8 steps a block)
    @pytest.mark.parametrize("T", [1, 2, 3, 8, 9, 10, 17, 65, 300, 3000])
    def test_random_models(self, T):
        rng = np.random.default_rng(T)
        for m in range(1, 6):
            p = random_params(rng, m)
            assert_matches_sequential(p, rng.normal(0.0, 2.0, T))

    def test_published_gamma_with_structural_zeros(self):
        p = published_params()
        assert_matches_sequential(p, draw_series(np.random.default_rng(21), p, 3000))

    def test_identity_gamma(self):
        rng = np.random.default_rng(22)
        p = HmmParams([0.2, 0.3, 0.5], np.eye(3), [-1.0, 0.0, 1.0], [1.0, 0.5, 2.0])
        assert_matches_sequential(p, rng.normal(0.0, 1.0, 300))

    # one outlier puts the scale factor c_2 near 9e-312, positive and below
    # the normal range, where exp(-log c_2) overflows; the one-step
    # recursion divides by c_2 instead
    def test_subnormal_scale_factor(self):
        p = HmmParams([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [0.0, 0.2], [1.0, 1.0])
        obs = [0.0, 0.1, 38.0, 0.0, 0.2]
        _, beta, log_c = sequential_forward_backward(p, obs)
        assert log_c[2] < math.log(1e-308)
        assert np.isfinite(beta).all()
        assert_matches_sequential(p, obs)

    def test_underflow_at_the_same_observation(self):
        # the chain must alternate, but the second observation sits on state 0
        p = HmmParams([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [0.0, 10.0], [0.01, 0.01])
        obs = [0.0, 0.0, 10.0, 0.0]
        with pytest.raises(NumericalUnderflow) as loop:
            sequential_forward_backward(p, obs)
        with pytest.raises(NumericalUnderflow) as scan:
            forward_backward(p, obs)
        assert str(scan.value) == str(loop.value) == (
            "observation 1 has zero density under every state")

    # A product rescaled as a whole loses the entries more than about 320
    # decades below its largest, which the one-step recursion keeps; the
    # block seams catch the entry rows that lost one. With transition
    # probabilities of 1e-200 the forward rows go wrong: in the second case
    # alpha_hat[192, 1] came out 5e-206 against the recursion's 1.4e-145.
    @pytest.mark.parametrize("gamma, runs, message", [
        ([[1.0, EPS, 0.0], [0.0, 1.0, EPS], [EPS, 0.0, 1.0]],
         [(0.0, 64), (10.0, 128)],
         "the scaled forward product to observation 71 leaves the floating-point range"),
        ([[0.5, EPS, 0.5], [EPS, 1.0, EPS], [0.25, EPS, 0.75]],
         [(5.0, 128), (10.0, 128), (5.0, 64), (10.0, 128)],
         "the scaled forward product to observation 191 leaves the floating-point range"),
    ], ids=["forward", "forward-191"])
    def test_product_out_of_range_is_reported(self, gamma, runs, message):
        p = HmmParams(np.full(3, 1.0 / 3.0), gamma, [0.0, 5.0, 10.0], [1.0, 1.0, 1.0])
        obs = np.concatenate([np.full(n, x) for x, n in runs])
        with pytest.raises(NumericalUnderflow) as err:
            forward_backward(p, obs)
        assert str(err.value) == message

    @staticmethod
    def cyclic_model(e):
        return HmmParams(np.full(3, 1.0 / 3.0), [[1.0, e, 0.0], [0.0, 1.0, e], [e, 0.0, 1.0]],
                         [0.0, 5.0, 10.0], [1.0, 1.0, 1.0])

    def test_small_transition_probabilities_match(self):
        obs = np.concatenate([np.zeros(64), np.full(128, 10.0)])
        assert_matches_sequential(self.cyclic_model(1e-60), obs)

    def test_small_transition_probabilities_never_return_wrong_tables(self):
        # here a doubling scan over all T returned finite tables with 37 of
        # the 576 entries of alpha_hat or beta_hat off by up to 100%, such as
        # alpha_hat[96, 1] = 0 against the recursion's 2.3e-23
        obs = np.concatenate([np.zeros(64), np.full(128, 10.0)])
        with pytest.raises(NumericalUnderflow, match="forward product to observation 79 "):
            forward_backward(self.cyclic_model(4.2e-152), obs)

    def test_batch_rows_match_single_stacks_bitwise(self):
        # each stack of a batch sees the arithmetic it sees alone
        rng = np.random.default_rng(24)
        stacks = []
        for _ in range(3):
            p = random_params(rng, 3)
            dens = _density_matrix(p, rng.normal(0.0, 2.0, 200))
            d = np.take(dens.T, hmm._step_index(200), axis=1, mode="clip")
            stacks.append(hmm._stack(p.gamma, d, p.delta * dens[0], 200))
        rows, c, seam_ok = hmm._row_scan(np.concatenate(stacks, axis=3))
        for k, stack in enumerate(stacks):
            one_rows, one_c, one_seam_ok = hmm._row_scan(stack.copy())
            np.testing.assert_array_equal(rows[:, :, k], one_rows[:, :, 0])
            np.testing.assert_array_equal(c[:, k], one_c[:, 0])
            np.testing.assert_array_equal(seam_ok[k], one_seam_ok[0])


def cyclic_params(e):
    """Gamma = I plus e on the cyclic off-diagonal, row-normalized; means 0,
    5 and 10, sds 1."""
    gamma = np.eye(3) + e * np.roll(np.eye(3), 1, axis=1)
    return HmmParams(np.full(3, 1.0 / 3.0), gamma / gamma.sum(axis=1, keepdims=True),
                     [0.0, 5.0, 10.0], [1.0, 1.0, 1.0])


def runs_of(*runs):
    return np.concatenate([np.full(n, x) for x, n in runs])


def dense_series():
    """40 draws about 2 with observation 20 at 4, 40 sd from the mean of the
    dense model's state 0, whose density is 0 there."""
    obs = np.random.default_rng(1).normal(2.0, 1.5, 40)
    obs[20] = 4.0
    return obs


CYCLIC_RUNS = [(0.0, 40), (5.0, 30), (10.0, 20), (0.0, 10)]
BETA_RANGE_GAMMA = [[0.0, 1.0, 0.0], [2 / 3, 1 / 3, 0.0], [2 / 3, 0.0, 1 / 3]]

# On CYCLIC_RUNS, e = 1e-200 raises at the forward seam before observation
# 63, a false alarm: the one-step recursion's tables are within 2.1e-14 of
# the reference there. At e = 1e-200 the shorter series drives pred[t, 2]
# to exactly 0 for t = 23..43. The last two models put beta_t's entries
# beyond the floating-point range, where the scaled backward vectors
# raised; the smoothed probabilities never form them.
LOG_SPACE_CASES = {
    **{f"cyclic-{e:g}": (cyclic_params(e), runs_of(*CYCLIC_RUNS))
       for e in (1e-2, 1e-20, 1e-60, 1e-120)},
    "cyclic-1e-200": (cyclic_params(1e-200), runs_of((0.0, 40), (5.0, 4))),
    "dense-40-sd": (HmmParams(np.full(3, 1.0 / 3.0),
                              [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]],
                              [0.0, 2.0, 4.0], [0.1, 1.0, 1.0]), dense_series()),
    "beta-out-of-range": (HmmParams(np.full(3, 1.0 / 3.0), BETA_RANGE_GAMMA, [0.0, 5.0, 10.0],
                                    [1.0, 1.0, 1.0]), runs_of((5.0, 32), (10.0, 64))),
    "beta-subnormal": (HmmParams(np.full(3, 1.0 / 3.0), BETA_RANGE_GAMMA, [0.0, 5.0, 10.0],
                                 [1.0, 1.0, 1.0]), runs_of((5.0, 9), (10.0, 64))),
}


@pytest.mark.parametrize("case", list(LOG_SPACE_CASES))
def test_tables_match_log_space_reference(case):
    params, obs = LOG_SPACE_CASES[case]
    ref = log_space_forward_backward(params, obs)
    tables = forward_backward(params, obs)
    assert tables.log_likelihood == pytest.approx(ref["loglik"], rel=1e-9)
    np.testing.assert_allclose(tables.log_c, ref["log_c"], rtol=1e-9, atol=1e-9)
    for name, got in [("alpha_hat", tables.alpha_hat), ("pred", tables.pred),
                      ("state_prob", tables.state_prob),
                      ("pair_prob", posterior_pairs(params, tables))]:
        np.testing.assert_allclose(got, ref[name], rtol=0, atol=1e-9, err_msg=name)
    z = (obs[:, None] - params.mu) / params.sigma
    np.testing.assert_allclose(pseudo_residuals(params, obs, tables),
                               (ref["weights"] * norm.cdf(z)).sum(axis=1), rtol=0, atol=1e-9)
    # the rule q = 0 where pred = 0, and a zero density, are exercised
    assert (tables.pred == 0.0).any() == (case == "cyclic-1e-200")
    assert (_density_matrix(params, obs) == 0.0).any() == (case == "dense-40-sd")


def python_product(a, b):
    """a_r b_r at each trailing index r in plain Python floats, each entry
    accumulated in j order: the arithmetic `hmm._product` must reproduce."""
    p, m, q = a.shape[0], a.shape[1], b.shape[1]
    out = np.empty((p, q) + a.shape[2:])
    for r in np.ndindex(a.shape[2:]):
        for i in range(p):
            for k in range(q):
                s = float(a[(i, 0) + r]) * float(b[(0, k) + r])
                for j in range(1, m):
                    s = s + float(a[(i, j) + r]) * float(b[(j, k) + r])
                out[(i, k) + r] = s
    return out


# Exact zeros, subnormals and normal magnitudes far apart, so that the
# rounding of each product and add shows in the last bit.
@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
def test_product_is_python_arithmetic_in_j_order(seed, m, p):
    rng = np.random.default_rng(seed)

    def draw(shape):
        x = rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-20, 20, shape)
        x[rng.random(shape) < 0.2] = 0.0
        tiny = rng.random(shape) < 0.2
        x[tiny] = rng.uniform(0.0, 1.0, int(tiny.sum())) * 1e-310
        return x

    a, b = draw((p, m, 3, 4)), draw((m, m, 3, 4))
    got = hmm._product(a, b)
    want = python_product(a, b)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# numpy sums a reduced axis of 8 or more entries pairwise when no other axis
# is longer than 1, so only a sum of each row and then of the row sums, for
# m < 8, keeps this order whatever the trailing shape.
@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7),
       st.sampled_from([(), (1,), (1, 1), (2, 3)]))
def test_entry_sum_adds_rows_then_row_sums(seed, m, trailing):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (m, m) + trailing) * 10.0 ** rng.integers(-20, 20, (m, m) + trailing)
    got = hmm._entry_sum(a)
    for r in np.ndindex(trailing):
        row_sums = []
        for i in range(m):
            s = float(a[(i, 0) + r])
            for j in range(1, m):
                s = s + float(a[(i, j) + r])
            row_sums.append(s)
        total = row_sums[0]
        for s in row_sums[1:]:
            total = total + s
        assert got[r] == total


# FIT_DIGESTS rest on every product being summed in j order (`hmm._product`);
# a BLAS-backed product rounds as the CPU's kernel does.
def test_hmm_calls_no_blas_product():
    banned = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
    tree = ast.parse(Path(hmm.__file__).read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in banned
             or isinstance(node, ast.alias) and node.name in banned]
    assert found == []


class TestPosteriorPairs:
    # Every table is state-major in memory: the densities, the forward-backward
    # tables and the pair posteriors are transposed views of C-contiguous
    # arrays whose last axis is t, so the operations after the scans and the
    # M-step's sums over t run along contiguous rows of T numbers.
    def test_tables_are_state_major(self):
        rng = np.random.default_rng(25)
        p = random_params(rng, 3)
        obs = rng.normal(0.0, 2.0, 50)
        tables = forward_backward(p, obs)
        for table in (tables.alpha_hat, tables.pred, tables.state_prob,
                      _density_matrix(p, obs)):
            assert table.shape == (50, 3)
            assert table.T.flags.c_contiguous
        pairs = posterior_pairs(p, tables)
        assert pairs.shape == (49, 3, 3)
        assert pairs.transpose(1, 2, 0).flags.c_contiguous

    def test_matches_enumeration_t3(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_params(rng, 2)
            obs = rng.normal(0, 2, 3)
            _, state, pair = enumerate_paths(p, obs)
            tables = forward_backward(p, obs)
            np.testing.assert_allclose(tables.state_prob, state, atol=1e-12)
            np.testing.assert_allclose(posterior_pairs(p, tables), pair, atol=1e-12)

    def test_single_state_posteriors_are_one(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        tables = forward_backward(p, [0.1, -0.4, 2.0])
        np.testing.assert_allclose(tables.state_prob, 1.0)
        np.testing.assert_allclose(posterior_pairs(p, tables), 1.0)

    def test_absorbing_identity_chain(self):
        p = HmmParams([1.0, 0.0], np.eye(2), [0.0, 10.0], [1.0, 1.0])
        state_prob = forward_backward(p, [0.1, -0.2, 0.3]).state_prob
        np.testing.assert_allclose(state_prob[:, 0], 1.0, atol=1e-15)

    def test_reuses_the_tables_densities(self, monkeypatch):
        rng = np.random.default_rng(23)
        p = random_params(rng, 3)
        obs = rng.normal(0, 2, 30)
        tables = forward_backward(p, obs)
        want = posterior_pairs(p, tables)
        monkeypatch.setattr(hmm, "_density_matrix", None)
        got = posterior_pairs(p, tables)
        np.testing.assert_array_equal(got, want)

    def test_pair_marginalizes_to_state(self):
        rng = np.random.default_rng(13)
        p = random_params(rng, 3)
        obs = rng.normal(0, 2, 30)
        tables = forward_backward(p, obs)
        np.testing.assert_allclose(
            posterior_pairs(p, tables).sum(axis=2), tables.state_prob[:-1], atol=1e-9)


class TestBaumWelch:
    def test_single_state_closed_form(self):
        rng = np.random.default_rng(14)
        obs = rng.normal(3.0, 2.0, 200)
        report = baum_welch(obs, default_init(obs, 1), max_iters=5)
        assert report.params.mu[0] == pytest.approx(obs.mean(), abs=1e-9)
        assert report.params.sigma[0] == pytest.approx(obs.std(), abs=1e-9)
        closed = np.sum(
            -0.5 * ((obs - obs.mean()) / obs.std()) ** 2
            - math.log(obs.std()) - 0.5 * math.log(2 * math.pi))
        assert report.loglik_trace[-1] == pytest.approx(closed, abs=1e-6)

    def test_recovers_synthetic_two_state_model(self):
        gamma = np.array([[0.9, 0.1], [0.1, 0.9]])
        rng = np.random.default_rng(55)
        states = [0]
        for _ in range(1999):
            states.append(rng.choice(2, p=gamma[states[-1]]))
        obs = rng.normal(np.array([0.0, 5.0])[states], 1.0)
        # the default start with the true chain's 0.9 diagonal
        start = default_init(obs, 2)
        init = HmmParams(delta=start.delta, gamma=gamma, mu=start.mu, sigma=start.sigma)
        report = baum_welch(obs, init, max_iters=50)
        np.testing.assert_allclose(report.params.mu, [0.0, 5.0], atol=0.15)
        assert report.params.gamma[0, 0] == pytest.approx(0.9, abs=0.05)

    def test_monotone_loglik(self, reference_series):
        report = baum_welch(reference_series, default_init(reference_series, 3), max_iters=15)
        trace = report.loglik_trace
        assert len(trace) == report.iterations == 15
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    # The 3-state reference fit to 17 digits, as fitted when the M-step
    # summed over t down the time axis. A change of the order of its sums
    # moves these in the last bits only, so a re-pin of FIT_DIGESTS that
    # keeps this test passing moved roundoff and nothing else.
    def test_reference_fit_moves_only_in_roundoff(self, reference_fit):
        p = reference_fit[0].params
        assert p.mu.tolist() == pytest.approx(
            [-0.03592768897275064, 4.11657802264837, 6.0271171289246706], rel=1e-12)
        assert p.sigma.tolist() == pytest.approx(
            [0.13132386078564579, 1.2202141332547813, 0.31268903846615714], rel=1e-12)
        np.testing.assert_allclose(p.gamma, [
            [0.14239567896194094, 0.5139000321616989, 0.3437042888763602],
            [0.162463508548098, 0.49055975166937965, 0.34697673978252236],
            [0.11762843315351258, 0.218881891675902, 0.6634896751705854],
        ], rtol=1e-12, atol=0)
        assert reference_fit[0].loglik_trace[-1] == pytest.approx(-417.52212019824634,
                                                                  rel=1e-12)

    def test_params_stay_valid_each_iteration(self):
        rng = np.random.default_rng(15)
        obs = np.concatenate([rng.normal(0, 1, 60), rng.normal(4, 0.5, 60)])
        for iters in (1, 2, 5, 9):
            report = baum_welch(obs, default_init(obs, 2), max_iters=iters)
            p = report.params  # HmmParams validates on construction
            assert abs(p.delta.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(p.gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_state_label_invariance(self, reference_series):
        init = default_init(reference_series, 3)
        rep_a = baum_welch(reference_series, init, max_iters=15)
        rep_b = baum_welch(reference_series, init.permuted([2, 0, 1]), max_iters=15)
        np.testing.assert_allclose(rep_a.params.mu, rep_b.params.mu, atol=1e-9)
        np.testing.assert_allclose(rep_a.params.gamma, rep_b.params.gamma, atol=1e-9)

    def test_report_is_mean_sorted(self, reference_series):
        report = baum_welch(reference_series, default_init(reference_series, 3), max_iters=15)
        assert np.all(np.diff(report.params.mu) >= 0)
        assert sorted(report.state_order) == [0, 1, 2]

    def test_degenerate_state_frozen_not_fatal(self):
        rng = np.random.default_rng(16)
        obs = rng.normal(0.0, 1.0, 100)
        init = HmmParams(delta=[0.5, 0.5], gamma=[[0.5, 0.5], [0.5, 0.5]],
                         mu=[0.0, 1e9], sigma=[1.0, 1e-3])
        report = baum_welch(obs, init, max_iters=4)
        assert report.warnings and "degenerate" in report.warnings[0]
        assert report.params.mu[1] == pytest.approx(1e9)

    def test_delta_is_first_state_posterior(self):
        rng = np.random.default_rng(18)
        obs = rng.normal(0, 1, 50)
        init = default_init(obs, 2)
        report = baum_welch(obs, init, max_iters=1)
        first = forward_backward(init, obs).state_prob[0]
        np.testing.assert_allclose(report.params.delta, first[list(report.state_order)],
                                   rtol=0, atol=1e-15)
        assert not np.allclose(report.params.delta, init.delta)

    def test_init_gamma_diagonal(self):
        p = default_init(np.arange(10.0), 3)
        np.testing.assert_array_equal(np.diag(p.gamma), hmm.GAMMA_DIAG)

    def test_init_validates(self):
        with pytest.raises(ValueError):
            default_init([1.0, 2.0], 3)


class TestPseudoResiduals:
    def test_single_state_median(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        np.testing.assert_allclose(pseudo_residuals(p, [0.0, 0.0, 0.0]), 0.5, atol=1e-12)

    def test_single_state_upper_tail(self):
        p = HmmParams([1.0], [[1.0]], [0.0], [1.0])
        assert pseudo_residuals(p, [1.959964])[0] == pytest.approx(0.975, abs=1e-6)

    def test_single_state_is_the_normal_cdf(self):
        # one state makes u_t = Phi(x_t), with scipy's norm.cdf the oracle;
        # beyond |z| of about 38.5 the state density underflows to 0
        z = np.linspace(-37.0, 37.0, 7401)
        u = pseudo_residuals(HmmParams([1.0], [[1.0]], [0.0], [1.0]), z)
        np.testing.assert_allclose(u, norm.cdf(z), rtol=1e-12, atol=0.0)
        assert np.all(np.diff(u) >= 0.0)
        assert np.all((u >= 0.0) & (u <= 1.0))

    @given(st.integers(0, 1000))
    @settings(max_examples=25)
    def test_residuals_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng, 2)
        obs = rng.normal(0, 3, 30)
        u = pseudo_residuals(p, obs)
        assert np.all((u >= 0.0) & (u <= 1.0))


class TestResidualHistogram:
    def test_one_value_per_bin(self):
        u = np.arange(0.05, 1.0, 0.1)
        np.testing.assert_array_equal(residual_histogram(u), np.ones(10, dtype=int))

    def test_point_mass_lands_in_sixth_bin(self):
        counts = residual_histogram(np.full(17, 0.5))
        assert counts[5] == 17 and counts.sum() == 17

    def test_u_equal_one_goes_to_last_bin(self):
        counts = residual_histogram(np.array([1.0, 0.0]))
        assert counts[-1] == 1 and counts[0] == 1

    def test_uniform_sample_passes_chi_square(self):
        rng = np.random.default_rng(2024)
        counts = residual_histogram(rng.uniform(0, 1, 300))
        assert counts.sum() == 300
        stat = float((((counts - 30.0) ** 2) / 30.0).sum())
        assert stat < chi2.ppf(0.999, 9)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    def test_counts_partition_the_sample(self, us):
        assert residual_histogram(np.array(us)).sum() == len(us)


class TestHmmParams:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            HmmParams([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]], [0, 1], [1, 1])

    def test_rejects_bad_gamma_rows(self):
        with pytest.raises(ValueError):
            HmmParams([0.5, 0.5], [[0.7, 0.5], [0.5, 0.5]], [0, 1], [1, 1])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            HmmParams([1.0], [[1.0]], [0.0], [0.0])

    def test_permutation_roundtrip(self):
        rng = np.random.default_rng(20)
        p = random_params(rng, 3)
        q = p.permuted([2, 0, 1]).permuted([1, 2, 0])
        np.testing.assert_allclose(q.gamma, p.gamma)
        np.testing.assert_allclose(q.mu, p.mu)


# The fit benchmark's input at seed 414: its 4-state fit drove a transition
# probability to 2.3e-308 at iteration 12, where the backward pass failed its
# seam check, until the M-step zeroed entries below GAMMA_FLOOR.
def test_em_on_the_published_model_completes_at_seed_414():
    xs = published_series(np.random.default_rng(414), 3000)
    report = baum_welch(xs, default_init(xs, 4), max_iters=15)
    assert len(report.loglik_trace) == 15
    zeroed = [w for w in report.warnings if "below 1e-200; set to 0" in w]
    assert zeroed and len(zeroed) == int((report.params.gamma == 0.0).sum())


# EM drives the transitions the published model never takes toward 0. At
# both examples a backward row held an entry just below the normal range,
# exact to its subnormal spacing, that the rescaling lifted above it; the
# backward pass called that a lost entry until it compared the entry's
# rounding error with the seam tolerance.
@settings(max_examples=30)
@example(seed=2472, m=3, length=238)
@example(seed=120, m=3, length=120)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(100, 400))
def test_gamma_entries_are_zero_or_at_least_the_floor(seed, m, length):
    xs = published_series(np.random.default_rng(seed), length)
    gamma = baum_welch(xs, default_init(xs, m), max_iters=15).params.gamma
    assert np.all((gamma == 0.0) | (gamma >= hmm.GAMMA_FLOOR))
