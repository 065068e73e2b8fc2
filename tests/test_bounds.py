import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab.bounds import (
    chernoff_exceedance_threshold,
    expand_risk_path,
    gate,
    lemmaA2a_opt_bound,
    lemmaA2c_weighted_opt_bound,
    lemmaA2d_holder_opt_bound,
    propD2_erm_bound,
    propG1_high_prob_bound,
    propG2_without_replacement_bound,
    roundoff_allowance,
    thm1b_generalization_bound,
    thm1c_generalization_bound,
    thm2_l1_bound,
    thm2_l2_bound,
    thm6_convex_stability_bound,
    thm8_strongly_convex_stability_bound,
    thmD1_nonsmooth_l2_bound,
)
from sgdlab.errors import InvalidArgument, PreconditionViolation
from sgdlab.losses import regularity_constants


ONE = np.array([1.0])


# ---------------------------------------------------------------------------
# step validation and gate
# ---------------------------------------------------------------------------

def test_step_based_bounds_validate_n_and_lengths():
    # T = len(etas); n >= 1, T >= 1 and every path of length T are checked
    with_path = [
        lambda n, etas, path: thm2_l1_bound(n, etas, 1.0, path),
        lambda n, etas, path: thm2_l2_bound(n, etas, 1.0, path),
        lambda n, etas, path: thmD1_nonsmooth_l2_bound(n, etas, 0.0, 2.0, 1.0, path),
    ]
    no_path = lambda n, etas, path: thm6_convex_stability_bound(n, etas, 1.0, 1.0)
    for bound in with_path + [no_path]:
        assert bound(1, ONE, ONE) > 0.0
        with pytest.raises(InvalidArgument):
            bound(0, ONE, ONE)
        with pytest.raises(InvalidArgument):
            bound(1, np.array([]), np.array([]))
        with pytest.raises(InvalidArgument):
            bound(1, np.ones((1, 1)), ONE)
    for bound in with_path:
        with pytest.raises(InvalidArgument):
            bound(1, np.array([1.0, 1.0, 1.0]), ONE)
        with pytest.raises(InvalidArgument):
            bound(1, ONE, np.array([1.0, 1.0]))
    with pytest.raises(InvalidArgument):
        lemmaA2a_opt_bound(np.array([]), G=1.0, w_star_norm_sq=1.0)
    with pytest.raises(InvalidArgument):
        lemmaA2c_weighted_opt_bound(np.array([]), L=1.0, w_star_norm_sq=1.0,
                                    risk_at_opt=0.0)
    with pytest.raises(InvalidArgument):
        lemmaA2d_holder_opt_bound(np.array([]), alpha=0.0, c1=2.0, c2=4.0,
                                  w_star_norm_sq=0.0, risk_at_opt=0.0)


def test_gate_semantics():
    ok = gate("b", rhs=1.0, measured=1.1, stderr=0.05)
    assert ok.satisfied  # within 3 sigma above
    assert ok.slack_sigma == pytest.approx(-2.0)
    bad = gate("b", rhs=1.0, measured=1.2, stderr=0.05)
    assert not bad.satisfied
    exact_ok = gate("b", rhs=1.0, measured=0.5, stderr=0.0)
    assert exact_ok.satisfied and exact_ok.slack_sigma == math.inf
    exact_bad = gate("b", rhs=1.0, measured=1.5, stderr=0.0)
    assert not exact_bad.satisfied and exact_bad.slack_sigma == -math.inf
    with pytest.raises(InvalidArgument):
        gate("b", 1.0, 1.0, -0.1)


@pytest.mark.parametrize("c", [0.21, 0.1, 1.0 / 3.0, 0.7, 1e-3, 12345.678, -2.5])
@pytest.mark.parametrize("N", [2, 7, 129, 1000, 20_000, 100_000])
def test_agreement_gate_passes_the_mean_of_equal_copies(c, N):
    # criterion c09 at unit scale: an exactly unbiased sample whose mean
    # differs from the closed form only by summation round-off, and whose
    # stderr is itself round-off
    vals = np.full(N, c)
    mc, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(N))
    allowance = roundoff_allowance(c, float(np.abs(vals).mean()), N)
    rep = gate("probe", 0.0, abs(mc - c), se, allowance)
    assert rep.satisfied
    assert rep.rhs == 0.0 and rep.measured == abs(mc - c)


@pytest.mark.parametrize("N", [2, 20_000, 10**6, 10**9])
def test_roundoff_allowance_is_not_blanket(N):
    allowance = roundoff_allowance(0.2, 0.2, N)
    assert 0.0 < allowance < 1e-13
    assert not gate("probe", 0.0, 1e-12, 0.0, allowance).satisfied
    # it scales with the size of the terms being subtracted
    assert roundoff_allowance(2e5, 2e5, N) == pytest.approx(1e6 * allowance)


def test_gate_nonfinite_inputs_fail():
    inf, nan = math.inf, math.nan
    for rhs, measured, stderr, roundoff in [
            (inf, 1.0, 0.1, 0.0), (nan, 1.0, 0.1, 0.0),
            (1.0, -inf, 0.1, 0.0), (1.0, nan, 0.1, 0.0),
            (1.0, 0.5, inf, 0.0), (1.0, 0.5, nan, 0.0),
            (1.0, 0.5, 0.1, inf), (1.0, 0.5, 0.1, nan)]:
        rep = gate("b", rhs, measured, stderr, roundoff)
        assert not rep.satisfied, (rhs, measured, stderr, roundoff)
        assert math.isnan(rep.slack_sigma)
    # a diverged closed form cannot widen the allowance into a pass
    diverged = roundoff_allowance(inf, 0.2, 1000)
    assert not gate("probe", 0.0, 1.0, 0.0, diverged).satisfied
    with pytest.raises(InvalidArgument):
        gate("b", 1.0, 0.5, 0.1, -1e-16)
    with pytest.raises(InvalidArgument):
        roundoff_allowance(0.2, -0.1, 10)
    # a NaN measurement gives a NaN allowance, which fails its gate
    undefined = roundoff_allowance(0.2, nan, 10)
    assert math.isnan(undefined)
    assert not gate("probe", 0.0, nan, 0.0, undefined).satisfied
    with pytest.raises(InvalidArgument):
        roundoff_allowance(0.2, 0.2, 0)


# ---------------------------------------------------------------------------
# path expansion
# ---------------------------------------------------------------------------

def test_expand_risk_path_identity():
    steps = np.arange(1, 6)
    vals = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    np.testing.assert_array_equal(expand_risk_path(steps, vals, 5), vals)


def test_expand_risk_path_bracketing_max():
    out = expand_risk_path(np.array([1, 3]), np.array([2.0, 1.0]), 3)
    np.testing.assert_array_equal(out, [2.0, 2.0, 1.0])
    out2 = expand_risk_path(np.array([1, 4, 6]), np.array([1.0, 3.0, 0.5]), 6)
    np.testing.assert_array_equal(out2, [1.0, 3.0, 3.0, 3.0, 3.0, 0.5])


def test_expand_risk_path_validation():
    with pytest.raises(InvalidArgument):
        expand_risk_path(np.array([2, 3]), np.array([1.0, 1.0]), 3)  # no step 1
    with pytest.raises(InvalidArgument):
        expand_risk_path(np.array([1, 2]), np.array([1.0, 1.0]), 3)  # no step T
    with pytest.raises(InvalidArgument):
        expand_risk_path(np.array([1, 1, 3]), np.array([1.0, 1.0, 1.0]), 3)
    with pytest.raises(InvalidArgument):
        expand_risk_path(np.array([1, 3]), np.array([1.0]), 3)


# ---------------------------------------------------------------------------
# stability bounds: frozen single-step values
# ---------------------------------------------------------------------------

def test_thm2_l1_frozen():
    assert thm2_l1_bound(1, ONE, 0.5, np.array([1.0])) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(InvalidArgument):
        thm2_l1_bound(1, ONE, 0.0, np.array([1.0]))  # non-positive L


def test_thm2_l2_frozen():
    # p = n/T = 1
    assert thm2_l2_bound(1, ONE, 1.0, np.array([1.0])) == pytest.approx(16.0, rel=1e-15)
    with pytest.raises(InvalidArgument):
        thm2_l2_bound(1, ONE, -1.0, np.array([1.0]))  # non-positive L


def test_thm2_l2_hand_unrolled_sum():
    T, n, L = 4, 3, 2.0
    p = n / T
    etas = np.array([0.4, 0.3, 0.2, 0.1])
    path = np.array([1.0, 0.5, 0.25, 0.125])
    acc = 0.0
    for j in range(1, T + 1):
        acc += (1 + p / n) ** (T - j) * etas[j - 1] ** 2 * path[j - 1]
    expected = 8 * (1 + 1 / p) * L / n * acc
    assert thm2_l2_bound(n, etas, L, path) == pytest.approx(expected, rel=1e-12)


def test_thmD1_frozen_alpha0():
    consts = regularity_constants(0.0, 1.0, g0=1.0)
    assert (consts.c1, consts.c2, consts.c3) == (2.0, 4.0, 1.0)
    eta = 0.5
    got = thmD1_nonsmooth_l2_bound(1, np.array([eta]), 0.0, consts.c1, consts.c3,
                                   np.array([1.0]))
    # T = 1, n = 1, p = n/T = 1: c3^2 (1+p)^1 eta^2 + 4 (1 + 1/p) c1^2 eta^2 * 1
    expected = 1.0 * 2.0 * eta ** 2 + 4.0 * 2.0 * 4.0 * eta ** 2
    assert got == pytest.approx(expected, rel=1e-14)
    with pytest.raises(InvalidArgument):
        thmD1_nonsmooth_l2_bound(1, ONE, 1.0, consts.c1, consts.c3, np.array([1.0]))


def test_thmD1_hand_unrolled_mid_alpha():
    a, L = 0.5, 1.5
    consts = regularity_constants(a, L)
    T, n = 3, 4
    p = n / T
    etas = np.array([0.3, 0.2, 0.1])
    path = np.array([0.9, 0.7, 0.6])
    slack = sum(consts.c3 ** 2 * (1 + p / n) ** (T + 1 - j)
                * etas[j - 1] ** (2 / (1 - a)) for j in range(1, T + 1))
    risk = sum(4 * (1 + 1 / p) * consts.c1 ** 2 * (1 + p / n) ** (T - j)
               * etas[j - 1] ** 2 / n * path[j - 1] for j in range(1, T + 1))
    got = thmD1_nonsmooth_l2_bound(n, etas, a, consts.c1, consts.c3, path)
    assert got == pytest.approx(slack + risk, rel=1e-12)


def test_thm6_frozen():
    assert thm6_convex_stability_bound(1, ONE, L=1.0, G=1.0) \
        == pytest.approx(8.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
    with pytest.raises(InvalidArgument):
        thm6_convex_stability_bound(1, ONE, L=0.0, G=1.0)
    with pytest.raises(InvalidArgument):
        thm6_convex_stability_bound(1, ONE, L=1.0, G=-1.0)


def test_thm8_frozen():
    assert thm8_strongly_convex_stability_bound(100, G=1.0, sigma=1.0, t=50, t0=50) \
        == pytest.approx(0.08)
    with pytest.raises(InvalidArgument):
        thm8_strongly_convex_stability_bound(100, G=1.0, sigma=1.0, t=0, t0=0)
    with pytest.raises(InvalidArgument):
        thm8_strongly_convex_stability_bound(0, G=1.0, sigma=1.0, t=1, t0=0)
    with pytest.raises(InvalidArgument):
        thm8_strongly_convex_stability_bound(100, G=1.0, sigma=0.0, t=1, t0=0)


def test_thm8_decreases_with_horizon_and_n():
    b1 = thm8_strongly_convex_stability_bound(64, G=2.0, sigma=0.5, t=10, t0=0)
    b2 = thm8_strongly_convex_stability_bound(64, G=2.0, sigma=0.5, t=100, t0=0)
    assert b2 < b1
    assert thm8_strongly_convex_stability_bound(256, G=2.0, sigma=0.5, t=10, t0=0) < b1


# ---------------------------------------------------------------------------
# generalization bounds
# ---------------------------------------------------------------------------

def test_thm1b_frozen():
    assert thm1b_generalization_bound(1.0, l2_sq=0.0, emp_risk=1.0) == 0.0
    assert thm1b_generalization_bound(2.0, l2_sq=0.5, emp_risk=0.0) == 0.5
    # sqrt(2 * 2 * 4) * sqrt(0.25) + 0.5 * 2 * 0.25 = 2 + 0.25
    assert thm1b_generalization_bound(2.0, l2_sq=0.25, emp_risk=4.0) == 2.25
    with pytest.raises(InvalidArgument):
        thm1b_generalization_bound(0.0, 0.0, 1.0)  # non-positive L
    with pytest.raises(InvalidArgument):
        thm1b_generalization_bound(1.0, -0.1, 1.0)
    with pytest.raises(InvalidArgument):
        thm1b_generalization_bound(1.0, 0.1, -1.0)


def test_thm1c_frozen():
    assert thm1c_generalization_bound(2.0, l2_sq=0.0, pop_risk_frac=1.0) == 0.0
    # 3 * sqrt(4) * sqrt(0.25)
    assert thm1c_generalization_bound(3.0, l2_sq=0.25, pop_risk_frac=4.0) == 3.0
    with pytest.raises(InvalidArgument):
        thm1c_generalization_bound(0.0, 0.1, 1.0)  # non-positive c1
    with pytest.raises(InvalidArgument):
        thm1c_generalization_bound(2.0, -0.1, 1.0)
    with pytest.raises(InvalidArgument):
        thm1c_generalization_bound(2.0, 0.1, -1.0)


def _thm1b_at(gamma, L, l2_sq, emp_risk):
    return L / gamma * emp_risk + 0.5 * (L + gamma) * l2_sq


def _thm1c_at(gamma, c1, l2_sq, pop_risk_frac):
    return c1 ** 2 / (2.0 * gamma) * pop_risk_frac + 0.5 * gamma * l2_sq


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-12, 1e3), st.floats(1e-6, 1e3))
def test_gap_bounds_are_the_two_term_forms_at_their_best_gamma(scale, l2_sq, risk):
    # the two-term forms hold for every gamma > 0: the rhs is at most each of
    # them on a grid, and equals them at the minimizing gamma within a few ulp
    grid = np.geomspace(1e-8, 1e8, 161)
    smooth = thm1b_generalization_bound(scale, l2_sq, risk)
    holder = thm1c_generalization_bound(scale, l2_sq, risk)
    tol = 8 * np.finfo(np.float64).eps
    assert np.all(smooth <= _thm1b_at(grid, scale, l2_sq, risk) * (1 + tol))
    assert np.all(holder <= _thm1c_at(grid, scale, l2_sq, risk) * (1 + tol))
    best = math.sqrt(2.0 * scale * risk / l2_sq)
    assert smooth == pytest.approx(_thm1b_at(best, scale, l2_sq, risk), rel=tol, abs=0.0)
    best = scale * math.sqrt(risk / l2_sq)
    assert holder == pytest.approx(_thm1c_at(best, scale, l2_sq, risk), rel=tol, abs=0.0)


def test_gap_bounds_stay_finite_when_l2_sq_underflows():
    # the minimizing gamma, sqrt(2 L F / l2_sq), is inf at l2_sq = 1e-320
    assert 0.0 < thm1b_generalization_bound(1.0, 1e-320, 0.5) < 1e-159
    assert 0.0 < thm1c_generalization_bound(1.0, 1e-320, 0.5) < 1e-159


def test_propD2_frozen():
    assert propD2_erm_bound(c1=1.0, n=1, sigma=2.0, pop_risk_frac=1.0) == pytest.approx(1.0)
    assert propD2_erm_bound(c1=3.0, n=10, sigma=0.5, pop_risk_frac=0.2) \
        == pytest.approx(2 * 9 / 5 * 0.2, rel=1e-15)
    with pytest.raises(InvalidArgument):
        propD2_erm_bound(1.0, 1, 0.0, 1.0)
    with pytest.raises(InvalidArgument):
        propD2_erm_bound(1.0, 1, 1.0, -1.0)


# ---------------------------------------------------------------------------
# optimization-error bounds
# ---------------------------------------------------------------------------

def test_lemmaA2a_frozen():
    assert lemmaA2a_opt_bound(ONE, G=1.0, w_star_norm_sq=1.0) == pytest.approx(1.0)
    got = lemmaA2a_opt_bound(np.array([0.5, 0.25, 0.25]), G=2.0, w_star_norm_sq=4.0)
    s1, s2 = 1.0, 0.375
    assert got == pytest.approx((4 * s2 + 4) / (2 * s1), rel=1e-15)
    with pytest.raises(InvalidArgument):
        lemmaA2a_opt_bound(ONE, G=1.0, w_star_norm_sq=-1.0)


def test_lemmaA2c_frozen():
    got = lemmaA2c_weighted_opt_bound(np.array([0.25]), L=1.0, w_star_norm_sq=1.0,
                                      risk_at_opt=0.0)
    assert got == pytest.approx(0.75)
    # steps above 1/(2L) violate the precondition
    with pytest.raises(PreconditionViolation):
        lemmaA2c_weighted_opt_bound(np.array([0.75]), L=1.0, w_star_norm_sq=1.0,
                                    risk_at_opt=0.0)
    # increasing steps violate monotonicity
    with pytest.raises(PreconditionViolation):
        lemmaA2c_weighted_opt_bound(np.array([0.1, 0.2]), L=1.0, w_star_norm_sq=1.0,
                                    risk_at_opt=0.0)
    with pytest.raises(InvalidArgument):
        lemmaA2c_weighted_opt_bound(np.array([0.25]), L=0.0, w_star_norm_sq=1.0,
                                    risk_at_opt=0.0)
    # boundary eta = 1/(2L) exactly is allowed
    ok = lemmaA2c_weighted_opt_bound(np.array([0.5]), L=1.0, w_star_norm_sq=2.0,
                                     risk_at_opt=0.5)
    assert ok == pytest.approx((0.5 + 0.5) * 2.0 + 2 * 1 * 0.25 * 0.5, rel=1e-14)


def test_lemmaA2d_frozen_alpha0():
    consts = regularity_constants(0.0, 1.0, g0=1.0)
    # alpha = 0: the bracket power is 0, so the bound collapses to c1^2 * s2
    assert lemmaA2d_holder_opt_bound(ONE, 0.0, consts.c1, consts.c2, w_star_norm_sq=0.0,
                                     risk_at_opt=0.0) == pytest.approx(4.0)
    with pytest.raises(InvalidArgument):
        lemmaA2d_holder_opt_bound(np.array([0.0]), 0.0, consts.c1, consts.c2,
                                  w_star_norm_sq=0.0, risk_at_opt=0.0)
    with pytest.raises(InvalidArgument):
        lemmaA2d_holder_opt_bound(ONE, 1.0, consts.c1, consts.c2,
                                  w_star_norm_sq=0.0, risk_at_opt=0.0)


def test_lemmaA2d_hand_unrolled_mid_alpha():
    a, L = 0.5, 2.0
    consts = regularity_constants(a, L)
    etas = np.array([0.3, 0.2])
    s2 = float(np.sum(etas ** 2))
    bracket = 0.3 * 1.5 + 2 * s2 * 0.4 + consts.c2 * float(np.sum(etas ** 5.0))
    expected = 1.5 + consts.c1 ** 2 * s2 ** (1 / 3) * bracket ** (2 / 3)
    got = lemmaA2d_holder_opt_bound(etas, a, consts.c1, consts.c2, w_star_norm_sq=1.5,
                                    risk_at_opt=0.4)
    assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# high-probability / epoch bounds
# ---------------------------------------------------------------------------

def test_propG1_frozen_shape():
    # theta = 1 - alpha makes the deterministic term t-independent
    a, L, c = 0.5, 1.0, 0.2
    theta = 1 - a
    c3 = math.sqrt((1 - a) / (1 + a)) * (2 ** -a * L) ** (1 / (1 - a))
    for t in (10, 1000):
        val = propG1_high_prob_bound(c, theta, a, c3, G=0.0, t=t, n=8, delta=0.1)
        assert val == pytest.approx(c3 * c ** 2, rel=1e-12)
    with pytest.raises(InvalidArgument):
        propG1_high_prob_bound(c, theta, a, c3, G=1.0, t=10, n=8, delta=0.0)
    with pytest.raises(InvalidArgument):
        propG1_high_prob_bound(c, theta, a, c3, G=1.0, t=10, n=8, delta=1.0)
    with pytest.raises(InvalidArgument):
        propG1_high_prob_bound(c, theta, a, 0.0, G=1.0, t=10, n=8, delta=0.1)


def test_propG1_hand_value():
    # at alpha = 0, c3 = L = 1
    got = propG1_high_prob_bound(c=0.5, theta=0.75, alpha=0.0, c3=1.0, G=2.0,
                                 t=16, n=4, delta=0.1)
    first = 1.0 * 0.5 * 16 ** (1 - 0.75)
    second = 2 * 2 * 0.5 / 4 * (1 + math.sqrt(3 * 4 * math.log(10.0) / 16)) \
        * 16 ** 0.25
    assert got == pytest.approx(first + second, rel=1e-12)


def test_propG2_frozen():
    for L in (0.5, 1.0, 2.0):
        c3 = regularity_constants(0.0, L, g0=1.0).c3  # = L at alpha = 0
        got = propG2_without_replacement_bound([[1.0]], alpha=0.0, c3=c3, G=1.0, n=1)
        assert got == pytest.approx(2.0 + L, rel=1e-14)
    # two epochs add up
    c3 = regularity_constants(0.5, 1.0).c3
    one = propG2_without_replacement_bound([[0.1, 0.2]], 0.5, c3, 1.0, 2)
    two = propG2_without_replacement_bound([[0.1, 0.2], [0.1, 0.2]], 0.5, c3, 1.0, 2)
    assert two == pytest.approx(2 * one, rel=1e-13)
    with pytest.raises(InvalidArgument):
        propG2_without_replacement_bound([[-0.1]], 0.0, 1.0, 1.0, 1)
    with pytest.raises(InvalidArgument):
        propG2_without_replacement_bound([[0.1]], 1.0, 1.0, 1.0, 1)  # alpha = 1
    with pytest.raises(InvalidArgument):
        propG2_without_replacement_bound([[0.1]], 0.0, 0.0, 1.0, 1)  # c3 = 0


def test_chernoff_frozen():
    assert chernoff_exceedance_threshold(3.0, math.exp(-1.0)) == pytest.approx(6.0)
    assert chernoff_exceedance_threshold(5.0, 1.0) == pytest.approx(5.0)
    with pytest.raises(InvalidArgument):
        chernoff_exceedance_threshold(0.0, 0.5)
    with pytest.raises(InvalidArgument):
        chernoff_exceedance_threshold(1.0, 0.0)


def test_chernoff_binomial_simulation():
    # empirical check that the threshold holds at the stated confidence
    rng = np.random.default_rng(123)
    N, q, trials, delta = 400, 0.05, 2000, 0.1
    mu = N * q
    thr = chernoff_exceedance_threshold(mu, delta)
    counts = rng.binomial(N, q, size=trials)
    exceed = np.mean(counts > thr)
    assert exceed <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=1, max_size=30),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_thm6_product_below_exponential(eta_list, L):
    etas = np.array(eta_list)
    val = thm6_convex_stability_bound(5, etas, L, G=1.0)
    C_exp = math.exp(L ** 2 * float(np.sum(etas ** 2)))
    loose = 4 * C_exp * float(np.sum(etas)) / 5 + 2 * math.sqrt(C_exp * float(np.sum(etas ** 2)) / 5)
    assert 0.0 < val <= loose * (1 + 1e-12)


@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_thm2_bounds_monotone_in_path(T, eta, L):
    etas = np.full(T, eta)
    lo = np.full(T, 0.5)
    hi = np.full(T, 0.7)
    assert thm2_l1_bound(4, etas, L, np.sqrt(lo)) <= thm2_l1_bound(4, etas, L, np.sqrt(hi))
    assert thm2_l2_bound(4, etas, L, lo) <= thm2_l2_bound(4, etas, L, hi)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_expand_risk_path_dominates_checkpoints(T, salt):
    rng = np.random.default_rng(salt)
    # random strictly increasing checkpoint set containing 1 and T
    k = rng.integers(0, T - 1)
    mids = np.sort(rng.choice(np.arange(2, T), size=min(k, max(T - 2, 0)),
                              replace=False)) if T > 2 else np.array([], dtype=int)
    steps = np.unique(np.concatenate([[1], mids, [T]]))
    vals = rng.random(steps.size)
    full = expand_risk_path(steps, vals, T)
    assert full.shape == (T,)
    # recorded positions are reproduced exactly
    np.testing.assert_array_equal(full[steps - 1], vals)
    # everything in between is bounded by the recorded max
    assert np.all(full <= vals.max() + 1e-15)
    assert np.all(full >= vals.min() - 1e-15)


# ---------------------------------------------------------------------------
# changes of units
# ---------------------------------------------------------------------------

def _units(alpha):
    """The unit of each quantity as powers (a, b) of a length and a loss value.

    w is a length and f a loss value, so a step eta is length^2 / value, a
    Hölder constant value / length^(1 + alpha), and c1, c2 and c3 follow from
    the inequalities that define them (``regularity_constants``).
    """
    units = {"eta": (2, -1), "L": (-1 - alpha, 1), "G": (-1, 1), "sigma": (-2, 1),
             "c1": (-1, 1 / (1 + alpha)), "risk": (0, 1), "sqrt_risk": (0, 0.5),
             "frac_risk": (0, 2 * alpha / (1 + alpha)), "w_sq": (2, 0), "l2_sq": (2, 0),
             "l1": (1, 0), "value": (0, 1)}
    if alpha < 1.0:
        units["c2"] = (4 - 2 * (3 - alpha) / (1 - alpha), (3 - alpha) / (1 - alpha) - 1)
        units["c3"] = (1 - 2 / (1 - alpha), 1 / (1 - alpha))
    return units


_N, _ETAS = 16, np.linspace(0.3, 0.05, 12)
_PATH = np.linspace(0.9, 0.2, 12)
_EPOCHS = _ETAS.reshape(3, 4)

# calculator -> (alpha, unit of its value, its value from u(unit, base value))
_SCALE_CASES = {
    "thm2_l1": (1.0, "l1", lambda u: thm2_l1_bound(
        _N, u("eta", _ETAS), u("L", 1.7), u("sqrt_risk", _PATH))),
    "thm2_l2": (1.0, "l2_sq", lambda u: thm2_l2_bound(
        _N, u("eta", _ETAS), u("L", 1.7), u("risk", _PATH))),
    "thmD1_alpha0": (0.0, "l2_sq", lambda u: thmD1_nonsmooth_l2_bound(
        _N, u("eta", _ETAS), 0.0, u("c1", 2.3), u("c3", 1.1), u("frac_risk", _PATH))),
    "thmD1_alpha0.5": (0.5, "l2_sq", lambda u: thmD1_nonsmooth_l2_bound(
        _N, u("eta", _ETAS), 0.5, u("c1", 2.3), u("c3", 1.1), u("frac_risk", _PATH))),
    "thm6": (1.0, "l1", lambda u: thm6_convex_stability_bound(
        _N, u("eta", _ETAS), u("L", 1.7), u("G", 0.8))),
    "thm8": (1.0, "l1", lambda u: thm8_strongly_convex_stability_bound(
        _N, u("G", 0.8), u("sigma", 0.3), 40, 7)),
    "thm1b": (1.0, "value", lambda u: thm1b_generalization_bound(
        u("L", 1.7), u("l2_sq", 0.02), u("risk", 0.4))),
    "thm1c_alpha0": (0.0, "value", lambda u: thm1c_generalization_bound(
        u("c1", 2.3), u("l2_sq", 0.02), u("frac_risk", 0.4))),
    "thm1c_alpha0.5": (0.5, "value", lambda u: thm1c_generalization_bound(
        u("c1", 2.3), u("l2_sq", 0.02), u("frac_risk", 0.4))),
    "propD2": (1.0, "value", lambda u: propD2_erm_bound(
        u("c1", 2.3), _N, u("sigma", 0.3), u("frac_risk", 0.4))),
    "propG1_alpha0": (0.0, "l1", lambda u: propG1_high_prob_bound(
        u("eta", 0.7), 0.75, 0.0, u("c3", 1.1), u("G", 0.8), 40, _N, 0.1)),
    "propG1_alpha0.5": (0.5, "l1", lambda u: propG1_high_prob_bound(
        u("eta", 0.7), 0.75, 0.5, u("c3", 1.1), u("G", 0.8), 40, _N, 0.1)),
    "propG2_alpha0": (0.0, "l1", lambda u: propG2_without_replacement_bound(
        u("eta", _EPOCHS), 0.0, u("c3", 1.1), u("G", 0.8), 4)),
    "propG2_alpha0.5": (0.5, "l1", lambda u: propG2_without_replacement_bound(
        u("eta", _EPOCHS), 0.5, u("c3", 1.1), u("G", 0.8), 4)),
    "lemmaA2a": (1.0, "value", lambda u: lemmaA2a_opt_bound(
        u("eta", _ETAS), u("G", 0.8), u("w_sq", 2.5))),
    # steps up to 0.3, within 1 / (2 L) = 0.5 in every unit
    "lemmaA2c": (1.0, "l2_sq", lambda u: lemmaA2c_weighted_opt_bound(
        u("eta", _ETAS), u("L", 1.0), u("w_sq", 2.5), u("risk", 0.4))),
    # at an interior alpha Lemma A.2(d) raises scaled sums to powers such as
    # 1/3, which no float holds exactly, so its exact test is at alpha = 0
    "lemmaA2d_alpha0": (0.0, "l2_sq", lambda u: lemmaA2d_holder_opt_bound(
        u("eta", _ETAS), 0.0, u("c1", 2.3), u("c2", 5.29), u("w_sq", 2.5), u("risk", 0.4))),
}


@pytest.mark.parametrize("case", list(_SCALE_CASES))
@given(length=st.integers(-10, 10), value=st.integers(-2, 2))
@settings(max_examples=25, deadline=None)
def test_calculators_are_exactly_scale_covariant(case, length, value):
    # lengths times 2^length and loss values times 2^(6 value) move every
    # argument and the bound by their powers of two, exactly: a wrong power
    # of a unit in a calculator moves the bound by another power.  Every
    # power of a scaled argument inside these calculators is an integer, or a
    # square root of an even power, so no rounding differs.
    alpha, out, calc = _SCALE_CASES[case]
    units = _units(alpha)

    def power(unit):
        a, b = units[unit]
        e = a * length + b * 6 * value
        assert abs(e - round(e)) < 1e-9, (unit, e)
        return int(round(e))

    base = calc(lambda unit, v: v)
    got = calc(lambda unit, v: np.ldexp(v, power(unit)))
    assert got == math.ldexp(base, power(out)), (base, got)
