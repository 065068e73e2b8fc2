"""Explicit right-hand sides of the stability/generalization inequalities.

Each calculator evaluates one closed-form bound and returns the
right-hand-side value; ``gate`` then compares a measured quantity against it
one-sidedly at 3 standard errors, plus an optional round-off allowance for
two-sided agreement checks (``roundoff_allowance``).  A calculator takes the
quantities its statement names and nothing else: n, the step sizes etas
(eta_1 .. eta_T, so T = len(etas)), the constants L, G, sigma or c1/c2/c3,
and measured risk paths.  Calculator names follow the laboratory's
experiment contract.

Conventions shared by all calculators:
- the bound is evaluated at the output iterate w_{T+1}, so sums run over
  steps j = 1..T and risk paths are indexed by the pre-update iterate w_j:
  risk_path[j-1] estimates E[F_S(w_j)], sqrt_risk_path[j-1] estimates
  E[sqrt(F_S(w_j))] and frac_risk_path[j-1] estimates
  E[F_S(w_j)^(2 alpha / (1 + alpha))], each of length T;
- risk paths recorded at a subset of steps are expanded conservatively (an
  unrecorded step gets the max of the bracketing recorded values);
- p = n/T in the l2 stability bounds (Theorems 2, D.1): (1 + p/n)^T <= e.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, PreconditionViolation


class BoundReport(NamedTuple):
    """One measured-vs-bound comparison.

    satisfied <=> measured <= rhs + 3 * stderr + roundoff, with every one of
    the four finite.  ``roundoff`` is 0 for the one-sided theorem gates; the
    two-sided agreement gates (the thm6 unbiasedness probes and the oracle's
    l1/l2 agreement) pass ``roundoff_allowance`` of the means they compare.
    slack_sigma counts how many stderrs the measurement sits below the bound
    (+inf when the measurement is exact and below, nan when an input is not
    finite).
    """

    name: str
    rhs: float
    measured: float
    satisfied: bool
    slack_sigma: float


def _pairwise_sum_depth(count: int) -> int:
    """Most roundings any one term meets when numpy sums ``count`` terms.

    numpy reduces a contiguous float64 array pairwise: blocks of at most 128
    terms are summed in 8 interleaved lanes (at most 15 additions per lane),
    the lanes are combined in a 3-level tree, and the up to 7 terms left over
    are added one by one; 15 + 3 + 7 = 25.  Blocks are combined by halving,
    which adds one level per halving, at most ceil(log2 count), and the
    reduction adds its result to its initial value once more.
    """
    if count < 1:
        raise InvalidArgument(f"count must be >= 1, got {count}")
    return 26 + math.ceil(math.log2(count))


def roundoff_allowance(closed_form: float, mean_abs_term: float, count: int) -> float:
    """Round-off allowance for |mean of ``count`` terms - closed form|.

    Returns k * eps * (|closed_form| + mean_abs_term), where mean_abs_term
    is the mean of |term| over the terms averaged, eps is the float64
    machine epsilon (twice the unit round-off u) and k =
    ``_pairwise_sum_depth(count)``.

    Derivation: a sum whose terms each pass through at most h roundings has
    |fl(sum) - sum| <= gamma_h * sum |x_i| with gamma_h = h u / (1 - h u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch.
    4); dividing by the count leaves gamma_h * mean |x_i| plus one more
    rounding, u * |mean|.  With k = h, k * eps = 2 h u covers gamma_h (h < 90
    for any count below 2^63, so gamma_h < 1.0001 h u) and leaves about h u *
    (|closed_form| + mean |x_i|) for the last division and for the few
    correctly rounded operations that evaluate the closed form.  The
    allowance therefore grows only with log2 of the count and with the
    size of the terms being subtracted; it is never a blanket tolerance.
    A mean of per-row means passes each term through the roundings of both
    sums, so its allowance is the sum of the allowances of the two levels.

    A NaN term (a measurement that is NaN) gives a NaN allowance, which
    fails the gate it widens; only a negative term is an error.
    """
    if mean_abs_term < 0.0:
        raise InvalidArgument(f"mean_abs_term must be nonnegative, got {mean_abs_term}")
    eps = float(np.finfo(np.float64).eps)
    return _pairwise_sum_depth(count) * eps * (abs(closed_form) + mean_abs_term)


def gate(name: str, rhs: float, measured: float, stderr: float,
         roundoff: float = 0.0) -> BoundReport:
    """One-sided 3-sigma comparison of a measurement against a bound.

    ``roundoff`` widens the comparison by an explicit floating-point
    allowance (see ``roundoff_allowance``).  A comparison in which any of
    the four numbers is not finite fails.
    """
    if stderr < 0.0:
        raise InvalidArgument(f"stderr must be nonnegative, got {stderr}")
    if roundoff < 0.0:
        raise InvalidArgument(f"roundoff must be nonnegative, got {roundoff}")
    finite = all(math.isfinite(v) for v in (rhs, measured, stderr, roundoff))
    satisfied = finite and measured <= rhs + 3.0 * stderr + roundoff
    if not finite:
        slack = math.nan
    elif stderr > 0.0:
        slack = (rhs - measured) / stderr
    else:
        slack = math.inf if measured <= rhs else -math.inf
    return BoundReport(name=name, rhs=float(rhs), measured=float(measured),
                       satisfied=bool(satisfied), slack_sigma=float(slack))


def expand_risk_path(steps: np.ndarray, values: np.ndarray, T: int) -> np.ndarray:
    """Expand a checkpointed path to all steps 1..T, conservatively.

    steps must be sorted, start at 1 and end at T.  A step between two
    checkpoints gets the max of the bracketing recorded values.
    """
    steps = np.asarray(steps, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if steps.shape != values.shape or steps.ndim != 1 or steps.size == 0:
        raise InvalidArgument("steps and values must be equal-length 1-d arrays")
    if steps[0] != 1 or steps[-1] != T or np.any(np.diff(steps) <= 0):
        raise InvalidArgument("steps must be sorted, starting at 1 and ending at T")
    if steps.size == T:
        return values.copy()
    allj = np.arange(1, T + 1)
    right = np.searchsorted(steps, allj, side="left")  # steps[-1] == T keeps this in range
    left = np.clip(right - 1, 0, None)
    exact = steps[right] == allj
    full = np.maximum(values[left], values[right])
    full[exact] = values[right[exact]]
    return full


# ---------------------------------------------------------------------------
# step sizes and paths
# ---------------------------------------------------------------------------

def _etas(etas) -> np.ndarray:
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 1 or etas.size == 0:
        raise InvalidArgument("etas must be a nonempty 1-d array (T >= 1)")
    return etas


def _steps(n: int, etas, *paths) -> list:
    """Check n >= 1, T = len(etas) >= 1 and that every path has length T;
    return etas and the paths as float64 arrays."""
    if not n >= 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    etas = _etas(etas)
    paths = [np.asarray(path, dtype=np.float64) for path in paths]
    if any(path.shape != etas.shape for path in paths):
        raise InvalidArgument(f"every path must have length T = {etas.size}")
    return [etas, *paths]


# ---------------------------------------------------------------------------
# stability bounds
# ---------------------------------------------------------------------------

def _growth_weights(p: float, n: int, T: int, final_exponent: int) -> np.ndarray:
    # (1 + p/n)^(T + final_exponent - j) for j = 1..T
    expo = T + final_exponent - np.arange(1, T + 1, dtype=np.float64)
    return (1.0 + p / n) ** expo


def thm2_l1_bound(n: int, etas, L: float, sqrt_risk_path) -> float:
    """l1 on-average stability of the output iterate, smooth convex case:

        (2 sqrt(2 L) / n) * sum_j eta_j E[sqrt(F_S(w_j))].
    """
    etas, path = _steps(n, etas, sqrt_risk_path)
    if not L > 0.0:
        raise InvalidArgument("positive L is required")
    return float(2.0 * math.sqrt(2.0 * L) / n * np.sum(etas * path))


def thm2_l2_bound(n: int, etas, L: float, risk_path) -> float:
    """Squared l2 on-average stability, smooth convex case, with p = n/T:

        (8 (1 + 1/p) L / n) * sum_j (1 + p/n)^(T-j) eta_j^2 E[F_S(w_j)].
    """
    etas, path = _steps(n, etas, risk_path)
    if not L > 0.0:
        raise InvalidArgument("positive L is required")
    T = etas.size
    p = n / T
    w = _growth_weights(p, n, T, 0)
    return float(8.0 * (1.0 + 1.0 / p) * L / n * np.sum(w * etas ** 2 * path))


def thmD1_nonsmooth_l2_bound(n: int, etas, alpha: float, c1: float, c3: float,
                             frac_risk_path) -> float:
    """Squared l2 on-average stability for convex losses with alpha < 1, p = n/T:

        c3^2 sum_j (1+p/n)^(T+1-j) eta_j^(2/(1-alpha))
        + 4 (1 + 1/p) c1^2 sum_j (1+p/n)^(T-j) (eta_j^2 / n)
              * E[F_S(w_j)^(2 alpha/(1+alpha))].
    """
    etas, path = _steps(n, etas, frac_risk_path)
    if not alpha < 1.0:
        raise InvalidArgument("this bound needs alpha < 1 (use thm2_l2_bound at alpha = 1)")
    T = etas.size
    p = n / T
    slack = c3 ** 2 * np.sum(_growth_weights(p, n, T, 1) * etas ** (2.0 / (1.0 - alpha)))
    risk = 4.0 * (1.0 + 1.0 / p) * c1 ** 2 \
        * np.sum(_growth_weights(p, n, T, 0) * etas ** 2 / n * path)
    return float(slack + risk)


def thm6_convex_stability_bound(n: int, etas, L: float, G: float) -> float:
    """l1 stability when only the empirical objective is convex:

        4 G C_T sum_j eta_j / n + 2 G sqrt(C_T sum_j eta_j^2 / n),
        C_T = prod_j (1 + L^2 eta_j^2).
    """
    [etas] = _steps(n, etas)
    if not G >= 0.0:
        raise InvalidArgument("nonnegative G is required")
    if not L > 0.0:
        raise InvalidArgument("positive L is required")
    C = float(np.prod(1.0 + L ** 2 * etas ** 2))
    s1 = float(np.sum(etas))
    s2 = float(np.sum(etas ** 2))
    return 4.0 * G * C * s1 / n + 2.0 * G * math.sqrt(C * s2 / n)


def thm8_strongly_convex_stability_bound(n: int, G: float, sigma: float,
                                         t: int, t0: int) -> float:
    """l1 stability with a strongly convex empirical objective:

        (4 G / sigma) * (1 / sqrt(n (t + t0)) + 1 / n).
    """
    if not sigma > 0.0:
        raise InvalidArgument("positive sigma is required")
    if not G >= 0.0:
        raise InvalidArgument("nonnegative G is required")
    if not (n >= 1 and t >= 1 and t0 >= 0):
        raise InvalidArgument("n and t must be >= 1 and t0 >= 0")
    return 4.0 * G / sigma * (1.0 / math.sqrt(n * (t + t0)) + 1.0 / n)


# ---------------------------------------------------------------------------
# generalization via stability
# ---------------------------------------------------------------------------

def thm1b_generalization_bound(L: float, l2_sq: float, emp_risk: float) -> float:
    """Gap bound for nonnegative smooth losses, at its best gamma:

        inf over gamma > 0 of (L / gamma) E[F_S(A(S))] + ((L + gamma) / 2) l2_sq
        = sqrt(2 L E[F_S(A(S))]) sqrt(l2_sq) + (L / 2) l2_sq,

    where l2_sq already carries the Def-5 average over neighbors.  The bound
    holds for every gamma, so also at the infimum, which grows with both
    arguments.  Each root is taken before the product, so a subnormal l2_sq
    gives a finite rhs.
    """
    if not L > 0.0:
        raise InvalidArgument("positive L is required")
    if l2_sq < 0.0 or emp_risk < 0.0:
        raise InvalidArgument("l2_sq and emp_risk must be nonnegative")
    return math.sqrt(2.0 * L * emp_risk) * math.sqrt(l2_sq) + 0.5 * L * l2_sq


def thm1c_generalization_bound(c1: float, l2_sq: float, pop_risk_frac: float) -> float:
    """Gap bound for nonnegative convex losses with Hölder subgradients, at
    its best gamma:

        inf over gamma > 0 of c1^2 / (2 gamma) E[F^(2a/(1+a))(A(S))] + (gamma / 2) l2_sq
        = c1 sqrt(E[F^(2a/(1+a))(A(S))]) sqrt(l2_sq).
    """
    if not c1 > 0.0:
        raise InvalidArgument("positive c1 is required")
    if l2_sq < 0.0 or pop_risk_frac < 0.0:
        raise InvalidArgument("l2_sq and pop_risk_frac must be nonnegative")
    return c1 * math.sqrt(pop_risk_frac) * math.sqrt(l2_sq)


def propD2_erm_bound(c1: float, n: int, sigma: float, pop_risk_frac: float) -> float:
    """Gap bound for the exact minimizer of a sigma-strongly-convex F_S:

        2 c1^2 / (n sigma) * E[F^(2a/(1+a))(A(S))].
    """
    if not sigma > 0.0:
        raise InvalidArgument(f"sigma must be positive, got {sigma}")
    if not (c1 > 0.0 and n >= 1 and pop_risk_frac >= 0.0):
        raise InvalidArgument("invalid inputs")
    return 2.0 * c1 ** 2 / (n * sigma) * pop_risk_frac


# ---------------------------------------------------------------------------
# optimization-error bounds
# ---------------------------------------------------------------------------

def lemmaA2a_opt_bound(etas, G: float, w_star_norm_sq: float) -> float:
    """Averaged-iterate optimization error with bounded gradients:

        (G^2 sum_j eta_j^2 + ||w*||^2) / (2 sum_j eta_j).
    """
    etas = _etas(etas)
    if not G >= 0.0:
        raise InvalidArgument("nonnegative G is required")
    if not w_star_norm_sq >= 0.0:
        raise InvalidArgument("w_star_norm_sq must be nonnegative")
    s1 = float(np.sum(etas))
    if s1 <= 0.0:
        raise InvalidArgument("sum of step sizes must be positive")
    s2 = float(np.sum(etas ** 2))
    return (G ** 2 * s2 + w_star_norm_sq) / (2.0 * s1)


def _require_nonincreasing(etas: np.ndarray) -> None:
    if np.any(np.diff(etas) > 0.0):
        raise PreconditionViolation("step sizes must be nonincreasing")


def lemmaA2c_weighted_opt_bound(etas, L: float, w_star_norm_sq: float,
                                risk_at_opt: float) -> float:
    """Bound on sum_j eta_j E[F_S(w_j) - F_S(w*)] for smooth nonneg losses:

        (1/2 + L eta_1) ||w*||^2 + 2 L sum_j eta_j^2 F_S(w*),

    valid for nonincreasing steps with eta_t <= 1/(2L).
    """
    etas = _etas(etas)
    if not L > 0.0:
        raise InvalidArgument("positive L is required")
    _require_nonincreasing(etas)
    # relative to the cap, so units do not matter; 2 eps admits 1/(2L) as rounded
    if np.any(etas * L > 0.5 + 2.0 * np.finfo(np.float64).eps):
        raise PreconditionViolation("steps must satisfy eta_t <= 1/(2L)")
    s2 = float(np.sum(etas ** 2))
    return (0.5 + L * float(etas[0])) * w_star_norm_sq + 2.0 * L * s2 * risk_at_opt


def lemmaA2d_holder_opt_bound(etas, alpha: float, c1: float, c2: float,
                              w_star_norm_sq: float, risk_at_opt: float) -> float:
    """Bound on 2 sum_j eta_j E[F_S(w_j) - F_S(w*)], Hölder case alpha < 1:

        ||w*||^2 + c1^2 (sum eta^2)^((1-a)/(1+a))
          * (eta_1 ||w*||^2 + 2 sum eta^2 F_S(w*) + c2 sum eta^((3-a)/(1-a)))^(2a/(1+a)).
    """
    etas = _etas(etas)
    if not alpha < 1.0:
        raise InvalidArgument("this bound needs alpha < 1")
    _require_nonincreasing(etas)
    a = alpha
    s2 = float(np.sum(etas ** 2))
    if s2 <= 0.0:
        raise InvalidArgument("sum of squared step sizes must be positive")
    bracket = float(etas[0]) * w_star_norm_sq + 2.0 * s2 * risk_at_opt \
        + c2 * float(np.sum(etas ** ((3.0 - a) / (1.0 - a))))
    return w_star_norm_sq \
        + c1 ** 2 * s2 ** ((1.0 - a) / (1.0 + a)) * bracket ** (2.0 * a / (1.0 + a))


# ---------------------------------------------------------------------------
# high-probability / without-replacement extensions
# ---------------------------------------------------------------------------

def _check_alpha_c3(alpha: float, c3: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise InvalidArgument(f"alpha must be in [0, 1), got {alpha}")
    if not c3 > 0.0:
        raise InvalidArgument(f"c3 must be positive, got {c3}")


def propG1_high_prob_bound(c: float, theta: float, alpha: float, c3: float, G: float,
                           t: int, n: int, delta: float) -> float:
    """With probability >= 1 - delta, the coupled distance after t constant
    steps eta_j = c * t^(-theta) is at most

        c3 c^(1/(1-a)) t^(1 - theta/(1-a))
        + 2 G c n^-1 (1 + sqrt(3 n t^-1 log(1/delta))) t^(1-theta).
    """
    if not 0.0 < delta < 1.0:
        raise InvalidArgument(f"delta must be in (0, 1), got {delta}")
    if not (c > 0.0 and 0.0 <= theta <= 1.0 and t >= 1 and n >= 1 and G >= 0.0):
        raise InvalidArgument("invalid inputs")
    _check_alpha_c3(alpha, c3)
    first = c3 * c ** (1.0 / (1.0 - alpha)) * t ** (1.0 - theta / (1.0 - alpha))
    second = 2.0 * G * c / n * (1.0 + math.sqrt(3.0 * n * math.log(1.0 / delta) / t)) \
        * t ** (1.0 - theta)
    return first + second


def propG2_without_replacement_bound(etas_per_epoch, alpha: float, c3: float,
                                     G: float, n: int) -> float:
    """l1 stability of epoch SGD (fresh shuffle per epoch):

        (2 G / n) sum_k sum_t eta^k_t + c3 sum_k sum_t (eta^k_t)^(1/(1-a)).
    """
    if not (G >= 0.0 and n >= 1):
        raise InvalidArgument("invalid inputs")
    _check_alpha_c3(alpha, c3)
    total = 0.0
    for epoch in etas_per_epoch:
        epoch = np.asarray(epoch, dtype=np.float64)
        if np.any(epoch < 0.0):
            raise InvalidArgument("step sizes must be nonnegative")
        total += 2.0 * G / n * float(np.sum(epoch)) \
            + c3 * float(np.sum(epoch ** (1.0 / (1.0 - alpha))))
    return total


def chernoff_exceedance_threshold(mu: float, delta_tail: float) -> float:
    """Multiplicative Chernoff threshold: a Binomial-type count with mean mu
    reaches (1 + d) mu with probability at most delta_tail, by the tail
    exp(-d^2 mu / (2 + d)), which holds for every d > 0.  Solved for d,
    d mu = (l + sqrt(l^2 + 8 mu l)) / 2 with l = log(1/delta_tail).
    """
    if not mu > 0.0:
        raise InvalidArgument(f"mu must be positive, got {mu}")
    if not 0.0 < delta_tail <= 1.0:
        raise InvalidArgument(f"delta_tail must be in (0, 1], got {delta_tail}")
    ell = math.log(1.0 / delta_tail)
    return mu + 0.5 * (ell + math.sqrt(ell * ell + 8.0 * mu * ell))
